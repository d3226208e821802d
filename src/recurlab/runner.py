"""Experiment execution: scenario dispatch, CSV artifacts, run manifest.

Artifacts are deterministic byte-for-byte given (config, seed): CSV uses
'.' decimals via repr formatting, LF line endings, and a header row; all
reductions are fixed-order numpy kernels, so the thread count knob never
reaches the numbers.  The manifest echoes the effective config and the
sha256 of every artifact so a run can be verified by re-running it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .correlations import correlation_series, local_dimension, superpoly_test
from .grid import save_permutation
from .hitting import ShrinkingTargetSpec, WpWindow, borel_cantelli_fraction, hitting_score, wp_union_measure
from .maps import map_distance, natural_measure
from .perturbation import build_cover, towerize
from .recurrence import RecurrenceWindow, recurrence_score, window_union_measure


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_bytes(header, rows) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def kv_bytes(pairs) -> bytes:
    return ("\n".join(f"{k} = {_fmt(v)}" for k, v in pairs) + "\n").encode("ascii")


@dataclass(frozen=True)
class RunManifest:
    """Config echo plus content digests of everything the run wrote."""

    scenario: str
    config_lines: tuple
    artifacts: tuple  # (name, sha256) pairs
    summary: tuple  # (key, value) pairs
    wall_time_s: float
    version: str = __version__

    def to_bytes(self) -> bytes:
        pairs = [("scenario", self.scenario), ("version", self.version)]
        pairs += [(f"config.{line.split(' = ')[0]}", line.split(" = ", 1)[1])
                  for line in self.config_lines]
        pairs += [(f"artifact.{name}", digest) for name, digest in self.artifacts]
        pairs += list(self.summary)
        pairs.append(("wall_time_s", f"{self.wall_time_s:.3f}"))
        return kv_bytes(pairs)


def _scenario_recurrence(cfg: ExperimentConfig):
    p = cfg.params
    system, f, rate = p["system"], p["observable"], p["rate"]
    measure = natural_measure(system)
    pts = measure.sample(cfg.samples, cfg.seed)
    scores = recurrence_score(system, f, rate, pts, p["horizon"], p["n_start"]).tolist()
    rows = [
        (i,) + tuple(float(v) for v in pts[i]) + (scores[i], p["n_start"], p["horizon"])
        for i in range(cfg.samples)
    ]
    coord_names = [f"x{j}" for j in range(system.space.dim)]
    artifacts = {
        "scores.csv": csv_bytes(
            ["sample", *coord_names, "score", "n_start", "horizon"], rows
        )
    }
    summary = [
        ("scores.median", float(np.median(scores))),
        ("scores.min", float(np.min(scores))),
        ("scores.max", float(np.max(scores))),
        ("metric", "Linf-wrap"),
    ]
    if "window" in p:
        m, l, k = p["window"]
        est = window_union_measure(
            system, f, rate, RecurrenceWindow(m, l, k), cfg.samples, cfg.seed
        )
        artifacts["window.csv"] = csv_bytes(
            ["system", "f", "rate", "m", "l", "k", "estimate", "stderr", "samples", "seed"],
            [(system.describe(), f.describe(), rate.describe(), m, l, k,
              est.value, est.stderr, est.samples, est.seed)],
        )
        summary.append(("window.estimate", est.value))
    return artifacts, summary


def _scenario_hitting(cfg: ExperimentConfig):
    p = cfg.params
    system, f, rate, y = p["system"], p["observable"], p["rate"], p["y"]
    measure = natural_measure(system)
    pts = measure.sample(cfg.samples, cfg.seed)
    scores = hitting_score(system, f, rate, pts, y, p["horizon"], p["n_start"]).tolist()
    coord_names = [f"x{j}" for j in range(system.space.dim)]
    rows = [
        (i,) + tuple(float(v) for v in pts[i]) + (scores[i], p["n_start"], p["horizon"])
        for i in range(cfg.samples)
    ]
    artifacts = {
        "scores.csv": csv_bytes(["sample", *coord_names, "score", "n_start", "horizon"], rows)
    }
    summary = [
        ("scores.median", float(np.median(scores))),
        ("scores.min", float(np.min(scores))),
        ("y", ",".join(repr(float(v)) for v in y)),
        ("metric", "Linf-wrap"),
    ]
    if "wp" in p:
        pp, m, l = p["wp"]
        est = wp_union_measure(
            system, f, rate, y, WpWindow(pp, m, l), cfg.samples, cfg.seed
        )
        artifacts["wp.csv"] = csv_bytes(
            ["system", "f", "y", "rate", "p", "m", "l", "estimate", "stderr", "samples", "seed"],
            [(system.describe(), f.describe(),
              ";".join(repr(float(v)) for v in y), rate.describe(),
              pp, m, l, est.value, est.stderr, est.samples, est.seed)],
        )
        summary.append(("wp.estimate", est.value))
    return artifacts, summary


def _scenario_perturb(cfg: ExperimentConfig):
    p = cfg.params
    system = p["system"]
    cover = build_cover(system.grid, p["delta"], p["epsilon"])
    report = towerize(system.permutation, cover)
    hist_rows = sorted(report.periodicity.histogram.items())
    artifacts = {
        "histogram.csv": csv_bytes(["period", "cells"], hist_rows),
        "report.txt": kv_bytes([
            ("delta", p["delta"]),
            ("epsilon", p["epsilon"]),
            ("cube_edge_cells", cover.edge_cells),
            ("inner_edge_cells", cover.v_edge_cells),
            ("cube_count", cover.cube_count),
            ("outer_mass", cover.outer_mass),
            ("inner_mass", cover.inner_mass),
            ("degenerate_cover", cover.degenerate),
            ("max_displacement", report.max_displacement),
            ("total_redirects", report.total_redirects),
            ("p_star", report.p_star),
            ("p_star_fraction", report.p_star_fraction),
        ]),
    }
    out = {"__permutation__": report.permutation}
    summary = [
        ("max_displacement", report.max_displacement),
        ("p_star", report.p_star),
        ("p_star_fraction", report.p_star_fraction),
    ]
    return artifacts, summary, out


def _scenario_correlations(cfg: ExperimentConfig):
    p = cfg.params
    system, phi = p["system"], p["observable"]
    series = correlation_series(
        system, phi, phi, p["horizons"], scheme=p["scheme"],
        samples=cfg.samples, seed=cfg.seed,
    )
    fit = superpoly_test(series, p["exponents"])
    series_rows = [
        (n, c, t, series.scheme, series.samples, series.seed)
        for n, c, t in zip(series.ns, series.c_hat, series.theta_hat)
    ]
    sn_rows = []
    for v in fit.verdicts:
        for n, s in zip(series.ns, v.weighted):
            sn_rows.append((v.exponent, n, s))
    artifacts = {
        "series.csv": csv_bytes(["n", "c_hat", "theta_hat", "scheme", "samples", "seed"], series_rows),
        "sn.csv": csv_bytes(["p", "n", "s_n"], sn_rows),
        "verdicts.txt": kv_bytes(
            [("norm_phi", series.norm_phi), ("norm_psi", series.norm_psi)]
            + [(f"verdict.p={v.exponent:g}", v.verdict) for v in fit.verdicts]
        ),
    }
    summary = [(f"verdict.p={v.exponent:g}", v.verdict) for v in fit.verdicts]
    return artifacts, summary


def _scenario_dimension(cfg: ExperimentConfig):
    p = cfg.params
    est = local_dimension(p["measure"], p["y"], p["r_min"], p["r_max"])
    artifacts = {
        "masses.csv": csv_bytes(["r", "mass"], list(zip(est.radii, est.masses))),
    }
    summary = [
        ("slope", est.slope),
        ("residual", est.residual),
        ("scheme", est.scheme),
        ("excluded_radii", len(est.excluded_radii)),
    ]
    return artifacts, summary


def _scenario_bc(cfg: ExperimentConfig):
    p = cfg.params
    spec = ShrinkingTargetSpec(p["y"], p["beta"])
    frac = borel_cantelli_fraction(
        p["system"], spec, p["m"], p["horizon"], cfg.samples, cfg.seed
    )
    artifacts = {
        "bc.csv": csv_bytes(
            ["system", "y", "beta", "m", "horizon", "fraction", "samples", "seed"],
            [(p["system"].describe(), ";".join(repr(float(v)) for v in p["y"]),
              p["beta"], p["m"], p["horizon"], frac, cfg.samples, cfg.seed)],
        )
    }
    return artifacts, [("fraction", frac)]


def _scenario_mapdist(cfg: ExperimentConfig):
    p = cfg.params
    value = map_distance(
        p["system"], p["system2"], boxes=p["boxes"],
        samples_per_box=p["samples_per_box"], seed=cfg.seed,
    )
    artifacts = {
        "mapdist.csv": csv_bytes(
            ["system_a", "system_b", "samples_per_box", "seed", "distance"],
            [(p["system"].describe(), p["system2"].describe(),
              p["samples_per_box"], cfg.seed, value)],
        )
    }
    return artifacts, [("distance", value)]


_DISPATCH = {
    "recurrence": _scenario_recurrence,
    "hitting": _scenario_hitting,
    "perturb": _scenario_perturb,
    "correlations": _scenario_correlations,
    "dimension": _scenario_dimension,
    "bc": _scenario_bc,
    "mapdist": _scenario_mapdist,
}


def run_experiment(cfg: ExperimentConfig, start: float | None = None) -> RunManifest:
    """Execute a validated config; write artifacts when an out dir is set.

    Nothing is written until the whole scenario has computed, so an
    invalid configuration or a failed hard guarantee leaves no partial
    artifacts behind.  ``start`` is the ``time.perf_counter()`` reading
    from which the manifest's ``wall_time_s`` counts (the CLI takes it
    before building the config, so system build is included); by
    default the clock starts here.
    """
    if start is None:
        start = time.perf_counter()
    result = _DISPATCH[cfg.scenario](cfg)
    if len(result) == 3:
        artifacts, summary, extra = result
    else:
        artifacts, summary = result
        extra = {}
    wall = time.perf_counter() - start

    digests = []
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name, payload in sorted(artifacts.items()):
        digests.append((name, hashlib.sha256(payload).hexdigest()))
        if out_dir is not None:
            (out_dir / name).write_bytes(payload)
    if "__permutation__" in extra and out_dir is not None:
        save_permutation(extra["__permutation__"], out_dir / "permutation.gprm")

    manifest = RunManifest(
        scenario=cfg.scenario,
        config_lines=tuple(cfg.echo_lines()),
        artifacts=tuple(digests),
        summary=tuple((k, _fmt(v)) for k, v in summary),
        wall_time_s=wall,
    )
    if out_dir is not None:
        (out_dir / "manifest.txt").write_bytes(manifest.to_bytes())
    return manifest
