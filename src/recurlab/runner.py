"""Experiment execution: scenario dispatch, CSV artifacts, run manifest.

Each scenario is called as ``_scenario_<name>(cfg, **cfg.params)`` and names
every parameter ``config._read`` gives it, so one read but not taken, or
taken but not read, fails at the call.  It returns ``(artifacts, summary)``:
artifact bytes by file name and the manifest's summary pairs; ``perturb``
adds the permutation it built, saved unhashed as ``permutation.gprm``.

Artifacts are deterministic byte-for-byte given (config, seed): CSV uses
'.' decimals via repr formatting, LF line endings, and a header row; all
reductions are fixed-order numpy kernels, so the thread count knob never
reaches the numbers.  The manifest echoes the effective config, the
Python and numpy versions and the sha256 of every artifact so a run can
be verified by re-running it.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .correlations import correlation_series, local_dimension, superpoly_test
from .grid import save_permutation
from .hitting import borel_cantelli_fraction, hitting_score, wp_union_measure
from .maps import map_distance, natural_measure
from .perturbation import build_cover, towerize
from .recurrence import recurrence_score, window_union_measure


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

    def to_bytes(self) -> bytes:
        # Output bits follow numpy's rounding paths, so the manifest names
        # the interpreter and numpy that produced them.
        pairs = [("scenario", self.scenario), ("version", __version__),
                 ("python", ".".join(map(str, sys.version_info[:3]))),
                 ("numpy", np.__version__)]
        pairs += [(f"config.{line.split(' = ')[0]}", line.split(" = ", 1)[1])
                  for line in self.config_lines]
        pairs += [(f"artifact.{name}", digest) for name, digest in self.artifacts]
        pairs += list(self.summary)
        pairs.append(("wall_time_s", f"{self.wall_time_s:.3f}"))
        return kv_bytes(pairs)


def _scores(cfg: ExperimentConfig, system, score, horizon: int, n_start: int, stats):
    """``scores.csv`` of ``score(pts)`` at ``cfg.samples`` points drawn from
    the natural measure, and a summary line ``scores.<stat>`` for each numpy
    reduction named in ``stats``."""
    pts = natural_measure(system).sample(cfg.samples, cfg.seed)
    scores = score(pts).tolist()
    coord_names = [f"x{j}" for j in range(system.space.dim)]
    rows = [(i, *map(float, pts[i]), s, n_start, horizon) for i, s in enumerate(scores)]
    artifacts = {
        "scores.csv": csv_bytes(["sample", *coord_names, "score", "n_start", "horizon"], rows)
    }
    summary = [(f"scores.{stat}", float(getattr(np, stat)(scores))) for stat in stats]
    return artifacts, summary


def _scenario_recurrence(cfg, system, observable, rate, horizon, n_start, window=None):
    artifacts, summary = _scores(
        cfg, system, lambda pts: recurrence_score(system, observable, rate, pts, horizon, n_start),
        horizon, n_start, ("median", "min", "max"),
    )
    summary.append(("metric", "Linf-wrap"))
    if window is not None:
        est = window_union_measure(system, observable, rate, window, cfg.samples, cfg.seed)
        artifacts["window.csv"] = csv_bytes(
            ["system", "f", "rate", "m", "l", "k", "estimate", "stderr", "samples", "seed"],
            [(system.describe(), observable.describe(), rate.describe(), window.m, window.l,
              window.k, est.value, est.stderr, est.samples, est.seed)],
        )
        summary.append(("window.estimate", est.value))
    return artifacts, summary


def _scenario_hitting(cfg, system, observable, rate, y, horizon, n_start, wp=None):
    artifacts, summary = _scores(
        cfg, system, lambda pts: hitting_score(system, observable, rate, pts, y, horizon, n_start),
        horizon, n_start, ("median", "min"),
    )
    summary += [("y", ",".join(repr(float(v)) for v in y)), ("metric", "Linf-wrap")]
    if wp is not None:
        est = wp_union_measure(system, observable, rate, y, wp, cfg.samples, cfg.seed)
        artifacts["wp.csv"] = csv_bytes(
            ["system", "f", "y", "rate", "p", "m", "l", "estimate", "stderr", "samples", "seed"],
            [(system.describe(), observable.describe(),
              ";".join(repr(float(v)) for v in y), rate.describe(),
              wp.p, wp.m, wp.l, est.value, est.stderr, est.samples, est.seed)],
        )
        summary.append(("wp.estimate", est.value))
    return artifacts, summary


def _scenario_perturb(cfg, system, delta, epsilon):
    cover = build_cover(system.grid, delta, epsilon)
    report = towerize(system.permutation, cover)
    hist_rows = sorted(report.periodicity.histogram.items())
    artifacts = {
        "histogram.csv": csv_bytes(["period", "cells"], hist_rows),
        "report.txt": kv_bytes([
            ("delta", delta),
            ("epsilon", epsilon),
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
    summary = [
        ("max_displacement", report.max_displacement),
        ("p_star", report.p_star),
        ("p_star_fraction", report.p_star_fraction),
    ]
    return artifacts, summary, report.permutation


def _scenario_correlations(cfg, system, observable, horizons, exponents, scheme):
    series = correlation_series(
        system, observable, observable, horizons, scheme=scheme,
        samples=cfg.samples, seed=cfg.seed,
    )
    fit = superpoly_test(series, exponents)
    verdicts = [(f"verdict.p={v.exponent:g}", v.verdict) for v in fit.verdicts]
    series_rows = [
        (n, c, t, series.scheme, series.samples, series.seed)
        for n, c, t in zip(series.ns, series.c_hat, series.theta_hat)
    ]
    sn_rows = [(v.exponent, n, s) for v in fit.verdicts for n, s in zip(series.ns, v.weighted)]
    artifacts = {
        "series.csv": csv_bytes(["n", "c_hat", "theta_hat", "scheme", "samples", "seed"], series_rows),
        "sn.csv": csv_bytes(["p", "n", "s_n"], sn_rows),
        "verdicts.txt": kv_bytes(
            [("norm_phi", series.norm_phi), ("norm_psi", series.norm_psi)] + verdicts
        ),
    }
    return artifacts, verdicts


def _scenario_dimension(cfg, measure, y, r_min, r_max):
    est = local_dimension(measure, y, r_min, r_max)
    artifacts = {"masses.csv": csv_bytes(["r", "mass"], list(zip(est.radii, est.masses)))}
    summary = [
        ("slope", est.slope),
        ("residual", est.residual),
        ("scheme", est.scheme),
        ("excluded_radii", len(est.excluded_radii)),
    ]
    return artifacts, summary


def _scenario_bc(cfg, system, target, m, horizon):
    frac = borel_cantelli_fraction(system, target, m, horizon, cfg.samples, cfg.seed)
    artifacts = {
        "bc.csv": csv_bytes(
            ["system", "y", "beta", "m", "horizon", "fraction", "samples", "seed"],
            [(system.describe(), ";".join(repr(float(v)) for v in target.y),
              target.beta, m, horizon, frac, cfg.samples, cfg.seed)],
        )
    }
    return artifacts, [("fraction", frac)]


def _scenario_mapdist(cfg, system, system2, samples_per_box):
    value = map_distance(system, system2, samples_per_box=samples_per_box, seed=cfg.seed)
    artifacts = {
        "mapdist.csv": csv_bytes(
            ["system_a", "system_b", "samples_per_box", "seed", "distance"],
            [(system.describe(), system2.describe(), samples_per_box, cfg.seed, value)],
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
    artifacts, summary, *permutation = _DISPATCH[cfg.scenario](cfg, **cfg.params)
    wall = time.perf_counter() - start

    manifest = RunManifest(
        scenario=cfg.scenario,
        config_lines=tuple(cfg.echo_lines()),
        artifacts=tuple((name, hashlib.sha256(payload).hexdigest())
                        for name, payload in sorted(artifacts.items())),
        summary=tuple((k, _fmt(v)) for k, v in summary),
        wall_time_s=wall,
    )
    if cfg.out_dir:
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, payload in artifacts.items():
            (out_dir / name).write_bytes(payload)
        for gp in permutation:
            save_permutation(gp, out_dir / "permutation.gprm")
        (out_dir / "manifest.txt").write_bytes(manifest.to_bytes())
    return manifest
