"""Experiment configuration: sectioned key = value files, fail-closed.

A config is a plain-text file of ``[section]`` headers and ``key = value``
lines; ``#`` starts a comment.  Command-line overrides are merged first,
so they are checked the same way.  ``load_config`` then works in three
steps: it reads every section the scenario asks for, checks the config as
a whole, and only then builds the systems.  The keys a reader asks for
are the only keys that exist: a key or section that no reader asks for
is an error, as are missing required keys, unparsable values and keys
that contradict each other.  Each error names its section and key, and
the line where one key is at fault; every one is raised before any
system is built.  What building raises propagates as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .correlations import _dyadic_radii
from .grid import MAX_CELL_BITS, MAX_TOTAL_CELLS, GridPermutation, discretize, torus_grid
from .hitting import ShrinkingTargetSpec, WpWindow
from .maps import (
    MAX_HORIZON,
    GridBackedMap,
    Identity,
    Rotation,
    ToralAutomorphism,
    cat_map,
    golden_rotation,
)
from .observables import MAX_FREQUENCY, CoordinateTrig, IdentityObservable, Observable
from .perturbation import build_cover, towerize
from .rates import RateSequence, TableRate, parse_rate
from .recurrence import RecurrenceWindow
from .spaces import DIAMETER


class ConfigError(ValueError):
    """Invalid configuration; the message names the key and line."""


def _loc(line: int) -> str:
    return f"line {line}" if line else "override"


SCENARIOS = ("recurrence", "hitting", "perturb", "correlations", "dimension", "bc", "mapdist")
_KINDS = {"rotation", "golden", "cat", "automorphism", "identity", "shift"}


def parse_config_text(text: str) -> dict:
    """Parse sections into {section: {key: (value, line_number)}}."""
    sections: dict[str, dict] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        sections[current][key] = (value, lineno)
    return sections


def apply_overrides(sections: dict, overrides) -> dict:
    """Merge ``section.key=value`` strings; overrides win over the file."""
    out = {s: dict(kv) for s, kv in sections.items()}
    for item in overrides or ():
        target, _, value = item.partition("=")
        section, _, key = target.partition(".")
        if not section or not key:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        out.setdefault(section, {})[key.strip()] = (value.strip(), 0)
    return out


def _floats(text):
    return tuple(map(float, text.split(",")))


def _ints(text):
    return tuple(map(int, text.split(",")))


def _int_rows(text):
    return tuple(map(_ints, text.split(";")))


def _float_rows(text):
    return tuple(map(_floats, text.split(";")))


# parse -> (what a value it rejects "is not", the message for a nan or inf
# in a value it reads; None where it reads no floats).
_FORMS = {
    int: ("an integer", None),
    float: ("a number", "is not finite"),
    _ints: ("an integer list", None),
    _floats: ("a number list", "has a non-finite entry"),
    _int_rows: ("rows 'a,b;c,d'", None),
    _float_rows: ("rows 'k1,k2;...'", "has a non-finite entry"),
}


def _entries(value):
    """The numbers of a parsed value: one, a list or rows."""
    return [v for x in value for v in _entries(x)] if isinstance(value, tuple) else [value]


class _Section:
    """One section's keys, read through ``get``; notes every key asked for."""

    def __init__(self, name: str, kv: dict):
        self.name = name
        self.kv = kv
        self.read: set[str] = set()
        self.opened = False  # asked for by a reader, whether or not it reads a key

    def get(self, key, parse=str, default=None, required=False, choices=None, minimum=None,
            maximum=None):
        """``key`` through ``parse``: ``str``, ``int``, ``float`` or one of
        the list and rows parsers above.  A missing key gives ``default``
        as it is."""
        self.read.add(key)
        if key not in self.kv:
            if required:
                raise ConfigError(f"[{self.name}] is missing required key {key!r}")
            return default
        text, line = self.kv[key]
        where = f"{_loc(line)}: [{self.name}] {key}"
        form, non_finite = _FORMS.get(parse, (None, None))
        try:
            value = parse(text)
        except ValueError:
            raise ConfigError(f"{where} = {text!r} is not {form}")
        if non_finite and not all(map(math.isfinite, _entries(value))):
            raise ConfigError(f"{where} = {text!r} {non_finite}")
        if choices and value not in choices:
            raise ConfigError(f"{where} = {text!r} not in {sorted(choices)}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{where} must be >= {minimum}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{where} must be <= {maximum}")
        return value


def _record(section: str, make, *args):
    """``make(*args)``: a parameter record or a grid, whose own rule a
    value breaks is a config error naming ``section``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}")


class SystemSpec(NamedTuple):
    """A read [system] section: the kind's parameters and the dimension of
    its space.  Nothing is built until ``build_system``.  (A NamedTuple:
    a dataclass takes about five times as long to create at import.)"""

    kind: str
    dim: int
    alpha: tuple | None = None  # rotation
    matrix: tuple | None = None  # automorphism rows
    shift: int | None = None  # shift
    grid_m: int | None = None
    tower: tuple | None = None  # (towerize_delta, towerize_epsilon)


def read_system(s: _Section) -> SystemSpec:
    """Read ``kind``, the keys it uses (``alpha``, ``matrix``, ``dim`` or
    ``shift``), ``grid_m`` and the ``towerize_delta`` / ``_epsilon`` pair."""
    kind = s.get("kind", required=True, choices=_KINDS)
    alpha = matrix = shift = None
    dim = 2 if kind == "cat" else 1
    # At most MAX_CELL_BITS axes, as on every grid (m >= 1, m * dim <= 26).
    if kind == "rotation":
        alpha = s.get("alpha", _floats, required=True)
        dim = len(alpha)
    elif kind == "automorphism":
        matrix = s.get("matrix", _int_rows, required=True)
        dim = len(matrix)
    elif kind == "identity":
        dim = s.get("dim", int, default=1, minimum=1, maximum=MAX_CELL_BITS)
    elif kind == "shift":
        shift = s.get("shift", int, required=True)
    if dim > MAX_CELL_BITS:
        key = "alpha" if kind == "rotation" else "matrix"
        raise ConfigError(f"[{s.name}] {key} has {dim} axes, above the cap of {MAX_CELL_BITS}")
    grid_m = s.get("grid_m", int, required=kind == "shift", minimum=1)
    if grid_m is not None:
        _record(s.name, torus_grid, dim, grid_m)
    delta = s.get("towerize_delta", float)
    epsilon = s.get("towerize_epsilon", float)
    if (delta is None) != (epsilon is None):
        raise ConfigError(f"[{s.name}] towerize_delta and towerize_epsilon go together")
    if delta is not None and grid_m is None:
        raise ConfigError(f"[{s.name}] towerize_* needs grid_m (a grid-backed map)")
    if epsilon is not None and not 0 < epsilon < 1:
        raise ConfigError(f"[{s.name}] towerize_epsilon must lie in (0, 1)")
    tower = None if delta is None else (delta, epsilon)
    return SystemSpec(kind, dim, alpha, matrix, shift, grid_m, tower)


def build_system(spec: SystemSpec):
    """Construct the system map a read [system] section describes.

    ``grid_m`` discretizes the base map onto a torus grid; ``tower`` then
    applies the tower redirect.  Returns the map alone.
    """
    if spec.kind == "rotation":
        base = Rotation(spec.alpha)
    elif spec.kind == "golden":
        base = golden_rotation()
    elif spec.kind == "cat":
        base = cat_map()
    elif spec.kind == "automorphism":
        base = ToralAutomorphism(spec.matrix)
    elif spec.kind == "identity":
        base = Identity(spec.dim)
    else:  # shift
        base = GridBackedMap(GridPermutation.cyclic_shift(torus_grid(1, spec.grid_m), spec.shift))
    if spec.grid_m is not None and spec.kind != "shift":
        base = GridBackedMap(discretize(base, torus_grid(base.dim, spec.grid_m)))
    if spec.tower is not None:
        cover = build_cover(base.grid, *spec.tower)
        base = GridBackedMap(towerize(base.permutation, cover).permutation)
    return base


def read_observable(s: _Section, dim: int) -> Observable:
    """The identity by default; ``kind = trig`` reads ``freqs``, rows of
    ``dim`` integer entries within +/-``MAX_FREQUENCY``."""
    if s.get("kind", default="identity", choices={"identity", "trig"}) == "identity":
        return IdentityObservable(dim)
    rows = s.get("freqs", _float_rows, required=True)
    if any(len(row) != dim for row in rows):
        raise ConfigError(f"[{s.name}] freqs rows must have the system's dimension, {dim}")
    if not all(v.is_integer() for row in rows for v in row):
        raise ConfigError(f"[{s.name}] freqs must be integers")
    if any(abs(v) > MAX_FREQUENCY for row in rows for v in row):
        raise ConfigError(f"[{s.name}] freqs must lie within +/-{MAX_FREQUENCY}")
    return CoordinateTrig(rows)


def read_rate(s: _Section) -> RateSequence:
    return _record("rate", parse_rate, s.get("value", default="pow:1"))


@dataclass
class ExperimentConfig:
    """Validated, fully built experiment description."""

    scenario: str
    seed: int | None  # None for dimension, which takes no samples
    samples: int | None  # None for dimension, mapdist and perturb
    out_dir: str | None
    sections: dict = field(repr=False)
    params: dict = field(repr=False)

    def echo_lines(self):
        """Flat, sorted key = value lines for the run manifest."""
        lines = []
        for name in sorted(self.sections):
            for key in sorted(self.sections[name]):
                value, _ = self.sections[name][key]
                lines.append(f"{name}.{key} = {value}")
        return lines


def _read(scenario: str, given: dict) -> tuple[ExperimentConfig, dict]:
    """Read every key the scenario asks for; return the config, without its
    systems, and the spec of each system to build, by parameter name."""

    def section(name, required=False):
        if name in given:
            given[name].opened = True
            return given[name]
        if required:
            raise ConfigError(f"scenario {scenario!r} needs a [{name}] section")
        return _Section(name, {})

    run = section("run")
    declared = run.get("scenario", choices=set(SCENARIOS))
    if declared is not None and declared != scenario:
        raise ConfigError(
            f"config declares scenario {declared!r} but {scenario!r} was requested"
        )
    params = {}
    specs = {}
    if scenario != "dimension":
        specs["system"] = read_system(section("system", required=True))
    dim = specs["system"].dim if specs else 1
    # local_dimension takes no sample points and no seed, so dimension
    # reads neither key and rejects both when given; map_distance draws
    # samples_per_box points, so mapdist reads the seed alone, as do
    # full-grid correlations, which average over every cell, and perturb,
    # which builds a tower over every cell.
    sampled = scenario not in ("dimension", "mapdist", "perturb")

    s = section(scenario, required=scenario != "mapdist")
    if scenario in ("recurrence", "hitting"):
        params["observable"] = read_observable(section("observable"), dim)
        params["rate"] = read_rate(section("rate"))
        params["horizon"] = s.get("horizon", int, required=True, minimum=1, maximum=MAX_HORIZON)
        params["n_start"] = s.get("n_start", int, default=1, minimum=1)
        if params["n_start"] > params["horizon"]:
            raise ConfigError(f"[{scenario}] n_start must not exceed horizon")
        if scenario == "recurrence":
            name, make, keys = "window", RecurrenceWindow, ("m", "l", "k")
            window = [s.get("m", int, minimum=1), s.get("l", int, minimum=1, maximum=MAX_HORIZON),
                      s.get("k", float)]
        else:
            params["y"] = np.asarray(s.get("y", _floats, required=True))
            name, make, keys = "wp", WpWindow, ("p", "m", "l")
            window = [s.get("p", int, minimum=1), s.get("m", int, minimum=1),
                      s.get("l", int, minimum=1, maximum=MAX_HORIZON)]
        if any(v is not None for v in window):
            if any(v is None for v in window):
                raise ConfigError(f"[{scenario}] {name} window needs all of {', '.join(keys)}")
            params[name] = _record(scenario, make, *window)
    elif scenario == "perturb":
        params["delta"] = s.get("delta", float, required=True)
        params["epsilon"] = s.get("epsilon", float, required=True)
        if not 0 < params["epsilon"] < 1:
            raise ConfigError("[perturb] epsilon must lie in (0, 1)")
    elif scenario == "correlations":
        params["observable"] = read_observable(section("observable"), dim)
        horizons = s.get("horizons", _ints, required=True)
        if sorted(horizons) != list(horizons) or len(set(horizons)) != len(horizons):
            raise ConfigError("[correlations] horizons must be strictly increasing")
        if horizons[0] < 1:
            raise ConfigError("[correlations] horizons must be >= 1")
        params["horizons"] = horizons
        params["exponents"] = s.get("exponents", _floats, default=(1.0, 2.0, 4.0))
        params["scheme"] = s.get("scheme", default="full-grid", choices={"full-grid", "monte-carlo"})
        sampled = params["scheme"] == "monte-carlo"
        # Full-grid reaches any horizon in O(log n) gathers; monte-carlo steps.
        if sampled and horizons[-1] > MAX_HORIZON:
            raise ConfigError(f"[correlations] monte-carlo horizons must be <= {MAX_HORIZON}")
    elif scenario == "dimension":
        y = s.get("y", _floats, required=True)
        grid_m = s.get("grid_m", int, minimum=1)
        params["grid"] = _record(scenario, torus_grid, len(y), grid_m) if grid_m else None
        params["y"] = np.asarray(y)
        params["r_min"] = s.get("r_min", float, required=True)
        params["r_max"] = s.get("r_max", float, required=True)
        if not 0 < params["r_min"] < params["r_max"] <= DIAMETER:
            raise ConfigError(f"[dimension] need 0 < r_min < r_max <= {DIAMETER}, "
                              "the torus diameter")
        _record(scenario, _dyadic_radii, params["r_min"], params["r_max"])
    elif scenario == "bc":
        params["target"] = _record(scenario, ShrinkingTargetSpec,
                                   s.get("y", _floats, required=True),
                                   s.get("beta", float, required=True))
        params["m"] = s.get("m", int, required=True, minimum=1)
        params["horizon"] = s.get("horizon", int, required=True, minimum=2, maximum=MAX_HORIZON)
        if params["m"] >= params["horizon"]:
            raise ConfigError("[bc] need 1 <= m < horizon")
    else:  # mapdist
        specs["system2"] = read_system(section("system2", required=True))
        params["samples_per_box"] = s.get("samples_per_box", int, default=4096, minimum=1)
    cfg = ExperimentConfig(
        scenario,
        seed=run.get("seed", int, default=0, minimum=0) if scenario != "dimension" else None,
        samples=run.get("samples", int, default=100, minimum=1) if sampled else None,
        out_dir=run.get("out"),
        sections={name: sec.kv for name, sec in given.items()},
        params=params,
    )
    run.get("threads", int, default=1, minimum=1)  # checked and echoed; no kernel reads it
    return cfg, specs


def _check(cfg: ExperimentConfig, specs: dict, given: dict) -> None:
    """Reject keys no reader asked for, oversized or undersized sample
    counts, too few correlation horizons, rate tables shorter than the
    scan, and keys of different sections that contradict each other."""
    scenario, samples, params = cfg.scenario, cfg.samples, cfg.params
    for name, sec in given.items():
        for key, (_, line) in sec.kv.items():
            if key not in sec.read:
                raise ConfigError(f"{_loc(line)}: [{name}] {key} is not read by "
                                  f"scenario {scenario!r} with this config")
        if not sec.opened:  # only an empty section gets here
            raise ConfigError(f"empty section [{name}] is not read by scenario {scenario!r}")

    # Sample points are (samples, dim) float64 arrays; they share the grid's
    # cell budget, and so do map_distance's samples_per_box points.
    dim = specs["system"].dim if specs else 1
    per_box = params.get("samples_per_box")
    for key, count in {"[run] samples": samples, "[mapdist] samples_per_box": per_box}.items():
        if count is not None and count * dim > MAX_TOTAL_CELLS:
            raise ConfigError(f"{key} = {count}: {count} x {dim} coordinates exceed "
                              f"the {MAX_TOTAL_CELLS}-value budget for sample points")
    if ("window" in params or "wp" in params) and samples < 100:
        raise ConfigError(
            f"[run] samples = {samples}: union-measure estimates need at least "
            f"100 samples (the [{scenario}] window)"
        )

    # A rate table is read up to the horizon and up to the window's l.
    rate = params.get("rate")
    if isinstance(rate, TableRate):
        window = params.get("window") or params.get("wp")
        needed = max(params["horizon"], window.l if window else 0)
        if len(rate.entries) < needed:
            raise ConfigError(f"[rate] value is a table of {len(rate.entries)} entries, but "
                              f"[{scenario}] reads r_n up to n = {needed}")

    y = params["target"].y if scenario == "bc" else params.get("y")
    if scenario in ("hitting", "bc") and len(y) != dim:
        raise ConfigError(f"[{scenario}] y has the wrong dimension")
    # The monte-carlo correlation scheme samples the natural measure and
    # needs no grid.
    needs_grid = scenario == "perturb" or params.get("scheme") == "full-grid"
    if needs_grid and specs["system"].grid_m is None:
        raise ConfigError(f"[{scenario}] needs a grid-backed system (set grid_m)")
    # superpoly_test needs >= 8 horizons spanning two decades, and the
    # runner calls it only after the whole correlation pass.
    horizons = params.get("horizons")
    if horizons is not None and (len(horizons) < 8 or horizons[-1] < 100 * horizons[0]):
        raise ConfigError("[correlations] horizons must be at least 8 values spanning "
                          "two decades (last >= 100 x first) for the superpoly test")
    if scenario == "mapdist" and specs["system2"].dim != dim:
        raise ConfigError("[system2] must have the dimension of [system]")


def load_config(scenario: str, text: str, overrides=None) -> ExperimentConfig:
    """Parse and merge overrides; then read, check and build, in that order.

    Every ``ConfigError`` is raised before ``build_system`` is first
    called.  Whatever else is raised, while building or before, propagates
    as it is: telling infeasible parameters from bugs is the caller's.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    sections = apply_overrides(parse_config_text(text), overrides)
    given = {name: _Section(name, kv) for name, kv in sections.items()}
    cfg, specs = _read(scenario, given)
    _check(cfg, specs, given)
    cfg.params.update({name: build_system(spec) for name, spec in specs.items()})
    return cfg
