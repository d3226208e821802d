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
system is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import MAX_TOTAL_CELLS, DiscretizationError, GridPermutation, discretize, torus_grid
from .maps import (
    GridBackedMap,
    Identity,
    Rotation,
    ToralAutomorphism,
    cat_map,
    golden_rotation,
)
from .observables import CoordinateTrig, IdentityObservable, Observable
from .perturbation import build_cover, towerize
from .rates import RateSequence, parse_rate
from .spaces import MeasureModel, torus

# What the library raises on purpose for infeasible parameters or a failed
# hard guarantee (CoverError and ConfigError are ValueErrors), plus I/O
# errors; anything else is an internal error.
INFEASIBLE = (ValueError, DiscretizationError, AssertionError, MemoryError, OSError)


class ConfigError(ValueError):
    """Invalid configuration; the message names the key and line."""


class InternalError(Exception):
    """An unexpected exception while a config was loaded: a bug in recurlab,
    not a bad parameter.  It is raised from that exception."""


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


class _Section:
    """Typed accessors over one section; notes every key a reader asks for."""

    def __init__(self, name: str, kv: dict):
        self.name = name
        self.kv = kv
        self.read: set[str] = set()
        self.opened = False  # asked for by a reader, whether or not it reads a key

    def _raw(self, key: str, default=None, required=False):
        self.read.add(key)
        if key not in self.kv:
            if required:
                raise ConfigError(f"[{self.name}] is missing required key {key!r}")
            return default, 0
        return self.kv[key]

    def get_str(self, key, default=None, required=False, choices=None):
        value, line = self._raw(key, default, required)
        if value is None:
            return None
        if choices and value not in choices:
            raise ConfigError(
                f"{_loc(line)}: [{self.name}] {key} = {value!r} not in {sorted(choices)}"
            )
        return value

    def get_int(self, key, default=None, required=False, minimum=None):
        value, line = self._raw(key, default, required)
        if value is None:
            return None
        try:
            out = int(str(value))
        except ValueError:
            raise ConfigError(f"{_loc(line)}: [{self.name}] {key} = {value!r} is not an integer")
        if minimum is not None and out < minimum:
            raise ConfigError(f"{_loc(line)}: [{self.name}] {key} must be >= {minimum}")
        return out

    def get_float(self, key, default=None, required=False):
        value, line = self._raw(key, default, required)
        if value is None:
            return None
        try:
            out = float(str(value))
        except ValueError:
            raise ConfigError(f"{_loc(line)}: [{self.name}] {key} = {value!r} is not a number")
        if not math.isfinite(out):
            raise ConfigError(f"{_loc(line)}: [{self.name}] {key} = {value!r} is not finite")
        return out

    def get_floats(self, key, default=None, required=False):
        value, line = self._raw(key, default, required)
        if value is default:  # a missing key: the default, as given
            return value
        try:
            out = tuple(float(v) for v in str(value).split(","))
        except ValueError:
            raise ConfigError(f"{_loc(line)}: [{self.name}] {key} = {value!r} is not a number list")
        if not all(math.isfinite(v) for v in out):
            raise ConfigError(f"{_loc(line)}: [{self.name}] {key} = {value!r} has a non-finite entry")
        return out

    def get_ints(self, key, default=None, required=False):
        value, line = self._raw(key, default, required)
        if value is default:  # a missing key: the default, as given
            return value
        try:
            return tuple(int(v) for v in str(value).split(","))
        except ValueError:
            raise ConfigError(f"{_loc(line)}: [{self.name}] {key} = {value!r} is not an integer list")

    def get_rows(self, key, parse, form):
        """Rows 'a,b;c,d' of a required key, each entry through ``parse``."""
        value, line = self._raw(key, required=True)
        try:
            out = tuple(tuple(parse(v) for v in row.split(",")) for row in value.split(";"))
        except ValueError:
            raise ConfigError(f"{_loc(line)}: [{self.name}] {key} = {value!r} is not rows {form!r}")
        if not all(math.isfinite(v) for row in out for v in row):
            raise ConfigError(f"{_loc(line)}: [{self.name}] {key} = {value!r} has a non-finite entry")
        return out


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
    kind = s.get_str("kind", required=True, choices=_KINDS)
    alpha = matrix = shift = None
    dim = 2 if kind == "cat" else 1
    if kind == "rotation":
        alpha = s.get_floats("alpha", required=True)
        dim = len(alpha)
    elif kind == "automorphism":
        matrix = s.get_rows("matrix", int, "a,b;c,d")
        dim = len(matrix)
    elif kind == "identity":
        dim = s.get_int("dim", default=1, minimum=1)
    elif kind == "shift":
        shift = s.get_int("shift", required=True)
    grid_m = s.get_int("grid_m", required=kind == "shift", minimum=1)
    delta = s.get_float("towerize_delta")
    epsilon = s.get_float("towerize_epsilon")
    if (delta is None) != (epsilon is None):
        raise ConfigError(f"[{s.name}] towerize_delta and towerize_epsilon go together")
    if delta is not None and grid_m is None:
        raise ConfigError(f"[{s.name}] towerize_* needs grid_m (a grid-backed map)")
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
        base = Identity(torus(spec.dim))
    else:  # shift
        base = GridBackedMap(GridPermutation.cyclic_shift(torus_grid(1, spec.grid_m), spec.shift))
    if spec.grid_m is not None and spec.kind != "shift":
        base = GridBackedMap(discretize(base, torus_grid(base.space.dim, spec.grid_m)))
    if spec.tower is not None:
        cover = build_cover(base.grid, *spec.tower)
        base = GridBackedMap(towerize(base.permutation, cover).permutation)
    return base


def read_observable(s: _Section, dim: int) -> Observable:
    """The identity by default; ``kind = trig`` reads ``freqs``, rows of
    ``dim`` entries."""
    if s.get_str("kind", default="identity", choices={"identity", "trig"}) == "identity":
        return IdentityObservable(torus(dim))
    rows = s.get_rows("freqs", float, "k1,k2;...")
    if any(len(row) != dim for row in rows):
        raise ConfigError(f"[{s.name}] freqs rows must have the system's dimension, {dim}")
    return CoordinateTrig(rows)


def read_rate(s: _Section) -> RateSequence:
    raw = s.get_str("value", default="pow:1")
    try:
        return parse_rate(raw)
    except ValueError as exc:
        raise ConfigError(f"[rate] {exc}")


@dataclass
class ExperimentConfig:
    """Validated, fully built experiment description."""

    scenario: str
    seed: int | None  # None for dimension, which takes no samples
    samples: int | None  # None for dimension and mapdist
    threads: int
    out_dir: str | None
    sections: dict = field(repr=False)
    params: dict = field(default_factory=dict, repr=False)

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
    declared = run.get_str("scenario", choices=set(SCENARIOS))
    if declared is not None and declared != scenario:
        raise ConfigError(
            f"config declares scenario {declared!r} but {scenario!r} was requested"
        )
    # local_dimension takes no sample points and no seed, so dimension
    # reads neither key and rejects both when given; map_distance draws
    # samples_per_box points per box, so mapdist reads the seed alone.
    seeded = scenario != "dimension"
    sampled = scenario not in ("dimension", "mapdist")
    cfg = ExperimentConfig(
        scenario,
        seed=run.get_int("seed", default=0, minimum=0) if seeded else None,
        samples=run.get_int("samples", default=100, minimum=1) if sampled else None,
        threads=run.get_int("threads", default=1, minimum=1),
        out_dir=run.get_str("out"),
        sections={name: sec.kv for name, sec in given.items()},
    )
    params = cfg.params
    specs = {}
    if scenario != "dimension":
        specs["system"] = read_system(section("system", required=True))
    dim = specs["system"].dim if specs else 1

    s = section(scenario, required=scenario != "mapdist")
    if scenario in ("recurrence", "hitting"):
        params["observable"] = read_observable(section("observable"), dim)
        params["rate"] = read_rate(section("rate"))
        params["horizon"] = s.get_int("horizon", required=True, minimum=1)
        params["n_start"] = s.get_int("n_start", default=1, minimum=1)
        if params["n_start"] > params["horizon"]:
            raise ConfigError(f"[{scenario}] n_start must not exceed horizon")
        if scenario == "recurrence":
            name, keys = "window", ("m", "l", "k")
            window = [s.get_int("m", minimum=1), s.get_int("l", minimum=1), s.get_float("k")]
        else:
            params["y"] = np.asarray(s.get_floats("y", required=True))
            name, keys = "wp", ("p", "m", "l")
            window = [s.get_int(key, minimum=1) for key in keys]
        if any(v is not None for v in window):
            if any(v is None for v in window):
                raise ConfigError(f"[{scenario}] {name} window needs all of {', '.join(keys)}")
            params[name] = tuple(window)
    elif scenario == "perturb":
        params["delta"] = s.get_float("delta", required=True)
        params["epsilon"] = s.get_float("epsilon", required=True)
    elif scenario == "correlations":
        params["observable"] = read_observable(section("observable"), dim)
        horizons = s.get_ints("horizons", required=True)
        if sorted(horizons) != list(horizons) or len(set(horizons)) != len(horizons):
            raise ConfigError("[correlations] horizons must be strictly increasing")
        if horizons[0] < 1:
            raise ConfigError("[correlations] horizons must be >= 1")
        params["horizons"] = horizons
        params["exponents"] = s.get_floats("exponents", default=(1.0, 2.0, 4.0))
        params["scheme"] = s.get_str("scheme", default="full-grid",
                                     choices={"full-grid", "monte-carlo"})
    elif scenario == "dimension":
        y = s.get_floats("y", required=True)
        dim = s.get_int("dim", default=len(y), minimum=1)
        if len(y) != dim:
            raise ConfigError("[dimension] y has the wrong dimension")
        grid_m = s.get_int("grid_m", minimum=1)
        grid = torus_grid(dim, grid_m) if grid_m else None
        params["measure"] = MeasureModel(torus(dim), grid)
        params["y"] = np.asarray(y)
        params["r_min"] = s.get_float("r_min", required=True)
        params["r_max"] = s.get_float("r_max", required=True)
    elif scenario == "bc":
        params["y"] = s.get_floats("y", required=True)
        params["beta"] = s.get_float("beta", required=True)
        params["m"] = s.get_int("m", required=True, minimum=1)
        params["horizon"] = s.get_int("horizon", required=True, minimum=2)
    else:  # mapdist
        specs["system2"] = read_system(section("system2", required=True))
        params["samples_per_box"] = s.get_int("samples_per_box", default=4096, minimum=1)
    return cfg, specs


def _check(cfg: ExperimentConfig, specs: dict, given: dict) -> None:
    """Reject keys no reader asked for, oversized or undersized sample
    counts, too few correlation horizons, and keys of different sections
    that contradict each other."""
    scenario, samples, params = cfg.scenario, cfg.samples, cfg.params
    for name, sec in given.items():
        for key, (_, line) in sec.kv.items():
            if key not in sec.read:
                raise ConfigError(f"{_loc(line)}: [{name}] {key} is not read by "
                                  f"scenario {scenario!r} with this config")
        if not sec.opened:  # only an empty section gets here
            raise ConfigError(f"empty section [{name}] is not read by scenario {scenario!r}")

    # Sample points are (samples, dim) float64 arrays; they share the grid's
    # cell budget.
    dim = specs["system"].dim if specs else 1
    if samples is not None and samples * dim > MAX_TOTAL_CELLS:
        raise ConfigError(
            f"[run] samples = {samples}: {samples} x {dim} coordinates exceed "
            f"the {MAX_TOTAL_CELLS}-value budget for sample points"
        )
    if ("window" in params or "wp" in params) and samples < 100:
        raise ConfigError(
            f"[run] samples = {samples}: union-measure estimates need at least "
            f"100 samples (the [{scenario}] window)"
        )

    if scenario in ("hitting", "bc") and len(params["y"]) != dim:
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
    called.  Infeasible parameters found while building (``INFEASIBLE``)
    propagate as they are; any other exception is an internal error and
    is raised again as ``InternalError`` from it.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    try:
        sections = apply_overrides(parse_config_text(text), overrides)
        given = {name: _Section(name, kv) for name, kv in sections.items()}
        cfg, specs = _read(scenario, given)
        _check(cfg, specs, given)
        for name, spec in specs.items():
            cfg.params[name] = build_system(spec)
    except INFEASIBLE:
        raise
    except Exception as exc:
        raise InternalError(f"{type(exc).__name__} while loading the {scenario} config") from exc
    return cfg
