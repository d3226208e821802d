"""Experiment configuration: sectioned key = value files, fail-closed.

A config is a plain-text file of ``[section]`` headers and ``key = value``
lines; ``#`` starts a comment.  Validation is fail-closed: unknown
sections or keys, missing required keys, and unparsable values are all
rejected before any computation starts, with the offending key and line
number named in the error.  Command-line overrides are merged before
validation so they are checked the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import MAX_TOTAL_CELLS, GridPermutation, torus_grid
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
from .spaces import MeasureModel, box, torus


class ConfigError(ValueError):
    """Invalid configuration; the message names the key and line."""


def _loc(line: int) -> str:
    return f"line {line}" if line else "override"


SCENARIOS = ("recurrence", "hitting", "perturb", "correlations", "dimension", "bc", "mapdist")

# Allowed keys per section; every scenario lists the sections it admits.
_RUN_KEYS = {"scenario", "seed", "samples", "out", "threads"}
_SYSTEM_KEYS = {"kind", "alpha", "matrix", "dim", "shift", "grid_m",
                "towerize_delta", "towerize_epsilon"}
_SECTION_KEYS = {
    "run": _RUN_KEYS,
    "system": _SYSTEM_KEYS,
    "system2": _SYSTEM_KEYS,
    "observable": {"kind", "freqs"},
    "rate": {"value"},
    "recurrence": {"horizon", "n_start", "m", "l", "k"},
    "hitting": {"horizon", "n_start", "y", "p", "m", "l"},
    "perturb": {"delta", "epsilon"},
    "correlations": {"horizons", "exponents", "scheme"},
    "dimension": {"y", "r_min", "r_max", "grid_m", "dim"},
    "bc": {"y", "beta", "m", "horizon"},
    "mapdist": {"boxes", "samples_per_box"},
}
# Keys that request a union-measure estimate, which needs >= 100 samples.
_UNION_WINDOW_KEYS = {"recurrence": ("m", "l", "k"), "hitting": ("p", "m", "l")}
_SCENARIO_SECTIONS = {
    "recurrence": {"run", "system", "observable", "rate", "recurrence"},
    "hitting": {"run", "system", "observable", "rate", "hitting"},
    "perturb": {"run", "system", "perturb"},
    "correlations": {"run", "system", "observable", "correlations"},
    "dimension": {"run", "dimension"},
    "bc": {"run", "system", "bc"},
    "mapdist": {"run", "system", "system2", "mapdist"},
}


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


def _validate_sections(scenario: str, sections: dict) -> None:
    allowed = _SCENARIO_SECTIONS[scenario]
    for name, kv in sections.items():
        if name not in allowed:
            line = min((ln for _, ln in kv.values()), default=0)
            raise ConfigError(
                f"{_loc(line)}: section [{name}] is not used by scenario {scenario!r}"
            )
        for key, (_, line) in kv.items():
            if key not in _SECTION_KEYS[name]:
                raise ConfigError(f"{_loc(line)}: unknown key {key!r} in [{name}]")


class _Section:
    """Typed accessors over one validated section."""

    def __init__(self, name: str, kv: dict):
        self.name = name
        self.kv = kv

    def has(self, key: str) -> bool:
        return key in self.kv

    def _raw(self, key: str, default=None, required=False):
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


def _system_dim(section: _Section) -> int:
    """Dimension of the space a [system] section describes, read from its
    keys alone, so that sizes can be checked before anything is built."""
    kind = section.get_str("kind")
    if kind == "cat":
        return 2
    if kind == "rotation":
        return len(section.get_floats("alpha", required=True))
    if kind == "automorphism":
        return len(section.get_str("matrix", required=True).split(";"))
    if kind == "identity":
        return section.get_int("dim", default=1, minimum=1)
    return 1  # golden, shift; an unknown kind fails in build_system


def build_system(section: _Section):
    """Construct the system map a [system] section describes.

    ``grid_m`` discretizes the base map onto a torus grid; adding
    ``towerize_delta`` / ``towerize_epsilon`` then applies the tower
    redirect.  Returns (map, perturbation_report_or_None).
    """
    kind = section.get_str("kind", required=True,
                           choices={"rotation", "golden", "cat", "automorphism",
                                    "identity", "shift"})
    if kind == "rotation":
        alpha = section.get_floats("alpha", required=True)
        base = Rotation(alpha)
    elif kind == "golden":
        base = golden_rotation()
    elif kind == "cat":
        base = cat_map()
    elif kind == "automorphism":
        raw = section.get_str("matrix", required=True)
        try:
            rows = tuple(tuple(int(v) for v in row.split(",")) for row in raw.split(";"))
        except ValueError:
            raise ConfigError(f"[system] matrix = {raw!r} is not integer rows 'a,b;c,d'")
        base = ToralAutomorphism(rows)
    elif kind == "identity":
        dim = section.get_int("dim", default=1, minimum=1)
        base = Identity(torus(dim))
    elif kind == "shift":
        m = section.get_int("grid_m", required=True, minimum=1)
        shift = section.get_int("shift", required=True)
        perm = GridPermutation.cyclic_shift(torus_grid(1, m), shift)
        base = GridBackedMap(perm)

    grid_m = section.get_int("grid_m", minimum=1)
    if grid_m is not None and kind != "shift":
        from .grid import discretize

        grid = torus_grid(base.space.dim, grid_m)
        base = GridBackedMap(discretize(base, grid))

    delta = section.get_float("towerize_delta")
    epsilon = section.get_float("towerize_epsilon")
    report = None
    if (delta is None) != (epsilon is None):
        raise ConfigError("[system] towerize_delta and towerize_epsilon go together")
    if delta is not None:
        if not isinstance(base, GridBackedMap):
            raise ConfigError("[system] towerize_* needs grid_m (a grid-backed map)")
        cover = build_cover(base.grid, delta, epsilon)
        report = towerize(base.permutation, cover)
        base = GridBackedMap(report.permutation)
    return base, report


def build_observable(section: _Section | None, space) -> Observable:
    if section is None or not section.kv:
        return IdentityObservable(space)
    kind = section.get_str("kind", default="identity", choices={"identity", "trig"})
    if kind == "identity":
        return IdentityObservable(space)
    raw = section.get_str("freqs", required=True)
    try:
        rows = tuple(tuple(float(v) for v in row.split(",")) for row in raw.split(";"))
    except ValueError:
        raise ConfigError(f"[observable] freqs = {raw!r} is not rows 'k1,k2;...'")
    return CoordinateTrig(rows)


def build_rate(section: _Section | None) -> RateSequence:
    if section is None or not section.kv:
        return parse_rate("pow:1")
    raw = section.get_str("value", required=True)
    try:
        return parse_rate(raw)
    except ValueError as exc:
        raise ConfigError(f"[rate] {exc}")


@dataclass
class ExperimentConfig:
    """Validated, fully built experiment description."""

    scenario: str
    seed: int
    samples: int
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


def load_config(scenario: str, text: str, overrides=None) -> ExperimentConfig:
    """Parse, merge overrides, validate fail-closed, and build all objects."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    sections = apply_overrides(parse_config_text(text), overrides)
    run = _Section("run", sections.get("run", {}))
    declared = run.get_str("scenario", choices=set(SCENARIOS))
    if declared is not None and declared != scenario:
        raise ConfigError(
            f"config declares scenario {declared!r} but {scenario!r} was requested"
        )
    _validate_sections(scenario, sections)

    seed = run.get_int("seed", default=0, minimum=0)
    samples = run.get_int("samples", default=100, minimum=1)
    threads = run.get_int("threads", default=1, minimum=1)
    out_dir = run.get_str("out")

    cfg = ExperimentConfig(scenario, seed, samples, threads, out_dir, sections)
    sec = {name: _Section(name, kv) for name, kv in sections.items()}

    def need(name):
        if name not in sec:
            raise ConfigError(f"scenario {scenario!r} needs a [{name}] section")
        return sec[name]

    # Sample points are (samples, dim) float64 arrays; they share the grid's
    # cell budget.
    dim = _system_dim(sec["system"]) if "system" in sec else 1
    if samples * dim > MAX_TOTAL_CELLS:
        raise ConfigError(
            f"[run] samples = {samples}: {samples} x {dim} coordinates exceed "
            f"the {MAX_TOTAL_CELLS}-value budget for sample points"
        )

    union_keys = _UNION_WINDOW_KEYS.get(scenario, ())
    if samples < 100 and any(key in sections.get(scenario, {}) for key in union_keys):
        raise ConfigError(
            f"[run] samples = {samples}: union-measure estimates need at least "
            f"100 samples (the [{scenario}] {'/'.join(union_keys)} window)"
        )

    params = cfg.params
    if scenario in ("recurrence", "hitting", "correlations", "bc", "perturb", "mapdist"):
        system, report = build_system(need("system"))
        params["system"] = system
        params["perturbation_report"] = report

    if scenario == "recurrence":
        s = need("recurrence")
        params["observable"] = build_observable(sec.get("observable"), params["system"].space)
        params["rate"] = build_rate(sec.get("rate"))
        params["horizon"] = s.get_int("horizon", required=True, minimum=1)
        params["n_start"] = s.get_int("n_start", default=1, minimum=1)
        if params["n_start"] > params["horizon"]:
            raise ConfigError("[recurrence] n_start must not exceed horizon")
        window = [s.get_int("m", minimum=1), s.get_int("l", minimum=1), s.get_float("k")]
        if any(v is not None for v in window):
            if any(v is None for v in window):
                raise ConfigError("[recurrence] window needs all of m, l, k")
            params["window"] = tuple(window)
    elif scenario == "hitting":
        s = need("hitting")
        params["observable"] = build_observable(sec.get("observable"), params["system"].space)
        params["rate"] = build_rate(sec.get("rate"))
        params["horizon"] = s.get_int("horizon", required=True, minimum=1)
        params["n_start"] = s.get_int("n_start", default=1, minimum=1)
        y = s.get_floats("y", required=True)
        if len(y) != params["system"].space.dim:
            raise ConfigError("[hitting] y has the wrong dimension")
        params["y"] = np.asarray(y)
        wp = [s.get_int("p", minimum=1), s.get_int("m", minimum=1), s.get_int("l", minimum=1)]
        if any(v is not None for v in wp):
            if any(v is None for v in wp):
                raise ConfigError("[hitting] wp window needs all of p, m, l")
            params["wp"] = tuple(wp)
    elif scenario == "perturb":
        s = need("perturb")
        if not isinstance(params["system"], GridBackedMap):
            raise ConfigError("[perturb] needs a grid-backed system (set grid_m)")
        params["delta"] = s.get_float("delta", required=True)
        params["epsilon"] = s.get_float("epsilon", required=True)
    elif scenario == "correlations":
        s = need("correlations")
        if not isinstance(params["system"], GridBackedMap):
            raise ConfigError("[correlations] full-grid scheme needs grid_m on the system")
        params["observable"] = build_observable(sec.get("observable"), params["system"].space)
        horizons = s.get_ints("horizons", required=True)
        if sorted(horizons) != list(horizons) or len(set(horizons)) != len(horizons):
            raise ConfigError("[correlations] horizons must be strictly increasing")
        params["horizons"] = horizons
        params["exponents"] = s.get_floats("exponents", default=(1.0, 2.0, 4.0))
        params["scheme"] = s.get_str("scheme", default="full-grid",
                                     choices={"full-grid", "monte-carlo"})
    elif scenario == "dimension":
        s = need("dimension")
        dim = s.get_int("dim", default=None, minimum=1)
        y = s.get_floats("y", required=True)
        if dim is None:
            dim = len(y)
        if len(y) != dim:
            raise ConfigError("[dimension] y has the wrong dimension")
        grid_m = s.get_int("grid_m", minimum=1)
        space = torus(dim)
        grid = torus_grid(dim, grid_m) if grid_m else None
        params["measure"] = MeasureModel(space, grid)
        params["y"] = np.asarray(y)
        params["r_min"] = s.get_float("r_min", required=True)
        params["r_max"] = s.get_float("r_max", required=True)
    elif scenario == "bc":
        s = need("bc")
        y = s.get_floats("y", required=True)
        if len(y) != params["system"].space.dim:
            raise ConfigError("[bc] y has the wrong dimension")
        params["y"] = tuple(y)
        params["beta"] = s.get_float("beta", required=True)
        params["m"] = s.get_int("m", required=True, minimum=1)
        params["horizon"] = s.get_int("horizon", required=True, minimum=2)
    elif scenario == "mapdist":
        system2, _ = build_system(need("system2"))
        params["system2"] = system2
        s = sec.get("mapdist", _Section("mapdist", {}))
        params["boxes"] = s.get_floats("boxes") if s.has("boxes") else None
        params["samples_per_box"] = s.get_int("samples_per_box", default=4096, minimum=1)
    return cfg
