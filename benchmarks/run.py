#!/usr/bin/env python3
"""Benchmark for recurlab: three workloads through the CLI, one process per call.

    python3 benchmarks/run.py --workload tower-cat --seed 1 --seconds 44 --trace 0

Run it from the root of a recurlab checkout; the library is imported from
``src/``.  Each scenario call is a fresh ``python3`` process, as a user's
call is.  A run repeats whole rounds of the workload's calls until the next
round would end after ``--seconds``, checks every output against
``checks.py``, and prints one JSON object as the last line of its output.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics and
the tracing overhead.  README.md in this directory explains the figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import checks
from child import monotonic

HERE = Path(__file__).resolve().parent
CALL_TIMEOUT_S = 150
SETUP_PROBES = 3  # extra set-up samples per call and round, untraced runs only
RECURRENCE_CHECKED = 4  # scores recomputed by a plain-Python walk


@dataclass(frozen=True)
class Call:
    name: str
    scenario: str
    config: str  # "{seed}" is filled in with the run's seed


def _config(body: str) -> str:
    return "[run]\nseed = {seed}\n" + body


TOWER_CAT = _config("""[system]
kind = cat
grid_m = 9
[perturb]
delta = 0.03125
epsilon = 0.1
""")
RECURRENCE = dict(samples=12, horizon=100_000, n_start=50_000)
CAT_RECURRENCE = _config(f"""samples = {RECURRENCE['samples']}
[system]
kind = cat
[rate]
value = pow:1
[recurrence]
horizon = {RECURRENCE['horizon']}
n_start = {RECURRENCE['n_start']}
""")
BC = dict(samples=1000, target=(0.5, 0.5), beta=1.0, m=10, horizon=30_000)
CAT_BC = _config(f"""samples = {BC['samples']}
[system]
kind = cat
[bc]
y = 0.5,0.5
beta = 1
m = {BC['m']}
horizon = {BC['horizon']}
""")
GOLDEN_M, GOLDEN_DELTA, EPSILON = 18, 2.0 ** -8, 0.1
HITTING = dict(samples=100, y=0.25, horizon=100_000, n_start=1000, wp_m=500, wp_l=5000)
GOLDEN_HITTING = _config(f"""samples = {HITTING['samples']}
[system]
kind = golden
grid_m = {GOLDEN_M}
towerize_delta = {GOLDEN_DELTA!r}
towerize_epsilon = {EPSILON}
[rate]
value = pow:1
[hitting]
horizon = {HITTING['horizon']}
n_start = {HITTING['n_start']}
y = {HITTING['y']}
p = 1
m = {HITTING['wp_m']}
l = {HITTING['wp_l']}
""")
# The same tower-redirected golden permutation the hitting call builds,
# written out by `perturb` so that the checks can walk it.
GOLDEN_TOWER = _config(f"""[system]
kind = golden
grid_m = {GOLDEN_M}
[perturb]
delta = {GOLDEN_DELTA!r}
epsilon = {EPSILON}
""")
# cos(2 pi 256 x1) on 2^10 cells: the cat map returns this mode to itself
# every third step, so c_hat is 1/2 at n = 3 and vanishes at the powers of 2,
# and a wrong or skipped gather cannot hide behind correlations that are all 0.
CORRELATIONS = dict(m=10, freq=(256.0, 0.0), horizons=(1, 2, 3, 4, 8, 16, 32, 64, 128),
                    exponents=(1, 2, 4))
CAT_CORRELATIONS = _config(f"""[system]
kind = cat
grid_m = {CORRELATIONS['m']}
[observable]
kind = trig
freqs = {','.join(f'{k:g}' for k in CORRELATIONS['freq'])}
[correlations]
horizons = {','.join(map(str, CORRELATIONS['horizons']))}
exponents = {','.join(map(str, CORRELATIONS['exponents']))}
""")


def tower_cat_checks(out, seed, ref):
    return [
        ("tower", lambda: checks.check_tower(out["perturb"], checks.cat_lattice(9), 2, 9,
                                             1 / 32, EPSILON)),
    ]


def orbit_cat_checks(out, seed, ref):
    return [
        ("recurrence", lambda: checks.check_cat_recurrence(
            out["recurrence"], seed, RECURRENCE["samples"], RECURRENCE["horizon"],
            RECURRENCE["n_start"], RECURRENCE_CHECKED)),
        ("bc", lambda: checks.check_cat_bc(out["bc"], seed, **BC)),
    ]


def grid_orbits_checks(out, seed, ref):
    def hitting():
        _, _, g = checks.read_gprm(ref["golden-tower"] / "permutation.gprm")
        checks.check_grid_hitting(out["hitting"], g, GOLDEN_M, seed, **HITTING)

    return [
        ("golden-tower", lambda: checks.check_tower(
            ref["golden-tower"], checks.golden_lattice(GOLDEN_M), 1, GOLDEN_M,
            GOLDEN_DELTA, EPSILON)),
        ("hitting", hitting),
        ("correlations", lambda: checks.check_correlations(out["correlations"], **{
            k: CORRELATIONS[k] for k in ("m", "freq", "horizons", "exponents")})),
    ]


@dataclass(frozen=True)
class Workload:
    calls: tuple
    references: tuple  # calls run once per run, outside the timing, for the checks
    checks: object


WORKLOADS = {
    "tower-cat": Workload((Call("perturb", "perturb", TOWER_CAT),), (), tower_cat_checks),
    "orbit-cat": Workload((Call("recurrence", "recurrence", CAT_RECURRENCE),
                           Call("bc", "bc", CAT_BC)), (), orbit_cat_checks),
    "grid-orbits": Workload((Call("hitting", "hitting", GOLDEN_HITTING),
                             Call("correlations", "correlations", CAT_CORRELATIONS)),
                            (Call("golden-tower", "perturb", GOLDEN_TOWER),),
                            grid_orbits_checks),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = (
    "perturbation.towerize", "grid.cycle_decomposition", "grid.discretize",
    "grid.permutation_init", "grid.save_permutation", "runner.run_experiment",
    "config.load_config", "maps.step_block", "recurrence.recurrence_score",
    "recurrence.first_hit_fraction", "hitting.hitting_score", "hitting.wp_union_measure",
    "hitting.borel_cantelli_fraction", "correlations.correlation_series",
    "correlations.lipschitz_norm",
)
LAYER_COUNTS = ("perturbation.redirects", "perturbation.cubes", "grid.permutation_init_calls",
                "maps.step_block_calls", "maps.step_calls", "maps.points_stepped")


@dataclass
class CallResult:
    code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    import_s: float
    layers: dict  # traced calls only: per-layer self times and counts


def spawn(argv, env, log_path):
    """Run argv to its end; return (exit code, wall seconds, rusage, start time)."""
    with open(log_path, "wb") as log:
        start = monotonic()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, start


def self_times(spans) -> dict:
    """Per span name: summed duration minus the time covered by child spans."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out


def layer_metrics(trace: dict) -> dict:
    selfs = self_times(trace["spans"])
    names = [s[0] for s in trace["spans"]]
    out = {f"{name}_s": selfs.get(name, 0.0) for name in LAYER_TIMES}
    out.update(trace["counts"])
    out["grid.permutation_init_calls"] = names.count("grid.permutation_init")
    out["maps.step_block_calls"] = names.count("maps.step_block")
    return out


class Runner:
    def __init__(self, root: Path, workload: Workload, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        # Single-threaded numpy, as the workloads are defined: BLAS threads
        # would only add scheduling noise on a small machine.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.configs = {}
        for call in workload.calls + workload.references:
            path = run_dir / f"{call.name}.cfg"
            path.write_text(call.config.format(seed=seed))
            self.configs[call.name] = path
        self.verdicts: dict = {}
        self.setup_samples: dict = {call.name: [] for call in workload.calls}
        # Calls made once per run (warm-up, references), counted in every
        # round so that each round attempts the same operations.
        self.once: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, call: Call, out_dir: Path, probe=False, trace=False) -> CallResult:
        stamp = self.run_dir / "stamp.json"
        spans = self.run_dir / "spans.json"
        argv = [sys.executable, str(HERE / "child.py"), str(stamp)]
        argv += ["--probe"] if probe else []
        argv += ["--trace", str(spans)] if trace else []
        argv += ["--", call.scenario, "--config", str(self.configs[call.name]),
                 "--out", str(out_dir)]
        code, wall, usage, start = spawn(argv, self.env, self.run_dir / f"{call.name}.log")
        marks = json.loads(stamp.read_text()) if stamp.exists() else {}
        stamp.unlink(missing_ok=True)
        layers = {}
        if trace and spans.exists():
            layers = layer_metrics(json.loads(spans.read_text()))
            spans.unlink()
        # A child that never reached load_config has no set-up time.
        setup = marks["load_config_at"] - start if "load_config_at" in marks else None
        return CallResult(code, wall, setup, usage.ru_maxrss / 1024.0,
                          marks.get("import_s", 0.0), layers)

    def reached_setup(self, name: str, result: CallResult) -> bool:
        """Record a call as one operation: it must exit 0 after stamping set-up."""
        detail = f"exit {result.code}" if result.setup_s is not None else "no set-up stamp"
        ok = result.code == 0 and result.setup_s is not None
        self.operation(name, ok, detail)
        return ok

    def operation(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{name}: {detail}")

    def round(self, round_dir: Path, ref: dict, trace=False, probes=0) -> dict:
        """One pass over the workload's calls, every check of their outputs,
        then ``probes`` set-up samples of each call."""
        shutil.rmtree(round_dir, ignore_errors=True)
        out = {call.name: round_dir / call.name for call in self.workload.calls}
        results = {}
        for name, result in self.once.items():
            self.reached_setup(name, result)
        for call in self.workload.calls:
            results[call.name] = result = self.call(call, out[call.name], trace=trace)
            if self.reached_setup(f"call {call.name}", result) and not trace:
                self.setup_samples[call.name].append(result.setup_s)
            print(f"{'traced ' if trace else ''}{call.name}: wall {result.wall_s:.4f} s, "
                  f"setup {fmt_s(result.setup_s)} s, peak rss {result.rss_mb:.1f} MB", flush=True)
        for name, path in {**out, **ref}.items():
            self.check(f"manifest {name}", lambda: checks.check_manifest(path), None)
        state = digest_tree([*out.values(), *ref.values()])
        for name, fn in self.workload.checks(out, self.seed, ref):
            self.check(name, fn, state)
        for _ in range(probes):
            for call in self.workload.calls:
                result = self.call(call, round_dir / "probe", probe=True)
                if self.reached_setup(f"probe {call.name}", result):
                    self.setup_samples[call.name].append(result.setup_s)
                print(f"probe {call.name}: setup {fmt_s(result.setup_s)} s", flush=True)
        return results

    def check(self, name: str, fn, state) -> None:
        """Run a check, reusing the verdict of an earlier round on identical bytes."""
        key = (name, state)
        if state is None or key not in self.verdicts:
            try:
                fn()
                verdict = ""
            except (checks.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
                verdict = f"{type(exc).__name__}: {exc}"
            if state is not None:
                self.verdicts[key] = verdict
        else:
            verdict = self.verdicts[key]
        self.operation(f"check {name}", not verdict, verdict)


def fmt_s(value) -> str:
    return "none" if value is None else f"{value:.4f}"


def digest_tree(dirs) -> str:
    """Digest of every output file except the manifests, which echo the run's
    out path and wall time and so differ between rounds."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(Path(d).glob("*")) if Path(d).is_dir() else ():
            if path.name != "manifest.txt":
                h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def median_by_call(rounds, attr) -> dict:
    names = rounds[0].keys()
    return {n: statistics.median(getattr(r[n], attr) for r in rounds) for n in names}


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    deadline = monotonic() + seconds
    ref = {}
    for call in runner.workload.references:
        ref[call.name] = runner.run_dir / "ref" / call.name
        runner.once[f"reference {call.name}"] = runner.call(call, ref[call.name])
    round_dir = runner.run_dir / "round"
    # The first call compiles and caches bytecode; users do not pay that per call.
    runner.once["warm-up"] = runner.call(runner.workload.calls[0], round_dir / "probe",
                                         probe=True)
    plain, traced = [], []
    while True:
        began = monotonic()
        plain.append(runner.round(round_dir, ref, probes=0 if trace else SETUP_PROBES))
        if trace:
            traced.append(runner.round(round_dir, ref, trace=True))
        now = monotonic()
        if now + (now - began) > deadline:
            break

    if not trace:
        walls = median_by_call(plain, "wall_s")
        rss = median_by_call(plain, "rss_mb")
        # A call with no stamped sample has failed every time; failed says so.
        setup = sum(statistics.median(v) for v in runner.setup_samples.values() if v)
        return {"wall_s": sum(walls.values()), "setup_s": setup,
                "peak_rss_mb": max(rss.values())}
    metrics = {}
    for key in [f"{name}_s" for name in LAYER_TIMES] + list(LAYER_COUNTS):
        metrics[key] = statistics.median(
            sum(r.layers.get(key, 0) for r in rnd.values()) for rnd in traced)
    metrics["runner.artifact_bytes"] = sum(
        p.stat().st_size for p in round_dir.rglob("*") if p.is_file() and p.name != "manifest.txt")
    metrics["setup.import_s"] = statistics.median(
        sum(r.import_s for r in rnd.values()) for rnd in plain + traced)
    metrics["trace.overhead_ratio"] = (sum(median_by_call(traced, "wall_s").values())
                                       / sum(median_by_call(plain, "wall_s").values()))
    return metrics


UNITS = {"runner.artifact_bytes": "bytes", "trace.overhead_ratio": "ratio"}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "recurlab" / "cli.py").is_file():
        print(f"no recurlab source tree at {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    runs = HERE / ".runs"
    runs.mkdir(exist_ok=True)
    run_dir = runs / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    runner = Runner(root, WORKLOADS[args.workload], args.seed, run_dir)
    metrics = measure(runner, args.seconds, bool(args.trace))

    for line in runner.errors:
        print(f"FAILED {line}", file=sys.stderr)
    correct = not runner.errors
    if correct:
        shutil.rmtree(run_dir)
    else:
        print(f"outputs kept in {run_dir}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
