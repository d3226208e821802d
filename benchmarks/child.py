"""Run one recurlab CLI call in this process, as the ``recurlab`` script does.

    python3 benchmarks/child.py STAMP [--probe] [--trace SPANS] -- SCENARIO [ARGS...]

STAMP receives JSON with ``load_config_at``, the CLOCK_MONOTONIC time at
which the CLI called ``load_config`` (the end of set-up), and ``import_s``,
the time ``import recurlab.cli`` took.  ``--probe`` stops the call there,
so that set-up can be sampled without running the scenario.

``--trace`` wraps the public functions of each layer from outside: it
rebinds every name under which a ``recurlab`` module holds them, keeps
spans (name, start, end, parent index) in memory and writes them, with
the work counters, as JSON to SPANS when the call ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> public functions timed as spans named "<module>.<function>".
TRACED_FUNCTIONS = {
    "config": ("load_config",),
    "runner": ("run_experiment",),
    "grid": ("discretize", "cycle_decomposition", "save_permutation"),
    "perturbation": ("towerize",),
    "recurrence": ("recurrence_score", "first_hit_fraction"),
    "hitting": ("hitting_score", "wp_union_measure", "borel_cantelli_fraction"),
    "correlations": ("correlation_series", "lipschitz_norm"),
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class StopAtSetup(Exception):
    """Raised at ``load_config`` in a set-up probe."""


class Tracer:
    """Spans and work counters of one CLI call, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.steps = [0, 0]  # calls of the maps' step methods, points stepped
        self.counts = {"perturbation.redirects": 0, "perturbation.cubes": 0}
        self._open: list[int] = []

    def span(self, name, fn, on_return=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def count_steps(self, fn):
        # A list, not a dict keyed by name: this runs once per orbit step.
        tally = self.steps

        @functools.wraps(fn)
        def step(self_, pts):
            tally[0] += 1
            tally[1] += len(pts)
            return fn(self_, pts)

        return step

    def on_towerize(self, report):
        self.counts["perturbation.redirects"] += report.total_redirects
        self.counts["perturbation.cubes"] += report.cover.cube_count

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "recurlab" or name.startswith("recurlab.")}
        for layer, names in TRACED_FUNCTIONS.items():
            module = modules[f"recurlab.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                hook = self.on_towerize if fname == "towerize" else None
                wrapped = self.span(f"{layer}.{fname}", original, hook)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

        grid, maps = modules["recurlab.grid"], modules["recurlab.maps"]
        init = grid.GridPermutation.__init__
        grid.GridPermutation.__init__ = self.span("grid.permutation_init", init)
        for cls in vars(maps).values():
            if isinstance(cls, type) and cls.__module__ == maps.__name__:
                if "step_block" in vars(cls):
                    cls.step_block = self.span("maps.step_block", cls.step_block)
                if "step" in vars(cls):
                    cls.step = self.count_steps(cls.step)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            counts = {**self.counts, "maps.step_calls": self.steps[0],
                      "maps.points_stepped": self.steps[1]}
            json.dump({"spans": self.spans, "counts": counts}, fh)


def main(argv) -> int:
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1:]
    stamp_path = opts[0]
    probe = "--probe" in opts
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    t0 = time.perf_counter()
    import recurlab.cli as cli
    stamp = {"import_s": time.perf_counter() - t0}

    tracer = None
    if trace_path is not None:
        tracer = Tracer()
        tracer.install()
    load_config = cli.load_config

    def stamped_load_config(*args, **kwargs):
        stamp["load_config_at"] = monotonic()
        if probe:
            raise StopAtSetup
        return load_config(*args, **kwargs)

    cli.load_config = stamped_load_config
    try:
        code = cli.main(cli_argv)
    except StopAtSetup:
        code = 0
    finally:
        with open(stamp_path, "w") as fh:
            json.dump(stamp, fh)
        if tracer is not None:
            tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
