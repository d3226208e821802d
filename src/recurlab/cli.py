"""Command line entry point.

One scenario per invocation:

    recurlab <scenario> [--config FILE] [--seed N] [--samples N]
                        [--out DIR] [--threads N] [--set section.key=value]...

Flags override the corresponding config keys.  Each scenario ships a
built-in default config so it runs out of the box; --threads is accepted
for interface stability and recorded in the manifest, but it has no
effect: no kernel reads it.  The manifest's wall_time_s
counts from before the config (and the system it describes) is built.

Exit codes: 0 success; 1 infeasible parameters or a failed hard
guarantee while the system is built or in the run (``ValueError``,
``CoverError``, ``DiscretizationError``, ``AssertionError``,
``MemoryError``, or an I/O error while writing), printed as one line;
2 config error; 3 any other exception while the system is built or in
the run, an internal error, printed with its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .config import SCENARIOS, ConfigError, load_config
from .grid import DiscretizationError
from .runner import run_experiment

# What the library raises on purpose for infeasible parameters or a failed
# hard guarantee (CoverError and ConfigError are ValueErrors), plus I/O
# errors; anything else is an internal error.
INFEASIBLE = (ValueError, DiscretizationError, AssertionError, MemoryError, OSError)

DEFAULT_CONFIGS = {
    "recurrence": """
[system]
kind = golden
[rate]
value = pow:1
[recurrence]
horizon = 100000
n_start = 50000
""",
    "hitting": """
[system]
kind = golden
grid_m = 10
towerize_delta = 0.03125
towerize_epsilon = 0.1
[rate]
value = pow:1
[hitting]
horizon = 1000
n_start = 500
y = 0.25
""",
    "perturb": """
[system]
kind = golden
grid_m = 10
[perturb]
delta = 0.03125
epsilon = 0.1
""",
    "correlations": """
[system]
kind = cat
grid_m = 8
[observable]
kind = trig
freqs = 1,0
[correlations]
horizons = 1,2,4,8,16,32,64,128
exponents = 1,2,4
""",
    "dimension": """
[dimension]
y = 0.375,0.625
grid_m = 10
r_min = 0.001953125
r_max = 0.0625
""",
    "bc": """
[system]
kind = cat
[bc]
y = 0.5,0.5
beta = 3
m = 10
horizon = 100000
""",
    "mapdist": """
[system]
kind = rotation
alpha = 0.25
[system2]
kind = rotation
alpha = 0.30
""",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recurlab",
        description="Recurrence, hitting, and perturbation experiments "
                    "for measure-preserving dynamics.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", type=Path, help="sectioned key = value config file")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--samples", type=int, help="override run.samples")
        p.add_argument("--out", type=str, help="artifact directory (override run.out)")
        p.add_argument(
            "--threads", type=int,
            help="recorded in the manifest; has no effect (default: $RECURLAB_THREADS or 1)",
        )
        p.add_argument(
            "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
            help="override any config key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    if args.samples is not None:
        overrides.append(f"run.samples={args.samples}")
    if args.out is not None:
        overrides.append(f"run.out={args.out}")
    # The variable's text is checked as run.threads, as --threads is.
    threads = os.environ.get("RECURLAB_THREADS", "1") if args.threads is None else args.threads
    overrides.append(f"run.threads={threads}")
    try:
        cfg = load_config(args.scenario, _config_text(args), overrides)
        manifest = run_experiment(cfg, start)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except INFEASIBLE as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        import traceback  # only an error needs it; keeps start-up lean

        # With no recurlab frame below main, the exception was raised by a
        # wrapper put in place of load_config, such as the benchmark's
        # set-up probe, which stops the call there: it is the wrapper's.
        below = traceback.walk_tb(exc.__traceback__.tb_next)
        modules = [frame.f_globals.get("__name__", "") for frame, _ in below]
        if modules and not any(name.startswith("recurlab.") for name in modules):
            raise
        traceback.print_exc()
        print("internal error: a bug in recurlab, not a bad parameter", file=sys.stderr)
        return 3
    sys.stdout.write(manifest.to_bytes().decode("ascii"))
    return 0


def _config_text(args) -> str:
    """The --config file's text or the scenario's default config; a file
    that cannot be read as text is a config error."""
    try:
        return DEFAULT_CONFIGS[args.scenario] if args.config is None else args.config.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc))


if __name__ == "__main__":
    sys.exit(main())
