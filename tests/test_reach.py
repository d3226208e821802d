"""Reach audit: the library keeps what a scenario, the benchmark or an
acceptance criterion uses.

The 7 default scenarios run in-process under a ``sys.setprofile``
recorder.  Every public function or class of the ``recurlab`` namespace
must then be reached by one of them (a class through an instance of it or
of a subclass), be named as ``rl.<name>`` in ``tests/test_acceptance.py``,
or have an entry in ``ALLOWED`` that gives the reason it stays.  An entry
that one of the first two checks already passes fails, so the list cannot
go stale.
"""

import inspect
import re
import sys
from pathlib import Path

import pytest

import recurlab as rl
from recurlab import cli

from conftest import benchmark_module

# Public names that no default scenario reaches and no acceptance criterion
# names, each with the reason the library keeps it.  A reason that cites
# benchmarks/child.py holds only while the benchmark traces the function.
ALLOWED = {
    "cycle_decomposition": "a layer traced by benchmarks/child.py",
    "iterate": "the public single-point T^n, which every map's advance is held to",
    "lipschitz_norm": "a monte-carlo [correlations] config; traced by benchmarks/child.py",
    "wp_union_measure": "a [hitting] config with a wp window, as in the benchmark's "
                        "grid-orbits call; traced by benchmarks/child.py",
    "MeasureEstimate": "what window_union_measure and wp_union_measure return",
    "RecurrenceWindow": "the window that window_union_measure takes",
    "WpWindow": "the window of wp_hit_count and wp_union_measure",
    "PowerLog": "a powlog: rate config",
    "TableRate": "a table: rate config",
}

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def _public():
    return {name: obj for name, obj in vars(rl).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))}


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """The public names that the 7 default scenarios reach, in-process."""
    codes, made = set(), set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes.add(code)
            # Dataclass __init__ methods are generated, so an instance is
            # seen at its __init__, wherever that was written.
            if code.co_name == "__init__" and code.co_argcount:
                made.add(type(frame.f_locals[code.co_varnames[0]]))

    out = tmp_path_factory.mktemp("reach")
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        exits = {name: cli.main([name, "--out", str(out / name)]) for name in cli.DEFAULT_CONFIGS}
    finally:
        sys.setprofile(previous)
    assert set(exits.values()) == {0}, exits

    def ran(obj):
        if inspect.isclass(obj):
            return any(issubclass(cls, obj) for cls in made)
        return inspect.unwrap(obj).__code__ in codes

    return {name for name, obj in _public().items() if ran(obj)}


def _named_by_acceptance():
    return set(re.findall(r"\brl\.(\w+)", ACCEPTANCE.read_text()))


def test_every_public_name_is_reached_named_or_allowed(reached):
    unused = set(_public()) - reached - _named_by_acceptance() - set(ALLOWED)
    assert not unused, f"public names that nothing reaches: {sorted(unused)}"


def test_no_allow_list_entry_is_stale(reached):
    assert set(ALLOWED) <= set(_public()), sorted(set(ALLOWED) - set(_public()))
    assert not set(ALLOWED) & reached, f"reached by a scenario: {sorted(set(ALLOWED) & reached)}"
    named = set(ALLOWED) & _named_by_acceptance()
    assert not named, f"named by an acceptance criterion: {sorted(named)}"


def test_allow_list_reasons_that_cite_the_benchmark_hold():
    traced = benchmark_module("child").TRACED_FUNCTIONS
    cited = [name for name, reason in ALLOWED.items() if "benchmarks/child.py" in reason]
    assert cited
    for name in cited:
        layer = _public()[name].__module__.rpartition(".")[2]
        assert name in traced.get(layer, ()), f"{name} is not traced by benchmarks/child.py"
