import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import recurlab as rl
from recurlab.recurrence import first_hit_fraction


def benchmark_module(name: str):
    """``benchmarks/<name>.py``, loaded by path as a fresh module: the
    benchmark scripts are not a package."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's output checks, which share no code with the library.
CHECKS = benchmark_module("checks")


def read_permutation(path) -> rl.GridPermutation:
    """A GPRM file read back by ``benchmarks/checks.py::read_gprm``, the one
    reader of the format, which checks the header, length and bijection."""
    dim, m, forward = CHECKS.read_gprm(path)
    return rl.GridPermutation(rl.torus_grid(dim, m), forward)


def exact_window_union(system, observable, rate, window) -> float:
    """Window-union measure of a grid map over every cell center: the
    ``first_hit_fraction`` call of ``window_union_measure`` on all cells."""
    pts = system.grid.all_centers()
    rates = rate.values(np.arange(window.m, window.l + 1))
    return first_hit_fraction(system, observable, pts, observable.values(pts),
                              window.m, window.l, rates, window.k)


def exact_wp_union(system, observable, rate, y, window) -> float:
    """wp-union measure of a grid map over every cell center: the
    ``first_hit_fraction`` call of ``wp_union_measure`` on all cells."""
    radii = window.p / rate.values(np.arange(window.m, window.l + 1))
    ref = observable.values(np.asarray(y, dtype=np.float64)[None, :])
    return first_hit_fraction(system, observable, system.grid.all_centers(), ref,
                              window.m, window.l, 1.0, radii)


@pytest.fixture(scope="session")
def golden():
    return rl.golden_rotation()


@pytest.fixture(scope="session")
def cat():
    return rl.cat_map()


@pytest.fixture(scope="session")
def grid1_m10():
    return rl.torus_grid(1, 10)


@pytest.fixture(scope="session")
def golden_grid_m10(golden, grid1_m10):
    return rl.discretize(golden, grid1_m10)


@pytest.fixture(scope="session")
def shift1_m10(grid1_m10):
    return rl.GridPermutation.cyclic_shift(grid1_m10, 1)


@pytest.fixture(scope="session")
def cover_m10(grid1_m10):
    return rl.build_cover(grid1_m10, 1.0 / 32.0, 0.1)


@pytest.fixture(scope="session")
def towerized_golden(golden_grid_m10, cover_m10):
    return rl.towerize(golden_grid_m10, cover_m10)


@pytest.fixture(scope="session")
def towerized_shift(shift1_m10, cover_m10):
    return rl.towerize(shift1_m10, cover_m10)


@pytest.fixture(scope="session")
def cat_grid_m5(cat):
    return rl.discretize(cat, rl.torus_grid(2, 5))


@pytest.fixture(scope="session")
def cat_grid_m7(cat):
    return rl.discretize(cat, rl.torus_grid(2, 7))


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=1234))
