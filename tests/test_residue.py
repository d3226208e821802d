"""Grid orbits read off cycle tables equal a cell-by-cell walk, bit for bit.

On a grid-backed map, scores and first hits are computed one residue
class n mod L at a time (L the cycle length of the start cell), and cell
orbits are one gather off the permutation's cycle tables.  These tests
hold every score and union estimator to the plain-python walks of
``oracles.py`` with exact equality: fixed points, a cycle longer than the
window and one that divides it, n_start = horizon, a non-monotone rate,
a trig observable on the cat grid and the towerized golden grid.
"""

import tracemalloc

import numpy as np
import pytest

import recurlab as rl
from recurlab.grid import cycle_tables
from recurlab.hitting import ShrinkingTargetSpec, WpWindow
from recurlab.recurrence import RecurrenceWindow, first_hit_fraction

from conftest import exact_window_union, exact_wp_union
from oracles import (cycle_walk_count, cycle_walk_hits, cycle_walk_scores, linf_dist, orbit_cells,
                     wrap_dist_1d)

FREQS = np.array([[1.0, 2.0], [3.0, -1.0]])


def _wrap_dist(a, b):
    return max(wrap_dist_1d(x, y) for x, y in zip(a, b))


def _permutation(name, towerized_golden, cat_grid_m5):
    if name == "fixed":
        return rl.GridPermutation.identity(rl.torus_grid(1, 3))
    if name == "shift":  # one cycle of length 64
        return rl.GridPermutation.cyclic_shift(rl.torus_grid(1, 6), 1)
    if name == "long-shift":  # one cycle of 1024 cells: classes span several chunks
        return rl.GridPermutation.cyclic_shift(rl.torus_grid(1, 10), 3)
    if name == "golden-tower":
        return towerized_golden.permutation
    return cat_grid_m5


class Case:
    """A grid map, its observable spelled out for the oracle, and sample points."""

    def __init__(self, perm, trig):
        self.perm = perm
        self.system = rl.GridBackedMap(perm)
        grid = perm.grid
        n, dim = grid.cells_per_axis, grid.dim
        idx = np.arange(grid.cell_count)
        centers = (np.stack([idx // n ** (dim - 1 - a) % n for a in range(dim)], axis=1)
                   + 0.5) / n
        self.weights = n ** np.arange(dim - 1, -1, -1)
        self.n = n
        if trig:
            self.f = rl.CoordinateTrig(tuple(map(tuple, FREQS)))
            # The library's arithmetic for f, one line, on batches of two
            # or more rows: a many-row product, as the library takes.
            self.fv = lambda pts: np.cos(2.0 * np.pi * pts @ FREQS.T)
            self.dist = linf_dist
        else:
            self.f = rl.IdentityObservable(grid.dim)
            self.fv = lambda pts: pts
            self.dist = _wrap_dist
        self.centers = centers.tolist()
        self.values = self.fv(centers).tolist()
        self.forward = perm.forward.tolist()

    def sample(self, count, seed):
        pts = rl.sample_points(self.system, count, seed)
        cells = (np.floor(pts * self.n).astype(np.int64) * self.weights).sum(axis=1)
        return pts, cells.tolist()


# (permutation, trig observable, rate, n_start, horizon)
CASES = {
    "fixed-points": ("fixed", False, "pow:1", 1, 50),
    "cycle-longer-than-window": ("shift", False, "pow:1", 10, 40),
    "cycle-divides-window": ("shift", False, "pow:0.7", 5, 132),
    "n_start-is-horizon": ("shift", False, "pow:1", 77, 77),
    "long-cycle": ("long-shift", False, "powlog:1.3,2", 900, 2500),
    "golden-tower-powlog": ("golden-tower", False, "powlog:0.5,-3", 20, 1200),
    "golden-tower-n_start-is-horizon": ("golden-tower", False, "pow:1", 700, 700),
    "cat-trig": ("cat", True, "pow:1", 30, 600),
    "cat-trig-powlog": ("cat", True, "powlog:0.5,-3", 1, 300),
}


def _case(key, towerized_golden, cat_grid_m5):
    name, trig, rate, n_start, horizon = CASES[key]
    c = Case(_permutation(name, towerized_golden, cat_grid_m5), trig)
    c.rate = rl.parse_rate(rate)
    c.n_start, c.horizon = n_start, horizon
    return c


@pytest.fixture(params=list(CASES))
def case(request, towerized_golden, cat_grid_m5):
    return _case(request.param, towerized_golden, cat_grid_m5)


def test_scores_equal_the_cell_walk(case):
    pts, cells = case.sample(40, seed=5)
    y = np.full(case.system.dim, 0.3)
    rates = case.rate.values(np.arange(1, case.horizon + 1)).tolist()
    args = (case.forward, cells, case.values)
    tail = (rates, case.n_start, case.horizon, case.dist)
    rec = rl.recurrence_score(case.system, case.f, case.rate, pts, case.horizon, case.n_start)
    assert rec.tolist() == cycle_walk_scores(*args, case.fv(pts).tolist(), *tail)
    hit = rl.hitting_score(case.system, case.f, case.rate, pts, y, case.horizon, case.n_start)
    fy = case.fv(np.stack((y, y)))[0].tolist()
    assert hit.tolist() == cycle_walk_scores(*args, [fy] * 40, *tail)
    scan = rl.recurrence.score_scan(case.system, case.f, case.rate, pts, case.fv(pts),
                                    case.horizon, case.n_start)
    assert scan.tolist() == cycle_walk_scores(*args, case.fv(pts).tolist(), *tail)
    # A lone point scores as it does in the batch.
    assert rl.hitting_score(case.system, case.f, case.rate, pts[0], y, case.horizon,
                            case.n_start) == hit[0]


def test_union_estimators_equal_the_cell_walk(case):
    samples, seed = 100, 7
    pts, cells = case.sample(samples, seed)
    m, l = case.n_start, case.horizon
    rates = case.rate.values(np.arange(m, l + 1)).tolist()
    own = case.fv(pts).tolist()

    def walk(refs, coef, bound):
        return cycle_walk_hits(case.forward, cells, case.values, refs, coef, bound, m, l,
                               case.dist) / samples

    # A window as long as a cycle recurs exactly (score 0), and then every
    # k > 0 counts every point; k = 1 stands in for a middle score of 0.
    scores = cycle_walk_scores(case.forward, cells, case.values, own,
                               [1.0] * (m - 1) + rates, m, l, case.dist)
    k = _middle(scores) or 1.0
    window = RecurrenceWindow(m, l, k)
    est = rl.window_union_measure(case.system, case.f, case.rate, window, samples, seed)
    assert est.value == walk(own, rates, [k] * len(rates))

    y = np.full(case.system.dim, 0.3)
    fy = case.fv(np.stack((y, y)))[0].tolist()
    for p in (1, 7):
        radii = (p / case.rate.values(np.arange(m, l + 1))).tolist()
        est = rl.wp_union_measure(case.system, case.f, case.rate, y, WpWindow(p, m, l),
                                  samples, seed)
        assert est.value == walk([fy] * samples, [1.0] * len(radii), radii)

    if l > m:
        spec = ShrinkingTargetSpec(tuple(y), 0.5)
        radii = spec.radii.values(np.arange(m, l + 1)).tolist()
        frac = rl.borel_cantelli_fraction(case.system, spec, m, l, samples, seed)
        want = cycle_walk_hits(case.forward, cells, case.centers, [y.tolist()] * samples,
                               [1.0] * len(radii), radii, m, l, _wrap_dist)
        assert frac == want / samples


# Every case but the long cycle, whose 1024 cells x 2500 steps walk too long.
@pytest.mark.parametrize("key", [key for key in CASES if key != "long-cycle"])
def test_exhaustive_unions_equal_the_cell_walk(key, towerized_golden, cat_grid_m5):
    case = _case(key, towerized_golden, cat_grid_m5)
    grid = case.perm.grid
    m, l = case.n_start, case.horizon
    cells = list(range(grid.cell_count))
    rates = case.rate.values(np.arange(m, l + 1)).tolist()
    k = 0.05
    got = exact_window_union(case.system, case.f, case.rate, RecurrenceWindow(m, l, k))
    # Each cell is its own reference: f of every center, as one batch.
    want = cycle_walk_hits(case.forward, cells, case.values, case.values, rates,
                           [k] * len(rates), m, l, case.dist)
    assert got == want / grid.cell_count
    y = np.full(grid.dim, 0.3)
    fy = case.fv(np.stack((y, y)))[0].tolist()
    radii = (3 / case.rate.values(np.arange(m, l + 1))).tolist()
    got = exact_wp_union(case.system, case.f, case.rate, y, WpWindow(3, m, l))
    want = cycle_walk_hits(case.forward, cells, case.values, [fy] * len(cells),
                           [1.0] * len(radii), radii, m, l, case.dist)
    assert got == want / grid.cell_count


def test_every_cell_of_the_cat_grid_returns_to_itself(cat_grid_m5):
    # Every cycle of the m = 5 cat grid is at most 24 long, so each cell's
    # orbit meets the cell itself within 24 steps and scores 0 exactly.
    # With one-row references, 327 of the 1024 cells once scored up to 8.5e-14.
    system = rl.GridBackedMap(cat_grid_m5)
    assert int(cycle_tables(cat_grid_m5).length.max()) <= 24
    f = rl.CoordinateTrig(tuple(map(tuple, FREQS)))
    scores = rl.recurrence_score(system, f, rl.Power(1.0), cat_grid_m5.grid.all_centers(), 24)
    assert not scores.any()


@pytest.mark.parametrize("varies", ["coef", "bound", "both"])
def test_first_hits_equal_the_cell_walk(case, varies):
    # A constant bound takes the class minimum of coef, a constant coef the
    # class maximum of the bound; when both vary the walk is kept.
    pts, cells = case.sample(60, seed=9)
    m, l = case.n_start, case.horizon
    n = np.arange(m, l + 1)
    coef = case.rate.values(n) if varies != "bound" else np.full(n.shape, 2.0)
    shape = np.sqrt(n) if varies != "coef" else np.ones(n.shape)
    refs = case.fv(np.full((2, case.system.dim), 0.3))[:1].tolist()
    scores = cycle_walk_scores(case.forward, cells, case.values, refs * 60,
                               [1.0] * (m - 1) + (coef * shape).tolist(), m, l, case.dist)
    bound = _middle(scores) / shape
    got = first_hit_fraction(case.system, case.f, pts, np.array(refs), m, l, coef, bound)
    want = cycle_walk_hits(case.forward, cells, case.values, refs * 60, coef.tolist(),
                           bound.tolist(), m, l, case.dist)
    assert got == want / 60


# (permutation, trig observable, rate, p, m, l): windows that start late
# and span several cycles (64 cells on the shift, 13 or 21 on the golden
# tower, at most 24 on the cat grid).
WP_CASES = {
    "shift": ("shift", False, "pow:0.7", 1, 700, 1100),
    "golden-tower": ("golden-tower", False, "pow:1", 3, 900, 5000),
    "cat": ("cat", False, "pow:0.5", 1, 400, 700),
    "cat-trig": ("cat", True, "pow:0.5", 1, 400, 700),
}


@pytest.mark.parametrize("key", list(WP_CASES))
def test_wp_counts_equal_the_cell_walk(key, towerized_golden, cat_grid_m5):
    name, trig, rate, p, m, l = WP_CASES[key]
    case = Case(_permutation(name, towerized_golden, cat_grid_m5), trig)
    rate = rl.parse_rate(rate)
    pts, cells = case.sample(30, seed=13)
    y = np.full(case.system.dim, 0.3)
    fy = case.fv(np.stack((y, y)))[0].tolist()
    radii = (p / rate.values(np.arange(m, l + 1))).tolist()
    counts = [rl.wp_hit_count(case.system, case.f, rate, x, y, WpWindow(p, m, l)) for x in pts]
    assert counts == [cycle_walk_count(case.forward, c, case.values, fy, radii, m, l, case.dist)
                      for c in cells]
    assert 0 < sum(counts) < len(counts) * (l - m + 1)


def test_wp_count_over_the_capped_window_stays_small(golden_grid_m10):
    # 10^7 steps are compared against at most 1024 class distances, in
    # chunks of whole class rows: a working set of a few chunks, where the
    # radii of the whole window alone would take 80 MB.
    system = rl.GridBackedMap(golden_grid_m10)
    f = rl.IdentityObservable(1)
    tracemalloc.start()
    try:
        count = rl.wp_hit_count(system, f, rl.Power(1.0), np.array([0.3]), np.array([0.7]),
                                WpWindow(2, 1, 10 ** 7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 33
    assert peak < 8_000_000


@pytest.mark.parametrize("name", ["golden-tower", "cat"])
def test_no_grid_statistic_walks(monkeypatch, towerized_golden, cat_grid_m5, name):
    def walk(*args):
        pytest.fail("a grid statistic walked")

    monkeypatch.setattr(rl.recurrence, "orbit_walk", walk)
    monkeypatch.setattr(rl.hitting, "orbit_walk", walk)
    monkeypatch.setattr(rl.GridBackedMap, "step", walk)
    system = rl.GridBackedMap(_permutation(name, towerized_golden, cat_grid_m5))
    f, rate = rl.IdentityObservable(system.dim), rl.Power(1.0)
    pts = rl.sample_points(system, 20, seed=3)
    y = np.full(system.dim, 0.3)
    m, l = 5, 300
    coef = rate.values(np.arange(m, l + 1))
    rl.recurrence.score_scan(system, f, rate, pts, f.values(pts), l, m)
    for c, b in ((1.0, 1 / coef), (coef, 0.05), (coef, 0.05 / np.sqrt(coef))):
        first_hit_fraction(system, f, pts, f.values(pts), m, l, c, b)
    rl.wp_hit_count(system, f, rate, pts[0], y, WpWindow(2, m, l))
    rl.in_window_set(system, f, rate, pts[0], l, 0.1)
    rl.window_union_measure(system, f, rate, RecurrenceWindow(m, l, 0.1), 100, 1)
    rl.wp_union_measure(system, f, rate, y, WpWindow(2, m, l), 100, 1)
    rl.borel_cantelli_fraction(system, ShrinkingTargetSpec(tuple(y), 0.5), m, l, 100, 1)


def _middle(scores):
    """The middle one of the distinct scores: a threshold some points are below."""
    distinct = sorted(set(scores))
    return distinct[len(distinct) // 2]


def test_cell_orbit_and_iterate_follow_the_permutation(rng):
    grid = rl.torus_grid(2, 3)
    perm = rl.GridPermutation(grid, rng.permutation(grid.cell_count))
    system = rl.GridBackedMap(perm)
    forward = perm.forward.tolist()
    cells = np.array([0, 5, 63, 17])
    orbit = system.cell_orbit(cells, 150)
    assert orbit.shape == (150, 4) and orbit.dtype == np.int64
    for j, c in enumerate(cells.tolist()):
        assert orbit[:, j].tolist() == orbit_cells(forward, c, 150)
        assert system.cell_orbit(c, 150).tolist() == orbit_cells(forward, c, 150)
    x = grid.centers(np.int64(17)) + 0.01  # inside cell 17, off its center
    for n in (1, 2, 149):
        want = grid.centers(np.int64(orbit_cells(forward, 17, n)[-1]))
        assert np.array_equal(rl.iterate(system, x, n), want)
    # T^n = T^(n mod L), L the cycle length of cell 17.
    length = len(set(orbit_cells(forward, 17, grid.cell_count)))
    want = orbit_cells(forward, 17, 10 ** 7 % length or length)[-1]
    assert np.array_equal(rl.iterate(system, x, 10 ** 7), grid.centers(np.int64(want)))


def test_tables_are_cached_read_only_and_handed_over_by_towerize(monkeypatch, golden_grid_m10,
                                                                 cover_m10):
    report = rl.towerize(golden_grid_m10, cover_m10)
    perm = report.permutation

    def no_build(gp):
        raise AssertionError("the tables were built again")

    monkeypatch.setattr(rl.grid, "cycle_tables", no_build)
    tables = perm.tables
    assert perm.tables is tables
    assert np.array_equal(tables.images(), perm.forward)
    assert rl.cycle_decomposition(perm) == report.periodicity
    for array in tables:
        assert not array.flags.writeable


def test_permutation_rejects_tables_of_another_permutation():
    grid = rl.torus_grid(1, 4)
    shift = rl.GridPermutation.cyclic_shift(grid, 1)
    with pytest.raises(ValueError, match="cycle tables"):
        rl.GridPermutation(grid, rl.GridPermutation.cyclic_shift(grid, 3).forward,
                           cycle_tables(shift))
