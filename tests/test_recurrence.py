import numpy as np
import pytest

import recurlab as rl
from recurlab.hitting import ShrinkingTargetSpec, WpWindow
from recurlab.maps import GridBackedMap
from recurlab.recurrence import MeasureEstimate, RecurrenceWindow, first_hit_fraction, score_scan

from oracles import grid_score_1d, grid_window_union_1d, rotation_score_exact, rotation_score_fast

GOLDEN = rl.maps.GOLDEN_MEAN


def _id_obs(system):
    return rl.IdentityObservable(system.dim)


def test_identity_map_scores_zero():
    system = rl.Identity(2)
    s = rl.recurrence_score(system, _id_obs(system), rl.Power(1.0),
                            np.array([0.3, 0.8]), 50)
    assert s == 0.0


def test_period_four_rotation_hits_exactly():
    system = rl.Rotation((0.25,))
    s = rl.recurrence_score(system, _id_obs(system), rl.Power(1.0), np.array([0.0]), 4)
    assert s == pytest.approx(0.0, abs=1e-12)


def test_golden_rotation_score_matches_brute_force():
    # frozen oracle values: min-from-1 is 0.381966..., the tail half-window
    # proxy sits at 1/sqrt(5) = 0.447213...
    system = rl.golden_rotation()
    f, r = _id_obs(system), rl.Power(1.0)
    horizon = 10 ** 5
    full = rl.recurrence_score(system, f, r, np.array([0.613]), horizon)
    tail = rl.recurrence_score(system, f, r, np.array([0.613]), horizon,
                               n_start=horizon // 2)
    assert full == pytest.approx(rotation_score_fast(GOLDEN, 1, horizon), abs=1e-9)
    assert full == pytest.approx(0.3819660112501051, abs=1e-9)
    assert tail == pytest.approx(rotation_score_fast(GOLDEN, horizon // 2, horizon), abs=1e-6)
    assert 0.44 <= tail <= 0.48  # about 1/sqrt(5)


def test_golden_scores_match_the_exact_integer_orbit():
    # The default recurrence scenario's scan: 100 samples, window
    # [5e4, 1e5].  A rotation counts n * alpha through an exact split, so
    # every score lies within 1e-9 of the exact one (measured: 8.3e-12).
    system = rl.golden_rotation()
    pts = rl.sample_points(system, 100, 0)
    scores = rl.recurrence_score(system, _id_obs(system), rl.Power(1.0), pts, 10 ** 5, 5 * 10 ** 4)
    exact = rotation_score_exact(GOLDEN, 5 * 10 ** 4, 10 ** 5)
    assert np.abs(scores - exact).max() < 1e-9


@pytest.mark.parametrize("n", [1, 4095, 4097, 9000, 10 ** 6])
def test_a_rotation_scan_hits_iterate_exactly(n):
    # The scan and iterate reach the same T^n(x), whatever the block.
    system = rl.Rotation((0.3137, 0.7241))
    f, r = _id_obs(system), rl.Power(1.0)
    for x in rl.sample_points(system, 5, 9):
        y = rl.iterate(system, x, n)
        assert rl.hitting_score(system, f, r, x, y, n, n) == 0.0


def test_score_nonincreasing_in_horizon(golden_grid_m10):
    system = GridBackedMap(golden_grid_m10)
    f, r = _id_obs(system), rl.Power(1.0)
    x = np.array([0.111])
    scores = [rl.recurrence_score(system, f, r, x, n) for n in (1, 5, 25, 125, 400)]
    assert all(b <= a for a, b in zip(scores, scores[1:]))


def test_grid_score_matches_naive_oracle(golden_grid_m10):
    system = GridBackedMap(golden_grid_m10)
    f, r = _id_obs(system), rl.Power(1.0)
    forward = golden_grid_m10.forward.tolist()
    for cell in (0, 17, 500, 1023):
        x = golden_grid_m10.grid.centers(np.int64(cell))
        got = rl.recurrence_score(system, f, r, x, 200)
        want = grid_score_1d(forward, 10, cell, float, 1, 200)
        assert got == pytest.approx(want, abs=1e-12)


def test_in_window_identity_always_true():
    system = rl.Identity(1)
    assert rl.in_window_set(system, _id_obs(system), rl.Power(1.0),
                            np.array([0.4]), 7, 1e-9)


def test_in_window_half_rotation_threshold():
    system = rl.Rotation((0.5,))
    f, r = _id_obs(system), rl.Power(1.0)
    x = np.array([0.25])
    # distance after one step is exactly 0.5 under the wrap metric
    assert not rl.in_window_set(system, f, r, x, 1, 0.4)
    assert rl.in_window_set(system, f, r, x, 1, 0.6)


def test_in_window_monotone_in_threshold(golden_grid_m10, rng):
    system = GridBackedMap(golden_grid_m10)
    f, r = _id_obs(system), rl.Power(1.0)
    for _ in range(100):
        x = rng.random(1)
        n = int(rng.integers(1, 50))
        k = float(rng.uniform(0.01, 2.0))
        if rl.in_window_set(system, f, r, x, n, k):
            assert rl.in_window_set(system, f, r, x, n, k * 1.5)


def test_window_union_identity_is_one():
    system = rl.Identity(1)
    est = rl.window_union_measure(system, _id_obs(system), rl.Power(1.0),
                                  RecurrenceWindow(1, 10, 0.5), 200, seed=1)
    assert est.value == 1.0


def test_window_union_single_cycle_is_zero():
    # a single N-cycle moves every cell at least one width per step until
    # the period closes, so thresholds below r_1 * width never fire
    grid = rl.torus_grid(1, 5)
    system = GridBackedMap(rl.GridPermutation.cyclic_shift(grid, 1))
    k = 0.9 * grid.cell_width
    window = RecurrenceWindow(1, grid.cell_count - 1, k)
    est = rl.window_union_measure(system, _id_obs(system), rl.Power(1.0),
                                  window, 300, seed=2)
    assert est.value == 0.0
    exact = rl.window_union_exhaustive(system, _id_obs(system), rl.Power(1.0), window)
    assert exact == 0.0


def test_window_union_towerized_covers_short_period_mass(towerized_golden):
    # cells on cycles of length <= P* return exactly, so any k > 0 works
    report = towerized_golden
    system = GridBackedMap(report.permutation)
    window = RecurrenceWindow(1, report.p_star, 1e-6)
    exact = rl.window_union_exhaustive(system, _id_obs(system), rl.Power(1.0), window)
    assert exact >= report.p_star_fraction >= 0.9


def test_monte_carlo_tracks_exhaustive(golden_grid_m10):
    system = GridBackedMap(golden_grid_m10)
    f, r = _id_obs(system), rl.Power(1.0)
    window = RecurrenceWindow(1, 40, 0.35)
    exact = rl.window_union_exhaustive(system, f, r, window)
    est = rl.window_union_measure(system, f, r, window, 4000, seed=5)
    se = max(est.stderr, 1e-6)
    assert abs(est.value - exact) <= 3 * se


def test_window_union_matches_naive_oracle():
    grid = rl.torus_grid(1, 5)
    gp = rl.discretize(rl.golden_rotation(), grid)
    system = GridBackedMap(gp)
    f, r = _id_obs(system), rl.Power(1.0)
    for (m, l, k) in ((1, 10, 0.3), (3, 25, 0.8), (2, 31, 0.05)):
        got = rl.window_union_exhaustive(system, f, r, RecurrenceWindow(m, l, k))
        want = grid_window_union_1d(gp.forward.tolist(), 5, float, m, l, k)
        assert got == pytest.approx(want, abs=1e-12)


def test_window_union_monotone_in_l_and_k_same_seed(golden_grid_m10):
    system = GridBackedMap(golden_grid_m10)
    f, r = _id_obs(system), rl.Power(1.0)
    sizes = [rl.window_union_measure(system, f, r, RecurrenceWindow(1, l, 0.3),
                                     500, seed=9).value
             for l in (5, 20, 60)]
    assert sizes[0] <= sizes[1] <= sizes[2]
    ks = [rl.window_union_measure(system, f, r, RecurrenceWindow(1, 20, k),
                                  500, seed=9).value
          for k in (0.1, 0.3, 0.9)]
    assert ks[0] <= ks[1] <= ks[2]


def test_window_union_deterministic_given_seed(golden_grid_m10):
    system = GridBackedMap(golden_grid_m10)
    f, r = _id_obs(system), rl.Power(1.0)
    window = RecurrenceWindow(1, 30, 0.4)
    a = rl.window_union_measure(system, f, r, window, 500, seed=123)
    b = rl.window_union_measure(system, f, r, window, 500, seed=123)
    assert a.value == b.value


def test_score_window_equivalence_small_exhaustive():
    # score < k iff some window set fires, for every cell and a k ladder
    grid = rl.torus_grid(1, 4)
    system = GridBackedMap(rl.discretize(rl.golden_rotation(), grid))
    f, r = _id_obs(system), rl.Power(1.0)
    horizon = 40
    ks = np.geomspace(0.01, 2.0, 8)
    for cell in range(grid.cell_count):
        x = grid.centers(np.int64(cell))
        score = rl.recurrence_score(system, f, r, x, horizon)
        for k in ks:
            fired = any(rl.in_window_set(system, f, r, x, n, k)
                        for n in range(1, horizon + 1))
            assert (score < k) == fired


@pytest.mark.parametrize("system,n_start", [
    (rl.Identity(1), 1),
    (GridBackedMap(rl.GridPermutation.cyclic_shift(rl.torus_grid(1, 4), 1)), 40),
], ids=["analytic", "grid"])
def test_score_below_k_iff_first_hit_when_the_rate_overflows(system, n_start):
    # n^200 is inf from n = 35, so a distance of 0 there gives inf * 0 = nan;
    # the scan skips that product, as the first-hit rule does.
    f, rate, horizon = _id_obs(system), rl.Power(200.0), 100
    pts = rl.sample_points(system, 2, seed=1)
    scores = score_scan(system, f, rate, pts, f.values(pts), horizon, n_start)
    assert not np.isnan(scores).any()
    coef = rate.values(np.arange(n_start, horizon + 1))
    for i in range(pts.shape[0]):
        x = pts[i:i + 1]
        for k in (0.5, 1.0):
            hit = first_hit_fraction(system, f, x, f.values(x), n_start, horizon, coef, k)
            assert hit == float(scores[i] < k)


def test_measure_estimate_stderr_formula():
    est = MeasureEstimate(0.25, 400, seed=0)
    assert est.stderr == pytest.approx(np.sqrt(0.25 * 0.75 / 400))
    with pytest.raises(ValueError):
        MeasureEstimate(1.5, 100, seed=0)


def test_window_validation():
    with pytest.raises(ValueError):
        RecurrenceWindow(5, 4, 0.1)
    with pytest.raises(ValueError):
        RecurrenceWindow(1, 4, 0.0)
    with pytest.raises(ValueError):
        rl.window_union_measure(
            rl.Identity(1), rl.IdentityObservable(1),
            rl.Power(1.0), RecurrenceWindow(1, 5, 0.1), 50, seed=0,
        )  # fewer than 100 samples


class _Unstepped(rl.Rotation):
    """A rotation whose orbit must not be walked."""

    def step(self, pts):
        raise AssertionError("stepped before the horizon cap was checked")

    def step_block(self, start, cols, n, out):
        raise AssertionError("stepped before the horizon cap was checked")


_FAR = 10 ** 15  # a window of this many steps cannot be allocated, nor walked
_ID1, _POW = rl.IdentityObservable(1), rl.Power(1.0)


@pytest.mark.parametrize("call", [
    lambda m, g: rl.wp_hit_count(m, _ID1, _POW, [0.1], [0.2], WpWindow(1, 1, _FAR)),
    lambda m, g: rl.window_union_measure(m, _ID1, _POW, RecurrenceWindow(1, _FAR, 0.1), 100, 0),
    lambda m, g: rl.window_union_exhaustive(g, _ID1, _POW, RecurrenceWindow(1, _FAR, 0.1)),
    lambda m, g: rl.wp_union_measure(m, _ID1, _POW, [0.2], WpWindow(1, 1, _FAR), 100, 0),
    lambda m, g: rl.wp_union_exhaustive(g, _ID1, _POW, [0.2], WpWindow(1, 1, _FAR)),
    lambda m, g: rl.borel_cantelli_fraction(m, ShrinkingTargetSpec((0.2,), 1.0), 1, _FAR, 100, 0),
], ids=["wp_hit_count", "window_union_measure", "window_union_exhaustive",
        "wp_union_measure", "wp_union_exhaustive", "borel_cantelli_fraction"])
def test_window_ends_above_the_cap_raise_before_any_step(golden_grid_m10, call):
    with pytest.raises(ValueError, match=f"horizon {_FAR} exceeds the 10000000 cap"):
        call(_Unstepped((GOLDEN,)), GridBackedMap(golden_grid_m10))


def test_score_rejects_bad_window():
    system = rl.Identity(1)
    f = _id_obs(system)
    with pytest.raises(ValueError):
        rl.recurrence_score(system, f, rl.Power(1.0), np.array([0.1]), 0)
    with pytest.raises(ValueError):
        rl.recurrence_score(system, f, rl.Power(1.0), np.array([0.1]), 10, n_start=11)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scans_reject_non_finite_points_and_references(golden_grid_m10, bad):
    system = GridBackedMap(golden_grid_m10)
    f, r = rl.IdentityObservable(system.dim), rl.Power(1.0)
    good = np.array([[0.1], [0.7]])
    with pytest.raises(ValueError, match="start points must be finite"):
        score_scan(system, f, r, np.array([[0.1], [bad]]), good, 10)
    with pytest.raises(ValueError, match="references must be finite"):
        score_scan(system, f, r, good, np.array([[bad], [0.2]]), 10)
    with pytest.raises(ValueError, match="start points must be finite"):
        rl.recurrence_score(system, f, r, np.array([bad]), 10)


_CAT_PTS = rl.sample_points(rl.Identity(2), 50, 3)
_FIRST_HIT = dict(pts=_CAT_PTS, refs=_CAT_PTS, n_lo=1, n_hi=20, coef=1.0, bound=0.05)


@pytest.mark.parametrize("change, message", [
    (dict(n_lo=0), "need 1 <= n_lo <= n_hi"),
    (dict(n_lo=21), "need 1 <= n_lo <= n_hi"),
    (dict(pts=np.vstack([_CAT_PTS[:-1], [[np.nan, 0.5]]])), "points must be finite"),
    (dict(pts=_CAT_PTS[0], refs=_CAT_PTS[:1]), r"points must be a non-empty \(S, 2\)"),
    (dict(pts=_CAT_PTS[:0], refs=_CAT_PTS[:0]), r"points must be a non-empty \(S, 2\)"),
    (dict(refs=_CAT_PTS[:2]), r"refs must be \(50, 2\) or \(1, 2\)"),
    (dict(refs=_CAT_PTS[:, :1]), r"refs must be \(50, 2\) or \(1, 2\)"),
    (dict(coef=np.ones(19)), "coef must be a scalar or 20 values"),
    (dict(bound=np.full(20, np.nan)), "bound must be a scalar or 20 values"),
], ids=["n_lo-zero", "n_lo-above-n_hi", "nan-point", "single-point", "no-points",
        "refs-rows", "refs-columns", "coef-length", "bound-nan"])
def test_first_hit_fraction_rejects_bad_arguments(cat, change, message):
    args = {**_FIRST_HIT, **change}
    steps = []

    class Counting(type(cat)):
        def step(self, pts):
            steps.append(1)
            return super().step(pts)

        def step_block(self, start, cols, n, out):
            steps.append(1)
            super().step_block(start, cols, n, out)

    system = Counting(cat.matrix)
    assert 0 < first_hit_fraction(system, rl.IdentityObservable(cat.dim), **_FIRST_HIT) < 1
    assert steps
    steps.clear()
    with pytest.raises(ValueError, match=message):
        first_hit_fraction(system, rl.IdentityObservable(cat.dim), **args)
    assert not steps
