import numpy as np
import pytest

import recurlab as rl
from recurlab.hitting import ShrinkingTargetSpec, WpWindow
from recurlab.maps import GridBackedMap

from oracles import grid_first_hit_1d, orbit_cells, wrap_dist_1d

GOLDEN = rl.maps.GOLDEN_MEAN


def _id_obs(system):
    return rl.IdentityObservable(system.dim)


def test_hitting_equals_recurrence_at_same_point(golden_grid_m10):
    system = GridBackedMap(golden_grid_m10)
    f, r = _id_obs(system), rl.Power(1.0)
    x = np.array([0.377])
    for horizon in (1, 10, 250):
        assert rl.hitting_score(system, f, r, x, x, horizon) == rl.recurrence_score(
            system, f, r, x, horizon
        )


def test_identity_map_target_at_start():
    system = rl.Identity(1)
    s = rl.hitting_score(system, _id_obs(system), rl.Power(1.0),
                         np.array([0.3]), np.array([0.3]), 20)
    assert s == 0.0


def test_direct_hit_at_first_step():
    system = rl.Rotation((0.5,))
    s = rl.hitting_score(system, _id_obs(system), rl.Power(1.0),
                         np.array([0.0]), np.array([0.5]), 1)
    assert s == pytest.approx(0.0, abs=1e-12)


def test_short_period_orbit_avoiding_target_grows():
    # all cells on period-8 cycles: orbit of cell 0 is cells 1..7,0 repeating;
    # a target off the cycle keeps the tail-window score at m * min distance
    grid = rl.torus_grid(1, 6)  # 64 cells
    block = np.arange(64) // 8 * 8
    forward = block + (np.arange(64) + 1) % 8
    system = GridBackedMap(rl.GridPermutation(grid, forward))
    f, r = _id_obs(system), rl.Power(1.0)
    x = grid.centers(np.int64(0))
    y = grid.centers(np.int64(16))  # nine cells from the orbit block
    horizon = 1000
    score_tail = rl.hitting_score(system, f, r, x, y, horizon, n_start=horizon // 2)
    orbit = orbit_cells(forward.tolist(), 0, 8)
    dmin = min(wrap_dist_1d((c + 0.5) / 64, (16 + 0.5) / 64) for c in orbit)
    assert score_tail >= (horizon // 2) * dmin
    assert score_tail >= horizon * grid.cell_width  # divergence at rate r_N
    # oracle: enumerate the periodic orbit distances directly
    dists = [wrap_dist_1d((c + 0.5) / 64, (16 + 0.5) / 64) for c in orbit]
    want_full = min((n + 1) * dists[n % 8] for n in range(horizon))
    score_full = rl.hitting_score(system, f, r, x, y, horizon)
    assert score_full == pytest.approx(want_full, abs=1e-12)
    want_tail = min((n + 1) * dists[n % 8] for n in range(horizon // 2 - 1, horizon))
    assert score_tail == pytest.approx(want_tail, abs=1e-12)


def test_hitting_score_nonincreasing_in_horizon(cat_grid_m5):
    system = GridBackedMap(cat_grid_m5)
    f, r = _id_obs(system), rl.Power(1.0)
    x = np.array([0.2, 0.4])
    y = np.array([0.7, 0.1])
    scores = [rl.hitting_score(system, f, r, x, y, n) for n in (1, 4, 16, 64, 256)]
    assert all(b <= a for a, b in zip(scores, scores[1:]))


def test_wp_count_identity_hits_every_step():
    system = rl.Identity(1)
    x = np.array([0.3])
    count = rl.wp_hit_count(system, _id_obs(system), rl.Power(1.0),
                            x, x, WpWindow(1, 1, 100))
    assert count == 100


def test_wp_count_avoiding_orbit_is_zero():
    grid = rl.torus_grid(1, 6)
    block = np.arange(64) // 8 * 8
    forward = block + (np.arange(64) + 1) % 8
    system = GridBackedMap(rl.GridPermutation(grid, forward))
    x = grid.centers(np.int64(0))
    y = grid.centers(np.int64(32))
    # p/r_n shrinks below the fixed orbit-target distance immediately
    count = rl.wp_hit_count(system, _id_obs(system), rl.Power(2.0),
                            x, y, WpWindow(1, 3, 200))
    assert count == 0


def test_wp_count_golden_brute_force_value():
    # frozen oracle: ||n alpha|| < n^-2 only at n = 1, 2 within [1, 1e4]
    system = rl.golden_rotation()
    count = rl.wp_hit_count(system, _id_obs(system), rl.Power(2.0),
                            np.array([0.0]), np.array([0.0]),
                            WpWindow(1, 1, 10 ** 4))
    assert count == 2


def test_wp_count_monotone_in_p_and_l(golden_grid_m10, rng):
    system = GridBackedMap(golden_grid_m10)
    f, r = _id_obs(system), rl.Power(1.0)
    for _ in range(25):
        x = rng.random(1)
        y = rng.random(1)
        m = int(rng.integers(1, 20))
        l = m + int(rng.integers(0, 60))
        p = int(rng.integers(1, 4))
        base = rl.wp_hit_count(system, f, r, x, y, WpWindow(p, m, l))
        assert rl.wp_hit_count(system, f, r, x, y, WpWindow(p + 1, m, l)) >= base
        assert rl.wp_hit_count(system, f, r, x, y, WpWindow(p, m, l + 30)) >= base


def test_wp_union_everything_hits_when_ball_covers_space():
    system = rl.golden_rotation()
    est = rl.wp_union_measure(system, _id_obs(system), rl.Power(1.0),
                              np.array([0.5]), WpWindow(1, 1, 5), 200, seed=3)
    assert est.value == 1.0  # p / r_1 = 1 exceeds the torus diameter


def test_wp_union_zero_for_tiny_balls_off_orbits():
    grid = rl.torus_grid(1, 4)
    system = GridBackedMap(rl.GridPermutation.identity(grid))
    y = np.array([0.015625])  # quarter-cell off every center
    # distances to centers are >= 1/64, radii p/r_n <= 1/64 on the window
    est = rl.wp_union_measure(system, _id_obs(system), rl.Power(1.0),
                              y, WpWindow(1, 64, 96), 150, seed=4)
    assert est.value == 0.0


def test_wp_union_equals_hit_fraction_same_seed(golden_grid_m10, cat_grid_m7, cat):
    # the union estimate and the fraction of samples with wp_hit_count >= 1
    # are the same number under a shared seed wherever the batch walk and
    # the one-point walk round alike: on grid maps, and on the cat map,
    # whose products are exact
    cases = [
        (GridBackedMap(golden_grid_m10), np.array([0.25]), WpWindow(1, 2, 40)),
        (GridBackedMap(cat_grid_m7), np.array([0.25, 0.25]), WpWindow(1, 20, 400)),
        (cat, np.array([0.25, 0.25]), WpWindow(1, 20, 400)),
    ]
    samples, seed = 300, 11
    for system, y, window in cases:
        f, r = _id_obs(system), rl.Power(1.0)
        est = rl.wp_union_measure(system, f, r, y, window, samples, seed)
        pts = rl.sample_points(system, samples, seed)
        frac = np.mean([
            rl.wp_hit_count(system, f, r, pts[i], y, window) >= 1
            for i in range(samples)
        ])
        assert est.value == pytest.approx(float(frac), abs=1e-15)


def test_wp_union_equals_hit_fraction_on_an_inexact_automorphism():
    # An entry of 3 makes products inexact, and a trig phase too: the walk
    # steps a batch and wp_hit_count one point, and both count 77 of 300
    # (the one-point walk once counted 73).
    system = rl.ToralAutomorphism(((3, 1), (2, 1)))
    f = rl.CoordinateTrig(((1.0, 2.0), (3.0, -1.0)))
    r, y, window = rl.Power(1.0), np.array([0.25, 0.6]), WpWindow(1, 5, 600)
    samples, seed = 300, 5
    est = rl.wp_union_measure(system, f, r, y, window, samples, seed)
    pts = rl.sample_points(system, samples, seed)
    hits = sum(rl.wp_hit_count(system, f, r, x, y, window) >= 1 for x in pts)
    assert est.value * samples == hits == 77


@pytest.mark.parametrize("tower", [False, True])
@pytest.mark.parametrize("p, lo, hi, beta", [(1, 10, 200, 2.0), (1, 50, 400, 1.0),
                                             (2, 300, 500, 1.0)])
def test_wp_union_exhaustive_matches_first_hit_oracle(golden_grid_m10, towerized_golden,
                                                      tower, p, lo, hi, beta):
    gp = towerized_golden.permutation if tower else golden_grid_m10
    system = GridBackedMap(gp)
    forward = gp.forward.tolist()
    for y in (0.25, 0.7):
        got = rl.wp_union_exhaustive(system, _id_obs(system), rl.Power(beta),
                                     np.array([y]), WpWindow(p, lo, hi))
        want = grid_first_hit_1d(forward, 10, range(1024), y, lo, hi,
                                 lambda n: p / n ** beta)
        assert got == want


@pytest.mark.parametrize("tower", [False, True])
@pytest.mark.parametrize("m, horizon, seed", [(100, 3000, 6), (600, 900, 7), (2000, 2400, 8)])
def test_grid_bc_matches_first_hit_oracle(golden_grid_m10, towerized_golden,
                                          tower, m, horizon, seed):
    gp = towerized_golden.permutation if tower else golden_grid_m10
    system = GridBackedMap(gp)
    forward = gp.forward.tolist()
    # The grid measure draws cells by Philox(seed).integers(0, cells).
    cells = np.random.Generator(np.random.Philox(key=seed)).integers(0, 1024, size=300)
    for y in (0.25, 0.7):
        got = rl.borel_cantelli_fraction(system, ShrinkingTargetSpec((y,), 1.0),
                                         m, horizon, 300, seed)
        want = grid_first_hit_1d(forward, 10, cells.tolist(), y, m, horizon, lambda n: 1.0 / n)
        assert got == want


def test_wp_union_monte_carlo_tracks_exhaustive(cat_grid_m7):
    system = GridBackedMap(cat_grid_m7)
    f, r = _id_obs(system), rl.Power(2.0)
    y = np.array([0.5, 0.5])
    window = WpWindow(1, 2, 100)
    exact = rl.wp_union_exhaustive(system, f, r, y, window)
    est = rl.wp_union_measure(system, f, r, y, window, 10_000, seed=21)
    se = max(est.stderr, 1e-6)
    assert abs(est.value - exact) <= 3 * se


def test_bc_radius_above_diameter_hits_instantly():
    system = rl.golden_rotation()
    spec = ShrinkingTargetSpec((0.9,), beta=1000.0)  # t_n barely below 1
    frac = rl.borel_cantelli_fraction(system, spec, 1, 5, 120, seed=6)
    assert frac == 1.0


def test_bc_identity_map_never_hits():
    system = rl.Identity(1)
    spec = ShrinkingTargetSpec((0.0,), beta=0.5)  # t_n = n^-2
    frac = rl.borel_cantelli_fraction(system, spec, 10, 200, 400, seed=7)
    # t_10 = 0.01: only samples starting within 0.01 of the target count
    assert frac <= 0.05


def test_bc_cat_map_borel_cantelli_regime():
    spec = ShrinkingTargetSpec((0.5, 0.5), beta=3.0)
    frac = rl.borel_cantelli_fraction(rl.cat_map(), spec, 10, 10 ** 5, 500, seed=8)
    assert frac >= 0.99


def test_bc_monotone_in_horizon_and_beta_same_seed():
    cat = rl.cat_map()
    base = dict(m=10, samples=200, seed=9)
    f1 = rl.borel_cantelli_fraction(cat, ShrinkingTargetSpec((0.2, 0.2), 0.4),
                                    base["m"], 50, base["samples"], base["seed"])
    f2 = rl.borel_cantelli_fraction(cat, ShrinkingTargetSpec((0.2, 0.2), 0.4),
                                    base["m"], 400, base["samples"], base["seed"])
    assert f2 >= f1
    g1 = rl.borel_cantelli_fraction(cat, ShrinkingTargetSpec((0.2, 0.2), 0.4),
                                    base["m"], 200, base["samples"], base["seed"])
    g2 = rl.borel_cantelli_fraction(cat, ShrinkingTargetSpec((0.2, 0.2), 1.0),
                                    base["m"], 200, base["samples"], base["seed"])
    assert g2 >= g1


def test_shrinking_spec_validation():
    with pytest.raises(ValueError):
        ShrinkingTargetSpec((0.1,), beta=0.0)
    spec = ShrinkingTargetSpec((0.1,), beta=2.0)
    vals = spec.radii.values(np.array([1, 4, 9]))
    assert np.allclose(vals, [1.0, 0.5, 1.0 / 3.0])


def test_bc_window_validation():
    with pytest.raises(ValueError):
        rl.borel_cantelli_fraction(
            rl.cat_map(), ShrinkingTargetSpec((0.5, 0.5), 3.0), 10, 10, 100, 0
        )


def _shift_system():
    return GridBackedMap(rl.GridPermutation.cyclic_shift(rl.torus_grid(1, 5), 3))


@pytest.mark.filterwarnings("error")  # rejected before wrap, not after a warning
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hitting_score_rejects_non_finite_start_point(bad):
    # A nan start once fell into cell 0 and scored 0.21875.
    system = _shift_system()
    for x in (np.array([bad]), np.array([[0.25], [bad]])):
        with pytest.raises(ValueError, match="start points must be finite"):
            rl.hitting_score(system, _id_obs(system), rl.Power(1.0), x, np.array([0.5]), 10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hitting_score_rejects_non_finite_target(bad):
    system = _shift_system()
    with pytest.raises(ValueError, match="hitting target must be finite"):
        rl.hitting_score(system, _id_obs(system), rl.Power(1.0),
                         np.array([0.25]), np.array([bad]), 10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wp_hit_count_rejects_non_finite_points(bad):
    # A nan start once fell into cell 0 and counted 8 hits here.
    system = _shift_system()
    f, r, window = _id_obs(system), rl.Power(1.0), WpWindow(1, 1, 40)
    with pytest.raises(ValueError, match="start point must be finite"):
        rl.wp_hit_count(system, f, r, np.array([bad]), np.array([0.5]), window)
    with pytest.raises(ValueError, match="hitting target must be finite"):
        rl.wp_hit_count(system, f, r, np.array([0.25]), np.array([bad]), window)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_union_estimators_reject_non_finite_targets(bad):
    # Each once returned 0.0 silently.
    system = _shift_system()
    f, r, window = _id_obs(system), rl.Power(1.0), WpWindow(1, 1, 40)
    with pytest.raises(ValueError, match="hitting target must be finite"):
        rl.wp_union_measure(system, f, r, np.array([bad]), window, 100, seed=1)
    with pytest.raises(ValueError, match="hitting target must be finite"):
        rl.wp_union_exhaustive(system, f, r, np.array([bad]), window)
    with pytest.raises(ValueError, match="shrinking target must be finite"):
        rl.borel_cantelli_fraction(system, ShrinkingTargetSpec((bad,), 1.0), 1, 40, 100, 1)
