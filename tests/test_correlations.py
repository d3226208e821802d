import math

import numpy as np
import pytest

import recurlab as rl
from recurlab.correlations import CorrelationSeries, _ball_mass_exact
from recurlab.maps import GridBackedMap

from oracles import ball_mass_weighted_1d, full_grid_correlations, naive_correlation_1d


class _Table(rl.Observable):
    """A scalar observable tabulated per grid cell: a cell lookup."""

    def __init__(self, grid, table):
        self.grid, self.table = grid, np.asarray(table, dtype=np.float64)[:, None]

    def values(self, pts):
        return self.table[self.grid.cell_of(pts)]

    def describe(self):
        return "table"


def _const_obs(grid, c):
    return _Table(grid, np.full(grid.cell_count, c))


def test_constant_observable_gives_zero_exactly(golden_grid_m10):
    system = GridBackedMap(golden_grid_m10)
    phi = _const_obs(system.grid, 3.7)
    assert rl.correlation_series(system, phi, phi, [5]).c_hat[0] == 0.0


def test_identity_map_correlation_is_variance(shift1_m10):
    grid = shift1_m10.grid
    system = GridBackedMap(rl.GridPermutation.identity(grid))
    phi = rl.CoordinateTrig(((1.0,),))
    vals = phi.values(grid.all_centers())[:, 0]
    var = float(np.mean(vals * vals) - vals.mean() ** 2)
    for n in (1, 7, 500):
        got = rl.correlation_series(system, phi, phi, [n]).c_hat[0]
        assert got == pytest.approx(var, abs=1e-12)


def test_correlation_rejects_vector_observables(golden_grid_m10):
    system = GridBackedMap(golden_grid_m10)
    phi = rl.CoordinateTrig(((1.0,), (2.0,)))
    with pytest.raises(ValueError):
        rl.correlation_series(system, phi, phi, [1])


def test_correlation_matches_naive_oracle():
    grid = rl.torus_grid(1, 5)
    gp = rl.discretize(rl.golden_rotation(), grid)
    system = GridBackedMap(gp)
    phi = rl.CoordinateTrig(((1.0,),))
    for n in (1, 3, 10):
        got = rl.correlation_series(system, phi, phi, [n]).c_hat[0]
        want = naive_correlation_1d(gp.forward.tolist(), 5,
                                    lambda x: np.cos(2 * np.pi * x), n)
        assert got == pytest.approx(want, abs=1e-12)


def test_cat_map_correlations_reproducible_across_resolutions(cat_grid_m7):
    # the discretized cat map is an exact lattice automorphism, so the
    # full-grid correlation of a single Fourier mode vanishes to rounding
    phi = rl.CoordinateTrig(((1.0, 0.0),))
    sys7 = GridBackedMap(cat_grid_m7)
    sys8 = GridBackedMap(rl.discretize(rl.cat_map(), rl.torus_grid(2, 8)))
    c7 = rl.correlation_series(sys7, phi, phi, [10]).c_hat[0]
    c8 = rl.correlation_series(sys8, phi, phi, [10]).c_hat[0]
    norm = rl.lipschitz_norm(phi, sys8.grid)
    assert c8 <= 1e-2 * norm ** 2
    assert abs(c7 - c8) < 1e-3


def test_full_grid_and_monte_carlo_agree(golden_grid_m10):
    system = GridBackedMap(golden_grid_m10)
    phi = rl.CoordinateTrig(((1.0,),))
    n = 13
    exact = rl.correlation_series(system, phi, phi, [n]).c_hat[0]
    mc = rl.correlation_series(system, phi, phi, [n], scheme="monte-carlo",
                               samples=20_000, seed=17).c_hat[0]
    # product variance bounded by 1; allow 3 standard errors of the mean
    se = 1.0 / np.sqrt(20_000)
    assert abs(mc - exact) <= 3 * se


def test_monte_carlo_horizon_cap_comes_before_sampling(monkeypatch):
    def sample_points(*args):
        pytest.fail("samples were drawn before the horizons were checked")

    monkeypatch.setattr(rl.correlations, "sample_points", sample_points)
    phi = rl.CoordinateTrig(((1.0, 0.0),))
    with pytest.raises(ValueError, match="horizon 10000001 exceeds the 10000000 cap"):
        rl.correlation_series(rl.cat_map(), phi, phi, [1, 10 ** 7 + 1], scheme="monte-carlo")


def test_correlation_symmetric_at_time_zero(golden_grid_m10):
    system = GridBackedMap(golden_grid_m10)
    phi = rl.CoordinateTrig(((1.0,),))
    psi = rl.CoordinateTrig(((2.0,),))
    assert rl.correlation_series(system, phi, psi, [0]).c_hat[0] == pytest.approx(
        rl.correlation_series(system, psi, phi, [0]).c_hat[0], abs=1e-15
    )


def _covariance(phi, psi, pts):
    """|mean(phi psi)| of the values centred on their fsum means."""
    pv = phi.values(pts)[:, 0]
    sv = psi.values(pts)[:, 0]
    pv = pv - math.fsum(pv) / pv.size
    sv = sv - math.fsum(sv) / sv.size
    return abs(float(np.mean(pv * sv)))


# (system, scheme, points the scheme averages over): the full grid of a cat
# grid map, and 5000 seeded draws of the analytic cat map's measure.
_CAT_GRID = GridBackedMap(rl.discretize(rl.cat_map(), rl.torus_grid(2, 6)))
_ZERO_CASES = [
    (_CAT_GRID, "full-grid", _CAT_GRID.grid.all_centers()),
    (rl.cat_map(), "monte-carlo", rl.sample_points(rl.Identity(2), 5000, 8)),
]


@pytest.mark.parametrize("system,scheme,pts", _ZERO_CASES, ids=["full-grid", "monte-carlo"])
def test_correlation_at_time_zero_is_the_covariance(system, scheme, pts):
    phi = rl.CoordinateTrig(((1.0, 2.0),))
    psi = rl.CoordinateTrig(((3.0, -1.0),))
    for a, b in ((phi, phi), (phi, psi), (psi, phi)):
        series = rl.correlation_series(system, a, b, [0], scheme=scheme, samples=5000, seed=8)
        got = series.c_hat[0]
        assert got == _covariance(a, b, pts)


@pytest.mark.parametrize("system,scheme,pts", _ZERO_CASES, ids=["full-grid", "monte-carlo"])
def test_correlation_series_from_horizon_zero_matches_each_horizon(system, scheme, pts):
    phi = rl.CoordinateTrig(((1.0, 2.0),))
    psi = rl.CoordinateTrig(((3.0, -1.0),))
    ns = [0] + ODD_HORIZONS
    for b in (phi, psi):
        series = rl.correlation_series(system, phi, b, ns, scheme=scheme, samples=5000, seed=8)
        assert series.ns == tuple(ns)
        assert list(series.c_hat) == [
            rl.correlation_series(system, phi, b, [n], scheme=scheme, samples=5000,
                                  seed=8).c_hat[0]
            for n in ns
        ]
    with pytest.raises(ValueError, match="horizons must be >= 0"):
        rl.correlation_series(system, phi, psi, [-1], scheme=scheme, samples=5000, seed=8)


def test_correlation_crude_bound(cat_grid_m5):
    system = GridBackedMap(cat_grid_m5)
    phi = rl.CoordinateTrig(((1.0, 0.0),))
    psi = rl.CoordinateTrig(((0.0, 1.0),))
    pts = system.grid.all_centers()
    sup_phi = np.abs(phi.values(pts)).max()
    sup_psi = np.abs(psi.values(pts)).max()
    mean_prod = abs(phi.values(pts).mean() * psi.values(pts).mean())
    for n in (1, 4, 16):
        c = rl.correlation_series(system, phi, psi, [n]).c_hat[0]
        assert c <= sup_phi * sup_psi + mean_prod


def test_theta_scale_invariance(golden_grid_m10):
    system = GridBackedMap(golden_grid_m10)
    grid = system.grid
    base = np.cos(2 * np.pi * grid.all_centers()[:, 0])
    phi = _Table(grid, base)
    phi_scaled = _Table(grid, 2.5 * base)
    ns = [1, 2, 4, 8, 16, 32, 64, 128]
    a = rl.correlation_series(system, phi, phi, ns)
    b = rl.correlation_series(system, phi_scaled, phi_scaled, ns)
    assert np.allclose(a.theta_hat, b.theta_hat, atol=1e-12)


# Gaps of 1, 4, 1, 31, 63 and 155 steps: none a power of two past the first.
ODD_HORIZONS = [1, 5, 6, 37, 100, 255]


def _random_system(grid, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    return GridBackedMap(rl.GridPermutation(grid, rng.permutation(grid.cell_count)))


def _random_table(grid, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    return _Table(grid, rng.standard_normal(grid.cell_count))


def _oracle(system, phi, psi, ns):
    pts = system.grid.all_centers()
    return full_grid_correlations(system.permutation.forward, phi.values(pts)[:, 0],
                                  psi.values(pts)[:, 0], ns)


@pytest.mark.parametrize("grid", [
    rl.torus_grid(1, 10), rl.torus_grid(2, 5),
], ids=["torus1-m10", "torus2-m5"])
def test_full_grid_series_matches_oracle_bit_for_bit(grid):
    system = _random_system(grid, key=21)
    phi, psi = _random_table(grid, key=22), _random_table(grid, key=23)
    for a, b in ((phi, phi), (phi, psi), (psi, phi)):
        series = rl.correlation_series(system, a, b, ODD_HORIZONS)
        assert list(series.c_hat) == _oracle(system, a, b, ODD_HORIZONS)


def test_full_grid_series_on_towerized_golden_matches_oracle(towerized_golden):
    system = GridBackedMap(towerized_golden.permutation)
    phi = rl.CoordinateTrig(((1.0,),))
    psi = rl.CoordinateTrig(((3.0,),))
    ns = sorted(set(ODD_HORIZONS + [towerized_golden.p_star * 3, 1000]))
    for b in (phi, psi):
        series = rl.correlation_series(system, phi, b, ns)
        assert list(series.c_hat) == _oracle(system, phi, b, ns)


def test_shared_observable_equals_an_equal_copy():
    # psi is phi reuses phi's table and norm; an equal but distinct psi is
    # evaluated on its own and must give the same bits.
    grid = rl.torus_grid(2, 5)
    system = _random_system(grid, key=31)
    phi = _random_table(grid, key=32)
    copy = _Table(grid, phi.values(grid.all_centers())[:, 0].copy())
    same = rl.correlation_series(system, phi, phi, ODD_HORIZONS)
    twin = rl.correlation_series(system, phi, copy, ODD_HORIZONS)
    assert same.c_hat == twin.c_hat
    assert (same.norm_phi, same.norm_psi) == (twin.norm_phi, twin.norm_psi)


@pytest.mark.parametrize("ns", [[5, 1, 37], [1, 6, 6, 100], [255, 100]])
def test_unsorted_or_repeated_horizons(ns):
    # The series needs a strictly increasing list and says so before any
    # pass; one horizon at a time, every entry matches the oracle in order.
    grid = rl.torus_grid(2, 5)
    system = _random_system(grid, key=41)
    phi, psi = _random_table(grid, key=42), _random_table(grid, key=43)
    with pytest.raises(ValueError, match="strictly increasing"):
        rl.correlation_series(system, phi, psi, ns)
    got = [rl.correlation_series(system, phi, psi, [n]).c_hat[0] for n in ns]
    assert got == _oracle(system, phi, psi, ns)


def test_full_grid_series_gathers_by_binary_powers(monkeypatch):
    # Horizons 1, 2, 3, 4, 8, ..., 128: gaps 1, 1, 1, 1, 4, 8, ..., 64 cost
    # 4 + sum over k = 2..6 of (1 + k) = 29 gathers, not 128 steps.
    grid = rl.torus_grid(1, 6)
    system = _random_system(grid, key=51)
    phi = _random_table(grid, key=52)
    calls = []
    take = np.take

    def counting_take(*args, **kwargs):
        calls.append(1)
        return take(*args, **kwargs)

    monkeypatch.setattr(np, "take", counting_take)
    ns = [1, 2, 3, 4, 8, 16, 32, 64, 128]
    series = rl.correlation_series(system, phi, phi, ns)
    monkeypatch.undo()
    assert len(calls) == 29
    assert list(series.c_hat) == _oracle(system, phi, phi, ns)


def test_lipschitz_constant_observable():
    grid = rl.torus_grid(1, 5)
    assert rl.lipschitz_norm(_const_obs(grid, -4.2), grid) == pytest.approx(4.2)


def test_lipschitz_cosine_close_to_analytic():
    grid = rl.torus_grid(2, 8)
    phi = rl.CoordinateTrig(((1.0, 0.0),))
    norm = rl.lipschitz_norm(phi, grid)
    assert norm == pytest.approx(1.0 + 2.0 * np.pi, rel=0.02)


def test_lipschitz_gridtable_with_wrap_neighbors():
    grid = rl.torus_grid(1, 2)
    phi = _Table(grid, np.array([0.0, 1.0, 0.0, 1.0]))
    # neighbor difference 1 over distance 0.25, sup 1
    assert rl.lipschitz_norm(phi, grid) == pytest.approx(5.0)


def _series(ns, theta, norm=1.0):
    return CorrelationSeries("phi", "psi", tuple(ns), tuple(theta),
                             norm_phi=norm, norm_psi=1.0, scheme="full-grid")


def test_superpoly_exponential_beats_polynomial():
    ns = [1, 2, 4, 8, 16, 32, 64, 128]
    series = _series(ns, [2.0 ** -n for n in ns])
    fit = rl.superpoly_test(series, [4.0])
    assert fit.verdicts[0].verdict == "consistent-with-decay"


def test_superpoly_constant_is_not_decaying():
    ns = [1, 2, 4, 8, 16, 32, 64, 128]
    series = _series(ns, [0.35] * len(ns))
    fit = rl.superpoly_test(series, [1.0])
    v = fit.verdicts[0]
    assert v.verdict == "not-decaying"
    assert v.weighted[-1] == max(v.weighted)


def test_superpoly_all_zero_is_consistent():
    ns = [1, 2, 4, 8, 16, 32, 64, 128]
    series = _series(ns, [0.0] * 4 + [1e-15] * 4)  # below the numeric floor
    fit = rl.superpoly_test(series, [1.0, 4.0])
    assert all(v.verdict == "consistent-with-decay" for v in fit.verdicts)


def test_superpoly_towerized_map_along_dominant_period(towerized_golden):
    system = GridBackedMap(towerized_golden.permutation)
    phi = rl.CoordinateTrig(((1.0,),))
    p_star = towerized_golden.p_star
    ns = [p_star * k for k in (1, 2, 4, 8, 16, 32, 64, 128)]
    series = rl.correlation_series(system, phi, phi, ns)
    fit = rl.superpoly_test(series, [1.0])
    assert fit.verdicts[0].verdict == "not-decaying"


def test_superpoly_requires_enough_points():
    with pytest.raises(ValueError):
        rl.superpoly_test(_series([1, 2, 4, 8, 16, 32, 64], [0.1] * 7), [1.0])
    with pytest.raises(ValueError):
        rl.superpoly_test(_series([1, 2, 3, 4, 5, 6, 7, 8], [0.1] * 8), [1.0])


def test_local_dimension_torus_slopes():
    for dim, want in ((1, 1.0), (2, 2.0)):
        est = rl.local_dimension(np.full(dim, 0.37), 2.0 ** -9, 2.0 ** -4, rl.torus_grid(dim, 10))
        assert abs(est.slope - want) <= 0.05
        assert est.residual < 1e-9


def test_ball_mass_matches_weighted_oracle():
    grid = rl.torus_grid(1, 6)
    weights = [1.0 / grid.cell_count] * grid.cell_count
    for y in (0.333, 0.001, 0.999):  # and near each wrap edge
        for r in (0.01, 0.1, 0.27):
            got = _ball_mass_exact(grid, np.array([y]), r)
            want = ball_mass_weighted_1d(weights, 6, y, r)
            assert got == pytest.approx(want, abs=1e-12)


def test_local_dimension_additivity_of_product_slopes():
    g1, g2 = rl.torus_grid(1, 10), rl.torus_grid(2, 10)
    s1 = rl.local_dimension(np.array([0.2]), 2.0 ** -8, 2.0 ** -4, g1).slope
    s2 = rl.local_dimension(np.array([0.2, 0.9]), 2.0 ** -8, 2.0 ** -4, g2).slope
    assert abs((s1 + s1) - s2) <= 0.1


def test_local_dimension_excludes_empty_radii():
    # In 100 dimensions the volume (2r)^100 underflows to 0.0 at r = 2^-12
    # (2^-1100 is below the least subnormal) but not at r = 2^-11.
    y = np.full(100, 0.5)
    est = rl.local_dimension(y, 2.0 ** -12, 2.0 ** -7)
    assert est.excluded_radii == (2.0 ** -12,)
    assert est.slope == pytest.approx(100.0)
    assert all(m > 0 for r, m in zip(est.radii, est.masses)
               if r not in est.excluded_radii)


def test_local_dimension_validation():
    with pytest.raises(ValueError):
        rl.local_dimension(np.array([0.1]), 0.2, 0.1)
    with pytest.raises(ValueError):
        rl.local_dimension(np.array([0.1]), 2.0 ** -3, 2.0 ** -1)


def test_local_dimension_masses_nondecreasing_in_radius():
    est = rl.local_dimension(np.array([0.21, 0.84]), 2.0 ** -7, 2.0 ** -2, rl.torus_grid(2, 8))
    # radii are listed descending, so masses must descend with them
    assert all(a >= b for a, b in zip(est.masses, est.masses[1:]))
