import numpy as np
import pytest

import recurlab as rl
from recurlab.maps import GridBackedMap, iterate

from oracles import CHI2_999, chi_square_uniform


def test_period_two_rotation():
    rot = rl.Rotation((0.5,))
    x = np.array([0.25])
    assert iterate(rot, x, 2)[0] == pytest.approx(0.25)


def test_iterate_zero_is_identity():
    for system in (rl.golden_rotation(), rl.cat_map()):
        x = np.full(system.dim, 0.3)
        assert np.array_equal(iterate(system, x, 0), x)


def test_cat_map_hand_evaluated_step():
    # (2*0.5 + 0.5, 0.5 + 0.5) mod 1 = (0.5, 0.0)
    out = iterate(rl.cat_map(), np.array([0.5, 0.5]), 1)
    assert np.allclose(out, [0.5, 0.0], atol=1e-15)


def test_iterate_rejects_bad_input():
    with pytest.raises(ValueError):
        iterate(rl.cat_map(), np.array([0.5]), 1)  # wrong dimension
    with pytest.raises(ValueError):
        iterate(rl.cat_map(), np.array([0.5, 0.5]), -1)


def test_group_law_exact_on_grid_maps(golden_grid_m10):
    system = rl.GridBackedMap(golden_grid_m10)
    x = np.array([0.123])
    for a, b in ((0, 5), (3, 4), (17, 40)):
        left = iterate(system, x, a + b)
        right = iterate(system, iterate(system, x, a), b)
        assert np.array_equal(left, right)


def test_group_law_analytic_within_tolerance():
    for system in (rl.golden_rotation(), rl.cat_map()):
        x = np.full(system.dim, 0.37)
        for a, b in ((10, 20), (100, 150)):
            left = iterate(system, x, a + b)
            right = iterate(system, iterate(system, x, a), b)
            assert rl.spaces.distance(left, right) < 1e-9


def test_inverse_round_trip_spot_check():
    rng = np.random.Generator(np.random.Philox(key=11))
    grid_map = rl.GridBackedMap(
        rl.discretize(rl.golden_rotation(), rl.torus_grid(1, 6))
    )
    for system in (rl.golden_rotation(), rl.cat_map(), grid_map):
        pts = rng.random((200, system.dim))
        if isinstance(system, rl.GridBackedMap):
            pts = system.grid.centers(system.grid.cell_of(pts))
        back = system.step_inverse(system.step(pts))
        assert np.max(rl.spaces.distance(back, pts)) < 1e-12


def test_automorphism_validation():
    with pytest.raises(ValueError):
        rl.ToralAutomorphism(((2, 0), (0, 2)))  # det 4
    flip = rl.ToralAutomorphism(((0, 1), (1, 0)))  # det -1 allowed
    out = flip.step(np.array([[0.2, 0.7]]))
    assert np.allclose(out, [[0.7, 0.2]])


def test_measure_preservation_chi_square():
    # pushforward of 1e6 uniform samples stays uniform on the 4^d partition
    grid_map = rl.GridBackedMap(
        rl.discretize(rl.golden_rotation(), rl.torus_grid(1, 8))
    )
    cases = [rl.golden_rotation(), rl.cat_map(), grid_map]
    for system in cases:
        d = system.dim
        pts = rl.sample_points(rl.Identity(d), 10 ** 6, seed=77)
        out = system.step(pts)
        bins = np.floor(out * 4).astype(int) % 4
        flat = bins[:, 0] if d == 1 else bins[:, 0] * 4 + bins[:, 1]
        counts = np.bincount(flat, minlength=4 ** d)
        assert chi_square_uniform(counts) < CHI2_999[4 ** d - 1]


def test_map_distance_to_self_is_zero():
    rot = rl.golden_rotation()
    assert rl.map_distance(rot, rot) == 0.0


def test_map_distance_rotations():
    d = rl.map_distance(rl.Rotation((0.25,)), rl.Rotation((0.30,)))
    assert d == pytest.approx(0.05, abs=1e-12)


def test_map_distance_identity_vs_shift(shift1_m10):
    # every cell displaced exactly one cell width at resolution 2^5
    grid = rl.torus_grid(1, 5)
    ident = rl.GridBackedMap(rl.GridPermutation.identity(grid))
    shift = rl.GridBackedMap(rl.GridPermutation.cyclic_shift(grid, 1))
    assert rl.map_distance(ident, shift) == pytest.approx(1.0 / 32.0)


def test_map_distance_monotone_in_samples():
    a, b = rl.cat_map(), rl.ToralAutomorphism(((1, 1), (1, 2)))
    est = [rl.map_distance(a, b, samples_per_box=s, seed=5) for s in (64, 256, 1024)]
    assert est[0] <= est[1] <= est[2]


def test_map_distance_requires_matching_spaces():
    with pytest.raises(ValueError):
        rl.map_distance(rl.golden_rotation(), rl.cat_map())


def test_rotation_block_matches_stepping():
    rot = rl.golden_rotation()
    x = np.array([0.2])
    block = rot.step_block(x, 50)
    cur = x[None, :]
    for i in range(50):
        cur = rot.step(cur)
        assert abs(block[i, 0] - cur[0, 0]) < 1e-9


def test_horizon_cap_enforced():
    system = rl.golden_rotation()
    f = rl.IdentityObservable(system.dim)
    with pytest.raises(ValueError):
        rl.maps.iterate(system, np.array([0.1]), 10 ** 7 + 1)
    with pytest.raises(ValueError):
        rl.recurrence_score(system, f, rl.Power(1.0), np.array([0.1]), 10 ** 7 + 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_iterate_rejects_non_finite_point(bad):
    for system in (rl.cat_map(), GridBackedMap(rl.discretize(rl.cat_map(), rl.torus_grid(2, 3)))):
        with pytest.raises(ValueError, match="point must be finite"):
            iterate(system, np.array([0.5, bad]), 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rotation_rejects_non_finite_vector(bad):
    with pytest.raises(ValueError, match="rotation vector must be finite"):
        rl.Rotation((0.25, bad))
