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


def _advance_systems():
    return {"rotation": rl.golden_rotation(), "cat": rl.cat_map(),
            "automorphism": rl.ToralAutomorphism(((3, 1), (2, 1))),
            "identity": rl.Identity(2)}


def _walked(system, start, cols, n, k, size=1000):
    """T^(n + k)(x) as the last row of a ``step_block`` walk in blocks of
    ``size`` steps; cols itself when k = 0."""
    block = np.empty((size,) + start.shape)
    for done in range(0, k, size):
        part = block[:k - done]
        system.step_block(start, cols, n + done, part)
        cols = part[-1].copy()
    return cols


@pytest.mark.parametrize("name", ["rotation", "cat", "automorphism", "identity"])
def test_advance_is_the_last_row_of_a_step_block_walk(name):
    system = _advance_systems()[name]
    pts = rl.sample_points(system, 3, seed=5)
    start = np.ascontiguousarray(pts.T)
    for n, ks in ((0, (0, 1, 4095, 4097, 10 ** 5)), (7, (0, 1, 4095, 4097))):
        cols = _walked(system, start, start, 0, n)
        for k in ks:
            got = system.advance(start, cols, n, k)
            assert np.array_equal(got, _walked(system, start, cols, n, k)), (n, k)
            if n == 0 and k < 10 ** 5:
                assert np.array_equal(got.T, [iterate(system, x, k) for x in pts]), k
    for x in pts:
        assert np.array_equal(iterate(system, x, 0), x)


@pytest.mark.parametrize("name", ["cat-grid", "golden-tower"])
def test_grid_advance_is_the_cell_image_that_steps_reach(towerized_golden, name):
    # A grid map has no block kernel: advance is one cycle-table gather,
    # the center of forward^(n + k) of the start cell, which is where
    # n + k steps take a point, off the cell centers too.
    perm = (rl.discretize(rl.cat_map(), rl.torus_grid(2, 5)) if name == "cat-grid"
            else towerized_golden.permutation)
    system = GridBackedMap(perm)
    pts = rl.sample_points(rl.Identity(system.dim), 4, seed=5)
    start = np.ascontiguousarray(pts.T)
    cells = system.grid.cell_of(pts)
    stepped = [pts]
    for _ in range(60):
        stepped.append(system.step(stepped[-1]))
    for n, k in ((0, 1), (0, 60), (7, 0), (7, 53), (25, 35), (0, 10 ** 7)):
        cols = start if n == 0 else np.ascontiguousarray(stepped[n].T)
        got = system.advance(start, cols, n, k)
        assert np.array_equal(got, system.grid.centers(system.cell_image(cells, n + k)).T)
        if n + k <= 60:
            assert np.array_equal(got, stepped[n + k].T), (n, k)
            for s in range(4):
                assert np.array_equal(got[:, s], iterate(system, pts[s], n + k))


@pytest.mark.parametrize("name", ["rotation", "identity", "cat", "grid", "tower"])
def test_advance_by_zero_returns_the_start_point(golden_grid_m10, towerized_golden, name):
    # T^0 is the identity on every map, a grid map included: an off-center
    # point stays where it is (the grid map once returned its cell's center).
    system = {"rotation": rl.golden_rotation(), "identity": rl.Identity(1),
              "cat": rl.cat_map(), "grid": GridBackedMap(golden_grid_m10),
              "tower": GridBackedMap(towerized_golden.permutation)}[name]
    x = np.full((system.dim, 1), 0.01)
    assert np.array_equal(system.advance(x, x, 0, 0), x)


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
    # A block counts n * alpha in closed form, as iterate does, so it keeps
    # within a few roundings of stepping, with no drift over 50 steps.
    rot = rl.golden_rotation()
    x = np.array([0.2])
    block = np.empty((50, 1, 1))
    rot.step_block(x[:, None], x[:, None], 0, block)
    cur = x[None, :]
    for i in range(50):
        cur = rot.step(cur)
        assert abs(block[i, 0, 0] - cur[0, 0]) < 1e-14
        assert block[i, 0, 0] == rl.iterate(rot, x, i + 1)[0]


def test_identity_is_the_rotation_by_zero():
    # Steps, blocks and iterates return their input bit for bit, at 0.0, at
    # 1 - 2^-53 (the largest float below 1) and at Philox samples.
    for d in (1, 2, 3):
        ident = rl.Identity(d)
        assert isinstance(ident, rl.Rotation)
        assert ident.alpha == (0.0,) * d and ident.describe() == "identity"
        pts = np.concatenate([np.zeros((1, d)), np.full((1, d), 1 - 2.0 ** -53),
                              rl.sample_points(ident, 50, seed=4)])
        start = np.ascontiguousarray(pts.T)
        blocks = [(ident.step(pts), pts), (rl.iterate(ident, pts[1], 5000), pts[1])]
        for n in (0, 4999):
            cols = np.empty((4, d, len(pts)))
            ident.step_block(start, start, n, cols)
            blocks.append((np.swapaxes(cols, 1, 2), pts))
        for images, x in blocks:
            assert images.tobytes() == np.broadcast_to(x, images.shape).tobytes()


@pytest.mark.parametrize("alpha, reduced", [(1e20, 0.0), (2.25, 0.25), (-3.0, 0.0)])
def test_huge_rotation_angles_step_as_their_remainder_mod_1(alpha, reduced):
    # alpha mod 1 is exact (fmod), so these step, block and iterate like
    # their remainder, bit for bit; describe and affine keep the given alpha.
    rot, ref = rl.Rotation((alpha,)), rl.Rotation((reduced,))
    pts = np.concatenate([rl.sample_points(ref, 20, seed=2), [[0.0], [1 - 2.0 ** -53]]])
    assert rot.step(pts).tobytes() == ref.step(pts).tobytes()
    start = np.ascontiguousarray(pts.T)
    got, want = np.empty((40, 1, len(pts))), np.empty((40, 1, len(pts)))
    rot.step_block(start, start, 9000, got)
    ref.step_block(start, start, 9000, want)
    assert got.tobytes() == want.tobytes()
    assert rl.iterate(rot, pts[0], 12345).tobytes() == rl.iterate(ref, pts[0], 12345).tobytes()
    assert rot.describe() == f"rotation:{alpha:.17g}" and rot.affine()[1] == (alpha,)


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
