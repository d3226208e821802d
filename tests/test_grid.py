import numpy as np
import pytest

import recurlab as rl

from oracles import cycle_histogram


def test_index_round_trip():
    grid = rl.torus_grid(2, 3)
    idx = np.arange(grid.cell_count)
    assert np.array_equal(grid.flat_index(grid.multi_index(idx)), idx)
    assert np.array_equal(grid.cell_of(grid.all_centers()), idx)


def test_box_grid_geometry():
    grid = rl.box_grid(2, 2, 2.0)
    assert grid.cell_width == pytest.approx(1.0)
    centers = grid.all_centers()
    assert centers.min() == pytest.approx(-1.5)
    assert centers.max() == pytest.approx(1.5)


def test_cell_cap_enforced():
    with pytest.raises(ValueError):
        rl.torus_grid(2, 14)  # 2^28 cells


def test_permutation_rejects_non_bijection():
    grid = rl.torus_grid(1, 2)
    with pytest.raises(ValueError):
        rl.GridPermutation(grid, np.array([0, 0, 1, 2]))


def test_inverse_consistency_exhaustive(golden_grid_m10):
    gp = golden_grid_m10
    n = gp.grid.cell_count
    assert np.array_equal(gp.inverse[gp.forward], np.arange(n))
    assert np.array_equal(gp.forward[gp.inverse], np.arange(n))


def test_discretize_identity_is_identity():
    for d, m in ((1, 6), (2, 4)):
        grid = rl.torus_grid(d, m)
        gp = rl.discretize(rl.Identity(rl.torus(d)), grid)
        assert np.array_equal(gp.forward, np.arange(grid.cell_count))


def test_discretize_golden_m4_shift_by_ten():
    grid = rl.torus_grid(1, 4)
    gp = rl.discretize(rl.golden_rotation(), grid)
    shifts = (gp.forward - np.arange(16)) % 16
    assert set(shifts.tolist()) == {10}
    report = rl.cycle_decomposition(gp)
    assert report.histogram == {8: 16}  # gcd(16, 10) = 2 cycles of length 8


def test_discretize_meets_displacement_bound_exhaustively():
    # every produced cell center within (1 + sqrt(d)) * width of the image
    cases = [
        (rl.golden_rotation(), rl.torus_grid(1, 6)),
        (rl.cat_map(), rl.torus_grid(2, 5)),
        (rl.cat_map(), rl.torus_grid(2, 6)),
        (rl.Rotation((0.3137, 0.7241)), rl.torus_grid(2, 6)),
    ]
    for system, grid in cases:
        gp = rl.discretize(system, grid)
        images = system.step(grid.all_centers())
        disp = grid.space.distance(grid.centers(gp.forward), images)
        assert disp.max() <= (1 + np.sqrt(grid.dim)) * grid.cell_width + 1e-12


def test_discretize_rejects_wrong_space():
    with pytest.raises(ValueError):
        rl.discretize(rl.golden_rotation(), rl.torus_grid(2, 4))


def test_cycle_decomposition_identity():
    grid = rl.torus_grid(2, 4)  # 256 cells
    report = rl.cycle_decomposition(rl.GridPermutation.identity(grid))
    assert report.histogram == {1: 256}
    assert report.fraction_within(1) == 1.0


def test_cycle_decomposition_single_cycle():
    grid = rl.torus_grid(2, 4)
    gp = rl.GridPermutation.cyclic_shift(grid, 1)
    report = rl.cycle_decomposition(gp)
    assert report.histogram == {256: 256}
    assert report.fraction_within(255) == 0.0
    assert rl.period_bound_fraction(report, 256) == 1.0


def test_cycle_decomposition_matches_oracle_on_random_permutation(rng):
    grid = rl.torus_grid(1, 7)
    forward = rng.permutation(grid.cell_count)
    gp = rl.GridPermutation(grid, forward)
    report = rl.cycle_decomposition(gp)
    assert report.histogram == cycle_histogram(forward)
    # recomputing from the inverse permutation yields the same histogram
    inv_report = rl.cycle_decomposition(gp.inverse_permutation())
    assert inv_report.histogram == report.histogram


def _single_cycle(rng, n):
    order = rng.permutation(n)
    forward = np.empty(n, dtype=np.int64)
    forward[order] = np.roll(order, -1)
    return forward


@pytest.mark.parametrize("dim,m", [(1, 1), (1, 9), (2, 5), (2, 6)])
def test_cycle_decomposition_matches_oracle_on_cycle_structures(rng, dim, m):
    grid = rl.torus_grid(dim, m)
    n = grid.cell_count
    single = _single_cycle(rng, n)
    assert cycle_histogram(single) == {n: n}
    # a random permutation, one n-cycle, and one n/2-cycle beside fixed points
    half = np.arange(n, dtype=np.int64)
    half[: n // 2] = _single_cycle(rng, n // 2)
    for forward in (rng.permutation(n), single, half):
        report = rl.cycle_decomposition(rl.GridPermutation(grid, forward))
        assert report.histogram == cycle_histogram(forward)


def test_period_fraction_monotone_and_complete(towerized_golden):
    report = towerized_golden.periodicity
    fracs = [report.fraction_within(p) for p in range(1, report.max_period + 1)]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 1.0


def test_period_bound_fraction_examples():
    grid = rl.torus_grid(1, 4)
    gp = rl.discretize(rl.golden_rotation(), grid)
    report = rl.cycle_decomposition(gp)
    assert rl.period_bound_fraction(report, 8) == 1.0
    assert rl.period_bound_fraction(report, 7) == 0.0


def test_gprm_round_trip(tmp_path, golden_grid_m10):
    path = tmp_path / "perm.gprm"
    rl.save_permutation(golden_grid_m10, path)
    loaded = rl.load_permutation(path)
    assert loaded == golden_grid_m10
    assert np.array_equal(loaded.inverse, golden_grid_m10.inverse)


def test_gprm_round_trip_box(tmp_path):
    grid = rl.box_grid(2, 3, 2.0)
    rng = np.random.Generator(np.random.Philox(key=3))
    gp = rl.GridPermutation(grid, rng.permutation(grid.cell_count))
    path = tmp_path / "perm.gprm"
    rl.save_permutation(gp, path)
    loaded = rl.load_permutation(path)
    assert loaded == gp
    assert loaded.grid.space.half_width == 2.0


def test_gprm_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.gprm"
    path.write_bytes(b"NOPE" + b"\0" * 40)
    with pytest.raises(ValueError):
        rl.load_permutation(path)


def test_compose_and_inverse_permutation(shift1_m10):
    ident = shift1_m10.compose(shift1_m10.inverse_permutation())
    assert np.array_equal(ident.forward, np.arange(shift1_m10.grid.cell_count))


class _DoubleShear:
    """Two small torus shears; area-preserving but not lattice-exact, so
    rounded targets collide and the ring search must resolve them."""

    def __init__(self, amp):
        self.amp = amp
        self.space = rl.torus(2)

    def step(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        y = (pts[:, 1] + self.amp * np.sin(2 * np.pi * pts[:, 0])) % 1.0
        x = (pts[:, 0] + self.amp * np.sin(2 * np.pi * y)) % 1.0
        return np.stack([x, y], axis=1)


def test_discretize_resolves_conflicts_within_bound():
    grid = rl.torus_grid(2, 6)
    system = _DoubleShear(0.02)
    images = system.step(grid.all_centers())
    targets = grid.cell_of(images)
    assert len(np.unique(targets)) < grid.cell_count  # real conflicts
    gp = rl.discretize(system, grid)
    disp = grid.space.distance(grid.centers(gp.forward), images)
    assert disp.max() <= (1 + np.sqrt(2)) * grid.cell_width + 1e-12


def test_discretize_raises_when_bound_unreachable():
    # at this resolution the vacated cells sit several cells from the
    # collision sites, so no single reassignment can meet the bound
    from recurlab.grid import DiscretizationError

    grid = rl.torus_grid(2, 6)
    with pytest.raises(DiscretizationError):
        rl.discretize(_DoubleShear(0.05), grid)


def test_discretize_deterministic():
    grid = rl.torus_grid(2, 6)
    a = rl.discretize(_DoubleShear(0.02), grid)
    b = rl.discretize(_DoubleShear(0.02), grid)
    assert a == b
