import numpy as np
import pytest

import recurlab as rl
from recurlab.maps import GridBackedMap
import recurlab.perturbation as perturbation
from recurlab.perturbation import CoverError

from oracles import cycle_histogram, tower_redirect


def test_cover_example_m10():
    # 32 intervals of 32 cells; inner edge ceil(0.9 * 32) = 29
    grid = rl.torus_grid(1, 10)
    cover = rl.build_cover(grid, 1.0 / 32.0, 0.1)
    assert cover.edge_cells == 32
    assert cover.cube_count == 32
    assert cover.v_edge_cells == 29
    assert cover.outer_mass == 1.0
    assert cover.inner_mass == pytest.approx(29 / 32)
    assert not cover.degenerate


def test_cover_whole_space_single_cube():
    grid = rl.torus_grid(1, 6)
    cover = rl.build_cover(grid, 1.0, 0.2)
    assert cover.edge_cells == 64
    assert cover.cube_count == 1
    assert cover.inner_mass >= 1.0 - 0.2


def test_cover_three_cellwidths_picks_two_cells():
    grid = rl.torus_grid(1, 2)
    cover = rl.build_cover(grid, 3.0 * grid.cell_width, 0.1)
    assert cover.edge_cells == 2


def test_cover_degenerates_at_one_cellwidth():
    grid = rl.torus_grid(2, 5)
    cover = rl.build_cover(grid, grid.cell_width, 0.1)
    assert cover.degenerate
    assert cover.edge_cells == 1


def test_cover_error_below_cellwidth_names_minimum():
    grid = rl.torus_grid(1, 10)
    with pytest.raises(CoverError) as err:
        rl.build_cover(grid, grid.cell_width / 2, 0.1)
    assert "minimum feasible delta" in str(err.value)


def test_cover_epsilon_validation():
    grid = rl.torus_grid(1, 4)
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            rl.build_cover(grid, 0.5, eps)


def test_towerize_identity_is_noop(grid1_m10, cover_m10):
    tau = rl.GridPermutation.identity(grid1_m10)
    report = rl.towerize(tau, cover_m10)
    assert report.permutation == tau
    assert report.max_displacement == 0.0
    assert report.total_redirects == 0


def test_towerize_shift_short_period_mass(towerized_shift):
    # one 32-cycle threading the interval exits, everything else fixed
    report = towerized_shift
    assert report.periodicity.histogram == {1: 992, 32: 32}
    assert report.periodicity.fraction_within(64) == 1.0
    assert report.max_displacement < 1.0 / 32.0


def test_towerize_golden_short_period_mass(towerized_golden):
    report = towerized_golden
    assert report.periodicity.fraction_within(64) >= 0.9
    assert report.max_displacement < 1.0 / 32.0
    assert report.p_star <= 64
    assert report.p_star_fraction > 0.9


def test_towerize_hard_guarantees_hold_for_random_permutation(rng):
    # short-cycle mass is measured, never promised; the hard guarantees
    # must hold even for an adversarial (random) permutation
    grid = rl.torus_grid(1, 8)
    tau = rl.GridPermutation(grid, rng.permutation(grid.cell_count))
    cover = rl.build_cover(grid, 1.0 / 16.0, 0.1)
    report = rl.towerize(tau, cover)
    g = report.permutation
    n = grid.cell_count
    assert np.array_equal(g.inverse[g.forward], np.arange(n))  # bijection
    cube_of = cover.cube_of_cells()
    moved = g.forward != tau.forward
    assert np.all(cube_of[g.forward[moved]] == cube_of[tau.forward[moved]])
    assert np.max(g.displacement_cells(tau)) < 1.0 / 16.0


def test_towerize_histogram_matches_independent_walk(towerized_golden):
    got = towerized_golden.periodicity.histogram
    want = cycle_histogram(towerized_golden.permutation.forward.tolist())
    assert got == want


def test_towerize_periods_equal_return_times_to_cubes(towerized_golden):
    # every cell of a cube sits on a final cycle no longer than its first
    # return time to that cube at redirect time; spot-check periods divide
    # orbits back to themselves
    g = towerized_golden.permutation.forward
    report = rl.cycle_decomposition(towerized_golden.permutation)
    lengths = sorted(report.histogram)
    system = GridBackedMap(towerized_golden.permutation)
    for cell in (0, 5, 100, 511, 1023):
        orbit = system.cell_orbit(cell, max(lengths))
        period = 1 + int(np.nonzero(orbit == cell)[0][0])
        assert period in report.histogram


def test_towerize_matches_literal_redirect_oracle(rng):
    cases = [
        (rl.GridPermutation(grid, rng.permutation(grid.cell_count)), delta)
        for grid, delta in ((rl.torus_grid(1, 8), 1.0 / 16.0),
                            (rl.torus_grid(2, 4), 0.25))
    ]
    cases.append((rl.discretize(rl.cat_map(), rl.torus_grid(2, 5)), 0.125))
    for tau, delta in cases:
        cover = rl.build_cover(tau.grid, delta, 0.1)
        assert not cover.degenerate and cover.cube_count > 1
        report = rl.towerize(tau, cover)
        want, redirects = tower_redirect(tau.forward, cover.cube_of_cells())
        assert report.permutation.forward.astype("<u8").tobytes() == \
            np.array(want, dtype="<u8").tobytes()
        assert list(report.redirects_per_cube) == redirects
        assert report.total_redirects > 0


def _swap_two_returns(returns, last):
    returns[[0, 1]] = returns[[1, 0]]
    return returns, last


def _wrong_pre_return_cell(returns, last):
    last[0] = last[1]
    return returns, last


def _repeated_return_point(returns, last):
    returns[0] = returns[1]
    return returns, last


@pytest.mark.parametrize("corrupt,message", [
    (_swap_two_returns, "pre-return cell"),
    (_wrong_pre_return_cell, "pre-return cell"),
    (_repeated_return_point, "permute the cube"),
])
def test_towerize_closure_check_fires_on_a_corrupted_walk(monkeypatch, corrupt, message,
                                                          golden_grid_m10, cover_m10):
    first_returns = perturbation._first_returns

    def corrupted(tables, cells):
        return corrupt(*first_returns(tables, cells))

    monkeypatch.setattr(perturbation, "_first_returns", corrupted)
    with pytest.raises(AssertionError, match=message):
        rl.towerize(golden_grid_m10, cover_m10)


def test_towerize_rejects_mismatched_cover(grid1_m10):
    other = rl.torus_grid(1, 9)
    tau = rl.GridPermutation.identity(grid1_m10)
    with pytest.raises(ValueError):
        rl.towerize(tau, rl.build_cover(other, 1.0 / 32.0, 0.1))


def test_degenerate_cover_towerize_is_noop(cat_grid_m5):
    grid = cat_grid_m5.grid
    cover = rl.build_cover(grid, grid.cell_width, 0.1)
    report = rl.towerize(cat_grid_m5, cover)
    assert report.permutation == cat_grid_m5
    assert report.max_displacement == 0.0


def test_one_cell_cubes_skip_the_cube_work_and_match_the_literal_redirect(monkeypatch, rng,
                                                                          cat_grid_m5):
    def no_walk(tables, cells):
        pytest.fail("a one-cell cube was walked")

    monkeypatch.setattr(perturbation, "_first_returns", no_walk)
    shuffled = rl.GridPermutation(rl.torus_grid(2, 4), rng.permutation(256))
    for tau in (cat_grid_m5, shuffled):
        cover = rl.build_cover(tau.grid, tau.grid.cell_width, 0.1)
        assert cover.edge_cells == 1
        report = rl.towerize(tau, cover)
        want, redirects = tower_redirect(tau.forward, cover.cube_of_cells())
        assert report.permutation.forward.tolist() == want == tau.forward.tolist()
        assert list(report.redirects_per_cube) == redirects == [0] * cover.cube_count
        assert report.max_displacement == 0.0
        assert report.periodicity == rl.cycle_decomposition(tau)


def test_towerize_two_dimensional_nondegenerate_cover():
    # a real 2-D tower: 16-cell cubes over the discretized cat map
    grid = rl.torus_grid(2, 6)
    tau = rl.discretize(rl.cat_map(), grid)
    cover = rl.build_cover(grid, 0.25, 0.1)
    assert cover.edge_cells == 16 and not cover.degenerate
    report = rl.towerize(tau, cover)
    assert report.max_displacement < 0.25
    assert report.periodicity.fraction_within(64) >= 0.9
    cube_of = cover.cube_of_cells()
    g = report.permutation
    moved = g.forward != tau.forward
    assert np.all(cube_of[g.forward[moved]] == cube_of[tau.forward[moved]])
