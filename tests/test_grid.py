import math
import struct
import tracemalloc

import numpy as np
import pytest

import recurlab as rl
from recurlab.grid import CHUNK_CELLS, DiscretizationError, apply_power

from conftest import CHECKS, read_permutation
from oracles import affine_order, cycle_histogram, nearest_cell


def test_index_round_trip():
    grid = rl.torus_grid(2, 3)
    idx = np.arange(grid.cell_count)
    assert np.array_equal(grid.flat_index(grid.multi_index(idx)), idx)
    assert np.array_equal(grid.cell_of(grid.all_centers()), idx)


def test_cell_cap_enforced():
    with pytest.raises(ValueError):
        rl.torus_grid(2, 14)  # 2^28 cells


def test_permutation_rejects_non_bijection():
    grid = rl.torus_grid(1, 2)
    with pytest.raises(ValueError):
        rl.GridPermutation(grid, np.array([0, 0, 1, 2]))


def test_discretize_identity_is_identity():
    for d, m in ((1, 6), (2, 4)):
        grid = rl.torus_grid(d, m)
        gp = rl.discretize(rl.Identity(d), grid)
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
        disp = rl.spaces.distance(grid.centers(gp.forward), images)
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
    assert report.fraction_within(256) == 1.0


def test_cycle_decomposition_matches_oracle_on_random_permutation(rng):
    grid = rl.torus_grid(1, 7)
    forward = rng.permutation(grid.cell_count)
    gp = rl.GridPermutation(grid, forward)
    assert gp.forward.dtype == np.int32 and not gp.forward.flags.writeable
    report = rl.cycle_decomposition(gp)
    assert report.histogram == cycle_histogram(forward)
    # recomputing from the inverse permutation yields the same histogram
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(grid.cell_count)
    inv_report = rl.cycle_decomposition(rl.GridPermutation(grid, inverse))
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


@pytest.mark.parametrize("m", range(1, 11))
def test_cat_grid_periods_divide_the_affine_order(m):
    # The cat map's cells move by z -> A z + (1, 1) mod 2^m, where
    # (1, 1) = floor(A (1/2, 1/2)).  A itself has period 3 * 2^(m - 2)
    # mod 2^m for m >= 2 (Dyson & Falk, Amer. Math. Monthly 99, 1992).
    order = affine_order(((2, 1), (1, 1)), (1, 1), m)
    assert order == (3 if m == 1 else 3 * 2 ** (m - 2))
    report = rl.cycle_decomposition(rl.discretize(rl.cat_map(), rl.torus_grid(2, m)))
    assert max(report.histogram) == order
    assert all(order % length == 0 for length in report.histogram)


def test_grid_cap_is_checked_before_any_power(monkeypatch):
    # 2^(m d) as a Python int grows with m: at m = 2^63 it would not fit in
    # memory, so the cap must be decided from m d alone.
    def no_power(self):
        raise AssertionError("2^m was computed before the cap was checked")

    monkeypatch.setattr(rl.GridSpec, "cells_per_axis", property(no_power))
    for dim, m in ((2, 2 ** 63), (1, 27), (2, 14)):
        with pytest.raises(ValueError, match=f"2\\^{dim * m} cells exceeds the 67108864"):
            rl.GridSpec(dim, m)
    assert rl.GridSpec(2, 13).m == 13  # 2^26 cells: at the cap, not above it


def test_period_fraction_monotone_and_complete(towerized_golden):
    report = towerized_golden.periodicity
    fracs = [report.fraction_within(p) for p in range(1, max(report.histogram) + 1)]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 1.0


def test_period_bound_fraction_examples():
    grid = rl.torus_grid(1, 4)
    gp = rl.discretize(rl.golden_rotation(), grid)
    report = rl.cycle_decomposition(gp)
    assert report.fraction_within(8) == 1.0
    assert report.fraction_within(7) == 0.0


def test_gprm_round_trip(tmp_path, golden_grid_m10):
    path = tmp_path / "perm.gprm"
    rl.save_permutation(golden_grid_m10, path)
    loaded = read_permutation(path)
    assert loaded == golden_grid_m10


# The library writes GPRM and never reads it; the rejection tests below hold
# the one reader, benchmarks/checks.py::read_gprm, to the format.
def test_gprm_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.gprm"
    path.write_bytes(b"NOPE" + b"\0" * 40)
    with pytest.raises(CHECKS.CheckError, match="bad magic"):
        CHECKS.read_gprm(path)


def test_compose_and_inverse_permutation(shift1_m10):
    inverse = np.empty_like(shift1_m10.forward)
    inverse[shift1_m10.forward] = np.arange(shift1_m10.grid.cell_count)
    ident = rl.GridPermutation(shift1_m10.grid, shift1_m10.forward[inverse])
    assert np.array_equal(ident.forward, np.arange(shift1_m10.grid.cell_count))


class _DoubleShear:
    """Two small torus shears: area-preserving, but with no affine form."""

    def __init__(self, amp):
        self.amp = amp
        self.dim = 2

    def step(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        y = (pts[:, 1] + self.amp * np.sin(2 * np.pi * pts[:, 0])) % 1.0
        x = (pts[:, 0] + self.amp * np.sin(2 * np.pi * y)) % 1.0
        return np.stack([x, y], axis=1)

    def describe(self):
        return "double-shear"


def test_discretize_rejects_maps_without_affine_form(monkeypatch):
    grid = rl.torus_grid(2, 4)
    systems = [
        _DoubleShear(0.02),
        rl.GridBackedMap(rl.GridPermutation.identity(grid)),
    ]
    for system in systems:
        calls = []
        monkeypatch.setattr(system, "step", lambda pts: calls.append(pts))
        with pytest.raises(ValueError, match="has no affine form") as err:
            rl.discretize(system, grid)
        assert system.describe() in str(err.value)
        assert calls == []


def test_discretize_raises_when_bound_unreachable(monkeypatch):
    # An affine form three cells off the map's true images: the
    # displacement check must catch it (bound (1 + sqrt(1)) cells).
    from recurlab.grid import DiscretizationError

    grid = rl.torus_grid(1, 6)
    system = rl.golden_rotation()
    monkeypatch.setattr(rl.Rotation, "affine",
                        lambda self: (((1,),), (self.alpha[0] + 3 / 64,)))
    with pytest.raises(DiscretizationError, match="displaced"):
        rl.discretize(system, grid)


def test_discretize_deterministic():
    grid = rl.torus_grid(2, 6)
    system = rl.ToralAutomorphism(((3, 1), (2, 1)))
    a = rl.discretize(system, grid)
    b = rl.discretize(system, grid)
    assert a == b


@pytest.mark.parametrize("m", [3, 10, 18])
def test_discretize_near_tie_rotation_is_a_uniform_shift(m):
    # alpha 2^m + 1/2 = 1 - 2^-51: the float images of the cell centers
    # round to shifts 0 and 1, the exact rule gives shift 0 for every cell.
    alpha = 2.0 ** -(m + 1) * (1 - 2.0 ** -50)
    grid = rl.torus_grid(1, m)
    gp = rl.discretize(rl.Rotation((alpha,)), grid)
    n = grid.cell_count
    shift = math.floor(alpha * n + 0.5)
    assert shift == 0
    assert np.array_equal(gp.forward, (np.arange(n) + shift) % n)
    images = rl.Rotation((alpha,)).step(grid.all_centers())
    disp = rl.spaces.distance(grid.centers(gp.forward), images)
    assert disp.max() <= 2 * grid.cell_width


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MATRICES = {
    "cat": ((2, 1), (1, 1)),
    "3121": ((3, 1), (2, 1)),
    "shear": ((1, 1), (0, 1)),
    "swap": ((0, 1), (1, 0)),
    "shear-neg": ((1, -1), (0, 1)),
    "2312": ((2, 3), (1, 2)),
    "minus-id": ((-1, 0), (0, -1)),
    "unipotent3": ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
}
_ROTATIONS = {
    "rot2": (0.3137, 0.7241), "rot-0.1": (0.1,), "rot-neg": (-0.3,), "rot-1.7": (1.7,),
    "rot-half": (0.5,), "rot2-quarters": (0.25, 0.75), "rot-tiny": (1e-9,),
    "rot-tiny-neg": (-1e-9,), "rot-digits": (0.123456789,), "rot-near-1": (0.999999,),
}
_ORACLE_CASES = (
    [pytest.param(rl.golden_rotation(), ((1,),), (_GOLDEN,), 12, id="golden")]
    + [pytest.param(rl.ToralAutomorphism(a), a, (0.0,) * len(a), 6 if len(a) == 2 else 4, id=k)
       for k, a in _MATRICES.items()]
    + [pytest.param(rl.Rotation(a), tuple(tuple(int(i == j) for j in range(len(a)))
                                          for i in range(len(a))), a, 6, id=k)
       for k, a in _ROTATIONS.items()]
)


@pytest.mark.parametrize("system,matrix,alpha,m_max", _ORACLE_CASES)
def test_discretize_matches_nearest_cell_oracle(system, matrix, alpha, m_max):
    for m in range(1, m_max + 1):
        grid = rl.torus_grid(len(matrix), m)
        assert rl.discretize(system, grid).forward.tolist() == nearest_cell(matrix, alpha, m)


@pytest.mark.parametrize("forward", [[1, -2], [0, 2], [2, 0, 1, 4]])
def test_permutation_rejects_entries_outside_the_cells(forward):
    grid = rl.torus_grid(1, 1 if len(forward) == 2 else 2)
    with pytest.raises(ValueError, match="outside"):
        rl.GridPermutation(grid, forward)


def test_gprm_rejects_an_entry_past_int64(tmp_path):
    # 2^64 - 2 reads back as int64 -2, which numpy would wrap to cell 0.
    grid = rl.torus_grid(1, 1)
    path = tmp_path / "perm.gprm"
    rl.save_permutation(rl.GridPermutation(grid, [1, 0]), path)
    raw = bytearray(path.read_bytes())
    raw[-8:] = (2 ** 64 - 2).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CHECKS.CheckError, match="outside"):
        CHECKS.read_gprm(path)


@pytest.mark.parametrize("entry", [2 ** 31, 2 ** 32 + 5, 2 ** 64 - 2])
def test_entries_that_would_wrap_as_int32_are_rejected(tmp_path, entry):
    # forward is held as int32; each entry is range-checked before the cast.
    grid = rl.torus_grid(1, 1)
    dtypes = (np.uint64,) if entry >= 2 ** 63 else (np.int64, np.uint64)
    for dtype in dtypes:
        with pytest.raises(ValueError, match="outside"):
            rl.GridPermutation(grid, np.array([1, entry], dtype=dtype))
    path = tmp_path / "perm.gprm"
    rl.save_permutation(rl.GridPermutation(grid, [1, 0]), path)
    raw = bytearray(path.read_bytes())
    raw[-8:] = entry.to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CHECKS.CheckError, match="outside"):
        CHECKS.read_gprm(path)


def test_permutation_rejects_non_integer_entries():
    with pytest.raises(ValueError, match="integers"):
        rl.GridPermutation(rl.torus_grid(1, 1), np.array([1.0, 0.0]))


class _DisplacedCat:
    """The cat map's affine form, with float images moved ``offset`` along
    x off the lattice image cell's center at the chosen cells."""

    def __init__(self, grid, moved):
        self.dim = 2
        self.grid = grid
        self.moved = moved
        self.lattice = rl.discretize(rl.cat_map(), grid).forward

    def affine(self):
        return rl.cat_map().affine()

    def step(self, pts):
        out = rl.cat_map().step(pts)
        cells = self.grid.cell_of(pts)
        for cell, offset in self.moved.items():
            out[cells == cell] = (self.grid.centers(self.lattice[[cell]]) + (offset, 0.0)) % 1.0
        return out


@pytest.mark.parametrize("moved", [
    {CHUNK_CELLS + 7: 0.25, 3 * CHUNK_CELLS + 5: 0.25, 2 * CHUNK_CELLS: 0.125},
    {CHUNK_CELLS + 7: 0.25, CHUNK_CELLS + 9000: 0.25, 3 * CHUNK_CELLS - 1: 0.375},
    {2 * CHUNK_CELLS: 0.25, 2 * CHUNK_CELLS - 1: 0.25},
], ids=["tie-across-chunks", "tie-then-larger", "tie-at-a-boundary"])
def test_discretize_error_names_the_first_worst_cell_across_chunks(moved):
    grid = rl.torus_grid(2, 9)  # 2^18 cells: four chunks
    system = _DisplacedCat(grid, moved)
    # One argmax over all cells, in plain numpy.
    idx = np.arange(grid.cell_count)
    n = grid.cells_per_axis

    def centers(cells):
        return (np.stack([cells // n, cells % n], axis=1) + 0.5) / n

    delta = np.abs(centers(system.lattice.astype(np.int64)) - system.step(centers(idx)))
    disp = np.minimum(delta, 1.0 - delta).max(axis=1)
    worst = int(np.argmax(disp))
    assert worst >= CHUNK_CELLS and disp[:CHUNK_CELLS].max() <= (1 + np.sqrt(2)) / n
    with pytest.raises(DiscretizationError) as err:
        rl.discretize(system, grid)
    assert f"cell {worst} displaced {disp[worst]:.3e} > bound" in str(err.value)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_discretize_and_permutation_peak_memory():
    # 2^20 cells: the int32 forward array is 4 MB, a bijectivity mask 1 MB;
    # discretize works over chunks beside it.
    system, grid = rl.cat_map(), rl.torus_grid(2, 10)
    assert _traced_peak(rl.discretize, system, grid) < 16 * 2 ** 20
    forward = (np.arange(grid.cell_count, dtype=np.int64) + 1) % grid.cell_count
    assert _traced_peak(rl.GridPermutation, grid, forward) < 6 * 2 ** 20


@pytest.mark.parametrize("grid", [rl.torus_grid(1, 7), rl.torus_grid(2, 3)],
                         ids=["torus1-m7", "torus2-m3"])
def test_apply_power_equals_repeated_compose(rng, grid):
    gp = rl.GridPermutation(grid, rng.permutation(grid.cell_count))
    cells = rng.integers(0, grid.cell_count, size=50)  # with repeats
    power = rl.GridPermutation.identity(grid)
    for k in range(0, 70):
        got = apply_power(gp, np.arange(grid.cell_count), k)
        assert got.dtype == np.int32
        assert np.array_equal(got, power.forward)
        assert np.array_equal(apply_power(gp, cells, k), power.forward[cells])
        power = rl.GridPermutation(grid, gp.forward[power.forward])


def test_apply_power_large_exponent_on_a_known_cycle(shift1_m10):
    # A shift by one on 2^10 cells: forward^k is a shift by k mod 2^10.
    n = shift1_m10.grid.cell_count
    for k in (1023, 1024, 1025, 10 ** 9 + 7):
        want = (np.arange(n) + k) % n
        assert np.array_equal(apply_power(shift1_m10, np.arange(n), k), want)


def test_apply_power_rejects_negative_exponent(shift1_m10):
    with pytest.raises(ValueError):
        apply_power(shift1_m10, np.arange(4), -1)


def _saved_gprm(tmp_path):
    grid = rl.torus_grid(2, 2)
    gp = rl.GridPermutation(grid, np.arange(grid.cell_count)[::-1])
    path = tmp_path / "perm.gprm"
    rl.save_permutation(gp, path)
    return gp, path


def test_gprm_clean_round_trip_is_exact(tmp_path):
    gp, path = _saved_gprm(tmp_path)
    raw = path.read_bytes()
    assert len(raw) == 4 + 21 + 8 * gp.grid.cell_count
    assert read_permutation(path) == gp
    rl.save_permutation(read_permutation(path), path)
    assert path.read_bytes() == raw


def test_gprm_header_of_a_torus_file_is_pinned(tmp_path):
    # magic, version 1, dim, m, space tag 0 (the torus) and a 0.0 float
    _, path = _saved_gprm(tmp_path)
    assert path.read_bytes()[:25] == b"GPRM" + struct.pack("<IIIBd", 1, 2, 2, 0, 0.0)


def test_gprm_rejects_a_space_tag_other_than_the_torus(tmp_path):
    # Tag 1 with a half-width was written for the bounded-cube spaces of
    # earlier versions.
    _, path = _saved_gprm(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<IIIBd", 1, 2, 2, 1, 1.0) + raw[25:])
    with pytest.raises(CHECKS.CheckError, match="space tag 1"):
        CHECKS.read_gprm(path)


@pytest.mark.parametrize("edit,want", [
    (lambda raw: raw + b"\0", "GPRM: 129 payload bytes for 16 cells"),
    (lambda raw: raw + b"trailing junk" * 8, "GPRM: 232 payload bytes for 16 cells"),
    (lambda raw: raw[:-1], "GPRM: 127 payload bytes for 16 cells"),
    (lambda raw: raw[:-8], "GPRM: 120 payload bytes for 16 cells"),
    (lambda raw: raw[:25], "GPRM: 0 payload bytes for 16 cells"),
    (lambda raw: raw[:20], "GPRM: truncated header"),
], ids=["one-trailing", "many-trailing", "short-one", "short-entry", "no-payload",
        "short-header"])
def test_gprm_rejects_wrong_length(tmp_path, edit, want):
    _, path = _saved_gprm(tmp_path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CHECKS.CheckError, match=want):
        CHECKS.read_gprm(path)
