"""Property tests: mod 1 on the torus, the GPRM permutation format, cycle
tables and the tower redirect."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import recurlab as rl
from recurlab.grid import cycle_tables
from recurlab.spaces import frac

from oracles import cycle_histogram, tower_redirect

PROPERTY = settings(deadline=None, database=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FINITE_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=6),
                           elements=FINITE)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@PROPERTY
@given(FINITE)
def test_frac_has_the_bits_of_float_remainder_on_scalars(x):
    assert _bits(frac(np.float64(x))) == _bits(np.float64(x) % 1.0)


@PROPERTY
@given(FINITE_ARRAYS)
def test_frac_has_the_bits_of_float_remainder_on_arrays(a):
    assert np.array_equal(_bits(frac(a)), _bits(a % 1.0))


@PROPERTY
@given(st.integers(1, 3).flatmap(
    lambda d: hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.just(d)), elements=FINITE)))
def test_torus_wrap_lands_in_the_unit_cube(pts):
    out = rl.spaces.wrap(pts, pts.shape[1])
    assert out.shape == pts.shape
    assert ((out >= 0.0) & (out < 1.0)).all()


@st.composite
def permutations(draw):
    dim = draw(st.integers(1, 2))
    grid = rl.torus_grid(dim, draw(st.integers(1, 6 // dim)))
    forward = draw(st.permutations(range(grid.cell_count)))
    return rl.GridPermutation(grid, np.array(forward, dtype=np.int64))


def _gprm_bytes(gp):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "perm.gprm"
        rl.save_permutation(gp, path)
        return path.read_bytes()


def _load_bytes(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "perm.gprm"
        path.write_bytes(raw)
        return rl.load_permutation(path)


@PROPERTY
@given(permutations())
def test_gprm_round_trips_random_permutations(gp):
    loaded = _load_bytes(_gprm_bytes(gp))
    assert loaded == gp
    assert loaded.grid == gp.grid


@PROPERTY
@given(permutations(), st.data())
def test_gprm_rejects_a_truncated_file(gp, data):
    raw = _gprm_bytes(gp)
    cut = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(ValueError, match="GPRM"):
        _load_bytes(raw[:cut])


@PROPERTY
@given(permutations(), st.binary(min_size=1, max_size=40))
def test_gprm_rejects_an_extended_file(gp, extra):
    with pytest.raises(ValueError, match="GPRM payload"):
        _load_bytes(_gprm_bytes(gp) + extra)


@PROPERTY
@given(permutations(), st.binary(min_size=4, max_size=4).filter(lambda b: b != b"GPRM"))
def test_gprm_rejects_a_bad_magic(gp, magic):
    with pytest.raises(ValueError, match="not a GPRM file"):
        _load_bytes(magic + _gprm_bytes(gp)[4:])


@PROPERTY
@given(permutations(), st.integers(0, 2 ** 32 - 1).filter(lambda v: v != rl.grid.GPRM_VERSION))
def test_gprm_rejects_a_bad_version(gp, version):
    raw = _gprm_bytes(gp)
    with pytest.raises(ValueError, match="unsupported GPRM version"):
        _load_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])


@st.composite
def shaped_permutations(draw):
    """A random permutation, the identity or one cycle through every cell,
    on a torus of dimension 1 to 3."""
    dim = draw(st.integers(1, 3))
    grid = rl.torus_grid(dim, draw(st.integers(1, 6 // dim)))
    n = grid.cell_count
    shape = draw(st.sampled_from(("random", "identity", "one cycle")))
    if shape == "identity":
        forward = np.arange(n, dtype=np.int64)
    else:
        cells = np.array(draw(st.permutations(range(n))), dtype=np.int64)
        if shape == "random":
            forward = cells
        else:
            forward = np.empty(n, dtype=np.int64)
            forward[cells] = np.roll(cells, -1)
    return rl.GridPermutation(grid, forward)


@PROPERTY
@given(shaped_permutations())
def test_cycle_tables_lay_out_every_cycle(gp):
    order, start, length, pos = tables = cycle_tables(gp)
    assert all(a.dtype == np.int32 for a in tables)
    n = gp.grid.cell_count
    assert np.array_equal(order[start + pos], np.arange(n))
    assert np.array_equal(order[start + (pos + 1) % length], gp.forward)
    assert tables.periodicity().histogram == cycle_histogram(gp.forward)


@PROPERTY
@given(shaped_permutations(), st.data())
def test_towerize_matches_the_literal_redirect(gp, data):
    grid = gp.grid
    edge = 2 ** data.draw(st.integers(0, grid.m), label="log2 edge")
    cover = rl.build_cover(grid, edge * grid.cell_width, data.draw(st.floats(0.01, 0.99)))
    assert cover.edge_cells == edge
    report = rl.towerize(gp, cover)
    want, redirects = tower_redirect(gp.forward, cover.cube_of_cells())
    assert report.permutation.forward.astype("<u8").tobytes() == \
        np.array(want, dtype="<u8").tobytes()
    assert list(report.redirects_per_cube) == redirects
    assert report.periodicity == rl.cycle_decomposition(report.permutation)
