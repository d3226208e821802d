"""The block walk of ``first_hit_fraction`` against a per-round walk.

``_per_round_fraction`` is the walk the library used before blocks: one
``step`` per n over the survivors, a test per n, and each survivor
dropped at its first hit.  A lone survivor is stepped and scored beside a
copy of itself, as the block walk does, so that it rounds as in a batch.
The block walk must give the same fraction on every map that walks (the
analytic maps, and grid maps whose coef and bound both vary), with the
identity and a trig observable, on windows that start late, overflow the
coefficient, hit everything at once, or leave one survivor at the start
of a block.
"""

import tracemalloc

import numpy as np
import pytest

import recurlab as rl
from recurlab.maps import BLOCK_POINTS
from recurlab.recurrence import first_hit_fraction

TRIG = rl.CoordinateTrig(((1.0, 2.0), (3.0, -1.0)))


def _per_round_fraction(system, f, pts, refs, n_lo, n_hi, coef, bound):
    length = n_hi - n_lo + 1
    coef = np.broadcast_to(np.asarray(coef, dtype=np.float64), (length,))
    bound = np.broadcast_to(np.asarray(bound, dtype=np.float64), (length,))
    cur = np.asarray(pts, dtype=np.float64)
    refs = np.broadcast_to(refs, (cur.shape[0], refs.shape[1]))

    def paired(fn, rows):
        return fn(np.repeat(rows, 2, axis=0))[:1] if rows.shape[0] == 1 else fn(rows)

    for _ in range(n_lo - 1):
        cur = paired(system.step, cur)
    hits = 0
    with np.errstate(invalid="ignore"):
        for i in range(length):
            cur = paired(system.step, cur)
            d = f.distance(paired(f.values, cur), refs) * coef[i]
            hit = d < bound[i]
            hits += int(np.count_nonzero(hit))
            cur, refs = cur[~hit], refs[~hit]
            if cur.shape[0] == 0:
                break
    return hits / pts.shape[0]


def _systems(cat_grid_m5):
    return {
        "rotation": rl.Rotation((0.3137, 0.7241)),
        "cat": rl.cat_map(),
        # An entry of 3 makes numpy's one-row and many-row products round apart.
        "automorphism": rl.ToralAutomorphism(((3, 1), (2, 1))),
        "identity": rl.Identity(2),
        "cat-grid": rl.GridBackedMap(cat_grid_m5),
    }


def _window(case, system, f):
    """(pts, refs, n_lo, n_hi, coef, bound) of a window case."""
    pts = rl.sample_points(system, 40, seed=7)
    refs = f.values(pts)
    if case == "late-start":
        n = np.arange(37, 3001, dtype=np.float64)
        return pts, refs, 37, 3000, np.sqrt(n) * (1 + 9 * (n % 2)), 0.05 * (1 + n % 3)
    if case == "inf-coef":
        # n^200 is inf from n = 35: inf * d > any bound, and inf * 0 is nan.
        n = np.arange(1, 201, dtype=np.float64)
        with np.errstate(over="ignore"):
            return pts, refs, 1, 200, n ** 200, 1e290 * (1 + n % 3)
    if case == "first-block":
        return pts, refs, 5, 900, np.linspace(1.0, 2.0, 896), np.full(896, 5.0)
    # "lone-survivor": two points hit at n = 50, in the first block; the
    # third walks alone from the second block on and hits at n = 2900 the
    # image that a batch walk gives it.  The bound is the least float, so
    # a hit needs a distance of exactly 0: f's value of that image must
    # keep the bits of a batch (a trig phase rounds apart in one row).
    pts = pts[:3]
    orbit = [pts]
    for _ in range(2900):
        orbit.append(system.step(orbit[-1]))
    refs = f.values(np.vstack([orbit[50][:2], orbit[2900][2:]]))
    assert BLOCK_POINTS // 3 < 2900
    n = np.arange(1, 3001, dtype=np.float64)
    return pts, refs, 1, 3000, 1.0 + n % 2, np.full(3000, 5e-324)


@pytest.mark.parametrize("case", ["late-start", "inf-coef", "first-block", "lone-survivor"])
@pytest.mark.parametrize("obs", ["id", "trig"])
@pytest.mark.parametrize("name", ["rotation", "cat", "automorphism", "identity", "cat-grid"])
def test_block_walk_gives_the_per_round_fraction(cat_grid_m5, name, obs, case):
    system = _systems(cat_grid_m5)[name]
    f = TRIG if obs == "trig" else rl.IdentityObservable(system.dim)
    args = _window(case, system, f)
    got = first_hit_fraction(system, f, *args)
    assert got == _per_round_fraction(system, f, *args)
    if case == "first-block":
        assert got == 1.0
    if case == "lone-survivor" and name != "identity":
        assert got == 1.0


def test_single_point_calls_count_the_hits_of_their_batch():
    # Stepped alone by a one-row product, 95 of these 300 points hit; in
    # their batch, 103.  A lone point walks beside a copy of itself, so
    # both count 103.
    system = rl.ToralAutomorphism(((3, 1), (2, 1)))
    f = rl.IdentityObservable(2)
    pts = rl.sample_points(system, 300, 5)
    y = np.array([[0.5, 0.5]])
    radii = rl.Shrinking(1.0).values(np.arange(10, 3001))
    batch = first_hit_fraction(system, f, pts, y, 10, 3000, 1.0, radii)
    alone = sum(first_hit_fraction(system, f, pts[i:i + 1], y, 10, 3000, 1.0, radii)
                for i in range(300))
    assert batch * 300 == alone == 103


@pytest.mark.parametrize("name", ["rotation", "cat", "automorphism", "identity", "cat-grid"])
def test_step_columns_steps_each_column_as_a_row_of_a_batch(cat_grid_m5, name):
    system = _systems(cat_grid_m5)[name]
    pts = rl.sample_points(system, 5, seed=3)
    out = np.empty((60, system.dim, 5))
    system.step_columns(np.ascontiguousarray(pts.T), out)
    cur = pts
    for i in range(60):
        cur = system.step(cur)
        assert np.array_equal(out[i], cur.T)


def test_automorphism_step_block_gives_each_point_its_own_orbit():
    system = rl.ToralAutomorphism(((3, 1), (2, 1)))
    pts = rl.sample_points(system, 6, seed=4)
    block = system.step_block(pts, 80)
    for i in range(6):
        cur = pts[i:i + 1]
        for n in range(80):
            cur = system.step(cur)
            assert np.array_equal(block[n, i], cur[0])


@pytest.mark.parametrize("samples", [1, 2, 13])
def test_automorphism_kernels_step_every_batch_layout_alike(samples):
    # An entry of 3 makes products inexact; step, step_block, step_columns
    # and one-point calls all multiply as a many-row product.
    system = rl.ToralAutomorphism(((3, 1), (2, 1)))
    pts = rl.sample_points(system, samples, seed=4)
    count = 80
    block = system.step_block(pts, count)
    cols = np.empty((count, 2, samples))
    system.step_columns(np.ascontiguousarray(pts.T), cols)
    cur = pts
    for n in range(count):
        cur = system.step(cur)
        assert np.array_equal(block[n], cur)
        assert np.array_equal(cols[n], cur.T)
    for i in range(samples):
        assert np.array_equal(system.step(pts[i]), block[0, i])
        assert np.array_equal(system.step_block(pts[i], count), block[:, i])
        assert np.array_equal(rl.iterate(system, pts[i], count), cur[i])


def test_block_walk_working_set_stays_near_one_block():
    # 1000 cat points (d = 2) over 3000 steps: measured peak 0.32 MB (numpy
    # 2.4), the 64 kB block buffer and a few temporaries of its size.  A
    # walk that kept the whole (window, d, S) orbit would hold 48 MB.
    cat = rl.cat_map()
    f = rl.IdentityObservable(2)
    pts = rl.sample_points(cat, 1000, seed=3)
    radii = rl.Shrinking(1.0).values(np.arange(10, 3001))
    y = np.array([[0.5, 0.5]])
    tracemalloc.start()
    try:
        first_hit_fraction(cat, f, pts, y, 10, 3000, 1.0, radii)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 750_000
