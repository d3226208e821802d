"""Batched orbit scans give every sample the float of its own scan.

The runner scores all samples in one ``score_scan`` call; these tests
hold it to per-point calls bit for bit on each kind of map, at batch
sizes whose blocks do not line up with one another, and to a plain-python
cat-map walk.
"""

import numpy as np
import pytest

import recurlab as rl
from recurlab.maps import BLOCK_POINTS
from recurlab.recurrence import orbit_walk

from oracles import cat_score


def _systems(towerized_golden):
    return {
        "rotation": (rl.golden_rotation(), None),
        "rotation-2d": (rl.Rotation((0.1234567, 0.7654321)), None),
        "cat": (rl.cat_map(), None),
        "cat-trig": (rl.cat_map(), rl.CoordinateTrig(((1.0, 2.0), (3.0, -1.0)))),
        # An entry of 3 makes numpy's one-row and many-row products round apart.
        "automorphism": (rl.ToralAutomorphism(((3, 1), (2, 1))), None),
        "golden-tower": (rl.GridBackedMap(towerized_golden.permutation), None),
        "identity": (rl.Identity(2), None),
    }


def _start_points(system, count, seed=11):
    return rl.sample_points(system, count, seed)


@pytest.mark.parametrize("name", ["rotation", "rotation-2d", "cat", "cat-trig",
                                  "automorphism", "golden-tower", "identity"])
@pytest.mark.parametrize("samples", [1, 13])
def test_batched_scores_equal_per_point_scores(towerized_golden, name, samples):
    system, f = _systems(towerized_golden)[name]
    f = f or rl.IdentityObservable(system.dim)
    rate = rl.Power(1.0)
    pts = _start_points(system, samples)
    y = _start_points(system, 1, seed=12)[0]
    # One point walks in blocks of 4096 steps and 13 in blocks of 315, so
    # each walk ends its pre-window steps and its window with a short block.
    horizon, n_start = 9000, 4321
    rec = rl.recurrence_score(system, f, rate, pts, horizon, n_start)
    hit = rl.hitting_score(system, f, rate, pts, y, horizon, n_start)
    assert rec.shape == hit.shape == (samples,)
    for i in range(samples):
        assert rec[i] == rl.recurrence_score(system, f, rate, pts[i], horizon, n_start)
        assert hit[i] == rl.hitting_score(system, f, rate, pts[i], y, horizon, n_start)


def test_single_point_scores_are_floats(cat):
    f = rl.IdentityObservable(cat.dim)
    x = np.array([0.3, 0.6])
    assert type(rl.recurrence_score(cat, f, rl.Power(1.0), x, 50)) is float
    assert type(rl.hitting_score(cat, f, rl.Power(1.0), x, x, 50)) is float


def test_batched_cat_scores_match_plain_python_walk(cat):
    f = rl.IdentityObservable(cat.dim)
    pts = _start_points(cat, 9, seed=3)
    target = (0.5, 0.25)
    horizon, n_start = 3000, 1000
    rec = rl.recurrence_score(cat, f, rl.Power(1.0), pts, horizon, n_start)
    hit = rl.hitting_score(cat, f, rl.Power(0.5), pts, np.array(target), horizon, n_start)
    for i, (x0, y0) in enumerate(pts.tolist()):
        assert rec[i] == cat_score(x0, y0, (x0, y0), float, n_start, horizon)
        assert hit[i] == cat_score(x0, y0, target, lambda n: n ** 0.5, n_start, horizon)


def test_score_scan_rejects_mismatched_batches(cat):
    f = rl.IdentityObservable(cat.dim)
    pts = _start_points(cat, 3)
    with pytest.raises(ValueError, match="references"):
        rl.recurrence.score_scan(cat, f, rl.Power(1.0), pts, f.values(pts[:2]), 10)
    with pytest.raises(ValueError, match="references"):
        rl.recurrence.score_scan(cat, f, rl.Power(1.0), pts[0], f.values(pts[:1]), 10)


@pytest.mark.parametrize("system", [rl.golden_rotation(), rl.cat_map()],
                         ids=["rotation", "cat"])
@pytest.mark.parametrize("samples", [1, 5, 4097])
def test_orbit_blocks_bound_block_size_and_cover_the_horizon(system, samples):
    # The kernel is called in consecutive blocks up to the horizon: from
    # n = 0 on an automorphism, whose advance walks the kernel, and from
    # n_lo - 1 on a rotation, whose advance is one addition.  The statistic
    # sees the blocks of the window [n_lo, horizon] alone.
    pts = _start_points(system, samples)
    n_lo, horizon = 1234, 5000
    calls, seen = [], []

    class Recording(type(system)):
        def step_block(self, start, cols, n, out):
            calls.append((n, out.shape[0]))
            assert out.shape[1:] == start.shape == cols.shape == (self.dim, samples)
            super().step_block(start, cols, n, out)

    def visit(i, d):
        seen.append((i, d.shape[0]))
        assert d.shape[1] == samples

    rotation = isinstance(system, rl.Rotation)
    recording = Recording(system.alpha if rotation else system.matrix)
    f = rl.IdentityObservable(system.dim)
    assert orbit_walk(recording, f, pts, pts, n_lo, horizon, visit) == 0
    first = n_lo - 1 if rotation else 0
    assert [n for n, _ in calls] == np.cumsum([first] + [c for _, c in calls[:-1]]).tolist()
    assert sum(c for _, c in calls) == horizon - first
    assert all(c * samples <= max(BLOCK_POINTS, samples) for _, c in calls)
    assert (n_lo - 1) in [n for n, _ in calls]
    assert [i for i, _ in seen] == np.cumsum([0] + [c for _, c in seen[:-1]]).tolist()
    assert sum(c for _, c in seen) == horizon - n_lo + 1


@pytest.mark.parametrize("name", ["rotation", "cat", "automorphism", "golden-tower",
                                  "identity"])
def test_step_block_of_a_batch_stacks_the_single_point_blocks(towerized_golden, name):
    system, _ = _systems(towerized_golden)[name]
    pts = _start_points(system, 4)
    start = np.ascontiguousarray(pts.T)
    for n in (0, 4321):
        cols = np.array([rl.iterate(system, x, n) for x in pts]).T
        block = np.empty((30, system.dim, 4))
        system.step_block(start, cols, n, block)
        for i in range(4):
            alone = np.empty((30, system.dim, 1))
            system.step_block(start[:, i:i + 1], cols[:, i:i + 1], n, alone)
            assert np.array_equal(block[:, :, i], alone[:, :, 0])


def test_a_scan_that_ends_with_a_one_step_block_scores_as_in_its_batch(cat):
    # At horizon = n_start = 4097 a lone point's scan ends with a one-step
    # block, so its trig phase is a one-row product: with a frequency entry
    # of 3, 30 of these 200 scores once differed from the batch's.
    f = rl.CoordinateTrig(((1.0, 2.0), (3.0, -1.0)))
    rate = rl.Power(1.0)
    pts = _start_points(cat, 200)
    horizon = BLOCK_POINTS + 1
    batch = rl.recurrence_score(cat, f, rate, pts, horizon, horizon)
    alone = [rl.recurrence_score(cat, f, rate, x, horizon, horizon) for x in pts]
    assert batch.tolist() == alone
