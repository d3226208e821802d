import numpy as np
import pytest

import recurlab as rl
from recurlab.spaces import make_rng

from oracles import CHI2_999, chi_square_uniform


def test_torus_wrap_reduces_into_unit_interval():
    sp = rl.torus(2)
    pts = sp.wrap(np.array([[1.25, -0.75], [3.0, 0.999]]))
    assert np.all((pts >= 0.0) & (pts < 1.0))
    assert np.allclose(pts[0], [0.25, 0.25])


def test_box_wrap_rejects_outside_points():
    sp = rl.box(2, 2.0)
    with pytest.raises(ValueError):
        sp.wrap(np.array([2.5, 0.0]))


def test_wraparound_distance_on_circle():
    sp = rl.torus(1)
    assert sp.distance(np.array([0.9]), np.array([0.1])) == pytest.approx(0.2)


def test_distance_zero_iff_equal():
    sp = rl.torus(2)
    x = np.array([0.3, 0.7])
    assert sp.distance(x, x) == 0.0
    assert sp.distance(x, x + 1e-6) > 0.0


def test_two_dim_wrap_example():
    sp = rl.torus(2)
    d = sp.distance(np.array([0.1, 0.4]), np.array([0.9, 0.5]))
    assert d == pytest.approx(0.2)  # max(min(0.8, 0.2), 0.1)


def test_box_distance_is_plain_linf():
    sp = rl.box(2, 4.0)
    d = sp.distance(np.array([-3.0, 1.0]), np.array([3.0, 2.0]))
    assert d == pytest.approx(6.0)


def test_metric_axioms_randomized():
    # symmetry, identity, triangle inequality over random torus triples
    sp = rl.torus(3)
    rng = np.random.Generator(np.random.Philox(key=7))
    x, y, z = (rng.random((10_000, 3)) for _ in range(3))
    dxy = sp.distance(x, y)
    dyx = sp.distance(y, x)
    dyz = sp.distance(y, z)
    dxz = sp.distance(x, z)
    assert np.array_equal(dxy, dyx)
    assert np.all(dxz <= dxy + dyz + 1e-15)
    assert np.all(sp.distance(x, x) == 0.0)


def test_sampler_uniformity_chi_square():
    # 10^6 samples against the 4^d-box partition at 0.999 confidence
    for dim in (1, 2):
        measure = rl.MeasureModel(rl.torus(dim))
        pts = measure.sample(10 ** 6, seed=2024)
        bins = np.floor(pts * 4).astype(int)
        flat = bins[:, 0] if dim == 1 else bins[:, 0] * 4 + bins[:, 1]
        counts = np.bincount(flat, minlength=4 ** dim)
        stat = chi_square_uniform(counts)
        assert stat < CHI2_999[4 ** dim - 1]


def test_grid_measure_samples_cell_centers():
    grid = rl.torus_grid(1, 4)
    measure = rl.MeasureModel(rl.torus(1), grid)
    pts = measure.sample(500, seed=3)
    centers = grid.all_centers()
    assert np.all(np.isin(pts[:, 0], centers[:, 0]))


def test_sample_prefix_stability():
    # the first S draws of a larger request are identical (counter-based rng)
    measure = rl.MeasureModel(rl.torus(2))
    small = measure.sample(100, seed=9)
    large = measure.sample(1000, seed=9)
    assert np.array_equal(small, large[:100])


def test_make_rng_deterministic():
    a = make_rng(5).random(4)
    b = make_rng(5).random(4)
    assert np.array_equal(a, b)


def test_torus_wrap_keeps_tiny_negatives_below_one():
    # -1e-17 % 1.0 rounds to 1.0, outside [0, 1); it is the point 0.0.
    assert rl.torus(1).wrap(np.array([-1e-17])).tolist() == [0.0]
    pts = rl.torus(2).wrap(np.array([[-1e-17, -5e-324], [-1e-300, 0.25]]))
    assert pts.tolist() == [[0.0, 0.0], [0.0, 0.25]]
