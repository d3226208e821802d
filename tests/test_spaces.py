import numpy as np
import pytest

import recurlab as rl
from recurlab.spaces import distance, make_rng, wrap

from oracles import CHI2_999, chi_square_uniform


def test_torus_wrap_reduces_into_unit_interval():
    pts = wrap(np.array([[1.25, -0.75], [3.0, 0.999]]), 2)
    assert np.all((pts >= 0.0) & (pts < 1.0))
    assert np.allclose(pts[0], [0.25, 0.25])


def test_wraparound_distance_on_circle():
    assert distance(np.array([0.9]), np.array([0.1])) == pytest.approx(0.2)


def test_distance_zero_iff_equal():
    x = np.array([0.3, 0.7])
    assert distance(x, x) == 0.0
    assert distance(x, x + 1e-6) > 0.0


def test_two_dim_wrap_example():
    d = distance(np.array([0.1, 0.4]), np.array([0.9, 0.5]))
    assert d == pytest.approx(0.2)  # max(min(0.8, 0.2), 0.1)


def test_metric_axioms_randomized():
    # symmetry, identity, triangle inequality over random torus triples
    rng = np.random.Generator(np.random.Philox(key=7))
    x, y, z = (rng.random((10_000, 3)) for _ in range(3))
    dxy = distance(x, y)
    dyx = distance(y, x)
    dyz = distance(y, z)
    dxz = distance(x, z)
    assert np.array_equal(dxy, dyx)
    assert np.all(dxz <= dxy + dyz + 1e-15)
    assert np.all(distance(x, x) == 0.0)


def test_sampler_uniformity_chi_square():
    # 10^6 samples against the 4^d-box partition at 0.999 confidence
    for dim in (1, 2):
        pts = rl.sample_points(rl.Identity(dim), 10 ** 6, seed=2024)
        bins = np.floor(pts * 4).astype(int)
        flat = bins[:, 0] if dim == 1 else bins[:, 0] * 4 + bins[:, 1]
        counts = np.bincount(flat, minlength=4 ** dim)
        stat = chi_square_uniform(counts)
        assert stat < CHI2_999[4 ** dim - 1]


def test_grid_measure_samples_cell_centers():
    grid = rl.torus_grid(1, 4)
    system = rl.GridBackedMap(rl.GridPermutation.identity(grid))
    pts = rl.sample_points(system, 500, seed=3)
    centers = grid.all_centers()
    assert np.all(np.isin(pts[:, 0], centers[:, 0]))


def test_sample_prefix_stability():
    # the first S draws of a larger request are identical (counter-based rng)
    small = rl.sample_points(rl.Identity(2), 100, seed=9)
    large = rl.sample_points(rl.Identity(2), 1000, seed=9)
    assert np.array_equal(small, large[:100])


def test_make_rng_deterministic():
    a = make_rng(5).random(4)
    b = make_rng(5).random(4)
    assert np.array_equal(a, b)


def test_torus_wrap_keeps_tiny_negatives_below_one():
    # -1e-17 % 1.0 rounds to 1.0, outside [0, 1); it is the point 0.0.
    assert wrap(np.array([-1e-17]), 1).tolist() == [0.0]
    pts = wrap(np.array([[-1e-17, -5e-324], [-1e-300, 0.25]]), 2)
    assert pts.tolist() == [[0.0, 0.0], [0.0, 0.25]]
