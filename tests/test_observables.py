import numpy as np
import pytest

import recurlab as rl


def test_identity_uses_space_metric():
    f = rl.IdentityObservable(1)
    a = f.values(np.array([[0.95]]))
    b = f.values(np.array([[0.05]]))
    assert f.distance(a, b)[0] == pytest.approx(0.1)


def test_trig_values_and_linf_distance():
    f = rl.CoordinateTrig(((1.0, 0.0), (0.0, 2.0)))
    pts = np.array([[0.25, 0.25]])
    vals = f.values(pts)
    assert vals.shape == (1, 2)
    assert vals[0, 0] == pytest.approx(np.cos(np.pi / 2), abs=1e-12)
    assert vals[0, 1] == pytest.approx(np.cos(np.pi), abs=1e-12)
    d = f.distance(np.array([[1.0, 0.0]]), np.array([[0.25, 0.5]]))
    assert d[0] == pytest.approx(0.75)


def test_trig_needs_matrix():
    with pytest.raises(ValueError):
        rl.CoordinateTrig((1.0, 0.0))


def test_trig_frequencies_are_capped_at_2_to_the_26():
    # At |k| = 2^60 the rounded phase gave cos 0.0896 where the value is 1.
    rl.CoordinateTrig(((2.0 ** 26, -(2.0 ** 26)),))
    for k in (2.0 ** 26 + 1, -(2.0 ** 60)):
        with pytest.raises(ValueError, match="within"):
            rl.CoordinateTrig(((k, 0.0),))


@pytest.mark.parametrize("freqs", [((0.5, 0.0),), ((1.0, 2.0), (3.0, 1e-9)), ((np.inf, 0.0),)])
def test_trig_needs_integer_frequencies(freqs):
    # cos(pi x) jumps at the wrap of the torus.
    with pytest.raises(ValueError, match="must be integers"):
        rl.CoordinateTrig(freqs)


def test_evaluation_is_deterministic():
    f = rl.CoordinateTrig(((3.0,),))
    pts = np.array([[0.123456]])
    assert np.array_equal(f.values(pts), f.values(pts))


def test_trig_values_agree_row_for_row_in_every_batch_layout():
    # A frequency entry of 3 makes phases inexact; a lone point, a flat
    # batch and a (count, S, d) stack are each multiplied as many rows.
    f = rl.CoordinateTrig(((1.0, 2.0), (3.0, -1.0)))
    pts = rl.sample_points(rl.cat_map(), 60, seed=8)
    flat = f.values(pts)
    assert np.array_equal(f.values(pts.reshape(20, 3, 2)), flat.reshape(20, 3, 2))
    assert np.array_equal(f.values(pts.reshape(60, 1, 2)), flat.reshape(60, 1, 2))
    for i in range(60):
        assert np.array_equal(f.values(pts[i:i + 1]), flat[i:i + 1])
        assert np.array_equal(f.values(pts[i]), flat[i])
