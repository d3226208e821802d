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


def test_evaluation_is_deterministic():
    f = rl.CoordinateTrig(((3.0,),))
    pts = np.array([[0.123456]])
    assert np.array_equal(f.values(pts), f.values(pts))
