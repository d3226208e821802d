import math

import numpy as np
import pytest

import recurlab as rl
from recurlab.rates import parse_rate


def test_power_values():
    r = rl.Power(2.0)
    assert np.allclose(r.values(np.array([1, 2, 3])), [1.0, 4.0, 9.0])


def test_power_requires_positive_exponent():
    with pytest.raises(ValueError):
        rl.Power(0.0)
    with pytest.raises(ValueError):
        rl.Power(-1.0)


def test_powerlog_values_and_divergence():
    r = rl.PowerLog(1.0, 1.0)
    n = np.arange(1, 2000)
    v = r.values(n)
    assert v[0] == pytest.approx(np.log(2.0))
    assert np.all(np.diff(v[10:]) > 0)  # eventually increasing


@pytest.mark.filterwarnings("error")
def test_powerlog_takes_the_product_in_logs_where_a_factor_leaves_the_float_range():
    # n^200 overflows from n = 35 and log(n + 1)^-1000 is subnormal at n = 7
    # and 0 from n = 8, while their product stays a normal float up to
    # n = 100.
    rate = parse_rate("powlog:200,-1000")
    n = np.arange(1, 101)
    v = rate.values(n)
    assert np.isfinite(v).all() and (v > 0).all()
    for k, got in zip(n.tolist(), v.tolist()):
        want = math.exp(200 * math.log(k) - 1000 * math.log(math.log(k + 1)))
        assert got == pytest.approx(want, rel=1e-12)
    # Where both factors and the product are normal floats, its bits stay.
    assert np.array_equal(v[:6], n[:6] ** 200.0 * np.log(n[:6] + 1.0) ** -1000.0)
    pinned = parse_rate("powlog:0.5,-3")
    m = np.arange(1, 5000, dtype=np.float64)
    assert np.array_equal(pinned.values(m), m ** 0.5 * np.log(m + 1.0) ** -3.0)
    assert type(pinned.values(2.0)) is np.float64


def test_table_rate_bounds():
    r = rl.TableRate((1.0, 2.0, 5.0))
    assert r.value(3) == 5.0
    with pytest.raises(ValueError):
        r.values(np.array([4]))
    with pytest.raises(ValueError):
        rl.TableRate((1.0, -2.0))
    with pytest.raises(ValueError):
        rl.TableRate(())


def test_shrinking_strictly_decreasing_to_zero():
    t = rl.Shrinking(3.0)
    v = t.values(np.arange(1, 10_000))
    assert np.all(np.diff(v) < 0)
    assert v[-1] == pytest.approx(9999 ** (-1.0 / 3.0))


def test_parse_roundtrip():
    for text in ("pow:1", "powlog:2,0.5", "table:1,2,3", "shrink:3"):
        assert parse_rate(text).describe() == text


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rate("pow:x")
    with pytest.raises(ValueError):
        parse_rate("nope:1")
