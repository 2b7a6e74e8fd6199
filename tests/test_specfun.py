"""Signed-log values and their signed logsumexp."""

import math

import numpy as np
import pytest

from leojadce.specfun import SignedLogValue, signed_log_sum


# ---------------------------------------------------------------- signed log

def test_signed_log_round_trip():
    # exp(log x) costs ~|log x| ulps of relative precision at huge magnitudes
    for x in (3.5, -0.2, 1e-200, -1e200, 0.0):
        v = SignedLogValue.from_float(x)
        assert v.value() == pytest.approx(x, rel=1e-13)
    assert SignedLogValue.from_float(0.0).sign == 0


def test_signed_log_mul_div():
    a = SignedLogValue.from_float(-3.0)
    b = SignedLogValue.from_float(0.5)
    assert (a * b).value() == pytest.approx(-1.5)
    assert (a / b).value() == pytest.approx(-6.0)
    assert a.scaled(-3.0).value() == pytest.approx(9.0, rel=1e-15)
    zero = SignedLogValue.from_float(0.0)
    assert (a * zero).sign == 0 and (zero / a).sign == 0
    with pytest.raises(ZeroDivisionError):
        a / zero
    with pytest.raises(AttributeError):
        a.sign = 1
    # a named tuple: it unpacks, and equals the plain tuple of its fields
    log_abs, sign = a
    assert (log_abs, sign) == a == (math.log(3.0), -1)
    assert SignedLogValue(0.0, 1) == SignedLogValue.from_float(1.0)


def test_signed_log_sum_matches_direct():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=20) * 10
    total = signed_log_sum([SignedLogValue.from_float(x) for x in xs])
    assert total.value() == pytest.approx(float(np.sum(xs)), rel=1e-12)


def test_signed_log_sum_cancellation_and_zero():
    one = SignedLogValue.from_float(1.0)
    minus = SignedLogValue.from_float(-1.0)
    assert signed_log_sum([one, minus]).sign == 0
    assert signed_log_sum([]).sign == 0
    # huge magnitudes that a plain float sum could not represent
    big = SignedLogValue(1000.0, 1)
    nearly = SignedLogValue(1000.0 + math.log(0.5), -1)
    out = signed_log_sum([big, nearly])
    assert out.sign == 1
    assert out.log_abs == pytest.approx(1000.0 + math.log(0.5), rel=1e-12)
