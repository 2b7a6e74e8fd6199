"""The 1F1 numerics against series oracles and scipy, and the signed-log
values they return."""

import math

import numpy as np
import pytest
import scipy.special as sp

from leojadce import specfun
from leojadce.specfun import (ConvergenceError, SignedLogValue, _hyp1f1_kummer,
                              _hyp1f1_series, hyp1f1, signed_log_sum)


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
    assert SignedLogValue(0.0, 1) == hyp1f1(0.5, 1.5, 0.0)


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


# ---------------------------------------------------------------- 1F1

def test_hyp1f1_at_zero_is_one():
    for a, b in ((0.3, 0.7), (-0.5e-6, 0.5), (2.0, 3.0)):
        v = hyp1f1(a, b, 0.0)
        assert v.sign == 1 and v.log_abs == 0.0


def test_hyp1f1_exponential_identity():
    v = hyp1f1(1.0, 1.0, 2.5)
    assert type(v) is SignedLogValue and type(v.sign) is int
    assert v.value() == pytest.approx(math.exp(2.5), rel=1e-12)


def test_hyp1f1_pochhammer_series_oracle():
    # independent 200-term direct series; terms built from log-gamma so the
    # oracle shares no recursion with the implementation
    a, b, x = 2.0, 3.0, 1.5
    terms = []
    for v in range(200):
        log_term = (math.lgamma(a + v) - math.lgamma(a)
                    - math.lgamma(b + v) + math.lgamma(b)
                    + v * math.log(x) - math.lgamma(v + 1))
        terms.append(math.exp(log_term))
    total = math.fsum(terms)
    assert hyp1f1(a, b, x).value() == pytest.approx(total, rel=1e-10)


def test_hyp1f1_branches_agree_in_crossover():
    # direct series vs Kummer transform on x in [20, 40]
    for a, b in ((-0.5e-6, 0.5), (0.5, 1.5), (1.0 - 0.5e-6, 0.5), (1.5, 1.5)):
        for x in (20.0, 25.0, 31.0, 40.0):
            d = _hyp1f1_series(a, b, x)
            k = _hyp1f1_kummer(a, b, x)
            assert d.sign == k.sign
            assert d.log_abs == pytest.approx(k.log_abs, abs=1e-8)


def test_hyp1f1_against_scipy():
    for a, b, x in ((0.3, 0.7, 4.0), (1.5, 2.5, 12.0), (-0.25, 0.5, 3.0)):
        v = hyp1f1(a, b, x)
        assert v.value() == pytest.approx(float(sp.hyp1f1(a, b, x)), rel=1e-10)


def test_hyp1f1_domain_and_poles():
    for x in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="domain restricted to finite x >= 0"):
            hyp1f1(0.5, 0.5, x)
    with pytest.raises(ValueError):
        hyp1f1(0.5, -2.0, 1.0)


def test_hyp1f1_nonconvergence_flag(monkeypatch):
    with pytest.raises(ConvergenceError, match="overflowed double precision"):
        _hyp1f1_series(0.5, 1.5, 5000.0)
    # a NaN term never meets the stopping rule, so the series runs on to
    # MAX_SERIES_TERMS
    with pytest.raises(ConvergenceError, match="did not converge"):
        hyp1f1(math.nan, 1.5, 1.0)
    with pytest.raises(ConvergenceError, match="did not converge"):
        _hyp1f1_series(0.5, 1.5, math.nan)
    # x = 30 converges under the default cap, and needs more than 74 terms
    assert hyp1f1(0.5, 1.5, 30.0).sign == 1
    monkeypatch.setattr(specfun, "MAX_SERIES_TERMS", 74)
    with pytest.raises(ConvergenceError, match="did not converge"):
        hyp1f1(0.5, 1.5, 30.0)
