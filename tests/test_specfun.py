"""Special functions against series/reflection oracles and scipy."""

import math

import numpy as np
import pytest
import scipy.special as sp

from leojadce.specfun import (ConvergenceError, SignedLogValue, _hyp1f1_kummer,
                              _hyp1f1_series, hyp1f1, ln_gamma_signed, signed_log_sum)


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
    zero = SignedLogValue.from_float(0.0)
    assert (a * zero).sign == 0
    with pytest.raises(ZeroDivisionError):
        a / zero


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


# ---------------------------------------------------------------- log-gamma

def test_gamma_at_one_and_half():
    v1 = ln_gamma_signed(1.0)
    assert v1.sign == 1 and v1.log_abs == pytest.approx(0.0, abs=1e-15)
    vh = ln_gamma_signed(0.5)
    assert vh.sign == 1
    assert vh.log_abs == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)


def test_gamma_reflection_oracle_negative_argument():
    # Gamma(x) Gamma(1-x) = pi / sin(pi x), with Gamma(1-x) on the positive branch
    x = -0.3
    got = ln_gamma_signed(x)
    rhs = math.pi / math.sin(math.pi * x)
    expected = rhs / math.gamma(1.0 - x)
    assert got.value() == pytest.approx(expected, rel=1e-13)
    assert got.sign == -1  # Gamma is negative on (-1, 0)


def test_gamma_recurrence_over_grid():
    # Gamma(x+1) = x Gamma(x) in log form to 1e-12 over [-5, 10] off poles
    for x in np.arange(-4.85, 10.0, 0.2):
        if abs(x - round(x)) < 1e-9 and x <= 0:
            continue
        lhs = ln_gamma_signed(x + 1.0)
        rhs = ln_gamma_signed(x) * SignedLogValue.from_float(x)
        assert lhs.sign == rhs.sign
        assert lhs.log_abs == pytest.approx(rhs.log_abs, abs=1e-12)


def test_gamma_pole_raises():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(ValueError):
            ln_gamma_signed(x)


def test_gamma_against_scipy():
    for x in (-4.3, -0.7, 0.1, 2.5, 30.0, -1e-6 / 2):
        v = ln_gamma_signed(x)
        assert v.sign == sp.gammasgn(x)
        assert v.log_abs == pytest.approx(float(sp.gammaln(x)), rel=1e-12)


# ---------------------------------------------------------------- 1F1

def test_hyp1f1_at_zero_is_one():
    for a, b in ((0.3, 0.7), (-0.5e-6, 0.5), (2.0, 3.0)):
        v = hyp1f1(a, b, 0.0)
        assert v.sign == 1 and v.log_abs == 0.0


def test_hyp1f1_exponential_identity():
    v = hyp1f1(1.0, 1.0, 2.5)
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
    with pytest.raises(ValueError):
        hyp1f1(0.5, 0.5, -1.0)
    with pytest.raises(ValueError):
        hyp1f1(0.5, -2.0, 1.0)


def test_hyp1f1_nonconvergence_flag():
    with pytest.raises(ConvergenceError):
        _hyp1f1_series(0.5, 1.5, 5000.0)
