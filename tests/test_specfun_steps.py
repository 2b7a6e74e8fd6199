"""The 1F1 series, scalar and over arrays: the scalar series equals the
plain per-term Pochhammer series bit for bit and raises where that series
raises, and q(mu)'s stacked array series equals the scalar hyp1f1 bit for
bit at every entry of every pair; SignedLogValue keeps its API."""

import math

import numpy as np
import pytest

from leojadce import specfun, vbi
from leojadce.specfun import (MAX_SERIES_TERMS, SERIES_RTOL, ConvergenceError,
                              SignedLogValue, _hyp1f1_series, hyp1f1)


def plain_series(a, b, x):
    """The per-term formula the series must reproduce: (total, terms)."""
    term = total = 1.0
    for v in range(MAX_SERIES_TERMS):
        term *= (a + v) / (b + v) * x / (v + 1)
        total += term
        if abs(term) <= SERIES_RTOL * abs(total):
            return total, v + 1
    raise AssertionError(f"oracle did not converge at a={a}, b={b}, x={x}")


def qmu_pairs(eps):
    """The six (a, b) pairs of the q(mu) moments."""
    return [(-eps / 2.0, 0.5), ((1.0 - eps) / 2.0, 0.5), ((1.0 - eps) / 2.0, 1.5),
            (1.0 - eps / 2.0, 0.5), (1.0 - eps / 2.0, 1.5), ((3.0 - eps) / 2.0, 1.5)]


PAIRS = [pair for eps in (1e-6, 1e-3, 1e-2)
         for pair in qmu_pairs(eps) + [(0.3, 0.7), (-0.25, 0.5)]]


def grid_x(seed):
    """x = 0, log-spaced 1e-12..30 and uniform 0..30 (the series range)."""
    rng = np.random.default_rng(seed)
    return [0.0, *np.geomspace(1e-12, 30.0, 60).tolist(),
            *rng.uniform(0.0, 30.0, 40).tolist()]


@pytest.mark.parametrize("a, b", PAIRS)
def test_hyp1f1_equals_per_term_series_bit_for_bit(a, b):
    past_64 = 0
    for x in grid_x(seed=len(PAIRS)):
        got = hyp1f1(a, b, x)
        assert type(got) is SignedLogValue and type(got.sign) is int
        if x == 0.0:
            assert (got.log_abs, got.sign) == (0.0, 1)
            continue
        total, terms = plain_series(a, b, x)
        past_64 += terms > 64
        assert got.log_abs == math.log(abs(total)), (a, b, x)
        assert got.sign == (1 if total > 0 else -1), (a, b, x)
        assert _hyp1f1_series(a, b, x) == got
    assert past_64 > 0   # the grid reaches series longer than 64 terms


def test_series_overflow_still_raises():
    with pytest.raises(ConvergenceError, match="overflowed double precision"):
        _hyp1f1_series(0.5, 1.5, 5000.0)


def test_series_term_cap_still_raises(monkeypatch):
    # a NaN term never meets the stopping rule, so the series runs on to
    # MAX_SERIES_TERMS
    with pytest.raises(ConvergenceError, match="did not converge"):
        hyp1f1(math.nan, 1.5, 1.0)
    with pytest.raises(ConvergenceError, match="did not converge"):
        _hyp1f1_series(0.5, 1.5, math.nan)
    # x = 30 needs more terms than a cap of 74
    assert plain_series(0.5, 1.5, 30.0)[1] > 74
    monkeypatch.setattr(specfun, "MAX_SERIES_TERMS", 74)
    with pytest.raises(ConvergenceError, match="did not converge"):
        hyp1f1(0.5, 1.5, 30.0)


def test_signed_log_value_api():
    v = SignedLogValue.from_float(-2.0)
    assert (v.log_abs, v.sign) == (math.log(2.0), -1)
    assert v.value() == pytest.approx(-2.0, rel=1e-15)
    w = SignedLogValue.from_float(0.5)
    assert (v * w).value() == pytest.approx(-1.0, rel=1e-15)
    assert (v / w).value() == pytest.approx(-4.0, rel=1e-15)
    assert v.scaled(-3.0).value() == pytest.approx(6.0, rel=1e-15)
    zero = SignedLogValue.from_float(0.0)
    assert (zero.log_abs, zero.sign, zero.value()) == (-math.inf, 0, 0.0)
    assert (v * zero).sign == 0 and (zero / v).sign == 0
    with pytest.raises(ZeroDivisionError):
        v / zero
    with pytest.raises(AttributeError):
        v.sign = 1
    # a named tuple: it unpacks, and equals the plain tuple of its fields
    log_abs, sign = v
    assert (log_abs, sign) == v == (math.log(2.0), -1)
    assert SignedLogValue(0.0, 1) == hyp1f1(0.5, 1.5, 0.0)


def test_hyp1f1_rejects_non_finite_x():
    # NaN and inf x are outside the domain, as a negative x is; before, they
    # reached the Kummer branch and raised from int(x / log 10)
    for x in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="domain restricted to finite x >= 0"):
            hyp1f1(0.5, 1.5, x)


@pytest.mark.parametrize("a, b", [pair for eps in (1e-6, 1e-3, 1e-2)
                                  for pair in qmu_pairs(eps)])
def test_hyp1f1_signed_log_arrays_match_scalar_calls(a, b):
    # one array holds x = 0, entries that stop at different term counts,
    # entries past 64 terms, x = 30 (the last series entry) and Kummer
    # entries above it
    x = [*grid_x(seed=1), 30.0, 30.5]
    log_abs, sign = vbi._hyp1f1_stacked([(a, b)], x)
    ref = [hyp1f1(a, b, xi) for xi in x]
    assert log_abs.dtype == sign.dtype == np.float64
    np.testing.assert_array_equal(log_abs, [r.log_abs for r in ref])
    np.testing.assert_array_equal(sign, [r.sign for r in ref])
    terms = {plain_series(a, b, xi)[1] for xi in x if 0.0 < xi <= 30.0}
    assert len(terms) > 10 and max(terms) > 64
    empty = vbi._hyp1f1_stacked([(a, b)], [])
    assert empty[0].shape == empty[1].shape == (0,)


@pytest.mark.parametrize("eps", [1e-6, 1e-3, 1e-2])
def test_hyp1f1_stacked_pairs_match_scalar_calls(eps):
    # the six q(mu) pairs in one series, pair after pair, then the signed
    # logs of the extra values; every entry stops at its own term
    pairs = qmu_pairs(eps)
    x = [*grid_x(seed=2), 30.0, 30.5]
    extra = [2.5, -1e-300, 0.0, -0.0, 1.0 + 1e-12]
    log_abs, sign = vbi._hyp1f1_stacked(pairs, x, extra)
    ref = [hyp1f1(a, b, xi) for a, b in pairs for xi in x]
    ref += [SignedLogValue.from_float(c) for c in extra]
    np.testing.assert_array_equal(log_abs, [r.log_abs for r in ref])
    np.testing.assert_array_equal(sign, [r.sign for r in ref])
    empty = vbi._hyp1f1_stacked(pairs, [], extra)
    np.testing.assert_array_equal(empty[0], log_abs[-len(extra):])


def test_hyp1f1_signed_log_arrays_raise_as_the_scalar_series(monkeypatch):
    # an overflowed sum and a NaN parameter raise as the scalar series
    # does, next to entries and pairs that converge
    with pytest.raises(ConvergenceError, match="overflowed double precision"):
        _hyp1f1_series(1e4, 0.5, 30.0)
    with pytest.raises(ConvergenceError, match="overflowed double precision"):
        vbi._hyp1f1_stacked([(1e4, 0.5)], [1e-3, 30.0])
    with pytest.raises(ConvergenceError, match="overflowed double precision"):
        vbi._hyp1f1_stacked([(0.5, 1.5), (1e4, 0.5)], [1e-3, 30.0])
    with pytest.raises(ConvergenceError, match="did not converge"):
        vbi._hyp1f1_stacked([(math.nan, 1.5)], [0.5, 1.0])
    with pytest.raises(ConvergenceError, match="did not converge"):
        vbi._hyp1f1_stacked([(0.5, 1.5), (math.nan, 1.5)], [0.5, 1.0])
    # an entry that reaches the scalar call with a NaN or infinite x gets
    # its domain error
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="domain restricted to finite x >= 0"):
            vbi._hyp1f1_stacked([(0.5, 1.5)], [1.0, bad])
    # the term cap: x = 30 needs more than 74 terms, x = 1 fewer
    monkeypatch.setattr(vbi, "MAX_SERIES_TERMS", 74)
    vbi._hyp1f1_stacked([(0.5, 1.5)], [1.0])
    with pytest.raises(ConvergenceError, match="did not converge"):
        vbi._hyp1f1_stacked([(0.5, 1.5)], [1.0, 30.0])
