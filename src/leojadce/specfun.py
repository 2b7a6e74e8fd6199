"""Special-function numerics of the q(mu) update: signed-log Gamma and the
confluent hypergeometric function 1F1.

The Gamma/1F1 values feeding the posterior inverse-mean moments span many
orders of magnitude (Gamma(-eps/2) ~ -2/eps for the near-flat hyperprior)
while the final ratios are O(1), so every Gamma and 1F1 evaluation here is
carried as a sign plus log-magnitude and combined with a signed logsumexp.

The q(mu) update sums the 1F1 series of all six of its (a, b) pairs as one
stacked array series over the devices still in the model (see
:func:`leojadce.vbi.inverse_mean_moments`); :func:`hyp1f1` is the scalar
reference that series must equal bit for bit, and the q(mu) update still
calls it, one element at a time, for x > KUMMER_SWITCH_X.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

MAX_SERIES_TERMS = 10000
SERIES_RTOL = 1e-16
# direct Pochhammer series below, Kummer-transformed series above
KUMMER_SWITCH_X = 30.0


class ConvergenceError(RuntimeError):
    """A series hit its term cap without meeting the stopping rule."""


class SignedLogValue(NamedTuple):
    """sign * exp(log_abs), with exact zero encoded as sign == 0.

    A named tuple: like any tuple it compares equal to the plain tuple
    (log_abs, sign)."""

    log_abs: float
    sign: int

    @classmethod
    def from_float(cls, x: float) -> "SignedLogValue":
        if x == 0.0:
            return cls(-math.inf, 0)
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    def value(self) -> float:
        """Collapse to a float (may overflow to inf for huge log_abs)."""
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_abs)

    def __mul__(self, other: "SignedLogValue") -> "SignedLogValue":
        if self.sign == 0 or other.sign == 0:
            return SignedLogValue(-math.inf, 0)
        return SignedLogValue(self.log_abs + other.log_abs, self.sign * other.sign)

    def __truediv__(self, other: "SignedLogValue") -> "SignedLogValue":
        if other.sign == 0:
            raise ZeroDivisionError("signed-log division by zero")
        if self.sign == 0:
            return SignedLogValue(-math.inf, 0)
        return SignedLogValue(self.log_abs - other.log_abs, self.sign * other.sign)

    def scaled(self, c: float) -> "SignedLogValue":
        """Multiply by an ordinary float."""
        return self * SignedLogValue.from_float(c)


def signed_log_sum(values: Iterable[SignedLogValue]) -> SignedLogValue:
    """Sum of signed-log values via max-shifted accumulation."""
    vals = [v for v in values if v.sign != 0]
    if not vals:
        return SignedLogValue(-math.inf, 0)
    m = max(v.log_abs for v in vals)
    acc = math.fsum(v.sign * math.exp(v.log_abs - m) for v in vals)
    if acc == 0.0:
        return SignedLogValue(-math.inf, 0)
    return SignedLogValue(m + math.log(abs(acc)), 1 if acc > 0 else -1)


def _sinpi(x: float) -> float:
    """sin(pi*x) reduced to |r| <= 1/2 so precision survives near integers."""
    n = round(x)
    r = x - n
    if r == 0.0:
        return 0.0
    s = math.sin(math.pi * r)
    # sin(pi*(n+r)) = (-1)^n sin(pi*r)
    if int(n) % 2:
        s = -s
    return s


def ln_gamma_signed(x: float) -> SignedLogValue:
    """Sign and log|Gamma(x)| for real non-pole x.

    Positive arguments go through lgamma directly; negative non-integer
    arguments use the reflection formula Gamma(x)Gamma(1-x) = pi/sin(pi*x),
    whose right-hand side only needs the positive-argument branch.
    """
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"Gamma pole at x={x}")
    if x > 0.0:
        return SignedLogValue(math.lgamma(x), 1)
    s = _sinpi(x)
    log_abs = math.log(math.pi) - math.log(abs(s)) - math.lgamma(1.0 - x)
    return SignedLogValue(log_abs, 1 if s > 0 else -1)


def _hyp1f1_series(a: float, b: float, x: float) -> SignedLogValue:
    """Direct Pochhammer series sum_v (a)_v/(b)_v x^v/v! in float.

    Each term is term * ((a + v) / (b + v) * x / (v + 1)), evaluated left
    to right. Finiteness is checked once, on exit: an overflowed term makes
    the total inf, and inf <= inf ends the loop there."""
    term = total = 1.0
    for v in range(MAX_SERIES_TERMS):
        term *= (a + v) / (b + v) * x / (v + 1)
        total += term
        if abs(term) <= SERIES_RTOL * abs(total):
            break
    else:
        raise ConvergenceError(f"1F1 series did not converge for a={a}, b={b}, x={x}")
    if not math.isfinite(total):
        raise ConvergenceError(
            f"1F1 series overflowed double precision for a={a}, b={b}, x={x}")
    if total == 0.0:
        return SignedLogValue(-math.inf, 0)
    return SignedLogValue(math.log(abs(total)), 1 if total > 0 else -1)


def _hyp1f1_kummer(a: float, b: float, x: float) -> SignedLogValue:
    """Hy(a,b,x) = e^x Hy(b-a,b,-x); the alternating series at -x cancels
    catastrophically, so it is summed with extended-precision floats.

    mpmath is imported here, its only use, so that runs which never reach
    x > KUMMER_SWITCH_X do not load it."""
    import mpmath

    # intermediate terms reach ~e^x before decaying: budget x/ln(10) digits
    dps = 30 + int(x / math.log(10.0)) + 10
    with mpmath.workdps(dps):
        ma, mb, mx = mpmath.mpf(b - a), mpmath.mpf(b), -mpmath.mpf(x)
        term = mpmath.mpf(1)
        total = mpmath.mpf(1)
        tol = mpmath.mpf(10) ** (-(dps - 5))
        for v in range(MAX_SERIES_TERMS):
            term *= (ma + v) / (mb + v) * mx / (v + 1)
            total += term
            if abs(term) <= tol * (abs(total) + 1):
                break
        else:
            raise ConvergenceError(
                f"Kummer-transformed 1F1 series did not converge for a={a}, b={b}, x={x}"
            )
        if total == 0:
            return SignedLogValue(-math.inf, 0)
        return SignedLogValue(x + float(mpmath.log(abs(total))), int(mpmath.sign(total)))


def hyp1f1(a: float, b: float, x: float) -> SignedLogValue:
    """Confluent hypergeometric Hy(a, b, x) for finite x >= 0, in signed-log
    form; a negative, NaN or infinite x is a ValueError.

    x <= KUMMER_SWITCH_X uses the Pochhammer power series with relative
    termination at 1e-16 (see :func:`_hyp1f1_series`); larger x switches
    to the Kummer transform. Raises :class:`ConvergenceError` if the term cap
    is hit.
    """
    if b <= 0.0 and b == math.floor(b):
        raise ValueError(f"1F1 pole at b={b}")
    if not 0.0 <= x < math.inf:
        raise ValueError("hyp1f1 domain restricted to finite x >= 0")
    if x == 0.0:
        return SignedLogValue(0.0, 1)
    if x <= KUMMER_SWITCH_X:
        return _hyp1f1_series(a, b, x)
    return _hyp1f1_kummer(a, b, x)
