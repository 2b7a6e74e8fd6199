"""Signed-log values: a sign plus log-magnitude, and their signed logsumexp.

They carried the confluent hypergeometric 1F1 values of the q(mu) block that
VBI no longer has; 1F1 itself is deleted. No leojadce module imports this
one, and it stays, with its tests, until its own deletion (ROADMAP item 1).
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple


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
