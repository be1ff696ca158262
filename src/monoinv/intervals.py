"""Points of the extended real line and intervals with exact endpoints.

A point of the extended real line is a bare rational or one of the two
sentinels NEG_INF and POS_INF (defined in exactnum, beside the rational
type), which order below and above every rational.
Comparisons between finite points go straight to the rationals; a rational
meeting a sentinel defers to it, because both backends' number types
return NotImplemented for an operand they do not know.
"""

from __future__ import annotations

from dataclasses import dataclass

from monoinv.errors import EmptyInterval
from monoinv.exactnum import NEG_INF, POS_INF, ZERO, Q, _Infinity, as_q


def is_finite(x) -> bool:
    """True for a rational, False for NEG_INF and POS_INF."""
    return x.__class__ is not _Infinity


@dataclass(frozen=True)
class Interval:
    """An interval of the extended real line.

    The ends convert as exactnum.as_q converts (ints and Fractions to the
    backend's rational; a float raises TypeError).  Infinite endpoints are
    never closed.  The empty interval is normalized to the open (0, 0), so
    equality on intervals is structural.
    """

    lo: object
    hi: object
    lo_closed: bool = False
    hi_closed: bool = False

    # A rational compared with a sentinel takes the number type's slow
    # NotImplemented path, so the methods below skip the comparisons whose
    # outcome an infinite end already decides.

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if lo.__class__ not in (Q, _Infinity) or hi.__class__ not in (Q, _Infinity):
            lo, hi = as_q(lo), as_q(hi)  # an int or a Fraction from a caller
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        if self.lo_closed and not is_finite(lo):
            raise ValueError("infinite endpoint cannot be closed")
        if self.hi_closed and not is_finite(hi):
            raise ValueError("infinite endpoint cannot be closed")
        if (lo is NEG_INF and hi is not NEG_INF) or (hi is POS_INF and lo is not POS_INF):
            return  # in order and nonempty
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        if lo == hi and not (self.lo_closed and self.hi_closed):
            object.__setattr__(self, "lo", ZERO)
            object.__setattr__(self, "hi", ZERO)
            object.__setattr__(self, "lo_closed", False)
            object.__setattr__(self, "hi_closed", False)

    @property
    def is_empty(self):
        return not self.lo_closed and self.lo == ZERO and self.hi == ZERO

    def contains(self, x) -> bool:
        # infinite ends are never closed, so no interval holds an infinity
        if self.is_empty or not is_finite(x):
            return False
        lo, hi = self.lo, self.hi
        if lo is not NEG_INF and (x < lo or (x == lo and not self.lo_closed)):
            return False
        if hi is not POS_INF and (x > hi or (x == hi and not self.hi_closed)):
            return False
        return True

    def contains_interval(self, other: "Interval") -> bool:
        if other.is_empty:
            return True
        lo, hi = self.lo, self.hi
        if lo is not NEG_INF and (
                other.lo < lo or (other.lo == lo and other.lo_closed and not self.lo_closed)):
            return False
        if hi is not POS_INF and (
                other.hi > hi or (other.hi == hi and other.hi_closed and not self.hi_closed)):
            return False
        return True

    def closure(self) -> "Interval":
        return self if self.is_empty else closed_iv(self.lo, self.hi)

    def __repr__(self):
        if self.is_empty:
            return "Interval(empty)"
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"Interval{lb}{self.lo}, {self.hi}{rb}"


REAL_LINE = Interval(NEG_INF, POS_INF)
EMPTY = Interval(ZERO, ZERO)


def open_iv(lo, hi) -> Interval:
    return Interval(lo, hi)


def closed_iv(lo, hi) -> Interval:
    return Interval(lo, hi, is_finite(lo), is_finite(hi))


def require_open_nonempty(iv: Interval, what: str = "interval") -> None:
    if iv.is_empty:
        raise EmptyInterval(f"{what} is empty")
    if iv.lo_closed or iv.hi_closed:
        raise ValueError(f"{what} must be open")
