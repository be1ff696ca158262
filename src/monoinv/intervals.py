"""Points of the extended real line and intervals with exact endpoints.

A point of the extended real line is a bare rational or one of the two
sentinels NEG_INF and POS_INF, which order below and above every rational.
Comparisons between finite points go straight to the rationals; a rational
meeting a sentinel defers to it, because both backends' number types
return NotImplemented for an operand they do not know.
"""

from __future__ import annotations

import sys

from dataclasses import dataclass

from monoinv.errors import EmptyInterval
from monoinv.exactnum import ZERO, as_q


class _Infinity:
    """-inf (sign -1) or +inf (sign 1).  Immutable; equal only to itself.

    Ordering against anything that is not a sentinel treats it as finite.
    Adding or subtracting a finite value leaves the sentinel unchanged;
    inf - inf is undefined and raises ValueError.
    """

    __slots__ = ("_sign",)

    def __init__(self, sign):
        object.__setattr__(self, "_sign", sign)

    def __setattr__(self, name, v):
        raise AttributeError("infinities are immutable")

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return self._sign * sys.hash_info.inf

    def __lt__(self, other):
        return self._sign < (other._sign if other.__class__ is _Infinity else 0)

    def __le__(self, other):
        return self._sign <= (other._sign if other.__class__ is _Infinity else 0)

    def __gt__(self, other):
        return self._sign > (other._sign if other.__class__ is _Infinity else 0)

    def __ge__(self, other):
        return self._sign >= (other._sign if other.__class__ is _Infinity else 0)

    def __neg__(self):
        return POS_INF if self is NEG_INF else NEG_INF

    def __add__(self, other):
        if other.__class__ is _Infinity and other is not self:
            raise ValueError("inf - inf is undefined")
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ValueError("inf - inf is undefined")
        return self

    def __rsub__(self, other):
        return -self

    def __repr__(self):
        return "inf" if self._sign > 0 else "-inf"


NEG_INF = _Infinity(-1)
POS_INF = _Infinity(1)


def is_finite(x) -> bool:
    """True for a rational, False for NEG_INF and POS_INF."""
    return x.__class__ is not _Infinity


@dataclass(frozen=True)
class Interval:
    """An interval of the extended real line.

    Infinite endpoints are never closed.  The empty interval is normalized
    to the open (0, 0), so equality on intervals is structural.
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
        if self.is_empty:
            return self
        return Interval(self.lo, self.hi, is_finite(self.lo), is_finite(self.hi))

    def __repr__(self):
        if self.is_empty:
            return "Interval(empty)"
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"Interval{lb}{self.lo}, {self.hi}{rb}"


REAL_LINE = Interval(NEG_INF, POS_INF)
EMPTY = Interval(ZERO, ZERO)


def open_iv(lo, hi) -> Interval:
    return Interval(as_q(lo), as_q(hi))


def closed_iv(lo, hi) -> Interval:
    lo, hi = as_q(lo), as_q(hi)
    return Interval(lo, hi, is_finite(lo), is_finite(hi))


def require_open_nonempty(iv: Interval, what: str = "interval") -> Interval:
    if iv.is_empty:
        raise EmptyInterval(f"{what} is empty")
    if iv.lo_closed or iv.hi_closed:
        raise ValueError(f"{what} must be open")
    return iv
