"""Points of the extended real line and intervals with exact endpoints.

A point of the extended real line is a bare rational or one of the two
sentinels NEG_INF and POS_INF (defined in exactnum, beside the rational
type), which order below and above every rational.
Comparisons between finite points go straight to the rationals; a rational
meeting a sentinel defers to it, because both backends' number types
return NotImplemented for an operand they do not know.

Every interval the library takes or derives is open (Interval): regular
domains, carriers, pieces, mass intervals and preimage interiors.  The
two closed results, the hull of a support and an interval of admissible
modes, are ClosedInterval.
"""

from __future__ import annotations

from dataclasses import dataclass

from monoinv.errors import EmptyInterval
from monoinv.exactnum import NEG_INF, POS_INF, ZERO, Q, _Infinity, as_q


def is_finite(x) -> bool:
    """True for a rational, False for NEG_INF and POS_INF."""
    return x.__class__ is not _Infinity


def _end(x):
    """x as a point of the extended line: a sentinel as it is, anything
    else as exactnum.as_q converts it."""
    return x if x.__class__ is _Infinity else as_q(x)


@dataclass(frozen=True)
class Interval:
    """The open interval (lo, hi) of the extended real line.

    The ends convert as exactnum.as_q converts (ints and Fractions to the
    backend's rational; a float raises TypeError) or are NEG_INF / POS_INF.
    The empty interval is normalized to (0, 0), so equality on intervals is
    structural.
    """

    lo: object
    hi: object

    # A rational compared with a sentinel takes the number type's slow
    # NotImplemented path, so the methods below skip the comparisons whose
    # outcome an infinite end already decides.

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if lo.__class__ not in (Q, _Infinity) or hi.__class__ not in (Q, _Infinity):
            lo, hi = _end(lo), _end(hi)  # an int or a Fraction from a caller
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        if (lo is NEG_INF and hi is not NEG_INF) or (hi is POS_INF and lo is not POS_INF):
            return  # in order and nonempty
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        if lo == hi:
            object.__setattr__(self, "lo", ZERO)
            object.__setattr__(self, "hi", ZERO)

    @property
    def is_empty(self):
        return self.lo == ZERO and self.hi == ZERO

    def contains(self, x) -> bool:
        return is_finite(x) and (self.lo is NEG_INF or self.lo < x) and (
            self.hi is POS_INF or x < self.hi)

    def contains_interval(self, other: "Interval") -> bool:
        return other.is_empty or (
            (self.lo is NEG_INF or self.lo <= other.lo)
            and (self.hi is POS_INF or other.hi <= self.hi))

    def __repr__(self):
        return "Interval(empty)" if self.is_empty else f"Interval({self.lo}, {self.hi})"


@dataclass(frozen=True)
class ClosedInterval:
    """The closed hull [lo, hi] of a support or of a set of modes, lo <= hi;
    an infinite end leaves that side unbounded (and open)."""

    lo: object
    hi: object

    def __post_init__(self):
        object.__setattr__(self, "lo", _end(self.lo))
        object.__setattr__(self, "hi", _end(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self):
        return f"ClosedInterval[{self.lo}, {self.hi}]"


REAL_LINE = Interval(NEG_INF, POS_INF)
EMPTY = Interval(ZERO, ZERO)


def require_open(iv: Interval, what: str = "interval") -> None:
    if iv.__class__ is not Interval:
        raise ValueError(f"{what} must be open")


def require_open_nonempty(iv: Interval, what: str = "interval") -> None:
    require_open(iv, what)
    if iv.is_empty:
        raise EmptyInterval(f"{what} is empty")
