"""Exact-rational backend selection and parsing helpers.

All core arithmetic runs on one of two interchangeable number types:

* ``compiled`` -- the Cython kernel in ``_ratcore`` (built optionally),
* ``pure``     -- the standard library's ``fractions.Fraction``.

The backend is chosen once at import time.  Set ``MONOINV_BACKEND`` to
``compiled`` or ``pure`` to force one; ``auto`` (the default) prefers the
compiled kernel when present.  Results are bit-identical either way; only
speed differs (perfbench/run.py times both).  On the pure backend, rat builds
the reduced Fraction of a pair of ints directly, without Fraction's generic
constructor; its results are Fraction(num, den)'s, which is its test's oracle.

The infinities NEG_INF and POS_INF live here too, beside the rational type.
as_q refuses them: only an interval's end may be infinite.
"""

import os
import sys

from fractions import Fraction
from math import gcd

from monoinv.errors import ParseError

_requested = os.environ.get("MONOINV_BACKEND", "auto").strip().lower()
if _requested not in ("auto", "compiled", "pure"):
    raise RuntimeError(f"MONOINV_BACKEND must be auto, compiled or pure, got {_requested!r}")

if _requested in ("auto", "compiled"):
    try:
        from monoinv._ratcore import Rat as Q

        BACKEND = "compiled"
    except ImportError:
        if _requested == "compiled":
            raise RuntimeError("MONOINV_BACKEND=compiled but the _ratcore extension is not built")
        Q = Fraction
        BACKEND = "pure"
else:
    Q = Fraction
    BACKEND = "pure"


class _Infinity:
    """-inf (sign -1) or +inf (sign 1).  Immutable; equal only to itself.

    Ordering against anything that is not a sentinel treats it as finite.
    A sentinel takes part in no arithmetic: a sum, difference or negation
    with one raises TypeError, so a caller tests an end with
    intervals.is_finite before it measures a length.
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

    def __repr__(self):
        return "inf" if self._sign > 0 else "-inf"


NEG_INF = _Infinity(-1)
POS_INF = _Infinity(1)


_new = object.__new__


def rat(num, den=1):
    """Exact rational from integers (or another rational).

    On the pure backend a pair of ints with den > 0 becomes the reduced
    Fraction directly, as Fraction._from_coprime_ints does in CPython 3.12,
    without Fraction's generic constructor; any other argument goes to
    Q(num, den), which raises as it always did."""
    if Q is Fraction and num.__class__ is int and den.__class__ is int and den > 0:
        g = gcd(num, den)
        x = _new(Fraction)
        x._numerator = num // g
        x._denominator = den // g
        return x
    return Q(num, den)


def as_q(x):
    """x as an exact finite rational: an int or a Fraction becomes the
    backend's rational, which passes unchanged; anything else (NEG_INF,
    POS_INF, a float, a Decimal, a str) raises TypeError."""
    if x.__class__ is Q:
        return x
    if isinstance(x, (int, Fraction)):
        return rat(x.numerator, x.denominator)
    raise TypeError(f"not an exact rational: {x!r}; give an int or a Fraction")


ZERO = rat(0)
ONE = rat(1)
MAX_DIGITS = 4300  # Python's default int-to-str limit
MAX_SHOWN = 100


def shown(value) -> str:
    """repr(value) for an error message: its first MAX_SHOWN characters and
    '...' when it is longer, so that echoing an input keeps the message short."""
    text = repr(value)
    return text if len(text) <= MAX_SHOWN else text[:MAX_SHOWN] + "..."


def parse_ratio_parts(text):
    """Parse 'p/q', an integer string, or a plain decimal string into an
    integer (numerator, denominator) pair, not reduced, denominator > 0.

    A text that is no such number raises errors.ParseError, a ValueError.
    Decimals convert without rounding: d fractional digits become a
    denominator of 10**d.  Reading d digits takes time quadratic in d, so a
    literal of more than MAX_DIGITS digits is refused before it is read.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty number")
    if len(s) > MAX_DIGITS and sum(map(str.isdigit, s)) > MAX_DIGITS:
        raise ParseError(f"a number of more than {MAX_DIGITS} digits")
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        try:
            num, den = int(num_s), int(den_s)
        except ValueError:
            raise ParseError(f"not a number: {shown(text)}") from None
        if den <= 0:
            raise ParseError(f"denominator must be positive in {shown(text)}")
        return num, den
    neg = s.startswith("-")
    if s[0] in "+-":
        s = s[1:]
    int_part, dot, frac_part = s.partition(".")
    if not (int_part or frac_part):
        raise ParseError(f"not a number: {shown(text)}")
    if not (int_part + frac_part).isdigit():
        raise ParseError(f"not a {'decimal' if dot else 'number'}: {shown(text)}")
    scale = 10 ** len(frac_part)
    try:  # str.isdigit holds for some digits that int does not read, such as '²'
        value = int(int_part or "0") * scale + int(frac_part) if frac_part else int(int_part)
    except ValueError as e:
        raise ParseError(str(e)) from None
    return (-value if neg else value), scale


def parse_ratio(text):
    """parse_ratio_parts(text) as an exact rational."""
    return rat(*parse_ratio_parts(text))


def fmt_ratio(x):
    """Canonical string form: 'p/q' in lowest terms, or 'p' for integers,
    which is how both backends' rationals print themselves."""
    return str(x)
