"""Exact-rational backend selection and parsing helpers.

All core arithmetic runs on one of two interchangeable number types:

* ``compiled`` -- the Cython kernel in ``_ratcore`` (built optionally),
* ``pure``     -- the standard library's ``fractions.Fraction``.

The backend is chosen once at import time.  Set ``MONOINV_BACKEND`` to
``compiled`` or ``pure`` to force one; ``auto`` (the default) prefers the
compiled kernel when present.  Results are bit-identical either way; only
speed differs (perfbench/run.py times both).
"""

import os

from fractions import Fraction

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


def rat(num, den=1):
    """Exact rational from integers (or another rational)."""
    return Q(num, den)


def as_q(x):
    """x as a rational when it is an int; any other value unchanged."""
    return Q(x) if isinstance(x, int) else x


ZERO = rat(0)
ONE = rat(1)


def parse_ratio_parts(text):
    """Parse 'p/q', an integer string, or a plain decimal string into an
    integer (numerator, denominator) pair, not reduced, denominator > 0.

    Decimals convert without rounding: d fractional digits become a
    denominator of 10**d.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty number")
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        num = int(num_s.strip())
        den = int(den_s.strip())
        if den <= 0:
            raise ValueError(f"denominator must be positive in {text!r}")
        return num, den
    neg = s.startswith("-")
    if s[0] in "+-":
        s = s[1:]
    if not s:
        raise ValueError(f"not a number: {text!r}")
    if "." in s:
        int_part, frac_part = s.split(".", 1)
        if not (int_part or frac_part):
            raise ValueError(f"not a number: {text!r}")
        if (int_part and not int_part.isdigit()) or (frac_part and not frac_part.isdigit()):
            raise ValueError(f"not a decimal: {text!r}")
        scale = 10 ** len(frac_part)
        value = int(int_part or "0") * scale + int(frac_part or "0")
        return (-value if neg else value), scale
    if not s.isdigit():
        raise ValueError(f"not a number: {text!r}")
    value = int(s)
    return (-value if neg else value), 1


def parse_ratio(text):
    """parse_ratio_parts(text) as an exact rational."""
    return rat(*parse_ratio_parts(text))


def fmt_ratio(x):
    """Canonical string form: 'p/q' in lowest terms, or 'p' for integers."""
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else f"{n}/{d}"
