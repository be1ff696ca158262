"""Exact construction, parsing and formatting, and the tracked kernel sources.

These need no compiled kernel; its operation-level tests are in
test_ratcore.py.  On the pure backend rat builds a reduced Fraction from a
pair of ints without Fraction's constructor: Fraction(num, den) is its oracle."""

import contextlib
import os
import re
import sys

from fractions import Fraction

import pytest

from hypothesis import example, given
from hypothesis import strategies as st

from monoinv import exactnum
from monoinv.errors import ParseError
from monoinv.exactnum import MAX_DIGITS, fmt_ratio, parse_ratio, parse_ratio_parts, rat

KERNEL_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "monoinv")


def test_parse_ratio_exact_decimals():
    assert parse_ratio("0.25") == rat(1, 4)
    assert parse_ratio("-2.5") == rat(-5, 2)
    assert parse_ratio("3/4") == rat(3, 4)
    assert parse_ratio(" -7 ") == rat(-7)
    assert parse_ratio("0.1") == rat(1, 10)  # exact, not float-rounded
    assert parse_ratio("1.") == rat(1)
    assert parse_ratio(".5") == rat(1, 2)
    for bad in ("", "x", "1/0", "1/-2", "1.2.3", "1e3"):
        with pytest.raises(ValueError):
            parse_ratio(bad)


def test_parse_ratio_parts_keeps_the_written_denominator():
    assert parse_ratio_parts("2/4") == (2, 4)
    assert parse_ratio_parts("-0.50") == (-50, 100)
    assert parse_ratio_parts(" +7 ") == (7, 1)
    assert parse_ratio_parts("1.") == (1, 1)
    for bad, message in (("", "empty number"), ("+", "not a number: '+'"),
                         (".", "not a number: '.'"), ("x", "not a number: 'x'"),
                         ("1.x", "not a decimal: '1.x'"), ("1/x", "not a number: '1/x'"),
                         ("1/2/3", "not a number: '1/2/3'"),
                         ("1/-2", "denominator must be positive in '1/-2'"),
                         # str.isdigit holds for '²', which int() does not read
                         ("²", "invalid literal for int() with base 10: '²'"),
                         ("1.²", "invalid literal for int() with base 10: '²'")):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_ratio_parts(bad)


def test_parse_ratio_parts_caps_the_digits():
    # a literal is read only up to Python's default int-to-str limit, however
    # the digits are split between numerator, denominator and fraction
    assert MAX_DIGITS == 4300
    assert parse_ratio_parts("9" * 4300) == (10**4300 - 1, 1)
    assert parse_ratio_parts(f" -{'1' * 2150}/{'3' * 2150} ") == (-int("1" * 2150), int("3" * 2150))
    assert parse_ratio_parts("0." + "5" * 4299) == (int("5" * 4299), 10**4299)
    for past in ("9" * 4301, "0." + "5" * 4300, "1" * 2151 + "/" + "3" * 2150):
        with pytest.raises(ValueError, match="^a number of more than 4300 digits$"):
            parse_ratio_parts(past)


def test_fmt_ratio_round_trip():
    for s in ("3/4", "-7", "0", "22/7"):
        assert fmt_ratio(parse_ratio(s)) == s


@contextlib.contextmanager
def int_digits(limit):
    """Python's int-to-str digit limit set to limit (0: none) for the block."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@contextlib.contextmanager
def pure_backend():
    """exactnum on the pure backend for the block, whichever backend was loaded."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum, "Q", Fraction)
        yield


def outcome(make, *args):
    """(type, repr) of make(*args), or (exception type, message) when it raises."""
    try:
        x = make(*args)
    except Exception as e:  # the oracle and rat must fail alike
        return type(e), str(e)
    with int_digits(0):
        return type(x), repr(x)


# 0, +-1, and ints of up to 4,400 digits, past Python's default int-to-str limit of 4,300
INTS = st.one_of(st.sampled_from([0, 1, -1]),
                 st.integers(0, 4400).flatmap(lambda d: st.integers(-10**d, 10**d)))


def test_fraction_keeps_its_two_slots():
    # rat fills these two slots itself: a Fraction of another layout must fail here
    assert Fraction.__slots__ == ("_numerator", "_denominator")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
@given(num=INTS, den=INTS.map(lambda n: abs(n) + 1))
@example(num=0, den=7)  # zero over a composite
@example(num=-6, den=4)  # a common factor and a sign
@example(num=3 * 10**4400, den=3)  # a long numerator that reduces
def test_rat_of_two_ints_is_fraction(num, den):
    with pure_backend():
        got = rat(num, den)
    want = Fraction(num, den)
    assert type(got) is Fraction
    assert got == want and hash(got) == hash(want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got.numerator) is int and type(got.denominator) is int
    assert not hasattr(got, "__dict__")
    with int_digits(0):
        assert repr(got) == repr(want)


@pytest.mark.parametrize("args", [
    pytest.param((3, -6), id="negative-den"),
    pytest.param((-3, -6), id="negative-num-and-den"),
    pytest.param((1, 0), id="zero-den"),
    pytest.param((0, 0), id="zero-over-zero"),
    pytest.param((True, 2), id="bool-num"),
    pytest.param((3, True), id="bool-den"),
    pytest.param((Fraction(1, 2), 3), id="fraction-num"),
    pytest.param((2, Fraction(4, 3)), id="fraction-den"),
    pytest.param((Fraction(-5, 15),), id="one-fraction"),
    pytest.param((1.5, 1), id="float"),
    pytest.param(("1/2", 1), id="str"),
])
def test_rat_falls_back_to_the_constructor(args):
    # what is not a pair of ints with a positive denominator goes to Q(num, den),
    # which makes the value, or raises its error, as it always did
    with pure_backend():
        assert outcome(rat, *args) == outcome(Fraction, *args)


def test_as_q_converts_through_rat():
    with pure_backend():
        for x, want in ((5, Fraction(5)), (True, Fraction(1)), (Fraction(-2, 6), Fraction(-1, 3))):
            got = exactnum.as_q(x)
            assert type(got) is Fraction and repr(got) == repr(want)


def _quoted_pyx_lines(c_text):
    """(line number, text) for every .pyx line that Cython quotes in its C
    output.  Each quote block is headed `"monoinv/_ratcore.pyx":N` and marks
    line N with a trailing `# <<<<<<<<<<<<<<`; the lines around it are
    consecutive source lines."""
    block = re.compile(r'/\* "monoinv/_ratcore\.pyx":(\d+)\n(.*?)\n\s*\*/', re.S)
    for m in block.finditer(c_text):
        n = int(m.group(1))
        lines = [line[3:] if line.startswith(" * ") else line[2:]
                 for line in m.group(2).split("\n")]
        marked = [i for i, line in enumerate(lines) if line.endswith("# <<<<<<<<<<<<<<")]
        assert len(marked) == 1, m.group(0)
        lines[marked[0]] = lines[marked[0]][:-len("# <<<<<<<<<<<<<<")]
        for i, line in enumerate(lines):
            yield n + i - marked[0], line.rstrip()


def test_tracked_c_kernel_matches_pyx():
    """The tracked _ratcore.c was generated from the tracked _ratcore.pyx:
    every source line it quotes is the .pyx line of that number.  A stale .c
    builds a kernel that differs from the source the tests read."""
    with open(os.path.join(KERNEL_DIR, "_ratcore.c"), encoding="utf-8") as fh:
        c_text = fh.read()
    with open(os.path.join(KERNEL_DIR, "_ratcore.pyx"), encoding="utf-8") as fh:
        pyx = [line.rstrip() for line in fh.read().split("\n")]
    quotes = list(_quoted_pyx_lines(c_text))
    assert len({n for n, _ in quotes}) > 100
    stale = [(n, text, pyx[n - 1] if n <= len(pyx) else None)
             for n, text in quotes if n > len(pyx) or pyx[n - 1] != text]
    assert not stale, stale[:5]
