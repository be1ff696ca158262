"""Exact construction, parsing and formatting, and the package's sources.

These need no compiled kernel; its operation-level tests are in
test_ratcore.py.  On the pure backend rat builds a reduced Fraction from a
pair of ints without Fraction's constructor: Fraction(num, den) is its oracle.
So it is for rats, which builds a column of them in one loop; 1 / x is
reciprocal's oracle and fmt_ratio that of fmt_ratios.  Where Fraction has
other slots than the two these write and read, all four take the generic
routes, which must give the same results.  Every module must parse as the
oldest Python that pyproject.toml declares."""

import ast
import contextlib
import glob
import os
import re
import sys

from fractions import Fraction

import pytest

from hypothesis import example, given
from hypothesis import strategies as st

from monoinv import exactnum
from monoinv.errors import ParseError
from monoinv.exactnum import (
    MAX_DIGITS,
    fmt_ratio,
    fmt_ratios,
    parse_ratio,
    parse_ratio_parts,
    rat,
    rats,
    reciprocal,
)

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


def same_rationals(got, want) -> bool:
    """Are got and want equal sequences of rationals, alike in type, value,
    hash and repr?"""
    with int_digits(0):
        return (len(got) == len(want)
                and all(type(a) is type(b) and a == b and hash(a) == hash(b)
                        and repr(a) == repr(b) for a, b in zip(got, want)))


POSITIVE = INTS.map(lambda n: abs(n) + 1)
# a column of Fractions, drawn as the ints and (num, den) pairs of INTS that
# column_of makes them of: Hypothesis cannot print a Fraction past the limit
COLUMNS = st.lists(st.one_of(INTS, st.tuples(INTS, POSITIVE)), max_size=8)
NEAR_LIMIT = [10**4300 + 1, -(10**4299), (10**4400 + 1, 3), (-1, 10**4400)]


def column_of(entries) -> list:
    return [Fraction(*e) if isinstance(e, tuple) else Fraction(e) for e in entries]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
@given(nums=st.lists(INTS, max_size=8), den=POSITIVE)
@example(nums=[0, -6, 6, 3 * 10**4400], den=3)
@example(nums=[], den=1)
def test_rats_is_fraction_per_numerator(nums, den):
    with pure_backend():
        got = rats(nums, den)
        keys = rats([Fraction(n, den) for n in nums], 1)  # the rational sort's keys
    assert type(got) is tuple
    assert same_rationals(got, tuple(Fraction(n, den) for n in nums))
    assert same_rationals(keys, got)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
@given(num=POSITIVE, den=POSITIVE)
@example(num=1, den=1)
@example(num=10**4400 + 1, den=7)
def test_reciprocal_is_one_over(num, den):
    x = Fraction(num, den)
    with pure_backend():
        assert same_rationals([reciprocal(x)], [1 / x])


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
@given(entries=COLUMNS)
@example(entries=[0, (0, 1), 1, -1, (-3, 4)])
@example(entries=[(1, 2), *NEAR_LIMIT])
def test_fmt_ratios_is_fmt_ratio_per_entry(entries):
    # past 4,300 digits the texts are made only with the limit lifted, and
    # otherwise the column is refused with fmt_ratio's ValueError
    column = column_of(entries)
    with pure_backend():
        for limit in (0, 4300):
            with int_digits(limit):
                assert (outcome(lambda: list(fmt_ratios(column)))
                        == outcome(lambda: [fmt_ratio(x) for x in column]))


def test_without_fractions_two_slots_the_generic_routes_give_the_same_results():
    # _SLOTTED is decided once at import; where Fraction has other slots,
    # nothing builds a Fraction bare or reads its slots
    assert exactnum._SLOTTED is Fraction
    column = [Fraction(-6, 4), Fraction(0), Fraction(5), Fraction(10**4400 + 1, 3)]

    def results():
        return {"rat": [rat(-6, 4), rat(7)], "rats": rats([0, -6, 7, 3 * 10**4400], 12),
                "keys": rats(column, 1), "reciprocal": [reciprocal(Fraction(6, 35))],
                "parse_ratio": [parse_ratio("-0.50")], "as_q": [exactnum.as_q(3)]}

    with pure_backend(), int_digits(0):
        want_texts = [str(x) for x in column]
        fast, fast_texts = results(), list(fmt_ratios(column))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactnum, "_SLOTTED", None)
            mp.setattr(exactnum, "_new", None)
            mp.setattr(exactnum, "_fraction_texts", None)
            generic, generic_texts = results(), list(fmt_ratios(column))
    assert generic_texts == fast_texts == want_texts
    for name, values in fast.items():
        assert same_rationals(generic[name], values), name


def test_every_module_parses_as_python_3_10():
    # pyproject.toml declares Python >= 3.10; syntax of a later Python fails here
    sources = glob.glob(os.path.join(KERNEL_DIR, "*.py"))
    assert len(sources) >= 10
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))


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
