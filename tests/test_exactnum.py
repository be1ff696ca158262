"""Exact parsing and formatting, and the tracked kernel sources.

These need no compiled kernel; its operation-level tests are in
test_ratcore.py."""

import os
import re

import pytest

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
