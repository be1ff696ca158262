"""The empirical distribution of a sample, from integer runs.

A sample file (--samples), less a byte order mark (read_text), becomes runs of tied values
(sample_runs): plain decimals in one bulk pass (_plain_runs), other lines through parse_lines,
which reports every error.  One integer pass (_knots) gives the knots and the density step: the
distribution function adds prefix-count limits (samples_to_function; classify, invert, qdensity),
the measure tied atoms and no cell merge (samples_to_measure; decompose).  samples_to_spec
(ingest) writes the runs as a spec.  Only builders make rationals, but for the rational sort's keys.
"""

from __future__ import annotations

import re

from bisect import bisect_right
from collections import Counter
from itertools import accumulate

from monoinv.errors import ParseError, SpecError
from monoinv.exactnum import MAX_DIGITS, ONE, ZERO, fmt_ratio, parse_ratio_parts, rat
from monoinv.intervals import REAL_LINE
from monoinv.measure import PiecewiseMeasure, StepFunction, _measure, step_of_slopes
from monoinv.monotone import PiecewiseMonotone, _trusted

_KEY_BITS = 64  # sample_runs keeps integer keys over a denominator of this many bits


def parse_lines(lines, start: int = 1) -> list:
    """The (numerator, denominator) parts of the nonblank lines from line start."""
    parts = []
    for lineno, line in enumerate(lines, start=start):
        s = line.strip()
        if not s:
            continue
        try:
            parts.append(parse_ratio_parts(s))
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e}") from e
    return parts


def _runs(keys, den) -> tuple:
    """(keys, counts, den): the distinct keys in increasing order and the count of each."""
    keys = sorted(counts := Counter(keys))
    return keys, list(map(counts.__getitem__, keys)), den


def sample_runs(parts) -> tuple:
    """The runs of tied values among the parts: (keys, counts, den), the distinct samples
    key / den in increasing order and the count of each.

    When every denominator divides the largest, D, the keys are the integers num * (D // den)
    over D.  Otherwise, and when D is far longer than the denominators are on average (every
    key would be that long; a D of _KEY_BITS bits never is, as _plain_runs relies on), they
    are the rationals over 1.  No lcm is formed: over coprime denominators it grows with each line.
    """
    if not parts:
        raise SpecError("no samples")
    big = max(den for _, den in parts)
    short = big.bit_length() * len(parts) <= sum(
        2 * den.bit_length() + _KEY_BITS for _, den in parts)
    if short and all(big % den == 0 for _, den in parts):
        return _runs([num * (big // d) for num, d in parts], big)
    return _runs([rat(num, d) for num, d in parts], 1)


def _plain_runs(text):
    """sample_runs(parse_lines(text.splitlines())) in one pass, for blank lines and plain ASCII
    decimals of at most MAX_DIGITS characters over a 10^d of at most _KEY_BITS bits; else None."""
    # linear without atomic groups: each repetition ends at a line break or the end of the text
    if not re.fullmatch(r"[\r\n]*(?:[+-]?[0-9]+(?:\.[0-9]+)?(?:[\r\n]+|\Z))*", text):
        return None
    lines = text.split()  # the text holds no whitespace but line breaks
    fracs = [len(line.partition(".")[2]) for line in lines]
    if not lines or max(map(len, lines)) > MAX_DIGITS or 10 ** max(fracs) >= 1 << _KEY_BITS:
        return None
    d, keys = max(fracs), list(map(int, text.replace(".", "").split()))
    if min(fracs) < d:  # each line's digits, scaled to the longest fraction
        keys = [k * 10 ** (d - f) for k, f in zip(keys, fracs)]
    return _runs(keys, 10 ** d)


def read_text(path) -> str:
    """The text of an input file, less a leading byte order mark; a ParseError if unreadable."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def read_samples(path, header: bool) -> tuple:
    """The runs of a sample file; header skips its first line."""
    text = read_text(path)
    first, _, body = text.partition("\n") if header else ("", "", text)
    if len(first.splitlines()) < 2 and (runs := _plain_runs(body)):
        return runs
    lines = text.splitlines()
    return sample_runs(parse_lines(lines[1:] if header else lines, 2 if header else 1))


def _degenerate(runs, allow_degenerate: bool) -> bool:
    """True when the samples take a single value; an error unless allowed."""
    if len(runs[0]) < 2 and not allow_degenerate:
        raise SpecError(
            "fewer than 2 distinct samples; pass --allow-degenerate for a pure atom")
    return len(runs[0]) < 2


def _knots(runs) -> tuple:
    """(n1, keep, xs, slopes, step) for two or more distinct values: n - 1, the indices of the
    knots (the values tied or between two gaps that differ), the knots, the density den / ((n-1) g)
    of the gap g / den (g an integer, or a rational on the rational sort) right of each knot but
    the last, between 0s, and the density step, knotted where the gaps differ."""
    keys, counts, den = runs
    n1 = sum(counts) - 1
    gaps = [b - a for a, b in zip(keys, keys[1:])]
    bend = [True, *(a != b for a, b in zip(gaps, gaps[1:])), True]  # gaps differ either side
    keep = [k for k, b in enumerate(bend) if b or counts[k] > 1]
    xs = tuple(rat(keys[k], den) for k in keep)
    slopes = (ZERO, *(rat(den * gaps[k].denominator, n1 * gaps[k].numerator)
                      for k in keep[:-1]), ZERO)
    return n1, keep, xs, slopes, _trusted(
        StepFunction, carrier=REAL_LINE, knots=tuple(x for x, k in zip(xs, keep) if bend[k]),
        values=(ZERO, *(s for s, k in zip(slopes[1:], keep) if bend[k])))


def samples_to_measure(runs) -> PiecewiseMeasure:
    """The linear-interpolation empirical measure of the runs: each gap
    between adjacent distinct samples carries mass 1/(n-1), k tied samples
    an atom of mass (k-1)/(n-1), and a single value is a unit atom."""
    keys, counts, den = runs
    if len(keys) < 2:
        return PiecewiseMeasure(REAL_LINE, ((rat(keys[0], den), ONE),), ())
    n1, keep, xs, _, step = _knots(runs)
    tied = [(x, rat(counts[k] - 1, n1)) for x, k in zip(xs, keep) if counts[k] > 1]
    return _measure(REAL_LINE, tuple(x for x, _ in tied), tuple(m for _, m in tied), step)


def samples_to_function(runs, anchor) -> PiecewiseMonotone:
    """The distribution function of samples_to_measure(runs), anchored to 0 at the rational
    anchor, for runs of two or more distinct values: with S samples below a value v of c samples,
    F(v-) = S/(n-1) and F(v+) = (S + c - 1)/(n-1), less F(anchor), one rational from integers
    each.  Its knots, slopes and stored step_of_slopes come from _knots, so it is canonical."""
    keys, counts, den = runs
    n1, keep, xs, slopes, step = _knots(runs)
    below = [0, *accumulate(counts)]  # below[k] samples lie below keys[k]
    # F(anchor) = p/q unshifted: the right limit at the last value at or
    # below the anchor, plus the rise along the gap it lies in
    at = anchor * den  # the anchor on the scale of the keys
    i = bisect_right(keys, at)
    shift = rat(below[i] - 1, n1) if i else ZERO
    if 0 < i < len(keys) and keys[i - 1] != at:
        shift += (at - keys[i - 1]) / (n1 * (keys[i] - keys[i - 1]))
    q = shift.denominator
    pn, d = shift.numerator * n1, n1 * q  # a limit S/(n-1) - p/q is (S q - p (n-1)) / d
    lefts = [rat(below[k] * q - pn, d) for k in keep]
    # an untied value is no jump: its two limits are one rational
    rights = [left if counts[k] == 1 else rat((below[k + 1] - 1) * q - pn, d)
              for k, left in zip(keep, lefts)]
    return _trusted(PiecewiseMonotone, domain=REAL_LINE, slopes=slopes, anchor=None, xs=xs,
                    lefts=tuple(lefts), rights=tuple(rights), **{step_of_slopes.key: step})


def samples_to_spec(runs) -> dict:
    """samples_to_measure as a spec document, one piece of mass 1/(n-1)
    per gap."""
    keys, counts, den = runs
    text = [fmt_ratio(rat(k, den)) for k in keys]
    carrier = {"lo": "-inf", "hi": "inf"}
    if len(text) < 2:
        return {"carrier": carrier, "atoms": [{"x": text[0], "mass": "1"}], "uniform_pieces": []}
    n1 = sum(counts) - 1
    unit = fmt_ratio(rat(1, n1))
    atoms = [{"x": t, "mass": fmt_ratio(rat(c - 1, n1))}
             for t, c in zip(text, counts) if c > 1]
    pieces = [{"a": a, "b": b, "mass": unit} for a, b in zip(text, text[1:])]
    return {"carrier": carrier, "atoms": atoms, "uniform_pieces": pieces}
