"""The empirical distribution of a sample, from integer runs.

A sample file (--samples) is parsed once, line by line, to integer
numerators and denominators (parse_lines), sorted into runs of tied values
(sample_runs; read_samples does both), and built straight into the
empirical distribution function from prefix counts (samples_to_function;
classify, invert, qdensity), into the empirical measure (samples_to_measure;
decompose) or into its spec (samples_to_spec; ingest).  Only the builders
make rationals, but for the keys of the rational sort (sample_runs).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, groupby

from monoinv.errors import ParseError, SpecError
from monoinv.exactnum import ONE, ZERO, fmt_ratio, parse_ratio_parts, rat
from monoinv.intervals import REAL_LINE
from monoinv.measure import PiecewiseMeasure, _canonical_step, _measure
from monoinv.monotone import PiecewiseMonotone, _trusted


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


def sample_runs(parts) -> tuple:
    """The runs of tied values among the parts: (keys, counts, den), the
    distinct samples key / den in increasing order and the count of each.

    When every denominator divides the largest, D, the keys are the
    integers num * (D // den) over D.  Otherwise, and when D is far longer
    than the denominators are on average (every key would be that long),
    they are the rationals over 1.  No lcm is formed: over coprime
    denominators it grows with every line.
    """
    if not parts:
        raise SpecError("no samples")
    big = max(den for _, den in parts)
    short = big.bit_length() * len(parts) <= sum(
        2 * den.bit_length() + 64 for _, den in parts)
    if short and all(big % den == 0 for _, den in parts):
        keys, den = [num * (big // d) for num, d in parts], big
    else:
        keys, den = [rat(num, d) for num, d in parts], 1
    runs = [(k, sum(1 for _ in group)) for k, group in groupby(sorted(keys))]
    return [k for k, _ in runs], [c for _, c in runs], den


def read_samples(path, header: bool) -> tuple:
    """The runs of a sample file; header skips its first line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    return sample_runs(parse_lines(lines[1:] if header else lines, 2 if header else 1))


def _degenerate(runs, allow_degenerate: bool) -> bool:
    """True when the samples take a single value; an error unless allowed."""
    if len(runs[0]) < 2 and not allow_degenerate:
        raise SpecError(
            "fewer than 2 distinct samples; pass --allow-degenerate for a pure atom")
    return len(runs[0]) < 2


def samples_to_measure(runs) -> PiecewiseMeasure:
    """The linear-interpolation empirical measure of the runs: each gap
    between adjacent distinct samples carries mass 1/(n-1), k tied samples
    an atom of mass (k-1)/(n-1), and a single value is a unit atom."""
    keys, counts, den = runs
    values = [rat(k, den) for k in keys]
    if len(values) < 2:
        return PiecewiseMeasure(REAL_LINE, ((values[0], ONE),), ())
    n1 = sum(counts) - 1
    tied = [(x, c) for x, c in zip(values, counts) if c > 1]
    # the distinct samples are the knots; equal gaps give neighbouring cells
    # of equal density, which the merge joins; a gap g / den (g an integer or,
    # on the rational sort, a rational) has density den / ((n-1) g)
    gaps = (b - a for a, b in zip(keys, keys[1:]))
    dens = _canonical_step(REAL_LINE, values, [
        ZERO, *(rat(den * g.denominator, n1 * g.numerator) for g in gaps), ZERO])
    return _measure(REAL_LINE, tuple(x for x, _ in tied),
                    tuple(rat(c - 1, n1) for _, c in tied), dens)


def samples_to_function(runs, anchor) -> PiecewiseMonotone:
    """The distribution function of samples_to_measure(runs), anchored to 0
    at the rational anchor, for runs of two or more distinct values.

    With S samples below a value v of c samples, F(v-) = S/(n-1) and
    F(v+) = (S + c - 1)/(n-1), less F(anchor): one rational from integers
    each.  A value is a knot iff it is tied or its two gaps differ, so the
    result is canonical by construction, and a rational is made only for a
    kept value, limit or slope.
    """
    keys, counts, den = runs
    n1 = sum(counts) - 1
    below = [0, *accumulate(counts)]  # below[k] samples lie below keys[k]
    gaps = [b - a for a, b in zip(keys, keys[1:])]
    # F(anchor) = p/q unshifted: the right limit at the last value at or
    # below the anchor, plus the rise along the gap it lies in
    at = anchor * den  # the anchor on the scale of the keys
    i = bisect_right(keys, at)
    shift = rat(below[i] - 1, n1) if i else ZERO
    if 0 < i < len(keys) and keys[i - 1] != at:
        shift += (at - keys[i - 1]) / (n1 * gaps[i - 1])
    q = shift.denominator
    pn, d = shift.numerator * n1, n1 * q  # a limit S/(n-1) - p/q is (S q - p (n-1)) / d
    last = len(keys) - 1
    keep = [0, *(k for k in range(1, last) if counts[k] > 1 or gaps[k - 1] != gaps[k]), last]
    lefts = [rat(below[k] * q - pn, d) for k in keep]
    # an untied value is no jump: its two limits are one rational
    rights = [left if counts[k] == 1 else rat((below[k + 1] - 1) * q - pn, d)
              for k, left in zip(keep, lefts)]
    return _trusted(PiecewiseMonotone, domain=REAL_LINE,
                    slopes=(ZERO, *(rat(den * gaps[k].denominator, n1 * gaps[k].numerator)
                                    for k in keep[:-1]), ZERO),
                    anchor=None, xs=tuple(rat(keys[k], den) for k in keep),
                    lefts=tuple(lefts), rights=tuple(rights))


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
