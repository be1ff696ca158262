"""The extended-real protocol the core relies on, on both number types.

A point of the extended real line is a bare rational or NEG_INF / POS_INF.
Mixed comparisons work only because both fractions.Fraction and the
compiled Rat return NotImplemented for an operand they do not know, so that
Python hands the comparison to the sentinel.  A sentinel does no
arithmetic, so a sum or difference with one raises TypeError.  These tests
pin that, for Fraction always and for Rat when the kernel can be built here.

Every entry point that takes numbers from a caller converts ints and
Fractions to the backend's rational and refuses anything else, so no float
flows into an exact value.  Only an interval's end may be NEG_INF or
POS_INF, and every entry that takes an interval refuses a ClosedInterval.
"""

import inspect
import re

from decimal import Decimal
from fractions import Fraction

import pytest

import monoinv

from monoinv import exactnum
from monoinv.exactnum import as_q
from monoinv.intervals import (
    NEG_INF,
    POS_INF,
    REAL_LINE,
    ClosedInterval,
    Interval,
    is_finite,
)
from monoinv.measure import (
    PiecewiseMeasure,
    StepFunction,
    distribution_function,
    gen_inverse_abs_cont,
    lebesgue_on,
)
from monoinv.monotone import (
    PiecewiseMonotone,
    constancy_set,
    evaluate,
    from_knot_data,
    preimage_interior,
    restrict,
)

BIG = 10**400
NUMBERS = [(0, 1), (1, 3), (-1, 3), (BIG, 1), (-BIG, 1), (1, BIG), (-1, BIG)]


@pytest.fixture(params=["Fraction", "Rat"])
def Q(request, monkeypatch):
    """Each number type in turn, as the backend's rational, which the
    interval constructors pass through unchanged."""
    Q = Fraction if request.param == "Fraction" else request.getfixturevalue("compiled_rat")
    monkeypatch.setattr(exactnum, "Q", Q)
    return Q


@pytest.fixture(params=NUMBERS, ids=[f"{'-' if n < 0 else ''}{'big' if abs(n) == BIG else abs(n)}"
                                     f"/{'big' if d == BIG else d}" for n, d in NUMBERS])
def q(Q, request):
    return Q(*request.param)


def test_sentinels_order_around_every_rational(q):
    assert NEG_INF < q < POS_INF
    assert q > NEG_INF and POS_INF > q
    assert NEG_INF <= q <= POS_INF
    assert q >= NEG_INF and POS_INF >= q
    assert not (q < NEG_INF or q <= NEG_INF or POS_INF < q or POS_INF <= q)
    assert not (q > POS_INF or q >= POS_INF or NEG_INF > q or NEG_INF >= q)


def test_sentinels_order_among_themselves():
    assert NEG_INF < POS_INF and POS_INF > NEG_INF
    assert NEG_INF <= NEG_INF and POS_INF >= POS_INF
    assert not (POS_INF < POS_INF or NEG_INF > NEG_INF or POS_INF <= NEG_INF)


def test_equality_with_rationals_is_false_both_ways(q):
    for inf in (NEG_INF, POS_INF):
        assert not (q == inf) and not (inf == q)
        assert q != inf and inf != q
    assert POS_INF == POS_INF and NEG_INF == NEG_INF and NEG_INF != POS_INF
    assert q == q and not (q != q)


def test_sentinels_take_part_in_no_arithmetic(q):
    for inf in (NEG_INF, POS_INF):
        for op in (lambda: -inf, lambda: inf + q, lambda: q + inf,
                   lambda: inf - q, lambda: q - inf, lambda: inf + inf, lambda: inf - inf):
            with pytest.raises(TypeError):
                op()


def test_min_max_sorted_on_mixed_lists(Q, q):
    other = q + Q(1, 7)
    mixed = [POS_INF, other, NEG_INF, q]
    assert sorted(mixed) == [NEG_INF, q, other, POS_INF]
    assert sorted(mixed, reverse=True) == [POS_INF, other, q, NEG_INF]
    assert min(mixed) is NEG_INF and max(mixed) is POS_INF
    assert min([POS_INF, q]) is q and max([NEG_INF, q]) is q
    assert max(q, NEG_INF) is q and min(q, POS_INF) is q
    assert sorted([(POS_INF, 0), (q, 1), (NEG_INF, 2)]) == [(NEG_INF, 2), (q, 1), (POS_INF, 0)]


def test_hashing_and_dict_keys(Q, q):
    assert hash(POS_INF) == hash(POS_INF) and hash(NEG_INF) != hash(POS_INF)
    table = {POS_INF: "hi", NEG_INF: "lo", q: "q"}
    assert table[POS_INF] == "hi" and table[NEG_INF] == "lo"
    assert table[q] == "q" and table[q + Q(0)] == "q"
    assert len({POS_INF, NEG_INF, q, q + Q(0), POS_INF}) == 3


def test_is_finite(q):
    assert is_finite(q)
    assert not is_finite(POS_INF) and not is_finite(NEG_INF)


def test_sentinels_are_immutable():
    with pytest.raises(AttributeError):
        POS_INF._sign = -1
    assert repr(POS_INF) == "inf" and repr(NEG_INF) == "-inf"


def test_intervals_mix_rationals_and_sentinels(Q, q):
    right = Interval(q, POS_INF)
    assert right.contains(q + 1) and not right.contains(q) and not right.contains(POS_INF)
    assert Interval(NEG_INF, POS_INF).contains_interval(right)
    assert not right.contains_interval(Interval(NEG_INF, q))
    with pytest.raises(ValueError, match="out of order"):
        Interval(POS_INF, q)
    assert Interval(q, q).is_empty and not Interval(q, q).contains(q)
    hull = ClosedInterval(q, POS_INF)
    assert hull.contains(q) and hull.contains(q + 1) and not hull.contains(q - 1)
    with pytest.raises(ValueError, match="out of order"):
        ClosedInterval(POS_INF, q)


def _unit_atom():
    return PiecewiseMeasure(REAL_LINE, ((0, 1),), ())


# each entry point with one argument left open, in every position of the
# public constructors a caller fills with a number
BOUNDARY = {
    "PiecewiseMonotone-knot": lambda v: PiecewiseMonotone(REAL_LINE, ((v, 0, 0),), (1, 2)),
    "PiecewiseMonotone-limit": lambda v: PiecewiseMonotone(REAL_LINE, ((0, v, 1),), (1, 1)),
    "PiecewiseMonotone-slope": lambda v: PiecewiseMonotone(REAL_LINE, (), (v,), (0, 0)),
    "PiecewiseMonotone-anchor": lambda v: PiecewiseMonotone(REAL_LINE, (), (1,), (0, v)),
    "PiecewiseMonotone-right": lambda v: PiecewiseMonotone(REAL_LINE, ((0, 0, v),), (1, 1)),
    "PiecewiseMeasure-atom": lambda v: PiecewiseMeasure(REAL_LINE, ((v, 1),), ()),
    "PiecewiseMeasure-mass": lambda v: PiecewiseMeasure(REAL_LINE, ((0, v),), ()),
    "PiecewiseMeasure-density": lambda v: PiecewiseMeasure(REAL_LINE, (), ((Interval(0, 1), v),)),
    # the open mass or density in a later tuple of an unsorted list, so it
    # passes the sort and, for the atom, the merge with a coinciding atom
    "Atom": lambda v: PiecewiseMeasure(REAL_LINE, ((1, 1), (0, 1), (0, v)), ()),
    "UniformPiece": lambda v: PiecewiseMeasure(
        REAL_LINE, ((0, 1),), ((Interval(1, 2), 1), (Interval(0, 1), v))),
    "StepFunction-knot": lambda v: StepFunction(Interval(0, 2), (v,), (1, 2)),
    "StepFunction-value": lambda v: StepFunction(Interval(0, 1), (), (v,)),
    "Interval": lambda v: Interval(0, v),
    "Interval-lo": lambda v: Interval(v, 1),
    "ClosedInterval": lambda v: ClosedInterval(0, v),
    "evaluate": lambda v: evaluate(PiecewiseMonotone(REAL_LINE, (), (1,), (0, 0)), v),
    "from_knot_data": lambda v: from_knot_data(REAL_LINE, [0], [v], [1, 1], -1, 0),
    "distribution_function-anchor": lambda v: distribution_function(_unit_atom(), v),
}


@pytest.mark.parametrize("value", [0.5, Decimal("0.5"), "1/2"], ids=["float", "Decimal", "str"])
@pytest.mark.parametrize("entry", list(BOUNDARY.values()), ids=list(BOUNDARY))
def test_boundary_refuses_inexact_numbers(entry, value):
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        entry(value)


# only an interval may have an infinite end; every other number a caller
# gives is a finite rational
FINITE_ONLY = {name: entry for name, entry in BOUNDARY.items()
               if name not in ("Interval", "Interval-lo", "ClosedInterval")}


@pytest.mark.parametrize("entry", list(FINITE_ONLY.values()), ids=list(FINITE_ONLY))
def test_boundary_refuses_infinities(entry):
    for value in (NEG_INF, POS_INF):
        with pytest.raises(TypeError, match=f"not an exact rational: {value!r};"):
            entry(value)


@pytest.mark.parametrize("entry", list(BOUNDARY.values()), ids=list(BOUNDARY))
def test_boundary_converts_ints_and_fractions(entry):
    # a Fraction becomes the backend's rational as an int does, so no value
    # of another number type reaches the arithmetic
    for value in (1, Fraction(1, 2)):
        entry(value)
    rational = exactnum.Q
    assert type(as_q(Fraction(1, 2))) is type(as_q(1)) is rational
    x = rational(1, 3)
    assert as_q(x) is x
    g = PiecewiseMonotone(REAL_LINE, (), (Fraction(1, 2),), (0, 0))
    assert type(evaluate(g, 1)) is rational
    assert type(distribution_function(_unit_atom(), Fraction(-1, 2)).lefts[0]) is rational


def _line():
    return PiecewiseMonotone(REAL_LINE, (), (1,), (0, 0))


# each entry that takes an interval from a caller, with the name its
# refusal gives that interval
CLOSED_REFUSED = {
    "PiecewiseMonotone-domain": (lambda iv: PiecewiseMonotone(iv, (), (1,), (1, 0)),
                                 "regular domain"),
    "PiecewiseMeasure-carrier": (lambda iv: PiecewiseMeasure(iv, ((1, 1),), ()), "carrier"),
    "PiecewiseMeasure-piece": (lambda iv: PiecewiseMeasure(REAL_LINE, (), ((iv, 1),)),
                               "uniform piece"),
    "StepFunction-carrier": (lambda iv: StepFunction(iv, (), (1,)), "carrier"),
    "restrict": (lambda iv: restrict(_line(), iv), "restriction interval"),
    "gen_inverse_abs_cont": (lambda iv: gen_inverse_abs_cont(_line(), iv), "interval"),
    "from_knot_data-domain": (
        lambda iv: from_knot_data(iv, [1], [0], [1, 1], Fraction(1, 2), 0), "regular domain"),
    "lebesgue_on-iv": (lambda iv: lebesgue_on(iv, REAL_LINE), "interval"),
    "lebesgue_on-carrier": (lambda iv: lebesgue_on(Interval(0, 1), iv), "carrier"),
    "constancy_set-within": (lambda iv: constancy_set(_line(), within=iv), "clipping interval"),
    "preimage_interior": (lambda iv: preimage_interior(_line(), iv), "interval"),
}


@pytest.mark.parametrize("entry, what", list(CLOSED_REFUSED.values()), ids=list(CLOSED_REFUSED))
def test_entries_refuse_closed_intervals(entry, what):
    with pytest.raises(ValueError) as raised:
        entry(ClosedInterval(0, 2))
    assert type(raised.value) is ValueError and str(raised.value) == f"{what} must be open"


@pytest.mark.parametrize("name", list(CLOSED_REFUSED))
def test_entries_refuse_every_other_shape(name):
    # a tuple, a number, a string, None or an infinity is no interval either;
    # each is refused by name, never left to fail on a missing attribute
    # (None is constancy_set's "no clipping")
    entry, what = CLOSED_REFUSED[name]
    for shape in ((0, 2), 0.5, "(0, 2)", None, POS_INF):
        if shape is None and name == "constancy_set-within":
            continue
        with pytest.raises(ValueError) as raised:
            entry(shape)
        assert type(raised.value) is ValueError and str(raised.value) == f"{what} must be open"


def test_every_interval_entry_is_in_the_table():
    # each exported callable with a parameter annotated as an open Interval
    # has a row, under its name or under name-parameter
    missing = []
    for name, obj in vars(monoinv).items():
        if name.startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):  # no introspectable signature
            continue
        missing += [f"{name}-{p.name}" for p in params
                    if re.search(r"\bInterval\b", str(p.annotation))
                    and f"{name}-{p.name}" not in CLOSED_REFUSED and name not in CLOSED_REFUSED]
    assert missing == []
