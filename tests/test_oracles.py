"""The memoized tables, the fast law checks and scans, against slow references.

A PiecewiseMonotone keeps each table derived from it; each is declared
once, with the monotone._cached decorator.  Every table must equal its
builder, the undecorated body (__wrapped__), applied to a fresh copy of the
function, and a second call must return the same object; a table whose
builder raises (the generalized inverse of a pure single-jump staircase)
keeps nothing and raises again.  TABLES lists exactly the decorated
functions of monotone and measure, each stored under a key of its own that
no dataclass field uses.

GALOIS compares two prefix lengths per grid point x by bisection,
measure.measure_of_open bisects to the atoms and cells that can meet its
interval, and the threshold scans last_x_with_right_le and
first_x_with_left_ge bisect to the one segment that can cross their level.
unimodal._switch_hull stops at the first order break from each end.
The loops they replaced are kept here as oracles: the check of every
(x, t) pair of the grids, the scan of every atom and cell, the walk
along the segments, and the prefix and suffix flags of every cell.  The
fast paths must give the same verdicts and the same failure texts, also
with a fault planted in what the check reads, and a one-point mutant of
each fast path must be told apart from its oracle.

classify reads its density verdict off its scan of the slopes and decides
the quantile density through the helper quantile_density uses; the routes
it replaced, a scan of the merged density step and a decision of absolute
continuity of its own, must give the same verdicts.

The law generators build their instances through monotone._assembled,
which keeps the knot drop but runs no conversion and no check; built
through from_knot_data instead, on the same random streams, every instance
must come out the same.
"""

import contextlib
import dataclasses
import glob
import json
import operator
import os
import random

from bisect import bisect_left, bisect_right
from unittest import mock

import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monoinv import laws, measure, monotone, unimodal
from monoinv.cli import _default_anchor
from monoinv.errors import ConstantFunction, QfNotAbsolutelyContinuous
from monoinv.exactnum import ZERO, rat
from monoinv.intervals import NEG_INF, POS_INF, REAL_LINE, ClosedInterval, Interval, is_finite
from monoinv.laws import GenConfig, LawFailure, gen_monotone
from monoinv.measure import (
    associated_measure,
    distribution_function,
    gen_inverse_abs_cont,
    lebesgue_decompose,
    lebesgue_on,
    measure_of_open,
    step_of_slopes,
)
from monoinv.monotone import (
    LEFT,
    RIGHT,
    PiecewiseMonotone,
    extend_to_real_line,
    first_x_with_left_ge,
    generalized_inverse,
    inverse_domain,
    last_x_with_right_le,
    mass_interval,
    refine_grid,
    structural_values,
    structural_xs,
    validate,
)
from monoinv.serialize import spec_to_measure
from test_monotone import segment_table

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")

oracle_settings = settings(max_examples=150, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])

# every memoized table; its builder is its __wrapped__
TABLES = [
    monotone.value_bounds,
    monotone.jumps,
    monotone.flats,
    monotone.inverse_domain,
    monotone.generalized_inverse,
    measure.step_of_slopes,
    measure.associated_measure,
]


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    max_knots = draw(st.integers(min_value=1, max_value=12))
    unimodal = draw(st.booleans())
    return gen_monotone(GenConfig(seed=seed, max_knots=max_knots, force_unimodal=unimodal))


def seeded_instances(count=60):
    """Law-generator instances at fixed seeds, half of them unimodal."""
    return [gen_monotone(GenConfig(seed=seed, max_knots=8, force_unimodal=seed % 2 == 1))
            for seed in range(count)]


def golden_functions():
    """The distribution function of each golden spec and its generalized inverse."""
    out = []
    for path in sorted(glob.glob(os.path.join(GOLDEN, "*.json"))):
        if path.endswith("cases.json"):
            continue
        with open(path, encoding="utf-8") as fh:
            m = spec_to_measure(json.load(fh))
        f = distribution_function(m, _default_anchor(m.carrier))
        out.append(f)
        try:
            out.append(generalized_inverse(f))
        except ConstantFunction:
            pass
    return out


# ---------------------------------------------------------------------------
# the memo


def test_golden_specs_are_read():
    assert len(golden_functions()) >= 6


def built(build, g):
    """build(g), or ConstantFunction when it raises that (generalized_inverse
    of a pure single-jump staircase)."""
    try:
        return build(g)
    except ConstantFunction:
        return ConstantFunction


def kept(table, g):
    """built(table, g); a table whose builder raises keeps nothing and raises
    again on the next call."""
    value = built(table, g)
    if value is ConstantFunction:
        assert table.key not in g.__dict__, table.__name__
        assert built(table, g) is ConstantFunction, table.__name__
    return value


@pytest.mark.parametrize("source", ["laws", "golden"])
def test_each_table_is_its_builder_on_a_fresh_copy_and_is_kept(source):
    functions = seeded_instances() if source == "laws" else golden_functions()
    raised = 0
    for g in functions:
        for table in TABLES:
            value = kept(table, g)
            fresh = built(table.__wrapped__, validate(g))  # an equal instance that holds no tables
            assert value == fresh and repr(value) == repr(fresh), (table.__name__, g)
            assert built(table, g) is value, table.__name__
            raised += value is ConstantFunction
    assert raised >= 5 or source == "golden"


def test_tables_take_no_part_in_equality_hash_or_repr():
    for g in seeded_instances(20):
        bare = validate(g)
        before = repr(g)
        for table in TABLES:
            kept(table, g)
        assert g == bare and hash(g) == hash(bare) and repr(g) == repr(bare) == before


def test_tables_are_every_memoized_table_each_under_its_own_key():
    # a key shared by two tables would hand one table's value to the other
    decorated = {fn for module in (monotone, measure) for fn in vars(module).values()
                 if hasattr(fn, "__wrapped__")}
    assert decorated == set(TABLES)
    keys = [table.key for table in TABLES]
    fields = {f.name for f in dataclasses.fields(PiecewiseMonotone)}
    assert len(set(keys)) == len(keys) and not fields & set(keys)
    raised = 0
    for g in seeded_instances(20):
        for table in TABLES:
            value = kept(table, g)
            raised += value is ConstantFunction
            assert g.__dict__.get(table.key, ConstantFunction) is value, table.__name__
    assert raised >= 1


def grids_by_sets(g):
    """structural_xs, structural_values and refine_grid of the first, as
    sorted sets of every candidate point."""
    xs = [*g.xs, g.domain.lo, g.domain.hi]
    values = [*g.lefts, *g.rights, *monotone.value_bounds(g)]
    if g.anchor is not None:
        xs.append(g.anchor[0])
        values.append(g.anchor[1])
    xs = sorted({x for x in xs if is_finite(x)})
    values = sorted({v for v in values if is_finite(v)})
    pts = sorted(set(xs)) or [ZERO]
    refined = set(pts) | {(a + b) / 2 for a, b in zip(pts, pts[1:])}
    return xs, values, sorted(refined | {pts[0] - 1, pts[-1] + 1})


@pytest.mark.parametrize("source", ["laws", "golden"])
def test_structure_grids_equal_their_set_definitions(source):
    # the grids are read off the columns in order, with no set and no sort
    for g in seeded_instances() if source == "laws" else golden_functions():
        xs = structural_xs(g)
        assert (xs, structural_values(g), refine_grid(xs)) == grids_by_sets(g)


# ---------------------------------------------------------------------------
# GALOIS


def galois_all_pairs(g):
    """laws._check_galois as the loop over every (x, t) pair of the grids
    states it, reading the inverse and the evaluations from laws."""
    h = laws._materialized_inverse(g)
    if h is None:
        raise laws._Skip
    xs = refine_grid(structural_xs(g) + structural_values(h))
    ts = refine_grid(structural_values(g) + structural_xs(h))
    gl = [(x, laws.evaluate(g, x, LEFT)) for x in xs]
    hr = [(t, laws.evaluate(h, t, RIGHT)) for t in ts]
    for x, glx in gl:
        for t, hrt in hr:
            above = glx > t
            right = x > hrt
            if above != right:
                raise LawFailure(
                    f"G_l({x}) > {t} <=> {x} > H_r({t})",
                    f"{glx} > {t} is {above} but {x} > {hrt} is {right}",
                    "strict form")
            at_most = glx <= t
            left_of = x <= hrt
            if at_most != left_of:
                raise LawFailure(
                    f"G_l({x}) <= {t} <=> {x} <= H_r({t})",
                    f"{at_most} vs {left_of}", "weak form")


def outcome(check, g):
    """'pass', 'skip', or the text of the LawFailure check(g) raises."""
    try:
        check(g)
    except laws._Skip:
        return "skip"
    except LawFailure as failure:
        return str(failure)
    return "pass"


def _right_for_left(g, x, version=RIGHT):
    return monotone.evaluate(g, x, RIGHT)


def _shifted_inverse(g):
    """The generalized inverse of g + 1 in place of that of g."""
    lefts, rights = (tuple(v + 1 for v in col) for col in (g.lefts, g.rights))
    anchor = None if g.anchor is None else (g.anchor[0], g.anchor[1] + 1)
    try:
        return generalized_inverse(PiecewiseMonotone(
            g.domain, tuple(zip(g.xs, lefts, rights)), g.slopes, anchor))
    except ConstantFunction:
        return None


# faults planted in what the check reads; each keeps H_r non-decreasing
FAULTS = {
    "none": {},
    "left-version-read-as-right": {"evaluate": _right_for_left},
    "inverse-of-a-shifted-function": {"_materialized_inverse": _shifted_inverse},
}


def planted(fault):
    if not FAULTS[fault]:
        return contextlib.nullcontext()
    return mock.patch.multiple(laws, **FAULTS[fault])


@pytest.mark.parametrize("fault", FAULTS)
@oracle_settings
@given(g=instances())
def test_galois_agrees_with_all_pairs(fault, g):
    with planted(fault):
        assert outcome(laws._check_galois, g) == outcome(galois_all_pairs, g)


@pytest.mark.parametrize("fault", [f for f in FAULTS if f != "none"])
def test_planted_faults_fail_galois_with_the_same_text(fault):
    failed = 0
    with planted(fault):
        for g in seeded_instances():
            got = outcome(laws._check_galois, g)
            assert got == outcome(galois_all_pairs, g)
            failed += got not in ("pass", "skip")
    assert failed >= 10


def test_galois_names_a_decreasing_pair_of_the_inverse():
    def reversed_right(g, x, version=RIGHT):
        value = monotone.evaluate(g, x, version)
        return -value if version is RIGHT else value

    g = next(g for g in seeded_instances() if laws._materialized_inverse(g) is not None)
    with mock.patch.object(laws, "evaluate", reversed_right):
        with pytest.raises(LawFailure) as failure:
            laws._check_galois(g)
    assert failure.value.note == "H_r non-decreasing on the t grid"
    assert failure.value.expected.startswith("H_r(")


def test_galois_mutant_is_caught_by_all_pairs(monkeypatch):
    # bisect_right counts the t <= G_l(x) and the H_r(t) <= x: the prefixes
    # of the weak form, one step off wherever G_l(x) or x is on the grid
    monkeypatch.setattr(laws, "bisect_left", bisect_right)
    told_apart = sum(outcome(laws._check_galois, g) != outcome(galois_all_pairs, g)
                     for g in seeded_instances())
    assert told_apart >= 10


# ---------------------------------------------------------------------------
# measure_of_open


def measure_of_open_full_scan(m, lo, hi):
    """measure_of_open as a scan of every atom and every cell."""
    iv = Interval(lo, hi)
    if iv.is_empty:
        return ZERO
    total = ZERO
    for x, mass in zip(m.atom_xs, m.atom_masses):
        if iv.lo < x < iv.hi:
            total = total + mass
    for c_lo, c_hi, v in m.abs_density.cells():
        if v == 0:
            continue
        lo2 = max(iv.lo, c_lo)
        hi2 = min(iv.hi, c_hi)
        if lo2 < hi2:
            if not (is_finite(lo2) and is_finite(hi2)):
                return POS_INF
            total = total + v * (hi2 - lo2)
    return total


def probes(g):
    """Measures made from g, and the open intervals between points of a
    grid through its structure points, its domain's ends and beyond."""
    mu = associated_measure(g)
    measures = [mu, *lebesgue_decompose(mu), lebesgue_on(mass_interval(g), g.domain)]
    pts = [NEG_INF, *refine_grid(structural_xs(g)), POS_INF]
    return measures, [(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]]


def mismatches(g):
    measures, intervals = probes(g)
    return sum(measure_of_open(m, a, b) != measure_of_open_full_scan(m, a, b)
               for m in measures for a, b in intervals)


@settings(oracle_settings, max_examples=60)
@given(instances())
@example(PiecewiseMonotone(Interval(0, 4), ((1, 0, 1), (2, 2, 2)), (1, 1, 0)))
def test_measure_of_open_agrees_with_the_full_scan(g):
    measures, intervals = probes(g)
    for m in measures:
        for a, b in intervals:
            got = measure_of_open(m, a, b)
            want = measure_of_open_full_scan(m, a, b)
            assert got == want and repr(got) == repr(want), (m, a, b)


def test_measure_of_open_mutant_is_caught_by_the_full_scan(monkeypatch):
    # one cell short at the upper end of the range: the last cell that
    # meets (lo, hi) is read as running to hi, and the last atom is missed
    between = monotone._between

    def short_by_one(xs, lo, hi):
        i, j = between(xs, lo, hi)
        return i, max(i, j - 1)

    monkeypatch.setattr(monotone, "_between", short_by_one)
    assert sum(mismatches(g) > 0 for g in seeded_instances(20)) >= 10


# ---------------------------------------------------------------------------
# threshold scans


def last_x_with_right_le_by_walk(g, c):
    """last_x_with_right_le as the walk along the segments from the left."""
    if c is NEG_INF:
        return g.domain.lo
    if c is POS_INF:
        return POS_INF
    e = g.domain.lo
    for seg in segment_table(g):
        if seg.u > c:
            break
        if seg.slope == 0 or seg.v <= c:
            e = seg.b
            continue
        return _level_x_of(g, seg, c)  # a strictly rising segment crossing level c
    return e


def first_x_with_left_ge_by_walk(g, c):
    """first_x_with_left_ge as the walk along the segments from the right."""
    if c is POS_INF:
        return g.domain.hi
    if c is NEG_INF:
        return NEG_INF
    e = g.domain.hi
    for seg in reversed(segment_table(g)):
        if seg.v < c:
            break
        if seg.slope == 0 or seg.u >= c:
            e = seg.a
            continue
        return _level_x_of(g, seg, c)
    return e


def _level_x_of(g, seg, t):
    """The x where the rising segment seg of g reaches the finite level t."""
    if is_finite(seg.a):
        return seg.a + (t - seg.u) / seg.slope
    if is_finite(seg.b):
        return seg.b - (seg.v - t) / seg.slope
    ax, av = g.anchor  # a single segment spanning the line
    return ax + (t - av) / seg.slope


SCANS = {"last_x_with_right_le": (last_x_with_right_le, last_x_with_right_le_by_walk),
         "first_x_with_left_ge": (first_x_with_left_ge, first_x_with_left_ge_by_walk)}


def levels(g):
    """The levels between and beyond g's structure values, and the infinities."""
    return [NEG_INF, *refine_grid(structural_values(g)), POS_INF]


@oracle_settings
@given(instances())
@example(PiecewiseMonotone(Interval(0, 4), ((1, 0, 1), (2, 2, 2)), (1, 1, 0)))
@example(PiecewiseMonotone(REAL_LINE, (), (2,), (0, 1)))  # one segment spanning the line
def test_threshold_scans_agree_with_the_segment_walk(g):
    for scan, walk in SCANS.values():
        for c in levels(g):
            got, want = scan(g, c), walk(g, c)
            assert got == want and repr(got) == repr(want), (scan.__name__, c)


@pytest.mark.parametrize("scan, bisection, mutant", [
    ("last_x_with_right_le", "bisect_right", bisect_left),
    ("first_x_with_left_ge", "bisect_left", bisect_right),
])
def test_threshold_scan_mutant_is_caught_by_the_walk(monkeypatch, scan, bisection, mutant):
    # the other bisection puts a knot whose limit equals the level on the
    # wrong side of it, so the scan stops at the wrong end of a flat at
    # that level.  The walk reads g through evaluate, which bisects too, so
    # it runs before the mutant is planted.
    fast, walk = SCANS[scan]
    cases = [(g, levels(g)) for g in seeded_instances()]
    want = [[walk(g, c) for c in cs] for g, cs in cases]
    monkeypatch.setattr(monotone, bisection, mutant)
    told_apart = sum([fast(g, c) for c in cs] != w for (g, cs), w in zip(cases, want))
    assert told_apart >= 10


# ---------------------------------------------------------------------------
# the switch scan


def switch_hull_by_flags(values, bounds, rise_first):
    """unimodal._switch_hull as a flag per cell: ordered from the left,
    ordered from the right.  Cell i spans (bounds[i], bounds[i + 1])."""
    ordered = operator.le if rise_first else operator.ge
    n = len(values)
    prefix = [True] * n
    for i in range(1, n):
        prefix[i] = prefix[i - 1] and ordered(values[i - 1], values[i])
    suffix = [True] * n
    for i in range(n - 2, -1, -1):
        suffix[i] = suffix[i + 1] and ordered(values[i + 1], values[i])
    switch = [i for i in range(n) if prefix[i] and suffix[i]]
    if not switch:
        return None
    return ClosedInterval(bounds[switch[0]], bounds[switch[-1] + 1])


@st.composite
def cell_sequences(draw):
    """Nonnegative cell values with ties, their knots, and a finite,
    half-line or whole-line carrier around them."""
    values = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8))
    knots = sorted(draw(st.sets(st.integers(min_value=-20, max_value=20),
                                min_size=len(values) - 1, max_size=len(values) - 1)))
    ends = draw(st.sampled_from(["finite", "lower half-line", "upper half-line", "line"]))
    lo = NEG_INF if ends in ("lower half-line", "line") else (knots[0] if knots else 0) - 1
    hi = POS_INF if ends in ("upper half-line", "line") else (knots[-1] if knots else 0) + 1
    return [rat(v) for v in values], tuple(rat(k) for k in knots), Interval(lo, hi)


@oracle_settings
@given(cells=cell_sequences(), rise_first=st.booleans())
@example(cells=([rat(1), rat(2), rat(2), rat(1)], (rat(1), rat(2), rat(3)), Interval(0, 4)),
         rise_first=True)  # a plateau: its hull is [1, 3]
def test_switch_hull_agrees_with_the_cell_flags(cells, rise_first):
    values, knots, carrier = cells
    want = switch_hull_by_flags(values, [carrier.lo, *knots, carrier.hi], rise_first)
    got = unimodal._switch_hull(values, knots, carrier, rise_first)
    assert got == want and repr(got) == repr(want)


# ---------------------------------------------------------------------------
# classify's verdicts


def _quantile_density_or_none(g):
    try:
        return unimodal.quantile_density(g)
    except QfNotAbsolutelyContinuous:
        return None


@pytest.mark.parametrize("source", ["laws", "golden"])
def test_classify_agrees_with_the_routes_it_replaced(source):
    for g in seeded_instances() if source == "laws" else golden_functions():
        c = unimodal.classify(g)
        e = extend_to_real_line(g)
        merged = unimodal.is_quasi_concave(step_of_slopes(e))
        assert c.dens_unimodal_abs_part == merged[0], g
        # merging equal neighbouring slopes moves no end of the hull either
        assert unimodal._switch_hull(e.slopes, e.xs, e.domain, rise_first=True) == merged[1], g
        assert c.qf_absolutely_continuous == gen_inverse_abs_cont(e, inverse_domain(e)), g
        want = _quantile_density_or_none(g)
        assert c.quantile_density == want and repr(c.quantile_density) == repr(want), g


# ---------------------------------------------------------------------------
# law instances


def law_instances(law_id, n, cfg, assemble=None):
    """The n instances run_law(law_id, n, cfg) checks, recorded by a check
    that skips them all; built through assemble in place of
    monotone._assembled when given."""
    gen, _ = laws._REGISTRY[law_id]
    seen = []

    def record(g):
        seen.append(g)
        raise laws._Skip

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(laws._REGISTRY, {law_id: (gen, record)}))
        if assemble is not None:
            stack.enter_context(mock.patch.object(monotone, "_assembled", assemble))
        laws.run_law(law_id, n, cfg)
    return seen


def assert_trusted_generation_is_checked(law_id, n, cfg):
    trusted = law_instances(law_id, n, cfg)
    checked = law_instances(law_id, n, cfg, assemble=monotone.from_knot_data)
    assert len(trusted) == len(checked) == n
    for g, want in zip(trusted, checked):
        assert g == want and repr(g) == repr(want), (law_id, want)


@pytest.mark.parametrize("law_id", laws.LAW_IDS)
def test_generated_instances_equal_the_checked_route(law_id):
    assert_trusted_generation_is_checked(law_id, 200, GenConfig(seed=20260808))


@settings(oracle_settings, max_examples=40)
@given(law_id=st.sampled_from(laws.LAW_IDS), seed=st.integers(min_value=0, max_value=2**32 - 1),
       max_knots=st.integers(min_value=1, max_value=40))
def test_generated_instances_equal_the_checked_route_at_drawn_seeds(law_id, seed, max_knots):
    assert_trusted_generation_is_checked(law_id, 10, GenConfig(seed=seed, max_knots=max_knots))
