from typing import NamedTuple

import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monoinv import monotone as mono
from monoinv.errors import (
    ConstantFunction,
    EmptyInterval,
    MonoinvError,
    NonMonotone,
    UnorderedBreakpoints,
)
from monoinv.exactnum import ZERO, rat
from monoinv.intervals import NEG_INF, POS_INF, REAL_LINE, is_finite, open_iv
from monoinv.laws import GenConfig, gen_monotone
from monoinv.monotone import (
    LEFT,
    RIGHT,
    PiecewiseMonotone,
    _probe_point,
    constancy_set,
    evaluate,
    flat_count,
    from_knot_data,
    generalized_inverse,
    inverse_domain,
    jump_count_extended,
    limits_at,
    mass_interval,
    refine_grid,
    restrict,
    structural_values,
    structural_xs,
    supporting_interval,
    validate,
    versions_equal,
)


def equal_up_to_shift(g1, g2):
    """True iff g1 and g2 differ by a constant on a common domain."""
    if g1.domain != g2.domain or g1.slopes != g2.slopes:
        return False
    if g1.xs != g2.xs:
        return False
    if g1.xs:
        d = g1.lefts[0] - g2.lefts[0]
        return all(a - b == d for a, b in zip(g1.lefts + g1.rights, g2.lefts + g2.rights))
    return True


def knots_by_evaluate(g):
    """The knots of g as (x, left, right), each limit read through evaluate."""
    return [(x, evaluate(g, x, LEFT), evaluate(g, x, RIGHT)) for x in g.xs]


def grid_inverse_oracle(g, t, grid):
    """Independent left-inverse: min over the grid of {x : G_r(x) >= t}."""
    for x in grid:
        if evaluate(g, x, RIGHT) >= t:
            return x
    return None


def fine_grid(lo, hi, step):
    out = []
    x = lo
    while x <= hi:
        out.append(x)
        x = x + step
    return out


# ---------------------------------------------------------------------------
# validation


def test_validate_identity_cdf_ok(fixb):
    validate(fixb)  # embedded identity on (0,1)


def test_validate_rejects_negative_slope():
    with pytest.raises(NonMonotone):
        PiecewiseMonotone(open_iv(0, 1), (), (-1,), (rat(1, 2), 0))


def test_validate_rejects_constant():
    # a constant 3 on the whole line is the excluded class
    with pytest.raises(ConstantFunction):
        PiecewiseMonotone(REAL_LINE, (), (0,), (0, 3))


def test_validate_rejects_downward_jump():
    with pytest.raises(NonMonotone):
        PiecewiseMonotone(REAL_LINE, ((0, 1, 0),), (0, 0), None)


def test_validate_rejects_unordered_breakpoints():
    with pytest.raises(UnorderedBreakpoints):
        PiecewiseMonotone(
            REAL_LINE,
            ((1, 0, 0), (0, 1, 1)),
            (1, 1, 1),
            None,
        )


def test_validate_rejects_inconsistent_limits():
    with pytest.raises(NonMonotone):
        PiecewiseMonotone(
            REAL_LINE,
            ((0, 0, 0), (1, 5, 5)),  # slope 1 cannot reach 5
            (1, 1, 1),
            None,
        )


def test_validate_is_idempotent(fixa):
    validate(fixa)
    validate(fixa)


def test_canonicalization_drops_redundant_knot():
    g = PiecewiseMonotone(REAL_LINE, ((0, 0, 0),), (1, 1), None)
    assert not g.xs
    assert g.slopes == (rat(1),)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_fixa(fixa):
    # oracle: F(x) = len((0,1/2) cap (-inf,x]) + len((3/2,2) cap (-inf,x])
    def oracle(x):
        lo1 = min(max(x, rat(0)), rat(1, 2))
        lo2 = min(max(x, rat(3, 2)), rat(2))
        return (lo1 - 0) + (lo2 - rat(3, 2))

    assert oracle(rat(3, 2)) == rat(1, 2)
    assert evaluate(fixa, rat(3, 2), LEFT) == rat(1, 2)
    assert evaluate(fixa, rat(3, 2), RIGHT) == rat(1, 2)
    for x in fine_grid(rat(-1), rat(3), rat(1, 8)):
        assert evaluate(fixa, x, LEFT) == oracle(x)
        assert evaluate(fixa, x, RIGHT) == oracle(x)


def test_eval_dirac_versions(fixc):
    assert evaluate(fixc, 0, LEFT) == rat(0)
    assert evaluate(fixc, 0, RIGHT) == rat(1)


def test_eval_outside_regular_domain(fixb):
    assert evaluate(fixb, -1, LEFT) == NEG_INF
    assert evaluate(fixb, -1, RIGHT) == NEG_INF
    assert evaluate(fixb, 2, RIGHT) == POS_INF
    # at the finite edge the versions straddle the embedding
    assert evaluate(fixb, 0, LEFT) == NEG_INF
    assert evaluate(fixb, 0, RIGHT) == rat(0)
    assert evaluate(fixb, 1, LEFT) == rat(1)
    assert evaluate(fixb, 1, RIGHT) == POS_INF


# ---------------------------------------------------------------------------
# generalized inverse


def test_inverse_of_embedded_identity_restricts_to_identity(fixb):
    q = generalized_inverse(fixb)
    # the honest inverse clamps outside (0,1); its real part there is the identity
    assert q.domain == REAL_LINE
    assert versions_equal(restrict(q, open_iv(0, 1)), fixb)
    assert evaluate(q, rat(1, 2), LEFT) == rat(1, 2)
    assert evaluate(q, -5, RIGHT) == rat(0)
    assert evaluate(q, 5, RIGHT) == rat(1)


def test_inverse_fixa_explicit(fixa):
    q = generalized_inverse(fixa)
    assert q.domain == open_iv(0, 1)
    assert list(zip(q.xs, q.lefts, q.rights)) == [(rat(1, 2), rat(1, 2), rat(3, 2))]
    assert q.slopes == (rat(1), rat(1))
    for t in fine_grid(rat(1, 16), rat(7, 16), rat(1, 16)):
        assert evaluate(q, t, LEFT) == t
    for t in fine_grid(rat(9, 16), rat(15, 16), rat(1, 16)):
        assert evaluate(q, t, LEFT) == t + 1


def test_inverse_fixd_against_grid_oracle(fixd):
    q = generalized_inverse(fixd)
    step = rat(1, 1000)
    grid = fine_grid(rat(-1), rat(2), step)
    for t in fine_grid(rat(1, 100), rat(99, 100), rat(7, 100)):
        want = grid_inverse_oracle(fixd, t, grid)
        got = evaluate(q, t, LEFT)
        assert abs(want - got) <= step
    # and the exact structure: slope 2, flat at 1/2, slope 2
    assert q.slopes == (rat(2), rat(0), rat(2))
    assert q.xs == (rat(1, 4), rat(3, 4))


def test_inverse_of_dirac_is_excluded_constant(fixc):
    with pytest.raises(ConstantFunction):
        generalized_inverse(fixc)


def test_definitional_oracle_on_random_instances():
    step = rat(1, 200)
    checked = 0
    for seed in range(40):
        g = gen_monotone(GenConfig(seed=seed, max_knots=5, value_bound=8))
        try:
            h = generalized_inverse(g)
        except ConstantFunction:
            continue
        xs = structural_xs(g)
        lo = (xs[0] if xs else rat(0)) - 2
        hi = (xs[-1] if xs else rat(0)) + 2
        grid = fine_grid(lo, hi, step)
        for t in structural_values(g):
            want = grid_inverse_oracle(g, t, grid)
            got = evaluate(h, t, LEFT)
            if want is None or not is_finite(got):
                continue
            assert abs(want - got) <= step
            checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# canonical intervals


def test_intervals_fixa(fixa):
    assert fixa.domain == REAL_LINE
    assert mass_interval(fixa) == open_iv(0, 2)
    assert supporting_interval(fixa).lo == rat(0)
    assert supporting_interval(fixa).hi == rat(2)
    assert supporting_interval(fixa).lo_closed and supporting_interval(fixa).hi_closed
    q = generalized_inverse(fixa)
    assert q.domain == open_iv(0, 1)
    assert mass_interval(q) == open_iv(0, 1)
    s = supporting_interval(q)
    assert (s.lo, s.hi) == (rat(0), rat(1))


def test_intervals_dirac(fixc):
    assert mass_interval(fixc).is_empty
    s = supporting_interval(fixc)
    assert s.lo == s.hi == rat(0) and s.lo_closed


def test_intervals_identity_on_line():
    g = PiecewiseMonotone(REAL_LINE, (), (1,), (0, 0))
    assert g.domain == REAL_LINE
    assert mass_interval(g) == REAL_LINE
    s = supporting_interval(g)
    assert s.lo == NEG_INF and s.hi == POS_INF


def test_mass_inside_domain_supporting_inside_closure():
    for seed in range(30):
        g = gen_monotone(GenConfig(seed=seed, max_knots=6))
        assert g.domain.contains_interval(mass_interval(g))
        s = supporting_interval(g)
        cl = g.domain.closure()
        assert cl.contains_interval(s)


# ---------------------------------------------------------------------------
# restriction


def test_restrict_fixa_inverse_to_first_half(fixa):
    q = generalized_inverse(fixa)
    r = restrict(q, open_iv(0, rat(1, 2)))
    ident = PiecewiseMonotone(open_iv(0, rat(1, 2)), (), (1,), (rat(1, 4), rat(1, 4)))
    assert versions_equal(r, ident)


def test_restrict_keeps_real_part(fixb):
    assert versions_equal(restrict(fixb, open_iv(0, 1)), fixb)


def test_restrict_to_full_domain_is_identity(fixa, fixd):
    for g in (fixa, fixd):
        assert versions_equal(restrict(g, REAL_LINE), g)


def test_restrict_to_empty_interval_fails(fixb):
    from monoinv.intervals import EMPTY

    with pytest.raises(EmptyInterval):
        restrict(fixb, EMPTY)


def test_restrict_to_flat_region_is_excluded(fixa):
    with pytest.raises(ConstantFunction):
        restrict(fixa, open_iv(rat(3, 4), rat(5, 4)))


# ---------------------------------------------------------------------------
# class equality


def test_versions_equal_ignores_jump_values(fixa):
    # the class stores no value at the jump, so re-building it is the same class
    q1 = generalized_inverse(fixa)
    q2 = PiecewiseMonotone(open_iv(0, 1),
                           ((rat(1, 2), rat(1, 2), rat(3, 2)),),
                           (1, 1), None)
    assert versions_equal(q1, q2)


def test_versions_not_equal_after_value_shift(fixb):
    shifted = PiecewiseMonotone(open_iv(0, 1), (), (1,), (rat(1, 2), rat(3, 2)))
    assert not versions_equal(fixb, shifted)
    assert equal_up_to_shift(fixb, shifted)


def test_double_inverse_of_right_inverse(fixd):
    q = generalized_inverse(fixd)
    assert versions_equal(generalized_inverse(q), fixd)


def test_double_inverse_random():
    done = 0
    for seed in range(60):
        g = gen_monotone(GenConfig(seed=seed, max_knots=6))
        try:
            h = generalized_inverse(g)
        except ConstantFunction:
            continue
        assert versions_equal(generalized_inverse(h), g)
        assert jump_count_extended(g) == flat_count(h)
        assert flat_count(g) == jump_count_extended(h)
        done += 1
    assert done >= 40


# ---------------------------------------------------------------------------
# constancy


def test_constancy_set_fixd_inverse(fixd):
    q = generalized_inverse(fixd)
    assert constancy_set(q) == [open_iv(rat(1, 4), rat(3, 4))]


def test_constancy_set_identity_empty(fixb):
    assert constancy_set(fixb, within=open_iv(0, 1)) == []


def test_constancy_set_fixa_inside_mass_interval(fixa):
    assert constancy_set(fixa, within=mass_interval(fixa)) == [open_iv(rat(1, 2), rat(3, 2))]


# ---------------------------------------------------------------------------
# Galois connection on the refinement grid


def test_galois_connection_grid(fixa, fixd):
    for g in (fixa, fixd):
        h = generalized_inverse(g)
        xs = refine_grid(structural_xs(g) + structural_values(h))
        ts = refine_grid(structural_values(g) + structural_xs(h))
        for x in xs:
            for t in ts:
                gl = evaluate(g, x, LEFT)
                hr = evaluate(h, t, RIGHT)
                assert (gl > t) == (x > hr)
                assert (gl <= t) == (x <= hr)


def test_continuity_lemma_left_inverse(fixd):
    # the inverse of FIX-D is continuous, so h(g(x)) = x across the mass interval
    h = generalized_inverse(fixd)
    m = mass_interval(fixd)
    for x in fine_grid(rat(1, 16), rat(15, 16), rat(1, 16)):
        assert m.contains(x)
        for v1 in (LEFT, RIGHT):
            t = evaluate(fixd, x, v1)
            for v2 in (LEFT, RIGHT):
                assert evaluate(h, t, v2) == x


def test_inverse_domain_embedding_cases(fixb, fixc):
    assert inverse_domain(fixb) == REAL_LINE  # finite domain ends clamp
    assert inverse_domain(fixc) == open_iv(0, 1)


def test_from_knot_data_anchor_walks_both_ways():
    g = from_knot_data(REAL_LINE, [0, 1], [rat(1, 2), 0], [1, 0, 2], rat(1, 2), 10)
    # value at 1/2 is 10, slope 0 around it; walk left across the jump at 0
    assert evaluate(g, rat(1, 2), LEFT) == rat(10)
    assert evaluate(g, 0, RIGHT) == rat(10)
    assert evaluate(g, 0, LEFT) == rat(19, 2)
    assert evaluate(g, -1, LEFT) == rat(17, 2)
    assert evaluate(g, 2, RIGHT) == rat(12)


# ---------------------------------------------------------------------------
# fast paths against the code they replaced
#
# Each function below is the earlier, slower implementation, kept here only
# as an oracle: the cached tables, the single-pass canonicalisation, the
# jump rows of the inverse walk, the inverse built from its columns and the
# index-range restriction must agree with it on generated instances.  Where
# an oracle reads g's segments it reads them from segment_table, a table
# built through evaluate.

oracle_settings = settings(max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    max_knots = draw(st.integers(min_value=1, max_value=12))
    return gen_monotone(GenConfig(seed=seed, max_knots=max_knots))


class Segment(NamedTuple):
    """One open affine piece of a function: x-interval (a, b), limits
    u = g(a+), v = g(b-), each an extended real."""

    a: object
    b: object
    u: object
    v: object
    slope: object


def segment_table(g):
    """The open affine pieces of g, left to right, each knot's limits read
    through evaluate and the ends of the domain reached along the slopes:
    a reading of g independent of the library's column arithmetic."""
    lo, hi = g.domain.lo, g.domain.hi
    knots = knots_by_evaluate(g)
    if not knots:
        ax, av = g.anchor
        s = g.slopes[0]
        u = av - s * (ax - lo) if is_finite(lo) else (av if s == 0 else NEG_INF)
        v = av + s * (hi - ax) if is_finite(hi) else (av if s == 0 else POS_INF)
        return [Segment(lo, hi, u, v, s)]
    out = []
    (x, left, _), s = knots[0], g.slopes[0]
    u = left - s * (x - lo) if is_finite(lo) else (left if s == 0 else NEG_INF)
    out.append(Segment(lo, x, u, left, s))
    for (x, _, right), (nx, nleft, _), s in zip(knots, knots[1:], g.slopes[1:]):
        out.append(Segment(x, nx, right, nleft, s))
    (x, _, right), s = knots[-1], g.slopes[-1]
    v = right + s * (hi - x) if is_finite(hi) else (right if s == 0 else POS_INF)
    out.append(Segment(x, hi, right, v, s))
    return out


def _inverse_jump_rows_by_limits(g):
    """The inverse's flats from g's jumps, as (start, end, value), reading
    each jump by limits_at."""
    rows = []
    for seg in segment_table(g)[:-1]:
        x = seg.b
        l, r = limits_at(g, x)
        if l < r:
            rows.append((l, r, x))
    return rows


def _inverse_tokens(g):
    """The inverse's profile as (domain, segs, knots): segs are
    (t_lo, t_hi, slope, anchor_t, anchor_x) in value order, knots are
    (t, left_x, right_x) for the interior jumps of the inverse."""
    dom = mono.inverse_domain(g)
    m, M = mono.value_bounds(g)
    lo, hi = g.domain.lo, g.domain.hi
    segs = []
    knots = []
    g_knots = knots_by_evaluate(g)
    if is_finite(lo):
        segs.append((NEG_INF, m, ZERO, m, lo))
    gsegs = segment_table(g)
    for i, seg in enumerate(gsegs):
        if seg.slope == 0:
            if seg.a is not NEG_INF and seg.b is not POS_INF:
                knots.append((seg.u, seg.a, seg.b))
        else:
            inv_slope = 1 / seg.slope
            if is_finite(seg.a):
                anchor_t, anchor_x = seg.u, seg.a
            elif is_finite(seg.b):
                anchor_t, anchor_x = seg.v, seg.b
            else:
                anchor_x, anchor_t = g.anchor
            segs.append((seg.u, seg.v, inv_slope, anchor_t, anchor_x))
        if i < len(gsegs) - 1:
            x, left, right = g_knots[i]
            if left < right:
                segs.append((left, right, ZERO, left, x))
    if is_finite(hi):
        segs.append((M, POS_INF, ZERO, M, hi))
    return dom, segs, knots


def _generalized_inverse_by_tokens(g):
    """The inverse assembled from the token walk, with jumps looked up by value."""
    dom, segs, knots = _inverse_tokens(g)
    has_rise = any(s != 0 for _, _, s, _, _ in segs)
    if not has_rise and not knots:
        raise ConstantFunction("the generalized inverse would be constant")

    def x_at(seg, t):
        _, _, slope, anchor_t, anchor_x = seg
        return anchor_x + slope * (t - anchor_t)

    breaks = []
    slopes = [segs[0][2]]
    jump_at = {t: (lx, rx) for t, lx, rx in knots}
    for prev, cur in zip(segs, segs[1:]):
        t = prev[1]
        if t in jump_at:
            lx, rx = jump_at[t]
        else:
            lx = rx = x_at(prev, t)
        breaks.append((t, lx, rx))
        slopes.append(cur[2])
    anchor = None
    if not breaks:
        t_lo, t_hi, slope, anchor_t, anchor_x = segs[0]
        probe = _probe_point(open_iv(t_lo, t_hi))
        anchor = (probe, anchor_x + slope * (probe - anchor_t))
    return PiecewiseMonotone(dom, tuple(breaks), tuple(slopes), anchor)


def _canonical_by_restarts(breaks, slopes):
    """Remove one removable knot at a time, rescanning from the left."""
    removed = None
    while True:
        for j, (_, left, right) in enumerate(breaks):
            if left == right and slopes[j] == slopes[j + 1]:
                removed = breaks[j]
                breaks = breaks[:j] + breaks[j + 1:]
                slopes = slopes[:j] + slopes[j + 1:]
                break
        else:
            return breaks, slopes, removed


def _restrict_by_scan(g, iv):
    knots = knots_by_evaluate(g)
    inner = [i for i, (x, _, _) in enumerate(knots) if iv.contains(x)]
    first_idx = 0
    for i, seg in enumerate(segment_table(g)):
        if seg.a <= iv.lo and iv.lo < seg.b:
            first_idx = i
            break
    slopes = [g.slopes[first_idx]] + [g.slopes[i + 1] for i in inner]
    anchor = None
    if not inner:
        probe = _probe_point(iv)
        anchor = (probe, evaluate(g, probe, RIGHT))
    return PiecewiseMonotone(iv, tuple(knots[i] for i in inner), tuple(slopes), anchor)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except MonoinvError as e:
        return "error", type(e), str(e)


@oracle_settings
@given(instances())
def test_cached_tables_equal_tables_built_from_scratch(g):
    segs = segment_table(g)
    assert mono.value_bounds(g) == (segs[0].u, segs[-1].v)
    assert mono.value_bounds(g) is mono.value_bounds(g)
    assert mono.flats(g) == tuple((open_iv(seg.a, seg.b), seg.u) for seg in segs
                                  if seg.slope == 0)
    # the caches are not part of the value
    rebuilt = PiecewiseMonotone(g.domain, tuple(zip(g.xs, g.lefts, g.rights)), g.slopes,
                                g.anchor)
    assert rebuilt == g and hash(rebuilt) == hash(g) and repr(rebuilt) == repr(g)


@oracle_settings
@given(instances())
def test_inverse_jump_rows_equal_limits_at(g):
    # flats of the inverse with two finite ends come from jumps; the others
    # are the clamps beyond finite domain ends
    xs, lefts, rights, slopes = mono._inverse_columns(g)
    dom = inverse_domain(g)
    ends = (dom.lo, *xs, dom.hi)
    # a flat's value is the left limit at its upper end, or the right limit
    # at its lower end; a lone flat is the constant inverse, and no column
    # holds its value
    pieces = zip(ends, ends[1:], (*lefts, *rights[-1:], None), slopes)
    jump_rows = [(a, b, x) for a, b, x, s in pieces if s == 0 and is_finite(a) and is_finite(b)]
    want = _inverse_jump_rows_by_limits(g)
    assert jump_rows == (want if xs else [(l, r, None) for l, r, _ in want])


@oracle_settings
@given(instances())
@example(from_knot_data(REAL_LINE, [0], [1], [0, 0], -1, 0))  # a constant inverse
@example(PiecewiseMonotone(REAL_LINE, (), (2,), (0, 1)))  # one segment spanning the line
def test_inverse_from_segment_table_equals_token_walk(g):
    got = _outcome(generalized_inverse, g)
    want = _outcome(_generalized_inverse_by_tokens, g)
    assert got == want
    assert repr(got) == repr(want)
    if got[0] == "ok":
        # and on the inverse's inverse, which has flats and clamps of its own
        h = got[1]
        assert _outcome(generalized_inverse, h) == _outcome(_generalized_inverse_by_tokens, h)


@oracle_settings
@given(instances(), st.data())
def test_single_pass_canonicalisation_equals_restarts(g, data):
    # split segments at up to two interior continuity points each: knots
    # that change nothing
    breaks, slopes = [], [g.slopes[0]]
    knots = knots_by_evaluate(g)
    for i, seg in enumerate(segment_table(g)):
        a = seg.a
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            x = _probe_point(open_iv(a, seg.b))
            v = evaluate(g, x, RIGHT)
            breaks.append((x, v, v))
            slopes.append(seg.slope)
            a = x
        if i < len(knots):
            breaks.append(knots[i])
            slopes.append(g.slopes[i + 1])
    anchor = None if breaks else g.anchor
    got = PiecewiseMonotone(g.domain, tuple(breaks), tuple(slopes), anchor)
    want_breaks, want_slopes, removed = _canonical_by_restarts(tuple(breaks), tuple(slopes))
    assert tuple(zip(got.xs, got.lefts, got.rights)) == want_breaks
    assert got.slopes == want_slopes
    if not want_breaks and anchor is None:
        assert got.anchor == removed[:2]
    assert versions_equal(got, g)


@oracle_settings
@given(instances(), st.data())
def test_restrict_by_index_range_equals_scan(g, data):
    pts = [x for x in refine_grid(structural_xs(g)) if g.domain.contains(x)]
    ends = sorted(set(pts + [g.domain.lo, g.domain.hi]))
    i = data.draw(st.integers(min_value=0, max_value=len(ends) - 2))
    j = data.draw(st.integers(min_value=i + 1, max_value=len(ends) - 1))
    iv = open_iv(ends[i], ends[j])
    assert _outcome(restrict, g, iv) == _outcome(_restrict_by_scan, g, iv)
