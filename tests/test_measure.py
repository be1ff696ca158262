import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monoinv import monotone as mono
from monoinv.errors import (
    AmbiguousComposition,
    AnchorOutsideCarrier,
    CarrierMismatch,
    EmptyInterval,
    MonoinvError,
    NotAbsolutelyContinuous,
    NotLocallyFinite,
    PreconditionFailed,
    VersionAmbiguous,
    ZeroMeasure,
)
from monoinv.exactnum import ZERO, rat
from monoinv.intervals import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REAL_LINE,
    ClosedInterval,
    Interval,
    is_finite,
)
from monoinv.laws import GenConfig, gen_monotone
from monoinv.measure import (
    PiecewiseMeasure,
    StepFunction,
    associated_measure,
    density,
    distribution_function,
    gen_inverse_abs_cont,
    inverse_rule_check,
    inverse_slope_step,
    is_abs_cont_wrt,
    lebesgue_decompose,
    lebesgue_on,
    measure_of_open,
    pushforward,
    step_compose,
    step_of_slopes,
)
from monoinv.monotone import (
    LEFT,
    RIGHT,
    PiecewiseMonotone,
    evaluate,
    from_knot_data,
    generalized_inverse,
    inverse_domain,
    inverse_mass_interval,
    mass_interval,
    preimage_interior,
    refine_grid,
    structural_values,
    structural_xs,
)
from test_monotone import _inverse_tokens, equal_up_to_shift, segment_table


def atoms_of(m):
    """The atoms of m as (x, mass)."""
    return list(zip(m.atom_xs, m.atom_masses))


def pieces_of(m):
    """The nonzero cells of m's density as (lo, hi, density)."""
    return [(lo, hi, d) for lo, hi, d in m.abs_density.cells() if d != 0]


def lebesgue_restricted(g):
    """Lebesgue measure on the mass interval of the generalized inverse of g,
    carried on the inverse's regular domain."""
    return lebesgue_on(inverse_mass_interval(g), inverse_domain(g))


def probe_points(g):
    return refine_grid(structural_xs(g))


def measure_matches_limits(g, m):
    """Defining identity: the mass of every open (x, y) inside the carrier
    is G_l(y) - G_r(x)."""
    pts = [p for p in probe_points(g) if g.domain.contains(p)]
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            want = evaluate(g, y, LEFT) - evaluate(g, x, RIGHT)
            assert measure_of_open(m, x, y) == want
    return True


def pushforward_oracle(m, t, lo, hi):
    """Mass the image measure must give to (lo, hi): the mass of the exact
    preimage, computed by solving each affine piece of t independently."""
    from monoinv.monotone import first_x_with_left_ge, last_x_with_right_le

    a = last_x_with_right_le(t, lo)
    b = first_x_with_left_ge(t, hi)
    if not a < b:
        return rat(0)
    return measure_of_open(m, a, b)


# ---------------------------------------------------------------------------
# associated measure


def test_associated_measure_fixa(fixa, fixa_measure):
    m = associated_measure(fixa)
    assert m == fixa_measure
    assert not m.atom_xs
    assert measure_matches_limits(fixa, m)


def test_associated_measure_dirac(fixc):
    m = associated_measure(fixc)
    assert not pieces_of(m)
    assert atoms_of(m) == [(rat(0), rat(1))]


def test_associated_measure_of_fixa_inverse(fixa):
    q = generalized_inverse(fixa)
    m = associated_measure(q)
    assert atoms_of(m) == [(rat(1, 2), rat(1))]
    assert pieces_of(m) == [(rat(0), rat(1), rat(1))]
    assert measure_matches_limits(q, m)


def test_associated_measure_random_matches_limits():
    for seed in range(25):
        g = gen_monotone(GenConfig(seed=seed, max_knots=5))
        measure_matches_limits(g, associated_measure(g))


# ---------------------------------------------------------------------------
# distribution function


def test_distribution_function_of_lebesgue_is_identity():
    m = PiecewiseMeasure(REAL_LINE, (), ((REAL_LINE, 1),))
    g = distribution_function(m, 0)
    assert not g.xs
    assert g.slopes == (rat(1),)
    assert evaluate(g, 0, RIGHT) == rat(0)
    assert evaluate(g, 7, RIGHT) == rat(7)


def test_distribution_function_of_atom():
    m = PiecewiseMeasure(REAL_LINE, ((0, 1),), ())
    g = distribution_function(m, -1)
    assert evaluate(g, -1, RIGHT) == rat(0)
    assert evaluate(g, 0, LEFT) == rat(0)
    assert evaluate(g, 0, RIGHT) == rat(1)


def test_distribution_function_round_trip_fixd(fixd_measure, fixd):
    g = distribution_function(fixd_measure, rat(1, 2))
    assert equal_up_to_shift(g, fixd)
    assert associated_measure(g) == fixd_measure


def test_distribution_function_round_trip_random():
    for seed in range(25):
        g = gen_monotone(GenConfig(seed=seed, max_knots=6))
        m = associated_measure(g)
        from monoinv.monotone import _probe_point

        z = _probe_point(g.domain)
        back = distribution_function(m, z)
        assert equal_up_to_shift(back, g)
        assert associated_measure(back) == m


def test_distribution_function_errors(fixd_measure):
    with pytest.raises(ZeroMeasure):
        distribution_function(PiecewiseMeasure(Interval(0, 1), (), ()), rat(1, 2))
    with pytest.raises(AnchorOutsideCarrier):
        distribution_function(
            PiecewiseMeasure(Interval(0, 1), (), ((Interval(0, 1), 1),)), 5)


def test_anchor_shift_invariance(fixd_measure):
    g1 = distribution_function(fixd_measure, 0)
    g2 = distribution_function(fixd_measure, rat(3, 4))
    assert equal_up_to_shift(g1, g2)
    assert associated_measure(g1) == associated_measure(g2)


def test_distribution_function_with_atom_at_anchor():
    m = PiecewiseMeasure(REAL_LINE, ((0, 1),), ((Interval(0, 1), 1),))
    f = distribution_function(m, 0)
    # the right version vanishes at the anchor; the atom shows up on the left
    assert evaluate(f, 0, RIGHT) == rat(0)
    assert evaluate(f, 0, LEFT) == rat(-1)
    assert associated_measure(f) == m


# ---------------------------------------------------------------------------
# canonical form, against the dict-and-sort construction it replaced


def _canonical_by_dict(atoms, pieces):
    """Atoms merged in a dict keyed by location and sorted; pieces sorted by
    both ends, touching equal-density neighbours joined."""
    merged = {}
    for x, mass in atoms:
        merged[x] = merged.get(x, ZERO) + mass
    out = []
    for iv, d in sorted(pieces, key=lambda p: (p[0].lo, p[0].hi)):
        if out and out[-1][0].hi == iv.lo and out[-1][1] == d:
            out[-1] = (Interval(out[-1][0].lo, iv.hi), d)
        else:
            out.append((iv, d))
    return sorted(merged.items()), [(iv.lo, iv.hi, d) for iv, d in out]


def _distribution_function_by_sets(m, z):
    """The knots as a sorted set of atom locations and piece ends, each
    cell's slope from the piece that covers it."""
    pieces = pieces_of(m)
    pts = set(m.atom_xs)
    for lo, hi, _ in pieces:
        for end in (lo, hi):
            if is_finite(end) and m.carrier.contains(end):
                pts.add(end)
    pts = sorted(pts)
    if not pts:
        return PiecewiseMonotone(m.carrier, (), (pieces[0][2],), (z, ZERO))
    mass_at = dict(atoms_of(m))
    bounds = [m.carrier.lo, *pts, m.carrier.hi]
    slopes = []
    for a, b in zip(bounds, bounds[1:]):
        covering = [d for lo, hi, d in pieces if lo <= a and b <= hi]
        slopes.append(covering[0] if covering else ZERO)
    right, left = [ZERO], [-mass_at.get(pts[0], ZERO)]
    for i in range(1, len(pts)):
        left.append(right[i - 1] + slopes[i] * (pts[i] - pts[i - 1]))
        right.append(left[i] + mass_at.get(pts[i], ZERO))
    i = sum(1 for x in pts if x <= z)
    gz = left[0] - slopes[0] * (pts[0] - z) if i == 0 else right[i - 1] + slopes[i] * (
        z - pts[i - 1])
    return PiecewiseMonotone(m.carrier, tuple(
        (x, l - gz, r - gz) for x, l, r in zip(pts, left, right)), tuple(slopes))


grid = st.integers(min_value=-8, max_value=8).map(lambda k: rat(k, 2))
densities = st.sampled_from([rat(1), rat(2), rat(1, 3)])


@st.composite
def measure_parts(draw):
    """Atoms with repeated locations, and disjoint pieces, some touching and
    some reaching an infinite end, in a shuffled order."""
    atoms = draw(st.lists(st.tuples(grid, st.sampled_from([rat(1), rat(1, 4)])), max_size=6))
    ends = sorted(set(draw(st.lists(grid, max_size=8))))
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        if draw(st.integers(min_value=0, max_value=3)):
            pieces.append((Interval(lo, hi), draw(densities)))
    if ends and draw(st.booleans()):
        pieces.append((Interval(NEG_INF, ends[0]), draw(densities)))
    if ends and draw(st.booleans()):
        pieces.append((Interval(ends[-1], POS_INF), draw(densities)))
    return draw(st.permutations(atoms)), draw(st.permutations(pieces))


@given(measure_parts())
@settings(max_examples=300)
def test_canonical_form_matches_dict_and_sort(parts):
    atoms, pieces = parts
    m = PiecewiseMeasure(REAL_LINE, tuple(atoms), tuple(pieces))
    assert (atoms_of(m), pieces_of(m)) == _canonical_by_dict(atoms, pieces)
    if not m.is_zero:
        assert distribution_function(m, 0) == _distribution_function_by_sets(m, rat(0))


def test_canonical_form_errors():
    with pytest.raises(ValueError, match="pairwise disjoint"):
        PiecewiseMeasure(REAL_LINE, (), ((Interval(0, 2), 1), (Interval(0, 1), 1)))
    with pytest.raises(ValueError, match="pairwise disjoint"):
        PiecewiseMeasure(REAL_LINE, (), ((Interval(1, 3), 1), (Interval(0, 2), 1)))
    with pytest.raises(CarrierMismatch, match="atom at 2"):
        PiecewiseMeasure(Interval(0, 1), ((rat(1, 2), 1), (2, 1)), ())
    with pytest.raises(CarrierMismatch, match="piece"):
        PiecewiseMeasure(Interval(0, 1), (), ((Interval(rat(1, 2), 2), 1),))
    with pytest.raises(ValueError, match="atom mass"):
        PiecewiseMeasure(REAL_LINE, ((0, 0),), ())
    with pytest.raises(ValueError, match="density"):
        PiecewiseMeasure(REAL_LINE, (), ((Interval(0, 1), -1),))


@pytest.mark.parametrize("atoms, pieces, error, message", [
    ((), ((EMPTY, 1),), EmptyInterval, "uniform piece is empty"),
    ((), ((Interval(1, 1), 1),), EmptyInterval, "uniform piece is empty"),
    ((), ((ClosedInterval(0, 1), 1),), ValueError, "uniform piece must be open"),
    ((), ((ClosedInterval(NEG_INF, 1), 1),), ValueError, "uniform piece must be open"),
    ((), ((Interval(0, 1), 0),), ValueError, "piece density must be positive"),
    ((), ((Interval(0, 1), rat(-1, 2)),), ValueError, "piece density must be positive"),
    (((0, 0),), (), ValueError, "atom mass must be positive"),
    (((0, -1),), (), ValueError, "atom mass must be positive"),
])
def test_tuple_forms_refuse_invalid_pieces_and_atoms(atoms, pieces, error, message):
    # a piece's interval must be open and nonempty and its density positive,
    # an atom's mass positive; each refusal has its own type and text
    with pytest.raises(error) as raised:
        PiecewiseMeasure(REAL_LINE, atoms, pieces)
    assert type(raised.value) is error and str(raised.value) == message


def test_listings_are_gone(fixa, fixd_measure):
    # the columns are the only reading; a stale reader fails loudly
    for obj, name in ((fixa, "breaks"), (fixd_measure, "atoms"), (fixd_measure, "pieces")):
        with pytest.raises(AttributeError):
            getattr(obj, name)


# ---------------------------------------------------------------------------
# decomposition and density


def test_lebesgue_decompose_fixd(fixd_measure):
    abs_part, sing = lebesgue_decompose(fixd_measure)
    assert pieces_of(abs_part) == [(rat(0), rat(1), rat(1, 2))]
    assert not abs_part.atom_xs
    assert atoms_of(sing) == [(rat(1, 2), rat(1, 2))]
    assert not pieces_of(sing)


def test_lebesgue_decompose_pure_cases(fixb_measure, fixc_measure):
    a, s = lebesgue_decompose(fixb_measure)
    assert a == fixb_measure and s.is_zero
    a, s = lebesgue_decompose(fixc_measure)
    assert s == fixc_measure and a.is_zero


def test_lebesgue_decompose_additive_and_disjoint():
    for seed in range(20):
        g = gen_monotone(GenConfig(seed=seed, max_knots=6))
        m = associated_measure(g)
        abs_part, sing = lebesgue_decompose(m)
        assert not abs_part.atom_xs and not pieces_of(sing)
        pts = [p for p in probe_points(g) if g.domain.contains(p)]
        for x, y in zip(pts, pts[1:]):
            assert (measure_of_open(m, x, y)
                    == measure_of_open(abs_part, x, y) + measure_of_open(sing, x, y))


def test_inverse_mass_interval_length_is_total_mass():
    from monoinv.monotone import inverse_mass_interval

    for seed in range(20):
        g = gen_monotone(GenConfig(seed=seed, max_knots=6))
        m = associated_measure(g)
        iv = inverse_mass_interval(g)
        total = measure_of_open(m, g.domain.lo, g.domain.hi)
        if is_finite(iv.lo) and is_finite(iv.hi):
            assert iv.hi - iv.lo == total
        else:
            assert total is POS_INF


def test_density_fixa(fixa, fixa_measure):
    d = density(fixa_measure)
    assert d.knots == (rat(0), rat(1, 2), rat(3, 2), rat(2))
    assert d.values == (rat(0), rat(1), rat(0), rat(1), rat(0))
    assert d == step_of_slopes(fixa)


def test_density_errors(fixc_measure):
    with pytest.raises(NotAbsolutelyContinuous):
        density(fixc_measure)


def test_density_of_lebesgue_constant_one():
    d = density(PiecewiseMeasure(REAL_LINE, (), ((REAL_LINE, 1),)))
    assert d.knots == () and d.values == (rat(1),)


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_uniform_through_fixa_inverse(fixa, fixa_measure):
    q = generalized_inverse(fixa)
    lam_q = lebesgue_restricted(fixa)
    assert lam_q.carrier == Interval(0, 1)
    got = pushforward(lam_q, q)
    assert got == fixa_measure


def test_pushforward_uniform_through_fixd_inverse(fixd, fixd_measure):
    q = generalized_inverse(fixd)
    got = pushforward(lebesgue_restricted(fixd), q)
    assert got == fixd_measure
    # flat (1/4,3/4) collapses into the atom at 1/2
    assert atoms_of(got) == [(rat(1, 2), rat(1, 2))]


def test_pushforward_identity_map(fixb_measure):
    ident = PiecewiseMonotone(Interval(0, 1), (), (1,), (rat(1, 2), rat(1, 2)))
    assert pushforward(fixb_measure, ident) == PiecewiseMeasure(
        REAL_LINE, (), ((Interval(0, 1), 1),))


def test_pushforward_atom_on_jump_is_ambiguous(fixd):
    m = PiecewiseMeasure(REAL_LINE, ((rat(1, 2), 1),), ())
    with pytest.raises(VersionAmbiguous):
        pushforward(m, fixd)


def test_pushforward_to_inverse_domain_boundary_rejected():
    # mass on an infinite flat would land on the boundary of the image carrier
    t = from_knot_data(REAL_LINE, [0], [0], [0, 1], rat(1), 1)
    atom_on_flat = PiecewiseMeasure(REAL_LINE, ((-1, 1),), ())
    with pytest.raises(CarrierMismatch):
        pushforward(atom_on_flat, t)


def test_pushforward_against_probe_oracle():
    done = 0
    for seed in range(30):
        t = gen_monotone(GenConfig(seed=seed, max_knots=5, value_bound=10))
        m = lebesgue_on(mass_interval(t), t.domain)
        if m.is_zero:
            continue
        got = pushforward(m, t)
        vals = refine_grid(structural_values(t))
        for i, lo in enumerate(vals):
            for hi in vals[i + 1:]:
                want = pushforward_oracle(m, t, lo, hi)
                assert measure_of_open(got, lo, hi) == want
        done += 1
    assert done >= 20


# ---------------------------------------------------------------------------
# restricted Lebesgue measures


def test_lebesgue_restricted_fixa(fixa):
    lam = lebesgue_restricted(fixa)
    assert lam.carrier == Interval(0, 1)
    assert pieces_of(lam) == [(rat(0), rat(1), rat(1))]


def test_lebesgue_restricted_dirac(fixc):
    # the inverse sweeps (0,1); its mass interval carries the whole unit mass
    lam = lebesgue_restricted(fixc)
    assert lam.carrier == Interval(0, 1)
    assert pieces_of(lam) == [(rat(0), rat(1), rat(1))]


def test_lebesgue_restricted_identity_is_lebesgue():
    g = PiecewiseMonotone(REAL_LINE, (), (1,), (0, 0))
    lam = lebesgue_restricted(g)
    assert lam == PiecewiseMeasure(REAL_LINE, (), ((REAL_LINE, 1),))


# ---------------------------------------------------------------------------
# absolute continuity predicate


def test_abs_cont_gap_counterexample(fixa, fixa_measure):
    lam = lebesgue_on(Interval(0, 2), REAL_LINE)
    assert not is_abs_cont_wrt(lam, fixa_measure)  # the gap (1/2,3/2) is null for the measure
    assert is_abs_cont_wrt(fixa_measure, lam)


def test_abs_cont_abs_part_of_fixd(fixd_measure):
    abs_part, _ = lebesgue_decompose(fixd_measure)
    lam = lebesgue_on(Interval(0, 1), REAL_LINE)
    assert is_abs_cont_wrt(abs_part, lam)


def test_abs_cont_atom_vs_lebesgue(fixc_measure):
    lam = lebesgue_on(REAL_LINE, REAL_LINE)
    assert not is_abs_cont_wrt(fixc_measure, lam)
    assert is_abs_cont_wrt(lam, lam)


def test_abs_cont_requires_common_carrier(fixb_measure, fixc_measure):
    with pytest.raises(CarrierMismatch):
        is_abs_cont_wrt(fixb_measure, fixc_measure)


def test_abs_cont_point_gaps_are_null():
    a = lebesgue_on(Interval(0, 2), REAL_LINE)
    b = PiecewiseMeasure(REAL_LINE, (), ((Interval(0, 1), 1), (Interval(1, 2), 2)))
    assert is_abs_cont_wrt(a, b)


def _abs_cont_by_scan(a, b):
    """is_abs_cont_wrt from the listed pieces alone: every piece of a is
    covered by b's pieces up to finitely many points when, from its lower
    end on, a scan of all of b's pieces always finds one that holds the
    point reached so far (or starts there) and reaches past it."""
    if any(x not in b.atom_xs for x in a.atom_xs):
        return False
    for lo, hi, _ in pieces_of(a):
        reached = lo
        while reached < hi:
            ends = [q_hi for q_lo, q_hi, _ in pieces_of(b) if q_lo <= reached < q_hi]
            if not ends:
                return False
            reached = ends[0]
    return True


@given(measure_parts(), measure_parts(), st.data())
@settings(max_examples=300)
def test_merge_walk_abs_cont_equals_scan(parts_a, parts_b, data):
    a = PiecewiseMeasure(REAL_LINE, tuple(parts_a[0]), tuple(parts_a[1]))
    b = PiecewiseMeasure(REAL_LINE, tuple(parts_b[0]), tuple(parts_b[1]))
    # Lebesgue on disjoint intervals between b's piece ends and their
    # midpoints: inside one run of b, across a touching point, or over a gap
    ends = sorted({e for lo, hi, _ in pieces_of(b) for e in (lo, hi) if is_finite(e)})
    points = sorted({*ends, *((x + y) / 2 for x, y in zip(ends, ends[1:]))})
    cuts = sorted(data.draw(st.sets(st.sampled_from(points))) if points else [])
    inner = PiecewiseMeasure(REAL_LINE, (), tuple(
        (Interval(lo, hi), 1) for lo, hi in zip(cuts[::2], cuts[1::2])))
    for x, y in ((a, b), (b, a), (inner, b), (b, b), (inner, a)):
        assert is_abs_cont_wrt(x, y) == _abs_cont_by_scan(x, y)


# ---------------------------------------------------------------------------
# absolute continuity of the generalized inverse


def test_gen_inverse_abs_cont_fixa(fixa):
    assert not gen_inverse_abs_cont(fixa, Interval(0, 1))


def test_gen_inverse_abs_cont_fixd(fixd):
    assert gen_inverse_abs_cont(fixd, Interval(0, 1))


def test_gen_inverse_abs_cont_dirac(fixc):
    # singleton image: every characterization holds trivially
    assert gen_inverse_abs_cont(fixc, Interval(0, 1))


def test_gen_inverse_abs_cont_subintervals(fixa):
    # away from the flat's level the inverse is fine
    assert gen_inverse_abs_cont(fixa, Interval(0, rat(1, 2)))
    assert not gen_inverse_abs_cont(fixa, Interval(rat(1, 4), rat(3, 4)))


def test_gen_inverse_abs_cont_requires_subinterval(fixd):
    with pytest.raises(PreconditionFailed):
        gen_inverse_abs_cont(fixd, Interval(-5, 5))


# ---------------------------------------------------------------------------
# inverse-function rule


def test_inverse_rule_identity(fixb):
    composed, reciprocal = inverse_rule_check(fixb)
    assert composed == reciprocal
    assert reciprocal == StepFunction(Interval(0, 1), (), (rat(1),))


def test_inverse_rule_fixd(fixd):
    # slope 1/2 on both sides of the atom at 1/2, inverse slope 2 on both flanks
    composed, reciprocal = inverse_rule_check(fixd)
    assert composed == reciprocal
    assert reciprocal == StepFunction(Interval(0, 1), (), (rat(2),))


def test_inverse_rule_two_slopes():
    g = from_knot_data(REAL_LINE, [0, 1, 2], [0, 0, 0], [0, 1, 3, 0], -1, 0)
    composed, reciprocal = inverse_rule_check(g)
    assert composed == reciprocal
    # g' = 1 then 3 on the mass interval (0, 2); the inverse's slopes 1 and 1/3
    assert reciprocal == StepFunction(Interval(0, 2), (rat(1),), (rat(1), rat(1, 3)))
    assert inverse_slope_step(g) == StepFunction(Interval(0, 4), (rat(1),), (rat(1), rat(1, 3)))


def test_inverse_rule_empty_mass_interval(fixc):
    # the unit atom: the inverse is constant on (0, 1) and M is empty
    assert mass_interval(fixc).is_empty
    assert inverse_rule_check(fixc) is None


def test_inverse_rule_precondition(fixa):
    with pytest.raises(PreconditionFailed):
        inverse_rule_check(fixa)


def test_inverse_rule_random():
    done = 0
    for seed in range(40):
        g = gen_monotone(GenConfig(seed=seed, max_knots=6))
        if not gen_inverse_abs_cont(g, inverse_domain(g)):
            continue
        rule = inverse_rule_check(g)
        assert rule is None or rule[0] == rule[1]
        done += 1
    assert done >= 10


def test_level_crossings_of_a_segment_spanning_the_line():
    # one rising segment over the whole line has no finite end to measure
    # from; where it reaches a level comes from the anchor g(0) = 1
    g = PiecewiseMonotone(REAL_LINE, (), (2,), (0, 1))
    assert preimage_interior(g, Interval(0, 5)) == Interval(rat(-1, 2), 2)
    assert gen_inverse_abs_cont(g, Interval(0, 5))
    f = StepFunction(Interval(0, 5), (rat(1),), (rat(1), rat(2)))
    assert step_compose(f, g) == StepFunction(Interval(rat(-1, 2), 2), (rat(0),), (rat(1), rat(2)))


# ---------------------------------------------------------------------------
# fast paths against the code they replaced
#
# Each function below is the earlier implementation, kept here only as an
# oracle for the index-range pushforward, the bisecting step lookups, the
# inverse's slopes read from its columns and the inverse rule checked
# through step_compose.  The oracles read g's segments from test_monotone's
# segment_table, a table built through evaluate.

oracle_settings = settings(max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    max_knots = draw(st.integers(min_value=1, max_value=12))
    return gen_monotone(GenConfig(seed=seed, max_knots=max_knots))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (MonoinvError, ValueError) as e:
        return "error", type(e), str(e)


def _pushforward_by_pairs(m, t):
    """Every piece against every segment of the map."""
    if not t.domain.contains_interval(m.carrier):
        raise CarrierMismatch("carrier of the measure must lie inside the domain of the map")
    jump_xs = {t.xs[i] for i in mono.jumps(t)}
    out_atoms = {}

    def add_atom(x, mass):
        out_atoms[x] = out_atoms.get(x, ZERO) + mass

    for x, mass in atoms_of(m):
        if x in jump_xs:
            raise VersionAmbiguous(
                f"atom at {x} sits on a jump of the map; the image depends on the version")
        add_atom(evaluate(t, x, RIGHT), mass)
    out_pieces = []
    for p_lo, p_hi, density in pieces_of(m):
        for seg in segment_table(t):
            lo = max(p_lo, seg.a)
            hi = min(p_hi, seg.b)
            if not lo < hi:
                continue
            if seg.slope == 0:
                if not (is_finite(lo) and is_finite(hi)):
                    raise NotLocallyFinite(
                        "a flat of infinite length carries infinite mass to one point")
                add_atom(seg.u, density * (hi - lo))
            else:
                u = evaluate(t, lo, RIGHT) if is_finite(lo) else seg.u
                v = evaluate(t, hi, LEFT) if is_finite(hi) else seg.v
                out_pieces.append((Interval(u, v), density / seg.slope))
    atoms = tuple(sorted(out_atoms.items()))
    return PiecewiseMeasure(inverse_domain(t), atoms, tuple(out_pieces))


def _inverse_slope_step_by_tokens(g):
    dom, segs, _ = _inverse_tokens(g)
    knots = []
    values = [segs[0][2]]
    for prev, cur in zip(segs, segs[1:]):
        knots.append(prev[1])
        values.append(cur[2])
    return StepFunction(dom, tuple(knots), tuple(values))


def _inverse_rule_by_probes(g):
    """The rule's verdict from one probe level per piece of g on the mass
    interval: g's slope there against the reciprocal of the inverse's."""
    if not gen_inverse_abs_cont(g, inverse_domain(g)):
        raise PreconditionFailed("the generalized inverse is not absolutely continuous")
    m_int = mass_interval(g)
    if m_int.is_empty:
        return True
    hstep = _inverse_slope_step_by_tokens(g)
    ok = True
    for seg in segment_table(g):
        lo = max(seg.a, m_int.lo)
        hi = min(seg.b, m_int.hi)
        if not lo < hi:
            continue
        hprime = hstep.value_at(mono._probe_point(Interval(seg.u, seg.v)))
        ok = ok and 1 / hprime == seg.slope
    return ok


def _inverse_rule_verdict(g):
    rule = inverse_rule_check(g)
    return rule is None or rule[0] == rule[1]


def _value_at_by_scan(f, t):
    if not f.carrier.contains(t):
        raise ValueError(f"{t} outside carrier")
    if t in f.knots:
        raise ValueError(f"{t} is a knot; the class has no value there")
    i = 0
    while i < len(f.knots) and f.knots[i] < t:
        i += 1
    return f.values[i]


def _step_compose_by_scan(f, g):
    target = mono.preimage_interior(g, f.carrier)
    if target.is_empty:
        raise CarrierMismatch("g never enters the carrier of f")
    cut = set()
    for x in (g.xs[i] for i in mono.jumps(g)):
        if target.contains(x):
            cut.add(x)
    segs = segment_table(g)
    for seg in segs:
        lo = max(seg.a, target.lo)
        hi = min(seg.b, target.hi)
        if not lo < hi:
            continue
        for end in (lo, hi):
            if is_finite(end) and target.contains(end):
                cut.add(end)
        if seg.slope == 0:
            continue
        for k in f.knots:
            if seg.u < k < seg.v:
                if is_finite(seg.a):
                    x = seg.a + (k - seg.u) / seg.slope
                elif is_finite(seg.b):
                    x = seg.b - (seg.v - k) / seg.slope
                else:
                    ax, av = g.anchor
                    x = ax + (k - av) / seg.slope
                if target.contains(x):
                    cut.add(x)
    knots = sorted(cut)
    bounds = [target.lo, *knots, target.hi]
    values = []
    for a, b in zip(bounds, bounds[1:]):
        probe = mono._probe_point(Interval(a, b))
        gseg = next(seg for seg in segs if seg.a <= probe < seg.b)
        if gseg.slope == 0:
            c = gseg.u
            if c in f.knots:
                raise AmbiguousComposition(
                    f"g is constant at the knot value {c} of f on a set of positive length")
            values.append(_value_at_by_scan(f, c))
        else:
            values.append(_value_at_by_scan(f, evaluate(g, probe, RIGHT)))
    return StepFunction(target, tuple(knots), tuple(values))


@oracle_settings
@given(instances())
def test_pushforward_by_ranges_equals_all_pairs(t):
    # Lebesgue measure crosses many segments (on the whole domain it may put
    # infinite mass on a flat); the abs. cont. part of t's own measure has
    # one piece per rising segment; the whole measure may put atoms on jumps
    mu = associated_measure(t)
    for m in (lebesgue_on(mass_interval(t), t.domain), lebesgue_on(t.domain, t.domain),
              lebesgue_decompose(mu)[0], mu):
        assert _outcome(pushforward, m, t) == _outcome(_pushforward_by_pairs, m, t)


@oracle_settings
@given(instances())
def test_bisecting_value_at_equals_scan(g):
    for f in (step_of_slopes(g), inverse_slope_step(g)):
        for t in refine_grid(list(f.knots) + structural_xs(g)):
            assert _outcome(f.value_at, t) == _outcome(_value_at_by_scan, f, t)


@oracle_settings
@given(instances(), st.data())
def test_bisecting_step_compose_equals_scan(g, data):
    # a step class on the hull of g's values, cut at some of g's levels
    carrier = inverse_mass_interval(g)
    if carrier.is_empty:
        return
    levels = [v for v in refine_grid(structural_values(g)) if carrier.contains(v)]
    knots = sorted(data.draw(st.sets(st.sampled_from(levels))) if levels else [])
    values = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=len(knots) + 1, max_size=len(knots) + 1))
    f = StepFunction(carrier, tuple(knots), tuple(rat(v) for v in values))
    assert _outcome(step_compose, f, g) == _outcome(_step_compose_by_scan, f, g)


@oracle_settings
@given(instances())
def test_inverse_slopes_from_segment_table_equal_token_walk(g):
    got = _outcome(inverse_slope_step, g)
    assert got == _outcome(_inverse_slope_step_by_tokens, g)
    assert repr(got) == repr(_outcome(_inverse_slope_step_by_tokens, g))


@oracle_settings
@given(instances())
def test_inverse_rule_through_step_compose_equals_probes(g):
    assert _outcome(_inverse_rule_verdict, g) == _outcome(_inverse_rule_by_probes, g)
    # the restriction to the mass interval has the same inverse rule, and
    # an absolutely continuous inverse more often
    restricted = _outcome(mono.restrict, g, mass_interval(g))
    if restricted[0] == "ok":
        r = restricted[1]
        assert _outcome(_inverse_rule_verdict, r) == _outcome(_inverse_rule_by_probes, r)
