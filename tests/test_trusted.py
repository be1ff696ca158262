"""Objects the library builds itself equal their rebuild through the public constructors.

Functions and measures hold their knots and atoms as columns (xs, lefts,
rights; atom_xs, atom_masses), and a measure's pieces as the cells of its
density (abs_density); the public constructors take them as plain tuples.
Builders whose output is canonical by construction
(distribution_function, the sample function samples.samples_to_function,
the sample measure samples.samples_to_measure, generalized_inverse,
lebesgue_decompose, density, and the law generators
through monotone._assembled, which keeps only the knot drop)
fill the columns through monotone._trusted, which runs no check; those
whose cells may repeat a density (associated_measure, lebesgue_on,
pushforward) run only the cell merge they share with the public
constructors, and step_of_slopes, of a function and of its generalized
inverse, runs it only where a jump parts two equal slopes and takes the
function's own columns otherwise.  The oracle rebuilds each result through
the public constructors (monotone.validate, rebuild_measure, rebuild_step),
fed from the columns, which raise on invalid data and canonicalise: a
result equal to its rebuild, down to the types of its numbers, is valid
and canonical.  The generated instances' inverses meet every case that
generalized_inverse tells apart: a jump of g, a finite end of g's domain
on either side, and an inverse of one segment.

The public PiecewiseMeasure constructor turns its pieces into the cells of
a step class; a second oracle holds the nonzero cells of that class to a
merge of the given pieces written here, which shares no
code with the cell merge, so a merge that joins pieces it must not (across
a gap) shows there even though the public rebuild makes the same mistake.
"""

import os
import random
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monoinv import laws, measure
from monoinv.errors import ConstantFunction, MonoinvError
from monoinv.exactnum import rat
from monoinv.intervals import NEG_INF, POS_INF, REAL_LINE, Interval, is_finite
from monoinv.laws import GenConfig
from monoinv.measure import (
    PiecewiseMeasure,
    StepFunction,
    associated_measure,
    density,
    distribution_function,
    lebesgue_decompose,
    lebesgue_on,
    pushforward,
    step_of_slopes,
)
from monoinv.monotone import (
    PiecewiseMonotone,
    _probe_point,
    _trusted,
    from_knot_data,
    generalized_inverse,
    inverse_domain,
    inverse_mass_interval,
    jumps,
    mass_interval,
    validate,
)
from monoinv.samples import read_samples, samples_to_function, samples_to_measure
from test_measure import atoms_of, pieces_of

oracle_settings = settings(max_examples=150, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


def rebuild_measure(m: PiecewiseMeasure) -> PiecewiseMeasure:
    """m rebuilt through the public constructor from its atoms and the nonzero
    cells of its density."""
    return PiecewiseMeasure(m.carrier, tuple(atoms_of(m)),
                            tuple((Interval(lo, hi), d) for lo, hi, d in pieces_of(m)))


def rebuild_step(f: StepFunction) -> StepFunction:
    """f rebuilt through the public StepFunction constructor."""
    return StepFunction(f.carrier, f.knots, f.values)


def same_as_public(obj) -> bool:
    """Does obj equal its rebuild through the public constructors?"""
    if isinstance(obj, PiecewiseMonotone):
        rebuild = validate
    elif isinstance(obj, PiecewiseMeasure):
        rebuild = rebuild_measure
    else:
        rebuild = rebuild_step
    try:
        rebuilt = rebuild(obj)
    except (MonoinvError, ValueError):
        return False
    return rebuilt == obj and repr(rebuilt) == repr(obj)


def _anchors(m: PiecewiseMeasure) -> list:
    """Anchors for distribution_function inside m's carrier: a probe point,
    every atom (the anchor may sit on one) and every finite piece end."""
    points = {_probe_point(m.carrier), *m.atom_xs}
    for lo, hi, _ in pieces_of(m):
        points.update(e for e in (lo, hi) if is_finite(e))
    return sorted(x for x in points if m.carrier.contains(x))


def trusted_results(g: PiecewiseMonotone):
    """(builder, result) for every library builder applied to g and to the
    measures made from it."""
    mu = associated_measure(g)
    abs_part, atomic = lebesgue_decompose(mu)
    out = [
        ("associated_measure", mu),
        ("lebesgue_decompose", abs_part),
        ("lebesgue_decompose", atomic),
        ("density", density(abs_part)),
        ("step_of_slopes", step_of_slopes(g)),
        ("lebesgue_on", lebesgue_on(mass_interval(g), g.domain)),
        ("lebesgue_on", lebesgue_on(inverse_mass_interval(g), inverse_domain(g))),
    ]
    for m in (mu, abs_part, atomic):
        if not m.is_zero:
            out += [("distribution_function", distribution_function(m, z)) for z in _anchors(m)]
    try:
        h = generalized_inverse(g)
    except ConstantFunction:
        h = None
    maps = [(lebesgue_on(mass_interval(g), g.domain), g), (mu, g), (abs_part, g)]
    if h is not None:
        out += [("generalized_inverse", h), ("step_of_slopes", step_of_slopes(h))]
        maps.append((lebesgue_on(inverse_mass_interval(g), inverse_domain(g)), h))
    for m, t in maps:
        try:
            out.append(("pushforward", pushforward(m, t)))
        except MonoinvError:  # an atom on a jump, or infinite mass on a flat
            pass
    return out


def naive_merge(pieces) -> list:
    """The (interval, density) pieces as (lo, hi, density), sorted by their
    lower end, with touching neighbours of equal density joined."""
    out = []
    for iv, d in sorted(pieces, key=lambda p: p[0].lo):
        if out and out[-1][1] == iv.lo and out[-1][2] == d:
            out[-1] = (out[-1][0], iv.hi, d)
        else:
            out.append((iv.lo, iv.hi, d))
    return out


def pieces_are_merged(carrier, pieces) -> bool:
    """Are the nonzero cells of the measure of pieces on carrier the pieces
    as naive_merge merges them?"""
    return pieces_of(PiecewiseMeasure(carrier, (), tuple(pieces))) == naive_merge(pieces)


# the instance generators of the registered laws
GENERATORS = (laws._gen_any, laws._gen_cdf_like, laws._gen_locally_finite)
GENERATED_SEEDS = range(300)


@st.composite
def instances(draw):
    gen = draw(st.sampled_from(GENERATORS))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    max_knots = draw(st.integers(min_value=1, max_value=12))
    return gen(random.Random(seed), GenConfig(max_knots=max_knots))


def generated():
    """Instances of every law generator at fixed seeds.  Each generator picks
    its branch with its rng's first draw; these seeds reach every branch, the
    lone segment of _gen_locally_finite (a first draw below 0.04) among them."""
    for gen in GENERATORS:
        for seed in GENERATED_SEEDS:
            yield gen(random.Random(seed), GenConfig(max_knots=1 + seed % 12))


def equal_slopes_across_jump():
    """Slope 1 on both sides of a unit jump: two touching pieces of density 1.

    Each call makes a fresh instance.  A function keeps the tables it has
    derived (associated_measure among them), so a test that patches a
    builder needs an instance no earlier call has derived a table from.
    """
    return from_knot_data(REAL_LINE, [0], [1], [1, 1], -1, 0)


def equal_slopes_across_flat():
    """Slope 1 on both sides of a flat: two pieces of density 1 with a gap
    between; a fresh instance on each call."""
    return from_knot_data(REAL_LINE, [0, 1], [0, 0], [1, 0, 1], -1, 0)


EQUAL_SLOPES_ACROSS_JUMP = equal_slopes_across_jump()
EQUAL_SLOPES_ACROSS_FLAT = equal_slopes_across_flat()


@oracle_settings
@given(instances())
@example(EQUAL_SLOPES_ACROSS_JUMP)
@example(EQUAL_SLOPES_ACROSS_FLAT)
def test_trusted_builders_equal_public_rebuild(g):
    assert same_as_public(g)
    for name, obj in trusted_results(g):
        assert same_as_public(obj), (name, obj)


def inverse_branches(g) -> set:
    """The cases of g that generalized_inverse tells apart in building its inverse."""
    branches = {"jump"} if jumps(g) else set()
    if is_finite(g.domain.lo):
        branches.add("finite lo")
    if is_finite(g.domain.hi):
        branches.add("finite hi")
    if not generalized_inverse(g).xs:
        branches.add("lone segment")
    return branches


def test_generated_instances_equal_public_rebuild():
    # their inverses too, built in each case generalized_inverse tells apart
    assert 5 <= sum(random.Random(seed).random() < 0.04 for seed in GENERATED_SEEDS)
    branches = set()
    for g in generated():
        assert same_as_public(g), g
        try:
            h = generalized_inverse(g)
        except ConstantFunction:
            continue
        assert same_as_public(h), g
        branches |= inverse_branches(g)
    assert branches == {"jump", "finite lo", "finite hi", "lone segment"}


@oracle_settings
@given(st.lists(st.tuples(st.integers(min_value=-6, max_value=6),
                          st.sampled_from([1, 2, 3])), min_size=2, max_size=40))
@example([(i, 1) for i in range(10)])  # a uniform grid: every gap has the same density
def test_sample_measure_equals_public_rebuild(samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "samples.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{num}/{den}\n" for num, den in samples))
        parsed = read_samples(path, header=False)
    m = samples_to_measure(parsed)
    assert same_as_public(m)
    for z in _anchors(m):
        assert same_as_public(distribution_function(m, z))
        if len(parsed[0]) >= 2:
            assert same_as_public(samples_to_function(parsed, z))


@st.composite
def carrier_and_pieces(draw):
    """A carrier, the real line or a finite open interval, and disjoint
    pieces inside it on a half-integer grid, some touching each other or
    an end of the carrier, some reaching an infinite end, some with a gap
    between equal densities, in a shuffled order."""
    ends = sorted(set(draw(st.lists(st.integers(min_value=-8, max_value=8), max_size=9))))
    ends = [rat(k, 2) for k in ends]
    carrier = REAL_LINE
    if len(ends) >= 2 and draw(st.booleans()):
        carrier = Interval(ends[0], ends[-1])
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        if draw(st.integers(min_value=0, max_value=3)):
            pieces.append((Interval(lo, hi), draw(st.sampled_from([rat(1), rat(2), rat(1, 3)]))))
    if carrier is REAL_LINE and ends:
        if draw(st.booleans()):
            pieces.append((Interval(NEG_INF, ends[0]), rat(1)))
        if draw(st.booleans()):
            pieces.append((Interval(ends[-1], POS_INF), rat(1)))
    return carrier, draw(st.permutations(pieces))


# density 1 on (0, 1) and on (2, 3), with a gap between them
GAP_BETWEEN_EQUAL_DENSITIES = (REAL_LINE, [(Interval(0, 1), rat(1)), (Interval(2, 3), rat(1))])


@oracle_settings
@given(carrier_and_pieces())
@example(GAP_BETWEEN_EQUAL_DENSITIES)
@example((Interval(0, 2), [(Interval(0, 1), rat(1)), (Interval(1, 2), rat(1))]))
def test_public_pieces_equal_naive_merge(parts):
    assert pieces_are_merged(*parts)


def test_oracle_catches_associated_measure_without_merge(monkeypatch):
    g = equal_slopes_across_jump()
    assert same_as_public(associated_measure(g))
    assert len(pieces_of(associated_measure(g))) == 1

    def unmerged(g):
        return _trusted(StepFunction, carrier=g.domain, knots=g.xs, values=g.slopes)

    monkeypatch.setattr(measure, "step_of_slopes", unmerged)
    g = equal_slopes_across_jump()
    assert len(pieces_of(associated_measure(g))) == 2
    assert not same_as_public(associated_measure(g))


def test_oracle_catches_a_removable_knot():
    g = EQUAL_SLOPES_ACROSS_JUMP
    v = g.rights[0] + 1  # the value at 1 on the segment of slope 1 after the jump
    kept = _trusted(PiecewiseMonotone, domain=g.domain,
                    slopes=(g.slopes[0], g.slopes[1], g.slopes[1]), anchor=None,
                    xs=(g.xs[0], rat(1)), lefts=(g.lefts[0], v), rights=(g.rights[0], v))
    assert validate(kept) == g
    assert not same_as_public(kept)


def test_oracle_catches_a_merge_across_a_gap(monkeypatch):
    # pushforward's cells go through _density_step's cell merge; the
    # identity carries the two pieces of equal density and their gap as they are
    carrier, pieces = GAP_BETWEEN_EQUAL_DENSITIES
    m = PiecewiseMeasure(carrier, (), pieces)
    identity = PiecewiseMonotone(REAL_LINE, (), (1,), (0, 0))
    assert pieces_are_merged(*GAP_BETWEEN_EQUAL_DENSITIES)
    assert len(pieces_of(pushforward(m, identity))) == 2

    def drops_gaps_between_equal_cells(knots, values):
        """_merge_cells, except that a zero cell between two cells of equal
        value goes too."""
        ks, vs = [], [values[0]]
        for k, v in zip(knots, values[1:]):
            if v == vs[-1]:
                continue
            if len(vs) >= 2 and vs[-1] == 0 and vs[-2] == v:
                ks.pop()
                vs.pop()
                continue
            ks.append(k)
            vs.append(v)
        return tuple(ks), tuple(vs)

    monkeypatch.setattr(measure, "_merge_cells", drops_gaps_between_equal_cells)
    assert len(pieces_of(pushforward(m, identity))) == 1
    # the public rebuild runs the same merge; only the naive merge tells
    assert same_as_public(pushforward(m, identity))
    assert not pieces_are_merged(*GAP_BETWEEN_EQUAL_DENSITIES)
