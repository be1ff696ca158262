"""Objects the library builds itself equal their rebuild through the public constructors.

Builders whose output is canonical by construction (distribution_function,
generalized_inverse, lebesgue_decompose, lebesgue_on, density) make it with
monotone._trusted, which runs no check; those whose pieces or cells may
repeat a density (associated_measure, pushforward, the sample measure,
step_of_slopes, inverse_slope_step) run only the merge pass they share with
the public constructor.  The oracle rebuilds each result through the public
constructors (monotone.validate, rebuild_measure, rebuild_step), which
raise on invalid data and canonicalise: a result equal to its rebuild, down
to the types of its numbers, is valid and canonical.
"""

import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monoinv import cli, measure
from monoinv.errors import ConstantFunction, MonoinvError
from monoinv.exactnum import rat
from monoinv.intervals import REAL_LINE, is_finite
from monoinv.laws import GenConfig, gen_monotone
from monoinv.measure import (
    PiecewiseMeasure,
    StepFunction,
    associated_measure,
    density,
    distribution_function,
    inverse_slope_step,
    lebesgue_decompose,
    lebesgue_on,
    pushforward,
    step_of_slopes,
)
from monoinv.monotone import (
    Breakpoint,
    PiecewiseMonotone,
    _probe_point,
    _trusted,
    from_knot_data,
    generalized_inverse,
    inverse_domain,
    inverse_mass_interval,
    mass_interval,
    validate,
)

oracle_settings = settings(max_examples=150, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


def rebuild_measure(m: PiecewiseMeasure) -> PiecewiseMeasure:
    """m rebuilt through the public constructors of the measure, its atoms and its pieces."""
    return PiecewiseMeasure(m.carrier, tuple((a.x, a.mass) for a in m.atoms),
                            tuple((p.interval, p.density) for p in m.pieces))


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
    points = {_probe_point(m.carrier), *(a.x for a in m.atoms)}
    for p in m.pieces:
        points.update(e for e in (p.interval.lo, p.interval.hi) if is_finite(e))
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
        ("inverse_slope_step", inverse_slope_step(g)),
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
        out.append(("generalized_inverse", h))
        maps.append((lebesgue_on(inverse_mass_interval(g), inverse_domain(g)), h))
    for m, t in maps:
        try:
            out.append(("pushforward", pushforward(m, t)))
        except MonoinvError:  # an atom on a jump, or infinite mass on a flat
            pass
    return out


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    max_knots = draw(st.integers(min_value=1, max_value=12))
    unimodal = draw(st.booleans())
    return gen_monotone(GenConfig(seed=seed, max_knots=max_knots, force_unimodal=unimodal))


# slope 1 on both sides of a unit jump: two touching pieces of density 1
EQUAL_SLOPES_ACROSS_JUMP = from_knot_data(REAL_LINE, [0], [1], [1, 1], -1, 0)


@oracle_settings
@given(instances())
@example(EQUAL_SLOPES_ACROSS_JUMP)
def test_trusted_builders_equal_public_rebuild(g):
    for name, obj in trusted_results(g):
        assert same_as_public(obj), (name, obj)


@oracle_settings
@given(st.lists(st.tuples(st.integers(min_value=-6, max_value=6),
                          st.sampled_from([1, 2, 3])), min_size=2, max_size=40))
@example([(i, 1) for i in range(10)])  # a uniform grid: every gap has the same density
def test_sample_measure_equals_public_rebuild(samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "samples.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{num}/{den}\n" for num, den in samples))
        m = cli.samples_to_measure(cli.read_samples(path, header=False), allow_degenerate=True)
    assert same_as_public(m)
    for z in _anchors(m):
        assert same_as_public(distribution_function(m, z))


def test_oracle_catches_associated_measure_without_merge(monkeypatch):
    g = EQUAL_SLOPES_ACROSS_JUMP
    assert same_as_public(associated_measure(g))
    assert len(associated_measure(g).pieces) == 1

    def unmerged(carrier, atoms, pieces):
        return _trusted(PiecewiseMeasure, carrier=carrier, atoms=tuple(atoms),
                        pieces=tuple(pieces))

    monkeypatch.setattr(measure, "_canonical_measure", unmerged)
    assert len(associated_measure(g).pieces) == 2
    assert not same_as_public(associated_measure(g))


def test_oracle_catches_a_removable_knot():
    g = EQUAL_SLOPES_ACROSS_JUMP
    b = g.breaks[0]
    kept = _trusted(PiecewiseMonotone, domain=g.domain,
                    breaks=(b, _trusted(Breakpoint, x=rat(1), left=b.right + 1, right=b.right + 1)),
                    slopes=(g.slopes[0], g.slopes[1], g.slopes[1]), anchor=None)
    assert validate(kept) == g
    assert not same_as_public(kept)

