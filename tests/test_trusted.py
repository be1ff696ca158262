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

Intervals whose ends the library has ordered itself (sample gaps, rising
segments, joined pieces, pushforward images, coverage runs) are made by
intervals._open, which runs no check.  Their oracle records every such
interval, which must be the open, nonempty Interval(lo, hi), and runs each
builder again with _open, the piece merge and the coverage runs replaced by
checked versions that build every interval through Interval and compare
ends by equality alone: the results must be the same.
"""

import contextlib
import os
import sys
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monoinv import cli, intervals, measure
from monoinv.errors import ConstantFunction, MonoinvError
from monoinv.exactnum import rat
from monoinv.intervals import REAL_LINE, Interval, is_finite, require_open_nonempty
from monoinv.laws import GenConfig, gen_monotone
from monoinv.measure import (
    PiecewiseMeasure,
    StepFunction,
    UniformPiece,
    associated_measure,
    density,
    distribution_function,
    gen_inverse_abs_cont,
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


@contextlib.contextmanager
def _replaced(**replacements):
    """Every monoinv namespace binding one of the named functions of measure
    (which binds intervals._open too) binds the replacement instead, for the
    duration of the block."""
    undo = []
    for name, new in replacements.items():
        current = getattr(measure, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("monoinv") and getattr(mod, name, None) is current:
                undo.append((mod, name, current))
                setattr(mod, name, new)
    try:
        yield
    finally:
        for mod, name, current in undo:
            setattr(mod, name, current)


def _open_checked(lo, hi):
    return require_open_nonempty(Interval(lo, hi))


def _merge_pieces_checked(pieces):
    out = []
    for p in pieces:
        if out and out[-1].interval.hi == p.interval.lo and out[-1].density == p.density:
            out[-1] = UniformPiece(Interval(out[-1].interval.lo, p.interval.hi), p.density)
        else:
            out.append(p)
    return tuple(out)


def _coverage_checked(pieces):
    out = []
    for p in pieces:
        if out and p.interval.lo == out[-1].hi:
            out[-1] = Interval(out[-1].lo, p.interval.hi)
        else:
            out.append(p.interval)
    return out


def _outcome(build):
    try:
        return "ok", build()
    except MonoinvError as e:
        return "error", type(e), str(e)


def trusted_intervals_hold(build) -> bool:
    """Is every interval _open makes while build() runs the open, nonempty
    Interval of its ends, and is build()'s result the same with every
    interval made and joined through the checked constructor?"""
    made = []
    fast_open = intervals._open

    def recording(lo, hi):
        iv = fast_open(lo, hi)
        made.append(iv)
        return iv

    with _replaced(_open=recording):
        fast = _outcome(build)
    with _replaced(_open=_open_checked, _merge_pieces=_merge_pieces_checked,
                   _coverage=_coverage_checked):
        checked = _outcome(build)
    for iv in made:
        try:
            if _open_checked(iv.lo, iv.hi) != iv:
                return False
        except (MonoinvError, ValueError):
            return False
    return fast == checked and repr(fast) == repr(checked)


def trusted_interval_results(g: PiecewiseMonotone):
    """trusted_results(g), and the verdict of gen_inverse_abs_cont on the
    inverse's domain, which holds Lebesgue measure against the coverage
    runs of g's associated measure."""
    return trusted_results(g) + [("gen_inverse_abs_cont",
                                  gen_inverse_abs_cont(g, inverse_domain(g)))]


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    max_knots = draw(st.integers(min_value=1, max_value=12))
    unimodal = draw(st.booleans())
    return gen_monotone(GenConfig(seed=seed, max_knots=max_knots, force_unimodal=unimodal))


# slope 1 on both sides of a unit jump: two touching pieces of density 1
EQUAL_SLOPES_ACROSS_JUMP = from_knot_data(REAL_LINE, [0], [1], [1, 1], -1, 0)
# slope 1 on both sides of a flat: two pieces of density 1 with a gap between
EQUAL_SLOPES_ACROSS_FLAT = from_knot_data(REAL_LINE, [0, 1], [0, 0], [1, 0, 1], -1, 0)


@oracle_settings
@given(instances())
@example(EQUAL_SLOPES_ACROSS_JUMP)
@example(EQUAL_SLOPES_ACROSS_FLAT)
def test_trusted_builders_equal_public_rebuild(g):
    for name, obj in trusted_results(g):
        assert same_as_public(obj), (name, obj)
    assert trusted_intervals_hold(lambda: trusted_interval_results(g))


@oracle_settings
@given(st.lists(st.tuples(st.integers(min_value=-6, max_value=6),
                          st.sampled_from([1, 2, 3])), min_size=2, max_size=40))
@example([(i, 1) for i in range(10)])  # a uniform grid: every gap has the same density
def test_sample_measure_equals_public_rebuild(samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "samples.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{num}/{den}\n" for num, den in samples))
        parsed = cli.read_samples(path, header=False)
    m = cli.samples_to_measure(parsed, allow_degenerate=True)
    assert same_as_public(m)
    assert trusted_intervals_hold(lambda: cli.samples_to_measure(parsed, allow_degenerate=True))
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


def test_oracle_catches_a_merge_across_a_gap(monkeypatch):
    g = EQUAL_SLOPES_ACROSS_FLAT
    assert trusted_intervals_hold(lambda: trusted_interval_results(g))
    assert len(associated_measure(g).pieces) == 2

    def joins_across_gaps(pieces):
        out = []
        for p in pieces:
            if out and out[-1].density == p.density:
                out[-1] = _trusted(UniformPiece, interval=intervals._open(out[-1].interval.lo,
                                                                          p.interval.hi),
                                   density=p.density)
            else:
                out.append(p)
        return tuple(out)

    monkeypatch.setattr(measure, "_merge_pieces", joins_across_gaps)
    assert len(associated_measure(g).pieces) == 1
    # the joined piece is a valid measure on its own; only the checked run tells
    assert same_as_public(associated_measure(g))
    assert not trusted_intervals_hold(lambda: trusted_interval_results(g))
