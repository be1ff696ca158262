import random

import pytest

from monoinv.errors import AmbiguousComposition, CarrierMismatch, QfNotAbsolutelyContinuous
from monoinv.exactnum import rat
from monoinv.intervals import NEG_INF, POS_INF, REAL_LINE, ClosedInterval, Interval
from monoinv.laws import GenConfig, gen_monotone
from monoinv.measure import StepFunction, step_compose, step_of_slopes
from monoinv.monotone import PiecewiseMonotone, from_knot_data, generalized_inverse
from monoinv.unimodal import (
    _switch_hull,
    classify,
    is_quasi_concave,
    is_quasi_convex,
    qf_shape_check,
    quantile_density,
)


def brute_quasi_concave(values):
    """Defining inequality on the cell values: between any two cells, every
    cell in between is at least the minimum of the two.  For step classes
    this is exactly quasi-concavity of some version."""
    n = len(values)
    for i in range(n):
        for j in range(i, n):
            lo = min(values[i], values[j])
            for k in range(i, j + 1):
                if values[k] < lo:
                    return False
    return True


def brute_quasi_convex(values):
    n = len(values)
    for i in range(n):
        for j in range(i, n):
            hi = max(values[i], values[j])
            for k in range(i, j + 1):
                if values[k] > hi:
                    return False
    return True


def step(values, knots=None, carrier=None):
    carrier = carrier or Interval(0, len(values))
    knots = knots if knots is not None else list(range(1, len(values)))
    return StepFunction(carrier, tuple(knots), tuple(rat(v) if isinstance(v, int) else v
                                                     for v in values))


# ---------------------------------------------------------------------------
# quasi-concavity / -convexity


def test_quasi_concave_plateau():
    f = step([1, 2, 2, 1], knots=[1, 2, 3], carrier=Interval(0, 4))
    assert brute_quasi_concave([1, 2, 2, 1])
    ok, modal = is_quasi_concave(f)
    assert ok
    assert (modal.lo, modal.hi) == (rat(1), rat(3))
    # a step class merges the plateau into one cell, so only the scan itself
    # sees equal neighbours, as it does in the slopes of a function
    knots = tuple(map(rat, (1, 2, 3)))
    for values, rise_first in (((1, 2, 2, 1), True), ((2, 1, 1, 2), False)):
        hull = _switch_hull(tuple(map(rat, values)), knots, Interval(0, 4), rise_first)
        assert hull == ClosedInterval(1, 3)


def test_quasi_concave_rejects_fixa_density(fixa):
    f = step_of_slopes(fixa)
    assert not brute_quasi_concave(list(f.values))
    assert is_quasi_concave(f) == (False, None)


def test_quasi_concave_constant():
    f = step([1], knots=[], carrier=Interval(0, 1))
    ok, modal = is_quasi_concave(f)
    assert ok and (modal.lo, modal.hi) == (rat(0), rat(1))


def test_quasi_convex_fixd_quantile_density(fixd):
    q = quantile_density(fixd)
    ok, modal = is_quasi_convex(q)
    assert ok
    assert (modal.lo, modal.hi) == (rat(1, 4), rat(3, 4))


def test_quasi_convex_rejects_peak():
    assert not brute_quasi_convex([1, 3, 1])
    assert is_quasi_convex(step([1, 3, 1])) == (False, None)


def test_quasi_convex_single_cell():
    ok, modal = is_quasi_convex(step([5], knots=[], carrier=Interval(0, 1)))
    assert ok and (modal.lo, modal.hi) == (rat(0), rat(1))


def test_quasi_checks_match_brute_force_oracle():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 7)
        values = [rng.randint(0, 3) for _ in range(n)]
        f = step(values)
        assert is_quasi_concave(f)[0] == brute_quasi_concave(f.values)
        assert is_quasi_convex(f)[0] == brute_quasi_convex(f.values)


def test_zero_extension_changes_nothing_for_concavity_but_is_semantic():
    # bracketing nonnegative cells with zero cells on the whole line never
    # flips quasi-concavity, and keeps the modal interval unless every cell
    # is zero: why step classes are never extended
    rng = random.Random(11)
    for _ in range(200):
        values = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
        f = step(values)
        bracketed = step([0, *values, 0], knots=range(len(values) + 1), carrier=REAL_LINE)
        ok, modal = is_quasi_concave(bracketed)
        assert ok == is_quasi_concave(f)[0]
        if any(values):
            assert modal == is_quasi_concave(f)[1]


def test_duality_negate_and_shift():
    rng = random.Random(13)
    for _ in range(200):
        values = [rat(rng.randint(0, 5)) for _ in range(rng.randint(1, 6))]
        f = step(values)
        top = max(values)
        mirrored = step([top - v for v in values])
        ok1, m1 = is_quasi_convex(f)
        ok2, m2 = is_quasi_concave(mirrored)
        assert ok1 == ok2
        if ok1:
            assert (m1.lo, m1.hi) == (m2.lo, m2.hi)


def test_monotone_steps_are_both():
    rng = random.Random(17)
    for _ in range(100):
        values = sorted(rng.randint(0, 5) for _ in range(rng.randint(1, 6)))
        if rng.random() < 0.5:
            values.reverse()
        f = step(values)
        assert is_quasi_concave(f)[0]
        assert is_quasi_convex(f)[0]


# ---------------------------------------------------------------------------
# classification


def test_classify_fixa(fixa):
    c = classify(fixa)
    assert not c.cdf_unimodal
    assert not c.quantile_unimodal
    assert not c.qf_absolutely_continuous
    assert c.modes is None and c.atom_at_mode is None


def test_classify_fixd(fixd):
    c = classify(fixd)
    assert c.cdf_unimodal
    assert (c.modes.lo, c.modes.hi) == (rat(1, 2), rat(1, 2))
    assert c.atom_at_mode == (rat(1, 2), rat(1, 2))
    assert (c.quantile_modes.lo, c.quantile_modes.hi) == (rat(1, 4), rat(3, 4))
    assert c.qf_absolutely_continuous and c.dens_unimodal_abs_part


def test_classify_dirac(fixc):
    c = classify(fixc)
    assert c.cdf_unimodal
    assert (c.modes.lo, c.modes.hi) == (rat(0), rat(0))
    assert c.qf_absolutely_continuous  # constant inverse is absolutely continuous
    assert c.atom_at_mode == (rat(0), rat(1))


def test_classify_embedded_identity_extends(fixb):
    # classification speaks about the measure extended by zero to the line
    c = classify(fixb)
    assert c.cdf_unimodal and c.quantile_unimodal and c.qf_absolutely_continuous


def test_classify_monotone_density_modes_at_infinity():
    g = from_knot_data(REAL_LINE, [0], [0], [1, 0], -1, 0)  # rising then flat
    c = classify(g)
    assert c.cdf_unimodal
    assert c.modes.lo == NEG_INF
    assert c.modes.hi == rat(0)


def test_classify_identity_on_line():
    g = PiecewiseMonotone(REAL_LINE, (), (1,), (0, 0))
    c = classify(g)
    assert c.cdf_unimodal
    assert (c.modes.lo, c.modes.hi) == (NEG_INF, POS_INF)


def test_classify_jump_off_mode_not_unimodal():
    # density rises 1,2,3 then drops; an atom below the peak is not at a mode
    g = from_knot_data(REAL_LINE, [0, 1, 2, 3], [0, rat(1, 2), 0, 0],
                       [0, 1, 2, 3, 0], -1, 0)
    c = classify(g)
    assert not c.cdf_unimodal
    assert c.qf_absolutely_continuous  # no flats at interior height
    assert not c.quantile_unimodal


def test_classify_two_atoms_never_unimodal():
    g = from_knot_data(REAL_LINE, [0, 1, 2], [0, 1, 1], [0, 1, 1, 0], -1, 0)
    assert not classify(g).cdf_unimodal


def test_classification_invariants_enforced():
    from monoinv.errors import InternalInconsistency
    from monoinv.unimodal import Classification

    point = ClosedInterval(0, 0)
    with pytest.raises(InternalInconsistency):
        Classification(
            cdf_unimodal=True,
            modes=point,
            dens_unimodal_abs_part=True,
            quantile_unimodal=True,
            quantile_modes=point,
            atom_at_mode=None,
            qf_absolutely_continuous=False,  # contradicts cdf_unimodal
        )


# ---------------------------------------------------------------------------
# inverse shape check


def test_qf_shape_fixa_fails_only_by_discontinuity(fixa):
    q = generalized_inverse(fixa)
    ok, alpha = qf_shape_check(q)
    assert not ok and alpha is None
    # affinity on both open halves holds: the slope sequence alone is fine
    assert is_quasi_convex(step_of_slopes(q))[0]


def test_qf_shape_fixd(fixd):
    q = generalized_inverse(fixd)
    ok, alpha = qf_shape_check(q)
    assert ok
    assert (alpha.lo, alpha.hi) == (rat(1, 4), rat(3, 4))


def test_qf_shape_identity(fixb):
    ok, alpha = qf_shape_check(fixb)
    assert ok
    assert (alpha.lo, alpha.hi) == (rat(0), rat(1))


# ---------------------------------------------------------------------------
# quantile density


def test_quantile_density_uniform(fixb):
    # the measure generated by the embedded identity is uniform on (0,1)
    q = quantile_density(fixb)
    assert q.carrier == Interval(0, 1)
    assert q.knots == () and q.values == (rat(1),)


def test_quantile_density_fixd(fixd):
    q = quantile_density(fixd)
    assert q.carrier == Interval(0, 1)
    assert q.knots == (rat(1, 4), rat(3, 4))
    assert q.values == (rat(2), rat(0), rat(2))


def test_quantile_density_fixa_errors(fixa):
    with pytest.raises(QfNotAbsolutelyContinuous):
        quantile_density(fixa)


# ---------------------------------------------------------------------------
# composition


def test_step_compose_fixd(fixd):
    f = StepFunction(Interval(0, 1), (rat(1, 4), rat(3, 4)), (rat(2), rat(0), rat(2)))
    got = step_compose(f, fixd)
    # a.e. on the interior of the support the composition is constant 2
    assert got.carrier == Interval(0, 1)
    assert got.knots == () and got.values == (rat(2),)


def test_step_compose_constant(fixa):
    f = StepFunction(REAL_LINE, (), (rat(7),))
    got = step_compose(f, fixa)
    assert got.values == (rat(7),)


def test_step_compose_with_identity():
    ident = PiecewiseMonotone(REAL_LINE, (), (1,), (0, 0))
    f = StepFunction(REAL_LINE, (rat(0),), (rat(0), rat(1)))
    got = step_compose(f, ident)
    assert got == f


def test_step_compose_carrier_mismatch(fixb):
    f = StepFunction(Interval(10, 11), (), (rat(1),))
    with pytest.raises(CarrierMismatch):
        step_compose(f, fixb)


def test_step_compose_flat_on_knot_is_ambiguous():
    g = from_knot_data(REAL_LINE, [0, 1], [0, 0], [1, 0, 1], rat(-1), 0)
    # g is constant at level 1 on (0,1); composing with a step having a knot
    # exactly at 1 has no well-defined class there
    f = StepFunction(REAL_LINE, (rat(1),), (rat(0), rat(5)))
    with pytest.raises(AmbiguousComposition):
        step_compose(f, g)


# ---------------------------------------------------------------------------
# theorem replay on random instances (small smoke; the harness scales it up)


def test_main_equivalence_smoke():
    from monoinv.errors import ConstantFunction
    from monoinv.monotone import extend_to_real_line

    unimodal_seen = 0
    for seed in range(80):
        g = gen_monotone(GenConfig(seed=seed, max_knots=5, force_unimodal=(seed % 2 == 0)))
        a = classify(g).cdf_unimodal
        try:
            b = is_quasi_convex(quantile_density(g))[0]
        except QfNotAbsolutelyContinuous:
            b = False
        try:
            c = qf_shape_check(generalized_inverse(extend_to_real_line(g)))[0]
        except ConstantFunction:
            c = True
        assert a == b == c
        unimodal_seen += a
    assert unimodal_seen >= 30
