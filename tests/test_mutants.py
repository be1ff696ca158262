"""Named one-point mutants of the library, each with the check that kills it.

A mutant is one small change to one library function, planted with
monkeypatch.  Its test runs the unmutated library through the named check
first, then the mutant, which the check must fail.  The laws run at a fixed
seed with n <= 200; where some of them let a mutant through, a test records
which.
"""

import operator
import types

import pytest

from monoinv import measure, monotone, unimodal
from monoinv.laws import LAW_IDS, GenConfig, run_law
from monoinv.monotone import PiecewiseMonotone, _knot_limits, _trusted
import test_trusted
import test_unimodal

SEED = 20260808


def _strict_order(monkeypatch):
    # `<` for `<=` (and `>` for `>=`) in _switch_hull
    monkeypatch.setattr(unimodal, "operator",
                        types.SimpleNamespace(le=operator.lt, ge=operator.gt))


def test_strict_order_in_switch_hull_is_killed_by_main_equiv(monkeypatch):
    # neighbouring cells of a step class never hold equal values, so only
    # the slopes of a function, equal on both sides of a jump, can tell the
    # two orders apart: classify then calls a unimodal function not
    # unimodal, while its quantile density and its inverse still say it is
    assert run_law("MAIN_EQUIV", 200, GenConfig(seed=SEED)).passed
    _strict_order(monkeypatch)
    report = run_law("MAIN_EQUIV", 200, GenConfig(seed=SEED))
    assert not report.passed
    assert report.failures[0]["got"] == (
        "{'shape': False, 'quantile_density': True, 'inverse_shape': True}")


def test_strict_order_in_switch_hull_is_killed_by_the_plateau_test(monkeypatch):
    test_unimodal.test_quasi_concave_plateau()
    _strict_order(monkeypatch)
    with pytest.raises(AssertionError):
        test_unimodal.test_quasi_concave_plateau()


def test_density_for_quantile_density_is_killed_by_main_equiv(monkeypatch):
    # _quantile_step returns the step class of g's own slopes in place of
    # its inverse's: MAIN_EQUIV reads classify's quantile verdict, so it
    # must still reach the quantile route
    assert run_law("MAIN_EQUIV", 200, GenConfig(seed=SEED)).passed
    monkeypatch.setattr(unimodal, "inverse_slope_step", measure.step_of_slopes)
    assert not run_law("MAIN_EQUIV", 200, GenConfig(seed=SEED)).passed


def _keeps_every_knot(domain, xs, jumps, slopes, anchor_x, anchor_value):
    # monotone._assembled without the knot drop
    lefts, rights = _knot_limits(xs, jumps, slopes, anchor_x, anchor_value)
    return _trusted(PiecewiseMonotone, domain=domain, slopes=tuple(slopes),
                    anchor=None if xs else (anchor_x, anchor_value),
                    xs=tuple(xs), lefts=tuple(lefts), rights=tuple(rights))


def test_generation_keeping_every_knot_is_killed_by_the_generator_oracle(monkeypatch):
    test_trusted.test_generated_instances_equal_public_rebuild()
    monkeypatch.setattr(monotone, "_assembled", _keeps_every_knot)
    with pytest.raises(AssertionError):
        test_trusted.test_generated_instances_equal_public_rebuild()


def test_generation_keeping_every_knot_is_killed_by_double_inv_alone(monkeypatch):
    # the golden verify case pins every law passing at this seed and n.  A
    # removable knot changes no class, so the laws that compare classes,
    # measures or verdicts all hold; only DOUBLE_INV compares g's columns
    # with those of its canonical double inverse
    monkeypatch.setattr(monotone, "_assembled", _keeps_every_knot)
    killed = [law for law in LAW_IDS if not run_law(law, 200, GenConfig(seed=SEED)).passed]
    assert killed == ["DOUBLE_INV"]
