"""Named one-point mutants of the library, each with the check that kills it.

A mutant is one small change to one library function, planted with
monkeypatch.  Its test runs the unmutated library through the named check
first, then the mutant, which the check must fail.  The laws run at a fixed
seed with n <= 200.
"""

import operator
import types

import pytest

from monoinv import measure, unimodal
from monoinv.laws import GenConfig, run_law
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
