"""Named one-point mutants of the library, each with the check that kills it.

A mutant is one small change to one library function, planted with
monkeypatch.  Its test runs the unmutated library through the named check
first, then the mutant, which the check must fail.  The laws run at a fixed
seed with n <= 200.
"""

import operator
import types

from monoinv import unimodal
from monoinv.laws import GenConfig, run_law

SEED = 20260808


def test_strict_order_in_switch_hull_is_killed_by_main_equiv(monkeypatch):
    # `<` for `<=` (and `>` for `>=`) in _switch_hull.  Neighbouring cells
    # of a step class never hold equal values, so only the slopes of a
    # function, equal on both sides of a jump, can tell the two apart:
    # classify then calls a unimodal function not unimodal, while its
    # quantile density and its inverse still say it is
    assert run_law("MAIN_EQUIV", 200, GenConfig(seed=SEED)).passed
    monkeypatch.setattr(unimodal, "operator",
                        types.SimpleNamespace(le=operator.lt, ge=operator.gt))
    report = run_law("MAIN_EQUIV", 200, GenConfig(seed=SEED))
    assert not report.passed
    assert report.failures[0]["got"] == (
        "{'shape': False, 'quantile_density': True, 'inverse_shape': True}")
