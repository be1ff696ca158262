"""Named one-point mutants of the library, each with the check that kills it.

A mutant is one small change to one library function, planted with
monkeypatch.  Its test runs the unmutated library through the named check
first, then the mutant, which the check must fail.  The laws run at a fixed
seed with n <= 200; where some of them let a mutant through, a test records
which.
"""

import operator
import sys
import types

import pytest

from click.testing import CliRunner

from monoinv import cli, measure, monotone, samples, unimodal
from monoinv.exactnum import rat
from monoinv.laws import LAW_IDS, GenConfig, run_law
from monoinv.monotone import PiecewiseMonotone, _knot_limits, _trusted
import test_golden
import test_oracles
import test_samples
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
    # _quantile_step reads g itself as its generalized inverse, so it returns
    # the step class of g's own slopes: MAIN_EQUIV reads classify's quantile
    # verdict, so it must still reach the quantile route.  A unimodal g's
    # slopes rise, then fall, and classify refuses the verdicts it then gets
    assert run_law("MAIN_EQUIV", 200, GenConfig(seed=SEED)).passed
    monkeypatch.setattr(unimodal, "generalized_inverse", lambda g: g)
    report = run_law("MAIN_EQUIV", 200, GenConfig(seed=SEED))
    assert not report.passed
    assert report.failures[0]["got"] == (
        "InternalInconsistency: unimodal but the quantile density is not quasi-convex")


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


def test_generation_keeping_every_knot_is_killed_by_double_inv_and_push_fwd(monkeypatch):
    # the golden verify case pins every law passing at this seed and n.  A
    # removable knot changes no class, so the laws that compare classes or
    # verdicts all hold.  DOUBLE_INV compares g's columns with those of its
    # canonical double inverse; PUSH_FWD compares g's associated measure,
    # whose step of slopes, read off g's columns, keeps the knot, with a
    # pushforward, whose cells are merged
    monkeypatch.setattr(monotone, "_assembled", _keeps_every_knot)
    reports = {law: run_law(law, 200, GenConfig(seed=SEED)) for law in LAW_IDS}
    killed = [law for law, report in reports.items() if not report.passed]
    assert killed == ["DOUBLE_INV", "PUSH_FWD"]
    assert reports["PUSH_FWD"].failures[0]["note"] == (
        "inverse pushes its uniform measure to the associated measure")


def _slopes_under_the_inverse_key(monkeypatch):
    # measure.step_of_slopes memoized under generalized_inverse's key: of
    # the step of g's slopes and g's inverse, whichever is asked for first,
    # the other reads it back
    original, build = measure.step_of_slopes, measure.step_of_slopes.__wrapped__

    def generalized_inverse(g):  # the name _cached keys the table by
        return build(g)

    mutant = monotone._cached(generalized_inverse)
    for name, module in list(sys.modules.items()):
        if name.startswith("monoinv") and getattr(module, "step_of_slopes", None) is original:
            monkeypatch.setattr(module, "step_of_slopes", mutant)


def test_table_under_another_tables_key_is_killed_by_the_tables_oracle(monkeypatch):
    test_oracles.test_tables_are_every_memoized_table_each_under_its_own_key()
    _slopes_under_the_inverse_key(monkeypatch)
    with pytest.raises(AssertionError):
        test_oracles.test_tables_are_every_memoized_table_each_under_its_own_key()


def test_table_under_another_tables_key_is_killed_by_seven_laws(monkeypatch):
    # the golden verify case pins every law passing at this seed and n.  The
    # seven ask one function for both its inverse and its step of slopes:
    # classify and inverse_rule_check through the quantile density, the
    # other two through the associated measure and the inverse.  The other
    # five never ask one function for both
    _slopes_under_the_inverse_key(monkeypatch)
    killed = [law for law in LAW_IDS if not run_law(law, 200, GenConfig(seed=SEED)).passed]
    assert killed == ["PUSH_FWD", "CONT_EQUIV", "INV_RULE", "QF_AC", "MAIN_EQUIV", "DECOMP",
                      "GEN_LOCFIN"]


def _ties_dropped_from_the_sample_knots(monkeypatch):
    # samples._knots' knot rule without "or the value is tied": a tied value
    # between two equal gaps is no knot, and its atom and jump are lost.  The
    # rule reads counts that are 1 at every index, yet still sum to n
    knots = samples._knots

    class Untied(list):
        def __getitem__(self, k):
            return 1

    monkeypatch.setattr(samples, "_knots", lambda runs: knots((runs[0], Untied(runs[1]), runs[2])))


@pytest.mark.parametrize("oracle", [
    test_samples.test_samples_to_function_is_the_distribution_function_of_the_measure,
    test_samples.test_library_route_matches_the_spec_round_trip,
])
def test_tie_dropped_from_the_sample_knots_is_killed_by_the_spec_round_trip(
        tmp_path, monkeypatch, oracle):
    # each oracle has an example of a tie between two equal gaps
    oracle(tmp_path)
    _ties_dropped_from_the_sample_knots(monkeypatch)
    with pytest.raises(AssertionError):
        oracle(tmp_path)


def _golden_sample_cases_that_differ():
    differ = []
    for case in test_golden.CASES:
        argv = test_golden.case_argv(case)
        if "--samples" in argv:
            r = CliRunner().invoke(cli.main, argv)
            if (r.exit_code, r.stdout_bytes, r.stderr) != (
                    case["exit"], test_golden.golden_report(case), case["stderr"]):
                differ.append(test_golden.case_id(case))
    return differ


def test_tie_dropped_from_the_sample_knots_is_killed_by_the_golden_sample_reports(monkeypatch):
    # of the golden samples, only tied_gauss_300 and thirds_sevenths_28 hold a
    # tie between two equal gaps; ingest writes the runs without the knot rule
    assert _golden_sample_cases_that_differ() == []
    _ties_dropped_from_the_sample_knots(monkeypatch)
    assert _golden_sample_cases_that_differ() == [
        test_golden.case_id(case) for case in test_golden.CASES
        if case.get("input") in ("tied_gauss_300", "thirds_sevenths_28")
        and case["command"] != "ingest"]


def test_tie_dropped_from_the_sample_knots_leaves_a_canonical_measure(monkeypatch):
    # test_trusted's public rebuild kills the mutant only through the sample
    # function, whose slopes no longer rise across the jump it lost; the
    # measure, short of an atom, is still canonical and equals its rebuild
    runs = samples.sample_runs([(0, 1), (1, 1), (1, 1), (2, 1)])
    assert test_trusted.same_as_public(samples.samples_to_function(runs, rat(0)))
    _ties_dropped_from_the_sample_knots(monkeypatch)
    assert samples.samples_to_measure(runs).atom_xs == ()
    assert test_trusted.same_as_public(samples.samples_to_measure(runs))
    assert not test_trusted.same_as_public(samples.samples_to_function(runs, rat(0)))
