import os
import random
import runpy

import pytest

from monoinv import laws
from monoinv.errors import UnknownLaw
from monoinv.exactnum import parse_ratio, rat
from monoinv.intervals import REAL_LINE, Interval
from monoinv.laws import LAW_IDS, CheckReport, GenConfig, gen_monotone, run_law
from monoinv.monotone import (
    PiecewiseMonotone,
    validate,
    versions_equal,
)
from monoinv.samples import read_samples, samples_to_function
from monoinv.serialize import monotone_to_json, str_to_er
from monoinv.unimodal import classify


def json_to_monotone(d):
    """Read back monotone_to_json's output."""
    domain = Interval(str_to_er(d["domain"]["lo"]), str_to_er(d["domain"]["hi"]))
    breaks = tuple(
        (parse_ratio(b["x"]), parse_ratio(b["left"]), parse_ratio(b["right"]))
        for b in d["breakpoints"]
    )
    slopes = tuple(parse_ratio(s) for s in d["slopes"])
    anchor = None
    if "anchor" in d:
        anchor = (parse_ratio(d["anchor"]["x"]), parse_ratio(d["anchor"]["value"]))
    return PiecewiseMonotone(domain, breaks, slopes, anchor)


def test_gen_config_requires_positive_max_knots():
    with pytest.raises(ValueError):
        GenConfig(max_knots=0)


def test_gen_config_refuses_more_knots_than_numerators():
    # _rand_xs draws distinct knot numerators from -1000..1000
    with pytest.raises(ValueError, match="^max_knots must be at most 2001$"):
        GenConfig(max_knots=2002)


def test_gen_same_seed_identical():
    cfg = GenConfig(seed=12345)
    assert versions_equal(gen_monotone(cfg), gen_monotone(cfg))


def test_force_unimodal_generator_oracle():
    for seed in range(150):
        g = gen_monotone(GenConfig(seed=seed, max_knots=8, force_unimodal=True))
        assert classify(g).cdf_unimodal, monotone_to_json(g)


def test_serialization_round_trip():
    for seed in range(20):
        g = gen_monotone(GenConfig(seed=seed, max_knots=5))
        back = json_to_monotone(monotone_to_json(g))
        assert versions_equal(back, g)


@pytest.mark.parametrize("law", LAW_IDS)
def test_every_law_passes_smoke(law):
    rep = run_law(law, 150, GenConfig(seed=7, max_knots=6))
    assert isinstance(rep, CheckReport)
    assert rep.passed, rep.failures[:1]
    assert rep.instances == 150
    assert rep.eligible > 0


def test_benchmark_law_list_matches_registry():
    # perfbench keeps its own copy of the law ids, because it imports nothing
    # from monoinv; a law renamed or added here must show up there too
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    assert runpy.run_path(path)["LAW_IDS"] == LAW_IDS


@pytest.mark.parametrize("seed", [11, 222, 3333])
def test_every_law_passes_across_seeds(seed):
    cfg = GenConfig(seed=seed, max_knots=12)
    for law in LAW_IDS:
        rep = run_law(law, 80, cfg)
        assert rep.passed, (law, rep.failures[:1], rep.shrunk)


def test_single_affine_segment_galois():
    # one segment, no knot: on the whole line and on a bounded domain
    for domain in (REAL_LINE, Interval(-1, 2)):
        laws._check_galois(PiecewiseMonotone(domain, (), (rat(3, 2),), (0, 5)))


def test_reports_deterministic():
    cfg = GenConfig(seed=3, max_knots=5)
    a = run_law("MAIN_EQUIV", 60, cfg).to_json()
    b = run_law("MAIN_EQUIV", 60, cfg).to_json()
    assert a == b


def test_negated_law_fails_with_shrunk_witness():
    rep = run_law("GALOIS", 25, GenConfig(seed=5, max_knots=5), negate=True)
    assert not rep.passed
    assert rep.failures
    assert rep.shrunk is not None
    witness = json_to_monotone(rep.shrunk)
    validate(witness)
    # the shrunk witness still 'fails' the negated law, i.e. satisfies the law
    assert run_law("GALOIS", 1, GenConfig(seed=5, max_knots=1)).passed


def test_unknown_law():
    with pytest.raises(UnknownLaw):
        run_law("NOT_A_LAW", 1, GenConfig(seed=0))


def test_eligibility_counted():
    rep = run_law("INV_RULE", 100, GenConfig(seed=2, max_knots=6))
    assert 0 < rep.eligible <= rep.instances


def test_inverse_rule_decides_absolute_continuity_once(count_calls):
    from monoinv import measure

    calls = count_calls(measure, "gen_inverse_abs_cont")
    rep = run_law("INV_RULE", 50, GenConfig(seed=20260808))
    assert rep.passed and 0 < rep.eligible < 50
    assert calls[0] == 50


def test_gen_locfin_classifies_each_instance_once(count_calls):
    from monoinv import unimodal

    calls = count_calls(unimodal, "classify")
    rep = run_law("GEN_LOCFIN", 50, GenConfig(seed=20260808))
    assert rep.passed and rep.eligible == 50
    assert calls[0] == 50


def test_inverse_rule_runs_through_step_compose(monkeypatch):
    # a composition that doubles every value of a step class with knots
    # must make the inverse-function rule fail
    from monoinv import measure

    honest = measure.step_compose

    def doubled(f, g):
        h = honest(f, g)
        if len(f.knots) > 1:
            return measure.StepFunction(h.carrier, h.knots, tuple(2 * v for v in h.values))
        return h

    monkeypatch.setattr(measure, "step_compose", doubled)
    rep = run_law("INV_RULE", 200, GenConfig(seed=20260808))
    assert rep.eligible > 0
    assert not rep.passed
    assert rep.failures[0]["note"].startswith("inverse-function rule")


def test_ac_equiv_builds_one_associated_measure_per_instance(count_calls):
    # each of AC_EQUIV's up to six intervals reads the same associated measure
    from monoinv import measure

    calls = count_calls(measure.associated_measure, "__wrapped__")
    rep = run_law("AC_EQUIV", 50, GenConfig(seed=20260808))
    assert rep.passed and rep.eligible == 50
    assert 0 < calls[0] <= 50


def test_every_law_holds_at_sample_scale(tmp_path):
    # every check on the distribution function of five sample files, built
    # as classify, invert and qdensity build it: the uniform grid (one flat
    # density), the single-peaked file (a density that strictly rises, then
    # falls), its two variants (an atom at the mode; two gaps swapped, so
    # not unimodal although the quantile density exists) and 2,000 Gaussian
    # values.  QF_AC and DECOMP skip a function that is not unimodal, but no
    # law skips all five.
    data = os.path.join(os.path.dirname(__file__), "data")
    gauss = tmp_path / "gauss_2000.txt"
    rng = random.Random(2000)
    gauss.write_text("".join(f"{rng.gauss(0.0, 1.0):.6f}\n" for _ in range(2000)))
    ran = {law: [] for law in LAW_IDS}
    names = ("uniform_grid_1000", "peaked_1000", "peaked_atom_1001", "peaked_swap_1000")
    for path in (*(os.path.join(data, f"{name}.csv") for name in names), str(gauss)):
        f = samples_to_function(read_samples(path, header=False), rat(0))
        for law in LAW_IDS:
            try:
                laws._REGISTRY[law][1](f)
            except laws._Skip:
                continue
            ran[law].append(os.path.basename(path))
    assert all(ran.values()), ran
