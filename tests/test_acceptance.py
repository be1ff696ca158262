"""Acceptance gate: one test per criterion, every check exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  All identity checks are rational-arithmetic equalities; there
are no tolerances anywhere.
"""

import json
import os
import random
import subprocess
import sys
import time

from monoinv.errors import ConstantFunction
from monoinv.intervals import is_finite
from monoinv.laws import GenConfig, gen_monotone, run_law
from monoinv.laws import _REGISTRY, _law_salt
from monoinv.measure import step_of_slopes
from monoinv.monotone import (
    extend_to_real_line,
    flats,
    generalized_inverse,
    jumps,
)
from monoinv.unimodal import classify, is_quasi_convex, qf_shape_check

N = 10_000
CFG = GenConfig(seed=20_260_808, max_knots=12)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
DATA = os.path.join(os.path.dirname(__file__), "data")


def _cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "monoinv", *args],
                          capture_output=True, text=True, env=env)


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS  ({detail})")


def test_criterion_1_counterexample_regression(fixa):
    """The two-block uniform mixture: not unimodal, inverse not absolutely
    continuous, and the inverse's shape check fails only because of the
    interior discontinuity (the slopes on both open halves are affine)."""
    t0 = time.time()
    c = classify(fixa)
    assert c.cdf_unimodal is False
    assert c.qf_absolutely_continuous is False
    q = generalized_inverse(fixa)
    ok, alpha = qf_shape_check(q)
    assert ok is False and alpha is None
    # affinity on the open halves holds: the slope sequence alone is quasi-convex,
    # so the failure is due solely to the jump at 1/2
    assert is_quasi_convex(step_of_slopes(q))[0] is True
    assert [str(q.xs[i]) for i in jumps(q)] == ["1/2"]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("1 (counterexample regression)", f"{elapsed:.3f}s")


def test_criterion_2_main_equivalence_10k():
    """Three-way equivalence of the unimodality verdicts on 10,000
    generated distribution functions with jumps, flats and infinite
    domains; 0 failures, under 60 s."""
    t0 = time.time()
    rep = run_law("MAIN_EQUIV", N, CFG)
    elapsed = time.time() - t0
    assert rep.failures == []
    assert rep.eligible == N
    # feature coverage of the generated stream
    gen = _REGISTRY["MAIN_EQUIV"][0]
    with_jumps = with_flats = infinite_domain = 0
    for i in range(500):
        rng = random.Random(CFG.seed * 1_000_003 + i * 7919 + _law_salt("MAIN_EQUIV"))
        g = gen(rng, CFG)
        with_jumps += bool(jumps(g))
        with_flats += bool(flats(g))
        infinite_domain += not (is_finite(g.domain.lo) or is_finite(g.domain.hi))
    assert with_jumps > 50 and with_flats > 50 and infinite_domain == 500
    assert elapsed < 60.0
    _report("2 (main equivalence, n=10000)", f"{elapsed:.1f}s, eligible={rep.eligible}")


def test_criterion_3_unimodal_inverse_never_jumps():
    """Absolute continuity of the inverse for every unimodal instance: the
    10,000-instance stream filtered to unimodal plus 10,000 instances from
    the unimodality-forcing generator."""
    t0 = time.time()
    rep = run_law("QF_AC", N, CFG)
    assert rep.failures == []
    assert rep.eligible > 1000  # the filter keeps plenty of unimodal instances
    checked = 0
    for i in range(N):
        g = gen_monotone(GenConfig(seed=CFG.seed + i, max_knots=12, force_unimodal=True))
        assert classify(g).cdf_unimodal, "generator oracle"
        try:
            h = generalized_inverse(extend_to_real_line(g))
        except ConstantFunction:
            continue
        assert not jumps(h)
        checked += 1
    assert checked > 8000
    _report("3 (unimodal => abs. cont. inverse)",
            f"{time.time()-t0:.1f}s, filtered={rep.eligible}, forced={checked}")


def test_criterion_4_pushforward_identities():
    """Both pushforward identities as exact structural measure equality,
    with the continuity precondition computed two independent ways that may
    never disagree."""
    t0 = time.time()
    rep1 = run_law("PUSH_FWD", N, CFG)
    assert rep1.failures == []
    rep2 = run_law("PUSH_CONT", N, CFG)
    assert rep2.failures == []
    assert rep2.eligible == N  # the precondition-agreement check runs on every instance
    _report("4 (pushforward identities)",
            f"{time.time()-t0:.1f}s, eligible={rep1.eligible}/{rep2.eligible}")


def test_criterion_5_galois_connection():
    """Both Galois biconditionals on the full refinement grid."""
    t0 = time.time()
    rep = run_law("GALOIS", N, CFG)
    assert rep.failures == []
    _report("5 (Galois connection)", f"{time.time()-t0:.1f}s, eligible={rep.eligible}")


def test_criterion_6_inverse_rule_and_characterizations():
    """Exact slope reciprocity on the mass interval wherever the inverse is
    absolutely continuous, and agreement of the three absolute-continuity
    characterizations on every instance (a disagreement raises and fails)."""
    t0 = time.time()
    rep1 = run_law("INV_RULE", N, CFG)
    assert rep1.failures == []
    rep2 = run_law("AC_EQUIV", N, CFG)
    assert rep2.failures == []
    assert rep2.eligible == N
    _report("6 (inverse rule + characterizations)",
            f"{time.time()-t0:.1f}s, rule-eligible={rep1.eligible}")


def test_criterion_7_atom_at_mode():
    """Every unimodal instance has at most one atom, inside the closed
    modal interval of the zero-extended density part."""
    t0 = time.time()
    rep = run_law("DECOMP", N, CFG)
    assert rep.failures == []
    assert rep.eligible > 1000
    _report("7 (decomposition)", f"{time.time()-t0:.1f}s, unimodal={rep.eligible}")


def test_criterion_8_double_inverse():
    """Inverting twice returns the original class, and jump/flat counts
    swap, on every instance whose inverse is representable."""
    t0 = time.time()
    rep = run_law("DOUBLE_INV", N, CFG)
    assert rep.failures == []
    assert rep.eligible > 9000
    _report("8 (double inverse)", f"{time.time()-t0:.1f}s, eligible={rep.eligible}")


def test_criterion_9_cli_end_to_end(tmp_path):
    """1000-sample ingest classifies as unimodal with exit 0 in under two
    seconds, and a mixed spec round-trips byte-identically through the
    report echo."""
    samples = os.path.join(DATA, "uniform_grid_1000.csv")
    t0 = time.time()
    r = _cli("classify", "--samples", samples)
    elapsed = time.time() - t0
    assert r.returncode == 0
    assert elapsed < 2.0

    spec_path = tmp_path / "fixd.json"
    spec_path.write_text(json.dumps({
        "atoms": [{"x": "1/2", "mass": "1/2"}],
        "uniform_pieces": [{"a": "0", "b": "1", "density": "1/2"}],
    }))
    first = _cli("classify", "--spec", str(spec_path))
    assert first.returncode == 0
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(json.loads(first.stdout)["echo"]))
    second = _cli("classify", "--spec", str(echo_path))
    assert second.stdout == first.stdout
    assert second.returncode == 0
    _report("9 (CLI end to end)", f"classify 1000 samples in {elapsed:.2f}s; echo round-trip byte-identical")
