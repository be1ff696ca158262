"""Tests of the benchmark's correctness checks, including negative controls.

Run from the root of the repository:  python3 -m pytest perfbench/tests -q
"""

import copy
import dataclasses
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import run  # noqa: E402
from perfbench.checks import check_op  # noqa: E402
from perfbench.workloads import GATED, WORKLOADS, write_samples  # noqa: E402
from perfbench.worker import run_cli  # noqa: E402


def _sample_op(tmp_path, workload, index, size=None):
    from monoinv.cli import main

    op = WORKLOADS[workload].round_ops(7, 0)[index]
    if size is not None:
        op = dataclasses.replace(op, size=size)
    sample = str(tmp_path / f"{op.name}.txt")
    out = str(tmp_path / f"{op.name}.json")
    write_samples(sample, workload, 7, op)
    code, error, stderr = run_cli(main, op.argv(sample, out))
    return {"command": op.command, "size": op.size, "variant": op.variant, "vseed": op.vseed,
            "sample": sample, "out": out, "exit": code, "error": error, "stderr": stderr}


def _report(record):
    with open(record["out"], encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("index", range(9))
def test_analyse_ops_pass(tmp_path, index):
    record = _sample_op(tmp_path, "samples-analyse", index, size=300)
    assert check_op(record) is None


@pytest.mark.parametrize("index", range(4))
def test_ingest_ops_pass(tmp_path, index):
    record = _sample_op(tmp_path, "samples-ingest", index, size=500)
    assert check_op(record) is None


def test_tampered_classify_report_fails(tmp_path):
    record = _sample_op(tmp_path, "samples-analyse", 0, size=300)
    report = _report(record)
    assert check_op(record, report) is None
    tampered = copy.deepcopy(report)
    c = tampered["classification"]
    c["cdf_unimodal"] = not c["cdf_unimodal"]
    assert check_op(record, tampered) is not None


def test_tampered_echo_fails(tmp_path):
    record = _sample_op(tmp_path, "samples-analyse", 0, size=300)
    tampered = _report(record)
    tampered["echo"]["uniform_pieces"][0]["density"] = "1"
    assert "echo" in check_op(record, tampered)


def test_tampered_ingest_mass_fails(tmp_path):
    record = _sample_op(tmp_path, "samples-ingest", 0, size=500)
    tampered = _report(record)
    tampered["uniform_pieces"][0]["mass"] = "2/499"
    assert "mass" in check_op(record, tampered)


def test_unexpected_exit_and_exception_fail():
    record = {"command": "invert", "exit": 2, "error": None, "stderr": "error: boom\n"}
    assert "exit 2" in check_op(record)
    record = {"command": "classify", "exit": None, "error": "TypeError: x", "stderr": ""}
    assert "exception" in check_op(record)


def test_negated_law_run_fails():
    from monoinv.laws import GenConfig, run_law

    record = {"command": "verify", "size": 20, "vseed": 3, "variant": "GALOIS", "exit": 0,
              "error": None, "stderr": ""}
    held = run_law("GALOIS", 20, GenConfig(seed=3, max_knots=12))
    body = {"seed": 3, "max_knots": 12, "n": 20, "laws": [held.to_json()], "passed": True}
    assert check_op(record, body) is None

    negated = run_law("GALOIS", 20, GenConfig(seed=3, max_knots=12), negate=True)
    body = {"seed": 3, "max_knots": 12, "n": 20, "laws": [negated.to_json()],
            "passed": negated.passed}
    assert check_op(dict(record, exit=5), body) is not None
    assert check_op(record, body) is not None


def test_benchmark_json_matches_run():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(GATED)
    assert [w["why"] for w in bench["workloads"]] == [WORKLOADS[n].why for n in GATED]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(run.PER_LAYER)


def test_tail_latency_rule():
    value, label = run.tail_latency([float(i) for i in range(1, 101)])
    assert value == 90.0 and label.startswith("p90 of 100")
    value, label = run.tail_latency([float(i) for i in range(1, 21)])
    assert value == 10.0 and "10 beyond" in label
    value, label = run.tail_latency([3.0, 1.0, 2.0])
    assert value == 3.0 and label.startswith("max of 3")


def test_slot_latency_is_fast_decile_over_rounds():
    ops = [{"slot": i % 2, "latency_s": t} for i, t in enumerate([1.0, 5.0, 9.0, 6.0, 2.0, 7.0])]
    assert run.slot_latencies(ops) == [1.0, 5.0]
    ops = [{"slot": 0, "latency_s": float(t)} for t in range(34, 0, -1)]
    assert run.slot_latencies(ops) == [4.0]


def test_round_spreads_each_slots_reps_over_passes():
    ops = WORKLOADS["samples-analyse"].round_ops(7, 0)
    assert [op.index for op in ops] == list(range(len(ops)))
    assert [op.slot for op in ops[:9]] == list(range(9))
    reps = {slot: sum(op.slot == slot for op in ops) for slot in range(9)}
    assert reps == {0: 3, 1: 3, 2: 3, 3: 2, 4: 2, 5: 2, 6: 1, 7: 1, 8: 1}
    assert [op.size for op in ops[9:]] == [1000, 1000, 1000, 2000, 2000, 2000,
                                          1000, 1000, 1000]


def test_throughput_pairs_items_and_time_of_the_same_round():
    # round 0: 30 items in 3 s; round 1: 10 items in 2 s; round 2: 40 items in 2 s
    ops = [{"round": r, "items": i, "latency_s": t}
           for r, i, t in [(0, 10, 1.0), (0, 20, 2.0), (1, 0, 1.0), (1, 10, 1.0),
                           (2, 40, 1.5), (2, 0, 0.5)]]
    assert run.round_throughputs(ops) == [10.0, 5.0, 20.0]
    assert run.fast_decile([10.0, 5.0, 20.0], higher_is_faster=True) == 20.0
    assert run.fast_decile([float(t) for t in range(1, 23)], higher_is_faster=True) == 20.0
    assert run.fast_decile([float(t) for t in range(1, 23)]) == 3.0


def test_setup_probes_are_spread_over_the_rounds():
    from perfbench.worker import probes_before

    assert [probes_before(r, 3, 12) for r in range(3)] == [4, 4, 4]
    spread = [probes_before(r, 26, 12) for r in range(26)]
    assert sum(spread) == 12 and max(spread) == 1 and spread[0] == 1


def test_failed_kernel_build_fails_every_op_without_fallback(tmp_path, monkeypatch):
    src = tmp_path / "src"
    (src / "monoinv").mkdir(parents=True)
    (src / "monoinv" / "_ratcore.c").write_text("this is not C\n")
    (src / "monoinv" / "_ratcore.pyx").write_text("")
    monkeypatch.setattr(run, "SRC", str(src))
    monkeypatch.setattr(run, "BUILD", str(tmp_path / "build"))
    monkeypatch.setattr(run, "RUNS", str(tmp_path / "runs"))
    with pytest.raises(run.RunError, match="kernel build failed"):
        run.build_kernel()
    result = run.run_workload("laws-compiled", 1, 1, False)
    assert result["json"] == {"correct": False, "attempted": 12, "failed": 12, "metrics": {}}
    assert "kernel build failed" in result["error"]


def test_pin_rejects_other_backend_and_other_source(tmp_path):
    from monoinv.exactnum import BACKEND
    from perfbench.worker import PinError, load_program

    src = os.path.join(ROOT, "src")
    other = "compiled" if BACKEND == "pure" else "pure"
    assert load_program({"kernel": None, "src": src, "backend": BACKEND}) is not None
    with pytest.raises(PinError, match="backend"):
        load_program({"kernel": None, "src": src, "backend": other})
    with pytest.raises(PinError, match="loaded from"):
        load_program({"kernel": None, "src": str(tmp_path), "backend": BACKEND})
