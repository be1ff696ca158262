"""Benchmark worker: runs the ops of one workload in a closed loop.

Usage: python3 perfbench/worker.py PLAN.json

The orchestrator (run.py) starts one worker per measured phase with
MONOINV_BACKEND and PYTHONPATH set.  The worker pins the backend and the
source, then runs one op at a time, in one process and one thread, through
the CLI's click entry point.  It writes each op's input file before the
clock starts, times only the command, and writes the op records (and, when
tracing, the per-layer figures) to the plan's result path.  Correctness is
checked afterwards by the orchestrator, so checks cost neither time nor
memory here.

Between rounds, outside the timed region, the worker times the plan's
set-up probes (a fresh interpreter's `import monoinv.cli`, one at a time),
so that set-up time samples the same stretch of host time as the ops.  It
starts no round that would end past the plan's time budget, judged by the
mean round so far, so a much slower program is measured on fewer rounds
instead of being killed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.probe_import import preload_kernel  # noqa: E402
from perfbench.workloads import WORKLOADS, write_samples  # noqa: E402


class PinError(Exception):
    """The loaded program is not the checkout's source on the requested backend."""


def load_program(plan):
    """Import monoinv.cli from the checkout's src/ on the requested backend."""
    kernel = None
    if plan["kernel"]:
        kernel = preload_kernel(plan["kernel"])
    import monoinv
    import monoinv.cli
    import monoinv.exactnum

    src = os.path.realpath(plan["src"])
    origin = os.path.realpath(monoinv.__file__)
    if os.path.commonpath([src, origin]) != src:
        raise PinError(f"monoinv loaded from {origin}, not from {src}")
    if monoinv.exactnum.BACKEND != plan["backend"]:
        raise PinError(f"backend is {monoinv.exactnum.BACKEND}, expected {plan['backend']}")
    if kernel is not None and sys.modules.get("monoinv._ratcore") is not kernel:
        raise PinError("monoinv._ratcore is not the kernel built by the benchmark")
    return monoinv.cli.main


def run_cli(main, argv):
    """Run one command in-process; returns (exit code or None, error, stderr)."""
    err = io.StringIO()
    code, error = None, None
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            main.main(args=argv, prog_name="monoinv", standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        except Exception as e:  # a failed op, recorded and checked by the orchestrator
            error = f"{type(e).__name__}: {e}"
    return code, error, err.getvalue()[-2000:]


def probe_setup(kernel) -> float:
    """A fresh interpreter's `import monoinv.cli` time, in this worker's environment."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe_import.py")
    proc = subprocess.run([sys.executable, probe, kernel or ""], capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def probes_before(rnd: int, rounds: int, probes: int) -> int:
    """How many of `probes` set-up probes run before round `rnd`: spread evenly."""
    return sum(1 for i in range(probes) if i * rounds // probes == rnd)


def run(plan) -> dict:
    workload = WORKLOADS[plan["workload"]]
    seed = plan["seed"]
    main = load_program(plan)
    started = time.monotonic()

    tracer = None
    if plan["trace"]:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install()
        knot_key = "monotone.PiecewiseMonotone.knot_xs"

    records, busy, setup, rounds = [], 0.0, [], 0
    for rnd in range(plan["rounds"]):
        elapsed = time.monotonic() - started
        if rnd and elapsed + elapsed / rnd > plan["budget_s"]:
            break
        for _ in range(probes_before(rnd, plan["rounds"], plan["setup_probes"])):
            setup.append(probe_setup(plan["kernel"]))
        rounds += 1
        for op in workload.round_ops(seed, rnd):
            sample = None
            if workload.uses_samples:
                sample = os.path.join(plan["inputs"], f"{op.name}.txt")
                write_samples(sample, workload.name, seed, op)
            out = os.path.join(plan["outputs"], f"{op.name}.json")
            argv = op.argv(sample, out)
            if tracer is not None:
                knots_before = tracer.count(knot_key)
                tracer.begin_op(len(records))
            t0 = time.perf_counter_ns()
            code, error, stderr = run_cli(main, argv)
            dt = time.perf_counter_ns() - t0
            record = {
                "round": op.round, "index": op.index, "slot": op.slot, "command": op.command,
                "size": op.size, "variant": op.variant, "vseed": op.vseed,
                "argv": argv, "sample": sample, "out": out,
                "latency_s": dt / 1e9, "exit": code, "error": error, "stderr": stderr,
            }
            if tracer is not None:
                tracer.end_op(dt)
                record["knot_xs_reads"] = tracer.count(knot_key) - knots_before
            records.append(record)
            busy += dt / 1e9

    result = {
        "ops": records,
        "rounds": rounds,
        "busy_s": busy,
        "setup_s": setup,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(plan["spans"])
    return result


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    try:
        result = run(plan)
    except PinError as e:
        result = {"pin_error": str(e)}
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
