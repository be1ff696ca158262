#!/usr/bin/env python3
"""monoinv benchmark: end-to-end metrics per workload, or per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Each run builds what it needs (the compiled kernel, for laws-compiled),
then starts one worker process that runs the workload's ops in a closed
loop, one at a time, for as many whole rounds as take S seconds at the
workload's nominal round time (at least one), so every commit measured with
the same S runs the same ops; between rounds the worker times fresh
`import monoinv.cli` probes.  Every op is then checked for correctness.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run measures the same rounds twice,
untraced and then traced, and reports the per-layer ones.
`--all` runs every workload in turn and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import sysconfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
if __name__ == "__main__":
    sys.pycache_prefix = os.path.join(BUILD, "pycache")
    sys.path.insert(0, ROOT)

from perfbench.checks import check_op, eligible_of  # noqa: E402
from perfbench.tracer import LAYERS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9
# A worker starts no round that would end past its budget (see worker.py),
# twice the run's --seconds per phase, so a program up to twice as slow
# runs every round and a slower one is measured on fewer rounds; the hard
# timeout only stops a worker whose single round outlasts the benchmark's
# time limit.
BUDGET_FACTOR = 2
WORKER_TIMEOUT_S = 170

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _per_layer():
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.calls", "count", "lower")]
    out += [
        ("monotone.knot_xs.calls", "count", "lower"),
        ("monotone.knot_xs.per_op_smallest", "count", "lower"),
        ("monotone.knot_xs.per_op_largest", "count", "lower"),
        ("monotone.evaluate.calls", "count", "lower"),
        ("monotone.limits_at.calls", "count", "lower"),
        ("monotone.segments.calls", "count", "lower"),
        ("monotone.value_bounds.calls", "count", "lower"),
        ("monotone.generalized_inverse.self_s", "s", "lower"),
        ("monotone.PiecewiseMonotone.init_s", "s", "lower"),
        ("measure.distribution_function.self_s", "s", "lower"),
        ("measure.gen_inverse_abs_cont.self_s", "s", "lower"),
        ("measure.pushforward.self_s", "s", "lower"),
        ("measure.PiecewiseMeasure.init_s", "s", "lower"),
        ("unimodal.classify.self_s", "s", "lower"),
        ("unimodal.quantile_density.self_s", "s", "lower"),
        ("intervals.ExtendedReal.allocs", "count", "lower"),
        ("exactnum.parse_ratio.calls", "count", "lower"),
        ("exactnum.fmt_ratio.calls", "count", "lower"),
        ("exactnum.fraction_ops", "count", "lower"),
        ("stage.parse_s", "s", "lower"),
        ("stage.build_s", "s", "lower"),
        ("stage.analyse_s", "s", "lower"),
        ("stage.emit_s", "s", "lower"),
        ("laws.eligible_ratio", "ratio", "higher"),
        ("laws.shrink.calls", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()

# per-layer metric -> (traced name, field) for single functions
_FUNCTION_METRICS = {
    "monotone.knot_xs.calls": ("monotone.PiecewiseMonotone.knot_xs", "calls"),
    "monotone.evaluate.calls": ("monotone.evaluate", "calls"),
    "monotone.limits_at.calls": ("monotone.limits_at", "calls"),
    "monotone.segments.calls": ("monotone.segments", "calls"),
    "monotone.value_bounds.calls": ("monotone.value_bounds", "calls"),
    "monotone.generalized_inverse.self_s": ("monotone.generalized_inverse", "self_ns"),
    "monotone.PiecewiseMonotone.init_s": ("monotone.PiecewiseMonotone.__init__", "incl_ns"),
    "measure.distribution_function.self_s": ("measure.distribution_function", "self_ns"),
    "measure.gen_inverse_abs_cont.self_s": ("measure.gen_inverse_abs_cont", "self_ns"),
    "measure.pushforward.self_s": ("measure.pushforward", "self_ns"),
    "measure.PiecewiseMeasure.init_s": ("measure.PiecewiseMeasure.__init__", "incl_ns"),
    "unimodal.classify.self_s": ("unimodal.classify", "self_ns"),
    "unimodal.quantile_density.self_s": ("unimodal.quantile_density", "self_ns"),
    "intervals.ExtendedReal.allocs": ("intervals.ExtendedReal.__init__", "calls"),
    "exactnum.parse_ratio.calls": ("exactnum.parse_ratio", "calls"),
    "exactnum.fmt_ratio.calls": ("exactnum.fmt_ratio", "calls"),
    "laws.shrink.calls": ("laws.shrink", "calls"),
}


class RunError(Exception):
    """The run could not measure anything (no source, build or pin failure)."""


# ---------------------------------------------------------------------------
# set-up


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def build_kernel() -> tuple[str, dict]:
    """Compile the tracked _ratcore.c into the benchmark's build directory.

    Uses the C compiler and flags Python was built with and the interpreter's
    headers; writes nothing under src/.  Builds are cached by the source's
    sha256.
    """
    source = os.path.join(SRC, "monoinv", "_ratcore.c")
    digest = sha256_of(source)
    out_dir = os.path.join(BUILD, f"ratcore-{digest[:16]}")
    target = os.path.join(out_dir, "_ratcore" + sysconfig.get_config_var("EXT_SUFFIX"))
    info = {"source_sha256": digest, "path": os.path.relpath(target, ROOT)}
    if os.path.exists(target):
        return target, dict(info, cached=True)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        *shlex.split(sysconfig.get_config_var("CC") or "cc"),
        *shlex.split(sysconfig.get_config_var("CFLAGS") or ""),
        *shlex.split(sysconfig.get_config_var("CCSHARED") or "-fPIC"),
        "-shared", "-I", sysconfig.get_paths()["include"],
        source, "-o", target + ".tmp",
    ]
    # the compiler's intermediate files stay inside the checkout too
    env = dict(os.environ, TMPDIR=out_dir)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise RunError(f"kernel build failed: {e}") from e
    if proc.returncode != 0:
        raise RunError(f"kernel build failed (exit {proc.returncode}): "
                       f"{proc.stderr.strip()[-500:]}")
    os.replace(target + ".tmp", target)
    return target, dict(info, cached=False)


def worker_env(backend: str) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=SRC,
        MONOINV_BACKEND=backend,
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=os.path.join(BUILD, "pycache"),
    )
    return env


def run_phase(workload, seed, env, kernel, run_dir, phase, *, rounds, budget_s,
              trace=False) -> dict:
    inputs = os.path.join(run_dir, phase, "inputs")
    outputs = os.path.join(run_dir, phase, "outputs")
    os.makedirs(inputs)
    os.makedirs(outputs)
    plan = {
        "workload": workload.name, "seed": seed, "rounds": rounds,
        "trace": trace, "backend": workload.backend, "kernel": kernel, "src": SRC,
        "setup_probes": 0 if trace else SETUP_PROBES, "budget_s": budget_s,
        "inputs": inputs, "outputs": outputs,
        "result": os.path.join(run_dir, phase, "result.json"),
        "spans": os.path.join(RUNS, "results", f"{workload.name}-s{seed}-spans.tsv.gz"),
    }
    plan_path = os.path.join(run_dir, phase, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    worker = os.path.join(ROOT, "perfbench", "worker.py")
    try:
        proc = subprocess.run([sys.executable, worker, plan_path], env=env,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise RunError(f"timeout: a round of the {phase} worker did not end within "
                       f"{WORKER_TIMEOUT_S} s, so its ops count as failed") from e
    if proc.returncode != 0:
        raise RunError(f"{phase} worker failed: {proc.stderr.strip()[-800:]}")
    with open(plan["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    if "pin_error" in result:
        raise RunError(f"pin check failed: {result['pin_error']}")
    return result


def check_phase(result) -> list[str]:
    """Check every op; returns the failure reasons.

    Sets each record's `items`: its sample points, or for `verify` its
    eligible (checked, not skipped) law instances, 0 when the op failed.
    """
    failures = []
    for record in result["ops"]:
        reason = check_op(record)
        record["items"] = record["size"]
        if reason is not None:
            failures.append(f"{record['command']} {record['size']} {record['variant']} "
                            f"(round {record['round']}, op {record['index']}): {reason}")
            record["items"] = 0
        elif record["command"] == "verify":
            with open(record["out"], encoding="utf-8") as fh:
                record["items"] = eligible_of(json.load(fh))
    return failures


# ---------------------------------------------------------------------------
# metrics


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten values beyond it (nearest rank).

    With fewer than 20 values no percentile above the median has ten beyond
    it; the largest value is reported instead, and the label says so.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], f"max of {n} (fewer than 20, so no percentile above p50 has 10 beyond)"
    p = math.floor(100 * (n - 10) / n)
    return xs[math.ceil(p * n / 100) - 1], f"p{p} of {n} ({n - math.ceil(p * n / 100)} beyond)"


def fast_decile(xs: list[float], *, higher_is_faster: bool = False) -> float:
    """The tenth percentile (nearest rank) counted from the fast end.

    The host slows the program down by up to 1.7x, for seconds at a time
    and sometimes through most of a run, and contention only ever adds
    time.  Repeated timings of the same work are therefore summarised from
    their fast end: it estimates the program's own cost, while a change
    that makes the work slower still moves it.  Of up to ten values it is
    the fastest.
    """
    return sorted(xs, reverse=higher_is_faster)[math.ceil(len(xs) / 10) - 1]


def slot_latencies(ops) -> list[float]:
    """Each op slot's latency: the fast decile over all its ops in the run."""
    by_slot: dict[int, list[float]] = {}
    for r in ops:
        by_slot.setdefault(r["slot"], []).append(r["latency_s"])
    return [fast_decile(v) for _, v in sorted(by_slot.items())]


def _ops_per_slot(ops) -> dict[int, int]:
    counts: dict[int, int] = {}
    for r in ops:
        counts[r["slot"]] = counts.get(r["slot"], 0) + 1
    return counts


def round_throughputs(ops) -> list[float]:
    """Each round's items (`check_phase`) over the same round's summed op latency."""
    items: dict[int, int] = {}
    seconds: dict[int, float] = {}
    for r in ops:
        items[r["round"]] = items.get(r["round"], 0) + r["items"]
        seconds[r["round"]] = seconds.get(r["round"], 0.0) + r["latency_s"]
    return [items[k] / seconds[k] for k in sorted(items)]


def end_to_end(workload, result) -> tuple[dict, list[str]]:
    """Metrics of the run's fast rounds (`fast_decile`).

    Every slot runs the same class of op in every round, so each slot's
    latency is taken over all its ops (`slot_latencies`), and latency
    metrics over the slots.  Throughput pairs items and time of the same
    ops: each round's items over its own op time, fast decile over the
    rounds.
    """
    slots = slot_latencies(result["ops"])
    rounds = result["rounds"]
    tail, tail_label = tail_latency(slots)
    item = "points_per_s" if workload.uses_samples else "instances_per_s"
    setup_times = result["setup_s"]
    values = {
        "setup_s": fast_decile(setup_times),
        "items_per_s": fast_decile(round_throughputs(result["ops"]), higher_is_faster=True),
        "op_p50_s": statistics.median(slots),
        "op_tail_s": tail,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    per_slot = sorted({n for n in _ops_per_slot(result["ops"]).values()})
    of_slots = (f"{len(slots)} op slots, each the fast decile of its "
                f"{'/'.join(map(str, per_slot))} ops over {rounds} rounds")
    notes = {
        "setup_s": f"fast decile of {len(setup_times)} fresh `import monoinv.cli`, "
                   "spread between the rounds",
        "items_per_s": f"= {item}: "
                       + ("sample points" if workload.uses_samples
                          else "eligible law instances")
                       + f" per second of op time, fast decile of {rounds} rounds",
        "op_p50_s": f"median of {of_slots}",
        "op_tail_s": f"{tail_label} of {of_slots}",
        "peak_rss_mb": "peak RSS of the worker process",
    }
    lines = [f"  {name:<14} {values[name]:>14.6g} {unit:<5} {notes[name]}"
             for name, unit, _, _ in END_TO_END]
    latencies = [r["latency_s"] for r in result["ops"]]
    pooled_tail, pooled_label = tail_latency(latencies)
    lines.append(f"  pooled over all {len(latencies)} ops: median "
                 f"{statistics.median(latencies):.6g} s, tail {pooled_tail:.6g} s "
                 f"({pooled_label})")
    return values, lines


def per_layer(workload, base, traced) -> tuple[dict, list[str]]:
    summary = traced["trace"]
    functions, layers = summary["functions"], summary["layers"]
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layers[layer]["self_ns"] / 1e9
        values[f"{layer}.calls"] = layers[layer]["calls"]
    for metric, (name, field) in _FUNCTION_METRICS.items():
        raw = functions.get(name, {}).get(field, 0)
        values[metric] = raw / 1e9 if field.endswith("_ns") else raw
    values["exactnum.fraction_ops"] = summary["fraction_ops"]
    for stage in ("parse", "build", "analyse", "emit"):
        values[f"stage.{stage}_s"] = summary["stages_ns"][stage] / 1e9

    by_size: dict[int, list[int]] = {}
    for r in traced["ops"]:
        by_size.setdefault(r["size"], []).append(r["knot_xs_reads"])
    per_op = {size: sum(v) / len(v) for size, v in sorted(by_size.items())}
    values["monotone.knot_xs.per_op_smallest"] = per_op[min(per_op)]
    values["monotone.knot_xs.per_op_largest"] = per_op[max(per_op)]

    laws = [r for r in traced["ops"] if r["command"] == "verify"]
    values["laws.eligible_ratio"] = (sum(r["items"] for r in laws)
                                     / sum(r["size"] for r in laws)) if laws else 0
    # over the rounds both phases ran (a phase may stop early on its budget)
    common = min(base["rounds"], traced["rounds"])
    base_s, traced_s = (sum(r["latency_s"] for r in phase["ops"] if r["round"] < common)
                        for phase in (base, traced))
    values["trace.overhead_ratio"] = traced_s / base_s

    lines = [f"  {name:<40} {values[name]:>14.6g} {unit}" for name, unit, _ in PER_LAYER]
    lines.append("  knot_xs reads per op by size: "
                 + ", ".join(f"{size}: {v:.0f}" for size, v in per_op.items()))
    lines.append(f"  spans kept: {summary['spans']} (dropped beyond the cap: "
                 f"{summary['spans_dropped']}); over {common} rounds, untraced "
                 f"{base_s:.3f} s, traced {traced_s:.3f} s of op time")
    lines += ["  prediction: " + p for p in predictions(workload, values, per_op)]
    return values, lines


def predictions(workload, values, per_op) -> list[str]:
    """The diagnosis the benchmark was defined to reproduce, checked as stated."""
    def verdict(ok):
        return "holds" if ok else "FAILED"

    out = []
    if workload.name == "samples-analyse":
        sizes = sorted(per_op)
        grows = all(per_op[a] < per_op[b] for a, b in zip(sizes, sizes[1:]))
        out.append(f"knot_xs reads per op grow with point count: {verdict(grows)}")
        top = max(LAYERS, key=lambda layer: values[f"{layer}.self_s"])
        out.append(f"monotone has the largest self time ({top} does): "
                   f"{verdict(top == 'monotone')}")
    elif workload.name == "samples-ingest":
        out.append(f"monotone.calls is 0 ({values['monotone.calls']}): "
                   f"{verdict(values['monotone.calls'] == 0)}")
    elif workload.name == "laws-pure":
        lhs = values["intervals.self_s"] + values["exactnum.self_s"]
        rhs = values["cli.self_s"] + values["serialize.self_s"]
        out.append(f"intervals + exactnum self time ({lhs:.3f} s) exceeds cli + serialize "
                   f"({rhs:.3f} s): {verdict(lhs > rhs)}")
    return out


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    info = {
        "workload": name, "backend": workload.backend, "seed": seed, "seconds": seconds,
        "trace": trace, "python": sys.version.split()[0],
        "sha256": {f: sha256_of(os.path.join(SRC, "monoinv", f))
                   for f in ("_ratcore.c", "_ratcore.pyx")},
    }
    lines = [f"workload {name}  backend={workload.backend}  seed={seed}  trace={int(trace)}"]
    run_dir = os.path.join(RUNS, f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
    os.makedirs(os.path.join(RUNS, "results"), exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        kernel = None
        if workload.backend == "compiled":
            kernel, info["kernel"] = build_kernel()
        env = worker_env(workload.backend)
        budget_s = BUDGET_FACTOR * seconds
        if trace:
            # the traced phase repeats the untraced phase's ops, at about
            # half the run length each before tracing overhead
            rounds = workload.rounds_for(seconds / 2)
            base = run_phase(workload, seed, env, kernel, run_dir, "untraced", rounds=rounds,
                             budget_s=budget_s)
            traced = run_phase(workload, seed, env, kernel, run_dir, "traced", rounds=rounds,
                               budget_s=budget_s, trace=True)
            phases = [base, traced]
        else:
            phases = [run_phase(workload, seed, env, kernel, run_dir, "untraced",
                                rounds=workload.rounds_for(seconds), budget_s=budget_s)]
        failures = [f for result in phases for f in check_phase(result)]
    except RunError as e:
        attempted = len(workload.round_ops(seed, 0))
        lines.append(f"  run failed, all {attempted} ops of a round counted as failed: {e}")
        return {"json": {"correct": False, "attempted": attempted, "failed": attempted,
                         "metrics": {}},
                "lines": lines, "error": str(e), "info": info}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(r["ops"]) for r in phases)
    if trace:
        values, metric_lines = per_layer(workload, base, traced)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        values, metric_lines = end_to_end(workload, phases[0])
        units = {n: u for n, u, _, _ in END_TO_END}
    measured = phases[-1]
    planned = workload.rounds_for(seconds / 2 if trace else seconds)
    lines.append(f"  rounds={measured['rounds']}  ops={len(measured['ops'])}  "
                 f"op time={measured['busy_s']:.3f} s")
    lines += [f"  time budget: the {phase} phase stopped after {p['rounds']} of {planned} "
              "rounds" for phase, p in zip(("untraced", "traced"), phases)
              if p["rounds"] < planned]
    lines += metric_lines
    lines.append(f"  error_rate     {len(failures) / attempted:.6g} "
                 f"({len(failures)} failed / {attempted} attempted)")
    lines += [f"  FAILED {f}" for f in failures[:20]]
    lines.append("  sha256 " + "  ".join(f"{k}={v}" for k, v in info["sha256"].items()))
    if "kernel" in info:
        lines.append(f"  kernel {info['kernel']['path']} (cached={info['kernel']['cached']})")

    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    record = dict(info, result=out, failures=failures,
                  ops=[{k: r[k] for k in ("round", "index", "slot", "command", "size",
                                          "variant", "latency_s", "exit", "items")}
                       for r in measured["ops"]])
    with open(os.path.join(RUNS, "results", f"{name}-s{seed}-t{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    eligible = sum(r["items"] for r in measured["ops"] if r["command"] == "verify")
    return {"json": out, "lines": lines, "info": info, "eligible": eligible}


# ---------------------------------------------------------------------------
# entry point


def _ratcore_lines(results) -> list[str]:
    """Traced laws-compiled minus laws-pure: what the kernel changes, per instance."""
    pure, comp = results.get("laws-pure"), results.get("laws-compiled")
    if not (pure and comp and pure["json"]["metrics"] and comp["json"]["metrics"]):
        return []
    lines = ["_ratcore (laws-compiled minus laws-pure): traced self time per 1,000 eligible "
             "law instances"]
    for layer in LAYERS:
        p = pure["json"]["metrics"][f"{layer}.self_s"]["value"] * 1000 / pure["eligible"]
        c = comp["json"]["metrics"][f"{layer}.self_s"]["value"] * 1000 / comp["eligible"]
        lines.append(f"  {layer:<10} pure {p:>10.4f} s  compiled {c:>10.4f} s  "
                     f"difference {c - p:>+10.4f} s")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for required in (os.path.join(SRC, "monoinv", "cli.py"),
                     os.path.join(SRC, "monoinv", "_ratcore.c")):
        if not os.path.isfile(required):
            print(f"error: {os.path.relpath(required, ROOT)} is missing; run from a full "
                  "checkout of the repository", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    os.environ["MONOINV_BACKEND"] = "pure"  # the checks' own use of the program

    names = list(WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(results[name]["lines"]), flush=True)
    if args.all:
        if args.trace:
            print("\n".join(_ratcore_lines(results)))
        print(json.dumps({name: r["json"] for name, r in results.items()}))
    else:
        print(json.dumps(results[names[0]]["json"]))
    return 1 if any("error" in r for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
