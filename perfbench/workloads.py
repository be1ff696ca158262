"""Workload definitions and seeded input generation.

A workload is a fixed *round* of CLI operations ("ops").  A slot is one
class of op (command, size, shape or law) that a round runs `reps` times,
each on its own input; smaller, cheaper slots run more often, so that the
slots near the median op latency are timed several times per round.  A run
executes whole rounds, so every run measures the same mix of commands,
sizes and shapes; only the generated values change with the seed and the
round.  The number of rounds follows from --seconds and the workload's
nominal round time (`round_s`, the round's op time at the seed commit on a
2-vCPU x86-64 VM with Python 3.11), never from the clock, so every commit
measured with the same --seconds runs the same ops.  Every op gets its own
input file, derived from (workload, seed, round, index), so no input
repeats within a run and no cross-call memoisation can score.

This module imports nothing from monoinv: the orchestrator uses it before
the program is loaded and the worker uses it before any op is timed.
"""

from __future__ import annotations

import random

from dataclasses import dataclass

LAW_IDS = (
    "GALOIS", "DOUBLE_INV", "PUSH_FWD", "PUSH_CONT", "CONT_EQUIV", "RN_LEMMA",
    "AC_EQUIV", "INV_RULE", "QF_AC", "MAIN_EQUIV", "DECOMP", "GEN_LOCFIN",
)

# instances per `verify` op on the laws-* workloads
LAW_INSTANCES = 50
MAX_KNOTS = 12


@dataclass(frozen=True)
class Op:
    """One CLI command on one generated input."""

    round: int
    index: int       # position in the round
    slot: int        # index into the workload's slots
    command: str
    size: int        # sample points, or law instances for `verify`
    variant: str     # sample shape, or law id for `verify`
    vseed: int = 0   # generator seed passed to `verify`

    @property
    def name(self) -> str:
        return f"r{self.round}-{self.index}"

    def argv(self, sample_path: str | None, out_path: str) -> list[str]:
        if self.command == "verify":
            return ["verify", "--law", self.variant, "--n", str(self.size),
                    "--seed", str(self.vseed), "--max-knots", str(MAX_KNOTS),
                    "--out", out_path]
        return [self.command, "--samples", sample_path, "--out", out_path]


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str           # MONOINV_BACKEND, always set explicitly
    why: str
    slots: tuple           # (command, size, shape or law, reps) per slot
    round_s: float         # nominal op time of one round, in seconds

    @property
    def uses_samples(self) -> bool:
        return self.slots[0][0] != "verify"

    def rounds_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def round_ops(self, seed: int, rnd: int) -> list[Op]:
        # A slot is the same class of op in every round, so that its latency
        # can be taken over all its ops in the run; only the generated data
        # (and the verify seed) change.  The round runs in passes, each pass
        # one op of every slot with reps left, so a slot's reps are spread
        # over the round rather than run back to back.
        ops = []
        for rep in range(max(reps for *_, reps in self.slots)):
            for slot, (command, size, variant, reps) in enumerate(self.slots):
                if rep < reps:
                    ops.append(Op(rnd, len(ops), slot, command, size, variant,
                                  vseed=seed * 100_000 + rnd if command == "verify" else 0))
        return ops


# Each command meets each shape once and each size meets each shape once.
# A round runs the 1k slots three times and the 2k slots twice: the median
# slot is a 1k or 2k one, and its latency is then the fast end of six or
# more ops per run rather than of three.
_ANALYSE_SLOTS = (
    ("classify", 1000, "bimodal", 3), ("invert", 1000, "normal", 3),
    ("qdensity", 1000, "ties", 3),
    ("classify", 2000, "ties", 2), ("invert", 2000, "bimodal", 2),
    ("qdensity", 2000, "normal", 2),
    ("classify", 4000, "normal", 1), ("invert", 4000, "ties", 1),
    ("qdensity", 4000, "bimodal", 1),
)
_INGEST_SLOTS = (
    ("ingest", 16000, "ties", 1), ("decompose", 16000, "normal", 1),
    ("ingest", 64000, "normal", 1), ("decompose", 64000, "bimodal", 1),
)
_LAW_SLOTS = tuple(("verify", LAW_INSTANCES, law, 1) for law in LAW_IDS)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "samples-analyse", "pure",
            "The paper's main user path: classify, invert and qdensity on 1k-4k point "
            "samples, where monotone's quadratic knot_xs and _inverse_tokens paths do "
            "most of the work.",
            _ANALYSE_SLOTS, 13.1,
        ),
        Workload(
            "laws-pure", "pure",
            "verify on all 12 laws with the Fraction backend: many tiny instances make "
            "intervals, Fraction, measure.pushforward and laws the hot layers; no parsing.",
            _LAW_SLOTS, 0.95,
        ),
        Workload(
            "laws-compiled", "compiled",
            "verify on all 12 laws with the kernel built from the tracked _ratcore.c: the "
            "only workload where _ratcore runs, so kernel and numeric-protocol changes show.",
            _LAW_SLOTS, 0.6,
        ),
        Workload(
            "samples-ingest", "pure",
            "ingest and decompose on 16k-64k point samples: parsing and emitting through "
            "cli, exactnum, measure and serialize with no PiecewiseMonotone; the bypass "
            "for monotone changes.",
            _INGEST_SLOTS, 9.0,
        ),
    )
}

# The workloads of BENCHMARK.json; the others run by name and in --all only.
# A run needs several whole rounds of samples-analyse, and the benchmark's
# total time budget holds runs that long for two workloads.  laws-compiled
# runs the same laws as laws-pure and is the only one where _ratcore runs;
# samples-analyse runs the pure backend's Fraction arithmetic and the same
# parse and emit layers as samples-ingest, at smaller sizes.
GATED = ("samples-analyse", "laws-compiled")


def sample_rng(workload: str, seed: int, op: Op) -> random.Random:
    return random.Random(f"monoinv-bench:{workload}:{seed}:{op.round}:{op.index}")


def sample_values(rng: random.Random, n: int, shape: str) -> list[str]:
    """n sample values as 6-decimal strings (exact 10**6 denominators)."""
    out = []
    for _ in range(n):
        if shape == "normal":
            x = rng.gauss(0.0, 1.0)
        elif shape == "bimodal":
            x = rng.gauss(-2.0 if rng.random() < 0.5 else 2.0, 0.7)
        elif shape == "ties":
            x = round(rng.gauss(0.0, 1.0), 2)
        else:
            raise ValueError(f"unknown shape {shape!r}")
        out.append(f"{x:.6f}")
    return out


def write_samples(path: str, workload: str, seed: int, op: Op) -> None:
    values = sample_values(sample_rng(workload, seed, op), op.size, op.variant)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(values))
        fh.write("\n")
