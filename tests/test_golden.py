"""Byte-exact CLI reports on a fixed corpus.

The reports and exit codes under data/golden/ were produced by the CLI
before the segment-table caches and the linear-time scans replaced the
quadratic ones; any change to them is a change of behaviour.  Inputs: the
1000-point uniform grid sample and three small specs (an atom at the mode,
a bimodal density, and an interior gap, which has no quantile density).
The cases of tied_gauss_300 (300 values round(gauss(0, 1), 2) from
random.Random(14), written with two decimals: ties, uneven gaps and one
"-0.00") were recorded by the CLI just before measures stored their
density as a step class instead of a list of pieces.
The cases of peaked_1000 were recorded by the CLI just before the derived
tables of a function were memoized.  Its 1000 points need no seed: point 0
is 0 and gap k is (|k - 500| + 1)/1000, so the interpolated density strictly
rises, then falls, and classify takes its unimodal branch at sample scale.
The cases of peaked_atom_1001 (peaked_1000 with its middle point 501/4
repeated, an atom at the mode) and peaked_swap_1000 (peaked_1000 with gaps
201 and 202 swapped: classify exits 3, yet the quantile density exists), and
the --anchor cases of tied_gauss_300 (below every sample, above every
sample, on a five-fold tie and inside a gap), were recorded by the CLI just
before sample files were read straight into their distribution function.
The cases of half_line (density 1 on (0, inf)) and real_line (density 1/2
on the whole line), the only ones whose supporting and modal intervals
have infinite ends, were recorded by the CLI just before intervals lost
their closed-end flags.
The verify case (`verify --law all --n 200 --seed 20260808`, no input
file) was recorded by the CLI just before the quasi-concavity and
quasi-convexity scans became one two-index scan; it pins every law's
verdict and eligible count at that seed.
The cases of thirds_sevenths_28 (28 thirds and sevenths, with "1/3", "2/6"
and "1/3" one three-fold tie and "3/3" and "1" another) were recorded by
the CLI just before the sample code moved out of the CLI.  Its
denominators do not all divide the largest, so it is the one sample file
that is sorted as rationals, not as integer keys over one denominator.
The cases of plain_decimals_40 (40 plain decimals with fractions of 0 to 4
digits, bare integers, "+" and "-" signs, leading zeros such as "007.125"
and "-00.3", and ties spelled apart such as "2", "+2", "02" and "2.000")
were recorded by the CLI just before such files were read in one bulk pass;
the bulk pass reads this file.
A case may carry extra command-line `args` (`--plot-points N`, `--anchor
P/Q`); its report then lives in `<input>.<command>.<args>.out`, e.g.
`bimodal.invert.plot-points_7.out` or `tied_gauss_300.invert.anchor_1_7.out`.
"""

import json
import os
import subprocess
import sys

import pytest

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")

with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as _fh:
    CASES = json.load(_fh)


def _input_args(name):
    if name is None:
        return []  # verify draws its own instances
    spec = os.path.join(GOLDEN, f"{name}.json")
    if os.path.exists(spec):
        return ["--spec", spec]
    return ["--samples", os.path.join(DATA, f"{name}.csv")]


def case_argv(case):
    """The CLI arguments of a golden case: command, input, extra args."""
    return [case["command"], *_input_args(case.get("input")), *case.get("args", [])]


def case_id(case):
    prefix = f"{case['input']}-" if "input" in case else ""
    return f"{prefix}{case['command']}" + "".join(case.get("args", []))


def golden_report(case):
    """The recorded stdout of a golden case; '--plot-points', '7' adds
    'plot-points_7.' to the file name, '--anchor', '1/7' adds 'anchor_1_7.'.
    A case without an input file names its report after the command alone."""
    tag = "".join(a.lstrip("-") + "_" if a.startswith("--") else a.replace("/", "_") + "."
                  for a in case.get("args", []))
    stem = f"{case['input']}.{case['command']}" if "input" in case else case["command"]
    with open(os.path.join(GOLDEN, f"{stem}.{tag}out"), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_golden_report(case):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-m", "monoinv", *case_argv(case)],
                       capture_output=True, env=env)
    assert r.returncode == case["exit"]
    assert r.stderr.decode() == case["stderr"]
    assert r.stdout == golden_report(case)
