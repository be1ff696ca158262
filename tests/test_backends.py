"""Both numeric backends give byte-identical results.

The compiled kernel is built from the tracked _ratcore.c (conftest's
compiled_package); each run is a subprocess with MONOINV_BACKEND forced, so
no run can fall back to the other backend.  Compared: the full `verify`
report on a stream of small instances the golden corpus does not run, and
every report of the golden corpus.
"""

import json
import os
import subprocess
import sys

import pytest

from test_golden import CASES, case_argv, case_id, golden_report

TESTS = os.path.dirname(__file__)
SRC = os.path.join(TESTS, "..", "src")


def _run(backend, pythonpath, *args):
    env = dict(os.environ, MONOINV_BACKEND=backend, PYTHONPATH=pythonpath)
    return subprocess.run([sys.executable, "-m", "monoinv", *args], capture_output=True, env=env)


def _both(compiled_package, *args):
    pure = _run("pure", SRC, *args)
    compiled = _run("compiled", compiled_package, *args)
    return pure, compiled


def test_compiled_run_uses_the_kernel(compiled_package):
    env = dict(os.environ, MONOINV_BACKEND="compiled", PYTHONPATH=compiled_package)
    r = subprocess.run(
        [sys.executable, "-c",
         "import monoinv.exactnum as e; print(e.BACKEND, e.Q.__module__, e.Q.__name__)"],
        capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["compiled", "monoinv._ratcore", "Rat"]


def test_verify_reports_are_identical(compiled_package):
    args = ("verify", "--law", "all", "--n", "200", "--seed", "1", "--max-knots", "3")
    pure, compiled = _both(compiled_package, *args)
    assert pure.returncode == 0, pure.stderr.decode()
    assert json.loads(pure.stdout)["passed"] is True
    assert (compiled.returncode, compiled.stderr) == (pure.returncode, pure.stderr)
    assert compiled.stdout == pure.stdout


@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_golden_reports_are_identical(compiled_package, case):
    pure, compiled = _both(compiled_package, *case_argv(case))
    want = golden_report(case)
    for r in (pure, compiled):
        assert r.returncode == case["exit"]
        assert r.stderr.decode() == case["stderr"]
        assert r.stdout == want
