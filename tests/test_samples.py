"""Sample files go straight to their measure; the spec round trip is the oracle.

A sample file used to become a measure by way of a spec document: every
line parsed to a rational, the values sorted and counted, every sample,
piece and mass formatted to a `p/q` string, and the strings parsed back by
spec_to_measure.  That route is kept here as the reference.  The library
route (read_samples, its degenerate check, then samples_to_measure or
samples_to_spec) must give the same measure, the same `ingest` bytes, and
the same errors and exit codes, on files with ties, negative and huge
samples, decimals of mixed lengths, `p/q` lines, decimals mixed with `p/q`
lines, pairwise coprime denominators and one long decimal among short ones
(where the samples sort as rationals, not integers) and blank lines, with
and without --header and --allow-degenerate.

classify, invert and qdensity read the runs straight into the distribution
function (samples_to_function); the distribution function of
samples_to_measure's measure is its oracle, at anchors below, on, between
and above the samples, and its associated measure must be that measure.
"""

import json

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monoinv import cli
from monoinv.errors import ParseError, SpecError
from monoinv.exactnum import fmt_ratio, parse_ratio, rat
from monoinv.measure import associated_measure, distribution_function
from monoinv.monotone import validate
from monoinv.samples import (
    _degenerate,
    read_samples,
    samples_to_function,
    samples_to_measure,
    samples_to_spec,
)
from monoinv.serialize import measure_to_spec_json


def reference_read_samples(path, header):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if header and lines:
        lines = lines[1:]
    values = []
    for lineno, line in enumerate(lines, start=2 if header else 1):
        s = line.strip()
        if not s:
            continue
        try:
            values.append(parse_ratio(s))
        except ValueError as e:
            raise ParseError(f"line {lineno}: {e}") from e
    if not values:
        raise SpecError("no samples")
    return values


def reference_samples_to_spec(values, allow_degenerate):
    values = sorted(values)
    n = len(values)
    distinct = sorted(set(values))
    if len(distinct) < 2:
        if not allow_degenerate:
            raise SpecError(
                "fewer than 2 distinct samples; pass --allow-degenerate for a pure atom")
        return {
            "carrier": {"lo": "-inf", "hi": "inf"},
            "atoms": [{"x": fmt_ratio(distinct[0]), "mass": "1"}],
            "uniform_pieces": [],
        }
    unit = rat(1, n - 1)
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    atoms = []
    for v in distinct:
        if counts[v] > 1:
            atoms.append({"x": fmt_ratio(v), "mass": fmt_ratio(unit * (counts[v] - 1))})
    pieces = [
        {"a": fmt_ratio(a), "b": fmt_ratio(b), "mass": fmt_ratio(unit)}
        for a, b in zip(distinct, distinct[1:])
    ]
    return {"carrier": {"lo": "-inf", "hi": "inf"}, "atoms": atoms, "uniform_pieces": pieces}


def _outcome(build):
    """("ok", result) or ("error", exit code, message) as the CLI reports it."""
    try:
        return ("ok", build())
    except ParseError as e:
        return ("error", 1, str(e))
    except SpecError as e:
        return ("error", 2, str(e))


def _reference(path, header, degenerate):
    def build():
        spec = reference_samples_to_spec(reference_read_samples(path, header), degenerate)
        return spec, cli.spec_to_measure(spec)
    return _outcome(build)


def _library(path, header, degenerate):
    def build():
        runs = read_samples(path, header)
        _degenerate(runs, degenerate)
        return samples_to_spec(runs), samples_to_measure(runs)
    return _outcome(build)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
HUGE = 10**40


def _decimal(value, digits):
    sign = "-" if value < 0 else ""
    whole, frac = divmod(abs(value), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


decimals = st.builds(_decimal, st.integers(min_value=-3000, max_value=3000),
                     st.integers(min_value=0, max_value=4))
ratios = st.builds(lambda n, d: f"{n}/{d}", st.integers(min_value=-40, max_value=40),
                   st.integers(min_value=1, max_value=12))
coprime = st.builds(lambda n, p: f"{n}/{p}", st.integers(min_value=-60, max_value=60),
                    st.sampled_from(PRIMES))
spellings = st.sampled_from(["0.5", "1/2", "2/4", "0.50", " +0.5 ", ".5", "-0", "0", "0.0",
                             "-1/3", "-2/6", "7", "7.", "7/1"])
huge = st.sampled_from([str(HUGE), f"-{HUGE}", f"1/{HUGE}", f"{HUGE}.5",
                        "0." + "0" * 30 + "1", f"{HUGE + 1}/{HUGE}"])
blank = st.sampled_from(["", "   ", "\t"])
bad = st.sampled_from(["abc", "1/0", "0/0", "1e3", "--2", "1.2.3", "nan"])
one_line = st.one_of(decimals, decimals, ratios, coprime, spellings, huge, blank)


@st.composite
def sample_files(draw, faulty=True):
    # a small pool of values drawn with repetition makes ties common
    pool = draw(st.lists(one_line, min_size=1, max_size=6))
    lines = draw(st.lists(st.one_of(st.sampled_from(pool), one_line), max_size=25))
    if faulty and draw(st.integers(min_value=0, max_value=9)) == 0:
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(bad))
    return lines


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(lines=sample_files(), header=st.booleans(), degenerate=st.booleans())
@example(lines=["1/2", "1/3", "1/5", "2/7", "0.25", "0.3"], header=False, degenerate=False)
@example(lines=["0.5", "1/2", "2/4", "7", "-3.125", "-3.125"], header=False, degenerate=False)
@example(lines=["0.5", "1.25", "0." + "3" * 300, "2", "-0.75", "1.25"], header=False,
         degenerate=False)
@example(lines=["x", "4", "4.0", "8/2"], header=True, degenerate=True)
@example(lines=["4", "4.0", "8/2"], header=False, degenerate=False)
@example(lines=["", " "], header=False, degenerate=True)
@example(lines=["1", "2", "1/0"], header=False, degenerate=False)
def test_library_route_matches_the_spec_round_trip(tmp_path, lines, header, degenerate):
    path = tmp_path / "samples.txt"
    path.write_text("\n".join(lines) + "\n")
    want = _reference(str(path), header, degenerate)
    got = _library(str(path), header, degenerate)
    assert got == want

    flags = (["--header"] if header else []) + (["--allow-degenerate"] if degenerate else [])
    runner = CliRunner()
    ingest = runner.invoke(cli.main, ["ingest", "--samples", str(path), *flags])
    decompose = runner.invoke(cli.main, ["decompose", "--samples", str(path), *flags])
    if want[0] == "error":
        _, code, message = want
        for result in (ingest, decompose):
            assert (result.exit_code, result.stdout, result.stderr) == (
                code, "", f"error: {message}\n")
    else:
        spec, measure = want[1]
        assert ingest.exit_code == 0 and ingest.stderr == ""
        assert ingest.stdout == json.dumps(spec, indent=2) + "\n"
        assert decompose.exit_code == 0
        assert json.loads(decompose.stdout)["echo"] == measure_to_spec_json(measure)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(lines=sample_files(faulty=False))
@example(lines=["1/2", "1/3", "1/5", "2/7", "0.25", "0.3", "0.3"])
@example(lines=["0.5", "1/2", "2/4", "7", "-3.125", "-3.125", "1.5"])
@example(lines=["0", "1", "2", "3", "3", "4", "5", "7"])
def test_samples_to_function_is_the_distribution_function_of_the_measure(tmp_path, lines):
    path = tmp_path / "samples.txt"
    path.write_text("\n".join(lines) + "\n")
    try:
        runs = read_samples(str(path), header=False)
    except SpecError:  # no samples
        return
    keys, _, den = runs
    values = [rat(k, den) for k in keys]
    if len(values) < 2:
        return
    m = samples_to_measure(runs)
    mids = [(a + b) / 2 for a, b in zip(values, values[1:])]
    for z in (values[0] - 1, *values, *mids, values[-1] + 1):
        got, want = samples_to_function(runs, z), distribution_function(m, z)
        assert got == want and repr(got) == repr(want), z
        assert validate(got) == got
        assert associated_measure(got) == m
