"""Hostile input never produces a traceback.

Spec documents and sample files are generated from values a user or a
broken producer might send: infinities in every spelling, huge and
degenerate ratios, literals past the digit cap, empty strings, garbage,
non-strings, wrong JSON shapes, blank, duplicate and malformed sample
lines, bytes that are not UTF-8 and JSON nested 200,000 deep; verify gets unknown law ids,
counts and knot limits around and below 1, and huge seeds; invert and
qdensity also get --plot-points around and below 1, over specs whose values
pass the range of a float.  Every command
must end with a documented exit code; an error exit prints exactly one
`error:` line and nothing on stdout.  classify's exit 3 ("not unimodal") is
a verdict with a report, not an error.  Exit 6 (a failed internal
consistency check) is a bug in monoinv, so no input may cause it.
"""

import json

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monoinv import cli

HUGE = 10**400
# atom masses with coprime 1501-digit denominators: the distribution
# function's values have over 4,300 digits, Python's default int-to-str limit
LONG_SUMS = {"atoms": [{"x": str(i), "mass": f"1/{10**1500 + k}"}
                       for i, k in enumerate((1, 3, 7, 9))]}
# one digit past the cap on a literal's length
LONG = "9" * 4301
# a uniform law on (0, 10**400): the plotted x values pass the float range
HUGE_RANGE = {"uniform_pieces": [{"a": "0", "b": str(HUGE), "density": f"1/{HUGE}"}]}

# exit codes each command may give; the error exits print one `error:` line
ALLOWED = {
    "classify": {0, 1, 2, 3},
    "invert": {0, 1, 2},
    "qdensity": {0, 1, 2, 4},
    "ingest": {0, 1, 2},
    "decompose": {0, 1, 2},
    "verify": {0, 1},
}
ERROR_EXITS = {1, 2, 4}

fuzz_settings = settings(max_examples=200, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                HealthCheck.too_slow])


def _mostly(common, rare):
    """Mostly common and sometimes rare, so that generated inputs get past
    the parser often enough to reach the analysis."""
    return st.integers(min_value=0, max_value=9).flatmap(lambda i: rare if i == 5 else common)


small_numbers = st.builds(
    lambda n, d: f"{n}/{d}" if d != 1 else str(n),
    st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4))
huge_numbers = st.sampled_from([f"{HUGE}/3", f"-1/{HUGE}", f"{HUGE}", f"1/{HUGE + 1}",
                                f"{HUGE}.{HUGE}", f"-{HUGE}/{HUGE - 1}", LONG, f"1/{LONG}"])
bad_numbers = st.sampled_from([
    "0/0", "1/0", "-1/-2", "1/-2", "", "  ", "abc", "1.2.3", "--1", "+", ".", "1e5", "nan",
    "0x10", "1/2/3", "½",
])
infinities = st.sampled_from(["inf", "-inf", "+inf", "Infinity", "-Infinity", "INF",
                              " -inf ", "infinity", "+infinity"])
bad_infinities = st.sampled_from(["-+inf", "inf/1", "∞", "- inf", "infinite"])
non_strings = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                        st.floats(allow_nan=True), st.just([]), st.just({}))

numbers = _mostly(st.one_of(small_numbers, small_numbers, huge_numbers),
                  st.one_of(bad_numbers, infinities, non_strings))
endpoints = _mostly(st.one_of(small_numbers, small_numbers, infinities, huge_numbers),
                    st.one_of(bad_numbers, bad_infinities, non_strings))


def _fields(*pairs):
    """An object with any subset of the (key, strategy) fields."""
    return st.fixed_dictionaries({}, optional=dict(pairs))


positive = st.one_of(
    st.builds(lambda n, d: f"{n}/{d}", st.integers(min_value=1, max_value=6),
              st.integers(min_value=1, max_value=4)),
    st.sampled_from([f"{HUGE}/3", f"1/{HUGE + 1}", f"{HUGE}.{HUGE}"]))
masses = _mostly(positive, st.one_of(numbers, infinities))
# piece ends in order, either end possibly infinite or huge
spans = st.one_of(
    st.tuples(st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6),
              st.integers(min_value=1, max_value=3), st.booleans(), st.booleans()).map(
        lambda t: ("-inf" if t[3] else f"{t[0]}/{t[2]}",
                   "inf" if t[4] else f"{t[0] + t[1]}/{t[2]}")),
    st.sampled_from([(f"-{HUGE}", f"{HUGE}/3"), (f"1/{HUGE + 1}", f"1/{HUGE}"),
                     ("-inf", f"-{HUGE}")]),
)

hostile = st.one_of(bad_numbers, bad_infinities, infinities, non_strings)
keys = st.sampled_from(["density", "mass"])

atoms = _mostly(
    st.fixed_dictionaries({"x": numbers, "mass": masses}),
    st.one_of(st.fixed_dictionaries({"x": hostile, "mass": masses}),
              st.fixed_dictionaries({"x": numbers, "mass": hostile}),
              _fields(("x", numbers), ("mass", numbers)), non_strings))
pieces = _mostly(
    st.builds(lambda ab, key, value: {"a": ab[0], "b": ab[1], key: value}, spans, keys, masses),
    st.one_of(st.builds(lambda ab, key, value: {"a": ab[0], "b": ab[1], key: value},
                        spans, keys, hostile),
              st.builds(lambda a, ab, key, value: {"a": a, "b": ab[1], key: value},
                        hostile, spans, keys, masses),
              st.builds(lambda ab, b, key, value: {"a": ab[0], "b": b, key: value},
                        spans, hostile, keys, masses),
              _fields(("a", endpoints), ("b", endpoints), ("density", numbers),
                      ("mass", numbers)),
              non_strings))
carriers = _mostly(
    st.sampled_from([{}, {"lo": "-inf", "hi": "inf"}, {"lo": "-Infinity", "hi": "+inf"},
                     {"hi": " INFINITY "}, {"lo": f"-{HUGE}", "hi": f"{HUGE}"}]),
    st.one_of(spans.map(lambda ab: {"lo": ab[0], "hi": ab[1]}),
              st.fixed_dictionaries({"lo": hostile}), st.fixed_dictionaries({"hi": hostile}),
              _fields(("lo", endpoints), ("hi", endpoints)), non_strings))
spec_docs = _mostly(
    st.fixed_dictionaries({}, optional={
        "carrier": carriers,
        "atoms": _mostly(st.lists(atoms, min_size=1, max_size=4), non_strings),
        "uniform_pieces": _mostly(st.lists(pieces, min_size=1, max_size=4), non_strings),
    }),
    st.one_of(non_strings, st.lists(st.integers(), max_size=2)),
)

sample_lines = st.one_of(
    st.sampled_from(["", "   ", "0", "0", "1", "1", "-1", "0.5", "1/3", "2.25", " 7 "]),
    st.integers(min_value=-50, max_value=50).map(str),
    st.integers(min_value=-50, max_value=50).map(str),
    st.sampled_from([str(HUGE), f"-{HUGE}", f"1/{HUGE}", f"{HUGE}.5", "0." + "0" * 399 + "1",
                     LONG, f"0.{LONG}"]),
    st.sampled_from(["abc", "1,2", "1/0", "0/0", "inf", "nan", "1e3", "--2", "1.2.3", "\t"]),
    st.just("\udcff"),  # written as the byte 0xff, which is not UTF-8
)


def _check(result, command, plot=False):
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        f"{type(result.exception).__name__}: {result.exception}")
    assert "Traceback" not in result.output and "Traceback" not in result.stderr
    assert result.exit_code in ALLOWED[command], (result.exit_code, result.stderr)
    error_lines = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    if result.exit_code in ERROR_EXITS:
        assert len(error_lines) == 1 and result.stderr == error_lines[0] + "\n", result.stderr
        assert result.stdout == ""
    else:
        assert result.stderr == ""
        if plot:
            assert result.stdout.startswith("x,left,right\n")
        else:
            json.loads(result.stdout)


@fuzz_settings
@given(doc=spec_docs, command=st.sampled_from(["classify", "invert", "qdensity", "decompose"]),
       plot_points=st.sampled_from([None, -1, 0, 1, 7]))
@example(doc=LONG_SUMS, command="classify", plot_points=None)
@example(doc=LONG_SUMS, command="invert", plot_points=None)
@example(doc=HUGE_RANGE, command="invert", plot_points=7)
@example(doc=HUGE_RANGE, command="qdensity", plot_points=7)
@example(doc=b'{"atoms": [\xff]}', command="invert", plot_points=None)
@example(doc=b"[" * 200_000, command="decompose", plot_points=None)
def test_hostile_specs(tmp_path, doc, command, plot_points):
    path = tmp_path / "spec.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    args = [command, "--spec", str(path)]
    plot = plot_points is not None and command in ("invert", "qdensity")
    if plot:
        args += ["--plot-points", str(plot_points)]
    _check(CliRunner().invoke(cli.main, args), command, plot)


@fuzz_settings
@given(lines=st.lists(sample_lines, max_size=12), header=st.booleans(),
       degenerate=st.booleans(),
       command=st.sampled_from(["classify", "invert", "qdensity", "ingest", "decompose"]))
def test_hostile_sample_files(tmp_path, lines, header, degenerate, command):
    path = tmp_path / "samples.txt"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    args = [command, "--samples", str(path)]
    if header:
        args.append("--header")
    if degenerate:
        args.append("--allow-degenerate")
    result = CliRunner().invoke(cli.main, args)
    _check(result, command)


law_ids = st.one_of(
    st.sampled_from(["GALOIS", "DOUBLE_INV", "DECOMP", "MAIN_EQUIV", "all"]),
    st.sampled_from(["", " ", "galois", "All", "GALOIS ", "BOGUS", "1", "ALL,GALOIS", "∞"]),
    st.text(max_size=6))
seeds = st.one_of(st.integers(min_value=-5, max_value=5),
                  st.sampled_from([10**30, -10**30, 2**63, -(2**63) - 1]))


@fuzz_settings
@given(law=law_ids, n=st.integers(min_value=-3, max_value=3), seed=seeds,
       max_knots=st.one_of(st.integers(min_value=-3, max_value=3),
                           st.sampled_from([2002, 3000, 10**30])))
@example(law="DOUBLE_INV", n=3, seed=1, max_knots=2002)
def test_hostile_verify_arguments(law, n, seed, max_knots):
    # n stays at most 3 and an accepted max_knots at most 3, so that
    # `--law all` runs 36 small instances
    args = ["verify", "--law", law, "--n", str(n), "--seed", str(seed),
            "--max-knots", str(max_knots)]
    _check(CliRunner().invoke(cli.main, args), "verify")
