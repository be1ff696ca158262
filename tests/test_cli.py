import datetime
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monoinv import cli, serialize, unimodal
from monoinv.errors import InternalInconsistency, SpecError

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "monoinv", *args],
        capture_output=True, text=True, env=env,
    )


FIXA_SPEC = {
    "atoms": [],
    "uniform_pieces": [
        {"a": "0", "b": "1/2", "density": "1"},
        {"a": "3/2", "b": "2", "density": "1"},
    ],
}

FIXD_SPEC = {
    "atoms": [{"x": "1/2", "mass": "1/2"}],
    "uniform_pieces": [{"a": "0", "b": "1", "density": "1/2"}],
}


@pytest.fixture
def spec_file(tmp_path):
    def write(doc, name="spec.json"):
        """doc as JSON, or bytes as they are."""
        p = tmp_path / name
        p.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        return str(p)

    return write


def test_classify_fixa_exit3(spec_file):
    r = run_cli("classify", "--spec", spec_file(FIXA_SPEC))
    assert r.returncode == 3
    rep = json.loads(r.stdout)
    assert rep["classification"]["cdf_unimodal"] is False
    assert rep["classification"]["qf_absolutely_continuous"] is False


def test_classify_fixd_exit0(spec_file):
    r = run_cli("classify", "--spec", spec_file(FIXD_SPEC))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["classification"]["quantile_modes"] == ["1/4", "3/4"]
    assert rep["classification"]["modes"] == ["1/2", "1/2"]
    assert rep["classification"]["atom_at_mode"] == {"x": "1/2", "mass": "1/2"}


def test_classify_empty_spec_exit2(spec_file):
    r = run_cli("classify", "--spec", spec_file({"atoms": [], "uniform_pieces": []}))
    assert r.returncode == 2


def test_classify_parse_error_exit1(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    assert run_cli("classify", "--spec", str(p)).returncode == 1
    assert run_cli("classify", "--spec", str(tmp_path / "missing.json")).returncode == 1


def test_classify_overlapping_pieces_exit2(spec_file):
    doc = {"uniform_pieces": [
        {"a": "0", "b": "2", "density": "1"},
        {"a": "1", "b": "3", "density": "1"},
    ]}
    assert run_cli("classify", "--spec", spec_file(doc)).returncode == 2


@pytest.mark.parametrize("doc, key", [
    ({"atoms": 5}, "atoms"),
    ({"atoms": None}, "atoms"),
    ({"uniform_pieces": "x"}, "uniform_pieces"),
    ({"uniform_pieces": {"a": "0", "b": "1", "density": "1"}}, "uniform_pieces"),
])
def test_non_list_spec_field_exit1(spec_file, doc, key):
    r = run_cli("classify", "--spec", spec_file(doc))
    assert r.returncode == 1
    assert r.stderr == f"error: {key} must be a list\n"


@pytest.mark.parametrize("doc, code, message", [
    ({"carrier": {"lo": "1", "hi": "0"}, "atoms": [{"x": "0", "mass": "1"}]}, 2,
     "bad carrier: interval endpoints out of order"),
    ({"carrier": {"lo": "1", "hi": "1"}, "atoms": [{"x": "1", "mass": "1"}]}, 2,
     "carrier is empty"),
    ({"carrier": {"lo": "0", "hi": "1"}, "atoms": [{"x": "2", "mass": "1"}]}, 2,
     "atom at 2 outside carrier Interval(0, 1)"),
    ({"atoms": [{"x": "0"}]}, 1, "atom #0 needs fields x and mass"),
    ({"uniform_pieces": [{"a": "0", "b": "1", "mass": "1", "density": "1"}]}, 2,
     "piece #0 needs exactly one of mass or density"),
    ({"uniform_pieces": [{"a": "1", "b": "1", "mass": "1"}]}, 2, "piece #0 has a >= b"),
    ({"uniform_pieces": [{"a": "0", "b": "1", "mass": "0"}]}, 2,
     "piece #0 has nonpositive mass"),
    ({"uniform_pieces": [{"a": "0", "b": "1", "density": "-1/2"}]}, 2,
     "piece #0 has nonpositive density"),
    ({"uniform_pieces": [{"a": "0", "b": "inf", "mass": "1"}]}, 2,
     "piece #0: mass on an infinite piece; give a density"),
    ({"uniform_pieces": [{"a": "x", "b": "1", "density": "1"}]}, 1,
     "bad piece #0 a: not a number: 'x'"),
    ({"uniform_pieces": [{"a": 0, "b": "1", "density": "1"}]}, 1,
     "piece #0 a must be a string, got 0"),
    ({"carrier": ["0", "1"], "atoms": [{"x": "0", "mass": "1"}]}, 1,
     "carrier must be an object with lo/hi"),
    pytest.param(b'{"atoms": [\xff]}', 1,
                 "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 11: "
                 "invalid start byte", id="not-utf8"),
    pytest.param(b"[" * 200_000, 1, "cannot read {path}: JSON nested too deeply",
                 id="nested-200000"),
    ({"atoms": [{"x": "1.²", "mass": "1"}]}, 1,
     "bad atom #0 x: invalid literal for int() with base 10: '²'"),
    ({"uniform_pieces": [{"a": "0", "density": "1"}]}, 1, "piece #0 needs fields a and b"),
])
def test_spec_errors_name_the_fault(spec_file, doc, code, message):
    path = spec_file(doc)
    r = CliRunner().invoke(cli.main, ["classify", "--spec", path])
    assert (r.exit_code, r.stdout, r.stderr) == (code, "", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize("carrier, message", [
    ({"lo": "x", "hi": "1"}, "bad carrier.lo: not a number: 'x'"),
    ({"lo": "0", "hi": 5}, "carrier.hi must be a string, got 5"),
])
def test_unreadable_carrier_end_exit1(spec_file, carrier, message):
    # a carrier end that cannot be read is a parse error (exit 1), not the
    # invalid carrier (exit 2) of ends out of order, although a ParseError
    # is also a ValueError
    doc = {"carrier": carrier, "atoms": [{"x": "1/2", "mass": "1"}]}
    r = CliRunner().invoke(cli.main, ["classify", "--spec", spec_file(doc)])
    assert (r.exit_code, r.stdout, r.stderr) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("lines, code, message", [
    (None, 1, "cannot read {path}: "),
    (["", " "], 2, "no samples"),
    (["1", "", "x"], 1, "line 3: not a number: 'x'"),
    (["3", "3.0", "6/2"], 2,
     "fewer than 2 distinct samples; pass --allow-degenerate for a pure atom"),
    pytest.param(b"1\n\xff\n2\n", 1, "cannot read {path}: 'utf-8' codec can't decode byte 0xff",
                 id="not-utf8"),
    (["1", "²"], 1, "line 2: invalid literal for int() with base 10: '²'"),
    (["1", "1.²"], 1, "line 2: invalid literal for int() with base 10: '²'"),
])
def test_sample_errors_name_the_fault(tmp_path, lines, code, message):
    path = tmp_path / "samples.txt"
    if isinstance(lines, bytes):
        path.write_bytes(lines)
    elif lines is not None:
        path.write_text("\n".join(lines) + "\n")
    for command in ("classify", "ingest"):
        r = CliRunner().invoke(cli.main, [command, "--samples", str(path)])
        assert (r.exit_code, r.stdout) == (code, "")
        assert r.stderr.startswith("error: " + message.format(path=path)), r.stderr
        assert r.stderr.count("\n") == 1


_BOM_INPUTS = {  # name: (source, text, flags)
    "bulk": ("samples", "0.5\n1.25\n1.25\n3\n", []),  # plain decimals: the bulk pass
    "lines": ("samples", "1/3\n1/2\n1/2\n2\n", []),  # p/q lines: the line parse
    "header": ("samples", "value\n0.5\n1.25\n3\n", ["--header"]),
    "spec": ("spec", json.dumps(FIXD_SPEC), []),
}


@pytest.mark.parametrize("command, name", [
    (command, name) for name in _BOM_INPUTS for command in ("classify", "decompose", "ingest")
    if (command, name) != ("ingest", "spec")])
def test_byte_order_mark_is_no_part_of_the_input(tmp_path, command, name):
    # a file that starts with a byte order mark, as spreadsheet programs save
    # CSV, gives the report of the same file without one
    source, text, flags = _BOM_INPUTS[name]
    results = []
    for bom in ("", "\ufeff"):
        path = tmp_path / f"input{len(bom)}"
        path.write_bytes((bom + text).encode("utf-8"))
        r = CliRunner().invoke(cli.main, [command, f"--{source}", str(path), *flags])
        results.append((r.exit_code, r.stdout, r.stderr))
    assert results[0] == results[1]
    assert results[0][0] in (0, 3) and results[0][2] == ""


@pytest.mark.parametrize("digits", [4300, 4301, 10**6])
@pytest.mark.parametrize("source", ["samples", "spec", "anchor"])
def test_digit_cap(tmp_path, spec_file, source, digits):
    # a literal past the cap is refused before it is read, in well under the
    # seconds Python takes to convert a million digits
    number = "7" * digits
    if source == "samples":
        path = tmp_path / "samples.txt"
        path.write_text(f"0\n1\n{number}\n")
        args, where = ["--samples", str(path)], "line 3"
    elif source == "anchor":
        path = tmp_path / "samples.txt"
        path.write_text("0\n1\n")
        args, where = ["--samples", str(path), "--anchor", number], "bad --anchor"
    else:
        args = ["--spec", spec_file({"atoms": [{"x": "0", "mass": "1/2"},
                                               {"x": number, "mass": "1/2"}]})]
        where = "bad atom #1 x"
    started = time.perf_counter()
    r = CliRunner().invoke(cli.main, ["classify", *args])
    assert time.perf_counter() - started < 1
    if digits <= 4300:
        assert r.exit_code in (0, 3), r.output
    else:
        assert (r.exit_code, r.stdout, r.stderr) == (
            1, "", f"error: {where}: a number of more than 4300 digits\n")


@pytest.mark.parametrize("doc, digits, code, stderr", [
    (b'{"atoms": [{"x": "0", "mass": "1/2"}, {"x": %s, "mass": "1/2"}]}', 10**6, 1,
     "error: atom #1 x must be a string ('p/q' or decimal), "
     "got a number of more than 100 digits\n"),
    (b'{"atoms": [{"x": "0", "mass": "1/2"}, {"x": %s, "mass": "1/2"}]}', 100, 1,
     "error: atom #1 x must be a string ('p/q' or decimal), got " + "7" * 100 + "\n"),
    (b'{"uniform_pieces": [{"a": "0", "b": "1", "density": -0.%se5}]}', 10**6, 1,
     "error: piece #0 density must be a string ('p/q' or decimal), "
     "got -77777.77777777778\n"),
    (b'{"note": %s, "atoms": [{"x": "1/2", "mass": "1/2"}], '
     b'"uniform_pieces": [{"a": "0", "b": "1", "density": "1/2"}]}', 10**6, 0, ""),
], ids=["numeric-field", "numeric-field-100", "float", "unknown-key"])
def test_json_number_cap(spec_file, doc, digits, code, stderr):
    # json.load converts no integer literal of more than 100 digits (a float
    # literal converts in linear time): a numeric field refuses it by name in
    # one short line, an unknown key ignores it, and neither spends the
    # seconds converting a million digits takes
    started = time.perf_counter()
    r = CliRunner().invoke(cli.main, ["classify", "--spec", spec_file(doc % (b"7" * digits))])
    assert time.perf_counter() - started < 1
    assert (r.exit_code, r.stderr) == (code, stderr)
    assert len(r.stderr) <= 200


@pytest.mark.parametrize("source", ["samples", "ratio", "spec"])
def test_error_lines_show_the_start_of_a_long_input(tmp_path, spec_file, source):
    # an input echoed in an error line is cut to the first 100 characters of
    # its repr; shorter ones are echoed whole (test_spec_errors_name_the_fault)
    if source in ("samples", "ratio"):
        path = tmp_path / "samples.txt"
        path.write_text("0\n1\n" + "x" * 300_000 + ("/1\n" if source == "ratio" else "\n"))
        args = ["--samples", str(path)]
        stderr = "error: line 3: not a number: '" + "x" * 99 + "...\n"
    else:
        args = ["--spec", spec_file({"atoms": [{"x": [1] * 100_000, "mass": "1"}]})]
        stderr = ("error: atom #0 x must be a string ('p/q' or decimal), got ["
                  + "1, " * 33 + "...\n")
    started = time.perf_counter()
    r = CliRunner().invoke(cli.main, ["classify", *args])
    assert time.perf_counter() - started < 1
    assert (r.exit_code, r.stdout, r.stderr) == (1, "", stderr)
    assert len(r.stderr) <= 200


@pytest.mark.parametrize("command", ["classify", "invert", "qdensity", "decompose", "ingest",
                                     "verify"])
def test_unwritable_out_names_the_file(spec_file, tmp_path, command):
    out = tmp_path / "missing" / "report.json"
    samples = tmp_path / "samples.txt"
    samples.write_text("0\n1\n")
    args = {"ingest": ["--samples", str(samples)], "verify": ["--law", "GALOIS", "--n", "1"]}
    args = args.get(command, ["--spec", spec_file(FIXD_SPEC)])
    r = CliRunner().invoke(cli.main, [command, *args, "--out", str(out)])
    assert (r.exit_code, r.stdout) == (1, "")
    assert r.stderr.startswith(f"error: cannot write {out}: "), r.stderr
    assert r.stderr.count("\n") == 1


def _broken_check(*args):
    raise InternalInconsistency("absolute-continuity characterizations disagree")


@pytest.mark.parametrize("command, module, name", [
    ("classify", unimodal, "gen_inverse_abs_cont"),
    ("qdensity", unimodal, "gen_inverse_abs_cont"),
    ("invert", cli, "generalized_inverse"),
])
def test_internal_inconsistency_exit6(spec_file, tmp_path, monkeypatch, command, module, name):
    # a failed consistency check is a bug, never reported as an invalid spec;
    # the analysis ends before the report is opened, so no partial report is left
    monkeypatch.setattr(module, name, _broken_check)
    out = tmp_path / "report.json"
    r = CliRunner().invoke(cli.main, [command, "--spec", spec_file(FIXD_SPEC), "--out", str(out)])
    assert r.exit_code == 6
    assert r.stdout == ""
    assert r.stderr == ("error: internal consistency check failed (a bug in monoinv): "
                        "absolute-continuity characterizations disagree\n")
    assert not out.exists()


OVERLAP_SPEC = {"uniform_pieces": [{"a": "0", "b": "2", "density": "1/4"},
                                   {"a": "1", "b": "3", "density": "1/4"}]}


def test_in_process_error_exits(spec_file, tmp_path, monkeypatch, capsys):
    # the benchmark worker runs each command in-process through the names
    # below with standalone_mode=False, where click re-raises a
    # ClickException instead of exiting: each error code must still leave
    # as a SystemExit, after one `error:` line
    from monoinv.cli import main, spec_to_measure

    with pytest.raises(SpecError, match="pairwise disjoint"):
        spec_to_measure(OVERLAP_SPEC)
    bad = tmp_path / "samples.txt"
    bad.write_text("0\nx\n")
    cases = [
        (["classify", "--samples", str(bad)], 1, "line 2: not a number: 'x'"),
        (["classify", "--spec", spec_file(OVERLAP_SPEC)], 2,
         "uniform pieces must be pairwise disjoint"),
        (["qdensity", "--spec", spec_file(FIXA_SPEC, "gap.json")], 4,
         "the generalized inverse has an interior jump; no quantile density exists"),
        (["classify", "--spec", spec_file(FIXD_SPEC, "fixd.json")], 6,
         "internal consistency check failed (a bug in monoinv): "
         "absolute-continuity characterizations disagree"),
    ]
    for args, code, message in cases:
        if code == 6:
            monkeypatch.setattr(unimodal, "gen_inverse_abs_cont", _broken_check)
        with pytest.raises(SystemExit) as exited:
            main.main(args=args, prog_name="monoinv", standalone_mode=False)
        assert exited.value.code == code
        assert capsys.readouterr() == ("", f"error: {message}\n")


class _FailingFile:
    """A file whose writes fail once the first block of a list's rows has been written."""

    def __init__(self, fh):
        self.fh, self.rows = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        if self.rows:
            raise OSError(28, "No space left on device")
        self.rows += text.startswith("[\n")
        return self.fh.write(text)


def test_failed_write_mid_report_exit1(tmp_path, monkeypatch):
    samples = tmp_path / "samples.txt"
    samples.write_text("0\n1\n3\n")
    out = tmp_path / "report.json"
    monkeypatch.setattr(cli, "open", lambda path, mode="r", **kw: (
        _FailingFile if "w" in mode else lambda fh: fh)(open(path, mode, **kw)), raising=False)
    r = CliRunner().invoke(cli.main, ["classify", "--samples", str(samples), "--out", str(out)])
    assert (r.exit_code, r.stdout) == (1, "")
    assert r.stderr == f"error: cannot write {out}: [Errno 28] No space left on device\n"
    assert isinstance(r.exception, SystemExit)
    # the report was written as it was formatted, up to its first block of
    # rows: both echo pieces, but not the end of their list
    full = CliRunner().invoke(cli.main, ["classify", "--samples", str(samples)]).stdout
    assert out.read_text() == full[:full.index("\n    ]", full.index('"uniform_pieces"'))]


def test_classify_nonpositive_mass_exit2(spec_file):
    doc = {"atoms": [{"x": "0", "mass": "0"}], "uniform_pieces": []}
    assert run_cli("classify", "--spec", spec_file(doc)).returncode == 2


def test_reports_byte_identical(spec_file):
    path = spec_file(FIXD_SPEC)
    a = run_cli("classify", "--spec", path)
    b = run_cli("classify", "--spec", path)
    assert a.stdout == b.stdout


def test_round_trip_via_echo(spec_file, tmp_path):
    path = spec_file(FIXD_SPEC)
    first = run_cli("classify", "--spec", path)
    echo = json.loads(first.stdout)["echo"]
    second = run_cli("classify", "--spec", spec_file(echo, "echo.json"))
    assert first.stdout == second.stdout


def test_stamp_outside_body(spec_file):
    path = spec_file(FIXD_SPEC)
    plain = json.loads(run_cli("classify", "--spec", path).stdout)
    text = run_cli("classify", "--spec", path, "--stamp").stdout
    stamped = json.loads(text)
    assert stamped["body"] == plain
    assert list(stamped) == ["body", "stamp"]
    when = datetime.datetime.fromisoformat(stamped["stamp"])
    assert when.utcoffset() == datetime.timedelta(0)
    # the envelope is laid out as json.dumps(indent=2) lays it out
    assert text == json.dumps(stamped, indent=2) + "\n"


# every value a report can hold: nested dicts with str keys, lists, empty
# containers, strings with quotes, backslashes, control and non-ASCII
# characters, bools, None, ints and floats (nan and the infinities included)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children,
                                                                      max_size=4),
    max_leaves=25,
)


def _streamed(value, rnd):
    """value with some of its lists, chosen by rnd, as one-shot generators."""
    if isinstance(value, dict):
        return {k: _streamed(v, rnd) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        items = [_streamed(v, rnd) for v in value]
        return (v for v in items) if rnd.random() < 0.5 else items
    return value


class _Fixed:
    """A choice that streams every list (draw 0.0) or none (draw 1.0)."""

    def __init__(self, draw):
        self.draw = draw

    def random(self):
        return self.draw


def _written(value, stamp):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        cli._emit(value, out, stamp=stamp)
        with open(out, encoding="utf-8") as fh:
            return fh.read()


@given(json_values, st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=400, deadline=None)
@example({"q\"uote": ["back\\slash", "\x00\x1f\n\t", "\u00e9\u2028\U0001f600"], "": {}, "e": []},
         _Fixed(1.0), False)
@example([True, False, None, 0, -7, 10**30, 1.5, -0.0, float("inf"), float("nan")],
         _Fixed(1.0), False)
@example({"nested": [{"a": [[], [{}]]}], "t": ("tuples", "encode", "as", "lists")},
         _Fixed(0.0), False)
@example({"empty": [], "one": [[]]}, _Fixed(0.0), True)
def test_report_writer_equals_json_dumps(value, rnd, stamp):
    # lists may arrive as generators, which the writer draws once as it
    # writes; --stamp wraps the streamed body in an envelope
    text = _written(_streamed(value, rnd), stamp)
    if stamp:
        value = {"body": value, "stamp": json.loads(text)["stamp"]}
    assert text == json.dumps(value, indent=2) + "\n"


def test_report_rows_equal_json_dumps():
    # a Rows row is written as one string, laid out as json.dumps lays out its dict
    rows = {"a": serialize.Rows(("x", "mass"), iter([("1/2", "-3"), ("inf", "0")])),
            "b": [serialize.Rows(None, iter(["1", "-1/2"])), serialize.Rows(None, iter([]))]}
    plain = {"a": [{"x": "1/2", "mass": "-3"}, {"x": "inf", "mass": "0"}],
             "b": [["1", "-1/2"], []]}
    assert _written(rows, stamp=False) == json.dumps(plain, indent=2) + "\n"


def test_invert_uniform(spec_file):
    doc = {"uniform_pieces": [{"a": "0", "b": "1", "density": "1"}]}
    r = run_cli("invert", "--spec", spec_file(doc))
    assert r.returncode == 0
    inv = json.loads(r.stdout)["inverse"]
    assert inv["breakpoints"] == []
    assert inv["slopes"] == ["1"]
    assert inv["domain"] == {"lo": "0", "hi": "1"}


def test_invert_plot_points(spec_file):
    r = run_cli("invert", "--spec", spec_file(FIXD_SPEC), "--plot-points", "4")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "x,left,right"
    assert len(lines) == 6  # header + N+1 rows
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    assert xs == sorted(xs)


def test_decompose_fixd(spec_file):
    r = run_cli("decompose", "--spec", spec_file(FIXD_SPEC))
    rep = json.loads(r.stdout)
    assert rep["decomposition"]["atoms"] == [{"x": "1/2", "mass": "1/2"}]
    assert rep["decomposition"]["abs_density"]["values"] == ["0", "1/2", "0"]


def test_qdensity_exit4_on_gap(spec_file):
    r = run_cli("qdensity", "--spec", spec_file(FIXA_SPEC))
    assert r.returncode == 4


def test_qdensity_fixd(spec_file):
    r = run_cli("qdensity", "--spec", spec_file(FIXD_SPEC))
    assert r.returncode == 0
    q = json.loads(r.stdout)["quantile_density"]
    assert q["knots"] == ["1/4", "3/4"]
    assert q["values"] == ["2", "0", "2"]


def test_ingest_two_points(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("0\n1\n")
    r = run_cli("ingest", "--samples", str(p))
    spec = json.loads(r.stdout)
    assert spec["uniform_pieces"] == [{"a": "0", "b": "1", "mass": "1"}]
    assert spec["atoms"] == []


def test_ingest_three_points_then_classify(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("0\n0.5\n1\n")
    spec = json.loads(run_cli("ingest", "--samples", str(p)).stdout)
    assert spec["uniform_pieces"] == [
        {"a": "0", "b": "1/2", "mass": "1/2"},
        {"a": "1/2", "b": "1", "mass": "1/2"},
    ]
    assert run_cli("classify", "--samples", str(p)).returncode == 0


def test_ingest_ties_become_atoms(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("0\n0.5\n0.5\n1\n")
    spec = json.loads(run_cli("ingest", "--samples", str(p)).stdout)
    assert spec["atoms"] == [{"x": "1/2", "mass": "1/3"}]
    assert spec["uniform_pieces"] == [
        {"a": "0", "b": "1/2", "mass": "1/3"},
        {"a": "1/2", "b": "1", "mass": "1/3"},
    ]


def test_ingest_degenerate(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("5\n5\n")
    assert run_cli("ingest", "--samples", str(p)).returncode == 2
    r = run_cli("ingest", "--samples", str(p), "--allow-degenerate")
    assert r.returncode == 0
    assert json.loads(r.stdout)["atoms"] == [{"x": "5", "mass": "1"}]


def test_invert_refuses_a_pure_atom(tmp_path):
    # the quantile function of a pure atom is constant, a class the library
    # excludes, so invert exits 2 on degenerate samples; the commands that
    # need no inverse accept them
    p = tmp_path / "s.csv"
    p.write_text("0\n0\n0\n")
    result = CliRunner().invoke(cli.main, ["invert", "--samples", str(p), "--allow-degenerate"])
    assert (result.exit_code, result.stdout, result.stderr) == (
        2, "", "error: the generalized inverse would be constant\n")
    for command in ("classify", "qdensity", "decompose"):
        result = CliRunner().invoke(cli.main, [command, "--samples", str(p),
                                               "--allow-degenerate"])
        assert result.exit_code == 0, result.output


def test_ingest_header_flag(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("value\n0\n1\n")
    assert run_cli("ingest", "--samples", str(p)).returncode == 1
    assert run_cli("ingest", "--samples", str(p), "--header").returncode == 0


def test_anchor_override(spec_file):
    path = spec_file(FIXD_SPEC)
    r = run_cli("classify", "--spec", path, "--anchor", "1/4")
    assert r.returncode == 0
    assert json.loads(r.stdout)["anchor"] == "1/4"
    r2 = run_cli("classify", "--spec", spec_file({
        "carrier": {"lo": "0", "hi": "1"},
        "uniform_pieces": [{"a": "0", "b": "1", "density": "1"}],
        "atoms": [],
    }), "--anchor", "7")
    assert r2.returncode == 2  # anchor outside the carrier


@pytest.mark.parametrize("anchor, message", [
    ("x", "not a number: 'x'"),
    ("²", "invalid literal for int() with base 10: '²'"),  # a digit to str.isdigit
    ("1.²", "invalid literal for int() with base 10: '²'"),
    ("1e3", "not a number: '1e3'"),
])
def test_unparseable_anchor_exit1(anchor, message):
    # the error names the flag, as a spec's names its field
    data = os.path.join(os.path.dirname(__file__), "data", "thirds_sevenths_28.csv")
    for command in ("classify", "decompose"):
        r = CliRunner().invoke(cli.main, [command, "--samples", data, "--anchor", anchor])
        assert (r.exit_code, r.stdout, r.stderr) == (1, "", f"error: bad --anchor: {message}\n")


@pytest.mark.parametrize("command", ["invert", "qdensity"])
def test_plot_points_zero_exit1(spec_file, command):
    r = CliRunner().invoke(cli.main, [command, "--spec", spec_file(FIXD_SPEC),
                                      "--plot-points", "0"])
    assert (r.exit_code, r.stdout, r.stderr) == (1, "", "error: --plot-points must be at least 1\n")


@pytest.mark.parametrize("command", ["invert", "qdensity"])
def test_plot_points_with_out_writes_the_report_to_the_file(spec_file, tmp_path, command):
    # the CSV rows go to stdout and the report, as the command writes it
    # without --plot-points, to the file
    spec, out = spec_file(FIXD_SPEC), tmp_path / "report.json"
    r = CliRunner().invoke(cli.main, [command, "--spec", spec, "--plot-points", "2",
                                      "--out", str(out)])
    assert (r.exit_code, r.stderr) == (0, "")
    lines = r.stdout.splitlines()
    assert lines[0] == "x,left,right" and len(lines) == 4
    assert out.read_text(encoding="utf-8") == CliRunner().invoke(
        cli.main, [command, "--spec", spec]).stdout


def test_carrier_spec_warns_and_classifies(spec_file):
    doc = {
        "carrier": {"lo": "0", "hi": "1"},
        "atoms": [],
        "uniform_pieces": [{"a": "0", "b": "1", "density": "1"}],
    }
    r = run_cli("classify", "--spec", spec_file(doc))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["warnings"]
    assert rep["intervals"]["F"]["I"] == {"lo": "0", "hi": "1"}


def test_verify_single_law():
    r = run_cli("verify", "--law", "GALOIS", "--n", "30", "--seed", "1")
    assert r.returncode == 0
    body = json.loads(r.stdout)
    assert body["passed"] is True
    assert body["laws"][0]["law"] == "GALOIS"


def test_verify_unknown_law_exit1():
    assert run_cli("verify", "--law", "BOGUS", "--n", "1").returncode == 1


@pytest.mark.parametrize("args, message", [
    (["--n", "0"], "--n must be at least 1"),
    (["--n", "-1"], "--n must be at least 1"),
    (["--max-knots", "0"], "--max-knots must be at least 1"),
    (["--max-knots", "-3"], "--max-knots must be at least 1"),
    (["--law", "GALOIS", "--n", "2", "--max-knots", "0"], "--max-knots must be at least 1"),
])
def test_verify_argument_below_one_exit1(args, message):
    result = CliRunner().invoke(cli.main, ["verify", *args])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("max_knots", ["2002", "3000", str(10**30)])
def test_verify_too_many_knots_exit1(max_knots):
    # the generator draws distinct knot numerators from -1000..1000
    result = CliRunner().invoke(cli.main, ["verify", "--law", "DOUBLE_INV", "--n", "20",
                                           "--max-knots", max_knots, "--seed", "1"])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == "error: --max-knots must be at most 2001\n"


def test_verify_at_most_knots():
    r = run_cli("verify", "--law", "DOUBLE_INV", "--n", "3", "--max-knots", "2001", "--seed", "1")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["passed"] is True


def test_verify_bad_env_seed_exit1():
    result = CliRunner().invoke(cli.main, ["verify", "--law", "GALOIS", "--n", "1"],
                                env={"MONOINV_SEED": "seven"})
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: MONOINV_SEED must be an integer, got 'seven'\n"


def test_verify_env_seed():
    a = run_cli("verify", "--law", "DOUBLE_INV", "--n", "20", env_extra={"MONOINV_SEED": "77"})
    body = json.loads(a.stdout)
    assert body["seed"] == 77
    assert body["passed"] is True


def test_verify_all_small():
    r = run_cli("verify", "--law", "all", "--n", "20", "--seed", "3", "--max-knots", "4")
    assert r.returncode == 0
    body = json.loads(r.stdout)
    assert len(body["laws"]) == 12


def test_missing_input_exit1():
    assert run_cli("classify").returncode == 1
