"""Derived tables and objects are built a fixed number of times per command.

Every PiecewiseMonotone builds its value bounds and its generalized inverse
at most once, so the number of builds per classify / invert / qdensity depends
on how many classes the command makes, not on how many points its input has.
A table's builds are the calls of its builder, the __wrapped__ of the
memoized table, which conftest.count_calls counts.
Counting builds is the deterministic stand-in for a wall-clock scaling
bound, which would flake on a host whose speed drifts.  Each command also
derives the generalized inverse and the quantile density of its distribution
function once, and a sample file goes straight to its distribution function,
without a measure's knot walk or a spec document in between.  Objects the
library derives itself skip the public constructors, so exactnum.as_q, which
converts the ints a caller may pass, and Interval's checks run a fixed
number of times per command; functions and measures keep their knots, atoms
and density as columns, so the functions, measures and step classes a
command makes, through the public constructors or the trusted path, are as
many for 4k points as for 1k, and ingest checks its spec in one measure.
The generalized inverse is built once per function, whichever of classify,
the report's Q block and quantile_density asks first, and the step of its
slopes is its columns, with no rational comparison.  The law generators
build their instances without exactnum.as_q or the public checks.  Reports
are written from the columns as they are formatted, each entry formatted
once, so writing one holds little memory; a text is made by fmt_ratio or
drawn from fmt_ratios, which formats a column.  A file of plain decimals is
read without a parse per line, a sample function carries its density step, a
sample measure is built without comparing two rationals, a sample's inverse
makes no rational from integers, and absolute continuity of Lebesgue measure
on one interval against a sample's measure makes logarithmically many
comparisons.
"""

import dataclasses
import fractions
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from click.testing import CliRunner

from hypothesis import given, settings
from hypothesis import strategies as st

from monoinv import cli, exactnum, laws, measure, monotone, samples, unimodal
from monoinv.intervals import REAL_LINE, Interval

def _gaussian_samples(path, n, seed, places=6):
    rng = random.Random(seed)
    path.write_text("\n".join(f"{rng.gauss(0.0, 1.0):.{places}f}" for _ in range(n)) + "\n")


@pytest.mark.parametrize("command", ["classify", "invert", "qdensity"])
def test_table_builds_do_not_grow_with_points(tmp_path, count_calls, command):
    builds = {table.__name__: count_calls(table, "__wrapped__")
              for table in (monotone.value_bounds, monotone.generalized_inverse)}
    per_size = {}
    for n in (1000, 4000):
        path = tmp_path / f"{n}.txt"
        _gaussian_samples(path, n, seed=n)
        for counter in builds.values():
            counter[0] = 0
        result = CliRunner().invoke(cli.main, [command, "--samples", str(path)])
        assert result.exit_code in (0, 3), result.output
        per_size[n] = {name: counter[0] for name, counter in builds.items()}
    assert per_size[1000] == per_size[4000]
    assert 0 < per_size[1000]["value_bounds"] <= 10


@pytest.mark.parametrize("command, owner, name, want", [
    ("invert", monotone, "generalized_inverse", 1),
    ("classify", measure, "gen_inverse_abs_cont", 1),
    ("qdensity", measure, "gen_inverse_abs_cont", 1),
    ("classify", unimodal, "_quantile_step", 1),
    ("classify", monotone, "extend_to_real_line", 1),
    ("classify", monotone.generalized_inverse, "__wrapped__", 1),
    ("classify", monotone.jumps, "__wrapped__", 1),
    ("classify", monotone.flats, "__wrapped__", 1),
    ("classify", measure.step_of_slopes, "__wrapped__", 0),
    ("classify", measure.associated_measure, "__wrapped__", 1),
    ("invert", monotone.generalized_inverse, "__wrapped__", 1),
    ("qdensity", monotone.generalized_inverse, "__wrapped__", 1),
    ("classify", cli, "spec_to_measure", 0),
    ("invert", cli, "spec_to_measure", 0),
    ("qdensity", cli, "spec_to_measure", 0),
    ("classify", measure, "distribution_function", 0),
    ("invert", measure, "distribution_function", 0),
    ("qdensity", measure, "distribution_function", 0),
    ("classify", monotone, "_knot_limits", 0),
    ("invert", monotone, "_knot_limits", 0),
    ("qdensity", monotone, "_knot_limits", 0),
])
def test_each_derived_object_is_built_once(tmp_path, monkeypatch, count_calls, command, owner,
                                           name, want):
    # a table's row counts its builds on the command's sample function f: 0
    # for the step of slopes, which f carries.  classify's quantile density
    # is the step of the slopes of f's inverse, which also builds its jumps:
    # those two tables are built once more, for the inverse
    path = tmp_path / "samples.txt"
    _gaussian_samples(path, 1000, seed=1000)
    made, built = [], []  # the sample function; the functions the table is built for

    def to_function(runs, anchor, make=cli.samples_to_function):
        made.append(make(runs, anchor))
        return made[-1]

    monkeypatch.setattr(cli, "samples_to_function", to_function)
    if name == "__wrapped__":
        def build(g, table_of=owner.__wrapped__):
            built.append(g)
            return table_of(g)

        monkeypatch.setattr(owner, name, build)
    else:
        calls = count_calls(owner, name)
    result = CliRunner().invoke(cli.main, [command, "--samples", str(path)])
    assert result.exit_code in (0, 3), result.output
    if name != "__wrapped__":
        assert calls[0] == want
        return
    f = made[0]
    others = [g for g in built if g is not f]
    assert len(built) - len(others) == want
    on_inverse = owner in (monotone.jumps, measure.step_of_slopes)
    assert others == ([monotone.generalized_inverse(f)] if on_inverse else [])


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(min_value=-12, max_value=12), min_size=2, max_size=30),
       den=st.sampled_from([1, 10, 3]), anchor=st.integers(min_value=-13, max_value=13))
def test_stored_density_step_is_the_step_of_slopes(values, den, anchor):
    # samples_to_function stores its density step, decided on the integer
    # gaps; the builder of the table is the oracle.  Small integer values
    # make ties and runs of equal gaps common; den 3, with 1/7, the rational sort
    parts = [(v, den) for v in values] + [(1, 7)] * (den == 3)
    runs = samples.sample_runs(parts)
    if len(runs[0]) < 2:
        return
    f = samples.samples_to_function(runs, exactnum.rat(anchor, 2))
    stored = f.__dict__[measure.step_of_slopes.key]
    want = measure.step_of_slopes.__wrapped__(f)
    assert stored == want and repr(stored) == repr(want)
    assert measure.step_of_slopes(f) is stored


def test_plain_decimal_read_parses_no_line_alone(tmp_path, count_calls):
    # a file of plain decimals is read in one bulk pass; one line of another
    # kind sends every line through parse_ratio_parts
    calls, path = count_calls(exactnum, "parse_ratio_parts"), tmp_path / "4000.txt"
    _gaussian_samples(path, 4000, seed=4000)
    _, counts, _ = samples.read_samples(str(path), header=False)
    assert (calls[0], sum(counts)) == (0, 4000)
    path.write_text(path.read_text() + "1/3\n")
    _, counts, den = samples.read_samples(str(path), header=False)
    assert (calls[0], sum(counts), den) == (4001, 4001, 1)


def _count_per_size(tmp_path, command, counter):
    """counter[0] after command on 1k and on 4k Gaussian samples, reset before each run."""
    per_size = {}
    for n in (1000, 4000):
        path = tmp_path / f"{n}.txt"
        _gaussian_samples(path, n, seed=n)
        counter[0] = 0
        result = CliRunner().invoke(cli.main, [command, "--samples", str(path)])
        assert result.exit_code in (0, 3), result.output
        per_size[n] = counter[0]
    return per_size


@pytest.mark.parametrize("command", ["classify", "invert", "qdensity"])
def test_as_q_calls_do_not_grow_with_points(tmp_path, count_calls, command):
    per_size = _count_per_size(tmp_path, command, count_calls(exactnum, "as_q"))
    assert per_size[1000] == per_size[4000]


@pytest.mark.parametrize("command", ["classify", "invert", "qdensity"])
def test_interval_checks_do_not_grow_with_points(tmp_path, monkeypatch, command):
    # a measure's density and a function's segments are columns of ends the
    # library has ordered itself; no interval is checked per gap or segment
    calls = [0]
    checked = Interval.__post_init__

    def counting(self):
        calls[0] += 1
        checked(self)

    monkeypatch.setattr(Interval, "__post_init__", counting)
    per_size = _count_per_size(tmp_path, command, calls)
    assert per_size[1000] == per_size[4000]


def _peaked_samples(path, n):
    """n = 2N points whose gap k is (|k - N| + 1)/1000: the interpolated
    density strictly rises, then falls, so the distribution is unimodal."""
    x, lines = 0, ["0"]
    for k in range(1, n):
        x += abs(k - n // 2) + 1
        lines.append(f"{x}/1000")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command", ["classify", "invert", "qdensity", "decompose", "ingest"])
def test_constructions_do_not_grow_with_points(tmp_path, monkeypatch, command):
    # per class of monotone and measure, the instances made through the
    # public constructor plus those made through the trusted path.  The tied
    # sample has atoms and jumps; the peaked samples take classify's
    # rise-and-fall branch
    classes = [cls for mod in (monotone, measure) for cls in vars(mod).values()
               if dataclasses.is_dataclass(cls) and cls.__module__ == mod.__name__]
    made = dict.fromkeys(classes, 0)
    for cls in classes:
        def counting_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            made[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    trusted = monotone._trusted

    def counting_trusted(cls, **fields):
        made[cls] += 1
        return trusted(cls, **fields)

    for name, mod in list(sys.modules.items()):
        if name.startswith("monoinv") and getattr(mod, "_trusted", None) is trusted:
            monkeypatch.setattr(mod, "_trusted", counting_trusted)

    def counts(path, codes):
        for cls in made:
            made[cls] = 0
        result = CliRunner().invoke(cli.main, [command, "--samples", str(path)])
        assert result.exit_code in codes, result.output
        return {cls.__name__: count for cls, count in made.items()}

    paths = {"tied": os.path.join(os.path.dirname(__file__), "data", "tied_gauss_300.csv")}
    for n in (1000, 4000):
        paths[n], paths["peaked", n] = tmp_path / f"{n}.txt", tmp_path / f"peaked{n}.txt"
        _gaussian_samples(paths[n], n, seed=n)
        _peaked_samples(paths["peaked", n], n)
    gaussian = counts(paths[1000], (0, 3))
    assert gaussian["PiecewiseMeasure"] > 0
    assert counts(paths[4000], (0, 3)) == counts(paths["tied"], (0, 3)) == gaussian
    assert counts(paths["peaked", 1000], (0,)) == counts(paths["peaked", 4000], (0,))


def test_report_is_streamed_from_the_columns(tmp_path, monkeypatch):
    # the report is written row by row as it is formatted, so writing it
    # holds neither its rows as objects nor its text as one string
    path, out = tmp_path / "4000.txt", tmp_path / "report.json"
    _gaussian_samples(path, 4000, seed=4000)
    emit, peaks = cli._emit, []

    def measured(*args):
        tracemalloc.start()
        try:
            emit(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_emit", measured)
    result = CliRunner().invoke(cli.main, ["classify", "--samples", str(path), "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert peaks[0] < out.stat().st_size / 2, (peaks, out.stat().st_size)


def test_fmt_ratio_calls_per_knot_do_not_grow(tmp_path, count_calls):
    # a classify report holds six columns as long as the knots of the
    # density: the echo's bounds and densities, the decomposition's knots
    # and values, the quantile density's knots and values.  Each entry is
    # formatted once; a bound shared by two echo pieces is not formatted twice.
    # A text is made by fmt_ratio, or drawn from fmt_ratios, which prints a column
    calls, per_knot = count_calls(exactnum, "fmt_ratio"), {}
    drawn = count_calls(exactnum, "fmt_ratios", items=True)
    for n in (1000, 4000):
        path = tmp_path / f"{n}.txt"
        _gaussian_samples(path, n, seed=n)
        calls[0] = drawn[0] = 0
        result = CliRunner().invoke(cli.main, ["classify", "--samples", str(path)])
        assert result.exit_code == 3, result.output
        knots = len(json.loads(result.stdout)["decomposition"]["abs_density"]["knots"])
        per_knot[n] = round((calls[0] + drawn[0]) / knots)
    assert per_knot[1000] == per_knot[4000] == 6


def test_main_equiv_builds_one_inverse_table_per_function(count_calls):
    # classify, quantile_density and the materialized inverse of each
    # generated function share its table
    calls = count_calls(monotone.generalized_inverse, "__wrapped__")
    result = CliRunner().invoke(cli.main, ["verify", "--law", "MAIN_EQUIV", "--n", "50",
                                           "--seed", "20260808"])
    assert result.exit_code == 0, result.output
    assert 0 < calls[0] <= 50


@pytest.mark.parametrize("module, name", [(monotone, "_check_columns"), (exactnum, "as_q")])
def test_law_generators_run_no_checks(count_calls, module, name):
    # their columns are rationals valid by construction: only the knot drop runs
    calls = count_calls(module, name)
    for gen in dict.fromkeys(gen for gen, _ in laws._REGISTRY.values()):
        for seed in range(200):
            gen(random.Random(seed), laws.GenConfig())
    assert calls[0] == 0


def _comb(n):
    """Lebesgue on (4i + 1, 4i + 2) for i < n, and a measure whose pieces
    (4i, 4i + 3/2) and (4i + 3/2, 4i + 3) of two densities touch: n runs,
    run i covering piece i."""
    Q = fractions.Fraction
    a = measure.PiecewiseMeasure(REAL_LINE, (), tuple(
        (Interval(Q(4 * i + 1), Q(4 * i + 2)), Q(1)) for i in range(n)))
    b = measure.PiecewiseMeasure(REAL_LINE, (), tuple(
        piece for i in range(n) for piece in (
            (Interval(Q(4 * i), Q(8 * i + 3, 2)), Q(1)),
            (Interval(Q(8 * i + 3, 2), Q(4 * i + 3)), Q(2)))))
    return a, b


def count_fraction_comparisons(set_attribute=setattr):
    """From now on, count the comparisons of Fraction values, patching
    Fraction through set_attribute; returns the count, a one-element list."""
    calls = [0]
    for name in ("_richcmp", "__eq__"):
        def counting(self, *args, compare=getattr(fractions.Fraction, name)):
            calls[0] += 1
            return compare(self, *args)

        set_attribute(fractions.Fraction, name, counting)
    return calls


def test_abs_cont_comparisons_grow_linearly(monkeypatch):
    # the walk meets each pair of overlapping cells once; a scan of all of
    # b's pieces per piece of a makes n * n / 2 comparisons.  The measures
    # stay on Fraction, whose comparisons can be counted, on either backend.
    monkeypatch.setattr(exactnum, "Q", fractions.Fraction)
    calls = count_fraction_comparisons(monkeypatch.setattr)
    per_size = {}
    for n in (1000, 4000):
        a, b = _comb(n)
        calls[0] = 0
        assert measure.is_abs_cont_wrt(a, b)
        assert not measure.is_abs_cont_wrt(b, a)
        per_size[n] = calls[0]
    assert per_size[4000] <= 4 * per_size[1000] + 16


def test_abs_cont_on_one_cell_makes_logarithmically_many_comparisons(tmp_path, monkeypatch):
    # gen_inverse_abs_cont checks Lebesgue on M, one cell, against a sample's
    # measure: a galloping search over the measure's knots, not a walk
    monkeypatch.setattr(exactnum, "Q", fractions.Fraction)
    path = tmp_path / "4000.txt"
    _gaussian_samples(path, 4000, seed=4000)
    m = samples.samples_to_measure(samples.read_samples(str(path), header=False))
    knots = m.abs_density.knots
    a = measure.lebesgue_on(Interval(knots[0], knots[-1]), REAL_LINE)
    calls = count_fraction_comparisons(monkeypatch.setattr)
    assert measure.is_abs_cont_wrt(a, m)
    assert len(knots) > 3000 and calls[0] <= 64, calls[0]


def test_sample_measure_makes_no_rational_comparison(tmp_path, monkeypatch):
    # samples_to_measure decides its knots and density step on the integer
    # gaps, as samples_to_function does; merging its cells would compare
    # each pair of neighbouring densities as rationals
    monkeypatch.setattr(exactnum, "Q", fractions.Fraction)
    path = tmp_path / "4000.txt"
    _gaussian_samples(path, 4000, seed=4000)
    runs = samples.read_samples(str(path), header=False)
    calls = count_fraction_comparisons(monkeypatch.setattr)
    m = samples.samples_to_measure(runs)
    assert len(m.abs_density.knots) > 3000 and calls[0] == 0, calls[0]


def test_inverse_step_of_a_sample_makes_no_rational_comparison(tmp_path, monkeypatch):
    # a sample function has no flat between its values, so its inverse has
    # no jump and no two equal neighbouring cells: the step of the inverse's
    # slopes is its columns.  A cell merge would compare each neighbouring pair
    monkeypatch.setattr(exactnum, "Q", fractions.Fraction)
    path = tmp_path / "4000.txt"
    _gaussian_samples(path, 4000, seed=4000)
    runs = samples.read_samples(str(path), header=False)
    h = monotone.generalized_inverse(samples.samples_to_function(runs, exactnum.rat(0)))
    calls = count_fraction_comparisons(monkeypatch.setattr)
    step = measure.step_of_slopes(h)
    assert len(step.knots) > 3000 and calls[0] == 0, calls[0]


def test_sample_function_and_inverse_construct_no_fraction_per_knot(tmp_path, monkeypatch):
    # their rationals per knot are reduced pairs of ints, which exactnum.rat
    # makes without Fraction's generic constructor; only the anchor's shift,
    # a few Fraction operations once per function, may construct (4 here and
    # at 1k or 16k on Python 3.11; about 4 per knot before rat's direct build)
    monkeypatch.setattr(exactnum, "Q", fractions.Fraction)
    path = tmp_path / "4000.txt"
    _gaussian_samples(path, 4000, seed=4000)
    runs = samples.read_samples(str(path), header=False)
    calls, construct = [0], fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls[0] += 1
        return construct(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting))
    h = monotone.generalized_inverse(samples.samples_to_function(runs, exactnum.rat(0)))
    assert len(h.xs) > 3000 and calls[0] <= 8, calls[0]


def count_rationals(count_calls):
    """From now on, count the rationals exactnum.rat and exactnum.rats make:
    a function returning the count."""
    calls, made = count_calls(exactnum, "rat"), count_calls(exactnum, "rats", items=True)
    return lambda: calls[0] + made[0]


def test_sample_measure_makes_a_rational_per_step_value_not_per_slope(tmp_path, count_calls):
    # samples_to_measure makes a rational for each kept value, each tied
    # value's mass and each value of its density step; a slope right of a
    # tied value inside a run of equal gaps is no value of the step
    path = tmp_path / "4000.txt"
    _gaussian_samples(path, 4000, seed=4000, places=2)
    runs = samples.read_samples(str(path), header=False)
    rationals = count_rationals(count_calls)
    m = samples.samples_to_measure(runs)
    density, atoms = m.abs_density, len(m.atom_xs)
    kept = len(set(density.knots) | set(m.atom_xs))
    assert atoms > 4 * len(density.knots) > 0
    assert rationals() == kept + atoms + len(density.values) - 2, rationals()


def test_sample_inverse_makes_no_rational_from_integers(tmp_path, count_calls):
    # each slope of the inverse is the reciprocal of one of F's, its two
    # coprime parts swapped: no rational is made from a pair of ints
    path = tmp_path / "4000.txt"
    _gaussian_samples(path, 4000, seed=4000)
    f = samples.samples_to_function(samples.read_samples(str(path), header=False),
                                    exactnum.rat(0))
    rationals = count_rationals(count_calls)
    h = monotone.generalized_inverse(f)
    assert len(h.slopes) > 3000 and rationals() == 0, rationals()


# prints the comparisons laws.<argv[1]> makes on the distribution function
# of each sample file argv[2:], one line each
_COUNT_CHECK_COMPARISONS = """
import sys
from monoinv import exactnum, laws, measure, samples
from test_scaling import count_fraction_comparisons
check = getattr(laws, sys.argv[1])
calls = count_fraction_comparisons()
for path in sys.argv[2:]:
    m = samples.samples_to_measure(samples.read_samples(path, header=False))
    f = measure.distribution_function(m, exactnum.rat(0))
    calls[0] = 0
    check(f)
    print(calls[0])
"""


@pytest.mark.parametrize("check", ["_check_galois", "_check_cont_equiv"])
def test_law_check_comparisons_grow_with_n_log_n(tmp_path, check):
    # GALOIS bisects once into the t grid and once into the H_r values per
    # point x of its grid, and CONT_EQUIV's measure_of_open bisects to the
    # atoms and cells of each probe; comparing every (x, t) pair, or every
    # cell per probe, grows four-fold when the points double.  The count
    # runs on the pure backend, in a fresh interpreter: its numbers are
    # Fractions, whose comparisons can be counted, whichever backend this
    # process runs.
    paths = []
    for n in (1000, 2000):
        paths.append(tmp_path / f"{n}.txt")
        _gaussian_samples(paths[-1], n, seed=n)
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, MONOINV_BACKEND="pure", PYTHONPATH=os.pathsep.join(
        [os.path.join(here, "..", "src"), here, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-c", _COUNT_CHECK_COMPARISONS, check, *map(str, paths)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    small, large = map(int, r.stdout.split())
    assert large <= 2.5 * small, (small, large)


def _primes(count):
    limit = 40_000  # the 4,000th prime is 37,813
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if sieve[i]][:count]


def test_pairwise_coprime_denominators(tmp_path):
    """Line i is i/p with p the i-th prime.  No denominator divides the
    largest, so the samples sort as rationals; a common denominator of all
    lines would have over 16,000 digits and make every sort key that long.
    The digest is that of the report the spec round trip gave for this file."""
    path = tmp_path / "coprime.txt"
    path.write_text("".join(f"{i}/{p}\n" for i, p in enumerate(_primes(4000), start=1)))
    result = CliRunner().invoke(cli.main, ["classify", "--samples", str(path)])
    assert result.exit_code == 3, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "dcc4d50a118fd02b88aba98c6af05d4b9094dd63cef277aac53d633b4bd0f08c")
