"""Derived tables and objects are built a fixed number of times per command.

Every PiecewiseMonotone builds its segment table and its inverse's at most
once, so the number of builds per classify / invert / qdensity depends on
how many classes the command makes, not on how many points its input has.
Counting builds is the deterministic stand-in for a wall-clock scaling
bound, which would flake on a host whose speed drifts.  Each command also
derives the generalized inverse and the quantile density of its
distribution function once, and a sample file goes straight to its
measure, without a spec document in between.  Objects the library derives
itself skip the public constructors, so exactnum.as_q, which converts the
ints a caller may pass, and Interval's checks run a fixed number of times
per command; functions and measures keep their knots, atoms and density
as columns, so no Breakpoint, Atom or UniformPiece is made at all.  The
inverse's segment table is built once per function, whichever of
classify, generalized_inverse and quantile_density asks first.
"""

import fractions
import hashlib
import os
import random
import sys

import pytest

from click.testing import CliRunner

from monoinv import cli, exactnum, measure, monotone
from monoinv.intervals import REAL_LINE, Interval

BUILDERS = ("_build_segments", "_build_inverse_segments")


@pytest.fixture
def build_counts(monkeypatch):
    counts = dict.fromkeys(BUILDERS, 0)
    for name in BUILDERS:
        def counting(g, build=getattr(monotone, name), name=name):
            counts[name] += 1
            return build(g)

        monkeypatch.setattr(monotone, name, counting)
    return counts


def _gaussian_samples(path, n, seed):
    rng = random.Random(seed)
    path.write_text("\n".join(f"{rng.gauss(0.0, 1.0):.6f}" for _ in range(n)) + "\n")


@pytest.mark.parametrize("command", ["classify", "invert", "qdensity"])
def test_table_builds_do_not_grow_with_points(tmp_path, build_counts, command):
    per_size = {}
    for n in (1000, 4000):
        path = tmp_path / f"{n}.txt"
        _gaussian_samples(path, n, seed=n)
        for name in BUILDERS:
            build_counts[name] = 0
        result = CliRunner().invoke(cli.main, [command, "--samples", str(path)])
        assert result.exit_code in (0, 3), result.output
        per_size[n] = dict(build_counts)
    assert per_size[1000] == per_size[4000]
    assert 0 < per_size[1000]["_build_segments"] <= 10


@pytest.mark.parametrize("command, module, name, want", [
    ("invert", monotone, "generalized_inverse", 1),
    ("classify", measure, "gen_inverse_abs_cont", 1),
    ("classify", measure, "inverse_slope_step", 1),
    ("classify", monotone, "extend_to_real_line", 1),
    ("classify", monotone, "_build_inverse_segments", 1),
    ("invert", monotone, "_build_inverse_segments", 1),
    ("qdensity", monotone, "_build_inverse_segments", 1),
    ("classify", cli, "spec_to_measure", 0),
    ("invert", cli, "spec_to_measure", 0),
    ("qdensity", cli, "spec_to_measure", 0),
])
def test_each_derived_object_is_built_once(tmp_path, count_calls, command, module, name, want):
    path = tmp_path / "samples.txt"
    _gaussian_samples(path, 1000, seed=1000)
    calls = count_calls(module, name)
    result = CliRunner().invoke(cli.main, [command, "--samples", str(path)])
    assert result.exit_code in (0, 3), result.output
    assert calls[0] == want


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


@pytest.mark.parametrize("command", ["classify", "invert", "qdensity"])
def test_sample_commands_make_no_pieces(tmp_path, monkeypatch, command):
    # no knot, atom or piece object, through the public constructor or the
    # trusted path alike; the tied sample has atoms and jumps
    classes = (monotone.Breakpoint, measure.Atom, measure.UniformPiece)
    made = dict.fromkeys(classes, 0)
    for cls in classes:
        def counting_init(self, cls=cls, checked=cls.__post_init__):
            made[cls] += 1
            checked(self)

        monkeypatch.setattr(cls, "__post_init__", counting_init)
    trusted = monotone._trusted

    def counting_trusted(cls, **fields):
        if cls in made:
            made[cls] += 1
        return trusted(cls, **fields)

    for name, mod in list(sys.modules.items()):
        if name.startswith("monoinv") and getattr(mod, "_trusted", None) is trusted:
            monkeypatch.setattr(mod, "_trusted", counting_trusted)
    paths = [os.path.join(os.path.dirname(__file__), "data", "tied_gauss_300.csv")]
    for n in (1000, 4000):
        paths.append(tmp_path / f"{n}.txt")
        _gaussian_samples(paths[-1], n, seed=n)
    for path in paths:
        result = CliRunner().invoke(cli.main, [command, "--samples", str(path)])
        assert result.exit_code in (0, 3), result.output
        assert {cls.__name__: count for cls, count in made.items()} == {
            "Breakpoint": 0, "Atom": 0, "UniformPiece": 0}, path


def test_main_equiv_builds_one_inverse_table_per_function(count_calls):
    # classify, quantile_density and the materialized inverse of each
    # generated function share its table
    calls = count_calls(monotone, "_build_inverse_segments")
    result = CliRunner().invoke(cli.main, ["verify", "--law", "MAIN_EQUIV", "--n", "50",
                                           "--seed", "20260808"])
    assert result.exit_code == 0, result.output
    assert 0 < calls[0] <= 50


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


def test_abs_cont_comparisons_grow_linearly(monkeypatch):
    # the walk meets each pair of overlapping cells once; a scan of all of
    # b's pieces per piece of a makes n * n / 2 comparisons.  The measures
    # stay on Fraction, whose comparisons can be counted, on either backend.
    monkeypatch.setattr(exactnum, "Q", fractions.Fraction)
    calls = [0]
    for name in ("_richcmp", "__eq__"):
        def counting(self, *args, compare=getattr(fractions.Fraction, name)):
            calls[0] += 1
            return compare(self, *args)

        monkeypatch.setattr(fractions.Fraction, name, counting)
    per_size = {}
    for n in (1000, 4000):
        a, b = _comb(n)
        calls[0] = 0
        assert measure.is_abs_cont_wrt(a, b)
        assert not measure.is_abs_cont_wrt(b, a)
        per_size[n] = calls[0]
    assert per_size[4000] <= 4 * per_size[1000] + 16


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
