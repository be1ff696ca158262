"""The compiled rational kernel must agree with fractions.Fraction
operation-for-operation; Fraction is the oracle.

The kernel is the one conftest.py's compiled_rat builds from the tracked
_ratcore.c; the tests skip only when no C compiler is present."""

import pytest

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st


@pytest.fixture(scope="module")
def Rat(compiled_rat):
    return compiled_rat


ints = st.integers(min_value=-10**30, max_value=10**30)
nonzero = ints.filter(lambda n: n != 0)


@st.composite
def pairs(draw):
    return draw(ints), draw(nonzero)


@given(pairs())
def test_normalization_matches_fraction(Rat, p):
    n, d = p
    r, f = Rat(n, d), Fraction(n, d)
    assert (r.numerator, r.denominator) == (f.numerator, f.denominator)


@given(pairs(), pairs())
@settings(max_examples=300)
def test_field_ops_match_fraction(Rat, p, q):
    a, b = Rat(*p), Rat(*q)
    fa, fb = Fraction(*p), Fraction(*q)
    for op in ("__add__", "__sub__", "__mul__"):
        got = getattr(a, op)(b)
        want = getattr(fa, op)(fb)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    if fb != 0:
        got = a / b
        want = fa / fb
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@given(pairs(), pairs())
def test_order_matches_fraction(Rat, p, q):
    a, b = Rat(*p), Rat(*q)
    fa, fb = Fraction(*p), Fraction(*q)
    assert (a < b) == (fa < fb)
    assert (a <= b) == (fa <= fb)
    assert (a == b) == (fa == fb)
    assert (a > b) == (fa > fb)
    assert (a >= b) == (fa >= fb)


@given(pairs(), ints)
def test_int_interop(Rat, p, k):
    a, fa = Rat(*p), Fraction(*p)
    assert (a + k).numerator == (fa + k).numerator
    assert (k + a).denominator == (k + fa).denominator
    assert ((a - k).numerator, (k - a).numerator) == ((fa - k).numerator, (k - fa).numerator)
    assert (a * k).denominator == (fa * k).denominator
    assert (a < k) == (fa < k)
    assert (a == k) == (fa == k)


@given(pairs())
def test_hash_matches_int_and_fraction(Rat, p):
    a = Rat(*p)
    f = Fraction(*p)
    assert hash(a) == hash(f)
    if a.denominator == 1:
        assert hash(a) == hash(a.numerator)


@given(pairs())
def test_neg_abs_float(Rat, p):
    a, fa = Rat(*p), Fraction(*p)
    assert (-a).numerator == (-fa).numerator
    assert abs(a).numerator == abs(fa).numerator
    assert float(a) == float(fa)
    assert bool(a) == bool(fa)
    assert int(a) == int(fa)


def test_division_by_zero(Rat):
    with pytest.raises(ZeroDivisionError):
        Rat(1, 0)
    with pytest.raises(ZeroDivisionError):
        Rat(1) / Rat(0)


def test_mixed_rational_interop(Rat):
    # other Rational implementations coerce on the miss path, both directions
    assert Fraction(3, 4) + Rat(1, 4) == 1
    assert Rat(1, 4) + Fraction(3, 4) == 1
    assert Fraction(1, 2) - Rat(1, 4) == Rat(1, 4)
    assert Rat(1, 2) * Fraction(2, 3) == Fraction(1, 3)
    assert Fraction(1, 2) / Rat(2) == Rat(1, 4)
    assert Rat(1, 3) < Fraction(1, 2) < Rat(2, 3)
    assert not (Rat(1, 2) == "x")
    with pytest.raises(TypeError):
        Rat(1, 2) + "x"
