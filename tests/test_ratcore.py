"""The compiled rational kernel must agree with fractions.Fraction
operation-for-operation; Fraction is the oracle.  exactnum.fmt_ratio prints
either backend's rationals as their numerator and denominator read.

The kernel is the one conftest.py's compiled_rat builds from the tracked
_ratcore.c; the tests skip only when no C compiler is present."""

import sys

import pytest

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from monoinv.exactnum import fmt_ratio
from test_exactnum import int_digits


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


@pytest.mark.parametrize("operation", [
    pytest.param(lambda Q: Q(1.5), id="from-float"),
    pytest.param(lambda Q: Q(1, 2) ** 2, id="power"),
    pytest.param(lambda Q: Q(Q(1, 2), 3), id="from-rational-and-int"),
    pytest.param(lambda Q: Q(1, 2) + 0.5, id="plus-float"),
])
def test_kernel_refuses_what_fraction_accepts(Rat, operation):
    # the kernel implements only what the library sends it; exactnum.as_q
    # refuses floats at the boundary, so none of these operands reach it
    operation(Fraction)
    with pytest.raises(TypeError):
        operation(Rat)


def pair_text(x):
    """The text of x from its numerator and denominator: 'p', or 'p/q'."""
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else f"{n}/{d}"


@given(pairs())
def test_fmt_ratio_is_the_pair_text(Rat, p):
    for Q in (Fraction, Rat):
        for x in (Q(*p), Q(p[0]), Q(0), Q(-1)):
            assert fmt_ratio(x) == pair_text(x)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_fmt_ratio_of_a_long_numerator(Rat):
    # past 4,300 digits it prints only with the limit lifted, as the CLI lifts
    # it, and refuses as the pair text refuses otherwise
    for Q in (Fraction, Rat):
        for x in (Q(10**4400 + 1, 3), Q(-10**4400)):
            with int_digits(0):
                assert fmt_ratio(x) == pair_text(x)
            with int_digits(4300):
                with pytest.raises(ValueError) as want:
                    pair_text(x)
                with pytest.raises(ValueError) as got:
                    fmt_ratio(x)
            assert str(got.value) == str(want.value)
