"""Scalar layer: precision contracts, exact parsing, rational oracles."""
import math
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaspec import (
    PrecisionError,
    InvalidParameterError,
    QComplex,
    fraction_from_mpf,
    parse_rational,
    parse_scalar,
    with_precision,
)
from betaspec.numerics import Ball, ball_from, fixed_from, mpc_from, mpf_from, polyval


def test_min_precision_enforced():
    with pytest.raises(PrecisionError):
        with_precision(32)
    with pytest.raises(PrecisionError):
        with_precision(63)


def test_with_precision_scopes_and_restores_both_precisions():
    # the working precision inside the block, and the saved one after it,
    # also when an exception leaves the block
    saved = mp.mp.prec
    with with_precision(300):
        assert mp.mp.prec == 300
    assert mp.mp.prec == saved
    with pytest.raises(ZeroDivisionError):
        with with_precision(400):
            assert mp.mp.prec == 400
            1 / 0
    assert mp.mp.prec == saved


def test_third_at_64_bits():
    with with_precision(64):
        x = mp.mpf(1) / 3
    err = abs(fraction_from_mpf(x) - Fraction(1, 3))
    assert err <= Fraction(1, 2 ** 62)


def test_four_thirds_minus_one_at_256_bits():
    with with_precision(256):
        x = mp.mpf(4) / 3 - 1
    err = abs(fraction_from_mpf(x) - Fraction(1, 3))
    assert err <= Fraction(1, 2 ** 254)


def test_geometric_sum_matches_exact_oracle():
    # independent oracle: the same sum over exact rationals
    beta = Fraction(4, 3)
    exact = sum(Fraction(1) / beta ** i for i in range(1, 401))

    def compute():
        b = mp.mpf(4) / 3
        total = mp.mpf(0)
        p = mp.mpf(1)
        for _ in range(400):
            p = p / b
            total += p
        return total

    with with_precision(256):
        x = compute()
    assert abs(fraction_from_mpf(x) - exact) <= Fraction(1, 2 ** 200)


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(min_value=-999, max_value=999),
    den=st.integers(min_value=1, max_value=999),
    terms=st.integers(min_value=1, max_value=12),
)
def test_doubling_precision_never_hurts(num, den, terms):
    # alternating-sign partial sums of q**i, evaluated at two precisions
    q = Fraction(num, den + 1000)
    exact = sum((-q) ** i for i in range(terms))

    def sum_at():
        b = mp.mpf(q.numerator) / q.denominator
        total = mp.mpf(0)
        p = mp.mpf(1)
        for _ in range(terms):
            total += p
            p = p * (-b)
        return total

    with with_precision(128):
        d1 = abs(fraction_from_mpf(sum_at()) - exact)
    with with_precision(256):
        d2 = abs(fraction_from_mpf(sum_at()) - exact)
    assert d2 <= d1


def test_parse_rational_forms():
    assert parse_rational("4/3") == Fraction(4, 3)
    assert parse_rational("1.25") == Fraction(5, 4)
    assert parse_rational("  3 ") == Fraction(3)
    with pytest.raises(InvalidParameterError):
        parse_rational("x")
    with pytest.raises(InvalidParameterError):
        parse_rational("1/0")


def test_parse_scalar_complex_forms():
    assert parse_scalar("1+2i") == QComplex(Fraction(1), Fraction(2))
    assert parse_scalar("0.5-0.25j") == QComplex(Fraction(1, 2), Fraction(-1, 4))
    assert parse_scalar("2i") == QComplex(Fraction(0), Fraction(2))
    assert parse_scalar("-i") == QComplex(Fraction(0), Fraction(-1))
    assert parse_scalar("-1/2+3/4i") == QComplex(Fraction(-1, 2), Fraction(3, 4))
    assert parse_scalar("7/5") == Fraction(7, 5)


_E_NOTATION = st.tuples(st.integers(-999, 999), st.integers(-30, 30), st.sampled_from("eE"))


@settings(max_examples=60, deadline=None)
@given(re=_E_NOTATION, im=_E_NOTATION, unit=st.sampled_from("ij"))
def test_parse_scalar_reads_exponents_in_both_parts(re, im, unit):
    # a sign after e or E is the exponent's, not the split of the two parts
    (m, k, e), (m2, k2, e2) = re, im
    text = f"{m}{e}{k:+d}{m2:+d}{e2}{k2:+d}{unit}"
    assert parse_scalar(text) == QComplex(Fraction(m) * Fraction(10) ** k,
                                          Fraction(m2) * Fraction(10) ** k2)


@settings(max_examples=60, deadline=None)
@given(
    a=st.fractions(min_value=-5, max_value=5, max_denominator=40),
    b=st.fractions(min_value=-5, max_value=5, max_denominator=40),
)
def test_qcomplex_inverse_roundtrip(a, b):
    z = QComplex(a, b)
    if not z:
        return
    assert z * z.inverse() == QComplex(Fraction(1))
    assert (z ** 3) * (z ** -3) == QComplex(Fraction(1))


def test_qcomplex_arithmetic_matches_complex():
    z = QComplex(Fraction(3, 4), Fraction(-2, 5))
    w = QComplex(Fraction(-1, 3), Fraction(7, 2))
    for op in ("add", "sub", "mul", "truediv"):
        got = getattr(z, f"__{op}__")(w)
        ref = getattr(complex(z.re, z.im), f"__{op}__")(complex(w.re, w.im))
        assert abs(complex(float(got.re), float(got.im)) - ref) < 1e-12


# Bit-identity of the fast kernels: the same correctly rounded operations as
# the plain mpmath expressions, so the same tuples at every precision.
BITS = st.sampled_from([64, 288, 1056, 8224])


@st.composite
def fractions_with_dyadic_denominators(draw):
    k = draw(st.integers(min_value=0, max_value=10 ** 4))
    odd = draw(st.sampled_from([1, 3, 7 ** 5, 10 ** 6 + 1, 3 ** 400]))
    kind = draw(st.sampled_from(["pow2", "pow2*odd", "odd"]))
    den = {"pow2": 2 ** k, "pow2*odd": 2 ** k * odd, "odd": odd}[kind]
    num = draw(st.integers(min_value=-(2 ** 12000), max_value=2 ** 12000))
    return Fraction(num, den)


@settings(max_examples=80, deadline=None)
@given(x=fractions_with_dyadic_denominators(), bits=BITS)
def test_mpf_from_fraction_matches_direct_division(x, bits):
    with mp.workprec(bits):
        assert mpf_from(x)._mpf_ == (mp.mpf(x.numerator) / x.denominator)._mpf_


@settings(max_examples=40, deadline=None)
@given(re=fractions_with_dyadic_denominators(),
       im=fractions_with_dyadic_denominators(), bits=BITS)
def test_mpc_from_qcomplex_matches_direct_division(re, im, bits):
    with mp.workprec(bits):
        expected = ((mp.mpf(re.numerator) / re.denominator)._mpf_,
                    (mp.mpf(im.numerator) / im.denominator)._mpf_)
        assert mpc_from(QComplex(re, im))._mpc_ == expected


_small_fractions = st.fractions(min_value=-7, max_value=7, max_denominator=10 ** 6)


@st.composite
def scalars(draw, complex_):
    # called inside the precision under test, so each part is rounded to it
    re, im = draw(_small_fractions), draw(_small_fractions)
    x = mp.mpf(re.numerator) / re.denominator
    return mp.mpc(x, mp.mpf(im.numerator) / im.denominator) if complex_ else x


@settings(max_examples=120, deadline=None)
@given(data=st.data(), bits=st.sampled_from([64, 288, 1056]),
       length=st.integers(min_value=2, max_value=40),
       complex_coeffs=st.booleans(), complex_x=st.booleans())
def test_polyval_matches_mpmath_polyval(data, bits, length, complex_coeffs, complex_x):
    with mp.workprec(bits):
        hi = [data.draw(scalars(complex_coeffs)) for _ in range(length)]
        x = data.draw(scalars(complex_x))
        got = polyval(hi, x)
        expected = mp.polyval(hi, x)
    # the mpc evaluation gives mpmath's bits, and on real inputs its real
    # part is the mpf result with an imaginary part of exactly 0
    assert isinstance(got, mp.mpc)
    if isinstance(expected, mp.mpc):
        assert got._mpc_ == expected._mpc_
    else:
        assert got.real._mpf_ == expected._mpf_ and got.imag == 0


_MANTISSAS = st.integers(min_value=-2 ** 400, max_value=2 ** 400)
_EXPONENTS = st.integers(min_value=-900, max_value=300)


@settings(max_examples=150, deadline=None)
@given(m1=_MANTISSAS, e1=_EXPONENTS, m2=_MANTISSAS, e2=_EXPONENTS,
       p=st.sampled_from([64, 288, 552]))
def test_conversions_of_mpf_and_mpc_match_the_fraction_route(m1, e1, m2, e2, p):
    # ball_from and fixed_from read an mpf's mantissa and exponent directly;
    # each gives the integers and radius of the mpf's exact Fraction value,
    # for both signs of mantissa and exponent, zero included
    x, y = (mp.make_mpf(from_man_exp(m, e)) for m, e in ((m1, e1), (m2, e2)))
    fx, fy = (Fraction(m) * Fraction(2) ** e for m, e in ((m1, e1), (m2, e2)))
    assert fraction_from_mpf(x) == fx and fraction_from_mpf(y) == fy
    for value, exact in ((x, fx), (mp.make_mpc((x._mpf_, y._mpf_)), QComplex(fx, fy))):
        f, g = fixed_from(value, p), fixed_from(exact, p)
        assert (f.re, f.im) == (g.re, g.im)
        b, c = ball_from(value, p), ball_from(exact, p)
        assert (b.re, b.im, b.rad) == (c.re, c.im, c.rad)


@pytest.mark.parametrize("value", [mp.inf, -mp.inf, mp.nan, mp.mpc(1, mp.inf), mp.mpc(mp.nan, 0)])
def test_conversions_refuse_a_non_finite_mpf(value):
    for convert in (fixed_from, ball_from):
        with pytest.raises(InvalidParameterError):
            convert(value, 64)


def _general_product(x, y):
    # the ball product's general formula: midpoint rounded to nearest and
    # radius |m1| r2 + |m2| r1 + r1 r2, each modulus and the sum rounded up,
    # plus one unit if the midpoint rounded
    def abs_up(a, b):
        return math.isqrt(a * a + b * b - 1) + 1 if a or b else 0

    a, b, r, c, d, s, p = x.re, x.im, x.rad, y.re, y.im, y.rad, x.p
    re, im, unit = a * c - b * d, a * d + b * c, 1 << p
    rad = -(-(abs_up(a, b) * s + abs_up(c, d) * r + r * s) >> p) + bool((re | im) % unit)
    return (re + unit // 2) >> p, (im + unit // 2) >> p, rad


_PARTS = st.integers(min_value=-2 ** 140, max_value=2 ** 140)


@settings(max_examples=150, deadline=None)
@given(a=_PARTS, b=_PARTS, r=st.integers(min_value=0, max_value=2 ** 70),
       c=_PARTS, d=_PARTS, s=st.integers(min_value=0, max_value=2 ** 70),
       p=st.sampled_from([64, 136]))
def test_ball_square_and_zero_radius_products_match_the_general_formula(a, b, r, c, d, s, p):
    # a square takes one modulus and a zero radius skips its partner's:
    # both give the integers of the general formula
    x, y, x0, y0 = Ball(a, b, r, p), Ball(c, d, s, p), Ball(a, b, 0, p), Ball(c, d, 0, p)
    for u, v in ((x, x), (x0, x0), (x, y), (x, y0), (x0, y), (x0, y0)):
        w = u * v
        assert (w.re, w.im, w.rad) == _general_product(u, v)
