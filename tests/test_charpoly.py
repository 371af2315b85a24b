"""Closed-form characteristic polynomials against exact determinant oracles."""
import json
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betaspec import (
    BetaParam,
    InvalidOrderError,
    InvalidParameterError,
    LimitFunction,
    PoleError,
    PrecPoly,
    SizeLimitError,
    ZeroRootError,
    build_aux_matrix,
    build_shifted,
    charpoly_closed_form,
    charpoly_strings,
    det_oracle,
    eval_limit,
    limit_derivative,
    poly_to_json,
    reverse_poly,
    sparse_form,
    split_qr,
    symbolic_t,
)
from betaspec.charpoly import eval_sparse
from betaspec.numerics import QComplex, _power, fixed_from, mpc_from, mpf_from, polyval
from betaspec.rootfind import _eval_fixed

BETAS = [BetaParam.parse(s) for s in ("4/3", "3/2", "2", "3", "5")]


def test_degree_one_closed_form():
    for beta in BETAS:
        p = charpoly_closed_form(beta, 1)
        assert p.degree == 1
        assert p.coeffs == (1 - Fraction(1) / beta.value, Fraction(1))


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_constant_term_rule(n):
    for beta in BETAS:
        p = charpoly_closed_form(beta, n)
        assert p.coeffs[0] == 1 - Fraction(1) / beta.value
        assert p.coeffs[-1] == 1


def test_closed_form_matches_direct_2x2_expansion():
    # det(tI - B_2) = (t - b1 + 1)(t - b2) - (1 - b1)(-b2 - 1) expanded by hand
    beta = BetaParam.parse("2")
    b1, b2 = beta.inverse_powers(2)
    p = charpoly_closed_form(beta, 2)
    assert p.coeffs == (1 - b1, 1 - b1 - b2, Fraction(1))
    oracle = det_oracle(build_shifted(beta, 2, symbolic_t()))
    assert oracle.coeffs == p.coeffs

    p3 = charpoly_closed_form(beta, 3)
    oracle3 = det_oracle(build_shifted(beta, 3, symbolic_t()))
    assert oracle3.coeffs == p3.coeffs


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_equivalence_grid(n):
    for beta in BETAS:
        closed = charpoly_closed_form(beta, n)
        oracle = det_oracle(build_shifted(beta, n, symbolic_t()))
        assert closed.coeffs == oracle.coeffs


@pytest.mark.parametrize("n", range(1, 11))
def test_aux_determinant_identity(n):
    det = det_oracle(build_aux_matrix(symbolic_t(), n))
    sign = 1 if n % 2 == 0 else -1
    assert det.coeffs == tuple(Fraction(sign) for _ in range(n + 1))
    # spot values at random rational points
    rng = random.Random(1234 + n)
    for _ in range(5):
        t = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        expected = sign * sum(t ** i for i in range(n + 1))
        assert det.eval_exact(t) == expected


def test_oracle_base_case_and_limits():
    m1 = det_oracle(build_aux_matrix(symbolic_t(), 1))
    assert m1.coeffs == (Fraction(-1), Fraction(-1))
    with pytest.raises(SizeLimitError):
        det_oracle(build_aux_matrix(symbolic_t(), 13))
    with pytest.raises(InvalidParameterError):
        det_oracle([[(0, 1, 2)]])  # degree-2 entry rejected


def test_oracle_rejects_complex_beta():
    with pytest.raises(InvalidParameterError):
        det_oracle(build_shifted(BetaParam.parse("1+1i"), 3, symbolic_t()))


def test_singular_constant_matrix_gives_zero_polynomial():
    zero = PrecPoly((Fraction(0),))
    assert zero.degree == 0 and zero.coeffs[0] == 0
    assert det_oracle([[1, 2], [2, 4]]) == zero      # zero after elimination
    assert det_oracle([[0, 1], [0, 2]]) == zero      # no pivot in column 0
    with pytest.raises(InvalidParameterError):
        PrecPoly((Fraction(0), Fraction(0)))


def test_eval_exact_takes_the_type_of_t():
    # a QComplex t gives a QComplex value also at degree 0, where no
    # product with t is formed
    t = QComplex(Fraction(1, 2), Fraction(3))
    const = PrecPoly((Fraction(5),)).eval_exact(t)
    assert isinstance(const, QComplex) and const == QComplex(Fraction(5))
    line = PrecPoly((Fraction(1), Fraction(2)))
    assert line.eval_exact(t) == QComplex(Fraction(2), Fraction(6))
    assert line.eval_exact(Fraction(1, 2)) == 2 and line.eval_exact(3) == 7


def test_split_qr():
    beta = BetaParam.parse("2")
    q1, r1 = split_qr(beta, 1)
    assert q1.coeffs == (Fraction(1), Fraction(1))
    assert r1.coeffs == (Fraction(1, 2),)

    # enumerate the (i, j) double sum directly as the oracle for r_n
    def r_enumerated(bval, n):
        coeffs = [Fraction(0)] * n
        for i in range(1, n + 1):
            for j in range(0, n - i + 1):
                coeffs[i + j - 1] += Fraction(1) / bval ** i
        return tuple(coeffs)

    for n in (1, 2, 3, 7):
        q, r = split_qr(beta, n)
        assert r.coeffs == r_enumerated(Fraction(2), n)
        p = charpoly_closed_form(beta, n)
        diff = tuple(qc - rc for qc, rc in zip(q.coeffs, tuple(r.coeffs) + (Fraction(0),) * 2))
        assert diff == p.coeffs
        assert q.eval_exact(Fraction(1)) == n + 1

    _, r2 = split_qr(beta, 2)
    assert r2.coeffs == (Fraction(1, 2), Fraction(3, 4))


def test_reverse_poly():
    p = PrecPoly(coeffs=(Fraction(1, 2), Fraction(1)))
    rp = reverse_poly(p)
    assert rp.coeffs == (Fraction(1), Fraction(1, 2))
    q = charpoly_closed_form(BetaParam.parse("4/3"), 6)
    assert reverse_poly(reverse_poly(q)).coeffs == q.coeffs
    zero_const = charpoly_closed_form(BetaParam.parse("1"), 4)
    with pytest.raises(ZeroRootError):
        reverse_poly(zero_const)


def test_real_coefficients_for_real_beta():
    for beta in BETAS:
        assert charpoly_closed_form(beta, 12).is_real


def test_complex_beta_coefficients():
    beta = BetaParam.parse("1+1i")
    p = charpoly_closed_form(beta, 3)
    assert not p.is_real
    # constant term still 1 - 1/beta
    inv = beta.inverse_powers(1)[0]
    assert p.coeffs[0] == 1 - inv


# ---------------------------------------------------------------------------
# Exact coefficient text from the integer recurrence D_k
# ---------------------------------------------------------------------------

_NUMERATORS = st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(bool)
_DENOMINATORS = st.integers(min_value=1, max_value=10 ** 6)
_RATIONALS = st.builds(Fraction, _NUMERATORS, _DENOMINATORS)
_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
TEXT_BETAS = st.one_of(
    _RATIONALS,                                            # |beta| < 1 among them
    st.sampled_from([Fraction(1), Fraction(-1)]),
    _NUMERATORS.map(Fraction),                             # integers
    _DENOMINATORS.map(lambda q: Fraction(1, q)),
    st.builds(QComplex, _RATIONALS | st.just(Fraction(0)), _RATIONALS),
    st.builds(QComplex, _SMALL, _SMALL.filter(bool)),
).map(BetaParam)


@settings(max_examples=150, deadline=None)
@given(beta=TEXT_BETAS, n=st.integers(min_value=1, max_value=80))
def test_coefficient_strings_print_the_fractions(beta, n):
    # the Fractions of the one-step rule are the prefix sums 1 - (x + ... + x**(m+1))
    inv = beta.inverse_powers(n)
    coeffs = charpoly_closed_form(beta, n).coeffs
    assert coeffs[:-1] == tuple(1 - sum(inv[:m + 1]) for m in range(n))
    # real beta prints each D_k / L**k unreduced, so equal text means it was
    # in lowest terms as computed
    assert charpoly_strings(beta, n) == [str(c) for c in coeffs]


def test_coefficient_strings_print_zero_parts():
    # beta = 1: c_0 = 0 and c_m = -m.  x = i: S_k runs i, i - 1, -1, 0, so
    # c_2 and c_3 are real.  x = 1 + i: c_0 = -i has real part 0.
    for text, n, want in (("1", 3, ["0", "-1", "-2", "1"]),
                          ("-1i", 4, ["1-1i", "2-1i", "2", "1", "1"]),
                          ("1/2-1/2i", 1, ["0-1i", "1"])):
        beta = BetaParam.parse(text)
        assert charpoly_strings(beta, n) == want
        assert want == [str(c) for c in charpoly_closed_form(beta, n).coeffs]
    with pytest.raises(InvalidOrderError):
        charpoly_strings(BetaParam.parse("4/3"), 0)


def test_limit_function_values():
    beta = BetaParam.parse("4/3")
    f = LimitFunction(tag="p", beta=beta)
    b = Fraction(4, 3)
    assert abs(eval_limit(f, 0) - float((b - 1) / b)) < 1e-70
    # single zero at beta - 1 for beta in (1, 2)
    assert abs(eval_limit(f, Fraction(1, 3))) < 1e-70
    ft = LimitFunction(tag="p_tilde", beta=beta)
    assert abs(eval_limit(ft, Fraction(1, 3))) < 1e-70
    with pytest.raises(PoleError):
        eval_limit(f, 1)
    with pytest.raises(InvalidParameterError):
        eval_limit(f, 2)  # outside the open unit disk
    with pytest.raises(InvalidParameterError):
        LimitFunction(tag="p", beta=BetaParam.parse("1"))


@pytest.mark.parametrize("tag", ["p", "p_tilde"])
@pytest.mark.parametrize("beta_s", ["4/3", "3/2", "9/5"])
def test_limit_derivative_finite_difference_oracle(tag, beta_s):
    # independent oracle: central finite differences at 300 bits
    beta = BetaParam.parse(beta_s)
    f = LimitFunction(tag=tag, beta=beta)
    for t in (Fraction(1, 10), Fraction(-2, 5), Fraction(beta_s) - 1):
        with mp.workprec(300):
            h = mp.mpf(2) ** -60
            tv = mp.mpf(t.numerator) / t.denominator
            fd = (eval_limit(f, tv + h, 300) - eval_limit(f, tv - h, 300)) / (2 * h)
        got = limit_derivative(f, t, 300)
        assert abs(got - fd) < 1e-25


def test_derivative_at_interior_zero_nonzero():
    # the limit functions have a simple zero at beta - 1: derivative nonzero,
    # equal to 1/(beta-2) and 1/((beta-2)(beta-1)) respectively
    for beta_s in ("4/3", "3/2", "9/5"):
        beta = BetaParam.parse(beta_s)
        b = Fraction(beta_s)
        z = b - 1
        dp = limit_derivative(LimitFunction(tag="p", beta=beta), z, 300)
        dpt = limit_derivative(LimitFunction(tag="p_tilde", beta=beta), z, 300)
        assert abs(dp - float(1 / (b - 2))) < 1e-60
        assert abs(dpt - float(1 / ((b - 2) * (b - 1)))) < 1e-60
        assert dp != 0 and dpt != 0


def test_pointwise_convergence_spot():
    beta = BetaParam.parse("3")
    f = LimitFunction(tag="p", beta=beta)
    errs = []
    for n in (10, 20, 40):
        p = charpoly_closed_form(beta, n)
        errs.append(abs(p.eval_mp(0.5, 512) - eval_limit(f, Fraction(1, 2), 512)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[0] < 0.5


def test_poly_json_schema():
    beta = BetaParam.parse("4/3")
    doc = json.loads(poly_to_json(charpoly_strings(beta, 3), beta))
    assert doc["degree"] == 3
    assert doc["beta"] == "4/3"
    assert doc["exact"] is True
    assert doc["coeffs"][0] == "1/4"
    assert len(doc["coeffs"]) == 4


def test_precpoly_validation():
    with pytest.raises(InvalidParameterError):
        PrecPoly(coeffs=())
    with pytest.raises(InvalidParameterError):
        PrecPoly(coeffs=(Fraction(1), Fraction(0)))


# ---------------------------------------------------------------------------
# The five-term sparse form (1 - t)(1 - t/beta) p_n(t) = a(t) + t**n b(t)
# ---------------------------------------------------------------------------

_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=30)
SPARSE_BETAS = st.one_of(
    st.fractions(min_value=1, max_value=2, max_denominator=60)
    .filter(lambda f: 1 < f < 2).map(BetaParam),
    st.fractions(min_value=2, max_value=6, max_denominator=60).map(BetaParam),
    st.builds(QComplex, _FRACTIONS, _FRACTIONS.filter(bool)).map(BetaParam),
)


def _times_spurious_factors(beta, n):
    """Exact coefficients of (1 - t)(1 - x t) p_n(t), low to high, x = 1/beta."""
    cs = charpoly_closed_form(beta, n).coeffs
    x = beta.inverse_powers(1)[0]
    zero = x * 0
    out = [zero] * (n + 3)
    for k, c in enumerate(cs):
        out[k] = out[k] + c
        out[k + 1] = out[k + 1] - (1 + x) * c
        out[k + 2] = out[k + 2] + x * c
    return out


def _sparse_dense(form):
    a0, a1, b0, b1, b2 = form.coeffs
    out = [a0 * 0] * (form.n + 3)
    for k, c in ((0, a0), (1, a1), (form.n, b0), (form.n + 1, b1), (form.n + 2, b2)):
        out[k] = out[k] + c
    return out


@settings(max_examples=80, deadline=None)
@given(beta=SPARSE_BETAS, n=st.integers(min_value=1, max_value=80))
def test_sparse_form_equals_product_exactly(beta, n):
    form = sparse_form(beta, n)
    assert (form.beta, form.n) == (beta, n)
    assert form.x == beta.inverse_powers(1)[0]
    assert _sparse_dense(form) == _times_spurious_factors(beta, n)


@settings(max_examples=80, deadline=None)
@given(beta=SPARSE_BETAS, n=st.integers(min_value=1, max_value=80),
       t=st.fractions(min_value=-3, max_value=3, max_denominator=1000))
def test_sparse_eval_matches_dense_horner(beta, n, t):
    # Each evaluation at 512 bits is off the exact value by at most
    # 4 (d + 2) 2**-512 times the sum of |term| (the Horner running-error
    # bound, with room for complex products), where d = n + 2 is the degree;
    # so the two differ by at most twice that.
    form = sparse_form(beta, n)
    dense = _times_spurious_factors(beta, n)
    with mp.workprec(512):
        tv = mp.mpf(t.numerator) / t.denominator
        cs = [(mpf_from if form.is_real else mpc_from)(c) for c in form.coeffs]
        f, df = eval_sparse(cs, n, tv)
        hi = [mpc_from(c) for c in reversed(dense)]
        dhi = [mpc_from(c * k) for k, c in reversed(list(enumerate(dense))) if k]
        absf = sum(abs(c) * abs(tv) ** k for k, c in enumerate(reversed(hi)))
        absdf = sum(abs(c) * abs(tv) ** k for k, c in enumerate(reversed(dhi)))
        bound = 8 * (n + 4) * mp.mpf(2) ** -512
        assert abs(f - polyval(hi, mpc_from(tv))) <= bound * absf
        assert abs(df - polyval(dhi, mpc_from(tv))) <= bound * absdf


@settings(max_examples=80, deadline=None)
@given(beta=SPARSE_BETAS, n=st.integers(min_value=1, max_value=80),
       re=st.fractions(min_value=-3, max_value=3, max_denominator=1000),
       im=st.fractions(min_value=-3, max_value=3, max_denominator=1000),
       p=st.sampled_from([288, 544]))
def test_sparse_eval_on_fixed_point_matches_mpc(beta, n, re, im, p):
    # The same t (a multiple of 2**-p, |t| <= 3) on both arithmetics: mpc, and
    # Newton's integer pairs (rootfind._eval_fixed).  mpc rounds each
    # operation relative to its result and the pairs to an absolute 2**-p,
    # so a power of t below 1 costs the pairs as much as one at |t| = 1.
    # With the sum of |term| taken at r = max(1, |t|), each evaluation is off
    # the exact value by at most 4 (n + 4) 2**-p times that sum (a running-
    # error bound; complex products round two parts), so the two differ by
    # at most twice that.
    assume(re * re + im * im <= 9)
    form = sparse_form(beta, n)
    t = fixed_from(QComplex(re, im), p)
    cs = [(c.re, c.im) for c in (fixed_from(c, p) for c in form.coeffs)]
    fr, fi, dfr, dfi = _eval_fixed(cs, n, t.re, t.im, p)
    with mp.workprec(p + 8):
        tv = t.to_mp(real=False)  # exact: |t| < 4
    with mp.workprec(p):
        f_mp, df_mp = eval_sparse([mpc_from(c) for c in form.coeffs], n, tv)
    with mp.workprec(4 * p):  # wide enough to hold either value exactly
        a0, a1, b0, b1, b2 = (abs(mpc_from(c)) for c in form.coeffs)
        r = max(mp.mpf(1), abs(tv))
        absf = a0 + a1 * r + r ** n * (b0 + b1 * r + b2 * r * r)
        absdf = a1 + r ** (n - 1) * (n * b0 + (n + 1) * b1 * r + (n + 2) * b2 * r * r)
        bound = 8 * (n + 4) * mp.mpf(2) ** -p
        assert abs(_exact(fr, fi, p) - f_mp) <= bound * absf
        assert abs(_exact(dfr, dfi, p) - df_mp) <= bound * absdf


def _exact(re, im, p):
    return mp.mpc(mp.ldexp(re, -p), mp.ldexp(im, -p))


class _FixedPoint:
    # fixed-point complex objects with the rounding Newton's integer pairs
    # reproduce: sums and products by an int exact, every other product's
    # parts rounded to the nearest multiple of 2**-p, ties up
    def __init__(self, re, im, p):
        self.re, self.im, self.p = re, im, p

    def __add__(self, x):
        return _FixedPoint(self.re + x.re, self.im + x.im, self.p)

    def __mul__(self, x):
        if isinstance(x, int):
            return _FixedPoint(self.re * x, self.im * x, self.p)
        (a, b), (c, d), unit = (self.re, self.im), (x.re, x.im), 2 ** self.p
        return _FixedPoint((a * c - b * d + unit // 2) // unit,
                           (a * d + b * c + unit // 2) // unit, self.p)

    __rmul__ = __mul__

    def __pow__(self, k):
        return _power(_FixedPoint(2 ** self.p, 0, self.p), self, k)


@settings(max_examples=80, deadline=None)
@given(beta=SPARSE_BETAS, n=st.integers(min_value=1, max_value=80),
       re=st.fractions(min_value=-3, max_value=3, max_denominator=1000),
       im=st.fractions(min_value=-3, max_value=3, max_denominator=1000),
       p=st.sampled_from([288, 544]))
def test_integer_pair_evaluation_rounds_as_fixed_point_objects(beta, n, re, im, p):
    # Newton's integer pairs give the exact integers of eval_sparse run on
    # fixed-point objects, operation by operation
    t = fixed_from(QComplex(re, im), p)
    cs = [fixed_from(c, p) for c in sparse_form(beta, n).coeffs]
    f, df = eval_sparse([_FixedPoint(c.re, c.im, p) for c in cs], n, _FixedPoint(t.re, t.im, p))
    assert _eval_fixed([(c.re, c.im) for c in cs], n, t.re, t.im, p) == (f.re, f.im, df.re, df.im)


def test_sparse_form_is_closed_form_in_x():
    # S_n = x + ... + x**n; beta = 1 (x = 1) takes S_n = n
    for text, n in (("4/3", 7), ("1", 5), ("9/8", 1)):
        beta = BetaParam.parse(text)
        x = beta.inverse_powers(1)[0]
        s = sum(beta.inverse_powers(n))
        form = sparse_form(beta, n)
        assert form.a == (1 - x, -x)
        assert form.b == (s + x ** (n + 1), -(1 + x * s), x)
    with pytest.raises(InvalidOrderError):
        sparse_form(BetaParam.parse("4/3"), 0)
