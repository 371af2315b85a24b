"""Degenerate-parameter analysis: exact power method, kernel, expansion checks."""
import json
import logging
from fractions import Fraction

import mpmath as mp
import pytest

from betaspec import (
    BetaParam,
    InvalidOrderError,
    build_beta_matrix,
    eigenvalues,
    first_component_reference,
    kernel_vector,
    lambda_max_beta1,
    power_method_trace,
    with_precision,
)
from betaspec.charpoly import eval_sparse
from test_rootfind import iv_precision

BETA1 = BetaParam.parse("1")


def test_first_iterate_values():
    tr = power_method_trace(10, 3)
    n = 10
    assert tr.first_components[0] == 1
    assert tr.first_components[1] == n - 1
    assert tr.first_components[2] == n * n - n - 1
    assert tr.ratios[1] == Fraction(n * n - n - 1, n - 1)
    # printed closed forms for the first ratios
    assert tr.ratios[1] == n - Fraction(1, n - 1)
    assert tr.ratios[2] == n - Fraction(n, n * n - n - 1)


def test_small_order_first_component():
    tr = power_method_trace(3, 1)
    assert tr.first_components[1] == 2


@pytest.mark.parametrize("n", [10, 50, 100])
def test_first_components_match_reference_polynomials(n):
    tr = power_method_trace(n, 5)
    for k in range(1, 6):
        assert tr.first_components[k] == first_component_reference(k, n)


def test_reference_polynomial_k4():
    n = 37
    assert first_component_reference(4, n) == n ** 4 - n ** 3 - 3 * n ** 2 + 1


def test_ratio_r3_printed_form():
    for n in (10, 50):
        tr = power_method_trace(n, 4)
        assert tr.ratios[3] == n - Fraction(n - 1, n * (n - 2))


def test_ratio_convergence_profile():
    # the exact ratios undershoot at k=0, overshoot at k=1, then decrease
    # monotonically toward the dominant eigenvalue -- the printed closed
    # forms themselves give r_2 < r_1, so no global monotone increase exists
    n = 25
    tr = power_method_trace(n, 12)
    rs = tr.ratios
    lam = lambda_max_beta1(n, 30).lambda_max
    with mp.workprec(256):
        ratios_mp = [mp.mpf(r.numerator) / r.denominator for r in rs]
        assert ratios_mp[0] < lam < ratios_mp[1]
        assert all(rs[k + 1] < rs[k] for k in range(1, len(rs) - 1))
        assert all(r > lam - mp.mpf(10) ** -20 for r in ratios_mp[1:])
    assert all(r < n for r in rs)
    assert all(v > 0 for vec in tr.iterates for v in vec)


def test_lambda_max_small_cases():
    fit = lambda_max_beta1(2, 12)
    assert fit.lambda_max == 1
    # order-2 block [[1,1],[2,1]] has dominant eigenvalue 1 + sqrt(2)
    fit3 = lambda_max_beta1(3, 25)
    with mp.workprec(200):
        assert abs(fit3.lambda_max - (1 + mp.sqrt(2))) < 1e-24


def test_lambda_max_expansion_row():
    fit = lambda_max_beta1(50, 12)
    with mp.workprec(128):
        assert abs(fit.c0_est - mp.mpf("-0.0204166702")) < 1e-9
        assert abs(fit.c1_est - mp.mpf("-1.0208335106")) < 1e-9
    assert fit.lambda_max < 50


@pytest.mark.parametrize("n", [50, 100])
def test_beta1_spectrum_holds_the_kernel_and_the_power_method_root(caplog, n):
    # the certified spectrum against the exact kernel vector and the exact
    # power method: both are independent of the root finder
    eigenvalues.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="betaspec"):
        rs = eigenvalues(BETA1, n, 30)
    assert not [r for r in caplog.records if "fallback" in r.getMessage()]
    assert mp.mpc(0) in rs.roots
    top = max(rs.roots, key=abs)
    assert top.imag == 0
    with mp.workprec(256):
        assert abs(top.real - lambda_max_beta1(n, 30).lambda_max) < mp.mpf(10) ** -28


def _newton_reference(n: int, dps: int = 150):
    """lambda_max by plain Newton on g(t) = t**(n-1) b(t) - 1, b(t) = t**2 -
    (n + 1) t + (n + 1), from t = n: g is increasing and convex past the
    larger zero of b, so the iterates fall monotonically to the root."""
    with mp.workdps(dps):
        m = n + 1
        t = mp.mpf(n)
        for _ in range(500):
            b = t * t - m * t + m
            g = t ** (n - 1) * b - 1
            dg = t ** (n - 2) * ((n - 1) * b + t * (2 * t - m))
            step = g / dg
            t -= step
            if abs(step) < mp.mpf(10) ** (10 - dps):
                return t
    raise AssertionError("reference Newton did not settle")


@pytest.mark.parametrize("n,digits", [(6, 12), (10, 10), (11, 4), (5, 15), (5, 12),
                                      (3, 40), (50, 40), (400, 40)])
def test_lambda_max_json_digits_match_an_independent_newton_root(n, digits):
    # the printed digits of lambda, lam - n and n (lam - n) against a
    # 150-digit root of the five-term form computed without the package
    got = json.loads(lambda_max_beta1(n, digits).as_json(digits))
    lam = _newton_reference(n)
    with mp.workdps(150):
        want = {"lambda_max": mp.nstr(lam, digits + len(str(n)) + 2),
                "c0_est": mp.nstr(lam - n, digits), "c1_est": mp.nstr(n * (lam - n), digits)}
    assert {k: got[k] for k in want} == want


@pytest.mark.parametrize("n", [3, 50, 400])
def test_lambda_max_below_n(n):
    # f = -t + t**n b changes sign across the certified bracket, which lies
    # below n; there b(t) < 1 = b(n), and b increases past (n + 1)/2
    lam = lambda_max_beta1(n, 12).lambda_max
    with with_precision(256), iv_precision(256):
        cs = [mp.iv.mpf(c) for c in (0, -1, n + 1, -(n + 1), 1)]
        u = mp.mpf(10) ** -14
        lo, hi = mp.iv.mpf(lam - u), mp.iv.mpf(lam + u)
        assert eval_sparse(cs, n, lo)[0].b < 0 < eval_sparse(cs, n, hi)[0].a
        assert (hi * hi - (n + 1) * hi + (n + 1)).b < 1
    assert n * n - (n + 1) * n + (n + 1) == 1
    assert hi.b < n


def test_kernel_small_cases():
    assert kernel_vector(2) == [Fraction(1), Fraction(-2)]
    assert kernel_vector(3) == [Fraction(1), Fraction(1), Fraction(-3)]
    with pytest.raises(InvalidOrderError):
        kernel_vector(1)


@pytest.mark.parametrize("n", [*range(2, 11), 400, 2000])
def test_kernel_annihilated_exactly(n):
    w = kernel_vector(n)
    out = build_beta_matrix(BETA1, n).matvec_exact(w)
    assert all(x == 0 for x in out)


@pytest.mark.parametrize("n", range(2, 9))
def test_kernel_dimension_one(n):
    # exact rank of the dense matrix is n-1
    rows = [[Fraction(x) for x in r]
            for r in build_beta_matrix(BETA1, n).dense_exact()]
    rank = 0
    col = 0
    while rank < n and col < n:
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, n):
            f = rows[r][col] / rows[rank][col]
            for c in range(col, n):
                rows[r][c] -= f * rows[rank][c]
        rank += 1
        col += 1
    assert rank == n - 1


def test_c1_estimates_tend_to_minus_one():
    errs = []
    for n in (50, 100, 200):
        fit = lambda_max_beta1(n, 12)
        with mp.workprec(128):
            errs.append(abs(fit.c1_est + 1))
    assert errs[0] > errs[1] > errs[2]


def test_expansion_fourth_coefficient_tends_to_minus_four():
    # lambda = n - 1/n - 1/n**2 - 2/n**3 - 4/n**4 - ... from the Catalan
    # expansion of the larger zero of b, so c2 = -1 exactly
    for n in (50, 400, 6400):
        lam = lambda_max_beta1(n, 30).lambda_max
        with mp.workdps(60):
            q = mp.mpf(1) / n
            c4 = (lam - (n - q - q ** 2 - 2 * q ** 3)) / q ** 4
        assert abs(c4 + 4) < 10 / n, (n, c4)
