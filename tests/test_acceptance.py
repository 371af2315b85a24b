"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Heavy spectra are shared through the in-process cache, so the
whole suite stays within a few minutes on commodity hardware.
"""
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from betaspec import (
    BetaParam,
    LimitFunction,
    build_aux_matrix,
    build_beta_matrix,
    build_shifted,
    charpoly_closed_form,
    cluster_count,
    condition_bound_check,
    det_oracle,
    eigenvalues,
    eval_limit,
    find_outliers,
    first_component_reference,
    kernel_vector,
    lambda_max_beta1,
    optimal_match_distance,
    power_method_trace,
    quasi_normality_gap,
    reverse_poly,
    singular_values,
    symbolic_t,
    weyl_sum,
)
from betaspec.spectra import BUILTIN_TEST_FUNCTIONS

B43 = BetaParam.parse("4/3")
B3 = BetaParam.parse("3")
B5 = BetaParam.parse("5")

GRID = (50, 100, 200, 400)

REFERENCE_LAMBDA_MAX = {
    50: "2.99999796124162120902813536126303334491749260835507",
    100: "2.9999999999988454072132625253185082984139093876636",
    200: "2.9999999999999999999999996296987491150278175529157",
    400: "2.99999999999999999999999999999999999999999999999996",
}

TABLE2 = {
    50: ("-0.0204166702", "-1.0208335106"),
    100: ("-0.0101020409", "-1.0102040921"),
    200: ("-0.0050252525", "-1.0050505056"),
    400: ("-0.0025062814", "-1.0025125628"),
}

# every full spectrum solve performed by criteria 1-3 (beta, n, digits)
SOLVES_1_TO_3 = [
    (B43, 50, 30), (B43, 100, 30),
    (B3, 100, 30), (B3, 400, 30),
    (B5, 100, 30), (B5, 400, 30),
    (B43, 400, 30),
]


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_01_outlier_digit_reproduction():
    details = []
    for n in GRID:
        need = 45 if n <= 100 else 40
        t0 = time.monotonic()
        rec = find_outliers(B43, n, 50)
        elapsed = time.monotonic() - t0
        got = mp.nstr(rec.large, 56)
        want = REFERENCE_LAMBDA_MAX[n]
        assert got[: need + 2] == want[: need + 2], \
            f"n={n}: {got[:need+2]} != {want[:need+2]}"
        assert elapsed <= 60.0, f"n={n} took {elapsed:.1f}s"
        assert rec.precision_used is not None and rec.precision_used <= 1024
        details.append(f"n={n} {need}+ digits in {elapsed:.1f}s @{rec.precision_used}b")
    report("criterion 1 (outlier digits)", "; ".join(details))


def test_criterion_02_outlier_limits_decrease():
    digits = {50: 60, 100: 80, 200: 120, 400: 220}
    errs_large, errs_small = [], []
    for n in GRID:
        rec = find_outliers(B43, n, digits[n])
        assert rec.large is not None and rec.small is not None
        errs_large.append(rec.err_large)
        errs_small.append(rec.err_small)
    assert all(errs_large[i + 1] < errs_large[i] for i in range(3)), errs_large
    assert all(errs_small[i + 1] < errs_small[i] for i in range(3)), errs_small
    report("criterion 2 (outlier limits)",
           f"|large-3| {[mp.nstr(e, 3) for e in errs_large]}; "
           f"|small-1/3| {[mp.nstr(e, 3) for e in errs_small]}")


def test_criterion_03_strong_clustering_counts():
    details = []
    for beta, eps, want in ((B3, 0.05, 0), (B5, 0.05, 0), (B43, 0.1, 2)):
        for n in (100, 400):
            rep = cluster_count(eigenvalues(beta, n, 30), eps)
            assert rep.outside_count == want, \
                f"beta={beta}, n={n}: outside={rep.outside_count} want {want}"
            assert rep.inside_count + rep.outside_count == n
            details.append(f"beta={beta} n={n} out={rep.outside_count}")
    report("criterion 3 (clustering counts)", "; ".join(details))


def test_criterion_04_oracle_equivalence():
    betas = [BetaParam.parse(s) for s in ("4/3", "3/2", "2", "3", "5")]
    for beta in betas:
        for n in range(1, 9):
            closed = charpoly_closed_form(beta, n)
            oracle = det_oracle(build_shifted(beta, n, symbolic_t()))
            assert closed.coeffs == oracle.coeffs, f"beta={beta}, n={n}"
    rng = random.Random(20260811)
    for n in range(1, 11):
        det = det_oracle(build_aux_matrix(symbolic_t(), n))
        sign = (-1) ** n
        for _ in range(20):
            t = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
            assert det.eval_exact(t) == sign * sum(t ** i for i in range(n + 1))
    report("criterion 4 (oracle equivalence)",
           "closed form == fraction-free determinant for n<=8 x 5 betas; "
           "aux determinant identity at 20 rational points for n<=10")


def test_criterion_05_dense_eigensolver_cross_check():
    dists = []
    for n in (10, 25, 50):
        rs = eigenvalues(B3, n, 30)
        ev = np.linalg.eigvals(build_beta_matrix(B3, n).dense_numpy())
        d = optimal_match_distance(rs.roots, ev)
        assert d < 1e-8, f"n={n}: matching distance {d}"
        dists.append(f"n={n}:{d:.1e}")
    report("criterion 5 (dense eigensolver cross-check)", "; ".join(dists))


def test_criterion_06_trace_determinant_identities():
    digits = 30
    worst_t, worst_d = mp.mpf(0), mp.mpf(0)
    for beta, n, dg in SOLVES_1_TO_3:
        rs = eigenvalues(beta, n, dg)
        with mp.workprec(rs.precision_used + 64):
            tol = mp.mpf(10) ** (-(digits - 4))
            trace_exact = sum(beta.inverse_powers(n)) - 1
            tgap = abs(sum(rs.roots) -
                       mp.mpf(trace_exact.numerator) / trace_exact.denominator)
            assert tgap < tol, f"trace gap {tgap} beta={beta} n={n}"
            prod = mp.mpc(1)
            for z in rs.roots:
                prod *= z
            det_exact = (-1) ** n * (1 - Fraction(1) / beta.value)
            dgap = abs(prod - mp.mpf(det_exact.numerator) / det_exact.denominator)
            assert dgap < tol, f"det gap {dgap} beta={beta} n={n}"
            worst_t = max(worst_t, tgap)
            worst_d = max(worst_d, dgap)
    report("criterion 6 (trace/determinant identities)",
           f"{len(SOLVES_1_TO_3)} solves, worst trace gap {mp.nstr(worst_t, 3)}, "
           f"worst det gap {mp.nstr(worst_d, 3)} < 1e-26")


def test_criterion_07_beta1_tables():
    for n, (c0_ref, c1_ref) in TABLE2.items():
        fit = lambda_max_beta1(n, 12)
        with mp.workprec(128):
            assert abs(fit.c0_est - mp.mpf(c0_ref)) < 1e-9, f"c0 at n={n}"
            assert abs(fit.c1_est - mp.mpf(c1_ref)) < 1e-9, f"c1 at n={n}"
        assert fit.lambda_max < n
    for n in (10, 50, 100):
        tr = power_method_trace(n, 5)
        for k in range(1, 6):
            assert tr.first_components[k] == first_component_reference(k, n)
    report("criterion 7 (beta=1 tables)",
           "c0/c1 within 1e-9 at n in {50,100,200,400}; first components "
           "exact for k<=5 at n in {10,50,100}; lambda_max < n throughout")


def test_criterion_08_kernel_vector_exact():
    for n in range(2, 11):
        w = kernel_vector(n)
        image = build_beta_matrix(BetaParam.parse("1"), n).matvec_exact(w)
        assert all(x == 0 for x in image), f"nonzero kernel residual at n={n}"
        assert w[0] == 1
    report("criterion 8 (kernel vector)",
           "B w = 0 exactly over rationals for n = 2..10")


def _exact_rank(rows) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_criterion_09_singular_value_structure():
    # Write B = S + u e^T: S the lower shift, u = v - e_1, e the all-ones
    # vector.  S^T S = I - e_n e_n^T and S^T u = w = (u_2, ..., u_n, 0), so
    #     B*B - I = V K V*,  V = [e_n, w, e],  K = [[-1,0,0],[0,0,1],[0,1,|u|^2]].
    # K is invertible (det K = 1) with one positive and two negative
    # eigenvalues.  For n >= 3, w lies in span{e, e_n} only if
    # beta**-2 = ... = beta**-n, i.e. beta = 1.  So for every beta != 1, V has
    # full column rank and rank(B*B - I) = 3: exactly n - 3 singular values
    # equal 1, one exceeds 1 and two lie below it, and the three multiply to
    # |det B| = |1 - 1/beta|.  At beta = 1, w = e - e_n and exactly two leave
    # 1 (one of them is 0, since det B = 0).
    counts = {}
    values = {}
    for beta in (B43, B3):
        for n in (3, 12):
            b = build_beta_matrix(beta, n).dense_exact()
            gram_minus_id = [[sum(b[k][i] * b[k][j] for k in range(n)) -
                              (1 if i == j else 0) for j in range(n)]
                             for i in range(n)]
            assert _exact_rank(gram_minus_id) == 3, \
                f"rank(B^T B - I) != 3 at beta={beta} n={n}"
        sv = singular_values(beta, 200)
        with mp.workprec(256):
            off = [s for s in sv if abs(s - 1) > mp.mpf(10) ** -8]
            assert len(off) == 3, f"beta={beta}: off-unit values {off}"
            det_abs = abs(1 - Fraction(1) / beta.value)
            gap = abs(mp.fprod(off) - mp.mpf(det_abs.numerator) / det_abs.denominator)
            assert gap < mp.mpf(10) ** -60, f"beta={beta}: product gap {gap}"
        lapack = np.linalg.svd(build_beta_matrix(beta, 200).dense_numpy(),
                               compute_uv=False)
        for s, ref in zip(off, (lapack[0], lapack[-2], lapack[-1])):
            assert abs(float(s) - ref) < 1e-12, f"beta={beta}: {s} vs LAPACK {ref}"
        counts[str(beta)] = len(off)
        values[str(beta)] = [mp.nstr(s, 6) for s in off]
    sv1 = singular_values(BetaParam.parse("1"), 200)
    with mp.workprec(256):
        counts["1"] = sum(1 for s in sv1 if abs(s - 1) > mp.mpf(10) ** -8)
    assert counts["1"] == 2, f"beta=1: {counts['1']} off-unit values"
    report("criterion 9 (singular value structure)",
           f"off-unit counts {counts} (values {values}); rank(B^T B - I) = 3 "
           "exactly at n in {3,12}; products equal |1 - 1/beta|; LAPACK agrees")


def test_criterion_10_weyl_property_suite():
    bump_gaps = []
    qn_gaps = []
    for n in GRID:
        rs = eigenvalues(B3, n, 30)
        bump_gaps.append(weyl_sum(rs.roots, "radial_bump", "eigen").gap)
        sv = singular_values(B3, n)
        for fid in BUILTIN_TEST_FUNCTIONS:
            rep = weyl_sum(sv, fid, "singular")
            assert rep.gap <= 5.0 / n, f"{fid} singular gap {rep.gap} at n={n}"
        qn_gaps.append(quasi_normality_gap(B3, n))
    assert all(bump_gaps[i + 1] < bump_gaps[i] for i in range(3)), bump_gaps
    assert all(qn_gaps[i + 1] < qn_gaps[i] for i in range(3)), qn_gaps
    report("criterion 10 (distribution suite)",
           f"bump gaps {['%.2e' % g for g in bump_gaps]} decreasing; "
           f"singular gaps <= 5/n for all {len(BUILTIN_TEST_FUNCTIONS)} "
           f"functions; quasi-normality gaps "
           f"{[mp.nstr(g, 3) for g in qn_gaps]} decreasing")


def test_criterion_11_conditioning():
    rep = condition_bound_check(B43, 200)
    assert rep.bound == 9
    assert rep.kappa >= mp.mpf("0.98") * 9, f"kappa {rep.kappa}"
    assert rep.satisfied
    report("criterion 11 (conditioning)",
           f"kappa = {mp.nstr(rep.kappa, 6)} >= 0.98 * 9")


def test_criterion_12_limit_function_convergence():
    bits = 1024
    points = (Fraction(1, 2), mp.mpc(0, 0.5), Fraction(-7, 10))
    worst = None
    for beta in (B43, B3):
        f_in = LimitFunction(tag="p", beta=beta)
        f_rev = LimitFunction(tag="p_tilde", beta=beta)
        for t in points:
            for n in (25, 50, 100):
                pn = charpoly_closed_form(beta, n)
                p2n = charpoly_closed_form(beta, 2 * n)
                with mp.workprec(bits):
                    e1 = abs(pn.eval_mp(t, bits) - eval_limit(f_in, t, bits))
                    e2 = abs(p2n.eval_mp(t, bits) - eval_limit(f_in, t, bits))
                    assert e2 > 0 and e1 / e2 >= 2, \
                        f"interior beta={beta} t={t} n={n}: factor {e1/e2}"
                    r1 = abs(reverse_poly(pn).eval_mp(t, bits) -
                             eval_limit(f_rev, t, bits))
                    r2 = abs(reverse_poly(p2n).eval_mp(t, bits) -
                             eval_limit(f_rev, t, bits))
                    assert r2 > 0 and r1 / r2 >= 2, \
                        f"reversed beta={beta} t={t} n={n}: factor {r1/r2}"
                    m = min(e1 / e2, r1 / r2)
                    worst = m if worst is None else min(worst, m)
    report("criterion 12 (limit-function convergence)",
           f"error factors n->2n all >= 2 (smallest {mp.nstr(worst, 4)})")
