"""Spectral analytics: clustering, outliers, singular values, averaged sums."""
import logging
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betaspec import (
    BetaParam,
    InvalidParameterError,
    QComplex,
    TestFunction,
    UnknownTestFunctionError,
    build_beta_matrix,
    charpoly_closed_form,
    cluster_count,
    condition_bound_check,
    eigenvalues,
    find_outliers,
    quasi_normality_gap,
    singular_values,
    sparse_form,
    weyl_sum,
)
from betaspec.spectra import BUILTIN_TEST_FUNCTIONS, outlier_csv

REFERENCE_N100 = "2.9999999999988454072132625253185082984139093876636"


def test_cluster_single_eigenvalue():
    beta = BetaParam.parse("5")
    rs = eigenvalues(beta, 1, 20)
    inside = cluster_count(rs, 0.25)
    assert (inside.inside_count, inside.outside_count) == (1, 0)
    outside = cluster_count(rs, 0.1)
    assert (outside.inside_count, outside.outside_count) == (0, 1)
    with mp.workprec(256):
        assert abs(outside.outside_points[0] + mp.mpf(4) / 5) < 1e-60


def test_cluster_counts_moderate_orders():
    assert cluster_count(eigenvalues(BetaParam.parse("5"), 50, 30), 0.05).outside_count == 0
    rep = cluster_count(eigenvalues(BetaParam.parse("4/3"), 50, 30), 0.1)
    assert rep.outside_count == 2
    assert rep.inside_count == 48


def test_cluster_conjugation_invariance():
    beta = BetaParam.parse("4/3")
    rs = eigenvalues(beta, 40, 30)
    rep = cluster_count(rs, 0.1)
    with mp.workprec(rs.precision_used):
        flipped = [mp.conj(z) for z in rep.outside_points]
        assert all(any(abs(a - b) < 1e-20 for b in rep.outside_points) for a in flipped)


def test_cluster_epsilon_validation():
    rs = eigenvalues(BetaParam.parse("3"), 5, 20)
    with pytest.raises(InvalidParameterError):
        cluster_count(rs, 0.0)


def test_find_outliers_verified_and_digits():
    beta = BetaParam.parse("4/3")
    rec = find_outliers(beta, 100, 50)
    assert rec.count_verified
    assert mp.nstr(rec.large, 51)[:len(REFERENCE_N100)] == REFERENCE_N100
    with mp.workprec(400):
        assert abs(rec.small - mp.mpf(1) / 3) < 1e-4  # far sharper in practice
    assert rec.err_small < rec.err_large  # interior outlier converges faster


def test_find_outliers_rejects_wrong_class():
    with pytest.raises(InvalidParameterError):
        find_outliers(BetaParam.parse("3"), 50, 30)
    with pytest.raises(InvalidParameterError):
        find_outliers(BetaParam.parse("1"), 50, 30)


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("eps", [0, -1])
def test_find_outliers_rejects_nonpositive_eps(n, eps):
    with pytest.raises(InvalidParameterError):
        find_outliers(BetaParam.parse("4/3"), n, 30, annulus_eps=eps)


def test_find_outliers_below_clustering_onset():
    # beta close to 2 at a tiny order: six of the eight eigenvalues
    # legitimately sit off the annulus, and Rouché proves no count...
    beta = BetaParam.parse("39/20")
    rec = find_outliers(beta, 8, 20)
    assert not rec.count_verified
    assert rec.diagnostic.startswith(
        "outlier count not proved at eps=0.05 for n=8: neither term of a + t^n b "
        "dominates on |t| = 1 - eps and |t| = 1 + eps, as below the clustering onset")
    # ...and at 151 the small outlier is still in the annulus: it is
    # reported absent with a diagnostic
    rec = find_outliers(beta, 151, 20)
    assert rec.small is None and mp.nstr(rec.large, 15) == "1.05258175435567"
    assert rec.diagnostic is not None and "not separated" in rec.diagnostic
    assert not rec.count_verified


ROUCHE_BETAS = st.one_of(
    st.fractions(min_value=1, max_value=2, max_denominator=60).filter(lambda f: 1 < f < 2),
    st.fractions(min_value=2, max_value=6, max_denominator=60),
).map(BetaParam)


@settings(max_examples=30, deadline=None)
@given(beta=ROUCHE_BETAS, n=st.integers(min_value=2, max_value=120),
       eps=st.sampled_from([0.05, 0.1, 0.2]))
@example(beta=BetaParam.parse("4/3"), n=39, eps=0.05)
@example(beta=BetaParam.parse("5"), n=50, eps=0.05)
def test_rouche_count_matches_the_certified_disks(beta, n, eps):
    # wherever Rouché proves a count on |t| = 1 -+ eps, the certified disks
    # lie clear of that circle and exactly that many lie inside it
    rs = eigenvalues(beta, n, 30)
    form = sparse_form(beta, n)
    for rho in (1 - Fraction(eps), 1 + Fraction(eps)):
        count = form.zeros_inside(rho)
        if count is None:
            continue
        with mp.workprec(rs.precision_used + 32):
            r = mp.mpf(rho.numerator) / rho.denominator
            inside = [abs(z) + d < r for z, d in zip(rs.roots, rs.radii)]
            outside = [abs(z) - d > r for z, d in zip(rs.roots, rs.radii)]
        assert all(i or o for i, o in zip(inside, outside))
        assert sum(inside) == count


@pytest.mark.parametrize("rho", [Fraction(3, 4), Fraction(1), Fraction(7, 4)])
def test_rouche_count_refuses_a_zero_on_the_circle(rho):
    # beta - 1, the spurious zero 1 and beta = 7/4 are zeros of a + t^n b
    assert sparse_form(BetaParam.parse("7/4"), 20).zeros_inside(rho) is None


def test_find_outliers_proves_its_count_without_a_spectrum(monkeypatch):
    def refuse(*args):
        raise AssertionError("find_outliers solved the spectrum")

    monkeypatch.setattr("betaspec.spectra.eigenvalues", refuse)
    monkeypatch.setattr("betaspec.spectra.solve_all", refuse)
    rec = find_outliers(BetaParam.parse("4/3"), 100, 50)
    assert rec.count_verified and rec.diagnostic is None


def test_count_verified_at_order_1600():
    rec = find_outliers(BetaParam.parse("4/3"), 1600, 20)
    assert rec.count_verified and rec.diagnostic is None


def test_find_outliers_ladder_exhaustion_raises(monkeypatch):
    # a 200-digit certificate needs about 3.3 * 202 + log2(200), some 680
    # bits, more than 512: running out of the ladder is a failure, not an
    # outlier missing from the report
    from betaspec import ConvergenceFailureError

    monkeypatch.setattr("betaspec.rootfind.PRECISION_LADDER", (256, 512))
    with pytest.raises(ConvergenceFailureError) as exc:
        find_outliers(BetaParam.parse("9/8"), 200, 200)
    assert exc.value.best is not None


@pytest.mark.parametrize("beta_text,n", [("11/8", 800), ("4/3", 1600)])
def test_outlier_errors_match_dense_newton(dense_newton_root, beta_text, n):
    # every printed digit of both errors, against Newton on the dense
    # coefficients at 16000 bits, where the root is resolved far below
    # either error (err_small is about 1e-763 at 4/3, n = 1600)
    beta = BetaParam.parse(beta_text)
    digits = 100
    rec = find_outliers(beta, n, digits)
    poly = charpoly_closed_form(beta, n)
    b = beta.real_value
    for got, got_err, limit in ((rec.small, rec.err_small, b - 1),
                                (rec.large, rec.err_large, 1 / (b - 1))):
        root = dense_newton_root(poly, limit, 16000)
        with mp.workprec(16000):
            err = abs(root - mp.mpf(limit.numerator) / limit.denominator)
        assert mp.nstr(got, digits) == mp.nstr(root, digits)
        assert mp.nstr(got_err, digits) == mp.nstr(err, digits)


def test_outlier_errors_decrease_past_the_root_resolution():
    # err_small falls below 10**-100 |small| from n = 400 on, so only an
    # error resolved beyond the printed root keeps decreasing
    beta = BetaParam.parse("4/3")
    recs = [find_outliers(beta, n, 100) for n in (400, 800, 1600, 2400)]
    for key in ("err_small", "err_large"):
        errs = [getattr(r, key) for r in recs]
        assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:])), (key, errs)
    assert recs[-1].err_small < mp.mpf(10) ** -1100


def test_cluster_count_at_order_200():
    rep = cluster_count(eigenvalues(BetaParam.parse("4/3"), 200, 30), 0.1)
    assert rep.outside_count == 2
    assert rep.inside_count == 198


def test_outlier_csv_schema():
    beta = BetaParam.parse("4/3")
    text = outlier_csv([find_outliers(beta, 50, 30)])
    lines = text.strip().splitlines()
    assert lines[0] == "n,large,small,err_large,err_small"
    assert lines[1].startswith("50,")


def test_singular_values_order_one():
    assert singular_values(BetaParam.parse("2"), 1) == [mp.mpf(0.5)]


def test_singular_values_unit_bulk():
    sv = singular_values(BetaParam.parse("3"), 100)
    close = sum(1 for s in sv if abs(s - 1) < mp.mpf(10) ** -10)
    assert close >= 97


def test_singular_values_bracket_spectral_radius():
    beta = BetaParam.parse("4/3")
    sv = singular_values(beta, 50)
    rs = eigenvalues(beta, 50, 30)
    with mp.workprec(256):
        moduli = [abs(z) for z in rs.roots]
        assert sv[0] >= max(moduli) - mp.mpf(10) ** -20
        assert sv[-1] <= min(moduli) + mp.mpf(10) ** -20


@pytest.mark.parametrize("beta_s", ["4/3", "3", "1+1i"])
@pytest.mark.parametrize("n", [2, 3, 5, 12])
def test_structured_equals_dense_jacobi_and_lapack(beta_s, n):
    beta = BetaParam.parse(beta_s)
    a = singular_values(beta, n)
    # independent route: mp.eighe on the dense Gram matrix B*B at 256 bits
    with mp.workprec(256):
        dense_b = mp.matrix(build_beta_matrix(beta, n).dense_mp(256))
        evs = mp.eighe(dense_b.H * dense_b, eigvals_only=True)
        b = sorted((mp.sqrt(max(ev, 0)) for ev in evs), reverse=True)
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-60
    dense = build_beta_matrix(beta, n).dense_numpy()
    ref = sorted(np.linalg.svd(dense, compute_uv=False).tolist(), reverse=True)
    assert max(abs(float(x) - y) for x, y in zip(a, ref)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 50, 200])
def test_singular_values_beta_one_exact_zero(n):
    # B(1, n) is singular (kernel vector (1, ..., 1, -n)) and B*B - I has rank 2
    sv = singular_values(BetaParam.parse("1"), n)
    assert sv[-1] == 0
    assert sum(1 for s in sv if s == mp.mpf(1)) == n - 2


def _abs2(z):
    return z.abs2() if isinstance(z, QComplex) else z * z


_SV_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=20)
SV_BETAS = st.one_of(
    st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=60)
    .filter(lambda f: Fraction(1, 8) < f != 1).map(BetaParam),
    st.builds(QComplex, _SV_FRACTIONS, _SV_FRACTIONS.filter(bool))
    .filter(lambda z: Fraction(1, 16) <= z.abs2() <= 36).map(BetaParam),
)


@settings(max_examples=60, deadline=None)
@given(beta=SV_BETAS, n=st.integers(min_value=1, max_value=120))
@example(beta=BetaParam.parse("1/3"), n=50)  # sigma_min needs 491 bits above 256
def test_singular_values_product_and_frobenius(beta, n):
    sv = singular_values(beta, n, 256)
    assert len(sv) == n
    assert all(a >= b for a, b in zip(sv, sv[1:]))
    if n >= 3:
        assert sum(1 for s in sv if s != 1) == 3
    x = Fraction(1) / beta.value if beta.is_real else beta.value.inverse()
    det2 = _abs2(1 - x)  # |det B|^2
    frobenius = sum(_abs2(e) for row in build_beta_matrix(beta, n).dense_exact() for e in row)
    with mp.workprec(512):
        tol = mp.mpf(2) ** -200
        det = mp.sqrt(mp.mpf(det2.numerator) / det2.denominator)
        assert abs(mp.fprod(sv) / det - 1) <= tol
        fro = mp.mpf(frobenius.numerator) / frobenius.denominator
        assert abs(mp.fsum(s * s for s in sv) / fro - 1) <= tol


def test_singular_values_debug_record(caplog):
    with caplog.at_level(logging.DEBUG, logger="betaspec"):
        singular_values(BetaParam.parse("1"), 50)
        singular_values(BetaParam.parse("4/3"), 50)
    records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("singvals")]
    assert len(records) == 2
    assert "n=50 rank=2 " in records[0] and "extra_bits=0 " in records[0]
    assert "n=50 rank=3 " in records[1] and "seconds=" in records[1]


def test_weyl_constant_window_gap_zero():
    const = TestFunction("const_window", lambda z: 1.0 if abs(z) <= 50 else 0.0,
                         "constant on a ball that contains every tested spectrum", 1.0)
    rs = eigenvalues(BetaParam.parse("3"), 30, 30)
    rep = weyl_sum(rs.roots, const, "eigen")
    assert rep.gap == 0.0
    sv = singular_values(BetaParam.parse("3"), 30)
    rep2 = weyl_sum(sv, const, "singular")
    assert rep2.gap == 0.0


def test_weyl_re_moment_matches_trace():
    beta = BetaParam.parse("3")
    n = 40
    rs = eigenvalues(beta, n, 30)
    rep = weyl_sum(rs.roots, "re_moment", "eigen")
    trace = float(sum(Fraction(1) / beta.value ** i for i in range(1, n + 1)) - 1)
    assert abs(rep.empirical_mean - trace / n) < 1e-12
    assert abs(rep.reference) < 1e-12  # circle average of the real part


def test_weyl_singular_gap_small():
    beta = BetaParam.parse("3")
    n = 50
    sv = singular_values(beta, n)
    for fid in BUILTIN_TEST_FUNCTIONS:
        rep = weyl_sum(sv, fid, "singular")
        assert rep.gap <= 5.0 / n
        assert rep.reference == pytest.approx(
            BUILTIN_TEST_FUNCTIONS[fid].fn(complex(1.0)))


def test_weyl_radial_bump_reference_is_one():
    assert weyl_sum([2.0], "radial_bump", "eigen").reference == 1.0


@pytest.mark.parametrize("fid", sorted(BUILTIN_TEST_FUNCTIONS))
def test_weyl_builtin_mean_matches_the_circle_integral(fid):
    # each stated mean against (1/2pi) * integral of F(e^{i theta}), by
    # tanh-sinh quadrature split where the arc weight has kinks
    f = BUILTIN_TEST_FUNCTIONS[fid]
    with mp.workdps(30):
        kinks = [mp.pi / 2, mp.pi / 2 + mp.mpf("0.2")]
        nodes = [-mp.pi, -kinks[1], -kinks[0], 0, kinks[0], kinks[1], mp.pi]
        integral = mp.quad(lambda th: f.fn(complex(mp.cos(th), mp.sin(th))), nodes)
        assert abs(integral / (2 * mp.pi) - f.mean) < 1e-14


def test_weyl_errors():
    rs = eigenvalues(BetaParam.parse("3"), 5, 20)
    with pytest.raises(UnknownTestFunctionError):
        weyl_sum(rs.roots, "no_such_fn", "eigen")
    with pytest.raises(InvalidParameterError):
        weyl_sum(rs.roots, "radial_bump", "spectral")
    with pytest.raises(InvalidParameterError):
        weyl_sum([], "radial_bump", "eigen")


def test_quasi_normality_trivial_and_trend():
    assert quasi_normality_gap(BetaParam.parse("2"), 1) == 0
    g20 = quasi_normality_gap(BetaParam.parse("3"), 20)
    g60 = quasi_normality_gap(BetaParam.parse("3"), 60)
    assert g60 < g20
    with pytest.raises(InvalidParameterError):
        quasi_normality_gap(BetaParam.parse("1/2"), 10)


def test_quasi_normality_against_float_pipeline():
    # independent oracle: LAPACK SVD + companion-matrix roots in float64
    beta = BetaParam.parse("4/3")
    n = 200
    gap = quasi_normality_gap(beta, n)
    coeffs = [float(c) for c in charpoly_closed_form(beta, n).coeffs]
    lam = np.sort(np.abs(np.roots(coeffs[::-1])))[::-1]
    sv = np.sort(np.linalg.svd(build_beta_matrix(beta, n).dense_numpy(),
                               compute_uv=False))[::-1]
    ref = float(np.mean(np.abs(sv - lam)))
    assert abs(float(gap) - ref) < 1e-6
    assert 0 < float(gap) < 0.1


def test_condition_bound():
    rep2 = condition_bound_check(BetaParam.parse("2"), 10)
    assert rep2.bound == 1
    assert rep2.satisfied
    rep3 = condition_bound_check(BetaParam.parse("3"), 100)
    assert rep3.bound == 4
    assert rep3.kappa >= mp.mpf("3.92")
    assert rep3.satisfied
    with pytest.raises(InvalidParameterError):
        condition_bound_check(BetaParam.parse("1+1i"), 10)
