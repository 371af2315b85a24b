"""Root engine: certified multiprecision roots against independent checks."""
import json
import logging
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp import mpf_neg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betaspec import (
    BetaParam,
    ConvergenceFailureError,
    PrecPoly,
    RefinementFailureError,
    build_beta_matrix,
    charpoly_closed_form,
    eigenvalues,
    optimal_match_distance,
    refine_real_root_reported,
    reverse_poly,
    solve_all,
    sparse_form,
)
from betaspec import rootfind
from betaspec.cli import run
from betaspec.charpoly import eval_sparse
from betaspec.numerics import (
    Ball,
    QComplex,
    ball_from,
    decimal_str,
    fixed_from,
    fraction_from_mpf,
    mpc_from,
    with_precision,
)
from betaspec.rootfind import _aberth_level, _polygon_starts, _sign_change, _solve_sparse
from test_charpoly import SPARSE_BETAS

REFERENCE_N50 = "2.99999796124162120902813536126303334491749260835507"


def _assert_disks(rs):
    # the certificate: every radius within 10**-D (1 + |z|), and the disks
    # pairwise disjoint, so each holds exactly one root
    with mp.workprec(300):
        tol = mp.mpf(10) ** -rs.target_digits
        assert all(r <= tol * (1 + abs(z)) for z, r in zip(rs.roots, rs.radii))
        for j, (z, r) in enumerate(zip(rs.roots, rs.radii)):
            assert all(abs(z - w) > r + s for w, s in zip(rs.roots[j + 1:], rs.radii[j + 1:]))


@pytest.mark.parametrize("beta_text", ["2", "5", "1+1i", "1/2", "1"])
def test_degree_one_closed_form(beta_text):
    # p_1(t) = t - (1/beta - 1): the one disk holds that exact zero
    beta = BetaParam.parse(beta_text)
    rs = solve_all(sparse_form(beta, 1), 30)
    assert len(rs.roots) == 1
    _assert_disks(rs)
    z = rs.roots[0]
    zq = QComplex(fraction_from_mpf(z.real), fraction_from_mpf(z.imag))
    assert (zq - (1 / beta.value - 1)).abs2() <= fraction_from_mpf(rs.radii[0]) ** 2


def test_small_order_matches_dense_eigensolver():
    # independent oracle: LAPACK eigenvalues of the dense float64 matrix
    beta = BetaParam.parse("2")
    rs = solve_all(sparse_form(beta, 3), 30)
    ev = np.linalg.eigvals(build_beta_matrix(beta, 3).dense_numpy())
    assert optimal_match_distance(rs.roots, ev) < 1e-8


def test_reference_outlier_in_root_set():
    beta = BetaParam.parse("4/3")
    rs = solve_all(sparse_form(beta, 50), 50)
    reals = [z.real for z in rs.roots if abs(z.imag) < mp.mpf(10) ** -25 and z.real > 2]
    assert len(reals) == 1
    assert mp.nstr(reals[0], 51) == REFERENCE_N50


def test_residual_certificates_hold():
    beta = BetaParam.parse("3")
    rs = solve_all(sparse_form(beta, 20), 30)
    assert len(rs.roots) == 20
    _assert_disks(rs)


def test_conjugate_closure_for_real_coefficients():
    beta = BetaParam.parse("4/3")
    rs = solve_all(sparse_form(beta, 21), 30)
    conj = [mp.conj(z) for z in rs.roots]
    assert optimal_match_distance(rs.roots, conj) < 1e-25


def test_determinism_identical_digit_strings():
    beta = BetaParam.parse("3")
    a = solve_all(sparse_form(beta, 17), 30)
    b = solve_all(sparse_form(beta, 17), 30)
    sa = [mp.nstr(z, 30) for z in a.roots]
    sb = [mp.nstr(z, 30) for z in b.roots]
    assert sa == sb
    assert a.precision_used == b.precision_used
    assert a.iterations == b.iterations


@pytest.mark.parametrize("n", [15, 50])
def test_reversed_roots_are_reciprocals(n):
    beta = BetaParam.parse("4/3")
    digits = 30
    p = charpoly_closed_form(beta, n)
    rs = solve_all(sparse_form(beta, n), digits)
    rr = solve_all(reverse_poly(p), digits)
    with mp.workprec(300):
        recip = [1 / z for z in rs.roots]
    assert optimal_match_distance(rr.roots, recip) < 10 ** (-(digits - 2))
    # the smallest-modulus outlier of p maps to the largest of the reversal
    with mp.workprec(300):
        small = min(abs(z) for z in rs.roots)
        large = max(abs(z) for z in rr.roots)
        assert abs(small * large - 1) < 1e-20


def test_solve_inexact_coefficients():
    # mpf-coefficient polynomial (t - 1/4)(t - 4) built at 256 bits
    with mp.workprec(256):
        coeffs = (mp.mpf(1), -mp.mpf("4.25"), mp.mpf(1))
    p = PrecPoly(coeffs=coeffs)
    rs = solve_all(p, 30)
    with mp.workprec(300):
        got = sorted(z.real for z in rs.roots)
        assert abs(got[0] - mp.mpf(1) / 4) < 1e-29
        assert abs(got[1] - 4) < 1e-29


def test_complex_beta_roots():
    beta = BetaParam.parse("1+1i")
    rs = solve_all(sparse_form(beta, 8), 25)
    assert len(rs.roots) == 8
    _assert_disks(rs)


def test_root_report_schema():
    beta = BetaParam.parse("3")
    rs = solve_all(sparse_form(beta, 4), 20)
    doc = json.loads(rs.as_json())
    assert doc["beta"] == "3"
    assert doc["n"] == 4
    assert doc["precision_bits"] >= 256
    assert len(doc["roots"]) == 4
    assert {"re", "im", "residual"} <= set(doc["roots"][0])


def test_refine_reference_value_from_seed():
    beta = BetaParam.parse("4/3")
    x = refine_real_root_reported(sparse_form(beta, 50), 3.0, 50)[0]
    assert mp.nstr(x, 51) == REFERENCE_N50


def test_refine_near_interior_limit():
    beta = BetaParam.parse("4/3")
    x = refine_real_root_reported(sparse_form(beta, 60), Fraction(1, 3), 40)[0]
    with mp.workprec(300):
        assert abs(x - mp.mpf(1) / 3) < 1e-10


def test_refine_degree_one_exact():
    # p_1(t) = t - (1/beta - 1): Newton lands on a dyadic zero exactly, and
    # on any other within the certified bracket 10**-32 |zero|
    for beta_text in ("2", "-2", "4/3", "1/3", "3", "3/2"):
        beta = BetaParam.parse(beta_text)
        root = fraction_from_mpf(refine_real_root_reported(sparse_form(beta, 1), 100.0, 30)[0])
        zero = 1 / beta.real_value - 1
        if zero.denominator & (zero.denominator - 1) == 0:
            assert root == zero
        else:
            assert abs(root - zero) <= abs(zero) / 10 ** 32


@pytest.mark.parametrize("n", [1, 2, 3, 5, 50])
def test_refine_certifies_the_zero_eigenvalue_of_beta_one(n):
    # p_n(0) = 0 exactly at beta = 1; the refinement returns exactly 0,
    # certified by a sign change of f across [-u, u], u = 10**-32 / n
    form = sparse_form(BetaParam.parse("1"), n)
    assert charpoly_closed_form(BetaParam.parse("1"), n).coeffs[0] == 0
    root, bits = refine_real_root_reported(form, 0.001, 30)
    assert isinstance(root, mp.mpf) and root == 0 and bits == 256
    with with_precision(bits + 32):
        assert _sign_change(form, root, mp.mpf(10) ** -32 / n)


def test_sign_change_certificate_brackets_only_a_root():
    form = sparse_form(BetaParam.parse("4/3"), 50)
    root, bits = refine_real_root_reported(form, 3.0, 50)
    with with_precision(bits + 32):
        u = mp.mpf(10) ** -52 * root / 50
        assert _sign_change(form, root, u)
        assert not _sign_change(form, root + 3 * u, u)
        # the spurious zero t = beta of (1 - t)(1 - t/beta) p_n is no root of p_n
        assert not _sign_change(form, mp.mpf(4) / 3, u)


def test_refine_names_a_spurious_zero_it_settles_on():
    # p_1 = t - 1 at beta = 1/2: the eigenvalue is the spurious zero t = 1 of
    # the five-term form, where no sign change of f can certify it
    with pytest.raises(RefinementFailureError, match="bits within .* of t = 1,"):
        refine_real_root_reported(sparse_form(BetaParam.parse("1/2"), 1), 100.0, 30)


def test_newton_returns_mpf_for_a_real_seed_and_mpc_for_a_complex_one():
    # a real seed on a real form stays exactly real; a complex seed, even
    # one on the real axis, comes back as mpc, and so does any seed on a
    # complex form
    for text, seeds in (("4/3", (3.0, mp.mpf(3), 0.3 + 0.9j, 3 + 0j, mp.mpc(3))),
                        ("4/3+1/5i", (3 + 0j, mp.mpc(0.3, 0.9)))):
        form = sparse_form(BetaParam.parse(text), 20)
        with with_precision(256 + 32):
            cs = [fixed_from(c, 256 + 32) for c in form.coeffs]
            for seed in seeds:
                z, steps, settled = rootfind._newton(cs, 20, seed, 256)
                real = isinstance(seed, (float, mp.mpf)) and form.is_real
                assert settled and type(z) is (mp.mpf if real else mp.mpc)


# beta close to 2 at a tiny order: Newton from 19/20 cycles instead of
# converging, since no real eigenvalue has separated from the circle there
CYCLING = (BetaParam.parse("39/20"), 8, Fraction(19, 20))


def test_refine_no_real_root_fails():
    beta, n, seed = CYCLING
    with pytest.raises(RefinementFailureError):
        refine_real_root_reported(sparse_form(beta, n), seed, 20)


def test_refine_stops_at_first_unsettled_level(caplog):
    beta, n, seed = CYCLING
    with caplog.at_level(logging.DEBUG, logger="betaspec"):
        with pytest.raises(RefinementFailureError):
            refine_real_root_reported(sparse_form(beta, n), seed, 20)
    refine = [r.getMessage() for r in caplog.records if r.message.startswith("refine")]
    assert len(refine) == 1
    assert "bits=256 " in refine[0] and "settled=False" in refine[0]


def test_sorted_by_argument():
    beta = BetaParam.parse("3")
    rs = solve_all(sparse_form(beta, 12), 25)
    with mp.workprec(rs.precision_used):
        args = []
        for z in rs.roots:
            if abs(z.imag) < mp.mpf(10) ** -12 * (1 + abs(z)):
                args.append(mp.mpf(0) if z.real >= 0 else +mp.pi)
            else:
                args.append(mp.atan2(z.imag, z.real))
        assert all(args[i] <= args[i + 1] for i in range(len(args) - 1))


def test_solver_logs_one_debug_record_per_level(caplog):
    beta = BetaParam.parse("4/3")
    # a coefficient vector takes the Aberth ladder, and its result has no beta
    with caplog.at_level(logging.DEBUG, logger="betaspec"):
        rs = solve_all(charpoly_closed_form(beta, 12), 25)
        root, bits = refine_real_root_reported(sparse_form(beta, 30), Fraction(3), 40)
    solve = [r.getMessage() for r in caplog.records if r.message.startswith("solve_all")]
    refine = [r.getMessage() for r in caplog.records if r.message.startswith("refine")]
    assert all(r.name == "betaspec" and r.levelno == logging.DEBUG for r in caplog.records)
    assert rs.beta is None
    # one record per ladder level, up to the level that certified
    assert [int(m.split("bits=")[1].split()[0]) for m in solve] == \
        [256 * 2 ** k for k in range(len(solve))]
    assert solve[-1].split("bits=")[1].startswith(f"{rs.precision_used} ")
    assert sum(int(m.split("sweeps=")[1].split()[0]) for m in solve) == rs.iterations
    # one level suffices: its disks certify, with no second level to agree with
    assert len(solve) == 1 and "bits=256 " in solve[0]
    assert all(f in solve[0] for f in ("converged=True", "certified=True", "seconds="))
    assert mp.mpf(solve[0].split("max_radius=")[1].split()[0]) < mp.mpf(10) ** -25
    assert float(solve[0].split("min_gap=")[1].split()[0]) > 0
    assert [int(m.split("bits=")[1].split()[0]) for m in refine][-1] == bits
    assert all("settled=True" in m and "newton_steps=" in m and "seconds=" in m
               for m in refine)
    # the certificate half-width u = 10**-(digits + 2) |root| / n, to 3 digits
    u = float(root) * 1e-42 / 30
    assert all(abs(float(m.split("bracket=")[1].split()[0]) / u - 1) < 1e-2
               for m in refine)


def _aberth_level_reference(hi, dhi, z, prec, conv_shift=32, max_sweeps=500):
    # the sweep on mpmath number objects: the reference the tuple kernel in
    # rootfind._aberth_level must reproduce bit for bit
    d = len(hi) - 1
    conv_tol = mp.mpf(2) ** (-(prec - conv_shift))
    converged = [False] * d
    for sweep in range(max_sweeps):
        active = 0
        for j in range(d):
            if converged[j]:
                continue
            active += 1
            x = z[j]
            p = mp.polyval(hi, x)
            dp = mp.polyval(dhi, x)
            if p == 0:
                converged[j] = True
                continue
            w = p / dp if dp != 0 else mp.mpc(1) / d
            s = mp.mpc(0)
            for k in range(d):
                if k == j:
                    continue
                dz = x - z[k]
                if dz == 0:
                    dz = mp.mpc(conv_tol, conv_tol)
                s += 1 / dz
            denom = 1 - w * s
            delta = w / denom if denom != 0 else w
            z[j] = x - delta
            if abs(delta) <= conv_tol * (1 + abs(z[j])):
                converged[j] = True
        if active == 0:
            return z, sweep + 1, True
    return z, max_sweeps, all(converged)


@pytest.mark.parametrize("beta_text,n", [("4/3", 16), ("1+1i", 12)])
def test_aberth_level_matches_mpmath_objects(beta_text, n, monkeypatch):
    poly = charpoly_closed_form(BetaParam.parse(beta_text), n)
    with mp.workprec(288):
        cs = poly.coeffs_mp(real=False)
        hi = cs[::-1]
        dhi = [cs[k] * k for k in range(n, 0, -1)]
        # two identical iterates exercise the dz == 0 nudge
        seeds = [mp.mpc(s) for s in _polygon_starts(poly.coeffs)]
        seeds[1] = seeds[0]
        # one sweep from the starting circles, where every bit of the repulsion sum
        # reaches the iterates, then the whole level
        for max_sweeps in (1, 500):
            monkeypatch.setattr(rootfind, "MAX_SWEEPS_PER_LEVEL", max_sweeps)
            got = _aberth_level(hi, dhi, list(seeds), 256)
            expected = _aberth_level_reference(hi, dhi, list(seeds), 256,
                                               max_sweeps=max_sweeps)
            assert got[1:] == expected[1:]
            assert [z._mpc_ for z in got[0]] == [z._mpc_ for z in expected[0]]
    assert got[2]


def test_aberth_route_refuses_a_duplicated_root(monkeypatch):
    # two iterates on one zero and none on another: every residual is tiny,
    # but the two coinciding disks overlap, so no level certifies
    poly = charpoly_closed_form(BetaParam.parse("4/3"), 20)
    level = rootfind._aberth_level

    def duplicated(*args, **kwargs):
        z, sweeps, converged = level(*args, **kwargs)
        j, k = [i for i, x in enumerate(z) if x.imag != 0][:2]
        z[k] = z[j]
        return z, sweeps, converged

    monkeypatch.setattr(rootfind, "_aberth_level", duplicated)
    with pytest.raises(ConvergenceFailureError) as exc:
        solve_all(poly, 30)
    message = str(exc.value)
    assert "last level: bits=2048 max_radius=" in message
    assert float(message.split("min_gap=")[1]) < 0
    assert len(exc.value.best) == 20


@pytest.mark.parametrize("beta_text", ["4/3", "1/2", "5/3+2/3i"])
def test_aberth_route_separates_coinciding_warm_starts(monkeypatch, beta_text):
    # two equal seeds meet the tie guard of the first sweep and still certify
    poly = charpoly_closed_form(BetaParam.parse(beta_text), 20)
    ref = solve_all(poly, 30)
    warm_start = rootfind._float_warm_start

    def coinciding(coeffs, starts):
        z = warm_start(coeffs, starts)
        z[1] = z[0]
        return z

    monkeypatch.setattr(rootfind, "_float_warm_start", coinciding)
    rs = solve_all(poly, 30)
    with mp.workprec(rs.precision_used):
        assert max(abs(a - b) for a, b in zip(rs.roots, ref.roots)) < mp.mpf(10) ** -30


# ---------------------------------------------------------------------------
# Sparse route: Newton on the five-term form, certified by inclusion disks
# ---------------------------------------------------------------------------

def _same_roots(got, ref, digits):
    assert len(got.roots) == len(ref.roots)
    assert optimal_match_distance(got.roots, ref.roots) < 10 ** -(digits - 2)
    # the sparse route returns the zero eigenvalue of beta = 1 as exactly 0;
    # the Aberth iterate there is noise of ~1e-160 whose sign also moves it in
    # the argument order, so on both sides a disk that holds 0 is matched by
    # count and the digits of the other roots are compared
    got_rest = [z for z, r in zip(got.roots, got.radii) if abs(z) > r]
    ref_rest = [w for w, r in zip(ref.roots, ref.radii) if abs(w) > r]
    assert len(got_rest) == len(ref_rest)
    assert [decimal_str(z.real, digits) for z in got_rest] == \
        [decimal_str(w.real, digits) for w in ref_rest]


_CROSS_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=12)
CROSS_BETAS = st.one_of(
    st.fractions(min_value=1, max_value=2, max_denominator=40)
    .filter(lambda f: 1 < f < 2).map(BetaParam),
    st.fractions(min_value=2, max_value=6, max_denominator=40).map(BetaParam),
    st.builds(QComplex, _CROSS_FRACTIONS, _CROSS_FRACTIONS.filter(bool))
    .filter(lambda z: Fraction(9, 4) <= z.abs2() <= 9).map(BetaParam),
    st.just(BetaParam(1)),
)


@pytest.mark.parametrize("beta_s,n", [("4/3", 30), ("3", 25), ("5", 12)])
def test_trace_and_determinant_identities(beta_s, n):
    _check_trace_and_determinant(BetaParam.parse(beta_s), n)


@settings(max_examples=40, deadline=None)
@given(beta=CROSS_BETAS.filter(lambda b: b.value != 1), n=st.integers(min_value=2, max_value=60))
def test_trace_and_determinant_identities_property(beta, n):
    _check_trace_and_determinant(beta, n)


def _check_trace_and_determinant(beta, n):
    # the root sum is the exact trace S_n - 1 and the root product the exact
    # determinant (-1)**n (1 - 1/beta)
    digits = 30
    rs = solve_all(sparse_form(beta, n), digits)
    with mp.workprec(4 * digits):
        trace = mpc_from(sum(beta.inverse_powers(n)) - 1)
        assert abs(sum(rs.roots) - trace) < mp.mpf(10) ** (-(digits - 4))
        prod = mp.mpc(1)
        for z in rs.roots:
            prod *= z
        det_ref = mpc_from((-1) ** n * (1 - 1 / beta.value))
        assert abs(prod - det_ref) < mp.mpf(10) ** (-(digits - 4))


@settings(max_examples=25, deadline=None)
@given(beta=CROSS_BETAS, n=st.integers(min_value=2, max_value=60))
def test_sparse_route_matches_aberth(beta, n):
    digits = 30
    form = sparse_form(beta, n)
    sparse = _solve_sparse(form, digits)
    got = sparse if sparse is not None else solve_all(form, digits)
    _same_roots(got, solve_all(charpoly_closed_form(beta, n), digits), digits)


@pytest.mark.parametrize("beta_text,n,digits", [
    ("5", 100, 30), ("3", 51, 30), ("4/3", 101, 30), ("4/3", 70, 200),
    ("3/2-5/4i", 50, 30), ("-3", 40, 30), ("1", 50, 30), ("1", 100, 30)])
def test_sparse_route_certifies_the_figure_spectra(beta_text, n, digits):
    rs = _solve_sparse(sparse_form(BetaParam.parse(beta_text), n), digits)
    assert rs is not None and rs.degree == n
    _assert_disks(rs)


def _drop_one(seeds):
    return seeds[:-1]


def _append_copy(seeds):
    return seeds + [seeds[-1]]


def _replace_by_copy(seeds):
    # keeps the count: two seeds now polish to the same zero
    j, k = [i for i, s in enumerate(seeds) if isinstance(s, complex)][:2]
    return seeds[:k] + [seeds[j]] + seeds[k + 1:]


def _replace_real(seeds, point):
    # keeps the count: the seed polishes to the spurious zero at ``point``
    j = next(i for i, s in enumerate(seeds) if isinstance(s, float))
    return seeds[:j] + [point] + seeds[j + 1:]


def _replace_real_by_one(seeds):
    return _replace_real(seeds, 1.0)


def _replace_real_by_beta(seeds):
    return _replace_real(seeds, 4 / 3)


@pytest.mark.parametrize("mutate,reason", [
    (_drop_one, "seeds=49 zeros=50"), (_append_copy, "seeds=51 zeros=50"),
    (_replace_by_copy, "overlapping disks"), (_replace_real_by_one, "overlapping disks"),
    (_replace_real_by_beta, "overlapping disks")])
def test_sparse_route_refuses_a_wrong_seed_set(monkeypatch, caplog, mutate, reason):
    form = sparse_form(BetaParam.parse("4/3"), 50)
    ref = solve_all(charpoly_closed_form(form.beta, 50), 30)
    seeds = rootfind._phase_seeds
    monkeypatch.setattr(rootfind, "_phase_seeds", lambda form: mutate(seeds(form)))
    with caplog.at_level(logging.DEBUG, logger="betaspec"):
        assert _solve_sparse(form, 30) is None
        rs = solve_all(form, 30)
    fallback = [r.getMessage() for r in caplog.records if "fallback" in r.getMessage()]
    assert len(fallback) == 2 and all(reason in m for m in fallback)
    assert [z._mpc_ for z in rs.roots] == [z._mpc_ for z in ref.roots]


@pytest.mark.parametrize("beta_text,n", [("39/20", 8), ("2", 20)])
def test_fallback_gives_the_aberth_result(caplog, beta_text, n):
    form = sparse_form(BetaParam.parse(beta_text), n)
    with caplog.at_level(logging.DEBUG, logger="betaspec"):
        rs = solve_all(form, 30)
    fallback = [r.getMessage() for r in caplog.records if "fallback" in r.getMessage()]
    assert len(fallback) == 1 and "reason=" in fallback[0]
    ref = solve_all(charpoly_closed_form(form.beta, n), 30)
    assert [z._mpc_ for z in rs.roots] == [z._mpc_ for z in ref.roots]
    assert (rs.precision_used, rs.iterations) == (ref.precision_used, ref.iterations)
    # the fallback still reports the form's beta, which the cluster CSV prints
    assert rs.beta == form.beta


def test_sparse_route_logs_one_debug_record_per_level(caplog):
    with caplog.at_level(logging.DEBUG, logger="betaspec"):
        rs = solve_all(sparse_form(BetaParam.parse("4/3"), 70), 200)
    records = [r.getMessage() for r in caplog.records if r.message.startswith("solve_all")]
    assert all(m.startswith("solve_all sparse degree=70 level: ") for m in records)
    # 1024 bits is the first level whose disks are within 10**-200 (1 + |z|)
    assert [int(m.split("bits=")[1].split()[0]) for m in records] == [256, 512, 1024]
    assert rs.precision_used == 1024
    # iterations: per level, the most Newton steps any root took
    assert sum(int(m.split("newton_steps=")[1].split()[0]) for m in records) == rs.iterations
    assert ["certified=True" in m for m in records] == [False, False, True]
    radii = [mp.mpf(m.split("max_radius=")[1].split()[0]) for m in records]
    gap = float(records[-1].split("min_gap=")[1].split()[0])
    assert radii[0] > radii[1] > radii[2] > 0
    assert radii[2] < mp.mpf(10) ** -300 and gap > 0.01
    assert all("seconds=" in m for m in records)


@pytest.mark.parametrize("route,build,beta_text,n", [
    pytest.param(route, build, beta_text, n, id=f"{prefix}{beta_text}-{n}")
    for prefix, route, build in (("", _solve_sparse, sparse_form),
                                 ("aberth-", solve_all, charpoly_closed_form))
    for beta_text, n in (("4/3", 20), ("3/2-5/4i", 15), ("5", 12))])
def test_residuals_are_relative_radii_within_the_target(route, build, beta_text, n):
    # the residual is the radius over (1 + |z|), the quantity the
    # certificate bounds by 10**-D, on either route
    rs = route(build(BetaParam.parse(beta_text), n), 30)
    assert rs is not None and rs.degree == n
    for z, r, rad in zip(rs.roots, rs.residuals, rs.radii):
        assert r == rad / (1 + abs(z))
        assert r <= mp.mpf(10) ** -30
    row = json.loads(rs.as_json())["roots"][0]
    assert row["residual"] == decimal_str(rs.residuals[0], 3)


def _inside(ball: Ball, z: QComplex) -> bool:
    # the exact value z lies in the ball
    gap = z * 2 ** ball.p - QComplex(Fraction(ball.re), Fraction(ball.im))
    return gap.abs2() <= ball.rad ** 2


@st.composite
def _dyadic_points(draw):
    # |t| <= 3, with denominators on both sides of 2**-p at p = 296 and 552
    k = draw(st.integers(min_value=0, max_value=600))
    re, im = (Fraction(draw(st.integers(min_value=-3 << k, max_value=3 << k)), 1 << k)
              for _ in range(2))
    assume(re * re + im * im <= 9)
    return QComplex(re, im)


@settings(max_examples=60, deadline=None)
@given(beta=SPARSE_BETAS, n=st.integers(min_value=1, max_value=80),
       t=_dyadic_points(), p=st.sampled_from([296, 552]))
def test_ball_evaluation_encloses_the_exact_values(beta, n, t, p):
    # f and f' on balls hold the exact rational values of the five-term form
    # at the exact point t
    form = sparse_form(beta, n)
    a0, a1, b0, b1, b2 = form.coeffs
    tn1 = t ** (n - 1)
    f = a0 + a1 * t + tn1 * t * (b0 + b1 * t + b2 * t * t)
    df = a1 + tn1 * (n * b0 + (n + 1) * b1 * t + (n + 2) * b2 * t * t)
    fb, dfb = eval_sparse([ball_from(c, p) for c in form.coeffs], n, ball_from(t, p))
    assert _inside(fb, f) and _inside(dfb, df)
    assert max(fb.inf_abs(), 0) ** 2 <= f.abs2() * 4 ** p <= fb.sup_abs() ** 2


_NON_DYADIC = st.fractions(min_value=-5, max_value=5, max_denominator=99).filter(
    lambda q: q.denominator & (q.denominator - 1))


@settings(max_examples=100, deadline=None)
@given(x=st.builds(QComplex, _NON_DYADIC, _NON_DYADIC), y=st.builds(QComplex, _NON_DYADIC, _NON_DYADIC),
       r=st.integers(min_value=0, max_value=2 ** 40), s=st.integers(min_value=0, max_value=2 ** 40),
       u=st.sampled_from([QComplex(Fraction(3, 5), Fraction(4, 5)), QComplex(Fraction(-1)),
                          QComplex(Fraction(0), Fraction(-1)), QComplex(Fraction(0))]),
       p=st.sampled_from([296, 552]))
def test_ball_product_encloses_the_exact_product(x, y, r, s, u, p):
    # two inexact balls, widened by r and s units, and points of each on the
    # rim along u (|u| <= 1): their exact product, difference and negations
    # lie in the ball results
    bx, by = ball_from(x, p), ball_from(y, p)
    assert bx.rad == by.rad == 1 and _inside(bx, x) and _inside(by, y)
    bx, by = Ball(bx.re, bx.im, bx.rad + r, p), Ball(by.re, by.im, by.rad + s, p)
    unit = Fraction(1, 2 ** p)
    xs, ys = x + u * (r * unit), y + u.conjugate() * (s * unit)
    assert _inside(bx, xs) and _inside(by, ys) and _inside(bx * by, xs * ys)
    assert _inside(bx - by, xs - ys) and _inside(-bx, -xs) and _inside(-by, -ys)


@settings(max_examples=100, deadline=None)
@given(re=st.integers(min_value=-2 ** 70, max_value=2 ** 70),
       im=st.integers(min_value=-2 ** 70, max_value=2 ** 70),
       rad=st.integers(min_value=0, max_value=2 ** 70),
       u=st.fractions(min_value=-1, max_value=1), p=st.sampled_from([128, 296]))
def test_ball_sign_is_the_sign_of_every_real_part(re, im, rad, u, p):
    # a nonzero sign is the exact real part's sign at the midpoint and at
    # the point u rad off it, and a ball whose radius reaches |re| has none
    ball = Ball(re, im, rad, p)
    sign = ball.sign()
    for x in (re, re + u * rad):
        assert sign == 0 or (x > 0) - (x < 0) == sign
    assert (sign == 0) == (rad >= abs(re))


@contextmanager
def iv_precision(bits: int):
    """``mp.iv`` at ``bits`` within the block, as an independent reference:
    the package sets only ``mp.mp.prec``."""
    saved, mp.iv.prec = mp.iv.prec, bits
    try:
        yield
    finally:
        mp.iv.prec = saved


def _iv(x):
    # a Fraction or mpc as an mp.iv interval, rounded outward
    if isinstance(x, mp.mpc):
        return mp.iv.mpc(mp.iv.mpf(x.real), mp.iv.mpf(x.imag))
    return mp.iv.mpf(x.numerator) / x.denominator


@pytest.mark.parametrize("beta_text,n,digits", [
    ("5", 50, 30), ("3", 50, 30), ("4/3", 50, 30), ("4/3", 70, 200)])
def test_ball_disks_are_no_wider_than_interval_disks(beta_text, n, digits):
    # the same Carstensen radius (n + 2) sup|f| / inf|f'| bounded by mp.iv
    # at the ambient precision: a ball radius never exceeds twice it, so the
    # ball certifies at the level mp.iv would.  It is often far tighter (down
    # to about 1/100 at the outlier near 3), where the coefficients' and the
    # centre's rounding dominate mp.iv's bound and the ball carries
    # rootfind.DISK_GUARD_BITS more bits.
    form = sparse_form(BetaParam.parse(beta_text), n)
    rs = solve_all(form, digits)
    bits = rs.precision_used + 32
    with with_precision(bits), iv_precision(bits):
        rho = rootfind._inclusion_disks(form, list(rs.roots))[1][:n]
        civ = [_iv(c) for c in form.coeffs]
        for z, r in zip(rs.roots, rho):
            f, df = (abs(v) for v in eval_sparse(civ, n, _iv(z)))
            assert r <= 2 * mp.make_mpf(((n + 2) * f / df)._mpi_[1])


def test_package_never_uses_mp_iv(monkeypatch, capsys):
    # every enclosure is a numerics.Ball: each command that certifies
    # something (disks on both routes, the sign change, the Rouché count)
    # runs, uncached, with mp.iv's numbers refusing to be made
    def refuse(*args, **kwargs):
        raise AssertionError("mp.iv used")

    eigenvalues.cache_clear()
    monkeypatch.setattr(mp.iv, "mpf", refuse)
    monkeypatch.setattr(mp.iv, "mpc", refuse)
    for argv in (["eigs", "--beta=4/3", "--n", "50"],  # the sparse route
                 ["eigs", "--beta=1/2", "--n", "40"],  # the Aberth route
                 ["outliers", "--beta=4/3", "--n", "100"],
                 ["cluster", "--beta=4/3", "--n", "60"],
                 ["beta1", "--n", "50"]):
        assert run(argv) == 0, argv
    capsys.readouterr()


def test_sparse_route_refuses_a_perturbed_root(monkeypatch, caplog):
    # moved by 10**-25 (1 + |z|), every disk still holds its zero but is
    # far wider than 10**-30 (1 + |z|): no level certifies 30 digits
    form = sparse_form(BetaParam.parse("4/3"), 20)
    ref = solve_all(charpoly_closed_form(form.beta, 20), 30)
    newton = rootfind._newton

    def perturbed(cs, n, t, tol):
        z, steps, settled = newton(cs, n, t, tol)
        if isinstance(z, mp.mpc):
            z += mp.mpf(10) ** -25 * (1 + abs(z))
        return z, steps, settled

    monkeypatch.setattr(rootfind, "_newton", perturbed)
    with caplog.at_level(logging.DEBUG, logger="betaspec"):
        assert _solve_sparse(form, 30) is None
        rs = solve_all(form, 30)
    messages = [r.getMessage() for r in caplog.records]
    fallback = [m for m in messages if "fallback" in m]
    assert len(fallback) == 2 and all("no level certified" in m for m in fallback)
    radii = [mp.mpf(m.split("max_radius=")[1].split()[0])
             for m in messages if m.startswith("solve_all sparse degree=")]
    assert len(radii) == 2 * 4  # 256 -> 2048 bits for 30 digits
    assert all(mp.mpf(10) ** -25 < r < mp.mpf(10) ** -22 for r in radii)
    assert [z._mpc_ for z in rs.roots] == [z._mpc_ for z in ref.roots]


@pytest.mark.parametrize("beta_text,n", [("1/2", 20), ("1/2", 40), ("-1/2", 30), ("9/10", 60)])
def test_aberth_real_roots_print_imaginary_part_zero(beta_text, n):
    # these spectra take the Aberth ladder; a disk there that meets the real
    # axis is moved onto it, so a real eigenvalue prints im 0.0, not noise
    poly = charpoly_closed_form(BetaParam.parse(beta_text), n)
    rs = solve_all(poly, 30)
    _assert_disks(rs)
    rows = json.loads(rs.as_json())["roots"]
    assert not any(0 < abs(float(row["im"])) < 1e-100 for row in rows)
    real = [z for z in rs.roots if z.imag == 0]
    assert real
    for z in real:
        x = fraction_from_mpf(z.real)
        u = Fraction(1, 10 ** 25) * (1 + abs(x))
        assert poly.eval_exact(x - u) * poly.eval_exact(x + u) < 0


@pytest.mark.parametrize("beta_text", ["5", "3", "4/3"])
@pytest.mark.parametrize("n", [50, 51])
def test_real_beta_roots_are_real_or_exact_conjugates(beta_text, n):
    beta = BetaParam.parse(beta_text)
    poly = charpoly_closed_form(beta, n)
    rs = solve_all(sparse_form(beta, n), 30)
    tuples = {z._mpc_ for z in rs.roots}
    real = [z for z in rs.roots if z.imag == 0]
    assert real or n % 2 == 0  # an odd degree has a real zero
    for z in real:
        # p_n changes sign across the printed root: a real zero lies there
        x = fraction_from_mpf(z.real)
        u = Fraction(1, 10 ** 25) * (1 + abs(x))
        assert poly.eval_exact(x - u) * poly.eval_exact(x + u) < 0
    for z in rs.roots:
        if z.imag != 0:
            re, im = z._mpc_
            assert (re, mpf_neg(im)) in tuples
