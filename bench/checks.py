"""Output checks that share no code with betaspec.

Every reference value here comes from the matrix entry formula
``B[s][t] = [s-t==1] + beta**-s - [s==1]`` (1-based), from exact rational
arithmetic, from mpmath at a stated precision, or from LAPACK through numpy.
Nothing in this module imports betaspec.

Each ``check_*`` function takes the parsed inputs of one operation and the
text it wrote, and returns a list of problems; an empty list means the output
passed.  A beta is an exact Gaussian rational ``(re, im)`` of Fractions.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.optimize import linear_sum_assignment

ANNULUS_EPS = 0.05
# LAPACK eigenvalues of these matrices agree with the certified roots to
# about 1e-14 at n <= 200; the bound leaves room for non-normality.
LAPACK_EIG_TOL = 1e-8
LAPACK_SVD_TOL = 1e-10
PERRON_TOL = 1e-9
MAX_REPORTED = 5

# ---------------------------------------------------------------------------
# Exact Gaussian-rational arithmetic
# ---------------------------------------------------------------------------

ONE = (Fraction(1), Fraction(0))


def gq(x) -> tuple:
    """Coerce an int, Fraction or (re, im) pair to an exact (re, im) pair."""
    if isinstance(x, tuple):
        return (Fraction(x[0]), Fraction(x[1]))
    return (Fraction(x), Fraction(0))


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def ginv(a):
    d = a[0] * a[0] + a[1] * a[1]
    return (a[0] / d, -a[1] / d)


def inverse_powers(beta, n: int) -> list:
    """Exact [beta**-1, ..., beta**-n]."""
    r = ginv(beta)
    out, acc = [], ONE
    for _ in range(n):
        acc = gmul(acc, r)
        out.append(acc)
    return out


def entry_u(beta, n: int) -> list:
    """u_s = beta**-s - [s==1], the part of row s that does not depend on t."""
    u = inverse_powers(beta, n)
    u[0] = gsub(u[0], ONE)
    return u


def exact_trace(beta, n: int):
    """Sum of the diagonal entries, straight from the entry formula."""
    total = (Fraction(0), Fraction(0))
    for x in entry_u(beta, n):
        total = gadd(total, x)
    return total


def exact_root_product(beta, n: int):
    """(-1)**n (1 - 1/beta): det(B) up to the sign of the constant term."""
    c = gsub(ONE, ginv(beta))
    return c if n % 2 == 0 else (-c[0], -c[1])


def exact_frobenius2(beta, n: int) -> Fraction:
    """||B||_F**2: each row s holds n copies of u_s plus 1 at column s-1."""
    total = Fraction(n - 1)
    for s, x in enumerate(entry_u(beta, n), start=1):
        total += n * (x[0] * x[0] + x[1] * x[1])
        if s >= 2:
            total += 2 * x[0]
    return total


def exact_charpoly(beta, n: int) -> list:
    """Coefficients of det(tI - B), low to high, derived from the entries.

    With B = S + u e^T (S the lower shift, e all ones), the matrix
    determinant lemma gives det(tI - B) = t^n - sum_{m=1..n} U_m t^(m-1),
    where U_m = u_1 + ... + u_m.
    """
    coeffs = []
    acc = (Fraction(0), Fraction(0))
    for x in entry_u(beta, n):
        acc = gadd(acc, x)
        coeffs.append((-acc[0], -acc[1]))
    coeffs.append(ONE)
    return coeffs


def to_mpc(x) -> mp.mpc:
    return mp.mpc(mp.mpf(x[0].numerator) / x[0].denominator,
                  mp.mpf(x[1].numerator) / x[1].denominator)


def dense_matrix(beta, n: int) -> np.ndarray:
    """B(beta, n) in float64 (complex128 for complex beta) from the entry formula."""
    u = entry_u(beta, n)
    if beta[1] == 0:
        col = np.array([float(x[0]) for x in u])
    else:
        col = np.array([complex(float(x[0]), float(x[1])) for x in u])
    mat = np.repeat(col[:, None], n, axis=1)
    idx = np.arange(1, n)
    mat[idx, idx - 1] += 1
    return mat


# ---------------------------------------------------------------------------
# Certain sign of the characteristic polynomial at a rational point
# ---------------------------------------------------------------------------

def charpoly_sign(beta: Fraction, n: int, t: Fraction) -> int:
    """Sign of det(tI - B) for real beta = p/q > 1 at rational t > 0, by interval arithmetic.

    From the entry formula, with r = 1/beta,
    det(tI - B) = (t^(n+1)-1)/(t-1) - r/(1-r) [(t^n-1)/(t-1) - r((rt)^n-1)/(rt-1)].
    The form is evaluated in mpmath's outward-rounded interval arithmetic,
    doubling the precision until the interval excludes 0, so the sign is
    certain.  t must differ from 1 and beta, where the form has removable
    singularities.
    """
    if beta <= 1 or t <= 0 or t == 1 or t == beta:
        raise ValueError("charpoly_sign needs beta > 1 and t > 0 with t != 1, t != beta")
    prec = 512 + int(n * max(1.0, math.log2(t)))
    iv = mp.iv
    saved = iv.prec
    while prec <= 1 << 20:
        iv.prec = prec
        try:
            tt = iv.mpf(t.numerator) / t.denominator
            r = iv.mpf(beta.denominator) / beta.numerator
            rt = r * tt
            a = (tt ** (n + 1) - 1) / (tt - 1)
            b = (tt ** n - 1) / (tt - 1)
            c = (rt ** n - 1) / (rt - 1)
            value = a - r / (1 - r) * (b - r * c)
        finally:
            iv.prec = saved
        if value.a > 0:
            return 1
        if value.b < 0:
            return -1
        prec *= 2
    raise ArithmeticError(f"could not decide the sign of the polynomial at {t}")


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def _check_precision(digits: int, n: int) -> int:
    return int(digits * 3.33) + 64 + 8 * max(1, n.bit_length())


def _horner_pair(cs, x):
    p = cs[-1]
    dp = mp.mpc(0)
    for c in reversed(cs[:-1]):
        dp = dp * x + p
        p = p * x + c
    return p, dp


def lapack_match_distance(a, b) -> float:
    """Largest pairing distance of the optimal matching between two multisets."""
    av, bv = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    cost = np.abs(av[:, None] - bv[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def check_spectrum(beta, n: int, digits: int, roots_text) -> list:
    """All eigenvalues of B(beta, n), printed to ``digits`` significant digits.

    Checks the count, LAPACK agreement by optimal matching, Vieta's trace and
    determinant against exact values, a Newton step below
    10**-(digits-2) (1+|z|) and below half the distance to the nearest other
    root at every printed root, conjugate closure for real beta, and the
    theoretical annulus counts for real beta.
    """
    beta = gq(beta)
    problems = []
    if len(roots_text) != n:
        return [f"expected {n} roots, got {len(roots_text)}"]
    with mp.workprec(_check_precision(digits, n)):
        z = [mp.mpc(mp.mpf(re), mp.mpf(im)) for re, im in roots_text]
        zf = np.array([complex(x) for x in z])
        tol = mp.mpf(10) ** -(digits - 2)

        lap = np.linalg.eigvals(dense_matrix(beta, n))
        dist = lapack_match_distance(zf, lap)
        if not dist <= LAPACK_EIG_TOL:
            problems.append(f"LAPACK eigvals differ by {dist:.3g} after optimal matching")

        total = mp.fsum(z)
        trace = to_mpc(exact_trace(beta, n))
        if not abs(total - trace) <= tol * mp.fsum(1 + abs(x) for x in z):
            problems.append(f"root sum misses the exact trace by {mp.nstr(abs(total - trace), 3)}")
        prod = mp.fprod(z)
        det = to_mpc(exact_root_product(beta, n))
        if not abs(prod - det) <= n * tol * abs(det):
            problems.append(f"root product misses (-1)^n (1-1/beta) by {mp.nstr(abs(prod - det), 3)}")

        cs = [to_mpc(c) for c in exact_charpoly(beta, n)]
        gaps = np.abs(zf[:, None] - zf[None, :])
        np.fill_diagonal(gaps, np.inf)
        nearest = gaps.min(axis=1)
        bad = []
        for i, x in enumerate(z):
            p, dp = _horner_pair(cs, x)
            step = abs(p / dp) if dp != 0 else mp.inf
            if not (step < tol * (1 + abs(x)) and step < nearest[i] / 2):
                bad.append((i, step))
        if bad:
            i, step = bad[0]
            problems.append(
                f"{len(bad)} root(s) fail the Newton-step test, first #{i}: step "
                f"{mp.nstr(step, 3)}, nearest other root {nearest[i]:.3g}")

        if beta[1] == 0:
            partner = np.abs(zf[:, None] - np.conj(zf)[None, :]).argmin(axis=1)
            unpaired = [i for i, j in enumerate(partner)
                        if not abs(z[j] - mp.conj(z[i])) <= tol * (1 + abs(z[i]))]
            if unpaired:
                problems.append(f"{len(unpaired)} root(s) without a conjugate partner")
            problems += _annulus_counts(beta[0], n, z)
    return problems


def _annulus_counts(b: Fraction, n: int, z) -> list:
    """Two real outliers near b-1 and 1/(b-1) for b in (1, 2) from n = 50 up;
    none off the annulus for b >= 2 from n = 100 up."""
    outside = sorted((x for x in z if abs(abs(x) - 1) > ANNULUS_EPS), key=abs)
    if 1 < b < 2 and n >= 50:
        limits = (float(b - 1), float(1 / (b - 1)))
        ok = len(outside) == 2 and all(
            abs(float(x.imag)) < 1e-10 and abs(float(x.real) - lim) < ANNULUS_EPS * lim
            for x, lim in zip(outside, limits))
        if not ok:
            return [f"expected two real outliers near {limits}, found "
                    f"{[mp.nstr(x, 6) for x in outside][:MAX_REPORTED]}"]
    elif b >= 2 and n >= 100 and outside:
        return [f"{len(outside)} eigenvalue(s) off the {ANNULUS_EPS} annulus"]
    return []


def parse_roots_csv(text: str) -> list:
    """Rows of a ``re,im`` or ``re,im,residual`` CSV as (re, im) strings."""
    lines = text.strip().splitlines()
    if lines[0].split(",")[:2] != ["re", "im"]:
        raise ValueError(f"unexpected header {lines[0]!r}")
    return [tuple(line.split(",")[:2]) for line in lines[1:]]


def parse_roots_json(text: str) -> list:
    payload = json.loads(text)
    return [(r["re"], r["im"]) for r in payload["roots"]]


# ---------------------------------------------------------------------------
# Outliers
# ---------------------------------------------------------------------------

def parse_outliers_csv(text: str) -> dict:
    lines = text.strip().splitlines()
    if lines[0] != "n,large,small,err_large,err_small" or len(lines) != 2:
        raise ValueError("expected the outliers header and one row")
    n, large, small, err_large, err_small = lines[1].split(",")
    return {"n": int(n), "large": large, "small": small,
            "err_large": err_large, "err_small": err_small}


def _resolution(x: Fraction, digits: int) -> Fraction:
    """One unit in the last of ``digits`` significant digits of x (x > 0)."""
    exp = math.floor(math.log10(x))
    if Fraction(10) ** exp > x:
        exp -= 1
    elif Fraction(10) ** (exp + 1) <= x:
        exp += 1
    return Fraction(10) ** (exp - digits + 1)


def check_outliers(beta: Fraction, n: int, digits: int, row: dict) -> list:
    """Both outliers present, each bracketed by an exact sign change.

    The polynomial must change sign between x - u and x + u, where u is one
    unit in the last printed digit, for each printed outlier x: the root lies
    within 10**-(digits-1) x of x.  The printed error to the limit must equal
    |x - limit| up to u; below u the printed x does not determine the error.
    """
    problems = []
    if row["n"] != n:
        problems.append(f"row is for n={row['n']}, expected {n}")
    limits = {"large": 1 / (beta - 1), "small": beta - 1}
    for key, limit in limits.items():
        text = row[key]
        if not text:
            problems.append(f"{key} outlier missing")
            continue
        x = Fraction(text)
        if x <= 0:
            problems.append(f"{key} outlier {text[:20]} is not positive")
            continue
        ulp = _resolution(x, digits)
        if charpoly_sign(beta, n, x - ulp) * charpoly_sign(beta, n, x + ulp) >= 0:
            problems.append(f"no sign change of the polynomial around the {key} outlier {text[:20]}...")
        err = abs(x - limit)
        printed = Fraction(row["err_" + key])
        if not abs(printed - err) <= err / 10 ** 4 + ulp:
            problems.append(f"err_{key} {row['err_' + key]} != |{key} - limit| = {float(err):.6g}")
    return problems


def check_outlier_series(rows: list, digits: int) -> list:
    """Errors to both limits strictly decrease as n grows (rows sorted by n).

    An error at or below the outlier's printed resolution is not determined
    by the output; once there, it must stay there.
    """
    problems = []
    for key in ("large", "small"):
        errs = [(r["n"], Fraction(r["err_" + key]), _resolution(Fraction(r[key]), digits))
                for r in rows if r[key]]
        for (n0, e0, r0), (n1, e1, r1) in zip(errs, errs[1:]):
            if not (e1 < e0 if e0 > r0 else e1 <= r1):
                problems.append(f"err_{key} did not decrease from n={n0} to n={n1}")
    return problems


# ---------------------------------------------------------------------------
# Singular values
# ---------------------------------------------------------------------------

def check_singvals(beta, n: int, digits: int, values_text) -> list:
    """Product, sum of squares, LAPACK agreement and the rank-3 structure."""
    beta = gq(beta)
    if len(values_text) != n:
        return [f"expected {n} singular values, got {len(values_text)}"]
    problems = []
    with mp.workprec(_check_precision(digits, n)):
        sv = [mp.mpf(s) for s in values_text]
        tol = mp.mpf(10) ** -(digits - 2)
        if any(a < b for a, b in zip(sv, sv[1:])):
            problems.append("singular values are not sorted nonincreasing")
        det = abs(to_mpc(gsub(ONE, ginv(beta))))
        prod = mp.fprod(sv)
        if not abs(prod - det) <= n * tol * det:
            problems.append(f"product {mp.nstr(prod, 12)} != |1 - 1/beta| = {mp.nstr(det, 12)}")
        fro = exact_frobenius2(beta, n)
        sumsq = mp.fsum(s * s for s in sv)
        fro_mp = mp.mpf(fro.numerator) / fro.denominator
        if not abs(sumsq - fro_mp) <= tol * fro_mp:
            problems.append(f"sum of squares {mp.nstr(sumsq, 12)} != ||B||_F^2 = {mp.nstr(fro_mp, 12)}")
        off_one = sum(1 for s in sv if abs(s - 1) > tol)
        if off_one > 3:
            problems.append(f"{off_one} singular values differ from 1, at most 3 can")
        svf = np.array([float(s) for s in sv])
    lap = np.linalg.svd(dense_matrix(beta, n), compute_uv=False)
    diff = float(np.max(np.abs(svf - lap)))
    if not diff <= LAPACK_SVD_TOL * max(1.0, float(lap[0])):
        problems.append(f"LAPACK svd differs by {diff:.3g}")
    return problems


def parse_lines(text: str) -> list:
    return text.strip().splitlines()


# ---------------------------------------------------------------------------
# Averaged test-function sums
# ---------------------------------------------------------------------------

def _plateau(r):
    return np.clip(5.0 - r, 0.0, 1.0)


def _bump(z):
    x = (np.abs(z) - 1.0) / 0.5
    return np.where(np.abs(x) < 1.0, (1.0 - x * x) ** 2, 0.0)


def _arc(z):
    theta = np.abs(np.angle(z))
    ang = np.clip((np.pi / 2 + 0.2 - theta) / 0.2, 0.0, 1.0)
    return np.where(z == 0, 0.0, ang * _plateau(np.abs(z)))


TEST_FUNCTIONS = {
    "arc_indicator": _arc,
    "im_moment": lambda z: z.imag * _plateau(np.abs(z)),
    "radial_bump": _bump,
    "re_moment": lambda z: z.real * _plateau(np.abs(z)),
}
# Exact unit-circle averages: the bump is 1 on the circle, the moments
# average to 0, and the arc weight integrates to pi + 2 * (0.2 / 2).
CIRCLE_AVERAGE = {
    "arc_indicator": (math.pi + 0.2) / (2 * math.pi),
    "im_moment": 0.0,
    "radial_bump": 1.0,
    "re_moment": 0.0,
}
WEYL_TOL = 1e-9
QUADRATURE_TOL = 1e-6


def check_weyl(beta, n: int, kinds, text: str) -> list:
    """Empirical means from LAPACK spectra, references from exact averages."""
    beta = gq(beta)
    lines = text.strip().splitlines()
    if lines[0] != "n,f_id,kind,empirical,reference,gap":
        return [f"unexpected header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    expected = [(kind, fid) for kind in kinds for fid in sorted(TEST_FUNCTIONS)]
    if [(r[2], r[1]) for r in rows] != expected:
        return [f"rows {[(r[2], r[1]) for r in rows]} != {expected}"]
    mat = dense_matrix(beta, n)
    values = {"eigen": np.linalg.eigvals(mat),
              "singular": np.linalg.svd(mat, compute_uv=False).astype(complex)}
    problems = []
    for r in rows:
        rn, fid, kind = int(r[0]), r[1], r[2]
        emp, ref, gap = float(r[3]), float(r[4]), float(r[5])
        fn = TEST_FUNCTIONS[fid]
        want_emp = float(np.mean(fn(values[kind])))
        want_ref = CIRCLE_AVERAGE[fid] if kind == "eigen" else float(fn(np.array([1 + 0j]))[0])
        if rn != n:
            problems.append(f"{kind}/{fid}: n={rn}, expected {n}")
        if not abs(emp - want_emp) <= WEYL_TOL:
            problems.append(f"{kind}/{fid}: empirical {emp!r} != {want_emp!r}")
        if not abs(ref - want_ref) <= QUADRATURE_TOL:
            problems.append(f"{kind}/{fid}: reference {ref!r} != {want_ref!r}")
        if not abs(gap - abs(emp - ref)) <= 1e-15 * max(1.0, abs(gap)):
            problems.append(f"{kind}/{fid}: gap {gap!r} != |empirical - reference|")
    return problems


# ---------------------------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------------------------

def check_charpoly_exact(beta: Fraction, n: int, coeff_texts) -> list:
    """Every printed coefficient equals the exact one, as a rational."""
    want = [c[0] for c in exact_charpoly(gq(beta), n)]
    if len(coeff_texts) != n + 1:
        return [f"expected {n + 1} coefficients, got {len(coeff_texts)}"]
    wrong = [k for k, (t, w) in enumerate(zip(coeff_texts, want)) if Fraction(t) != w]
    return [f"{len(wrong)} coefficient(s) differ, first k={wrong[0]}"] if wrong else []


def parse_charpoly_csv(text: str) -> list:
    lines = text.strip().splitlines()
    if lines[0] != "k,coefficient":
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if [int(k) for k, _ in rows] != list(range(len(rows))):
        raise ValueError("coefficient indices are not 0..n")
    return [c for _, c in rows]


def check_charpoly_json(beta: Fraction, n: int, text: str) -> list:
    payload = json.loads(text)
    problems = []
    if payload.get("degree") != n or payload.get("exact") is not True:
        problems.append(f"degree/exact fields wrong: {payload.get('degree')}, {payload.get('exact')}")
    if Fraction(payload.get("beta")) != beta:
        problems.append(f"beta field {payload.get('beta')!r} != {beta}")
    return problems + check_charpoly_exact(beta, n, payload["coeffs"])


# ---------------------------------------------------------------------------
# beta = 1
# ---------------------------------------------------------------------------

def positive_block(n: int) -> list:
    """Rows and columns 2..n of B(1, n): [s-t==1] + 1, as integers."""
    return [[1 + (1 if s - t == 1 else 0) for t in range(2, n + 1)]
            for s in range(2, n + 1)]


def power_first_components(n: int, k_max: int) -> list:
    """First components of X^k e for k = 0..k_max, by dense integer products."""
    x = positive_block(n)
    v = [1] * (n - 1)
    firsts = [v[0]]
    for _ in range(k_max):
        v = [sum(a * b for a, b in zip(row, v)) for row in x]
        firsts.append(v[0])
    return firsts


def perron_root(n: int) -> float:
    return float(np.max(np.linalg.eigvals(np.array(positive_block(n), dtype=float)).real))


def check_beta1_table(ns, text: str) -> list:
    """Rows n,c0_est,c1_est: lambda = n + c0 below n, equal to LAPACK's Perron root."""
    lines = text.strip().splitlines()
    if lines[0] != "n,c0_est,c1_est":
        return [f"unexpected header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(ns):
        return [f"orders {[r[0] for r in rows]} != {list(ns)}"]
    problems = []
    for r in rows:
        n, c0, c1 = int(r[0]), Fraction(r[1]), Fraction(r[2])
        lam = n + c0
        if not lam < n:
            problems.append(f"n={n}: lambda_max {float(lam)} is not below n")
        perron = perron_root(n)
        if not abs(float(lam) - perron) <= PERRON_TOL * n:
            problems.append(f"n={n}: lambda_max {float(lam)!r} != LAPACK Perron root {perron!r}")
        if not abs(c1 - n * c0) <= Fraction(1, 10 ** 8) * abs(c1):
            problems.append(f"n={n}: c1_est {r[2]} != n * c0_est")
        if not abs(c1 + 1) < Fraction(2, n):
            problems.append(f"n={n}: |c1_est + 1| = {float(abs(c1 + 1)):.3g} is not below 2/n")
    return problems


def check_table1(ns, k_max: int, text: str) -> list:
    """First components of the exact power iterates, recomputed densely."""
    lines = text.strip().splitlines()
    if lines[0] != "n,k,first_component,reference,match":
        return [f"unexpected header {lines[0]!r}"]
    firsts = {n: power_first_components(n, k_max) for n in ns}
    want = [(n, k, firsts[n][k]) for n in ns for k in range(1, k_max + 1)]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(want):
        return [f"expected {len(want)} rows, got {len(rows)}"]
    problems = []
    for r, (n, k, v) in zip(rows, want):
        if (int(r[0]), int(r[1])) != (n, k):
            problems.append(f"row {r[:2]} != {(n, k)}")
        elif int(r[2]) != v or int(r[3]) != v or r[4] != "True":
            problems.append(f"n={n}, k={k}: {r[2:]} != first component {v}")
    return problems
