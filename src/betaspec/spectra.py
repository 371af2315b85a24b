"""Spectral analytics: clustering, outliers, singular values, distribution sums.

For real beta > 1 the eigenvalues of the family accumulate on the unit
circle.  For beta >= 2 no eigenvalue stays away from the circle as the order
grows; for beta in (1, 2) exactly two real positive outliers persist, with
limits beta - 1 (inside) and 1/(beta - 1) (outside).  This module measures
all of that on computed spectra: annulus partition counts, outlier tracking
with errors to the limits, singular values from the low-rank structure of
the Gram matrix B*B, averaged test-function sums against the exact circle
mean (eigenvalues) or the constant 1 (singular values), the quasi-normality gap,
and the spectral-norm conditioning bound.

Pairing convention: the quasi-normality gap compares the full sorted lists
of singular values and eigenvalue moduli index by index over 1..n; that
paired-lists form is the concrete realization of comparing the two value
sets as distributions.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import mpmath as mp

from .errors import (
    ConvergenceFailureError,
    InvalidOrderError,
    InvalidParameterError,
    RefinementFailureError,
    SingularityError,
    UnknownTestFunctionError,
)
# charpoly_closed_form is not called here; bench/spans.py wraps it by this name
from .charpoly import charpoly_closed_form, sparse_form
from .matrices import REAL_GT1, BetaParam
from .numerics import (
    QComplex,
    decimal_str,
    mpc_from,
    mpf_from,
    with_precision,
)
from .rootfind import RootSet, ladder_level, log, refine_real_root_reported, solve_all

DEFAULT_EIG_DIGITS = 30
OUTLIER_ANNULUS_EPS = 0.05
CONDITION_BOUND_TOL = 0.02


@lru_cache(maxsize=128)
def eigenvalues(beta: BetaParam, n: int, target_digits: int = DEFAULT_EIG_DIGITS) -> RootSet:
    """All eigenvalues of the order-n member as certified polynomial roots.

    Solved from p_n's five-term :func:`~betaspec.charpoly.sparse_form`.
    Results are cached per (beta, n, target_digits); RootSet is immutable, so
    sharing the cached object is safe.
    """
    return solve_all(sparse_form(beta, n), target_digits)


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterReport:
    """Annulus partition of a spectrum around the unit circle."""

    epsilon: float
    inside_count: int
    outside_count: int
    outside_points: tuple
    n: int
    beta: BetaParam | None

    def as_json(self, digits: int = 20) -> str:
        return json.dumps({
            "n": self.n,
            "beta": str(self.beta) if self.beta is not None else None,
            "epsilon": self.epsilon,
            "inside_count": self.inside_count,
            "outside_count": self.outside_count,
            "outside_points": [
                {"re": decimal_str(z.real, digits), "im": decimal_str(z.imag, digits)}
                for z in self.outside_points
            ],
        })


def cluster_count(roots: RootSet, epsilon: float) -> ClusterReport:
    """Exact partition of the roots by the annulus test | |z| - 1 | <= eps."""
    if epsilon <= 0:
        raise InvalidParameterError("epsilon must be positive")
    with with_precision(roots.precision_used):
        eps = mpf_from(epsilon)
        outside = tuple(z for z in roots.roots if abs(abs(z) - 1) > eps)
    return ClusterReport(
        epsilon=epsilon,
        inside_count=roots.degree - len(outside),
        outside_count=len(outside),
        outside_points=outside,
        n=roots.degree,
        beta=roots.beta,
    )


# ---------------------------------------------------------------------------
# Outlier tracking (beta in (1, 2))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutlierRecord:
    """The two real positive off-annulus eigenvalues and their limit errors.

    ``small`` tends to beta - 1 from the interior analysis, ``large`` to
    1/(beta - 1) from the reversed-polynomial analysis.  Either may be absent
    (None) with a ``diagnostic`` when the order is too small for the outliers
    to have separated from the circle cluster.  ``count_verified`` records
    whether Rouché's theorem proved that exactly two eigenvalues lie off the
    annulus, one on each side.
    """

    n: int
    beta: BetaParam
    annulus_eps: float
    small: mp.mpf | None
    large: mp.mpf | None
    err_small: mp.mpf | None
    err_large: mp.mpf | None
    target_digits: int
    count_verified: bool
    diagnostic: str | None = None
    precision_used: int | None = None


def find_outliers(beta: BetaParam, n: int, target_digits: int,
                  annulus_eps: float = OUTLIER_ANNULUS_EPS) -> OutlierRecord:
    """Locate and refine the two outliers for beta in (1, 2).

    Newton refinement is seeded at the limits beta - 1 and 1/(beta - 1).
    ``count_verified`` is true when Rouché's theorem on the five-term form
    (:meth:`~betaspec.charpoly.SparseForm.zeros_inside`) proves that exactly
    one eigenvalue lies inside |t| < 1 - eps and one beyond |t| > 1 + eps.
    Otherwise the diagnostic gives the proved counts off the annulus, or
    the circle on which neither term of the form dominates, as happens
    below the clustering onset.
    """
    beta.require_class([REAL_GT1], "outlier tracking")
    b = beta.real_value
    if not (1 < b < 2):
        raise InvalidParameterError(
            f"outlier tracking requires beta in (1, 2), got {b}")
    if n < 2:
        raise InvalidOrderError("outlier tracking requires n >= 2")
    if annulus_eps <= 0:
        raise InvalidParameterError("epsilon must be positive")

    form = sparse_form(beta, n)
    small_limit = b - 1
    large_limit = 1 / small_limit

    e = Fraction(annulus_eps)  # the binary value mpf_from(annulus_eps) gives
    inside = form.zeros_inside(1 - e) if e < 1 else 0
    beyond = form.zeros_inside(1 + e)
    beyond = None if beyond is None else n - beyond
    count_verified = (inside, beyond) == (1, 1)
    diagnostics = []
    if inside is None or beyond is None:
        circles = " and ".join(f"|t| = 1 {sign} eps" for sign, c in
                               (("-", inside), ("+", beyond)) if c is None)
        diagnostics.append(
            f"outlier count not proved at eps={annulus_eps} for n={n}: neither "
            f"term of a + t^n b dominates on {circles}, as below the clustering onset")
    elif not count_verified:
        diagnostics.append(
            f"proved {inside} eigenvalue(s) inside |t| = 1 - eps and {beyond} beyond "
            f"|t| = 1 + eps at eps={annulus_eps} for n={n}, not one each")

    def _try(seed, offset):
        try:
            x, prec = refine_real_root_reported(form, seed, target_digits)
        except RefinementFailureError:
            return None, None, None
        with with_precision(prec + 32):
            if x <= 0 or abs(abs(x) - 1) <= mpf_from(annulus_eps):
                return None, None, None
            return x, abs(offset(x)), prec

    small, err_small, prec_s = _try(small_limit, form.offset_small)
    large, err_large, prec_l = _try(large_limit, form.offset_large)
    precs = [p for p in (prec_s, prec_l) if p is not None]
    if small is None or large is None:
        missing = [name for name, v in (("small", small), ("large", large)) if v is None]
        diagnostics.append(f"outlier(s) {', '.join(missing)} not separated from the "
                           f"annulus at eps={annulus_eps} for n={n}")
    return OutlierRecord(
        n=n, beta=beta, annulus_eps=annulus_eps,
        small=small, large=large,
        err_small=err_small, err_large=err_large,
        target_digits=target_digits,
        count_verified=count_verified,
        diagnostic="; ".join(diagnostics) or None,
        precision_used=max(precs) if precs else None,
    )


# ---------------------------------------------------------------------------
# Singular values
# ---------------------------------------------------------------------------

def _geometric(z, m: int):
    """Exact z + z**2 + ... + z**m from one power of z."""
    d = 1 - z
    return z * (1 - z ** m) / d if d else m


def _singvals_bits(target_digits: int) -> int:
    """The working precision of :func:`singular_values` at ``target_digits``."""
    level = ladder_level((target_digits + 2) * math.log2(10))
    if level is None:
        raise ConvergenceFailureError(f"{target_digits}-digit singular values need "
                                      "more bits than the precision ladder's top")
    return level + 32


def singular_values(beta: BetaParam, n: int, target_digits: int = DEFAULT_EIG_DIGITS) -> list:
    """Singular values of the order-n member, sorted nonincreasing, each to
    ``target_digits`` significant digits: to L + 32 bits, for the ladder level
    L of (target_digits + 2) log2 10 bits (:func:`~betaspec.rootfind.ladder_level`).
    A target past the ladder's top raises :class:`ConvergenceFailureError`.

    With x = 1/beta, u_j = x^j - [j = 1] and w = (u_2, ..., u_n, 0),
    B*B = I - e_n e_n^T + w e^T + e w* + |u|^2 e e^T is the identity outside
    span{e_n, e - e_n, w}, and on an orthonormal basis of that span it is a
    Hermitian block H of size k <= 3 with exact geometric-sum entries (k < 3
    only at n <= 2 and at beta = 1).  The least eigenvalue of H is at least
    det / trace^(k-1), with det H = |1 - x|^2 and trace H exact, so by Weyl's
    bound :func:`mpmath.eighe` needs log2(trace^k / det) bits above those.
    At beta = 1 (det = 0) the eigenvalues of H are exactly trace and 0.
    """
    if n < 1:
        raise InvalidOrderError(f"order must be >= 1, got {n}")
    bits = _singvals_bits(target_digits)
    started = time.perf_counter()
    x = QComplex(Fraction(1)) / beta.value
    r2 = x.abs2()
    sw = x * _geometric(x, n - 1)
    ww = r2 * _geometric(r2, n - 1)
    c = (x - 1).abs2() + ww
    alpha = sw / (n - 1) if n > 1 else sw  # w's coefficient on f; sw = 0 at n = 1
    rho2 = ww - (n - 1) * alpha.abs2()
    k = min(n, 2) + (rho2 != 0)
    trace = 2 + 2 * sw.re + n * c - (3 - k)
    det = (1 - x).abs2()
    extra = int(trace ** k / det).bit_length() + 32 if det else 0
    with with_precision(bits + extra):
        if det:
            s, rho = mp.sqrt(n - 1), mp.sqrt(mpf_from(rho2))
            h12 = s * mpc_from(alpha.conjugate() + c)
            block = [[mpf_from(c), h12, rho],
                     [mp.conj(h12), mpf_from(1 + (n - 1) * (2 * alpha.re + c)), s * rho],
                     [rho, s * rho, mp.mpf(1)]]
            evs = mp.eighe(mp.matrix([row[:k] for row in block[:k]]), eigvals_only=True)
        else:
            evs = [mpf_from(trace), mp.mpf(0)][:k]
    with with_precision(bits):
        sv = [mp.sqrt(max(ev, 0)) for ev in evs]
    log.debug("singvals n=%d rank=%d bits=%d extra_bits=%d seconds=%.6f",
              n, k, bits, extra, time.perf_counter() - started)
    return sorted(sv + [mp.mpf(1)] * (n - k), reverse=True)


# ---------------------------------------------------------------------------
# Distribution sums in the averaged (test-function) sense
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Continuous compactly supported test function for distribution sums,
    with its exact unit-circle mean (1/2pi) * integral of F(e^{i theta})."""

    __test__ = False  # not a pytest collectible despite the name

    fid: str
    fn: Callable[[complex], float]
    description: str
    mean: float


def _radial_bump(z: complex) -> float:
    r = abs(z)
    x = (r - 1.0) / 0.5
    if abs(x) >= 1.0:
        return 0.0
    return (1.0 - x * x) ** 2


def _radial_plateau(r: float) -> float:
    if r <= 4.0:
        return 1.0
    if r >= 5.0:
        return 0.0
    return 5.0 - r


def _arc_indicator(z: complex) -> float:
    import numpy as np
    if z == 0:
        return 0.0
    theta = abs(np.angle(z))
    if theta <= np.pi / 2:
        ang = 1.0
    elif theta >= np.pi / 2 + 0.2:
        ang = 0.0
    else:
        ang = (np.pi / 2 + 0.2 - theta) / 0.2
    return ang * _radial_plateau(abs(z))


def _re_moment(z: complex) -> float:
    return z.real * _radial_plateau(abs(z))


def _im_moment(z: complex) -> float:
    return z.imag * _radial_plateau(abs(z))


# Means: the bump is 1 on the circle, the arc weight integrates to
# pi + 2 * (0.2 / 2), and the moments of cos and sin vanish.
BUILTIN_TEST_FUNCTIONS = {
    "radial_bump": TestFunction(
        "radial_bump", _radial_bump,
        "C^1 bump in |z| centered on the unit circle, width 1/2", 1.0),
    "arc_indicator": TestFunction(
        "arc_indicator", _arc_indicator,
        "smoothed indicator of the arc |arg z| <= pi/2 with radial plateau",
        (math.pi + 0.2) / (2 * math.pi)),
    "re_moment": TestFunction(
        "re_moment", _re_moment,
        "Re(z) truncated by a radial plateau (1 up to |z|=4, 0 beyond 5)", 0.0),
    "im_moment": TestFunction(
        "im_moment", _im_moment,
        "Im(z) truncated by a radial plateau (1 up to |z|=4, 0 beyond 5)", 0.0),
}


@dataclass(frozen=True)
class WeylReport:
    """Averaged test-function sum against its distribution reference."""

    fid: str
    kind: str
    n: int
    empirical_mean: float
    reference: float
    gap: float

    def as_json(self) -> str:
        return json.dumps({
            "f_id": self.fid, "kind": self.kind, "n": self.n,
            "empirical": repr(self.empirical_mean),
            "reference": repr(self.reference), "gap": repr(self.gap),
        })


def _resolve_test_function(fn) -> TestFunction:
    if isinstance(fn, TestFunction):
        return fn
    if isinstance(fn, str):
        try:
            return BUILTIN_TEST_FUNCTIONS[fn]
        except KeyError:
            raise UnknownTestFunctionError(
                f"unknown test function {fn!r}; built-ins: "
                f"{sorted(BUILTIN_TEST_FUNCTIONS)}") from None
    raise UnknownTestFunctionError(f"cannot resolve test function from {fn!r}")


def weyl_sum(values: Sequence, fn, kind: str) -> WeylReport:
    """Averaged F over a spectrum against the distribution reference.

    ``kind='eigen'`` compares (1/n) sum F(lambda_i) to the unit-circle
    mean of F (``TestFunction.mean``); ``kind='singular'`` compares
    (1/n) sum F(sigma_i) to F(1).
    """
    import numpy as np
    if kind not in ("eigen", "singular"):
        raise InvalidParameterError(f"kind must be 'eigen' or 'singular', got {kind!r}")
    if len(values) == 0:
        raise InvalidParameterError("values must be nonempty")
    f = _resolve_test_function(fn)
    pts = [complex(v) for v in values]
    empirical = float(np.mean([f.fn(z) for z in pts]))
    reference = f.mean if kind == "eigen" else float(f.fn(complex(1.0)))
    return WeylReport(fid=f.fid, kind=kind, n=len(values),
                      empirical_mean=empirical, reference=reference,
                      gap=abs(empirical - reference))


def quasi_normality_gap(beta: BetaParam, n: int) -> mp.mpf:
    """Mean index-paired gap between sorted singular values and |eigenvalues|.

    (1/n) * sum_i |sigma_i - |lambda_i|| with both lists sorted nonincreasing,
    both to ``DEFAULT_EIG_DIGITS`` digits, summed at the singular values'
    working precision.  Tends to 0 for |beta| >= 1 as the order grows
    (asymptotic normality of the sequence even though every single matrix is
    non-normal).
    """
    if beta.abs2() < 1:
        raise InvalidParameterError("quasi-normality gap requires |beta| >= 1")
    sv = singular_values(beta, n)
    lam = eigenvalues(beta, n)
    with with_precision(_singvals_bits(DEFAULT_EIG_DIGITS)):
        moduli = sorted((abs(z) for z in lam.roots), reverse=True)
        total = mp.fsum(abs(sv[i] - moduli[i]) for i in range(n))
        return total / n


@dataclass(frozen=True)
class ConditionReport:
    kappa: mp.mpf
    bound: mp.mpf
    satisfied: bool


def condition_bound_check(beta: BetaParam, n: int) -> ConditionReport:
    """Spectral-norm conditioning against the [max(beta-1, 1/(beta-1))]^2 bound.

    kappa = sigma_max / sigma_min from singular values to ``DEFAULT_EIG_DIGITS``
    digits, divided at their working precision; satisfied when
    kappa >= (1 - ``CONDITION_BOUND_TOL``) * bound.
    """
    beta.require_class([REAL_GT1], "conditioning bound")
    sv = singular_values(beta, n)
    with with_precision(_singvals_bits(DEFAULT_EIG_DIGITS)):
        smin = sv[-1]
        if smin == 0:
            raise SingularityError(
                "sigma_min = 0: the matrix is provably invertible, so this "
                "signals a computation failure")
        kappa = sv[0] / smin
        b = beta.real_value
        growth = max(b - 1, Fraction(1) / (b - 1))
        bound = mpf_from(growth * growth)
        tol = mpf_from(CONDITION_BOUND_TOL)
        return ConditionReport(kappa=kappa, bound=bound,
                               satisfied=bool(kappa >= (1 - tol) * bound))


# ---------------------------------------------------------------------------
# Tabular exports
# ---------------------------------------------------------------------------

def cluster_csv(reports: Sequence[ClusterReport]) -> str:
    lines = ["n,beta,epsilon,inside_count,outside_count"]
    for r in reports:
        lines.append(f"{r.n},{r.beta},{r.epsilon},{r.inside_count},{r.outside_count}")
    return "\n".join(lines) + "\n"


def outlier_csv(records: Sequence[OutlierRecord]) -> str:
    lines = ["n,large,small,err_large,err_small"]
    for r in records:
        fmt = lambda x: decimal_str(x, r.target_digits) if x is not None else ""
        lines.append(f"{r.n},{fmt(r.large)},{fmt(r.small)},"
                     f"{fmt(r.err_large)},{fmt(r.err_small)}")
    return "\n".join(lines) + "\n"


def weyl_csv(reports: Sequence[WeylReport]) -> str:
    lines = ["n,f_id,kind,empirical,reference,gap"]
    for r in reports:
        lines.append(f"{r.n},{r.fid},{r.kind},{r.empirical_mean!r},"
                     f"{r.reference!r},{r.gap!r}")
    return "\n".join(lines) + "\n"
