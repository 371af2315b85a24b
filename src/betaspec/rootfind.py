"""Simultaneous polynomial root finding at arbitrary precision.

This is the eigenvalue engine: the spectra of the matrix family are computed
as roots of the closed-form characteristic polynomials.  The solver runs
Ehrlich-Aberth simultaneous iteration (no deflation, so the unit-circle
cluster stays coupled) over a doubling precision ladder
256 -> 512 -> 1024 -> 2048 bits, accepting only when two successive levels
agree on every root to the requested digit count and every residual passes
its certificate threshold.

Initial guesses are degree-many points on the Cauchy-bound circle
``1 + max|c_k| / |c_d|`` with a fixed irrational angular offset; the first
sweeps run in guarded IEEE float64 (pennies compared to an mp sweep), after
which the multiprecision ladder takes over.  Identical inputs give identical
digit strings: everything is sequential and deterministic.

Single real roots (the outliers) are refined by Newton iteration on the
five-term sparse form of p_n instead, each certified by a sign change in
interval arithmetic (:func:`refine_real_root_reported`).
"""
from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import fone, mpc_add, mpc_mpf_div, mpc_sub
from scipy.optimize import linear_sum_assignment

from .errors import (
    ConvergenceFailureError,
    InvalidParameterError,
    RefinementFailureError,
)
from .charpoly import PrecPoly, SparseForm, eval_sparse
from .matrices import BetaParam
from .numerics import QComplex, decimal_str, mpc_from, mpf_from, polyval, with_precision

log = logging.getLogger("betaspec")

PRECISION_LADDER = (256, 512, 1024, 2048)
MAX_SWEEPS_PER_LEVEL = 500
MAX_NEWTON_STEPS_PER_LEVEL = 200
FLOAT_WARMUP_SWEEPS = 300
FLOAT_WARMUP_TOL = 1e-12


@dataclass(frozen=True)
class RootSet:
    """All roots of one polynomial with residual certificates.

    ``roots`` are mpc values sorted by principal argument (ties by modulus),
    with an imaginary snap of 10**(-target_digits/2) deciding when a root
    counts as real for the ordering.  ``residuals[k]`` is
    |p(root_k)| / |leading coefficient|; it is certified to stay below
    ``thresholds[k] = 10**-target_digits * (1 + |root_k|)**degree * C`` where
    C is the coefficient scale max(1, max|c_k|/|c_d|).
    """

    roots: tuple
    residuals: tuple
    thresholds: tuple
    precision_used: int
    iterations: int
    target_digits: int
    beta: BetaParam | None = None
    n: int | None = None

    @property
    def degree(self) -> int:
        return len(self.roots)

    def as_json(self, digits: int | None = None) -> str:
        d = digits if digits is not None else self.target_digits
        payload = {
            "beta": str(self.beta) if self.beta is not None else None,
            "n": self.n if self.n is not None else self.degree,
            "precision_bits": self.precision_used,
            "roots": [
                {
                    "re": decimal_str(z.real, d),
                    "im": decimal_str(z.imag, d),
                    "residual": decimal_str(r, 3),
                }
                for z, r in zip(self.roots, self.residuals)
            ],
        }
        return json.dumps(payload)


def _sort_key(z, im_snap):
    im = z.imag
    if abs(im) <= im_snap * (1 + abs(z)):
        arg = mp.mpf(0) if z.real >= 0 else +mp.pi
    else:
        arg = mp.atan2(im, z.real)
    return (arg, abs(z))


def _circle_guesses(cs, d):
    cmax = max(abs(c) for c in cs[:-1])
    radius = 1 + cmax / abs(cs[-1])
    offset = mp.sqrt(2)
    return [radius * mp.expjpi(2 * mp.mpf(j) / d + offset / mp.pi)
            for j in range(d)]


def _float_warm_start(coeffs) -> list | None:
    """Guarded float64 Aberth from the circle guesses; None if unusable."""
    try:
        c = np.array([_as_complex(x) for x in coeffs], dtype=np.complex128)
    except (OverflowError, TypeError, ValueError):
        return None
    if not np.all(np.isfinite(c)):
        return None
    d = len(c) - 1
    if d < 2:
        return None
    crev = c[::-1]
    dcrev = (c[1:] * np.arange(1, d + 1))[::-1]
    radius = 1.0 + np.max(np.abs(c[:-1])) / abs(c[-1])
    if not np.isfinite(radius) or radius > 1e100:
        return None
    ang = 2 * np.pi * np.arange(d) / d + np.sqrt(2.0)
    z = radius * np.exp(1j * ang)
    cap = 8.0 * radius
    for _ in range(FLOAT_WARMUP_SWEEPS):
        with np.errstate(all="ignore"):
            p = np.polyval(crev, z)
            dp = np.polyval(dcrev, z)
            w = p / dp
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            s = (1.0 / diff).sum(axis=1)
            delta = w / (1.0 - w * s)
            bad = ~np.isfinite(delta)
            delta = np.where(bad, 0.0, delta)
            znew = z - delta
            r = np.abs(znew)
            znew = np.where(r > cap, znew / np.where(r == 0, 1, r) * cap, znew)
            znew = np.where(np.isfinite(znew), znew, z)
            rel = np.abs(delta) / (1.0 + np.abs(znew))
            z = znew
            if not bad.any() and np.max(rel) < FLOAT_WARMUP_TOL:
                break
    if not np.all(np.isfinite(z)):
        return None
    # Aberth needs pairwise-distinct iterates; nudge any collisions
    order = np.lexsort((z.imag, z.real))
    zs = z[order]
    coll = np.abs(np.diff(zs)) < 1e-14 * (1.0 + np.abs(zs[:-1]))
    if coll.any():
        for idx in np.nonzero(coll)[0]:
            zs[idx + 1] = zs[idx + 1] * (1.0 + 1e-10) + 1e-12j
        z = zs
    return list(z)


def _aberth_level(hi, dhi, z, prec, max_sweeps=MAX_SWEEPS_PER_LEVEL):
    """Gauss-Seidel Ehrlich-Aberth sweeps at one precision level.

    ``hi`` and ``dhi`` are the coefficients of p and p' from the highest
    degree down, as :func:`polyval` takes them.  Returns (roots, sweeps,
    converged).  A root freezes once its relative correction drops below
    2**-(prec - 32); frozen roots still contribute to the repulsion
    sums of the active ones.  The O(d) repulsion sum runs on the raw libmp
    tuples of the iterates, with the operations ``s += 1 / (x - z_k)`` makes.
    """
    d = len(hi) - 1
    wprec, rnd = mp.mp._prec_rounding
    conv_tol = mp.mpf(2) ** (-(prec - 32))
    tie = mp.mpc(conv_tol, conv_tol)._mpc_
    zero = mp.mpc(0)._mpc_
    zt = [x._mpc_ for x in z]
    converged = [False] * d
    sweeps = 0
    for sweep in range(max_sweeps):
        sweeps = sweep + 1
        active = 0
        for j in range(d):
            if converged[j]:
                continue
            active += 1
            xt = zt[j]
            x = mp.make_mpc(xt)
            p = polyval(hi, x)
            dp = polyval(dhi, x)
            if p == 0:
                converged[j] = True
                continue
            w = p / dp if dp != 0 else mp.mpc(1) / d
            s = zero
            for k in range(d):
                if k == j:
                    continue
                dz = mpc_sub(xt, zt[k], wprec, rnd)
                if dz == zero:
                    dz = tie
                s = mpc_add(s, mpc_mpf_div(fone, dz, wprec, rnd), wprec, rnd)
            denom = 1 - w * mp.make_mpc(s)
            delta = w / denom if denom != 0 else w
            znew = x - delta
            zt[j] = znew._mpc_
            if abs(delta) <= conv_tol * (1 + abs(znew)):
                converged[j] = True
        if active == 0:
            return [mp.make_mpc(t) for t in zt], sweeps, True
    return [mp.make_mpc(t) for t in zt], sweeps, all(converged)


def _certificates(poly, roots, prec, target_digits):
    """Residuals |p(z)|/|c_d| and their certificate thresholds at prec."""
    with with_precision(prec):
        cs = [mpc_from(c) for c in poly.coeffs]
        hi = cs[::-1]
        lead = abs(cs[-1])
        cscale = max(mp.mpf(1), max(abs(c) for c in cs[:-1]) / lead)
        tol = mp.mpf(10) ** (-target_digits)
        d = poly.degree
        residuals = []
        thresholds = []
        for z in roots:
            residuals.append(abs(polyval(hi, z)) / lead)
            thresholds.append(tol * (1 + abs(z)) ** d * cscale)
        return residuals, thresholds


def solve_all(poly: PrecPoly, target_digits: int) -> RootSet:
    """Find all roots of ``poly`` certified to ``target_digits`` digits.

    Precision escalates through the ladder until two successive levels agree
    on every root to the digit target and the residual certificates hold;
    otherwise raises :class:`ConvergenceFailureError` carrying the best
    iterate.
    """
    if target_digits < 1:
        raise InvalidParameterError("target_digits must be >= 1")
    d = poly.degree
    if d < 1:
        raise InvalidParameterError("polynomial degree must be >= 1")
    beta = poly.beta
    if d == 1:
        prec = PRECISION_LADDER[0]
        with with_precision(prec):
            root = -mpc_from(poly.coeffs[0]) / mpc_from(poly.coeffs[1])
            residuals, thresholds = _certificates(poly, [root], prec, target_digits)
            return RootSet(roots=(root,), residuals=tuple(residuals),
                           thresholds=tuple(thresholds), precision_used=prec,
                           iterations=1, target_digits=target_digits,
                           beta=beta, n=d)

    seeds = _float_warm_start(poly.coeffs)
    prev_roots = None
    prev_ok = False
    total_sweeps = 0
    best = None
    for prec in PRECISION_LADDER:
        started = time.perf_counter()
        with with_precision(prec + 32):
            cs = poly.coeffs_mp(real=False)
            hi = cs[::-1]
            dhi = [cs[k] * k for k in range(d, 0, -1)]
            if prev_roots is not None:
                z = [mp.mpc(r) for r in prev_roots]
            elif seeds is not None:
                z = [mp.mpc(s) for s in seeds]
            else:
                z = _circle_guesses(cs, d)
            z, sweeps, ok = _aberth_level(hi, dhi, z, prec)
        log.debug("solve_all degree=%d level: bits=%d sweeps=%d converged=%s "
                  "seconds=%.6f", d, prec, sweeps, ok, time.perf_counter() - started)
        total_sweeps += sweeps
        best = z
        if ok and prev_ok:
            with with_precision(prec + 32):
                agree_tol = mp.mpf(10) ** (-target_digits)
                agreed = all(
                    abs(z[j] - prev_roots[j]) <= agree_tol * (1 + abs(z[j]))
                    for j in range(d)
                )
                if agreed:
                    residuals, thresholds = _certificates(poly, z, prec, target_digits)
                    if all(r <= t for r, t in zip(residuals, thresholds)):
                        im_snap = mp.mpf(10) ** (-(target_digits / 2))
                        order = sorted(range(d),
                                       key=lambda j: _sort_key(z[j], im_snap))
                        return RootSet(
                            roots=tuple(z[j] for j in order),
                            residuals=tuple(residuals[j] for j in order),
                            thresholds=tuple(thresholds[j] for j in order),
                            precision_used=prec,
                            iterations=total_sweeps,
                            target_digits=target_digits,
                            beta=beta,
                            n=d,
                        )
        prev_roots = z
        prev_ok = ok
    raise ConvergenceFailureError(
        f"root iteration did not certify {target_digits} digits within the "
        f"precision ladder {PRECISION_LADDER}", best=best)


def _as_complex(c):
    if isinstance(c, QComplex):
        return complex(float(c.re), float(c.im))
    if isinstance(c, Fraction):
        return complex(float(c))
    return complex(c)


REFINE_LADDER = (256, 512, 1024, 2048, 4096, 8192)


def refine_real_root_reported(form: SparseForm, seed,
                              target_digits: int) -> tuple[mp.mpf, int]:
    """Polish one real zero of p_n by Newton iteration at escalating precision.

    Newton runs on the five-term form f = (1 - t)(1 - x t) p_n of
    :func:`~betaspec.charpoly.sparse_form`, with the spurious zeros t = 1 and
    t = beta divided out of the step, so it is Newton on p_n itself at
    O(log n) operations per step.  A level is accepted once Newton has
    settled and f changes sign across [root - u, root + u], with
    u = 10**-(target_digits + 2) |root| / n, in outward-rounded interval
    arithmetic: that bracket holds a zero of p_n, narrow enough to fix the
    printed root and its offsets to the limits.  Returns ``(root, bits)``,
    the mpf iterate and the level that certified it.

    A seed outside the basin raises :class:`RefinementFailureError` at the
    first level where Newton does not settle (or where the step meets t = 1,
    t = beta or a vanishing derivative); a root that settles but whose
    bracket no level of ``REFINE_LADDER`` can certify raises
    :class:`ConvergenceFailureError` with the last iterate in ``best``.
    """
    if target_digits < 1:
        raise InvalidParameterError("target_digits must be >= 1")
    if not form.is_real:
        raise InvalidParameterError("real-root refinement requires real coefficients")
    n = form.n
    if n == 1:
        prec = max(256, 4 * target_digits)
        with with_precision(prec):
            return mpf_from(form.x - 1), prec

    best = None
    for prec in REFINE_LADDER:
        started = time.perf_counter()
        with with_precision(prec + 32):
            cs = form.coeffs_mp()
            x = mpf_from(form.x)
            t = +best if best is not None else mpf_from(_to_real_seed(seed))
            step_tol = mp.mpf(2) ** (-(prec - 24))
            settled = False
            steps = 0
            for steps in range(1, MAX_NEWTON_STEPS_PER_LEVEL + 1):
                f, df = eval_sparse(cs, n, t)
                if f == 0:
                    settled = True
                    break
                try:
                    step = 1 / (df / f + 1 / (1 - t) + x / (1 - x * t))
                except ZeroDivisionError:
                    raise RefinementFailureError(
                        "Newton step met t = 1, t = beta or a vanishing derivative "
                        "(seed outside basin?)") from None
                t = t - step
                if abs(step) <= step_tol * (1 + abs(t)):
                    settled = True
                    break
            u = mp.mpf(10) ** (-(target_digits + 2)) * abs(t) / n
            certified = settled and _sign_change(form, t, u, prec + 32)
            log.debug("refine degree=%d level: bits=%d newton_steps=%d settled=%s "
                      "bracket=%s seconds=%.6f", n, prec, steps, settled,
                      mp.nstr(u, 3), time.perf_counter() - started)
        if not settled:
            raise RefinementFailureError(
                f"Newton iteration did not settle within {MAX_NEWTON_STEPS_PER_LEVEL} "
                f"steps at {prec} bits (seed outside basin?)")
        if certified:
            return t, prec
        best = t
    raise ConvergenceFailureError(
        f"Newton refinement did not certify {target_digits} digits within "
        f"the precision ladder {REFINE_LADDER}", best=best)


def _sign_change(form: SparseForm, t, u, bits: int) -> bool:
    """True iff f has opposite strict signs at t - u and t + u, evaluated in
    outward-rounded interval arithmetic at ``bits``, and neither spurious
    zero 1 nor beta lies in between."""
    lo, hi = t - u, t + u
    beta = form.beta.real_value
    iv = mp.iv
    saved, iv.prec = iv.prec, bits
    try:
        for z in (iv.mpf(1), iv.mpf(beta.numerator) / beta.denominator):
            if not (z.b < lo or z.a > hi):
                return False
        civ = [iv.mpf(c.numerator) / c.denominator for c in form.coeffs]
        f_lo = eval_sparse(civ, form.n, iv.mpf(lo))[0]
        f_hi = eval_sparse(civ, form.n, iv.mpf(hi))[0]
    finally:
        iv.prec = saved
    return (f_lo.b < 0 < f_hi.a) or (f_hi.b < 0 < f_lo.a)


def _to_real_seed(seed):
    if isinstance(seed, (int, float, Fraction, mp.mpf)):
        return seed
    raise InvalidParameterError("seed must be real")


def optimal_match_distance(a: Sequence, b: Sequence) -> float:
    """Optimal matching distance between two equal-size complex multisets.

    Minimizes the maximum pairing distance cost via the rectangular
    assignment problem on |a_i - b_j| (float64 resolution, which is what the
    cross-check tolerances ask for).
    """
    if len(a) != len(b):
        raise InvalidParameterError("multisets must have equal size")
    av = np.array([complex(x) for x in a])
    bv = np.array([complex(x) for x in b])
    cost = np.abs(av[:, None] - bv[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
