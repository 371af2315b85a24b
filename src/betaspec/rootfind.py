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
from .charpoly import PrecPoly
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


def refine_real_root_reported(poly: PrecPoly, seed,
                              target_digits: int) -> tuple[mp.mpf, int]:
    """Polish one real root by Newton iteration at escalating precision.

    The seed must lie in the Newton basin of a real simple root.  Returns
    ``(root, bits)``: an mpf with |p(root)| <= 10**-target_digits, confirmed
    by agreement of two successive precision levels to the digit target, and
    the level at which they agreed.  A seed outside the basin raises
    :class:`RefinementFailureError` (the iterate left the root region, the
    derivative vanished, or Newton never settled at the top level); a root
    that settles but needs more bits than ``REFINE_LADDER`` offers raises
    :class:`ConvergenceFailureError` with the last iterate in ``best``.
    """
    if target_digits < 1:
        raise InvalidParameterError("target_digits must be >= 1")
    if not poly.is_real:
        raise InvalidParameterError("real-root refinement requires real coefficients")
    d = poly.degree
    if d < 1:
        raise InvalidParameterError("polynomial degree must be >= 1")
    if d == 1:
        prec = max(256, 4 * target_digits)
        with with_precision(prec):
            c0, c1 = poly.coeffs_mp(real=True)
            return -c0 / c1, prec

    prev = None
    for prec in REFINE_LADDER:
        started = time.perf_counter()
        with with_precision(prec + 32):
            cs = poly.coeffs_mp(real=True)
            hi = cs[::-1]
            dhi = [cs[k] * k for k in range(d, 0, -1)]
            runaway = 100 * (1 + max(abs(c) for c in cs[:-1]) / abs(cs[-1]))
            x = mp.mpf(prev) if prev is not None else mpf_from(_to_real_seed(seed))
            step_tol = mp.mpf(2) ** (-(prec - 24))
            settled = False
            steps = 0
            for steps in range(1, MAX_NEWTON_STEPS_PER_LEVEL + 1):
                p = polyval(hi, x)
                dp = polyval(dhi, x)
                if dp == 0:
                    raise RefinementFailureError(
                        "derivative vanished during Newton refinement")
                step = p / dp
                x = x - step
                if abs(x) > runaway:
                    raise RefinementFailureError(
                        "Newton iteration left the root region (seed outside basin?)")
                if abs(step) <= step_tol * (1 + abs(x)):
                    settled = True
                    break
            log.debug("refine degree=%d level: bits=%d newton_steps=%d settled=%s "
                      "seconds=%.6f", d, prec, steps, settled,
                      time.perf_counter() - started)
            pv = abs(polyval(hi, x))
            tol = mp.mpf(10) ** (-target_digits)
            if pv <= tol and prev is not None and \
                    abs(x - prev) <= tol * (1 + abs(x)):
                return x, prec
            prev = x
    if not settled:
        raise RefinementFailureError(
            f"Newton iteration did not settle within {MAX_NEWTON_STEPS_PER_LEVEL} steps "
            f"at {REFINE_LADDER[-1]} bits (seed outside basin?)")
    raise ConvergenceFailureError(
        f"Newton refinement did not certify {target_digits} digits within "
        f"the precision ladder {REFINE_LADDER}", best=prev)


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
