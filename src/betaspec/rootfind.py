"""Polynomial root finding at arbitrary precision.

This is the eigenvalue engine: the spectra of the matrix family are computed
as roots of the closed-form characteristic polynomials.  :func:`solve_all`
has two routes over the doubling precision ladder (:func:`_ladder`) and one
acceptance rule: the first level whose inclusion disks, bounded in
outward-rounded arithmetic, are pairwise disjoint (so each holds exactly
one zero) and of radius at most 10**-D (1 + |z|).

* The sparse route, for the closed-form p_n (a :class:`SparseForm`).  The n
  eigenvalues, the zeros of f = (1 - t)(1 - t/beta) p_n = a + t**n b other
  than 1 and beta, are seeded from the phase equation t**n = -a(t)/b(t)
  near the unit circle and from the zeros of a and b off it, then polished
  by Newton on the five-term form at O(log n) operations per step (for
  real beta, on the closed upper half-plane only).  Newton runs in
  fixed-point integers (:class:`~betaspec.numerics.Fixed`) and only moves
  the centres; the disks that certify them are bounded in integer ball
  arithmetic (:class:`~betaspec.numerics.Ball`), midpoint and radius at a
  fixed scale with every rounding outward, through the same evaluator.
  Their n disks, f's own, must also exclude the points 1 and beta; a real
  eigenvalue is returned with imaginary part exactly 0.  If the seeds are
  not n or no level certifies, the route logs why and the Aberth ladder
  runs on the dense coefficients, built only then (a target beyond the
  ladder's top raises at once).
* The Ehrlich-Aberth ladder, for a coefficient vector (:class:`PrecPoly`):
  simultaneous iteration (no deflation, so the unit-circle cluster stays
  coupled) from degree-many points on the circles of the Newton polygon of
  log|c_k|; the first sweeps run in guarded IEEE float64, after which the
  multiprecision ladder takes over.  Its d disks come from one ball Horner
  pass for p and p' on the exact coefficients; for a real polynomial a disk
  that meets the real axis is moved onto it if the disks still certify.

Identical inputs give identical digit strings: everything is sequential and
deterministic.

Single real roots (the outliers) are refined by the same fixed-point Newton
on the five-term sparse form of p_n, each certified by a sign change in
ball arithmetic (:func:`refine_real_root_reported`) on the same ladder.

numpy (and scipy) are imported inside the functions that use them, so a
process that only refines or counts outliers never loads them.
"""
from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp
from mpmath.libmp import fone, from_rational, mpc_add, mpc_mpf_div, mpc_sub

from .errors import (
    ConvergenceFailureError,
    InvalidParameterError,
    RefinementFailureError,
)
from .charpoly import PrecPoly, SparseForm, charpoly_closed_form, eval_dense, eval_sparse
from .matrices import BetaParam
from .numerics import (
    ball_from,
    decimal_str,
    fixed_from,
    fraction_from_mpf,
    mpc_from,
    mpf_from,
    polyval,
    with_precision,
)

log = logging.getLogger("betaspec")

PRECISION_LADDER = (256, 512, 1024, 2048, 4096, 8192)
MAX_SWEEPS_PER_LEVEL = 500
MAX_NEWTON_STEPS_PER_LEVEL = 200
FLOAT_WARMUP_SWEEPS = 300
FLOAT_WARMUP_TOL = 1e-12
# Bits the ball enclosures (both routes' disks and the sign change) carry
# past the ambient precision: with them the figure spectra's disks are about
# as narrow as in relative-precision intervals at that precision (without
# them, 7-40x wider), so those spectra certify at the same level
DISK_GUARD_BITS = 8


@dataclass(frozen=True)
class RootSet:
    """All roots of one polynomial, each in its own inclusion disk.

    ``roots`` are mpc values sorted by principal argument in (-pi, pi], ties
    by modulus; a root with imaginary part exactly 0 has argument 0 or pi.
    The disks |zeta - roots[k]| <= ``radii[k]`` are pairwise disjoint, each
    holds exactly one zero of the polynomial, and each radius is at most
    10**-target_digits (1 + |root|), which the disks' evaluation in
    outward-rounded balls proves on either route.
    ``precision_used`` is the first level that certified.

    For a real polynomial a root with imaginary part exactly 0 is certified
    real.  On the sparse route ``iterations`` sums over levels the most
    Newton steps any root took; on the Aberth ladder it counts sweeps.
    ``beta`` is a :class:`SparseForm`'s on either route, None for a PrecPoly.
    """

    roots: tuple
    radii: tuple
    precision_used: int
    iterations: int
    target_digits: int
    beta: BetaParam | None = None

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def residuals(self) -> tuple:
        """Each radius over (1 + |root|), at the ambient precision: the
        relative quantity the certificate bounds by 10**-target_digits."""
        return tuple(r / (1 + abs(z)) for z, r in zip(self.roots, self.radii))

    def as_json(self) -> str:
        """The report at ``target_digits`` digits (residuals at 3)."""
        d = self.target_digits
        payload = {
            "beta": None if self.beta is None else str(self.beta),
            "n": self.degree,
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


def ladder_level(target_bits: float) -> int | None:
    """The first level L of ``PRECISION_LADDER`` with L + 32 >= target_bits,
    or None if no level is that high."""
    return next((bits for bits in PRECISION_LADDER if bits + 32 >= target_bits), None)


def _ladder(target_bits: float) -> tuple:
    """The levels of ``PRECISION_LADDER`` that a computation needing
    ``target_bits`` climbs: :func:`ladder_level` and up to three past it, or
    all of them if no level is that high.

    The prefix always starts at 256 bits and skips no level below the
    target.  Each level's Newton (or Aberth) starts from the last level's
    iterates, so the iterates a level certifies depend on the levels below
    it; climbing all of them keeps every certified output (its digits,
    residuals and precision) on the levels it came from before."""
    first = ladder_level(target_bits)
    return PRECISION_LADDER[:PRECISION_LADDER.index(first) + 4] if first else PRECISION_LADDER


def _polygon_starts(coeffs) -> list:
    """Aberth starting points from the Newton polygon of k -> log|c_k| (Bini,
    Numer. Algorithms 13, 1996): each edge (i, j) of the upper hull of the
    points (k, log|c_k|) puts j - i points on the circle of radius
    (|c_i| / |c_j|)**(1/(j - i)), where that many zeros lie, at angles
    2 pi (m / (j - i) + i / d) + sqrt 2.  Zeros at t = 0 start on a circle
    half as wide as the first.  The points are mpc at 53 bits, as a radius
    may lie outside the float64 range.
    """
    d, hull = len(coeffs) - 1, []
    with mp.workprec(53):
        for k, c in enumerate(coeffs):
            if not c:
                continue
            lk = float(mp.log(abs(mpc_from(c))))
            while len(hull) > 1:  # drop hull points on or below the chord to (k, lk)
                (i, li), (j, lj) = hull[-2:]
                if (j - i) * (lk - li) < (lj - li) * (k - i):
                    break
                hull.pop()
            hull.append((k, lk))
        circles = [((li - lj) / (j - i), i, j - i) for (i, li), (j, lj) in zip(hull, hull[1:])]
        if hull[0][0]:
            circles.insert(0, (circles[0][0] - math.log(2) if circles else 0.0, 0, hull[0][0]))
        return [mp.exp(mp.mpc(log_r, 2 * math.pi * (m / count + i / d) + math.sqrt(2)))
                for log_r, i, count in circles for m in range(count)]


def _float_warm_start(coeffs, starts) -> list | None:
    """Guarded float64 Aberth from ``starts``; None if unusable.  A root
    whose correction is not finite keeps its iterate, and iterates that
    coincide are left to :func:`_aberth_level`'s tie guard."""
    import numpy as np
    try:
        c = np.array([complex(x) for x in coeffs], dtype=np.complex128)
    except (OverflowError, TypeError, ValueError):
        return None
    z = np.array([complex(s) for s in starts])
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(z))):
        return None
    d = len(c) - 1
    if d < 2:
        return None
    crev = c[::-1]
    dcrev = (c[1:] * np.arange(1, d + 1))[::-1]
    cap = 8.0 * np.max(np.abs(z))
    for _ in range(FLOAT_WARMUP_SWEEPS):
        with np.errstate(all="ignore"):
            p = np.polyval(crev, z)
            dp = np.polyval(dcrev, z)
            w = p / dp
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            s = (1.0 / diff).sum(axis=1)
            delta = w / (1.0 - w * s)
            delta = np.where(np.isfinite(delta), delta, 0.0)
            znew = z - delta
            r = np.abs(znew)
            znew = np.where(r > cap, znew / np.where(r == 0, 1, r) * cap, znew)
            znew = np.where(np.isfinite(znew), znew, z)
            rel = np.abs(delta) / (1.0 + np.abs(znew))
            z = znew
            if np.max(rel) < FLOAT_WARMUP_TOL:
                break
    if not np.all(np.isfinite(z)):
        return None
    return list(z)


def _aberth_level(hi, dhi, z, prec):
    """Gauss-Seidel Ehrlich-Aberth sweeps at one precision level, at most
    ``MAX_SWEEPS_PER_LEVEL``.

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
    for sweep in range(MAX_SWEEPS_PER_LEVEL):
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


def _disjoint(zeros, rho) -> tuple[bool, float]:
    """Whether the disks |zeta - zeros[j]| <= rho[j] are pairwise disjoint,
    and the least gap |z_j - z_k| - rho_j - rho_k between two of them.

    Decided in float64: the centres round to within 2**-52 |z| and a
    computed distance is off by a few ulps, which the margin
    2**-48 (1 + |z_j| + |z_k|) covers; the radii are rounded up.
    """
    import numpy as np
    c = np.array([complex(z) for z in zeros])
    r = np.array([float(x) * (1 + 2.0 ** -50) + 1e-300 for x in rho])
    with np.errstate(all="ignore"):
        dist = np.abs(c[:, None] - c[None, :])
        slack = dist - r[:, None] - r[None, :]
        margin = 2.0 ** -48 * (1 + np.abs(c)[:, None] + np.abs(c)[None, :])
    np.fill_diagonal(slack, np.inf)
    np.fill_diagonal(margin, 0.0)
    return bool(np.all(slack > margin)), float(slack.min())


def _within(zeros, rho, target_digits: int) -> bool:
    """True iff every radius is at most 10**-target_digits (1 + |z|)."""
    tol = mp.mpf(10) ** (-target_digits)
    return all(r <= tol * (1 + abs(z)) for z, r in zip(zeros, rho))


def _dense_disks(poly: PrecPoly, roots: list) -> list:
    """The d inclusion disks at the Aberth iterates, from one Horner pass for
    p and p' (:func:`~betaspec.charpoly.eval_dense`) on the exact coefficients
    in the balls of :func:`_inclusion_disks`:
    each radius d sup|p| / inf|p'|, rounded up, inf where p' may vanish.
    """
    p = mp.mp.prec + DISK_GUARD_BITS
    cs = [ball_from(c, p) for c in poly.coeffs]
    return [_quotient_up(poly.degree * f.sup_abs(), df.inf_abs())
            for f, df in (eval_dense(cs, ball_from(z, p)) for z in roots)]


def _real_centres(poly: PrecPoly, z: list, rho: list, target_digits: int):
    """The certified disks ``(z, rho)`` of a real polynomial, with each centre
    whose disk meets the real axis moved to Re z and its disk recomputed
    there, if all disks stay disjoint and within 10**-D (1 + |z|); else as
    given.  A disk with a real centre is symmetric under conjugation, so the
    one zero it holds is real."""
    moved = [j for j, (x, r) in enumerate(zip(z, rho)) if x.imag and abs(x.imag) <= r]
    z2, rho2 = list(z), list(rho)
    for j, r in zip(moved, _dense_disks(poly, [mp.mpc(z[j].real) for j in moved])):
        z2[j], rho2[j] = mp.mpc(z[j].real), r
    if moved and _disjoint(z2, rho2)[0] and _within(z2, rho2, target_digits):
        return z2, rho2
    return z, rho


def _root_set(beta, roots, radii, prec, iterations, target_digits) -> RootSet:
    """The certified roots as mpc, sorted by argument, as a :class:`RootSet`."""
    with with_precision(prec + 32):
        roots = [mp.mpc(z) for z in roots]
        order = sorted(range(len(roots)), key=lambda j: (mp.arg(roots[j]), abs(roots[j])))
    return RootSet(roots=tuple(roots[j] for j in order),
                   radii=tuple(radii[j] for j in order),
                   precision_used=prec, iterations=iterations,
                   target_digits=target_digits, beta=beta)


# ---------------------------------------------------------------------------
# Sparse route: Newton on the five-term form from phase seeds
# ---------------------------------------------------------------------------

def _phase_seeds(form: SparseForm) -> list:
    """Float64 seeds for the n eigenvalues, the zeros of f = a + t**n b other
    than the spurious zeros 1 and beta.

    Near the unit circle the zeros solve t**n = r(t) with r = -a/b, so their
    arguments solve n theta - arg r(e^{i theta}) in 2 pi Z.  The phase is
    unwrapped on a grid of about 16 (n + 2) points, each crossing is
    interpolated, and its seed gets the modulus |r|**(1/n) there; t = 1 is
    the k = 0 solution (r(1) = 1) and is not seeded.  Inside the circle f is
    close to a and outside it to t**n b, so the zero of a inside and the
    zero of b outside are seeds as well.  Since
    b = x ((t - beta)(t - S_n) + x**n), the zero of b nearest beta stands
    for beta and is not seeded.

    For real beta only the closed upper half-plane is seeded: a real seed is
    a float and stands for itself, a complex one (positive imaginary part)
    for itself and its conjugate.
    """
    import numpy as np
    n, real = form.n, form.is_real
    a0, a1, b0, b1, b2 = (complex(c) for c in form.coeffs)

    def r(theta):
        t = np.exp(1j * theta)
        return -(a0 + a1 * t) / (b0 + (b1 + b2 * t) * t)

    points = 8 * (n + 2) if real else 16 * (n + 2)
    end = np.pi if real else 2 * np.pi
    theta = np.linspace(0.0, end, points + 1)
    with np.errstate(all="ignore"):
        rv = r(theta)
    if not (np.all(np.isfinite(rv)) and np.all(rv != 0)):
        return []
    # phase / 2 pi: 0 at t = 1; at the end a multiple of 1/2 (r(-1) is real)
    # or, over the whole circle, an integer
    phase = (n * theta - np.unwrap(np.angle(rv))) / (2 * np.pi)
    phase[0] = 0.0
    quantum = 0.5 if real else 1.0
    phase[-1] = round(phase[-1] / quantum) * quantum
    seeds = []
    for i in range(points):
        u, v = phase[i], phase[i + 1]
        ks = (range(math.floor(u) + 1, math.floor(v) + 1) if v > u
              else range(math.ceil(v), math.ceil(u)))
        for k in ks:
            if i == points - 1 and k == v:
                # theta = pi is a real seed; theta = 2 pi is t = 1 again
                if real:
                    seeds.append(-float(abs(r(np.pi))) ** (1 / n))
                continue
            th = theta[i] + (k - u) / (v - u) * (theta[i + 1] - theta[i])
            seeds.append(complex(abs(r(th)) ** (1 / n) * np.exp(1j * th)))
    za = -a0 / a1  # beta - 1
    if abs(za) < 1:
        seeds.append(za.real if real else za)
    zbs = np.roots([b2.real, b1.real, b0.real] if real else [b2, b1, b0])
    zbs = np.delete(zbs, np.argmin(np.abs(zbs - complex(form.beta.value))))
    for zb in zbs:
        if abs(zb) > 1 and not (real and zb.imag < 0):
            seeds.append(float(zb.real) if real and zb.imag == 0 else complex(zb))
    return seeds


def _newton(cs, n: int, t, prec: int, x=None):
    """Newton on f = a + t**n b from ``t`` until the step is at most
    2**-(prec - 32) (1 + |t|); given x = 1/beta, Newton on
    p_n = f / ((1 - t)(1 - x t)), with the spurious zeros 1 and beta divided
    out of the step.

    It runs in fixed-point integers (:class:`~betaspec.numerics.Fixed`) at
    the scale 2**-(prec + 32): ``cs`` (a0, a1, b0, b1, b2) and ``x`` come
    from :func:`~betaspec.numerics.fixed_from` at that scale, and the settle
    test is decided exactly in integers.  Only the iterate comes from here;
    the certificates that accept it are bounded in outward-rounded balls
    (:func:`_inclusion_disks`, :func:`_sign_change`).  Each
    step is rounded to prec + 32 significant bits, as an mpc step was: its
    bits below that are rounding noise, and without them a large step
    leaves the iterate on a coarse dyadic grid, from which Newton lands on a
    short dyadic zero (such as -3/2) exactly.

    Returns (root, steps, settled), the root rounded to the ambient
    precision: an mpf for a real ``t`` (float or mpf) on a real form, else
    an mpc.  A step that meets a pole or a vanishing derivative does not
    settle.
    """
    p = prec + 32
    real = isinstance(t, (float, mp.mpf))
    t = fixed_from(t, p)
    one = 1 << p
    settled = False
    for steps in range(1, MAX_NEWTON_STEPS_PER_LEVEL + 1):
        f, df = eval_sparse(cs, n, t)
        if not f:
            settled = True
            break
        try:
            step = (f / df if x is None
                    else 1 / (df / f + 1 / (1 - t) + x / (1 - x * t))).rounded(p)
        except ZeroDivisionError:
            break
        t = t - step
        # |step| <= 2**-(prec - 32) (1 + |t|), times 2**p: with
        # A = 2**(2(prec - 32)) |step|**2 and B = |t|**2 (scaled by 2**2p),
        # sqrt A <= 2**p + sqrt B, squared twice
        t2 = t.abs2()
        excess = (step.abs2() << 2 * (prec - 32)) - t2 - one * one
        if excess <= 0 or excess * excess <= 4 * one * one * t2:
            settled = True
            break
    return t.to_mp(real and not t.im), steps, settled


def _inclusion_disks(form: SparseForm, roots: list):
    """Certify the iterates of the sparse route as the n zeros of p_n.

    ``roots`` are the iterates of :func:`_phase_seeds`' seeds; for real beta
    the complex ones stand for their conjugates too.  f = a + t**n b and f'
    are bounded at each in outward-rounded balls
    (:class:`~betaspec.numerics.Ball`) at the scale
    2**-(prec + DISK_GUARD_BITS), prec the ambient precision.  As
    f'/f = sum_k 1/(z - zeta_k) over f's n + 2 zeros, the disk of radius
    (n + 2) sup|f| / inf|f'| holds a zero of f (Carstensen, Numer. Math.
    59, 1991).  If the disks are pairwise disjoint and neither spurious
    zero 1 nor beta lies in any of them, each holds a zero of p_n, so the n
    disks hold all n eigenvalues, one each.  Returns
    ``(zeros, rho, min_gap)``: the n centres (None if the disks overlap
    each other, 1 or beta), each radius (rounded up, inf where f' may
    vanish) and the least gap between disks and points.

    A real centre's disk is symmetric under conjugation, so the one zero it
    holds is real: real seeds stay real under Newton, which is why a real
    eigenvalue comes out with imaginary part exactly 0.
    """
    n = form.n
    zeros = list(roots)
    if form.is_real:
        zeros += [mp.conj(z) for z in roots if isinstance(z, mp.mpc)]
    p = mp.mp.prec + DISK_GUARD_BITS
    cs = [ball_from(c, p) for c in form.coeffs]
    rho = []
    for z in roots:
        f, df = eval_sparse(cs, n, ball_from(z, p))
        rho.append(_quotient_up((n + 2) * f.sup_abs(), df.inf_abs()))
    if form.is_real:  # |f| and |f'| are the same at a conjugate
        rho += [r for r, z in zip(rho, roots) if isinstance(z, mp.mpc)]
    points = {1 + 0j, complex(form.beta.value)}  # one point at beta = 1
    disjoint, min_gap = _disjoint(zeros + list(points), rho + [0] * len(points))
    return zeros if disjoint else None, rho, min_gap


def _quotient_up(u: int, v: int) -> mp.mpf:
    """u / v rounded up to the ambient precision, inf if v <= 0."""
    return mp.make_mpf(from_rational(u, v, mp.mp.prec, "u")) if v > 0 else mp.inf


def _refuse(d: int, reason: str) -> None:
    log.debug("solve_all sparse fallback degree=%d reason=%s", d, reason)
    return None


def _disk_fields(rho, min_gap) -> str:
    """The largest radius and the least gap (``-`` if no disks were computed)."""
    return (f"max_radius={'-' if rho is None else mp.nstr(max(rho), 3)} "
            f"min_gap={'-' if min_gap is None else f'{min_gap:.3g}'}")


def _ladder_exhausted(target_digits: int, ladder: tuple, rho, min_gap, best):
    """The error of a ladder that ran out, ending with its top level's disks."""
    return ConvergenceFailureError(
        f"root iteration did not certify {target_digits} digits within the "
        f"precision ladder {ladder}; last level: bits={ladder[-1]} "
        f"{_disk_fields(rho, min_gap)}", best=best)


def _solve_sparse(form: SparseForm, target_digits: int) -> RootSet | None:
    """The sparse route of :func:`solve_all` for the closed-form p_n.

    Newton on f = (1 - t)(1 - t/beta) p_n = a + t**n b polishes the seeds of
    :func:`_phase_seeds` at each level of the ladder, O(log n) operations
    per step.  The first level is accepted at which Newton has settled, the
    n disks of :func:`_inclusion_disks` are disjoint and clear of 1 and
    beta, and every radius is at most 10**-D (1 + |z|).  Returns None, with
    one DEBUG record saying why, when the seeds are not n, when Newton does
    not settle, when the disks overlap, or when no level certifies; if the
    target lies beyond the ladder's top, which the Aberth ladder cannot reach
    either, it raises :class:`ConvergenceFailureError` with the last iterates
    instead.
    """
    d = form.n
    z = _phase_seeds(form)
    count = sum(1 if isinstance(s, float) else 2 for s in z) if form.is_real else len(z)
    if count != d:
        return _refuse(d, f"seeds={count} zeros={d}")
    iterations = 0
    target_bits = target_digits * math.log2(10)
    ladder = _ladder(target_bits)
    for prec in ladder:
        started = time.perf_counter()
        with with_precision(prec + 32):
            cs = [fixed_from(c, prec + 32) for c in form.coeffs]
            z, steps, settled = zip(*(_newton(cs, d, t, prec) for t in z))
            steps, settled = max(steps), all(settled)
            zeros = rho = min_gap = None
            if settled:
                zeros, rho, min_gap = _inclusion_disks(form, z)
            certified = zeros is not None and _within(zeros, rho, target_digits)
        iterations += steps
        log.debug("solve_all sparse degree=%d level: bits=%d newton_steps=%d "
                  "certified=%s %s seconds=%.6f", d, prec, steps, certified,
                  _disk_fields(rho, min_gap), time.perf_counter() - started)
        if not settled:
            return _refuse(d, f"newton did not settle at {prec} bits")
        if certified:
            return _root_set(form.beta, zeros, rho, prec, iterations, target_digits)
        if zeros is None:
            return _refuse(d, f"overlapping disks at {prec} bits")
    if ladder[-1] + 32 < target_bits:
        raise _ladder_exhausted(target_digits, ladder, rho, min_gap, zeros)
    return _refuse(d, "no level certified")


def solve_all(poly: PrecPoly | SparseForm, target_digits: int) -> RootSet:
    """Find all roots of ``poly`` certified to ``target_digits`` digits.

    A :class:`SparseForm`, the closed-form p_n, takes the sparse route
    (:func:`_solve_sparse`); only if that declines are its dense coefficients
    built for the Aberth ladder, and the result keeps its beta.  A
    :class:`PrecPoly` goes straight to the ladder.  It accepts the first level
    (each seeded by the last) that converged with the d disks of
    :func:`_dense_disks` disjoint and of radius at most 10**-D (1 + |z|), or
    raises :class:`ConvergenceFailureError` with the last iterate, ending its
    message with that level's bits, largest radius and least gap.
    """
    if target_digits < 1:
        raise InvalidParameterError("target_digits must be >= 1")
    beta = None
    if isinstance(poly, SparseForm):
        form = poly
        rs = _solve_sparse(form, target_digits)
        if rs is not None:
            return rs
        beta, poly = form.beta, charpoly_closed_form(form.beta, form.n)
    d = poly.degree
    if d < 1:
        raise InvalidParameterError("polynomial degree must be >= 1")

    starts = _polygon_starts(poly.coeffs)
    seeds = _float_warm_start(poly.coeffs, starts)
    z = starts if seeds is None else [mp.mpc(s) for s in seeds]
    total_sweeps = 0
    ladder = _ladder(target_digits * math.log2(10))
    for prec in ladder:
        started = time.perf_counter()
        with with_precision(prec + 32):
            cs = poly.coeffs_mp()
            hi = cs[::-1]
            dhi = [cs[k] * k for k in range(d, 0, -1)]
            z, sweeps, ok = _aberth_level(hi, dhi, z, prec)
            rho = _dense_disks(poly, z)
            disjoint, min_gap = _disjoint(z, rho)
            certified = ok and disjoint and _within(z, rho, target_digits)
            if certified and poly.is_real:
                z, rho = _real_centres(poly, z, rho, target_digits)
        total_sweeps += sweeps
        log.debug("solve_all degree=%d level: bits=%d sweeps=%d converged=%s "
                  "certified=%s %s seconds=%.6f", d, prec, sweeps, ok, certified,
                  _disk_fields(rho, min_gap), time.perf_counter() - started)
        if certified:
            return _root_set(beta, z, rho, prec, total_sweeps, target_digits)
    raise _ladder_exhausted(target_digits, ladder, rho, min_gap, z)


def refine_real_root_reported(form: SparseForm, seed,
                              target_digits: int) -> tuple[mp.mpf, int]:
    """Polish one real zero of p_n by Newton iteration at escalating precision.

    Newton runs on the five-term form f = (1 - t)(1 - x t) p_n of
    :func:`~betaspec.charpoly.sparse_form`, with the spurious zeros t = 1 and
    t = beta divided out of the step, so it is Newton on p_n itself at
    O(log n) operations per step.  A level is accepted once Newton has
    settled and f changes sign across [root - u, root + u], with
    u = 10**-(target_digits + 2) |root| / n, in outward-rounded ball
    arithmetic: that bracket holds a zero of p_n, narrow enough to fix the
    printed root and its offsets to the limits.  An iterate that settles
    within the step tolerance of 0 is returned as exactly 0, bracketed by
    u = 10**-(target_digits + 2) / n.  The ladder's target is the
    bracket's (target_digits + 2) log2 10 + log2 n bits.  Returns
    ``(root, bits)``, the mpf iterate and the level that certified it.

    A seed outside the basin raises :class:`RefinementFailureError` at the
    first level where Newton does not settle (or where the step meets t = 1,
    t = beta or a vanishing derivative), and so does an iterate that settles
    with t = 1 or t = beta in its bracket, naming the point; a root that
    settles but whose bracket no level of the ladder can certify raises
    :class:`ConvergenceFailureError` with the last iterate in ``best``.
    """
    if target_digits < 1:
        raise InvalidParameterError("target_digits must be >= 1")
    if not form.is_real:
        raise InvalidParameterError("real-root refinement requires real coefficients")
    n = form.n
    best = None
    ladder = _ladder((target_digits + 2) * math.log2(10) + math.log2(n))
    for prec in ladder:
        started = time.perf_counter()
        with with_precision(prec + 32):
            cs = [fixed_from(c, prec + 32) for c in form.coeffs]
            x = fixed_from(form.x, prec + 32)
            t = best if best is not None else mpf_from(_to_real_seed(seed))
            tol = mp.mpf(2) ** (-(prec - 32))
            t, steps, settled = _newton(cs, n, t, prec, x)
            if settled and abs(t) <= tol:  # the zero at t = 0 (beta = 1)
                t = mp.mpf(0)
            u = mp.mpf(10) ** (-(target_digits + 2)) * (abs(t) or 1) / n
            certified = settled and _sign_change(form, t, u)
            point = settled and not certified and _spurious_zero(form, t - u, t + u)
            log.debug("refine degree=%d level: bits=%d newton_steps=%d settled=%s "
                      "bracket=%s seconds=%.6f", n, prec, steps, settled,
                      mp.nstr(u, 3), time.perf_counter() - started)
        if not settled:
            raise RefinementFailureError(
                f"Newton iteration did not settle at {prec} bits (seed outside basin?)")
        if point:
            raise RefinementFailureError(
                f"Newton settled at {prec} bits within {mp.nstr(u, 3)} of t = {point}, "
                f"a spurious zero of the five-term form, where no sign change certifies p_n")
        if certified:
            return t, prec
        best = t
    raise ConvergenceFailureError(
        f"Newton refinement did not certify {target_digits} digits within "
        f"the precision ladder {ladder}", best=best)


def _sign_change(form: SparseForm, t, u) -> bool:
    """True iff f has opposite certain signs at t - u and t + u, evaluated in
    outward-rounded balls at the scale 2**-(prec + DISK_GUARD_BITS), prec
    the ambient precision, and neither spurious zero 1 nor beta lies in
    between."""
    lo, hi = t - u, t + u
    if _spurious_zero(form, lo, hi):
        return False
    p = mp.mp.prec + DISK_GUARD_BITS
    cs = [ball_from(c, p) for c in form.coeffs]
    s_lo, s_hi = (eval_sparse(cs, form.n, ball_from(v, p))[0].sign() for v in (lo, hi))
    return s_lo * s_hi < 0


def _spurious_zero(form: SparseForm, lo, hi) -> str | None:
    """``"1"`` or ``"beta = <beta>"``, a spurious zero of the five-term form
    in [lo, hi] (compared exactly), else None."""
    beta = form.beta.real_value
    lo, hi = fraction_from_mpf(lo), fraction_from_mpf(hi)
    for name, z in (("1", 1), (f"beta = {beta}", beta)):
        if lo <= z <= hi:
            return name
    return None


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
    import numpy as np
    if len(a) != len(b):
        raise InvalidParameterError("multisets must have equal size")
    av = np.array([complex(x) for x in a])
    bv = np.array([complex(x) for x in b])
    cost = np.abs(av[:, None] - bv[None, :])
    from scipy.optimize import linear_sum_assignment  # kept off the CLI's import path
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
