"""Characteristic polynomials of the corrected shift family, in closed form.

For the order-n matrix with parameter beta, the characteristic polynomial
det(t*I - B) works out to::

    p_n(t) = sum_{j=0..n} t**j  -  sum_{i=1..n} sum_{j=0..n-i} t**(i+j-1) * beta**-i

Aggregating the double sum by powers of t gives the O(n) coefficient rule
implemented here: with x = 1/beta, the coefficient of t**m for m < n is
``c_m = 1 - (x + ... + x**(m+1))`` and the leading coefficient is 1.  The
constant term is ``1 - x``, so 0 is never an eigenvalue for beta > 1.
Successive coefficients differ by ``-x**(m+1)``, so multiplying by
(1 - t)(1 - x t) telescopes p_n into five terms, a(t) + t**n b(t)
(:func:`sparse_form`), which evaluate in O(log n).

The coefficients obey one step, ``c_m = x c_{m-1} + (1 - 2x)`` from
c_{-1} = 1, which :func:`charpoly_closed_form` runs over exact rationals.
For real beta, :func:`charpoly_strings` runs it over integers to print
them.  Take beta = P/Q in lowest terms, so x = u/L with L = |P|,
u = sign(P) Q and gcd(u, L) = 1.  Scaled by L**k, c_{k-1} = D_k / L**k
with::

    D_0 = 1,   D_k = u D_{k-1} + (L - 2u) L**(k-1).

Then D_1 = L - u and D_k = -u**k (mod L) for k >= 1, so gcd(D_k, L) = 1:
every D_k / L**k is in lowest terms as computed and prints with no gcd.
The integers are ``decimal.Decimal`` values in a context that traps any
rounding, so each step and each conversion to text takes time linear in the
digits, with no cap on their number.

The geometric split q_n - r_n, the coefficient reversal t**n * p(1/t)
(which maps roots to reciprocals), and the two rational limit functions the
polynomials converge to inside the unit disk live here as well, together
with an exact fraction-free determinant oracle used to validate the closed
form on small orders.
"""
from __future__ import annotations

import decimal
import json
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .errors import (
    InvalidOrderError,
    InvalidParameterError,
    PoleError,
    SizeLimitError,
    ZeroRootError,
)
from .matrices import REAL_GT1, BetaParam
# decimal_str is not called here; bench/spans.py wraps it by this name
from .numerics import (
    DEFAULT_PRECISION_BITS,
    QComplex,
    ball_from,
    decimal_str,
    exact_str,
    mpc_from,
    mpf_from,
    polyval,
    ratio_str,
    with_precision,
)

DET_ORACLE_MAX_ORDER = 12


@dataclass(frozen=True)
class PrecPoly:
    """Degree-indexed coefficient vector, exact or multiprecision.

    ``coeffs`` runs low to high.  Exact polynomials hold Fraction or QComplex
    coefficients; inexact ones hold mpf/mpc values.  It takes the Aberth
    ladder; the closed-form p_n is solved from its :func:`sparse_form`.
    """

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise InvalidParameterError("polynomial needs at least one coefficient")
        if not self.coeffs[-1] and len(self.coeffs) > 1:
            raise InvalidParameterError(
                "leading coefficient must be nonzero (only the constant 0 may be zero)")

    @property
    def exact(self) -> bool:
        """True iff no coefficient is an mpf or mpc."""
        return not any(isinstance(c, (mp.mpf, mp.mpc)) for c in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self):
        return self.coeffs[0]

    @property
    def leading_coeff(self):
        return self.coeffs[-1]

    @property
    def is_real(self) -> bool:
        for c in self.coeffs:
            if isinstance(c, QComplex) and not c.is_real:
                return False
            if isinstance(c, mp.mpc) and c.imag != 0:
                return False
        return True

    def coeffs_mp(self, real: bool) -> list:
        """Coefficients as mpf (``real``) or mpc at the ambient precision."""
        conv = mpf_from if real else mpc_from
        return [conv(c) for c in self.coeffs]

    def eval_exact(self, t):
        """Horner evaluation over exact scalars."""
        if not self.exact:
            raise InvalidParameterError("eval_exact requires an exact polynomial")
        if isinstance(t, int):
            t = Fraction(t)
        acc = self.coeffs[-1] * (t * 0 + 1)
        for c in reversed(self.coeffs[:-1]):
            acc = acc * t + c
        return acc

    def eval_mp(self, t, bits: int = DEFAULT_PRECISION_BITS):
        """Value at t by :func:`~betaspec.numerics.polyval` at ``bits``; complex
        t, or real t with complex coefficients, gives mpc."""
        with with_precision(bits):
            tv = mpc_from(t) if isinstance(t, (complex, mp.mpc, QComplex)) else mpf_from(t)
            cs = self.coeffs_mp(real=isinstance(tv, mp.mpf) and self.is_real)
            return polyval(cs[::-1], tv)


def charpoly_closed_form(beta: BetaParam, n: int) -> PrecPoly:
    """Characteristic polynomial of the order-n family member, O(n) exact.

    Coefficient of t**m is ``1 - (x + ... + x**(m+1))``, x = 1/beta, for
    m = 0..n-1 and 1 for m = n, by the step c_m = x c_{m-1} + (1 - 2x).
    """
    if n < 1:
        raise InvalidOrderError(f"order must be >= 1, got {n}")
    x = beta.inverse
    one = x * 0 + 1
    c, step, coeffs = one, 1 - 2 * x, []
    for _ in range(n):
        c = x * c + step
        coeffs.append(c)
    coeffs.append(one)
    return PrecPoly(coeffs=tuple(coeffs))


# Integer arithmetic in decimal that raises rather than round.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.InvalidOperation, decimal.DivisionByZero,
                                decimal.Overflow, decimal.Inexact, decimal.Rounded])


def charpoly_strings(beta: BetaParam, n: int) -> list[str]:
    """The n + 1 coefficients of :func:`charpoly_closed_form`, low to high,
    as ``str`` prints them: for real beta from the integer recurrence D_k of
    the module docstring, for complex beta from the Fractions."""
    if n < 1:
        raise InvalidOrderError(f"order must be >= 1, got {n}")
    x = beta.inverse
    if isinstance(x, QComplex):
        return [exact_str(c) for c in charpoly_closed_form(beta, n).coeffs]
    L, out = x.denominator, []
    with decimal.localcontext(_EXACT):
        u = Decimal(x.numerator)
        step, d, lk = L - 2 * u, Decimal(1), Decimal(1)
        for _ in range(n):
            d = u * d + step * lk
            lk *= L
            out.append(ratio_str(d, lk))
    out.append("1")
    return out


@dataclass(frozen=True)
class SparseForm:
    """The five-term form (1 - t)(1 - x t) p_n(t) = a(t) + t**n b(t), x = 1/beta.

    ``a`` = (1 - x, -x) and ``b`` = (S_n + x**(n+1), -(1 + x S_n), x) run low
    to high, with S_n = x + ... + x**n.  The zeros of the left side are the n
    eigenvalues and the two spurious zeros t = 1 and t = beta.  The zero of a
    is beta - 1, the limit of the small outlier; b tends to
    b_inf(t) = x (t - beta)(t - 1/(beta - 1)), whose second zero is the limit
    of the large outlier.
    """

    beta: BetaParam
    n: int
    x: Fraction | QComplex
    a: tuple
    b: tuple

    @property
    def is_real(self) -> bool:
        return self.beta.is_real

    @property
    def coeffs(self) -> tuple:
        """(a0, a1, b0, b1, b2), the five exact coefficients."""
        return self.a + self.b

    def offset_small(self, t):
        """t - (beta - 1) at a zero t of p_n, as beta t**n b(t).

        Evaluated at the ambient precision this keeps its relative accuracy
        however small the offset is; the subtraction would not.
        """
        b0, b1, b2, beta = (mpf_from(c) for c in self.b + (self.beta.real_value,))
        return beta * t ** self.n * (b0 + (b1 + b2 * t) * t)

    def offset_large(self, t):
        """t - 1/(beta - 1) at a zero t of p_n, as
        (-a(t) t**-n - delta(t)) / (x (t - beta)), where
        delta = b - b_inf = x**(n+2) (t - 1) / (1 - x).

        Both terms of the numerator are as small as the offset itself, so it
        keeps its relative accuracy; the subtraction would not.
        """
        x = self.x
        a0, a1, d, xv, beta = (mpf_from(c) for c in (
            self.a[0], self.a[1], x ** (self.n + 2) / (1 - x), x, self.beta.real_value))
        return (-(a0 + a1 * t) / t ** self.n - d * (t - 1)) / (xv * (t - beta))

    def zeros_inside(self, rho: Fraction) -> int | None:
        """The number of eigenvalues in |t| < rho, for real beta > 1, by
        Rouché's theorem on f = a + t**n b; None if neither term is proved
        to dominate on |t| = rho.

        On t = rho e^{i theta}, g = |a|**2 - rho**(2n) |b|**2 = q c**2 + l c + k
        in c = cos theta, concave as q = -4 rho**(2n+2) b0 b2 < 0; its values
        g1, g2 = g(+-1) at t = +-rho give l and k.  Positive at c = +-1, a
        dominates: f has a's zero beta - 1 inside if beta - 1 < rho.  Negative
        there and at the vertex c = -l/2q, t**n b dominates: f has n zeros at
        0 plus b's, which Rouché on b = x (t - beta)(t - S_n) + x**(n+1)
        counts as beta and S_n if |rho - beta| |rho - S_n| > x**n, decided
        exactly.  The spurious zeros 1 and beta are subtracted.

        The vertex and peak tests do not divide.  With l2 = g1 - g2 = 2l and
        q4 = 4q < 0, the vertex -l2/q4 lies in (-1, 1) iff l2 + q4 < 0 < l2 - q4,
        and 4 q4 times the peak k - l**2/4q is 2 q4 (g1 + g2) - q4**2 - l2**2,
        positive iff the peak is negative.  Every sign is strict over
        :class:`~betaspec.numerics.Ball` values at the absolute scale 2**-128,
        so a zero of f on the circle gives None.
        """
        self.beta.require_class([REAL_GT1], "the Rouché count")
        beta, n = self.beta.real_value, self.n
        s = -(1 + self.b[1]) / self.x  # S_n
        # the scale 2**-128: at beta = 9/5, n = 200, rho = 1 - Fraction(0.2), a's
        # zero lies about 1e-17 off the circle, g1 is about 2**-114 and
        # rho**(2n) |b|**2 about 2**-133, so at 2**-64 that count is undecided
        a0, a1, b0, b1, b2, r = (ball_from(c, 128) for c in (*self.coeffs, Fraction(rho)))
        rn, a1r, b1r, b2r2 = r ** n, a1 * r, b1 * r, b2 * r * r
        g1, g2 = ((a0 + ar) ** 2 - (rn * (b0 + br + b2r2)) ** 2
                  for ar, br in ((a1r, b1r), (-a1r, -b1r)))
        if g1.sign() > 0 and g2.sign() > 0:
            return (beta - 1 < rho) - (1 < rho) - (beta < rho)
        l2, q4 = g1 - g2, -16 * rn * rn * b0 * b2r2
        vertex_inside = (l2 + q4).sign() <= 0 <= (l2 - q4).sign()
        peak_negative = (not vertex_inside
                         or (2 * q4 * (g1 + g2) - q4 * q4 - l2 * l2).sign() > 0)
        if not (g1.sign() < 0 and g2.sign() < 0 and peak_negative
                and abs(rho - beta) * abs(rho - s) > self.x ** n):
            return None
        return n + (s < rho) - (1 < rho)


def sparse_form(beta: BetaParam, n: int) -> SparseForm:
    """The :class:`SparseForm` of p_n in O(log n) exact operations (one power of x)."""
    if n < 1:
        raise InvalidOrderError(f"order must be >= 1, got {n}")
    x = Fraction(1) / beta.real_value if beta.is_real else beta.value.inverse()
    xn = x ** n
    s = x * (1 - xn) / (1 - x) if x != 1 else Fraction(n)
    return SparseForm(beta=beta, n=n, x=x, a=(1 - x, -x),
                      b=(s + xn * x, -(1 + x * s), x))


def eval_sparse(cs: Sequence, n: int, t) -> tuple:
    """(f(t), f'(t)) of f = a + t**n b from the five coefficients ``cs``
    (a0, a1, b0, b1, b2), with t**(n-1) by squaring.

    Generic over the arithmetic of ``t`` and ``cs``: mpf, mpc, fixed-point
    :class:`~betaspec.numerics.Fixed` or integer balls
    :class:`~betaspec.numerics.Ball`, each operation rounded as that
    arithmetic rounds (outward for balls).
    """
    a0, a1, b0, b1, b2 = cs
    tn1 = t ** (n - 1)
    f = a0 + a1 * t + tn1 * t * (b0 + (b1 + b2 * t) * t)
    df = a1 + tn1 * (n * b0 + ((n + 1) * b1 + (n + 2) * b2 * t) * t)
    return f, df


def split_qr(beta: BetaParam, n: int) -> tuple[PrecPoly, PrecPoly]:
    """Geometric split (q_n, r_n) with q_n - r_n equal to the closed form.

    q_n has all coefficients 1 up to degree n; r_n has degree n-1 with
    coefficient of t**m equal to the prefix sum beta**-1 + ... + beta**-(m+1).
    """
    p = charpoly_closed_form(beta, n)
    one = p.leading_coeff
    return (PrecPoly(coeffs=(one,) * (n + 1)),
            PrecPoly(coeffs=tuple(one - c for c in p.coeffs[:-1])))


def reverse_poly(poly: PrecPoly) -> PrecPoly:
    """Coefficient reversal t**d * p(1/t); roots map to exact reciprocals.

    Rejects polynomials with constant term 0 (a zero root has no reciprocal).
    """
    if not poly.constant_term:
        raise ZeroRootError("cannot reverse a polynomial with constant term 0")
    return PrecPoly(coeffs=tuple(reversed(poly.coeffs)))


def poly_to_json(coeffs: Sequence[str], beta: BetaParam | None = None,
                 exact: bool = True) -> str:
    """JSON export: degree, the low-to-high coefficient strings (those of
    :func:`charpoly_strings` when exact), beta, exactness."""
    payload = {
        "degree": len(coeffs) - 1,
        "coeffs": list(coeffs),
        "beta": str(beta) if beta is not None else None,
        "exact": exact,
    }
    return json.dumps(payload)


# ---------------------------------------------------------------------------
# Exact determinant oracle (fraction-free elimination over Q[t])
# ---------------------------------------------------------------------------

class _RatPoly:
    """Minimal dense polynomial over Fraction for the determinant oracle."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        cs = [Fraction(x) for x in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.c = cs

    @property
    def degree(self):
        return len(self.c) - 1

    def is_zero(self):
        return len(self.c) == 1 and self.c[0] == 0

    def __add__(self, other):
        a, b = self.c, _coerce_entry(other).c
        n = max(len(a), len(b))
        return _RatPoly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                         for i in range(n)])

    def __sub__(self, other):
        a, b = self.c, _coerce_entry(other).c
        n = max(len(a), len(b))
        return _RatPoly([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                         for i in range(n)])

    def __mul__(self, other):
        a, b = self.c, _coerce_entry(other).c
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return _RatPoly(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce_entry(other) - self

    def __neg__(self):
        return _RatPoly([-x for x in self.c])

    def divexact(self, other):
        """Exact polynomial division; the fraction-free recurrence guarantees
        divisibility, asserted here."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.c)
        div = other.c
        if len(rem) < len(div):
            if all(x == 0 for x in rem):
                return _RatPoly([0])
            raise InvalidParameterError("inexact polynomial division in oracle")
        out = [Fraction(0)] * (len(rem) - len(div) + 1)
        for k in range(len(out) - 1, -1, -1):
            q = rem[k + len(div) - 1] / div[-1]
            out[k] = q
            if q != 0:
                for j, dj in enumerate(div):
                    rem[k + j] -= q * dj
        if any(x != 0 for x in rem):
            raise InvalidParameterError("inexact polynomial division in oracle")
        return _RatPoly(out)


def _coerce_entry(x) -> _RatPoly:
    if isinstance(x, _RatPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return _RatPoly([x])
    if isinstance(x, (list, tuple)):
        return _RatPoly(list(x))
    raise InvalidParameterError(
        f"oracle entries must be rationals or coefficient sequences, got {type(x).__name__}"
    )


def symbolic_t() -> _RatPoly:
    """The variable t of the oracle's ring Q[t].

    It mixes with int and Fraction entries, so ``matrices.build_aux_matrix``
    and ``matrices.build_shifted`` called at ``symbolic_t()`` give matrices
    :func:`det_oracle` takes.
    """
    return _RatPoly([0, 1])


def det_oracle(matrix: Sequence[Sequence]) -> PrecPoly:
    """Exact determinant of a small matrix with degree<=1 rational entries.

    Uses fraction-free (Bareiss) elimination over the polynomial ring Q[t]:
    every intermediate division is exact, so the result is the exact
    determinant polynomial.  Hard-limited to order 12; this is an oracle for
    validating closed forms, not a production determinant.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise InvalidParameterError("oracle requires a nonempty square matrix")
    if n > DET_ORACLE_MAX_ORDER:
        raise SizeLimitError(
            f"determinant oracle limited to order {DET_ORACLE_MAX_ORDER}, got {n}"
        )
    a = [[_coerce_entry(x) for x in row] for row in matrix]
    for row in a:
        for entry in row:
            if entry.degree > 1:
                raise InvalidParameterError("oracle entries must have degree <= 1")
    sign = 1
    prev = _RatPoly([1])
    for k in range(n - 1):
        if a[k][k].is_zero():
            for r in range(k + 1, n):
                if not a[r][k].is_zero():
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return PrecPoly((Fraction(0),))
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.divexact(prev)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    if sign < 0:
        det = -det
    if det.is_zero():
        return PrecPoly((Fraction(0),))
    return PrecPoly(coeffs=tuple(det.c))


# ---------------------------------------------------------------------------
# Limit functions on the open unit disk
# ---------------------------------------------------------------------------

LIMIT_INTERIOR = "p"
LIMIT_RECIPROCAL = "p_tilde"


@dataclass(frozen=True)
class LimitFunction:
    """One of the two rational limits of the characteristic polynomials.

    ``p`` is the interior limit (beta - 1 - t) / ((1 - t) (beta - t));
    ``p_tilde`` is the limit of the reversed polynomials,
    (beta - 1 - t) / ((1 - t) (beta - 1)).  Both need real beta > 1 and are
    evaluated on the open unit disk away from poles; each has a single zero
    at beta - 1.
    """

    tag: str
    beta: BetaParam

    def __post_init__(self):
        if self.tag not in (LIMIT_INTERIOR, LIMIT_RECIPROCAL):
            raise InvalidParameterError(f"unknown limit function tag {self.tag!r}")
        self.beta.require_class([REAL_GT1], "limit function")


def _limit_point(fn: LimitFunction, t, bits: int):
    tv = mpc_from(t)
    b = mpf_from(fn.beta.real_value)
    pole_tol = mp.mpf(2) ** (-bits // 2)
    if abs(tv - 1) <= pole_tol:
        raise PoleError("t = 1 is a pole of the limit functions")
    if fn.tag == LIMIT_INTERIOR and abs(tv - b) <= pole_tol:
        raise PoleError("t = beta is a pole of the interior limit function")
    if abs(tv) >= 1:
        raise InvalidParameterError(
            f"limit functions are defined on the open unit disk, |t| = {mp.nstr(abs(tv), 8)}"
        )
    return tv, b


def eval_limit(fn: LimitFunction, t, bits: int = DEFAULT_PRECISION_BITS):
    """Closed-form value of the limit function at t (|t| < 1)."""
    with with_precision(bits):
        tv, b = _limit_point(fn, t, bits)
        num = b - 1 - tv
        if fn.tag == LIMIT_INTERIOR:
            return num / ((1 - tv) * (b - tv))
        return num / ((1 - tv) * (b - 1))


def limit_derivative(fn: LimitFunction, t, bits: int = DEFAULT_PRECISION_BITS):
    """Closed-form derivative of the limit function at t (|t| < 1).

    For the interior limit: ((beta-t)**2 - (beta-t) - (1-t)) / ((1-t)**2 (beta-t)**2);
    for the reversed limit: (beta-2) / ((1-t)**2 (beta-1)).  Both are validated
    against central finite differences in the test suite.
    """
    with with_precision(bits):
        tv, b = _limit_point(fn, t, bits)
        one_mt = 1 - tv
        if fn.tag == LIMIT_INTERIOR:
            bmt = b - tv
            return (bmt * bmt - bmt - one_mt) / (one_mt * one_mt * bmt * bmt)
        return (b - 2) / (one_mt * one_mt * (b - 1))
