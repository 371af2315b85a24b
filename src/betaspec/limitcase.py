"""Degenerate-parameter analysis (beta = 1): exact block structure.

At beta = 1 the matrix drops to lower block triangular form with an all-zero
first row, so 0 is an eigenvalue with a one-dimensional kernel and every
other eigenvalue lives in the strictly positive block
``X = (lower shift) + ones`` of order n-1.  The kernel has a closed form:
B w = 0 for w = (1, s) means X s = -(e + e_1), whose first row gives
sum(s) = -2 and whose row i >= 2 then gives s_{i-1} = 1, so
w = (1, ..., 1, -n).  Positivity makes the dominant eigenvalue simple
(Perron theory), so the power method started from the all-ones vector
converges; all iterates stay exact integer vectors, the ratios of first
components are exact rationals converging to the dominant eigenvalue, and
the row-sum bound keeps that eigenvalue strictly below n.

Empirically the dominant eigenvalue behaves like ``n - 1/n + c2/n**2 + ...``;
the module reports the first two expansion checks (``c0_est = lam - n``,
``c1_est = n*(lam - n)``) and offers an optional extrapolation for c2 that
makes no ground-truth claim.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .errors import (
    ConvergenceFailureError,
    InvalidOrderError,
    InvalidParameterError,
)
from .numerics import decimal_str, mpf_from, with_precision

# Iteration cap of lambda_max_beta1.  X has row sums <= n, so after k
# products no entry exceeds n**k and the exact integer iterates stay below
# (MAX_POWER_ITERATIONS + 1) * log2(n) + 1 bits.
MAX_POWER_ITERATIONS = 20000

# Closed-form first components (v_k)_1 of the exact power iteration as
# polynomials in n (low -> high coefficients), k = 1..5.  Verified against
# the iteration itself in the test suite; used by the table reproduction.
FIRST_COMPONENT_POLYS = {
    1: (-1, 1),
    2: (-1, -1, 1),
    3: (0, -2, -1, 1),
    4: (1, 0, -3, -1, 1),
    5: (1, 3, 0, -4, -1, 1),
}


def first_component_reference(k: int, n: int) -> int:
    """Evaluate the closed-form (v_k)_1 polynomial at integer n."""
    if k not in FIRST_COMPONENT_POLYS:
        raise InvalidParameterError(f"reference first components cover k=1..5, got {k}")
    acc = 0
    for c in reversed(FIRST_COMPONENT_POLYS[k]):
        acc = acc * n + c
    return acc


def _block_apply(v: list) -> list:
    """One exact product X @ v: row i gets sum(v) plus v[i-1] from the subdiagonal."""
    total = sum(v)
    out = [total] * len(v)
    for i in range(1, len(v)):
        out[i] += v[i - 1]
    return out


@dataclass(frozen=True)
class PowerTrace:
    """Exact power-method transcript on the positive block of order n-1.

    ``iterates[k]`` is the integer vector v_k (v_0 all ones), all entries
    strictly positive so every ratio r_k = (v_{k+1})_1 / (v_k)_1 is well
    defined; the ratios converge to the dominant eigenvalue.
    """

    n: int
    iterates: tuple
    first_components: tuple
    ratios: tuple

    def as_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "first_components": [str(x) for x in self.first_components],
            "ratios": [str(r) for r in self.ratios],
            "iterates": [[str(x) for x in v] for v in self.iterates],
        })


def power_method_trace(n: int, iterations: int) -> PowerTrace:
    """Exact integer power iterates v_0..v_K on the order-(n-1) block."""
    if n < 3:
        raise InvalidOrderError("power trace requires n >= 3")
    if iterations < 1:
        raise InvalidParameterError("need at least one iteration")
    v = [1] * (n - 1)
    iterates = [tuple(v)]
    for _ in range(iterations + 1):
        v = _block_apply(v)
        iterates.append(tuple(v))
    firsts = tuple(vec[0] for vec in iterates[:iterations + 1])
    ratios = tuple(Fraction(iterates[k + 1][0], iterates[k][0])
                   for k in range(iterations + 1))
    return PowerTrace(n=n, iterates=tuple(iterates[:iterations + 1]),
                      first_components=firsts, ratios=ratios)


@dataclass(frozen=True)
class AsymptoticFit:
    """Dominant-eigenvalue estimate with its first two expansion checks."""

    n: int
    lambda_max: mp.mpf
    c0_est: mp.mpf
    c1_est: mp.mpf
    iterations: int

    def as_json(self, digits: int = 12) -> str:
        return json.dumps({
            "n": self.n,
            "lambda_max": decimal_str(self.lambda_max, digits + len(str(self.n)) + 2),
            "c0_est": decimal_str(self.c0_est, digits),
            "c1_est": decimal_str(self.c1_est, digits),
            "iterations": self.iterations,
        })


def lambda_max_beta1(n: int, target_digits: int) -> AsymptoticFit:
    """Dominant eigenvalue of the positive block by ratio-converged power method.

    Iterates exactly over integers until the first-component ratios settle to
    the digit target (|r_{k+1} - r_k| < 10**-(target_digits+2)), at most
    ``MAX_POWER_ITERATIONS`` times.  The ratio of first components is the
    convergence quantity, not a full Rayleigh quotient.
    """
    if n < 2:
        raise InvalidOrderError("dominant-eigenvalue analysis requires n >= 2")
    if target_digits < 1:
        raise InvalidParameterError("target_digits must be >= 1")
    prec = max(256, int(target_digits * 3.4) + 64)
    if n == 2:
        with with_precision(prec):
            one = mp.mpf(1)
            return AsymptoticFit(n=2, lambda_max=one, c0_est=one - 2,
                                 c1_est=2 * (one - 2), iterations=0)

    stop = Fraction(1, 10 ** (target_digits + 2))
    v = [1] * (n - 1)
    r_prev: Fraction | None = None
    for k in range(MAX_POWER_ITERATIONS):
        w = _block_apply(v)
        r = Fraction(w[0], v[0])
        if r_prev is not None and abs(r - r_prev) < stop:
            with with_precision(prec):
                lam = mpf_from(r)
                return AsymptoticFit(n=n, lambda_max=lam, c0_est=lam - n,
                                     c1_est=n * (lam - n), iterations=k + 1)
        r_prev = r
        v = w
    raise ConvergenceFailureError(
        f"power method did not settle to {target_digits} digits in "
        f"{MAX_POWER_ITERATIONS} iterations")


def gerschgorin_check(n: int) -> bool:
    """True iff the dominant eigenvalue, computed to 12 digits, is strictly below n.

    The block is irreducible with row sums n-1 (first row) and n (the rest),
    so the strict bound is the expected outcome for every n.
    """
    fit = lambda_max_beta1(n, 12)
    return bool(fit.lambda_max < n)


def kernel_vector(n: int) -> list[Fraction]:
    """Exact kernel vector w = (1, s) with X s = -(e + e_1), so B w = 0.

    Row 1 of X s = -(e + e_1) reads sum(s) = -2, and row i >= 2 reads
    sum(s) + s_{i-1} = -1, so s_{i-1} = 1 for i = 2..n-1 and the last entry
    is -2 - (n - 2) = -n.  Hence w = (1, ..., 1, -n).
    """
    if n < 2:
        raise InvalidOrderError("kernel construction requires n >= 2")
    return [Fraction(1)] * (n - 1) + [Fraction(-n)]


def extrapolate_c2(ns: Sequence[int] = (50, 100, 200, 400),
                   target_digits: int = 16) -> float:
    """Least-squares extrapolation of the second expansion coefficient.

    Fits d_n = n**2 * (lam - n) + n against c2 + c3/n.  Reported as an
    estimate only; no reference value exists to check it against.
    """
    if len(ns) < 2:
        raise InvalidParameterError("need at least two orders to extrapolate")
    xs, ys = [], []
    with with_precision(max(256, 8 * target_digits)):
        for n in ns:
            fit = lambda_max_beta1(n, target_digits)
            d = n * n * (fit.lambda_max - n) + n
            xs.append(1.0 / n)
            ys.append(float(d))
    k = len(xs)
    sx = sum(xs); sy = sum(ys)
    sxx = sum(x * x for x in xs); sxy = sum(x * y for x, y in zip(xs, ys))
    slope = (k * sxy - sx * sy) / (k * sxx - sx * sx)
    return (sy - slope * sx) / k


def beta1_table_csv(ns: Sequence[int], target_digits: int = 12) -> str:
    """Rows (n, c0_est, c1_est) for the asymptotic-expansion table."""
    lines = ["n,c0_est,c1_est"]
    for n in ns:
        fit = lambda_max_beta1(n, target_digits)
        lines.append(f"{n},{decimal_str(fit.c0_est, 10)},{decimal_str(fit.c1_est, 11)}")
    return "\n".join(lines) + "\n"
