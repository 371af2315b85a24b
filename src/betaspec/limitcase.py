"""Degenerate-parameter analysis (beta = 1): exact block structure.

At beta = 1 the matrix drops to lower block triangular form with an all-zero
first row, so 0 is an eigenvalue with a one-dimensional kernel and every
other eigenvalue lives in the strictly positive block
``X = (lower shift) + ones`` of order n-1.  The kernel has a closed form:
B w = 0 for w = (1, s) means X s = -(e + e_1), whose first row gives
sum(s) = -2 and whose row i >= 2 then gives s_{i-1} = 1, so
w = (1, ..., 1, -n).

The dominant eigenvalue comes from the five-term form of p_n
(:func:`~betaspec.charpoly.sparse_form` with x = 1):
(1 - t)**2 p_n = -t + t**n b(t), b(t) = t**2 - (n + 1) t + (n + 1).  For
n >= 3 let T_n be the larger zero of b.  On [T_n, n] the function
t**(n-1) b(t) - 1 increases from -1 to n**(n-1) - 1, so it has one zero
lambda there and none beyond; lambda is the largest real eigenvalue, hence
the Perron root of X.  The proof of lambda < n is b(lambda) = lambda**(1-n)
< 1 = b(n), with b increasing past (n + 1)/2.  Since b(lambda) =
lambda**(1-n), lambda - T_n is about n**(1-n) / (n - 1), and
T_n = (n + 1) - sum_k C_k (n + 1)**-k with C_k the Catalan numbers, so

    lambda = n - 1/n - 1/n**2 - 2/n**3 - 4/n**4 - ...

up to a term of order n**(1-n): c1 = -1 and c2 = -1 exactly.
:func:`lambda_max_beta1` refines lambda from T_n and certifies it by a
ball sign-change bracket; the table reports the expansion checks
``c0_est = lam - n`` and ``c1_est = n*(lam - n)``.

The exact integer power method (:func:`power_method_trace`) only serves
the first components of ``reproduce table1`` and the trace that
``beta1 --format json`` prints: its iterates stay exact integer vectors and
the ratios of their first components are exact rationals.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .charpoly import eval_dense, sparse_form
from .errors import InvalidOrderError, InvalidParameterError
from .matrices import BetaParam
from .numerics import DEFAULT_PRECISION_BITS, decimal_str, with_precision
from .rootfind import PRECISION_LADDER, refine_real_root_reported

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
    return eval_dense(FIRST_COMPONENT_POLYS[k], n)[0]


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
    """Certified dominant eigenvalue with its first two expansion checks;
    ``iterations`` is the number of precision-ladder levels climbed."""

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
    """The dominant eigenvalue, certified, with its first two expansion checks.

    Newton on the five-term form
    (:func:`~betaspec.rootfind.refine_real_root_reported`) from the larger
    zero T_n of b, about n**(1-n) / (n - 1) below lambda, to
    ``target_digits + 2 ceil(log10 n) + 4`` digits, so that the ball
    sign-change bracket fixes the printed c0 = lam - n and c1 = n (lam - n)
    as well.  ``iterations`` counts the precision-ladder levels climbed.
    """
    if n < 2:
        raise InvalidOrderError("dominant-eigenvalue analysis requires n >= 2")
    if target_digits < 1:
        raise InvalidParameterError("target_digits must be >= 1")
    if n == 2:
        one = mp.mpf(1)
        return AsymptoticFit(n=2, lambda_max=one, c0_est=one - 2,
                             c1_est=2 * (one - 2), iterations=0)
    m = n + 1
    with with_precision(DEFAULT_PRECISION_BITS):
        t_n = (m + mp.sqrt(m * m - 4 * m)) / 2
    lam, bits = refine_real_root_reported(
        sparse_form(BetaParam.parse("1"), n), t_n,
        target_digits + 2 * math.ceil(math.log10(n)) + 4)
    with with_precision(bits + 32):
        return AsymptoticFit(n=n, lambda_max=lam, c0_est=lam - n, c1_est=n * (lam - n),
                             iterations=PRECISION_LADDER.index(bits) + 1)


def kernel_vector(n: int) -> list[Fraction]:
    """Exact kernel vector w = (1, s) with X s = -(e + e_1), so B w = 0.

    Row 1 of X s = -(e + e_1) reads sum(s) = -2, and row i >= 2 reads
    sum(s) + s_{i-1} = -1, so s_{i-1} = 1 for i = 2..n-1 and the last entry
    is -2 - (n - 2) = -n.  Hence w = (1, ..., 1, -n).
    """
    if n < 2:
        raise InvalidOrderError("kernel construction requires n >= 2")
    return [Fraction(1)] * (n - 1) + [Fraction(-n)]


def beta1_table_csv(ns: Sequence[int], target_digits: int) -> str:
    """Rows (n, c0_est, c1_est) for the asymptotic-expansion table: c0 to
    ``target_digits`` significant digits and c1 to one more, each certified
    by :func:`lambda_max_beta1`."""
    lines = ["n,c0_est,c1_est"]
    for n in ns:
        fit = lambda_max_beta1(n, target_digits)
        lines.append(f"{n},{decimal_str(fit.c0_est, target_digits)},"
                     f"{decimal_str(fit.c1_est, target_digits + 1)}")
    return "\n".join(lines) + "\n"
