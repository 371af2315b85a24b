"""Construction of the beta-matrix family and its companion blocks.

The family under study is the order-n shift matrix (ones on the first
subdiagonal) corrected by the rank-one term ``(v - e_1) e^T`` with
``v_j = beta**-j``.  Explicitly, entry (s, t) with 1-based indices is::

    [s - t == 1] + beta**-s - [s == 1]

so the first row is constantly ``beta**-1 - 1``, the subdiagonal carries
``beta**-s + 1``, and every other entry of row s equals ``beta**-s``.

This module also builds the auxiliary matrices used by the determinant
analysis: the tridiagonal-with-border matrix ``-I + t*(upper shift - e_n e^T)``,
the shifted matrix ``t*I - B``, and, for beta = 1, the strictly positive
lower-right block ``X = (lower shift) + ones``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvalidOrderError, InvalidParameterError
from .numerics import (
    DEFAULT_PRECISION_BITS,
    QComplex,
    mpc_from,
    mpf_from,
    parse_scalar,
    scalar_str,
    with_precision,
)


@dataclass(frozen=True)
class BetaParam:
    """Validated nonzero beta with an exact value: a Fraction exactly when
    beta is real (an int, or a QComplex with imaginary part 0, is stored as
    one), else a QComplex.  So two spellings of one beta are equal, hash
    alike and print alike.  Clusters, outliers and limits need :attr:`real_gt1`.
    """

    value: Fraction | QComplex

    def __post_init__(self):
        v = self.value
        if isinstance(v, QComplex) and v.is_real:
            v = v.re
        if isinstance(v, int):
            v = Fraction(v)
        if not isinstance(v, (Fraction, QComplex)):
            raise InvalidParameterError(
                f"beta must be exact rational or complex-rational, got {type(v).__name__}"
            )
        if not v:
            raise InvalidParameterError("beta must be nonzero")
        object.__setattr__(self, "value", v)

    @classmethod
    def parse(cls, text: str) -> "BetaParam":
        return cls(parse_scalar(text))

    @property
    def is_real(self) -> bool:
        return isinstance(self.value, Fraction)

    @property
    def real_value(self) -> Fraction:
        if self.is_real:
            return self.value
        raise InvalidParameterError(f"beta {self} is not real")

    @property
    def real_gt1(self) -> bool:
        return self.is_real and self.value > 1

    def require_real_gt1(self, feature: str) -> None:
        if not self.real_gt1:
            raise InvalidParameterError(f"{feature} requires real beta > 1, got beta={self}")

    def abs2(self) -> Fraction:
        return self.value * self.value if self.is_real else self.value.abs2()

    @property
    def inverse(self) -> Fraction | QComplex:
        """Exact 1/beta, of the type of ``value``."""
        return 1 / self.value

    def inverse_powers(self, count: int) -> list:
        """Exact [beta**-1, ..., beta**-count]."""
        inv = self.inverse
        out = []
        acc = inv
        for _ in range(count):
            out.append(acc)
            acc = acc * inv
        return out

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class BetaMatrix:
    """Structured representation of the corrected shift matrix of order n.

    Only (beta, n) is stored; dense materializations are produced on demand.
    Matrix-vector products use the shift-plus-rank-one structure in O(n).
    """

    beta: BetaParam
    n: int

    def correction_vector(self) -> list:
        """Exact v with v_j = beta**-j, j = 1..n."""
        return self.beta.inverse_powers(self.n)

    def entry(self, s: int, t: int):
        """Exact entry at 1-based position (s, t)."""
        if not (1 <= s <= self.n and 1 <= t <= self.n):
            raise InvalidOrderError(f"index ({s}, {t}) outside order {self.n}")
        val = self.beta.inverse_powers(s)[-1]
        if s == 1:
            val = val - 1
        if s - t == 1:
            val = val + 1
        return val

    def dense_exact(self) -> list[list]:
        v = self.correction_vector()
        rows = []
        for s in range(1, self.n + 1):
            base = v[s - 1] - 1 if s == 1 else v[s - 1]
            row = [base] * self.n
            if s >= 2:
                row[s - 2] = base + 1
            rows.append(row)
        return rows

    def dense_mp(self, bits: int = DEFAULT_PRECISION_BITS) -> list[list]:
        """Dense matrix over mpf (real beta) or mpc at ``bits`` precision."""
        conv = mpf_from if self.beta.is_real else mpc_from
        with with_precision(bits):
            return [[conv(x) for x in row] for row in self.dense_exact()]

    def dense_numpy(self) -> np.ndarray:
        """Dense float64/complex128 materialization for cross-checks."""
        import numpy as np
        rows = self.dense_exact()
        if self.beta.is_real:
            return np.array([[float(x) for x in row] for row in rows], dtype=float)
        return np.array([[complex(x) for x in row] for row in rows])

    def matvec_exact(self, x: Sequence) -> list:
        """Structured product B @ x over exact scalars, O(n)."""
        if len(x) != self.n:
            raise InvalidOrderError("vector length mismatch")
        v = self.correction_vector()
        total = sum(x)
        out = [(v[i] - (1 if i == 0 else 0)) * total for i in range(self.n)]
        for i in range(1, self.n):
            out[i] = out[i] + x[i - 1]
        return out

    def trace_exact(self):
        """Exact trace: sum(beta**-i for i=1..n) - 1."""
        return sum(self.correction_vector()) - 1


def build_beta_matrix(beta: BetaParam, n: int) -> BetaMatrix:
    """Construct the order-n member of the family for a validated beta."""
    if not isinstance(beta, BetaParam):
        raise InvalidParameterError("beta must be a BetaParam")
    if n < 1:
        raise InvalidOrderError(f"matrix order must be >= 1, got {n}")
    return BetaMatrix(beta=beta, n=n)


def build_aux_matrix(t, n: int) -> list[list]:
    """Bordered bidiagonal matrix -I + t*(upper shift - e_n e^T), order n.

    Entries: -1 on the diagonal, t on the superdiagonal, last row
    (-t, ..., -t, -1-t).  ``t`` may be exact (int/Fraction/QComplex), an
    mpf/mpc, or ``charpoly.symbolic_t()``; the entries follow the input kind.
    """
    if n < 1:
        raise InvalidOrderError(f"order must be >= 1, got {n}")
    if isinstance(t, int):
        t = Fraction(t)
    one = t * 0 + 1
    rows = []
    for i in range(n):
        row = [t * 0] * n
        row[i] = -one
        if i + 1 < n:
            row[i + 1] = t
        rows.append(row)
    for j in range(n - 1):
        rows[n - 1][j] = -t
    rows[n - 1][n - 1] = -one - t
    return rows


def build_shifted(beta: BetaParam, n: int, t) -> list[list]:
    """Dense t*I - B entrywise, exact when ``t`` is exact.

    At ``charpoly.symbolic_t()`` the diagonal is built as ``t + (-b_ii)``, so a
    complex beta reaches the oracle's coercion and raises
    :class:`InvalidParameterError`.
    """
    mat = build_beta_matrix(beta, n).dense_exact()
    out = []
    for i in range(n):
        row = [-x for x in mat[i]]
        row[i] = t + row[i]
        out.append(row)
    return out


def build_x_block(n: int) -> list[list[int]]:
    """All-positive block of order n-1 for beta = 1: ones plus subdiagonal ones.

    Entry (s, t) is 2 on the subdiagonal (s = t+1) and 1 elsewhere.
    """
    if n < 2:
        raise InvalidOrderError(f"block requires n >= 2, got {n}")
    m = n - 1
    rows = [[1] * m for _ in range(m)]
    for i in range(1, m):
        rows[i][i - 1] = 2
    return rows


def matrix_to_csv(rows: Sequence[Sequence], digits: int = 17,
                  exact: bool = False) -> str:
    """CSV rendering: one matrix row per line, entries as decimal strings
    at the requested digit count, or exact "p/q" strings with ``exact``."""
    return "".join(",".join(scalar_str(x, digits, exact=exact) for x in row) + "\n"
                   for row in rows)
