"""Scalar arithmetic contracts: exact rationals and precision-tracked floats.

Two scalar kinds flow through the package:

* exact rationals -- ``fractions.Fraction`` (re-exported as
  :data:`ExactRational`) plus :class:`QComplex` for complex numbers with
  rational real/imaginary parts.  These back every oracle and every closed
  form that stays rational.
* arbitrary-precision reals and complexes -- mpmath ``mpf``/``mpc`` carried
  at an explicit precision in bits, never below
  :data:`MIN_PRECISION_BITS`.

Precision does not live in hidden mutable state: every routine that computes
at precision P does so inside :func:`with_precision` and hands back plain
immutable mpf/mpc values.  (mpmath's context is process-global, so run
concurrent work in separate processes, not threads.)
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import fzero, mpc_add, mpc_mul, mpf_add, mpf_mul

from .errors import InvalidParameterError, PrecisionError

ExactRational = Fraction

MIN_PRECISION_BITS = 64
DEFAULT_PRECISION_BITS = 256


def with_precision(bits: int):
    """Context manager running mpmath arithmetic, real and interval
    (``mp.iv``), at ``bits`` of working precision::

        with with_precision(256):
            ...

    Both precisions are restored on exit, also when an exception leaves the
    block.  Raises :class:`PrecisionError` at the call if ``bits`` is below 64.
    """
    if bits < MIN_PRECISION_BITS:
        raise PrecisionError(
            f"working precision {bits} bits is below the minimum "
            f"{MIN_PRECISION_BITS}"
        )
    return _precision_scope(bits)


@contextmanager
def _precision_scope(bits: int):
    saved, mp.iv.prec = mp.iv.prec, bits
    try:
        with mp.workprec(bits):
            yield
    finally:
        mp.iv.prec = saved


@dataclass(frozen=True)
class QComplex:
    """Complex number with exact rational real and imaginary parts.

    Closed under +, -, *, / and integer powers, which is all the closed-form
    coefficient formulas need.  Hashable, so it can parameterize cached
    analyses the same way a Fraction can.
    """

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def _coerce(x) -> "QComplex":
        if isinstance(x, QComplex):
            return x
        if isinstance(x, (int, Fraction)):
            return QComplex(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} to QComplex")

    def __add__(self, other):
        o = self._coerce(other)
        return QComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        return QComplex(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conjugate(self) -> "QComplex":
        return QComplex(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "QComplex":
        a2 = self.abs2()
        if a2 == 0:
            raise ZeroDivisionError("inverse of zero QComplex")
        return QComplex(self.re / a2, -self.im / a2)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("QComplex powers must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        out = QComplex(Fraction(1))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or plain decimal text into the exact rational it denotes."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"cannot parse rational {text!r}: {exc}") from exc


def parse_scalar(text: str) -> Fraction | QComplex:
    """Parse a real or complex scalar with exact rational components.

    Accepts "p/q", "3", "1.25" for reals and "a+bi" / "a-bj" / "2i" / "-i"
    for complex values whose components are themselves rational or decimal.
    Decimals are converted to the exact rational they denote.
    """
    t = text.strip().replace(" ", "")
    if not t:
        raise InvalidParameterError("empty scalar string")
    if t[-1] not in "ij":
        return parse_rational(t)
    body = t[:-1]
    re_part, im_part = "0", body
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/.":
            re_part, im_part = body[:k], body[k:]
            break
    if im_part in ("", "+"):
        im_part = "1"
    elif im_part == "-":
        im_part = "-1"
    return QComplex(parse_rational(re_part), parse_rational(im_part))


def mpf_from(x) -> mp.mpf:
    """Convert a real scalar, or a complex one with imaginary part 0, to mpf
    at the ambient precision."""
    if isinstance(x, mp.mpf):
        return +x
    if isinstance(x, Fraction):
        # num / (odd * 2**s) as (num / odd) * 2**-s.  Scaling by a power of
        # two is exact, so this rounds exactly as mp.mpf(num) / den does; but
        # dividing by den itself makes mpmath strip den's trailing zero bits
        # a byte at a time, shifting the whole integer each time (quadratic).
        den = x.denominator
        s = (den & -den).bit_length() - 1
        return mp.ldexp(mp.mpf(x.numerator) / (den >> s), -s)
    if isinstance(x, int):
        return mp.mpf(x)
    if isinstance(x, float):
        return mp.mpf(x)
    if isinstance(x, QComplex) and x.is_real:
        return mpf_from(x.re)
    if isinstance(x, mp.mpc) and x.imag == 0:
        return +x.real
    raise TypeError(f"cannot convert {type(x).__name__} to mpf")


def mpc_from(x) -> mp.mpc:
    """Convert any supported scalar to mpc at the ambient precision."""
    if isinstance(x, mp.mpc):
        return +x
    if isinstance(x, QComplex):
        return mp.mpc(mpf_from(x.re), mpf_from(x.im))
    if isinstance(x, complex):
        return mp.mpc(x)
    return mp.mpc(mpf_from(x))


def polyval(hi, x):
    """Value at ``x`` of the polynomial with coefficients ``hi``, highest
    degree first, at the ambient precision.

    Runs the operation sequence of :func:`mpmath.polyval`, ``p = c + x*p``,
    on the raw libmp tuples, so every step is the same correctly rounded
    operation and the result is the same value, without mpmath's per-scalar
    dispatch.  ``x`` and the coefficients are mpf or mpc; if any is complex,
    all are evaluated as mpc.
    """
    prec, rnd = mp.mp._prec_rounding
    if isinstance(x, mp.mpf) and all(isinstance(c, mp.mpf) for c in hi):
        mul, add = mpf_mul, mpf_add
        xv = x._mpf_
        cs = [c._mpf_ for c in hi]
    else:
        mul, add = mpc_mul, mpc_add
        xv = _mpc_tuple(x)
        cs = [_mpc_tuple(c) for c in hi]
    p = cs[0]
    for c in cs[1:]:
        p = add(c, mul(xv, p, prec, rnd), prec, rnd)
    return mp.make_mpf(p) if mul is mpf_mul else mp.make_mpc(p)


def _mpc_tuple(x) -> tuple:
    return x._mpc_ if isinstance(x, mp.mpc) else (x._mpf_, fzero)


def fraction_from_mpf(x: mp.mpf) -> Fraction:
    """Exact dyadic rational value of an mpf (mpf values are m * 2**e)."""
    if not mp.isfinite(x):
        raise InvalidParameterError("cannot convert non-finite mpf to Fraction")
    if x == 0:
        return Fraction(0)
    m = int(x.man) * (-1 if x < 0 else 1)
    e = int(x.exp)
    if e >= 0:
        return Fraction(m * (1 << e))
    return Fraction(m, 1 << (-e))


def decimal_str(x, digits: int) -> str:
    """Deterministic decimal rendering with ``digits`` significant digits."""
    if isinstance(x, Fraction):
        with mp.workprec(int(digits * 3.4) + 32):
            return mp.nstr(mpf_from(x), digits)
    if isinstance(x, QComplex):
        with mp.workprec(int(digits * 3.4) + 32):
            return mp.nstr(mpc_from(x), digits)
    if isinstance(x, (mp.mpf, mp.mpc)):
        return mp.nstr(x, digits)
    if isinstance(x, int):
        return str(x)
    return mp.nstr(mp.mpf(x), digits)


def scalar_str(x, digits: int, exact: bool = False) -> str:
    """Render a scalar either exactly (p/q form) or as a decimal string."""
    if exact and isinstance(x, (int, Fraction, QComplex)):
        return str(x)
    return decimal_str(x, digits)
