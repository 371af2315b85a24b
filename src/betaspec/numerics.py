"""Scalar arithmetic contracts: exact rationals, precision-tracked floats,
fixed-point integers and integer balls.

Four scalar kinds flow through the package:

* exact rationals -- ``fractions.Fraction`` (re-exported as
  :data:`ExactRational`) plus :class:`QComplex` for complex numbers with
  rational real/imaginary parts.  These back every oracle and every closed
  form that stays rational.
* arbitrary-precision reals and complexes -- mpmath ``mpf``/``mpc`` carried
  at an explicit precision in bits, never below
  :data:`MIN_PRECISION_BITS`.
* fixed-point complexes -- :class:`Fixed`, a pair of Python integers at the
  scale 2**-p, each operation rounded to the nearest multiple of 2**-p.  It
  is Newton's arithmetic on the five-term form: the same operations as mpc
  without mpmath's per-object dispatch.  Values enter by :func:`fixed_from`
  and leave as mpf or mpc at the ambient precision.
* complex balls -- :class:`Ball`, a :class:`Fixed` midpoint with an integer
  radius at the same scale, rounded outward.  It is the package's one
  enclosure arithmetic: the eigensolver's inclusion disks on both routes,
  the refinement's sign change and the Rouché count.  Values enter by
  :func:`ball_from` and leave as integer bounds on the modulus or as a
  certain sign.

Precision does not live in hidden mutable state: every routine that computes
at precision P does so inside :func:`with_precision` and hands back plain
immutable mpf/mpc values.  (mpmath's context is process-global, so run
concurrent work in separate processes, not threads.)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero, mpc_add, mpc_mul, mpf_add, mpf_mul

from .errors import InvalidParameterError, PrecisionError

ExactRational = Fraction

MIN_PRECISION_BITS = 64
DEFAULT_PRECISION_BITS = 256


def with_precision(bits: int):
    """Context manager running mpmath arithmetic at ``bits`` of working
    precision::

        with with_precision(256):
            ...

    The precision is restored on exit, also when an exception leaves the
    block.  Raises :class:`PrecisionError` at the call if ``bits`` is below 64.
    """
    if bits < MIN_PRECISION_BITS:
        raise PrecisionError(
            f"working precision {bits} bits is below the minimum "
            f"{MIN_PRECISION_BITS}"
        )
    return mp.workprec(bits)


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

    def __complex__(self):
        return complex(float(self.re), float(self.im))

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


class Fixed:
    """The complex number (re + i im) 2**-p, with re and im Python integers.

    ``+`` and ``-`` are exact, and so is ``*`` by an int; ``*``, ``/`` and
    ``**`` round each part to the nearest multiple of 2**-p, and keep a real
    value (im = 0) exactly real.  These are the operations of
    :func:`~betaspec.charpoly.eval_sparse` and of Newton's step on it, where
    an int stands for itself in ``n * b``, ``1 - t`` and ``1 / z``.
    """

    __slots__ = ("re", "im", "p")

    def __init__(self, re: int, im: int, p: int):
        self.re, self.im, self.p = re, im, p

    def __add__(self, x):
        return Fixed(self.re + x.re, self.im + x.im, self.p)

    def __sub__(self, x):
        return Fixed(self.re - x.re, self.im - x.im, self.p)

    def __rsub__(self, x: int):
        return Fixed((x << self.p) - self.re, -self.im, self.p)

    def __mul__(self, x):
        a, b, p = self.re, self.im, self.p
        if isinstance(x, int):
            return Fixed(a * x, b * x, p)
        c, d, half = x.re, x.im, 1 << (p - 1)
        return Fixed((a * c - b * d + half) >> p, (a * d + b * c + half) >> p, p)

    __rmul__ = __mul__

    def __truediv__(self, x):
        a, b, c, d, p = self.re, self.im, x.re, x.im, self.p
        den = c * c + d * d  # 0 raises ZeroDivisionError
        return Fixed(_round_div((a * c + b * d) << p, den),
                     _round_div((b * c - a * d) << p, den), p)

    def __rtruediv__(self, x: int):
        return Fixed(x << self.p, 0, self.p) / self

    def __pow__(self, k: int):
        return _power(Fixed(1 << self.p, 0, self.p), self, k)

    def __bool__(self):
        return bool(self.re or self.im)

    def abs2(self) -> int:
        """|self|**2 exactly, at the scale 2**-2p."""
        return self.re * self.re + self.im * self.im

    def rounded(self, bits: int) -> "Fixed":
        """Each part rounded to nearest at ``bits`` significant bits."""
        return Fixed(_round_bits(self.re, bits), _round_bits(self.im, bits), self.p)

    def to_mp(self, real: bool):
        """The real part as mpf if ``real``, else the value as mpc, rounded
        to the ambient precision."""
        prec, rnd = mp.mp._prec_rounding
        re = from_man_exp(self.re, -self.p, prec, rnd)
        if real:
            return mp.make_mpf(re)
        return mp.make_mpc((re, from_man_exp(self.im, -self.p, prec, rnd)))


def fixed_from(x, p: int) -> Fixed:
    """``x`` (Fraction, QComplex, float, complex, mpf or mpc) as a
    :class:`Fixed` at the scale 2**-p, each part rounded to nearest by one
    exact integer division."""
    return Fixed(*(_round_div(num << p, den) for num, den in _ratios(x)), p)


def _ratios(x) -> tuple:
    """The real and imaginary parts of ``x`` as (numerator, denominator)."""
    if isinstance(x, (complex, mp.mpc, QComplex)):
        parts = (x.re, x.im) if isinstance(x, QComplex) else (x.real, x.imag)
    else:
        parts = (x, 0)
    return tuple((fraction_from_mpf(v) if isinstance(v, mp.mpf) else v).as_integer_ratio()
                 for v in parts)


class Ball:
    """The disk |z - (re + i im) 2**-p| <= rad 2**-p, re, im and rad Python
    integers (midpoint-radius arithmetic; van der Hoeven, "Ball arithmetic",
    2009).  Each result holds x op y for all x, y in the operands: ``+``,
    ``-``, unary ``-`` and ``*`` by an int are exact (the radii add); a
    product of balls rounds its midpoint to nearest (off by under one unit)
    and takes the radius |m1| r2 + |m2| r1 + r1 r2, each |m| and the sum
    rounded up, plus one unit if the midpoint rounded.  These are the
    operations of :func:`~betaspec.charpoly.eval_sparse`, of Horner's rule
    and of the Rouché count, where an int stands for itself.
    """

    __slots__ = ("re", "im", "rad", "p")

    def __init__(self, re: int, im: int, rad: int, p: int):
        self.re, self.im, self.rad, self.p = re, im, rad, p

    def __add__(self, x):
        return Ball(self.re + x.re, self.im + x.im, self.rad + x.rad, self.p)

    def __sub__(self, x):
        return Ball(self.re - x.re, self.im - x.im, self.rad + x.rad, self.p)

    def __neg__(self):
        return Ball(-self.re, -self.im, self.rad, self.p)

    def __mul__(self, x):
        a, b, r, p = self.re, self.im, self.rad, self.p
        if isinstance(x, int):
            return Ball(a * x, b * x, r * abs(x), p)
        c, d, s = x.re, x.im, x.rad
        re, im, unit = a * c - b * d, a * d + b * c, 1 << p
        rad = -(-(_abs_up(a, b) * s + _abs_up(c, d) * r + r * s) >> p)
        rad += bool((re | im) & (unit - 1))  # the midpoint rounds
        return Ball((re + (unit >> 1)) >> p, (im + (unit >> 1)) >> p, rad, p)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(Ball(1 << self.p, 0, 0, self.p), self, k)

    def sup_abs(self) -> int:
        """An upper bound on |z| over the ball, in units of 2**-p."""
        return _abs_up(self.re, self.im) + self.rad

    def inf_abs(self) -> int:
        """A lower bound on |z| over the ball, in units of 2**-p (<= 0 if
        the ball may hold 0)."""
        return math.isqrt(self.re * self.re + self.im * self.im) - self.rad

    def sign(self) -> int:
        """1 or -1 if the real part has that sign over the whole ball, else 0."""
        return (self.re > self.rad) - (self.re < -self.rad)


def ball_from(x, p: int) -> Ball:
    """``x`` (Fraction, QComplex, float, complex, mpf or mpc) as a
    :class:`Ball` at the scale 2**-p: each part rounded to nearest, and
    radius 1 unless both parts are multiples of 2**-p (radius 0)."""
    ratios = _ratios(x)
    mids = [_round_div(num << p, den) for num, den in ratios]
    exact = all(m * den == num << p for m, (num, den) in zip(mids, ratios))
    return Ball(*mids, 0 if exact else 1, p)


def _power(out, base, k: int):
    """out * base**k, by squaring."""
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        base = base * base if k else base
    return out


def _abs_up(a: int, b: int) -> int:
    """ceil(sqrt(a**2 + b**2))."""
    return math.isqrt(a * a + b * b - 1) + 1 if b else abs(a)


def _round_div(u: int, v: int) -> int:
    """The integer nearest to u / v (v > 0), ties up."""
    return (u + (v >> 1)) // v


def _round_bits(v: int, bits: int) -> int:
    drop = abs(v).bit_length() - bits
    return v if drop <= 0 else ((v + (1 << (drop - 1))) >> drop) << drop


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
        return exact_str(x)
    return decimal_str(x, digits)


def exact_str(x) -> str:
    """``str(x)`` of an int, Fraction or QComplex, also past CPython's digit
    cap on int-to-str conversion (``sys.get_int_max_str_digits()``)."""
    try:
        return str(x)
    except ValueError:  # past the cap: Decimal(int) converts in binary
        if not isinstance(x, QComplex):
            return ratio_str(*map(Decimal, x.as_integer_ratio()))
        if x.im == 0:
            return exact_str(x.re)
        return f"{exact_str(x.re)}{'+' if x.im >= 0 else '-'}{exact_str(abs(x.im))}i"


def ratio_str(num: Decimal, den: Decimal) -> str:
    """``str(Fraction(num, den))`` for Decimal integers num/den in lowest
    terms with den > 0."""
    return f"{num}" if den == 1 else f"{num}/{den}"
