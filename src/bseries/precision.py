"""Ball arithmetic on integer triples.

An :class:`ApproxReal` is three Python ints ``(s, p, units)``: the real
number it stands for lies within ``units * 2^-p`` of ``s * 2^-p``.  Every
bound is integer arithmetic, so no ball is narrower than its error:

* addition and negation are exact; the exponents are aligned to the larger
  one by shifting;
* multiplication, division and :meth:`~ApproxReal.sqrt` take the exact
  product, one floor division or one ``math.isqrt``, floor once to the
  result's exponent and count one unit for that floor, on top of the
  propagated radius rounded up to whole units;
* a result's exponent is the larger of its operands' exponents, and a
  square root keeps its operand's, so products of integers stay exact.

Precision enters a ball only where a value is made, as an explicit
exponent; no operation reads a global working precision.  Integers enter
exactly at ``p = 0``; :meth:`ApproxReal.from_ratio` floors an integer ratio
once at a given ``2^-p``, with radius 0 only when the ratio is exact there.
The constants and the series evaluator build their triples as integer sums
over ``2^P`` with a counted error (``ceil_units`` rounds a bound up to whole
units) and hand them over as they are.  One consequence: a quotient of two
exact integer balls floors at ``2^0``, so a ratio that should keep bits is
built with ``from_ratio`` instead.

A ball prints from its integers alone: :meth:`ApproxReal.decimal` rounds
``s * 2^-p`` to n significant digits exactly, in ``mpmath.nstr``'s layout,
and ``repr`` shows the midpoint to 17 digits and ``units * 2^-p`` to 5.
The rounded integer is converted in chunks of at most 4,000 digits, split
at powers of 10, so any n prints under CPython's default limit of 4,300
digits on one int-to-str conversion, which the process owns and no module
here changes.
Arb keeps the same exact integer bookkeeping under its midpoint-radius
balls (Johansson, *Arb: efficient arbitrary-precision midpoint-radius
interval arithmetic*, IEEE Trans. Comput. 2017).
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "ApproxReal",
    "DIGITS_INF",
    "MAX_ATTEMPTS",
    "digits_to_bits",
    "attempt_bits",
    "ceil_units",
    "log10_floor",
]

# Reported digit count for an exact (zero-radius) ball.
DIGITS_INF = 10**9

# Verification retries double the working precision up to this many attempts.
MAX_ATTEMPTS = 4


def digits_to_bits(digits: int) -> int:
    """Working precision (bits) for a decimal-digit target: ceil(d*log2 10) + 32."""
    return math.ceil(digits * math.log2(10)) + 32


def attempt_bits(digits: int, attempt: int) -> int:
    """Precision for retry number ``attempt`` (0-based): doubles each time."""
    return digits_to_bits(digits) << attempt


def ceil_units(p: int, num: int, den: int) -> int:
    """ceil(2^p * num/den) for integers num >= 0, den > 0: a bound in units of 2^-p."""
    return -((-num << p) // den)


def log10_floor(n: int, d: int) -> int:
    """floor(log10(n/d)) for integers n, d > 0, exactly."""
    k = math.floor((n.bit_length() - d.bit_length()) * math.log10(2))
    while n * 10 ** max(-k, 0) < d * 10 ** max(k, 0):  # n/d < 10^k
        k -= 1
    while n * 10 ** max(-k - 1, 0) >= d * 10 ** max(k + 1, 0):  # n/d >= 10^(k+1)
        k += 1
    return k


def _int_text(x: int) -> str:
    """The decimal digits of an integer x >= 0, each ``str`` call on at most 4,000 of them.

    A b-bit x has at most ``n = floor(b * 0.30103) + 1`` digits, since 0.30103
    exceeds log10(2); a longer x is split at 10^m, m = n // 2, and the low
    part padded to m digits.
    """
    n = x.bit_length() * 30103 // 100000 + 1
    if n <= 4000:
        return str(x)
    m = n // 2
    hi, lo = divmod(x, 10**m)
    return _int_text(hi) + _int_text(lo).zfill(m)


def _coerce(x):
    if isinstance(x, ApproxReal):
        return x
    if isinstance(x, int):
        return ApproxReal.from_int(x)
    return NotImplemented


def _floored(s: int, units: int, p: int, t: int) -> "ApproxReal":
    """The exact ball ``(s, p, units)`` at exponent ``t <= p``: one floor, one unit if inexact."""
    k = p - t
    inexact = 1 if s & ((1 << k) - 1) else 0
    return ApproxReal(s >> k, t, -(-units >> k) + inexact)


class ApproxReal:
    """A real number within ``units * 2^-p`` of ``s * 2^-p``, for integers s, p >= 0, units >= 0."""

    __slots__ = ("s", "p", "units")

    def __init__(self, s: int, p: int, units: int):
        if not (isinstance(s, int) and isinstance(p, int) and isinstance(units, int)):
            raise TypeError("ApproxReal takes integers s, p and units")
        if p < 0 or units < 0:
            raise ValueError("ApproxReal needs p >= 0 and units >= 0")
        self.s, self.p, self.units = s, p, units

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def from_ratio(n: int, d: int, p: int) -> "ApproxReal":
        """n/d for integers with d != 0, floored once at 2^-p."""
        if d == 0:
            raise ZeroDivisionError("from_ratio with q == 0")
        if d < 0:
            n, d = -n, -d
        s, rem = divmod(n << p, d)
        return ApproxReal(s, p, 1 if rem else 0)

    @staticmethod
    def from_int(n: int) -> "ApproxReal":
        return ApproxReal(n, 0, 0)

    @staticmethod
    def from_fraction(q: Fraction, p: int) -> "ApproxReal":
        return ApproxReal.from_ratio(q.numerator, q.denominator, p)

    @staticmethod
    def exact_zero() -> "ApproxReal":
        return ApproxReal(0, 0, 0)

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = max(self.p, other.p)
        a, b = p - self.p, p - other.p
        return ApproxReal((self.s << a) + (other.s << b), p, (self.units << a) + (other.units << b))

    __radd__ = __add__

    def __neg__(self):
        return ApproxReal(-self.s, self.p, self.units)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        s1, u1, s2, u2 = self.s, self.units, other.s, other.units
        p = self.p + other.p
        units = abs(s1) * u2 + abs(s2) * u1 + u1 * u2
        return _floored(s1 * s2, units, p, max(self.p, other.p))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.excludes_zero():
            raise ZeroDivisionError("division by a ball containing zero")
        t = max(self.p, other.p)
        k = t + other.p - self.p
        s1, u1, s2, u2 = self.s, self.units, other.s, other.units
        if s2 < 0:
            s1, s2 = -s1, -s2
        q, rem = divmod(s1 << k, s2)
        # |a/b - mid_a/mid_b| <= (rad_a*|mid_b| + |mid_a|*rad_b) / (|mid_b| * (|mid_b| - rad_b))
        units = ceil_units(k, u1 * s2 + abs(s1) * u2, s2 * (s2 - u2)) + (1 if rem else 0)
        return ApproxReal(q, t, units)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def sqrt(self) -> "ApproxReal":
        s, p, u = self.s, self.p, self.units
        if s + u < 0:
            raise ValueError("sqrt of a negative ball")
        if s + u == 0:
            return ApproxReal.exact_zero()
        # sqrt(x * 2^-p) * 2^p = sqrt(x << p)
        if s <= u:
            # The ball reaches zero: sqrt([0, hi]) lies in [0, r * 2^-p].
            r = math.isqrt(((s + u) << p) - 1) + 1
            return ApproxReal(r, p + 1, r)
        x = s << p
        r = math.isqrt(x)
        # |sqrt(v) - sqrt(mid)| = |v - mid| / (sqrt(v) + sqrt(mid)) <= rad / sqrt(mid)
        return ApproxReal(r, p, ceil_units(p, u, r) + (0 if r * r == x else 1))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            # The reciprocal first: 1/x exists whenever x excludes zero, while
            # x^-n floored at x's exponent may reach zero when |x| is small.
            return (1 / self) ** (-n)
        result = ApproxReal.from_int(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __abs__(self):
        return ApproxReal(abs(self.s), self.p, self.units)

    # ------------------------------------------------------------------
    # bounds and predicates

    def upper_abs(self) -> Fraction:
        return Fraction(abs(self.s) + self.units, 1 << self.p)

    def contains_zero(self) -> bool:
        return abs(self.s) <= self.units

    def excludes_zero(self) -> bool:
        return abs(self.s) > self.units

    def to_fraction_bounds(self) -> tuple[Fraction, Fraction]:
        one = 1 << self.p
        return Fraction(self.s - self.units, one), Fraction(self.s + self.units, one)

    def to_digits(self) -> int:
        """Correct decimal digits: floor(-log10(rad / max(|mid|, 1))).

        Returns ``DIGITS_INF`` for an exact ball and clamps at 0 when the
        radius exceeds the midpoint scale.
        """
        if not self.units:
            return DIGITS_INF
        scale = max(abs(self.s), 1 << self.p)
        return 0 if self.units >= scale else log10_floor(scale, self.units)

    # ------------------------------------------------------------------

    def decimal(self, n: int) -> str:
        """The midpoint ``s * 2^-p`` to n >= 1 significant digits, as ``mpmath.nstr`` prints it.

        Rounded to nearest, ties away from zero, exactly.  With e the leading
        digit's exponent, fixed-point when ``min(-(n // 3), -5) < e < n``, else
        ``<digits>e<+-e>``; trailing zeros are stripped down to one after the point.
        """
        if not self.s:
            return "0.0"
        a = abs(self.s)
        e = log10_floor(a, 1 << self.p)
        num, den = a * 10 ** max(n - 1 - e, 0), 10 ** max(e + 1 - n, 0) << self.p
        digits = _int_text((2 * num + den) // (2 * den))
        if len(digits) > n:  # rounded up to 10^n
            digits, e = digits[:n], e + 1
        split = 1
        if min(-(n // 3), -5) < e < n:
            digits, split, e = "0" * -e + digits, max(e, 0) + 1, 0
        text = ("-" if self.s < 0 else "") + (digits[:split] + "." + digits[split:]).rstrip("0")
        return text + ("0" if text.endswith(".") else "") + (f"e{e:+d}" if e else "")

    def __repr__(self):
        return f"ApproxReal({self.decimal(17)}, rad={ApproxReal(self.units, self.p, 0).decimal(5)})"
