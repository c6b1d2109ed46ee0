"""Conservative ball arithmetic on top of mpmath big floats.

An :class:`ApproxReal` is a midpoint/radius pair ``(mid, rad)`` of mpf
values with the invariant that the represented real number lies inside
``[mid - rad, mid + rad]``.  Midpoints are rounded at the *ambient*
mpmath working precision (callers wrap computations in
``with mp.workprec(bits):``); radii are combined at a fixed small
precision and always pushed outward:

* every derived midpoint gets a 2-ulp rounding allowance
  ``|mid| * 2**(1 - prec)`` added to its radius, and
* the whole radius expression is multiplied by ``1 + 2**-20`` to absorb
  the rounding of the radius arithmetic itself.

Exact values enter through one door, :meth:`ApproxReal.from_ratio`: an
integer ratio rounded once to nearest, with radius 0 only when exact.
Fixed-point sums leave integer arithmetic through one door too,
:meth:`ApproxReal.from_units`: an integer ``S`` over ``2^P`` with a counted
error of ``units * 2^-P`` (``ceil_units`` rounds a bound up to whole units),
as the constants and the series evaluator both make them.

Nothing here is asymptotically clever; the point is that every bound is
simple enough to audit.  Directed rounding (``mpmath.fadd(..., rounding=
'c')`` etc.) is used only where a one-shot upper/lower bound is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp as _libmp_from_man_exp

__all__ = [
    "ApproxReal",
    "DIGITS_INF",
    "MAX_ATTEMPTS",
    "digits_to_bits",
    "attempt_bits",
    "ceil_units",
    "mpf_to_fraction",
    "working_bits",
]

# Reported digit count for an exact (zero-radius) ball.
DIGITS_INF = 10**9

# Precision at which radius bookkeeping is done.  Radii never need more
# than a couple of significant digits; 64 bits is pure headroom.
_RADPREC = 64

# Verification retries double the working precision up to this many attempts.
MAX_ATTEMPTS = 4

with mp.workprec(_RADPREC):
    _FUDGE = mpf(1) + mpf(2) ** -20


def digits_to_bits(digits: int) -> int:
    """Working precision (bits) for a decimal-digit target: ceil(d*log2 10) + 32."""
    return math.ceil(digits * math.log2(10)) + 32


def attempt_bits(digits: int, attempt: int) -> int:
    """Precision for retry number ``attempt`` (0-based): doubles each time."""
    return digits_to_bits(digits) << attempt


def ceil_units(p: int, num: int, den: int) -> int:
    """ceil(2^p * num/den) for integers num >= 0, den > 0: a bound in units of 2^-p."""
    return -((-num << p) // den)


def working_bits(bits: int):
    """Context manager setting the ambient mpmath precision."""
    return mp.workprec(bits)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpf."""
    if not mpmath.isfinite(x):
        raise ValueError("cannot convert non-finite mpf to Fraction")
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -value if sign else value


def _rounding_eps():
    # 2 ulp at the ambient precision, as a power of two (exact mpf).
    return mpmath.make_mpf((0, 1, 1 - mp.prec, 1))


def _abs_exact(x):
    # abs(mpf) rounds to the ambient precision; negation via fneg does not.
    return mpmath.fneg(x, exact=True) if x < 0 else x


def _coerce(x):
    if isinstance(x, ApproxReal):
        return x
    if isinstance(x, int):
        return ApproxReal.from_int(x)
    if isinstance(x, Fraction):
        return ApproxReal.from_fraction(x)
    return NotImplemented


class ApproxReal:
    """A real number known to lie in ``[mid - rad, mid + rad]``."""

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad):
        # Only mpf values are exact as given; an int or Fraction would be
        # rounded here with no radius to cover it.  Use from_int/from_fraction.
        if not isinstance(mid, mpf) or not isinstance(rad, mpf):
            raise TypeError("ApproxReal takes mpf mid and rad; use from_int or from_fraction")
        if rad < 0:
            raise ValueError("negative radius")
        self.mid = mid
        self.rad = rad

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def from_ratio(p: int, q: int) -> "ApproxReal":
        """p/q for integers with q != 0, rounded once to nearest at the ambient precision.

        One integer ``divmod`` gives a quotient of prec+3 or more bits, a
        non-zero remainder is kept as a sticky low bit, and ``from_man_exp``
        rounds that once; p and q need no reduction, and neither is ever
        normalised as a whole.  The power of two in q only moves the
        exponent, and bits of p below the quotient's precision join the
        sticky bit instead of the division.  The radius is 0 only when p/q
        is exact at the working precision.
        """
        if q == 0:
            raise ZeroDivisionError("from_ratio with q == 0")
        if q < 0:
            p, q = -p, -q
        if p == 0:
            return ApproxReal.exact_zero()
        prec = mp.prec
        a = -p if p < 0 else p
        twos = (q & -q).bit_length() - 1
        q >>= twos
        shift = prec + 3 - (a.bit_length() - q.bit_length())
        # a / q * 2**shift lies in (2**(prec+2), 2**(prec+4)): the quotient
        # has at least prec+3 bits, so its lowest bit is below the round bit.
        if shift >= 0:
            man, rem = divmod(a << shift, q)
        else:
            # floor(a / (q * 2**-shift)) = floor((a >> -shift) / q), and the
            # division is exact iff both the remainder and the dropped bits are 0
            man, rem = divmod(a >> -shift, q)
            rem = rem or a & ((1 << -shift) - 1)
        extra = man.bit_length() - prec
        exact = rem == 0 and man & ((1 << extra) - 1) == 0
        if rem:
            man |= 1  # sticky bit
        exp = -shift - twos
        m = mpmath.make_mpf(_libmp_from_man_exp(-man if p < 0 else man, exp, prec, "n"))
        if exact:
            return ApproxReal(m, mpf(0))
        eps = _rounding_eps()
        with mp.workprec(_RADPREC):
            return ApproxReal(m, abs(m) * eps * _FUDGE)

    @staticmethod
    def from_units(s: int, p: int, units: int) -> "ApproxReal":
        """The ball of ``s * 2^-p`` widened by ``units * 2^-p``, for integers ``units >= 0``.

        The midpoint is rounded once by :meth:`from_ratio` at the ambient
        precision, and the count is rounded up into the radius.
        """
        ball = ApproxReal.from_ratio(s, 1 << p)
        err = mpmath.make_mpf(_libmp_from_man_exp(units, -p, _RADPREC, "u"))
        return ApproxReal(ball.mid, mpmath.fadd(ball.rad, err, prec=_RADPREC, rounding="u"))

    @staticmethod
    def from_int(n: int) -> "ApproxReal":
        return ApproxReal.from_ratio(n, 1)

    @staticmethod
    def from_fraction(q: Fraction) -> "ApproxReal":
        return ApproxReal.from_ratio(q.numerator, q.denominator)

    @staticmethod
    def exact_zero() -> "ApproxReal":
        return ApproxReal(mpf(0), mpf(0))

    @staticmethod
    def from_fraction_ball(mid: Fraction, rad: Fraction) -> "ApproxReal":
        """Ball with an exact rational radius bound (rounded outward)."""
        m = ApproxReal.from_fraction(mid)
        with mp.workprec(_RADPREC):
            r = mpf(rad.numerator) / mpf(rad.denominator) if rad else mpf(0)
            return ApproxReal(m.mid, (m.rad + abs(r)) * _FUDGE)

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        eps = _rounding_eps()
        m = self.mid + other.mid
        with mp.workprec(_RADPREC):
            r = (self.rad + other.rad + abs(m) * eps) * _FUDGE
        return ApproxReal(m, r)

    __radd__ = __add__

    def __neg__(self):
        return ApproxReal(mpmath.fneg(self.mid, exact=True), self.rad)

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
        eps = _rounding_eps()
        m = self.mid * other.mid
        with mp.workprec(_RADPREC):
            r = (
                abs(self.mid) * other.rad
                + abs(other.mid) * self.rad
                + self.rad * other.rad
                + abs(m) * eps
            ) * _FUDGE
        return ApproxReal(m, r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.excludes_zero():
            raise ZeroDivisionError("division by a ball containing zero")
        eps = _rounding_eps()
        m = self.mid / other.mid
        with mp.workprec(_RADPREC):
            low = abs(other.mid) - other.rad  # > 0 by the check above
            r = (
                (self.rad * abs(other.mid) + abs(self.mid) * other.rad)
                / (abs(other.mid) * low)
                + abs(m) * eps
            ) * _FUDGE
        return ApproxReal(m, r)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def sqrt(self) -> "ApproxReal":
        eps = _rounding_eps()
        if self.rad == 0 and self.mid == 0:
            return ApproxReal.exact_zero()
        with mp.workprec(_RADPREC):
            lower_neg = self.mid < self.rad  # lower endpoint may be < 0
        if self.mid < 0 and lower_neg and -self.mid > self.rad:
            raise ValueError("sqrt of a negative ball")
        if lower_neg:
            # Ball touches zero: enclose sqrt([0, hi]) by [0, sqrt(hi)].
            with mp.workprec(_RADPREC):
                hi = (self.mid + self.rad) * _FUDGE
            s = mpmath.sqrt(hi)
            with mp.workprec(_RADPREC):
                half = s / 2 * _FUDGE
            return ApproxReal(half, half)
        m = mpmath.sqrt(self.mid)
        with mp.workprec(_RADPREC):
            # |sqrt(x) - sqrt(mid)| = |x - mid| / (sqrt(x) + sqrt(mid)) <= rad / sqrt(mid)
            r = (self.rad / m + abs(m) * eps) * _FUDGE
        return ApproxReal(m, r)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return 1 / (self ** (-n))
        result = ApproxReal.from_int(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __abs__(self):
        return ApproxReal(_abs_exact(self.mid), self.rad)

    # ------------------------------------------------------------------
    # bounds and predicates

    def upper_abs(self):
        return mpmath.fadd(_abs_exact(self.mid), self.rad, prec=_RADPREC, rounding="c")

    def contains_zero(self) -> bool:
        return _abs_exact(self.mid) <= self.rad

    def excludes_zero(self) -> bool:
        low = mpmath.fsub(_abs_exact(self.mid), self.rad, prec=_RADPREC, rounding="f")
        return low > 0

    def to_fraction_bounds(self) -> tuple[Fraction, Fraction]:
        m = mpf_to_fraction(self.mid)
        r = mpf_to_fraction(self.rad)
        return m - r, m + r

    def to_digits(self) -> int:
        """Correct decimal digits: floor(-log10(rad / max(|mid|, 1))).

        Returns ``DIGITS_INF`` for an exact ball and clamps at 0 when the
        radius exceeds the midpoint scale.
        """
        if self.rad == 0:
            return DIGITS_INF
        mid_abs = _abs_exact(self.mid)
        with mp.workprec(_RADPREC):
            denom = mid_abs if mid_abs > 1 else mpf(1)
            rel = self.rad / denom
            if rel >= 1:
                return 0
            return int(mpmath.floor(-mpmath.log(rel, 10)))

    # ------------------------------------------------------------------

    def __repr__(self):
        return f"ApproxReal({mpmath.nstr(self.mid, 17)}, rad={mpmath.nstr(self.rad, 5)})"
