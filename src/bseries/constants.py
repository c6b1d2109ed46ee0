"""Mathematical constants as balls, computed from floored integer terms.

Every constant here has one representation: an integer ``S``, a unit
``2^-P`` and an integer count ``units``, meaning the constant lies within
``units * 2^-P`` of ``S * 2^-P``.

* ``S`` is the sum of ``floor(2^P * t_j)`` over the constant's exact terms
  ``t_j``, each term a ratio of integers (its coefficient included) and
  floored once, so each is off by less than one unit.  No ``Fraction`` is
  summed and no gcd is taken.
* ``units`` counts one unit per floored term, plus the series tail bound
  rounded up to whole units.  Summation stops at the first term after
  which the tail bound is at most one unit.
* ``P = digits_to_bits(digits + 2)``, so one unit is at most
  ``2^-32 * 10^-(digits+2)``.

The series:

* ``atan(x)`` and ``atanh(x)`` for rational ``|x| <= 1/2``: the Taylor
  series, whose tail is at most the next term over ``1 - x^2``.
* ``pi``: Machin-type arctangent combinations (two independent formulas,
  used to cross-check each other).
* ``log``: binary reduction to ``2*atanh(y)`` with ``|y| <= 1/5``.
* ``zeta(3)``: the central-binomial acceleration
  ``(5/2) * sum (-1)^(k-1) / (k^3 C(2k,k))`` (alternating, ratio -> 1/4).
* ``zeta(2, a)`` for rational ``0 < a <= 1``: a head of ``(n+a)^-2`` terms
  and Euler–Maclaurin corrections, with the Bernoulli-number remainder
  bound ``4 |B_{2j+2}| x^(-2j-3)`` as the tail.  The Bernoulli numbers are
  exact, ``B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))`` from the integer
  tangent numbers ``T_k`` (Brent & Harvey, *Fast computation of Bernoulli,
  tangent and secant numbers*, 2013, arXiv:1108.0286), whose table is
  rebuilt at least twice as long whenever a correction needs more.
* ``L_d(2)``: the finite Kronecker-character combination
  ``|d|^(-2) * sum_{a=1}^{|d|} (d|a) zeta(2, a/|d|)``, every residue's terms
  scaled by ``(d|a)/|d|^2`` and floored into one ``S``.

No library transcendental functions are consulted, so these values form an
independent route against which series evaluations can honestly be tested.
Each ``(S, P, units)`` triple is the :class:`~bseries.precision.ApproxReal`
handed out as it is, cached keyed by requested digits, so repeated
evaluations at the same or lower accuracy are free.

Single-threaded use only: the cache takes no lock.  Parallelise by process.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .precision import ApproxReal, ceil_units, digits_to_bits

__all__ = [
    "pi_ball",
    "log_ball",
    "zeta3_ball",
    "hurwitz_zeta2_ball",
    "l_value_ball",
    "kronecker",
    "normalize_discriminant",
    "bernoulli_numbers",
]

_cache: dict[tuple, ApproxReal] = {}


def _cached(key: tuple, digits: int, compute) -> ApproxReal:
    """The ball of ``compute(P) = (S, units)`` at ``P = digits_to_bits(digits + 2)``.

    A cached ball computed deeper is floored to P (``S >> delta``, units
    ``ceil(units / 2^delta) + 1``), so the ball has the same P whatever was
    asked before it.
    """
    p = digits_to_bits(digits + 2)
    hit = _cache.get(key)
    if hit is None or hit.p < p:
        s, units = compute(p)
        hit = _cache[key] = ApproxReal(s, p, units)
    delta = hit.p - p
    if not delta:
        return hit
    return ApproxReal(hit.s >> delta, p, -(-hit.units >> delta) + 1)


# ----------------------------------------------------------------------
# arctangent / hyperbolic arctangent of small rationals


def _atan(c: int, x: Fraction, p: int, hyperbolic: bool = False) -> tuple[int, int]:
    """(S, units) for c*atan(x), or c*atanh(x) when hyperbolic, for |x| <= 1/2.

    Term j is c * (-+x^2)^j * x / (2j+1), so each term is at most x^2 times
    the one before and the tail is at most the next term / (1 - x^2).
    """
    if x == 0 or c == 0:
        return 0, 0
    a, b = x.numerator, x.denominator
    step = a * a if hyperbolic else -a * a
    num, den = c * a, b  # c * (-+1)^j * x^(2j+1)
    s = j = 0
    while True:
        s += (num << p) // ((2 * j + 1) * den)
        num, den = num * step, den * b * b
        tail = ceil_units(p, abs(num) * b * b, (2 * j + 3) * den * (b * b - a * a))
        if tail <= 1:
            return s, j + 1 + tail
        j += 1


def _add(*parts: tuple[int, int]) -> tuple[int, int]:
    return sum(s for s, _ in parts), sum(u for _, u in parts)


# ----------------------------------------------------------------------
# pi


_MACHIN_FORMULAS = (
    # pi = 16 atan(1/5) - 4 atan(1/239)
    ((16, Fraction(1, 5)), (-4, Fraction(1, 239))),
    # pi = 4 atan(1/2) + 4 atan(1/3)
    ((4, Fraction(1, 2)), (4, Fraction(1, 3))),
)


def pi_ball(digits: int, formula: int = 0) -> ApproxReal:
    terms = _MACHIN_FORMULAS[formula]
    return _cached(("pi", formula), digits, lambda p: _add(*(_atan(c, x, p) for c, x in terms)))


# ----------------------------------------------------------------------
# logarithms of positive rationals


def _log(x: Fraction, p: int) -> tuple[int, int]:
    # Pull out powers of two until the mantissa sits in [2/3, 4/3), where
    # (y-1)/(y+1) in [-1/5, 1/7] keeps the atanh series fast.
    j = 0
    y = x
    while y >= Fraction(4, 3):
        y /= 2
        j += 1
    while y < Fraction(2, 3):
        y *= 2
        j -= 1
    return _add(
        _atan(2 * j, Fraction(1, 3), p, hyperbolic=True),
        _atan(2, (y - 1) / (y + 1), p, hyperbolic=True),
    )


def log_ball(x: Fraction, digits: int) -> ApproxReal:
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of a non-positive rational")
    return _cached(("log", x), digits, lambda p: _log(x, p))


# ----------------------------------------------------------------------
# zeta(3)


def _zeta3(p: int) -> tuple[int, int]:
    # (5/2) sum_{k>=1} (-1)^(k-1) / (k^3 C(2k,k)); alternating, |t| ~ 4^-k.
    binom = 2  # C(2k, k) at k = 1
    s = 0
    k = 1
    while True:
        s += ((5 if k % 2 else -5) << p) // (2 * k**3 * binom)
        binom = binom * 2 * (2 * k + 1) // (k + 1)
        k += 1
        tail = ceil_units(p, 5, 2 * k**3 * binom)
        if tail <= 1:
            return s, k - 1 + tail


def zeta3_ball(digits: int) -> ApproxReal:
    return _cached(("zeta3",), digits, _zeta3)


# ----------------------------------------------------------------------
# Bernoulli numbers and the Hurwitz value zeta(2, a)


_bernoulli: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def _tangent_numbers(n: int) -> list[int]:
    """T_1 .. T_n, T_k = tan^(2k-1)(0), by Brent & Harvey's in-place integer recurrence."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def _grow_bernoulli(n: int) -> None:
    """Extend the cache to hold B_n: rebuild it as B_0 .. B_{2m+1}, m = n // 2."""
    if len(_bernoulli) > n:
        return
    table = _bernoulli[:2]
    for k, t in enumerate(_tangent_numbers(n // 2), 1):
        four = 4**k
        b = Fraction((-1) ** (k - 1) * 2 * k * t, four * (four - 1))
        table += [b, Fraction(0)]
    _bernoulli[:] = table


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0 .. B_n (inclusive), cached; B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    _grow_bernoulli(n)
    return _bernoulli[: n + 1]


def _last_correction(c: float, x: float, p: int, j: int, limit: int) -> int:
    """The first i in j..limit with ``4|c| * b * x^(-2i-3) <= 2^-p``, else j; in floats.

    ``b`` bounds ``|B_{2i+2}|`` from above: ``|B_2k| = 2 (2k)! zeta(2k) /
    (2 pi)^(2k) < 4 (2k)! / (2 pi)^(2k)``.  So :func:`_hurwitz2`'s tail is at
    most ``2^-p`` at this i too, and its loop stops here or before.
    """
    log2_c, log2_x = math.log2(4 * abs(c)), math.log2(x)
    for i in range(j, limit + 1):
        k = 2 * i + 2
        log2_b = 2 + math.lgamma(k + 1) / math.log(2) - k * math.log2(2 * math.pi)
        if log2_c + log2_b - (k + 1) * log2_x <= -p:
            return i
    return j


def _hurwitz2(a: Fraction, cn: int, cd: int, p: int) -> tuple[int, int]:
    """(S, units) for (cn/cd) * zeta(2, a) = (cn/cd) * sum_{n>=0} (n+a)^-2, by Euler-Maclaurin.

    With a = e/r the head terms are r^2/(n*r + e)^2, and at x = N + a = u/r
    the corrections are r/u + r^2/(2u^2) + sum_j B_2j r^(2j+1)/u^(2j+1).
    After the j-th correction the remainder is within |B_{2j+2}| x^(-2j-3),
    the magnitude of the next correction; the tail keeps a 4x cushion.  A
    table too short for the last correction :func:`_last_correction`
    predicts is grown once to it, and at least doubled if the prediction
    falls short.
    """
    e, r = a.numerator, a.denominator
    n_terms = max(8, p // 3)
    s = 0
    for n in range(n_terms):
        s += (cn * r * r << p) // (cd * (n * r + e) ** 2)
    u = n_terms * r + e
    s += (cn * r << p) // (cd * u) + (cn * r * r << p) // (2 * cd * u * u)
    reach = max(1, (len(_bernoulli) - 3) // 2)  # the last correction the table serves
    _grow_bernoulli(2 * _last_correction(cn / cd, u / r, p, reach, 4 * n_terms) + 2)
    rpow, upow = r**3, u**3  # r^(2j+1), u^(2j+1) at j = 1
    j = 1
    while True:
        if len(_bernoulli) <= 2 * j + 2:
            _grow_bernoulli(2 * len(_bernoulli))
        b = _bernoulli[2 * j]
        s += (cn * b.numerator * rpow << p) // (cd * b.denominator * upow)
        rpow, upow = rpow * r * r, upow * u * u
        b = _bernoulli[2 * j + 2]
        tail = ceil_units(p, 4 * abs(cn * b.numerator) * rpow, cd * b.denominator * upow)
        if tail <= 1:
            return s, n_terms + 2 + j + tail
        j += 1
        if j > 4 * n_terms:  # cannot happen for sane inputs; refuse to spin
            raise RuntimeError("Euler-Maclaurin failed to converge")


def hurwitz_zeta2_ball(a: Fraction, digits: int) -> ApproxReal:
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("need 0 < a <= 1")
    return _cached(("hurwitz2", a), digits, lambda p: _hurwitz2(a, 1, 1, p))


# ----------------------------------------------------------------------
# Kronecker symbol and Dirichlet L-values at s = 2


def kronecker(d: int, n: int) -> int:
    """The Kronecker symbol (d|n), defined for all integers."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    if d % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    # factor out 2s: (d|2) = 0, 1, -1 for d even, d = ±1 (mod 8), d = ±3 (mod 8)
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos % 2 == 1:
        r = d % 8
        if r in (3, 5):
            result = -result
        # r in (1, 7): no change; r even handled above
    a = d % n
    # now a Jacobi-symbol loop (n odd and positive)
    while a:
        twos = 0
        while a % 2 == 0:
            a //= 2
            twos += 1
        if twos % 2 == 1 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def normalize_discriminant(c: int) -> int:
    """c if c = 0, 1 (mod 4), else 4c (makes a squarefree c a discriminant)."""
    if c == 0:
        raise ValueError("zero is not a discriminant")
    return c if c % 4 in (0, 1) else 4 * c


def _l_value(d: int, p: int) -> tuple[int, int]:
    q = abs(d)
    chis = [(a, kronecker(d, a)) for a in range(1, q + 1)]
    return _add(*(_hurwitz2(Fraction(a, q), chi, q * q, p) for a, chi in chis if chi))


def l_value_ball(d: int, digits: int) -> ApproxReal:
    if d % 4 not in (0, 1) or d in (0,):
        raise ValueError(f"{d} is not a discriminant (need d = 0, 1 mod 4)")
    return _cached(("lvalue", d), digits, lambda p: _l_value(d, p))
