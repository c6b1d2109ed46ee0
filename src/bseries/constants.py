"""Mathematical constants as balls, computed from exact rational partial sums.

Every constant here is produced the same way: an exact ``Fraction`` partial
sum together with an exact ``Fraction`` tail bound, converted to an
:class:`~bseries.precision.ApproxReal` at the ambient working precision.
No library transcendental functions are consulted, so these values form an
independent route against which series evaluations can honestly be tested.

* ``pi``: Machin-type arctangent combinations (two independent formulas,
  used to cross-check each other).
* ``log``: binary reduction to ``2*atanh(y)`` with ``|y| <= 1/5``.
* ``zeta(3)``: the central-binomial acceleration
  ``(5/2) * sum (-1)^(k-1) / (k^3 C(2k,k))`` (alternating, ratio -> 1/4).
* ``zeta(2, a)`` for rational ``0 < a <= 1``: Euler–Maclaurin with an
  explicit Bernoulli-number remainder bound.
* ``L_d(2)``: the finite Kronecker-character combination
  ``|d|^(-2) * sum_{a=1}^{|d|} (d|a) zeta(2, a/|d|)``.

Partial sums are cached as exact rationals keyed by requested digits, so
repeated evaluations at the same or lower accuracy are free.

Single-threaded use only: the caches take no lock, and ``working_bits``
sets mpmath's process-global ``mp.prec`` anyway.  Parallelise by process.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from .precision import ApproxReal, digits_to_bits, working_bits

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

_exact_cache: dict[tuple, tuple[int, Fraction, Fraction]] = {}


def _cached(key: tuple, digits: int, compute):
    """Return (mid, err) Fractions accurate to `digits`, reusing better results."""
    hit = _exact_cache.get(key)
    if hit is not None and hit[0] >= digits:
        return hit[1], hit[2]
    mid, err = compute(digits)
    _exact_cache[key] = (digits, mid, err)
    return mid, err


def _sum_fractions(parts: list[Fraction]) -> Fraction:
    """Balanced pairwise summation (much faster than a linear fold)."""
    if not parts:
        return Fraction(0)
    work = list(parts)
    while len(work) > 1:
        nxt = [work[i] + work[i + 1] for i in range(0, len(work) - 1, 2)]
        if len(work) & 1:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def _eps(digits: int) -> Fraction:
    return Fraction(1, 10 ** (digits + 2))


def _to_ball(mid: Fraction, err: Fraction, digits: int) -> ApproxReal:
    """Convert exact mid/err at no less precision than `digits` demands."""
    with working_bits(max(mp.prec, digits_to_bits(digits))):
        return ApproxReal.from_fraction_ball(mid, err)


# ----------------------------------------------------------------------
# arctangent / hyperbolic arctangent of small rationals


def _atan_frac(x: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """(partial sum, tail bound) for atan(x), |x| < 1; alternating series."""
    if not -1 < x < 1:
        raise ValueError("atan argument must satisfy |x| < 1")
    x2 = x * x
    power = x
    parts = []
    j = 0
    while True:
        term = power / (2 * j + 1)
        if j % 2:
            term = -term
        parts.append(term)
        power *= x2
        nxt = abs(power) / (2 * j + 3)
        if nxt < eps:
            return _sum_fractions(parts), nxt
        j += 1


def _atanh_frac(x: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """(partial sum, tail bound) for atanh(x), |x| <= 1/2; geometric tail."""
    if not -Fraction(1, 2) <= x <= Fraction(1, 2):
        raise ValueError("atanh argument must satisfy |x| <= 1/2")
    if x == 0:
        return Fraction(0), Fraction(0)
    x2 = x * x
    geom = 1 / (1 - x2)
    power = x
    parts = []
    j = 0
    while True:
        parts.append(power / (2 * j + 1))
        power *= x2
        tail = abs(power) / (2 * j + 3) * geom
        if tail < eps:
            return _sum_fractions(parts), tail
        j += 1


# ----------------------------------------------------------------------
# pi


_MACHIN_FORMULAS = (
    # pi = 16 atan(1/5) - 4 atan(1/239)
    ((16, Fraction(1, 5)), (-4, Fraction(1, 239))),
    # pi = 4 atan(1/2) + 4 atan(1/3)
    ((4, Fraction(1, 2)), (4, Fraction(1, 3))),
)


def _pi_exact(digits: int, formula: int = 0) -> tuple[Fraction, Fraction]:
    eps = _eps(digits + 2)
    mid = Fraction(0)
    err = Fraction(0)
    for coeff, x in _MACHIN_FORMULAS[formula]:
        m, e = _atan_frac(x, eps / 32)
        mid += coeff * m
        err += abs(coeff) * e
    return mid, err


def pi_ball(digits: int, formula: int = 0) -> ApproxReal:
    mid, err = _cached(("pi", formula), digits, lambda d: _pi_exact(d, formula))
    return _to_ball(mid, err, digits)


# ----------------------------------------------------------------------
# logarithms of positive rationals


def _log_exact(x: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    if x <= 0:
        raise ValueError("log of a non-positive rational")
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
    eps = _eps(digits + 2)
    mid = Fraction(0)
    err = Fraction(0)
    if j:
        m2, e2 = _atanh_frac(Fraction(1, 3), eps / (8 * abs(j)))
        mid += j * 2 * m2
        err += abs(j) * 2 * e2
    my, ey = _atanh_frac((y - 1) / (y + 1), eps / 8)
    mid += 2 * my
    err += 2 * ey
    return mid, err


def log_ball(x: Fraction, digits: int) -> ApproxReal:
    x = Fraction(x)
    mid, err = _cached(("log", x), digits, lambda d: _log_exact(x, d))
    return _to_ball(mid, err, digits)


# ----------------------------------------------------------------------
# zeta(3)


def _zeta3_exact(digits: int) -> tuple[Fraction, Fraction]:
    # (5/2) sum_{k>=1} (-1)^(k-1) / (k^3 C(2k,k)); alternating, |t| ~ 4^-k.
    eps = _eps(digits + 2)
    binom = 2  # C(2k, k) at k = 1
    k = 1
    parts = []
    while True:
        term = Fraction(1, k**3 * binom)
        if k % 2 == 0:
            term = -term
        parts.append(term)
        binom = binom * 2 * (2 * k + 1) // (k + 1)
        k += 1
        nxt = Fraction(1, k**3 * binom)
        if nxt < eps:
            return Fraction(5, 2) * _sum_fractions(parts), Fraction(5, 2) * nxt


def zeta3_ball(digits: int) -> ApproxReal:
    mid, err = _cached(("zeta3",), digits, _zeta3_exact)
    return _to_ball(mid, err, digits)


# ----------------------------------------------------------------------
# Bernoulli numbers and the Hurwitz zeta value zeta(2, a)


_bernoulli: list[Fraction] = [Fraction(1)]


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0 .. B_n (inclusive), cached; the usual recurrence."""
    while len(_bernoulli) <= n:
        m = len(_bernoulli)
        # sum_{j=0}^{m} C(m+1, j) B_j = 0  =>  solve for B_m
        acc = Fraction(0)
        c = 1  # C(m+1, 0)
        for j in range(m):
            acc += c * _bernoulli[j]
            c = c * (m + 1 - j) // (j + 1)
        _bernoulli.append(-acc / (m + 1))
    return _bernoulli[: n + 1]


def _hurwitz_zeta2_exact(a: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """zeta(2, a) = sum_{n>=0} (n+a)^-2 by Euler-Maclaurin, exact remainder bound."""
    if not 0 < a <= 1:
        raise ValueError("need 0 < a <= 1")
    eps = _eps(digits + 1)
    n_terms = max(8, digits + 10)
    head = _sum_fractions([1 / (Fraction(n) + a) ** 2 for n in range(n_terms)])
    x = Fraction(n_terms) + a
    mid = head + 1 / x + 1 / (2 * x * x)
    # Correction terms B_{2j} x^(-2j-1); remainder |R_M| <= 4 |B_{2M+2}| x^(-2M-3).
    xpow = 1 / x**3
    inv_x2 = 1 / (x * x)
    j = 1
    while True:
        bern = bernoulli_numbers(2 * j + 2)
        mid += bern[2 * j] * xpow
        xpow *= inv_x2
        # after the j-th correction the remainder is within |B_{2j+2}| x^(-2j-3),
        # which is the magnitude of the next correction term; keep a 4x cushion
        rem = 4 * abs(bern[2 * j + 2]) * xpow
        if rem < eps:
            return mid, rem
        j += 1
        if j > 4 * n_terms:  # cannot happen for sane inputs; refuse to spin
            raise RuntimeError("Euler-Maclaurin failed to converge")


def hurwitz_zeta2_ball(a: Fraction, digits: int) -> ApproxReal:
    a = Fraction(a)
    mid, err = _cached(("hurwitz2", a), digits, lambda d: _hurwitz_zeta2_exact(a, d))
    return _to_ball(mid, err, digits)


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


def _l_value_exact(d: int, digits: int) -> tuple[Fraction, Fraction]:
    if d % 4 not in (0, 1) or d in (0,):
        raise ValueError(f"{d} is not a discriminant (need d = 0, 1 mod 4)")
    q = abs(d)
    per_term_digits = digits + len(str(q)) + 1
    mid = Fraction(0)
    err = Fraction(0)
    parts = []
    for a in range(1, q + 1):
        chi = kronecker(d, a)
        if chi == 0:
            continue
        m, e = _hurwitz_zeta2_exact(Fraction(a, q), per_term_digits)
        parts.append(chi * m)
        err += e
    mid = _sum_fractions(parts) / (q * q)
    return mid, err / (q * q)


def l_value_ball(d: int, digits: int) -> ApproxReal:
    mid, err = _cached(("lvalue", d), digits, lambda dd: _l_value_exact(d, dd))
    return _to_ball(mid, err, digits)
