"""Mathematical constants as balls, computed from floored integer terms.

Every constant here has one representation: an integer ``S``, a unit
``2^-P`` and an integer count ``units``, meaning the constant lies within
``units * 2^-P`` of ``S * 2^-P``.

* ``S`` is a sum of integers, each within a counted number of units of
  ``2^P`` times an exact term ``t_j`` of the constant's series.  No
  ``Fraction`` is summed and no gcd is taken.
* ``units`` adds those counts and the series tail bound, rounded up to
  whole units.
* ``P = digits_to_bits(digits + 2)``, so one unit is at most
  ``2^-32 * 10^-(digits+2)``.

The series:

* ``c * atan(x)`` and ``c * atanh(x)`` for an integer c and a rational
  ``x = a/b`` with ``|x| <= 1/2``, in fixed point.  With ``r = x^2`` and
  ``x_j = 2^P |c| |x|^(2j+1)``, the pass keeps ``T_0 = floor(2^P |c a| / b)``
  and steps ``T_{j+1} = floor(T_j a^2 / b^2)``, a product and a division by
  small integers (an exact term would divide a shifted numerator by a
  denominator that grows to P bits).  Term j adds ``+-floor(T_j / (2j+1))``.

  - *Per-term count.*  ``e_j = x_j - T_j`` has ``0 <= e_0 < 1`` and
    ``e_{j+1} = r e_j + (T_j r - T_{j+1}) < r e_j + 1``, so
    ``0 <= e_j < 1/(1 - r) <= 4/3``.  Term j falls short of
    ``2^P |t_j| = x_j / (2j+1)`` by ``e_j / (2j+1)`` plus the floor's part of
    a unit, which is 0 at j = 0: by less than 2 units at every j, so each
    term counts two.
  - *Tail.*  Each term is at most r times the one before, so the remainder
    after n terms is at most ``|t_n| / (1 - r)``.  The pass stops at the
    first n with ``T_n = 0``, where ``x_n = e_n < 4/3``: the remainder is
    below ``(4/3)^2 / (2n+1) < 2`` units and counts two.  So
    ``units = 2n + 2``.
* ``pi``: Machin-type arctangent combinations (two independent formulas,
  used to cross-check each other).
* ``log``: ``log x = sum e_b log b`` over the factors b of x: the primes
  below 32, divided out of its numerator and denominator, and the cofactor
  they leave.  Each ``log b`` is a cache entry of its own, so the catalog's
  logarithms, all of the form ``2^i 3^j``, share two series.  ``log b``
  reduces by powers of two to ``j log 2 + 2*atanh(y)`` with ``|y| <= 1/5``,
  ``j log 2`` taken from log 2's entry (``2*atanh(1/3)``) at ``|j|`` times
  its units, and the ball sums ``e_b`` times each ``log b``'s S and
  ``|e_b|`` times its units.
* ``zeta(3)``: the central-binomial acceleration
  ``(5/2) * sum (-1)^(k-1) / (k^3 C(2k,k))``, in fixed point as atan is.
  ``T_1 = 2^P 5/4`` is exact and ``T_{k+1} = floor(T_k rho_k)``, with the
  term ratio ``rho_k = k^3 / (2 (k+1)^2 (2k+1)) < 1/4``; term k adds
  ``(-1)^(k-1) T_k``.  As for atan, ``0 <= 2^P |t_k| - T_k < 4/3``: two
  units a term.  The pass stops at the first k with ``T_k = 0``; the terms
  alternate and shrink, so the remainder is at most ``2^P |t_k| < 4/3``
  units and counts two.  So ``units = 2k``.
* ``zeta(2, a)`` for rational ``0 < a <= 1`` and ``L_d(2)`` for a
  discriminant d: one Euler-Maclaurin pass, :func:`_hurwitz_sum`, for
  ``(sn/sd) * sum_a c_a zeta(2, a/q)`` over residues ``0 < a <= q`` with
  integer ``c_a``.  ``zeta(2, e/r)`` is its one-residue case (q = r, c = 1,
  scale 1); ``L_d(2)`` is the Kronecker-character combination
  ``|d|^(-2) * sum_{a=1}^{|d|} (d|a) zeta(2, a/|d|)`` (q = |d|, c_a = (d|a),
  scale 1/q^2).  With ``n = sum |c_a|``, ``N = max(8, p // 3)`` and
  ``u_a = N q + a``:

  - *Head and end terms.*  Each residue's N terms ``(k q + a)^-2`` and the
    two end terms ``q/u_a`` and ``q^2/(2 u_a^2)``, scaled, are floored one
    by one: one unit each.
  - *Corrections.*  At ``x = u_a/q`` Euler-Maclaurin adds
    ``B_2j (q/u_a)^(2j+1)`` for ``j >= 1``.  With ``W = p + g``, each
    residue carries ``X_a = floor(2^W (q/u_a)^3)`` and steps
    ``X_a <- floor(X_a q^2 / u_a^2)``, one division by a small integer.  If
    ``e = x - X >= 0`` for ``x = 2^W (q/u_a)^(2j+1)``, the step leaves
    ``e (q/u_a)^2`` plus the floor's part of a unit, so ``0 <= e < j`` at
    order j.  The order's term is ``floor(sn B_2j T_j / sd) >> g``, one
    product and one division for all residues, with ``T_j = sum_a c_a X_a``
    off the exact ``sum_a c_a x_a`` by less than ``n j``.  It is off
    ``2^p`` times the exact correction by less than
    ``|sn B_2j| n j / (sd 2^g)`` from the X's plus one unit from the floor,
    so it counts ``ceil(|sn B_2j| n j / (sd 2^g)) + 1`` units.
  - *Guard.*  g is sized from the largest ``|B_2j|`` up to the last order
    predicted, so each order counts at most 2 units; the count is exact
    whatever g is, and g only sets how many units the ball carries.
  - *Tail.*  ``f(t) = t^-2`` is completely monotone: every even derivative
    is positive.  After order j the remainder is
    ``R_j = int_0^inf (B_{2j+2} - B~_{2j+2}(t)) f^(2j+2)(x + t) dt / (2j+2)!``,
    with ``B~`` the periodic Bernoulli function; ``B~_{2k}(t) - B_{2k}``
    keeps one sign, which alternates with k.  So ``R_j`` and ``R_{j+1}``
    have opposite signs, and their difference is the order-(j+1)
    correction: ``|R_j| <= |B_{2j+2}| x^(-2j-3)``.  Over the residues this
    is at most ``|sn B_{2j+2}| n (q/u_min)^(2j+3) / sd``, with
    ``(q/u_min)^(2j+3) < (X_min + j) q^2 / (2^W u_min^2)``; the tail counts
    4 times that, rounded up to units.  The pass stops at the first order
    whose tail is at most one unit.
  - *Bernoulli numbers.*  Exact, ``B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))``
    from the integer tangent numbers ``T_k`` (Brent & Harvey, *Fast
    computation of Bernoulli, tangent and secant numbers*, 2013,
    arXiv:1108.0286).  The table is grown once, to the last order
    :func:`_last_correction` predicts for the combined tail, and at least
    doubled if a pass outruns it.

No library transcendental functions are consulted, so these values form an
independent route against which series evaluations can honestly be tested.
Each ``(S, P, units)`` triple is the :class:`~bseries.precision.ApproxReal`
handed out as it is, cached keyed by requested digits, so repeated
evaluations at the same or lower accuracy are free.  A deeper request
computes the constant again, which is why
:meth:`~bseries.closedform.ClosedForm.eval_ball` asks on a grid of 4 digits:
the closed forms checked at one precision, whose coefficients have 1 to 4
digits, then ask for each constant at one precision, and it is computed
once.  Nothing is computed deeper than asked: a cache that computed 1/16
more bits to serve later requests made the workloads that ask for each
L-value once slower.

Single-threaded use only: the cache takes no lock.  Parallelise by process.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .precision import ApproxReal, digits_to_bits

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
    """The ball of ``compute(P) = (S, units)`` at ``P = digits_to_bits(digits + 2)``."""
    return _cached_at(key, digits_to_bits(digits + 2), compute)


def _cached_at(key: tuple, p: int, compute) -> ApproxReal:
    """The ball of ``compute(p)`` at p.

    A cached ball computed deeper is floored to p (``S >> delta``, units
    ``ceil(units / 2^delta) + 1``), so the ball has the same p whatever was
    asked before it.
    """
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

    Fixed point, as the module docstring proves: T_0 = floor(2^p |c a| / b),
    T_{j+1} = floor(T_j a^2 / b^2), and term j adds +-floor(T_j / (2j+1)).
    """
    if x == 0 or c == 0:
        return 0, 0
    a, b = x.numerator, x.denominator
    a2, b2 = a * a, b * b
    t = (abs(c * a) << p) // b
    s = j = 0
    while t:
        term = t // (2 * j + 1)
        s += term if hyperbolic or not j & 1 else -term
        t = t * a2 // b2
        j += 1
    return (s if c * a > 0 else -s), 2 * j + 2


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


def _log2(p: int) -> tuple[int, int]:
    return _atan(2, Fraction(1, 3), p, hyperbolic=True)  # log 2 = 2*atanh(1/3)


def _log(x: Fraction, p: int) -> tuple[int, int]:
    # Pull out powers of two until the mantissa sits in [2/3, 4/3), where
    # (y-1)/(y+1) in [-1/5, 1/7] keeps the atanh series fast; j*log 2 comes
    # from log 2's own cache entry, at |j| times its units.
    j = 0
    y = x
    while y >= Fraction(4, 3):
        y /= 2
        j += 1
    while y < Fraction(2, 3):
        y *= 2
        j -= 1
    s, units = _atan(2, (y - 1) / (y + 1), p, hyperbolic=True)
    if j:
        two = _cached_at(("log", Fraction(2)), p, _log2)
        s, units = s + j * two.s, units + abs(j) * two.units
    return s, units


_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _log_basis(x: Fraction) -> dict[Fraction, int]:
    """{b: e} with x = prod b^e: the primes below 32 and one cofactor they leave."""
    n, d = x.numerator, x.denominator
    basis = {}
    for q in _TRIAL_PRIMES:
        e = 0
        while not n % q:
            n, e = n // q, e + 1
        while not d % q:
            d, e = d // q, e - 1
        if e:
            basis[Fraction(q)] = e
    if n != d:
        basis[Fraction(n, d)] = 1
    return basis


def log_ball(x: Fraction, digits: int) -> ApproxReal:
    """log x as sum e * log b over :func:`_log_basis`, each log b a ball of its own cache entry."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of a non-positive rational")
    s = units = 0
    for b, e in _log_basis(x).items():
        ball = _cached(("log", b), digits, lambda p, b=b: _log(b, p))
        s, units = s + e * ball.s, units + abs(e) * ball.units
    return ApproxReal(s, digits_to_bits(digits + 2), units)


# ----------------------------------------------------------------------
# zeta(3)


def _zeta3(p: int) -> tuple[int, int]:
    # (5/2) sum_{k>=1} (-1)^(k-1) / (k^3 C(2k,k)) in fixed point: T_1 = 2^p 5/4,
    # T_{k+1} = floor(T_k k^3 / (2 (k+1)^2 (2k+1))); term k adds +-T_k.
    t = 5 << p >> 2
    s, k = 0, 1
    while t:
        s += t if k & 1 else -t
        t = t * k**3 // (2 * (k + 1) ** 2 * (2 * k + 1))
        k += 1
    return s, 2 * k


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


def _last_correction(c: float, x: float, p: int, limit: int) -> int:
    """The first i in 1..limit with ``4|c| * b * x^(-2i-3) <= 2^-p``, else 1; in floats.

    ``b`` bounds ``|B_{2i+2}|`` from above: ``|B_2k| = 2 (2k)! zeta(2k) /
    (2 pi)^(2k) < 4 (2k)! / (2 pi)^(2k)``.  So :func:`_hurwitz_sum`'s tail is
    at most ``2^-p`` at this i too, and its loop stops here or before.
    """
    log2_c, log2_x = math.log2(4 * abs(c)), math.log2(x)
    for i in range(1, limit + 1):
        k = 2 * i + 2
        log2_b = 2 + math.lgamma(k + 1) / math.log(2) - k * math.log2(2 * math.pi)
        if log2_c + log2_b - (k + 1) * log2_x <= -p:
            return i
    return 1


def _guard(sn: int, sd: int, n: int, last: int) -> int:
    """Guard bits g with ``|sn * B_2j| * n * last < sd * 2^g`` for j = 1 .. last.

    Read from the Bernoulli table, which must hold B_2last.  Each of the
    first ``last`` orders of :func:`_hurwitz_sum` then counts at most 2 units.
    """
    bern = _bernoulli[2 : 2 * last + 1 : 2]
    size = max(b.numerator.bit_length() - b.denominator.bit_length() for b in bern)
    return max(0, size + (abs(sn) * n * last).bit_length() - sd.bit_length() + 2)


def _hurwitz_sum(q: int, residues: list, sn: int, sd: int, p: int) -> tuple[int, int]:
    """(S, units) for ``(sn/sd) * sum c_a zeta(2, a/q)`` over pairs ``(a, c_a)``, 0 < a <= q.

    One Euler-Maclaurin pass, as the module docstring says: each residue's
    head and end terms, then the corrections of all residues at once in
    fixed point, with one tail at the smallest ``u_a``.  ``sd > 0``.
    """
    n_terms = max(8, p // 3)
    h = Fraction(sn * q * q, sd)  # (sn/sd) * q^2, in lowest terms
    hn, hd = h.numerator, h.denominator
    s, us = 0, []
    for a, c in residues:
        num, u = c * hn << p, n_terms * q + a
        s += sum(num // (hd * v * v) for v in range(a, u, q))
        s += num // (hd * q * u) + num // (2 * hd * u * u)
        us.append(u)
    units = len(residues) * (n_terms + 2)
    n, u_min = sum(abs(c) for _, c in residues), min(us)
    last = _last_correction(n * sn / sd, u_min / q, p, 4 * n_terms)
    _grow_bernoulli(2 * last + 2)
    g = _guard(sn, sd, n, last)
    w, q2, i_min = p + g, q * q, us.index(u_min)
    cs, u2s = [c for _, c in residues], [u * u for u in us]
    xs = [(q * q2 << w) // (u * u2) for u, u2 in zip(us, u2s)]  # X_a at j = 1
    j = 1
    while True:
        if len(_bernoulli) <= 2 * j + 2:
            _grow_bernoulli(2 * len(_bernoulli))
        b = _bernoulli[2 * j]
        bn, bd = sn * b.numerator, sd * b.denominator
        s += bn * sum(c * x for c, x in zip(cs, xs)) // bd >> g
        units += -(-abs(bn) * n * j // bd >> g) + 1
        b = _bernoulli[2 * j + 2]
        m = 4 * abs(sn * b.numerator) * n * (xs[i_min] + j) * q2
        tail = -((-m >> g) // (sd * b.denominator * u2s[i_min]))
        if tail <= 1:
            return s, units + tail
        j += 1
        if j > 4 * n_terms:  # cannot happen for sane inputs; refuse to spin
            raise RuntimeError("Euler-Maclaurin failed to converge")
        xs = [x * q2 // u2 for x, u2 in zip(xs, u2s)]


def hurwitz_zeta2_ball(a: Fraction, digits: int) -> ApproxReal:
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("need 0 < a <= 1")
    return _cached(
        ("hurwitz2", a), digits, lambda p: _hurwitz_sum(a.denominator, [(a.numerator, 1)], 1, 1, p)
    )


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
    chis = [(a, chi) for a in range(1, q + 1) if (chi := kronecker(d, a))]
    return _hurwitz_sum(q, chis, 1, q * q, p)


def l_value_ball(d: int, digits: int) -> ApproxReal:
    if d % 4 not in (0, 1) or d in (0,):
        raise ValueError(f"{d} is not a discriminant (need d = 0, 1 mod 4)")
    return _cached(("lvalue", d), digits, lambda p: _l_value(d, p))
