"""Certified series summation and identity verification.

Every convergent series is summed with one certified tail.  Its weight
comes as the integer lists the series holds
(:class:`~bseries.seriesmodel.Weight`): per atom, a coefficient ``(a_i +
b_i*sqrt(d)) / e_i`` with a rational e_i (a sqrt(d) in a denominator was
rationalised by its conjugate when the series was built), and the same
weight over one common denominator c:

    W(k) = sum_i (A_i + B_i*sqrt(d)) * atom_i(k) / c(k),

each atom 1 or a harmonic number ``H_n^(m)``, which a sum carries as a
fixed-point integer with a counted error (below).
:class:`_IntegerWeight` reads those lists and adds the majorant weight
``U = (UA + UB*sqrt(d)) / c`` on them.  An atom-free weight is its own
majorant, from ``k_start``.  Otherwise U starts at K, the largest root
bound from ``k_start`` of every coefficient's own numerator ``a_i +
b_i*sqrt(d)`` and denominator e_i, so each coefficient keeps its sign ``sigma_i``
from K on, and ``U = sum_i sigma_i * (A_i + B_i*sqrt(d)) * b_i / c`` with
``b_i(k) = stride*k + offset >= H(stride*k + offset, m) >= 0`` for an atom and
``b_i = 1`` for the unit atom.  Then ``U(k) >= |W(k)|`` for k >= K
(Mezzarobba & Salvy, *Effective bounds for P-recursive sequences*, 2010).

The envelope is certified for the majorant's terms ``m_k = U(k) * S_k *
base^k``, with ``S_k = kernel(k)^(+-1) / D(k)`` read from the series in
integers: :meth:`~bseries.seriesmodel.SeriesDef.scale` gives S_k, and
:attr:`~bseries.seriesmodel.SeriesDef.scale_ratio` the coprime lists ``(Sn,
Sd)`` with ``S_{k+1}/S_k = Sn(k)/Sd(k)``, in lowest terms (degree 3 over 3
for most series of the catalog), and ``scale_growth`` their limit g.
With a rational ``q = qn/qd < 1`` above the limiting ratio ``L = |base| *
g``, ``|m_{k+1}| <= q*|m_k|`` for every integer ``k >= k0`` because

    qd^2 * G(k) = (qn*den - qd*num) * (qn*den + qd*num),   G = q^2*den^2 - num^2,

is >= 0 there, where ``num/den = m_{k+1}/m_k`` is built once per series from
U's lists, the base ``(ba + bb*sqrt(d))/bc`` and ``(Sn, Sd)``:

    num = (UA + UB*sqrt(d))(k+1) * (ba + bb*sqrt(d)) * Sn(k) * c(k),
    den = bc * c(k+1) * Sd(k) * (UA + UB*sqrt(d))(k).

c and Sd vanish at no integer from the start on, so G(k) >= 0 is exactly
``|m_{k+1}| <= q*|m_k|``, a zero U(k) included.  Another integer form of
the same weight multiplies num and den by one common factor nonzero at
those integers, and G by its square, so k0 depends on the weight alone.
k0 is the least ``k >= K`` with ``G >= 0`` at every integer from k on.
``L >= 1`` raises :class:`NonConvergent`.

The candidates share one integer form of the ratio.  A Taylor shift is
linear, so with num and den shifted to K once per series, each candidate's
two factors at K are ``qn*D_K -+ qd*N_K``, coefficient by coefficient.
Where both, so shifted, have coefficients of one sign each and G is
positive beyond K, Descartes' rule leaves no root to find and k0 is K
without a walk.  Where the same test passes at K + 1 (G(K) < 0 alone is
common), the walk is one step.  Else each factor is an
:class:`~bseries.exactnum.IntegerSurdPoly` with no real root beyond its
coefficient-dominance bound, and the sign of G at an integer, read off
num(k) and den(k) for both factors, is checked from the larger bound down
to K.  Since ``G_q' - G_q = (q'^2 - q^2) * den^2 >= 0`` for ``q' > q``,
G_q' >= 0 wherever G_q >= 0: the k0 of a smaller q is a start for a larger
one too, so ``k0(q') <= k0(q)`` and a walk starts at the lower of that k0
and the bound.

A q near L keeps the tail factor ``q/(1 - q)`` small but can push k0 far
out, so q is chosen per series among ``L*65/64``, ``L*9/8``, ``L*3/2`` and
``(1 + L)/2`` below 1, taken in increasing order.  The one with the least
rank ``r(q) = k0 + max(0, ceil(T(q)))`` wins, the smallest q on a tie,
where

    T(q) = (l + log2(q/(1 - q)) + R) / -log2(q),   l = log2|m_{k0}|,  R = _RANK_BITS,

so that ``max(0, ceil(T))`` is the predicted term count after k0 to a tail
of ``2^-R`` (:meth:`Envelope.predicted_terms`).  Only a candidate that can
win is certified.  Let q_i be certified with k0_i and l_i, and ``q' > q_i``.
From k0' on each step multiplies ``|m_k|`` by at most q', and ``k0' <=
k0_i``, so ``|m_{k0_i}| <= q'^(k0_i - k0') * |m_{k0'}|``, that is ``l' >= l_i
+ (k0_i - k0') * -log2(q')``.  Hence ``T(q') >= k0_i - k0' + (l_i +
log2(q'/(1 - q')) + R) / -log2(q')``, and with ``r(q') >= k0' >= K``,

    r(q') >= max(K, k0_i + (l_i + log2(q'/(1 - q')) + R) / -log2(q'))

(:meth:`Envelope.rank_floor`).  Where this floor reaches the best rank so
far plus one, r(q') exceeds that rank by more than any float rounding of
the two, so q' can neither win nor tie, and it is not certified.  Where
``k0_i = K``, every larger q keeps k0 = K and l, and T grows with q
wherever it is positive, so no larger q ranks lower and none is certified.
Neither rule moves the choice.

The sum is one fixed-point integer recurrence (Brent & Zimmermann, *Modern
Computer Arithmetic*, 2010, ch. 3-4; Haible & Papanikolaou, *Fast
multiprecision evaluation of series of rational numbers*, 1998).  The
scaled term ``V_k = S_k * base^k`` is an integer ``v`` within ``e`` units
of ``V_k * 2^P``, stepped by

    V_{k+1} = V_k * base * r(k),   r(k) = Sn(k)/Sd(k),

so S_k itself is needed only at ``k_start``.  The base enters as ``(Bn,
Bd, eb)`` with ``|base - Bn/Bd| <= eb/Bd``: exact for a rational base, and
``Bd = 2^E`` from ``math.isqrt`` for a quadratic one, with E sized from the
base's norm so that a huge conjugate cannot cancel it
(:func:`~bseries.exactnum.embed_dyadic`).  Each step floors once, and the
count becomes

    e' = ceil((e*(|Bn| + eb) + |v|*eb) * |r| / Bd) + 1.

The weight at k is read off the lists at a scale ``2^s``: s = 0 for an
atom-free weight, whose value is then exact, and s = P otherwise.  A
harmonic atom is ``h_n = sum_{j<=n} floor(2^P / j^m)``, stepped in n as
k grows, by one division of 2^P by the small ``j^m`` a step; each floor
drops less than one unit, so ``0 <= 2^P * H_n^(m) - h_n < n`` and its count
is ``u = n``, one unit per floor.
The unit atom is ``2^s`` exactly.  With ``coeff_i = (A_i + B_i*sqrt(d))/c``
at k and ``|x + y*sqrt(d)|_1 = |x| + |y|*sqrt(d)``,

    |W(k) * c * 2^s - (na + nb*sqrt(d))| <= ea + eb*sqrt(d),
    na + nb*sqrt(d) = sum_i (A_i + B_i*sqrt(d)) * h_i,
    ea + eb*sqrt(d) = sum_i |A_i + B_i*sqrt(d)|_1 * u_i.

With ``R = isqrt(d * 4^P)``, so that ``0 <= sqrt(d)*2^P - R < 1``, W is
within ``ew/den`` of ``w/den`` for

    w = na*2^P + nb*R,   den = c * 2^s * 2^P,   ew = |nb| + ea*2^P + eb*(R + 1),

or for ``w = na``, ``den = c * 2^s``, ``ew = ea`` when ``nb = eb = 0``.  When
s = P, na already carries the atoms' 2^P, and R would double it: w is then
floored back to that scale, with one more unit for the floor,

    w = floor((na*2^P + nb*R) / 2^P),   den = c * 2^P,
    ew = ceil((|nb| + ea*2^P + eb*(R + 1)) / 2^P) + 1,

so v, w and den all stay near P bits; the floor adds about ``|V_k|/c(k)``
units to term k, less than one floor of an atom with an integer
coefficient does.  Since
``|v*w/den - V_k*2^P*W| <= e*|w|/den + |V_k|*2^P*ew/den`` and ``|V_k|*2^P <=
|v| + e``, ``T_k = floor(v * w/den)`` is within

    ceil((|w|*e + (|v| + e)*ew) / den) + 1

units of ``t_k * 2^P``.  An atom-free weight has ``ew = 0``, or ``ew = |nb|``
in Q(sqrt d).

Every divisor above is a small integer times a power of two: a step's
``Bd * |Sd(k)|``, with ``Bd = 2^E`` for a quadratic base (a rational base's
denominator gives up its power of two alike), and the weight's ``den =
c(k) * 2^s``, times a further 2^P in Q(sqrt d).  Each is split as ``small *
2^shift``, and the shift comes first: a floor is taken as ``(x >> shift) //
small`` and a count as ``-(((-x) >> shift) // small)``.  For integers ``a >
0`` and ``E >= 0``, write ``x = q*a*2^E + r1*2^E + r0`` with ``0 <= r1 <
a`` and ``0 <= r0 < 2^E``; then ``floor(x/2^E) = q*a + r1`` and

    floor(floor(x / 2^E) / a) = q = floor(x / (a*2^E)),

and ceil follows from ``ceil(y) = -floor(-y)``.  So each value and each
count is the one written above, bit for bit, while the small division runs
over the shifted dividend: for a quadratic base E >= P, so it divides the
P-bit V, not the (E + P)-bit product.  The small factors are multiplied
first, ``v * (Bn*Sn(k))`` for a rational base and ``(v * Sn(k)) * Bn`` for a
quadratic one, and a weight with c = 1 skips its division, so a term costs
the two P-bit products ``v * w`` and the step's (and ``nb*R`` for atoms in
Q(sqrt d)), and no P-bit number divides another.

A count of P-bit numbers reads them above ``2^cut`` only, ``cut = max(0,
shift - 32)``.  For ``y >= 0`` let ``top(y) = floor(y / 2^cut) + 1``, so
``y <= 2^cut * top(y) <= y + 2^cut``.  A count ``ceil(X / (a*2^shift))`` with
``X = sum_j y_j*z_j``, each y_j P-bit and each z_j >= 0 small, is taken as
``ceil(X' / (a*2^(shift - cut)))`` with ``X' = sum_j top(y_j)*z_j``.  Then

    X <= 2^cut * X' <= X + 2^cut * sum_j z_j,

so the count is at least the exact one, and since ``ceil(y + delta) < ceil(y)
+ 1 + delta``, it exceeds it by at most ``1 + sum_j z_j / (a*2^32)`` once
``shift >= 32``, and mostly by nothing.  A term's count reads ``|w|`` and
``|v| + e`` with ``z = (e, ew)``: at most ``1 + (e + ew)/2^32`` more.  The
step of a quadratic base reads ``|Bn| + eb`` and ``|v|`` with ``z =
(e*|Sn(k)|, eb*|Sn(k)|)`` and ``a = |Sd(k)|``: at most ``1 + (e + eb)*|r|/2^32``
more.  The floor back to 2^P in Q(sqrt d) reads ``|nb|`` and ``R + 1`` with
``z = (1, eb)``.  Each such count multiplies and divides integers
of about 32 bits times the small factors, so no count is P-bit arithmetic.

The sum is the integer ``S = sum T_k`` with the count ``units = sum`` of
those errors: the ball is the triple ``(S, P, units)`` as it stands.

P is the requested precision plus guard bits for the count.  After k0, e is
damped by ``|r*base| <= q``, so it stays below about ``1/(1 - q)`` plus the
``k*|V_k|`` units the base's rounding adds; times |W| and summed over n
terms, that part stays below ``n * (n + 1/(1 - q)) * max(|U|, 2*|m_{k0}|)``,
with n the predicted term count and ``m_{k0}`` the majorant's term at k0.
The atoms add about ``|V_k| * sum_i |coeff_i|_1 * u_i`` units to term k.
From K on, ``u_i`` is the atom's index ``stride*k + offset = b_i(k)`` and each
``sigma_i * coeff_i = |coeff_i|``, so ``U(k) >= sum_i |coeff_i| * b_i(k)``
and the atoms add at most ``rho * |V_k| * U(k) = rho * |m_k|``, where

    rho = max_i |coeff_i|_1 / |coeff_i| >= 1

measures how much a coefficient's two parts cancel (rho = 1 in a rational
field).  After k0, ``|m_k| <= |m_{k0}|``, so over n terms the atoms add at
most ``n * rho * |m_{k0}|`` and the count stays below

    n * (n + 1/(1 - q) + rho) * max(|U|, 2*|m_{k0}|),

with rho = 0 for an atom-free weight.  The index cancels against U's own
``b_i``, so the guard grows by the bits rho adds to ``n + 1/(1 - q)``, not
by the bit length of the largest index.  The bound's bit length is the
guard (:func:`_guard_bits`), so the count costs less than one unit of the
requested precision and the first attempt suffices.  The estimate takes |U|
and rho at k0 and k0 + n, and leaves out terms before k0 larger than
``m_{k0}``; an estimate that falls short only widens the ball, and
verification then retries.

One stop rule ends every sum: once ``k >= k0`` and ``|t_k| * q/(1 - q)``
is at most ``10^-(digits+3)``, the sum stops as soon as the majorant's
bound ``|U(k) * S_k * base^k| * q/(1 - q)`` is at most that too; it covers
the tail after ``t_k`` and joins the count, rounded up to whole units.  Both
tests compare integers.  No term budget is needed: after k0 the majorant's
term shrinks by the factor q each step and ``|t_k| <= |m_k|``, while each
term's count stays below the guard that the limit exceeds, so every sum
with an envelope ends, in the predicted count n of terms on every shipped
series (:attr:`SumResult.predicted_terms`).

One precision-retry loop serves :func:`evaluate` and verification alike: a
sum to D digits is passed ``attempt_bits(D + 3, attempt)`` bits and is
retried, the bits doubled, until its ball holds D digits or
``precision.MAX_ATTEMPTS`` attempts have run.  No global precision is read:
the bits are an argument, and every ball carries its own exponent.

Verification at D digits sums to D + 5 digits in that loop.  The RHS and
the LHS scale are evaluated once, with ``eval_ball(D + 10)``: they are
built from cached constants, and no retry of the sum tightens them.
Then it compares once, in integers: PASS iff the residual ball ``LHS - RHS`` contains zero
and its magnitude upper bound is at most ``10^-D``; FAIL iff the ball
excludes zero (a proof of discrepancy); INCONCLUSIVE otherwise.  A series
without an envelope is INCONCLUSIVE at once.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Optional

from .closedform import ClosedForm
from .exactnum import (
    IntegerSurdPoly, coefficient_sign, embed_dyadic, embed_surd, horner, poly_add, poly_mul,
    poly_shift, surd_mul, surd_sign,
)
from .precision import (
    DIGITS_INF,
    MAX_ATTEMPTS,
    ApproxReal,
    attempt_bits,
    ceil_units,
    log10_floor,
)
from .seriesmodel import SeriesDef

__all__ = [
    "NonConvergent",
    "Envelope",
    "certify_envelope",
    "SumResult",
    "sum_series",
    "evaluate",
    "Status",
    "VerificationReport",
    "verify_identity",
]

# q is ranked by the predicted term count to a tail of 2^-_RANK_BITS (about
# 38 digits).  k0 binds only where the sum would otherwise stop before it,
# that is at low precision; at high precision every candidate stops where
# the terms do, and the ranking changes little.
_RANK_BITS = 128


class NonConvergent(ArithmeticError):
    """The limiting term ratio is >= 1; no geometric tail exists."""


class Status(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


def _log2_surd(x: int, y: int, z: int, d: int) -> float:
    """log2 |(x + y*sqrt(d)) / z| for integers with z != 0, -inf at 0; in floats, for sizing only.

    The triple is put in lowest terms with z > 0 first, so the float depends
    on the value alone.
    """
    if not (x or y):
        return -math.inf
    g = math.gcd(x, y, z) if z > 0 else -math.gcd(x, y, z)
    x, y, z = x // g, y // g, z // g
    bn, bd, _ = embed_surd(x, y, z, d, 64) if y else (x, z, 0)
    return math.log2(abs(bn)) - math.log2(bd)


# ----------------------------------------------------------------------
# envelope certification


class _IntegerWeight:
    """The weight W and its majorant U on integer lists, as the module docstring says.

    ``terms`` holds ``(A_i, B_i, atom_i)`` and ``c`` the common denominator,
    both read from the series' :attr:`~bseries.seriesmodel.Weight.common`;
    ``(ua, ub)`` is U's numerator, and ``start`` the K from which
    ``U(k) >= |W(k)|``; an empty list is the zero polynomial.
    """

    def __init__(self, sdef: SeriesDef):
        self.d, parts = sdef.field_d, sdef.weight.parts
        self.c, self.terms = sdef.weight.common
        self.start, signs = sdef.k_start, [1] * len(parts)
        if sdef.has_harmonic():
            polys = [
                (IntegerSurdPoly.from_lists(a, b, self.d), IntegerSurdPoly.from_lists(e, (), 1))
                for a, b, e, _ in parts
            ]
            self.start = k = max(p.root_bound(start=sdef.k_start) for pair in polys for p in pair)
            signs = [num.sign_at(k) * den.sign_at(k) for num, den in polys]
        self.ua, self.ub = [], []
        for sign, (a, b, atom) in zip(signs, self.terms):
            bound = [sign * atom.offset, sign * atom.stride] if atom else [sign]
            self.ua = poly_add(self.ua, poly_mul(a, bound))
            self.ub = poly_add(self.ub, poly_mul(b, bound))

    def cancellation(self, k: int) -> float:
        """``rho(k) = max_i |A_i + B_i*sqrt(d)|_1 / |A_i + B_i*sqrt(d)|`` over the harmonic
        atoms' nonzero coefficients, at least 1; 0 without a harmonic atom.  In floats.

        Where ``A_i*B_i < 0``, ``|A_i + B_i*sqrt(d)| = |A_i^2 - d*B_i^2| / |A_i + B_i*sqrt(d)|_1``.
        """
        rho = 0.0
        for a, b, atom in self.terms:
            if atom is not None:
                x, y, rho = horner(a, k), horner(b, k), max(rho, 1.0)
                if x * y < 0:
                    size = math.log2(abs(x) + abs(y) * math.sqrt(self.d))
                    rho = max(rho, 2 ** (2 * size - math.log2(abs(x * x - self.d * y * y))))
        return rho


@dataclass(frozen=True)
class Envelope:
    """``|m_{k+1}/m_k| <= q`` for the majorant's terms m_k of ``weight`` and every k >= k0.

    ``log2_term`` is ``log2 |m_{k0}|`` (-inf when it is 0), in floats: it
    sizes and ranks, and certifies nothing.
    """

    q: Fraction
    k0: int
    weight: _IntegerWeight
    log2_term: float

    def predicted_terms(self, bits: int) -> int:
        """Terms after k0 until ``|m_k| * q/(1 - q) <= 2^-bits``.

        An upper bound from ``|m_k| <= |m_{k0}| * q^(k - k0)``, in floats.
        """
        if self.log2_term == -math.inf:
            return 0
        q = float(self.q)
        need = self.log2_term + math.log2(q / (1 - q)) + bits
        return max(0, math.ceil(need / -math.log2(q)))

    def rank_floor(self, q: Fraction) -> float:
        """A lower bound, in floats, on the rank of the envelope of a larger q: its k0 plus
        its predicted terms to a tail of ``2^-_RANK_BITS``, as the module docstring proves."""
        q = float(q)
        need = self.log2_term + math.log2(q / (1 - q)) + _RANK_BITS
        return max(self.weight.start, self.k0 + need / -math.log2(q))


def _majorant_term(
    sdef: SeriesDef, weight: _IntegerWeight, base: tuple, k: int
) -> tuple[int, int, int]:
    """The majorant's term ``m_k = U(k) * S_k * base^k`` as integers ``(x, y, z)``,
    ``m_k = (x + y*sqrt(d)) / z``; the base's power is taken on its integer
    numerator by squaring.  ``base`` is ``(bx, by, bc)``, base = ``(bx + by*sqrt(d)) / bc``."""
    (bx, by, bc), d = base, weight.d
    px, py = 1, 0  # (bx + by*sqrt(d))^k
    for bit in bin(k)[2:]:
        px, py = px * px + d * py * py, 2 * px * py
        if bit == "1":
            px, py = px * bx + d * py * by, px * by + py * bx
    num, den = sdef.scale(k)
    ux, uy = horner(weight.ua, k), horner(weight.ub, k)
    x, y = (ux * px + d * uy * py) * num, (ux * py + uy * px) * num
    return x, y, horner(weight.c, k) * bc**k * den


def _majorant_ratio(sdef: SeriesDef, weight: _IntegerWeight, base: tuple) -> tuple[tuple, tuple]:
    """The majorant's term ratio ``num/den``, each side a pair ``(a, b)`` of
    integer lists for ``a + b*sqrt(d)``, built as the module docstring says;
    ``base`` is :func:`_majorant_term`'s."""
    bx, by, bc = base
    sn, sd = sdef.scale_ratio
    r = poly_mul(sn, weight.c)
    t = [bc * c for c in poly_mul(sd, poly_shift(weight.c, 1))]
    u = (weight.ua, weight.ub)
    na, nb = surd_mul([poly_shift(x, 1) for x in u], ([bx], [by]), weight.d)
    return (poly_mul(na, r), poly_mul(nb, r)), tuple(poly_mul(t, x) for x in u)


def _certify_q(weight: _IntegerWeight, ratio: tuple, q: Fraction, k_hi: Optional[int]) -> int:
    """The smallest sharp k0 of the majorant's terms for this q, as the module docstring says.

    ``ratio`` is ``(lists, shifted)``: :func:`_majorant_ratio`'s lists
    ``[na, nb, da, db]``, and ``shifted[t]`` the same shifted to t, for t =
    K and then K + 1, kept for every candidate.  ``k_hi`` is the k0 of a
    smaller q, or None.
    """
    (lists, shifted), d, k_min = ratio, weight.d, weight.start
    qn, qd = q.numerator, q.denominator

    def factors(na, nb, da, db) -> list:  # qn*den - qd*num and qn*den + qd*num, as pairs (a, b)
        pairs = ((na, da), (nb, db))
        return [
            [[qn * x + s * y for x, y in zip_longest(den, num, fillvalue=0)] for num, den in pairs]
            for s in (-qd, qd)
        ]

    def descartes(t: int) -> bool:  # G > 0 beyond t and G(t) >= 0
        if t not in shifted:
            shifted[t] = [poly_shift(x, 1) for x in shifted[t - 1]]
        low, high = factors(*shifted[t])
        return coefficient_sign(*low, d) * coefficient_sign(*high, d) > 0

    def sign_g(k: int) -> int:  # the sign of qd^2 * G(k), from N(k) and D(k)
        na, nb, da, db = (horner(x, k) for x in lists)
        x, y, u, v = qn * da, qn * db, qd * na, qd * nb
        return surd_sign(x - u, y - v, d) * surd_sign(x + u, y + v, d)

    if descartes(k_min):
        return k_min
    if descartes(k_min + 1):
        k_hi = k_min + 1  # a walk of one step
    else:
        polys = [IntegerSurdPoly.from_lists(a, b, d) for a, b in factors(*lists)]
        k_star = max(f.root_bound(start=k_min) for f in polys)
        if k_hi is None or k_star < k_hi:
            if sign_g(k_star) < 0:
                raise NonConvergent("envelope is negative beyond its root bound")
            k_hi = k_star
    k0, k = k_hi, k_hi - 1
    while k >= k_min and sign_g(k) >= 0:
        k0 = k
        k -= 1
    return k0


def certify_envelope(sdef: SeriesDef) -> Envelope:
    """Prove ``|m_{k+1}/m_k| <= q < 1`` for the majorant's terms, k >= k0 (exact arithmetic only).

    q is the candidate of the module docstring with the fewest predicted
    terms, the smallest q on a tie; a candidate that provably cannot win is
    not certified.
    """
    beta, g = sdef.base_value, sdef.scale_growth
    gn, gd = g.numerator, g.denominator
    c = math.lcm(beta.a.denominator, beta.b.denominator)
    x = beta.a.numerator * (c // beta.a.denominator)  # beta = (x + y*sqrt(d)) / c
    y = beta.b.numerator * (c // beta.b.denominator)
    s = surd_sign(x, y, beta.d)
    if surd_sign(s * x * gn - c * gd, s * y * gn, beta.d) >= 0:  # |beta| * g >= 1
        raise NonConvergent(f"limiting term ratio |base|*growth = {abs(beta) * g} is >= 1")

    # l_hi = n/m >= |beta| * g; each candidate is rounded up to a dyadic of
    # 24 bits, which keeps every downstream coefficient of G small
    bn, bd, eb = embed_dyadic(beta, 192)
    n, m = (abs(bn) + eb) * gn, bd * gd
    candidates = [(65 * n, 64 * m), (9 * n, 8 * m), (3 * n, 2 * m), (n + m, 2 * m)]
    tops = sorted({-((-a << 24) // b) for a, b in candidates})
    qs = [Fraction(top, 1 << 24) for top in tops if top < 1 << 24]
    if not qs:
        raise NonConvergent("cannot select a geometric bound below 1")
    weight, base = _IntegerWeight(sdef), (x, y, c)
    (na, nb), (da, db) = _majorant_ratio(sdef, weight, base)
    # in Q, sqrt(d) = 1 folds b into a, as IntegerSurdPoly.from_lists does
    lists = [na, nb, da, db] if weight.d > 1 else [poly_add(na, nb), [], poly_add(da, db), []]
    ratio = lists, {weight.start: [poly_shift(x, weight.start) for x in lists]}
    envelopes: list[Envelope] = []
    ranks: list[int] = []  # k0 plus the predicted terms to a tail of 2^-_RANK_BITS
    for q in qs:
        if envelopes:
            last = envelopes[-1]
            if last.k0 == weight.start or last.rank_floor(q) >= min(ranks) + 1:
                continue  # q cannot win
        k0 = _certify_q(weight, ratio, q, envelopes[-1].k0 if envelopes else None)
        if envelopes and envelopes[-1].k0 == k0:
            log2_term = envelopes[-1].log2_term
        else:
            log2_term = _log2_surd(*_majorant_term(sdef, weight, base, k0), weight.d)
        envelopes.append(Envelope(q=q, k0=k0, weight=weight, log2_term=log2_term))
        ranks.append(k0 + envelopes[-1].predicted_terms(_RANK_BITS))
    return envelopes[ranks.index(min(ranks))]


# ----------------------------------------------------------------------
# summation


@dataclass
class SumResult:
    ball: ApproxReal
    terms_used: int
    predicted_terms: int  # n, the count P is sized for: k0 - k_start + 1 + Envelope.predicted_terms
    attempts: int = 1  # precision attempts of the retry loop, this one included


def _sum_terms(
    sdef: SeriesDef, weight: _IntegerWeight, p: int, k0: int, limit: int
) -> tuple[int, int, int, int]:
    """Sum the scaled terms ``T_k ~ 2^P * t_k`` from ``k_start`` by the stop rule:
    ``(S, units, terms, bound)``.

    S and units sum the terms and their counts, as the module docstring has
    them: ``v`` and ``e`` carry ``V_k = S_k * base^k``, and the weight is
    read off the envelope's integer lists at the scale ``2^s``, each
    harmonic atom ``(n, h_n)`` stepped in place.  Every floor divides the
    shifted product by the small factor, and every count of a P-bit number
    reads its top bits.  ``bound = |M| + err`` is the majorant's term at the
    last k, ``|M - 2^P * U(k) * S_k * base^k| <= err``, floored and counted
    from the same ``v`` and ``e``.
    The stop rule compares ``|T_k| + err_k`` from ``k0`` on, and then the
    bound, with ``limit``.
    """
    bn, bd, b_err = embed_dyadic(sdef.base_value, p)
    b_shift = (bd & -bd).bit_length() - 1
    b_odd, b_mag = bd >> b_shift, abs(bn) + b_err
    root = math.isqrt(weight.d << 2 * p) if weight.d > 1 else 0
    # a count reads a P-bit number above 2^cut, and the base's above 2^b_cut
    cut, b_cut = max(p - 32, 0), max(b_shift - 32, 0)
    b_top, r_top = (b_mag >> b_cut) + 1, ((root + 1) >> cut) + 1
    # every list highest degree first, for Horner's rule in the loop
    sn, sd = (tuple(reversed(x)) for x in sdef.scale_ratio)
    c = tuple(reversed(weight.c))
    c_const = c[0] if len(c) == 1 else 0  # c vanishes nowhere: 0 marks a c that varies
    unit_a = unit_b = ()
    atoms = []  # [a, b, stride, offset, order, n, h_n] of each harmonic atom
    s = p if any(atom for *_, atom in weight.terms) else 0
    one = 1 << s
    for a, b, atom in weight.terms:
        a, b = tuple(reversed(a)), tuple(reversed(b))
        if atom is None:
            unit_a, unit_b = a, b
        else:
            atoms.append([a, b, atom.stride, atom.offset, atom.order, 0, 0])
    k_start = sdef.k_start
    num, den = sdef.scale(k_start)
    k, v, e, rn, rd = 0, (num << p) // den, 1, 1, 1
    total = units = terms = 0
    while True:  # steps by the base alone up to k_start, then weighs and steps by base*r(k)
        if k >= k_start:
            # na + nb*sqrt(d) within ea + eb*sqrt(d) of W(k) * c(k) * 2^s
            na = nb = ea = eb = 0
            for x in unit_a:
                na = na * k + x
            for x in unit_b:
                nb = nb * k + x
            if s:
                na, nb = na << s, nb << s
                for atom in atoms:
                    a, b, stride, offset, order, n, h = atom
                    index = stride * k + offset
                    while n < index:  # h_n = sum_{j<=n} floor(2^P / j^m), one unit a floor
                        n += 1
                        h += one // n**order
                    atom[5:] = n, h
                    x = 0
                    for y in a:
                        x = x * k + y
                    na, ea = na + x * h, ea + abs(x) * n
                    if b:
                        x = 0
                        for y in b:
                            x = x * k + y
                        nb, eb = nb + x * h, eb + abs(x) * n
            ck = c_const
            if not ck:
                for x in c:
                    ck = ck * k + x
            cw = ck
            if cw < 0:
                na, nb, cw = -na, -nb, -cw
            # T = floor(v * w / (cw * 2^shift)) and its count, shift = 0 or P
            w, ew, shift = na, ea, s
            if nb or eb:  # the sqrt(d) part, embedded at 2^P by R
                w, shift = (na << p) + nb * root, p
                if s:  # floored back to the atoms' 2^P, one unit more
                    w >>= p
                    ew = ea - ((-((abs(nb) >> cut) + 1 + eb * r_top)) >> p - cut) + 1
                else:
                    ew = abs(nb)
            if shift:
                t, x = (v * w) >> p, ((abs(w) >> cut) + 1) * e
                if ew:
                    x += (((abs(v) + e) >> cut) + 1) * ew
                x = -x >> p - cut
            else:
                t, x = v * w, -abs(w) * e
            if c_const != 1:
                t //= cw
            err = -(x // cw) + 1
            total += t
            units += err
            terms += 1
            if k >= k0 and abs(t) + err <= limit:
                # the majorant U(k) = (ua + ub*sqrt(d)) / c: atom-free, at 2^0, counted in full
                na, nb, cw = horner(weight.ua, k), horner(weight.ub, k), ck
                if cw < 0:
                    na, nb, cw = -na, -nb, -cw
                w, ew, shift = na, 0, 0
                if nb:
                    w, ew, shift = (na << p) + nb * root, abs(nb), p
                x = abs(w) * e + (abs(v) + e) * ew
                bound = abs(((v * w) >> shift) // cw) - ((-x >> shift) // cw) + 1
                if bound <= limit:
                    return total, units, terms, bound
            rn = rd = 0
            for x in sn:
                rn = rn * k + x
            for x in sd:
                rd = rd * k + x
            if rd < 0:
                rn, rd = -rn, -rd
        # V <- V * base * rn/rd, floored once, and its count
        if b_err:  # a quadratic base: Bd = 2^E, and |Bn| + eb and |v| are read above 2^b_cut
            x = (e * b_top + ((abs(v) >> b_cut) + 1) * b_err) * abs(rn)
            v, e = ((v * rn * bn) >> b_shift) // rd, -((-x >> b_shift - b_cut) // rd) + 1
        else:
            small = b_odd * rd
            x = e * b_mag * abs(rn)
            v, e = ((v * (bn * rn)) >> b_shift) // small, -((-x >> b_shift) // small) + 1
        k += 1


def _guard_bits(envelope: Envelope, n: int) -> int:
    """The bit length of the module docstring's bound on the count of an n-term sum."""
    form, ends = envelope.weight, (envelope.k0, envelope.k0 + n)
    weight = max(
        _log2_surd(horner(form.ua, k), horner(form.ub, k), horner(form.c, k), form.d) for k in ends
    )
    size = math.ceil(max(0.0, weight, envelope.log2_term + 1))
    damping = math.ceil(1 / (1 - envelope.q))
    rho = math.ceil(max(form.cancellation(k) for k in ends))
    return n.bit_length() + (n + damping + rho).bit_length() + size + 2


def sum_series(
    sdef: SeriesDef,
    digits: int,
    envelope: Envelope,
    bits: int,
) -> SumResult:
    """Sum the series to ~`digits` absolute decimal digits at 2^-`bits`.

    The tail is the majorant bound of the ``envelope`` from
    :func:`certify_envelope`, by the stop rule of the module docstring; P is
    ``bits`` plus :func:`_guard_bits` for the predicted count.
    """
    tail_bits = math.ceil((digits + 3) * math.log2(10))
    n = envelope.k0 - sdef.k_start + 1 + envelope.predicted_terms(tail_bits)
    p = bits + _guard_bits(envelope, n)
    qn, qd = envelope.q.numerator, envelope.q.denominator
    # x * 2^-p * q/(1 - q) <= 10^-(digits+3) for an integer x >= 0 iff x <= limit
    limit = ((qd - qn) << p) // (qn * 10 ** (digits + 3))

    s, units, terms, bound = _sum_terms(sdef, envelope.weight, p, envelope.k0, limit)
    units += ceil_units(0, bound * qn, qd - qn)
    return SumResult(ApproxReal(s, p, units), terms, n)


def _sum_to_digits(sdef: SeriesDef, digits: int, envelope: Envelope) -> SumResult:
    """The precision-retry loop of the module docstring around :func:`sum_series`."""
    for attempt in range(MAX_ATTEMPTS):
        bits = attempt_bits(digits + 3, attempt)
        res = sum_series(sdef, digits, envelope, bits)
        res.attempts = attempt + 1
        if res.ball.to_digits() >= digits:
            break
    return res


def evaluate(sdef: SeriesDef, digits: int) -> SumResult:
    """The series summed to `digits` digits by the one precision-retry loop.

    Raises :class:`NonConvergent` when the series has no envelope.
    """
    return _sum_to_digits(sdef, digits, certify_envelope(sdef))


# ----------------------------------------------------------------------
# verification


@dataclass
class VerificationReport:
    status: Status
    digits_requested: int
    digits_matched: int
    terms_used: int
    tail_mode: str  # "certified", or "none" when the series has no envelope
    elapsed: float
    attempts: int
    lhs_str: str = ""
    residual_str: str = ""
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status is Status.PASS


def verify_identity(
    sdef: SeriesDef,
    rhs: ClosedForm,
    digits: int,
    budget_terms: Optional[int] = None,
    lhs_scale: Optional[ClosedForm] = None,
) -> VerificationReport:
    """Compare the series against its closed form at the requested digits.

    ``budget_terms`` is ignored: the envelope's stop rule alone ends the sum.
    It is kept only because ``perfbench/worker.py`` passes it.
    """
    t0 = time.monotonic()

    def report(
        status, attempts, matched=0, terms=0, tail="certified", lhs=None, residual=None, note=""
    ):
        return VerificationReport(
            status=status,
            digits_requested=digits,
            digits_matched=matched,
            terms_used=terms,
            tail_mode=tail,
            elapsed=time.monotonic() - t0,
            attempts=attempts,
            lhs_str="" if lhs is None else lhs.decimal(digits + 5),
            residual_str="" if residual is None else residual.decimal(8),
            note=note,
        )

    try:
        envelope = certify_envelope(sdef)
    except NonConvergent as e:
        return report(Status.INCONCLUSIVE, 0, tail="none", note=f"no certified tail: {e}")
    res = _sum_to_digits(sdef, digits + 5, envelope)

    lhs = res.ball
    if lhs_scale is not None:
        lhs = lhs * lhs_scale.eval_ball(digits + 10)
    residual = lhs - rhs.eval_ball(digits + 10)
    ua = residual.upper_abs()
    matched = log10_floor(1 / ua) if ua else DIGITS_INF
    result = dict(terms=res.terms_used, lhs=lhs, residual=residual)
    if residual.contains_zero() and ua * 10**digits <= 1:
        return report(Status.PASS, res.attempts, matched, **result)
    if residual.excludes_zero():
        return report(
            Status.FAIL, res.attempts, max(0, matched), **result,
            note="residual ball excludes zero",
        )
    return report(
        Status.INCONCLUSIVE, res.attempts, max(0, residual.to_digits()), **result,
        note=f"residual ball straddles zero and is wider than 1e-{digits}",
    )
