"""Certified tail envelopes: the weight's majorant and a term-ratio bound (q, k0).

Every convergent series is summed with one certified tail, proved here.
Its weight comes as the integer lists the series holds
(:class:`~bseries.seriesmodel.Weight`): per atom, a coefficient ``(a_i +
b_i*sqrt(d)) / e_i`` with a rational e_i (a sqrt(d) in a denominator was
rationalised by its conjugate when the series was built), and the same
weight over one common denominator c, the product of the distinct e_i:

    W(k) = sum_i (A_i + B_i*sqrt(d)) * atom_i(k) / c(k),

each atom 1 or a harmonic number ``H_n^(m)``, which a sum carries as a
fixed-point integer with a counted error (:mod:`bseries.evaluator`).
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
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from typing import Optional

from .exactnum import (
    Frozen, IntegerSurdPoly, coefficient_sign, embed_dyadic, embed_surd, horner, poly_add, poly_mul,
    poly_shift, surd_mul, surd_sign,
)
from .seriesmodel import SeriesDef

__all__ = ["NonConvergent", "Envelope", "certify_envelope"]

# q is ranked by the predicted term count to a tail of 2^-_RANK_BITS (about
# 38 digits).  k0 binds only where the sum would otherwise stop before it,
# that is at low precision; at high precision every candidate stops where
# the terms do, and the ranking changes little.
_RANK_BITS = 128


class NonConvergent(ArithmeticError):
    """The limiting term ratio is >= 1; no geometric tail exists."""


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


class _IntegerWeight:
    """The weight W and its majorant U on integer lists, as the module docstring says.

    ``terms`` holds ``(A_i, B_i, atom_i)`` and ``c`` the common denominator,
    both built from the series' :class:`~bseries.seriesmodel.Weight`;
    ``(ua, ub)`` is U's numerator, and ``start`` the K from which
    ``U(k) >= |W(k)|``; an empty list is the zero polynomial.
    """

    def __init__(self, sdef: SeriesDef):
        self.d, parts = sdef.field_d, sdef.weight.parts
        dens = list(dict.fromkeys(e for _, _, e, _ in parts))
        self.c, self.terms = reduce(poly_mul, dens, [1]), []
        for a, b, e, atom in parts:
            others = [x for x in dens if x != e]
            a, b = (reduce(poly_mul, others, list(x)) for x in (a, b))
            self.terms.append((a, b, atom))
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


class Envelope(Frozen):
    """``|m_{k+1}/m_k| <= q`` for the majorant's terms m_k of ``weight`` and every k >= k0.

    ``log2_term`` is ``log2 |m_{k0}|`` (-inf when it is 0), in floats: it
    sizes and ranks, and certifies nothing.
    """

    __slots__ = ("q", "k0", "weight", "log2_term")

    def __init__(self, q: Fraction, k0: int, weight: _IntegerWeight, log2_term: float):
        self._set(q, k0, weight, log2_term)

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
