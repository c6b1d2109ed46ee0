"""Certified series summation and identity verification.

Every convergent series is summed with one certified tail.  Its weight is
cleared once, by :class:`_IntegerWeight`, to integer lists over one common
denominator c:

    W(k) = sum_i (A_i + B_i*sqrt(d)) * atom_i(k) / c(k),

each atom 1 or a harmonic number ``H_n^(m)``, carried exactly as the integer
pair ``(A_n, L_n^m)`` over ``L_n = lcm(1..n)`` (:class:`_Harmonic`); a
sqrt(d) in a coefficient's denominator is rationalised by its conjugate.
The majorant weight is ``U = (UA + UB*sqrt(d)) / c`` on the same lists.  An
atom-free weight is its own majorant, from ``k_start``.  Otherwise U starts
at K, the largest root bound from ``k_start`` of every coefficient's own
numerator and denominator, so each coefficient keeps its sign ``sigma_i``
from K on, and ``U = sum_i sigma_i * (A_i + B_i*sqrt(d)) * b_i / c`` with
``b_i(k) = stride*k + offset >= H(stride*k + offset, m) >= 0`` for an atom and
``b_i = 1`` for the unit atom.  Then ``U(k) >= |W(k)|`` for k >= K
(Mezzarobba & Salvy, *Effective bounds for P-recursive sequences*, 2010).

The envelope is certified for the majorant's terms ``m_k = U(k) * S_k *
base^k``, with ``S_k = kernel(k)^(+-1) / D(k)`` read from the series in
integers: :meth:`~bseries.seriesmodel.SeriesDef.scale` gives S_k, and
:attr:`~bseries.seriesmodel.SeriesDef.scale_ratio` the lists ``(Sn, Sd)``
with ``S_{k+1}/S_k = Sn(k)/Sd(k)``, and ``scale_growth`` their limit g.
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
Each factor is an :class:`~bseries.exactnum.IntegerSurdPoly` with no real
root beyond its coefficient-dominance bound; the sign of G at an integer,
the product of the factors' exact signs, is checked from the larger bound
down to K, which gives ``k0``.  ``L >= 1`` raises :class:`NonConvergent`.
A q near L keeps the tail factor ``q/(1 - q)`` small but can push k0 far
out, so q is chosen per series: each of ``L*65/64``, ``L*9/8``, ``L*3/2``
and ``(1 + L)/2`` below 1 is certified, and the one with the fewest
predicted terms (:meth:`Envelope.predicted_terms`) to a tail of
``2^-_RANK_BITS`` wins.

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

The weight is ``W(k) = (A + B*sqrt(d)) / C`` over integers; with
``R = isqrt(d * 4^P)``, ``W~ = (A*2^P + B*R) / (C*2^P)`` is within
``|B|/(C*2^P)`` of W, and ``T_k = floor(W~ * v)`` is within

    ceil(|W~|*e + (|v| + e)*|B|/(C*2^P)) + 1

units of ``t_k * 2^P``.  The sum is the integer ``S = sum T_k`` with the
count ``units = sum`` of those errors: the ball is the triple
``(S, P, units)`` as it stands.

P is the requested precision plus guard bits for the count.  After k0, e is
damped by ``|r*base| <= q``, so it stays below about ``1/(1 - q)`` plus the
``k*|V_k|`` units the base's rounding adds; times |W| and summed over n
terms, units stays below ``n * (n + 1/(1 - q)) * max(|U|, 2*|m_{k0}|)``,
with n the predicted term count and ``m_{k0}`` the majorant's term at k0.
Its bit length is the guard (:func:`_guard_bits`), so the count costs less
than one unit of the requested precision and the first attempt suffices.  The
estimate leaves out terms before k0 larger than ``m_{k0}``; an estimate
that falls short only widens the ball, and verification then retries.

One stop rule ends every sum: once ``k >= k0`` and ``|t_k| * q/(1 - q)``
is at most ``10^-(digits+3)``, the sum stops as soon as the majorant's
bound ``|U(k) * S_k * base^k| * q/(1 - q)`` is at most that too; it covers
the tail after ``t_k`` and joins the count, rounded up to whole units.  Both
tests compare integers.

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
from functools import reduce
from typing import Optional

import mpmath

from .closedform import ClosedForm
from .exactnum import (
    IntegerSurdPoly, QuadElem, embed_dyadic, horner, poly_add, poly_mul, poly_shift,
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
    "BudgetExceeded",
    "Envelope",
    "certify_envelope",
    "SumResult",
    "sum_series",
    "evaluate",
    "Status",
    "VerificationReport",
    "verify_identity",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 200_000

# q is ranked by the predicted term count to a tail of 2^-_RANK_BITS (about
# 38 digits).  k0 binds only where the sum would otherwise stop before it,
# that is at low precision; at high precision every candidate stops where
# the terms do, and the ranking changes little.
_RANK_BITS = 128


class NonConvergent(ArithmeticError):
    """The limiting term ratio is >= 1; no geometric tail exists."""


class BudgetExceeded(ArithmeticError):
    """The term budget ran out after ``terms_used`` terms, in precision attempt ``attempts``."""

    def __init__(self, terms_used: int, message: str):
        super().__init__(message)
        self.terms_used = terms_used
        self.attempts = 1


class Status(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


def _log2_abs(x: QuadElem) -> float:
    """log2 |x|, -inf at 0; in floats, for sizing only."""
    if not x:
        return -math.inf
    bn, bd, _ = embed_dyadic(x, 64)
    return math.log2(abs(bn)) - math.log2(bd)


# ----------------------------------------------------------------------
# envelope certification


class _Harmonic:
    """``H_n^(m) = A_n / L_n^m`` over ``L_n = lcm(1..n)``, stepped in n by

        A_n = A_{n-1} * (L_n/L_{n-1})^m + (L_n/n)^m,

    where ``L_n/L_{n-1} = n / gcd(L_{n-1}, n)`` is p at a prime power
    ``n = p^e`` and 1 otherwise.  Each step divides the big ``L_n^m`` by the
    small ``n^m`` exactly and takes no gcd of big integers.
    """

    def __init__(self, order: int):
        self.order, self.n, self.a, self.l, self.lm = order, 0, 0, 1, 1

    def at(self, n: int) -> tuple[int, int]:
        """``(A_n, L_n^m)``; stepped on from the last n, or from 0 when n is below it."""
        if n < self.n:
            self.__init__(self.order)
        m = self.order
        while self.n < n:
            j = self.n = self.n + 1
            r = j // math.gcd(self.l % j, j)
            if r > 1:
                rm = r**m
                self.l, self.lm, self.a = self.l * r, self.lm * rm, self.a * rm
            self.a += self.lm // j**m
        return self.a, self.lm


class _IntegerWeight:
    """The weight W and its majorant U on integer lists, as the module docstring says.

    ``terms`` holds ``(A_i, B_i, atom_i)``, ``c`` the common denominator,
    ``(ua, ub)`` U's numerator, and ``start`` the K from which
    ``U(k) >= |W(k)|``; an empty list is the zero polynomial.
    """

    def __init__(self, sdef: SeriesDef):
        self.d = d = sdef.field_d
        cleared, polys = [], []
        for coeff, atom in sdef.weight:
            num, den = IntegerSurdPoly(coeff.num), IntegerSurdPoly(coeff.den)
            polys.append((num, den))
            # coeff = (a + b*sqrt(d)) * den.scale / (c * num.scale)
            a, b, c = num.a, num.b, den.a
            if any(den.b):  # times the conjugate den.a - den.b*sqrt(d), over and under
                conj = (den.a, [-x for x in den.b])
                a, b = _surd_mul((a, b), conj, d)
                c = _surd_mul((den.a, den.b), conj, d)[0]
            b = [x * den.scale for x in b] if any(b) else []
            cleared.append(([x * den.scale for x in a], b, tuple(x * num.scale for x in c), atom))
        dens = list(dict.fromkeys(c for *_, c, _ in cleared))
        self.c, self.terms = reduce(poly_mul, dens, [1]), []
        for a, b, c, atom in cleared:
            others = [x for x in dens if x != c]
            self.terms.append((reduce(poly_mul, others, a), reduce(poly_mul, others, b), atom))
        self.start, signs = sdef.k_start, [1] * len(polys)
        if sdef.has_harmonic():
            self.start = k = max(p.root_bound(start=sdef.k_start) for pair in polys for p in pair)
            signs = [num.sign_at(k) * den.sign_at(k) for num, den in polys]
        self.ua, self.ub = [], []
        for sign, (a, b, atom) in zip(signs, self.terms):
            bound = [sign * atom.offset, sign * atom.stride] if atom else [sign]
            self.ua = poly_add(self.ua, poly_mul(a, bound))
            self.ub = poly_add(self.ub, poly_mul(b, bound))

    def harmonics(self) -> list[Optional[_Harmonic]]:
        """A fresh :class:`_Harmonic` for each harmonic atom of ``terms``, None for the unit atom."""
        return [None if atom is None else _Harmonic(atom.order) for *_, atom in self.terms]

    def weight_at(self, k: int, harmonics: list[Optional[_Harmonic]]) -> tuple[int, int, int]:
        """``(wa, wb, wc)`` with ``W(k) = (wa + wb*sqrt(d)) / wc``; ``harmonics`` from :meth:`harmonics`."""
        wa, wb, wc = 0, 0, 1
        for (a, b, atom), h in zip(self.terms, harmonics):
            x, y, n = horner(a, k), horner(b, k), 1
            if atom is not None:
                hn, n = h.at(atom.index_at(k))
                x, y = x * hn, y * hn
            wa, wb, wc = wa * n + x * wc, wb * n + y * wc, wc * n
        return wa, wb, wc * horner(self.c, k)

    def majorant_at(self, k: int) -> tuple[int, int, int]:
        """``(ua, ub, c)`` with ``U(k) = (ua + ub*sqrt(d)) / c``."""
        return horner(self.ua, k), horner(self.ub, k), horner(self.c, k)

    def majorant_value(self, k: int) -> QuadElem:
        ua, ub, c = self.majorant_at(k)
        return QuadElem(Fraction(ua, c), Fraction(ub, c), self.d)


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


def _surd_mul(x: tuple[list, list], y: tuple[list, list], d: int) -> tuple[list, list]:
    """``(a + b*sqrt(d)) * (a' + b'*sqrt(d))`` on pairs ``(a, b)`` of integer lists."""
    (a, b), (a2, b2) = x, y
    rational = poly_add(poly_mul(a, a2), [d * c for c in poly_mul(b, b2)])
    return rational, poly_add(poly_mul(a, b2), poly_mul(b, a2))


def _majorant_term(sdef: SeriesDef, weight: _IntegerWeight, k: int) -> QuadElem:
    """The majorant's term ``m_k = U(k) * S_k * base^k``, exactly."""
    return weight.majorant_value(k) * sdef.base_value**k * Fraction(*sdef.scale(k))


def _majorant_ratio(sdef: SeriesDef, weight: _IntegerWeight) -> tuple[tuple, tuple]:
    """The majorant's term ratio ``num/den``, each side a pair ``(a, b)`` of
    integer lists for ``a + b*sqrt(d)``, built as the module docstring says."""
    beta = sdef.base_value
    bc = math.lcm(beta.a.denominator, beta.b.denominator)
    sn, sd = sdef.scale_ratio
    r = poly_mul(sn, weight.c)
    t = [bc * c for c in poly_mul(sd, poly_shift(weight.c, 1))]
    u = (weight.ua, weight.ub)
    beta_lists = ([int(beta.a * bc)], [int(beta.b * bc)])
    na, nb = _surd_mul([poly_shift(x, 1) for x in u], beta_lists, weight.d)
    return (poly_mul(na, r), poly_mul(nb, r)), tuple(poly_mul(t, x) for x in u)


def _certify_q(
    sdef: SeriesDef, weight: _IntegerWeight, num: tuple, den: tuple, q: Fraction
) -> Envelope:
    """The envelope of the majorant's terms for this q: the smallest sharp k0.

    ``num/den`` is :func:`_majorant_ratio`'s.
    """
    qn, qd = q.numerator, q.denominator

    def factor(sign: int) -> IntegerSurdPoly:  # qn*den + sign*qd*num
        a, b = (poly_add([qn * c for c in x], [sign * qd * c for c in y]) for x, y in zip(den, num))
        return IntegerSurdPoly.from_lists(a, b, weight.d)

    # qd^2 * G = (qn*den - qd*num) * (qn*den + qd*num); want G(k) >= 0
    factors = (factor(-1), factor(1))

    def sign_g(k: int) -> int:
        return factors[0].sign_at(k) * factors[1].sign_at(k)

    k_min = weight.start
    k_star = max(f.root_bound(start=k_min) for f in factors)
    if sign_g(k_star) < 0:
        raise NonConvergent("envelope is negative beyond its root bound")
    k0 = k_star
    k = k_star - 1
    while k >= k_min and sign_g(k) >= 0:
        k0 = k
        k -= 1
    log2_term = _log2_abs(_majorant_term(sdef, weight, k0))
    return Envelope(q=q, k0=k0, weight=weight, log2_term=log2_term)


def certify_envelope(sdef: SeriesDef) -> Envelope:
    """Prove ``|m_{k+1}/m_k| <= q < 1`` for the majorant's terms, k >= k0 (exact arithmetic only).

    q is the candidate of the module docstring with the fewest predicted
    terms, the smallest q on a tie.
    """
    g = sdef.scale_growth
    limit = abs(sdef.base_value) * g
    if limit >= 1:
        raise NonConvergent(f"limiting term ratio |base|*growth = {limit} is >= 1")

    def dyadic_up(x: Fraction, bits: int = 24) -> Fraction:
        # Round up to a small-denominator dyadic: keeps every downstream
        # coefficient of G small.
        return Fraction(math.ceil(x * (1 << bits)), 1 << bits)

    bn, bd, eb = embed_dyadic(sdef.base_value, 192)
    l_hi = Fraction(abs(bn) + eb, bd) * g
    candidates = [l_hi * f for f in (Fraction(65, 64), Fraction(9, 8), Fraction(3, 2))]
    candidates.append((l_hi + 1) / 2)
    qs = sorted({q for q in map(dyadic_up, candidates) if q < 1})
    if not qs:
        raise NonConvergent("cannot select a geometric bound below 1")
    weight = _IntegerWeight(sdef)
    num, den = _majorant_ratio(sdef, weight)
    envelopes = []
    for q in qs:
        envelopes.append(_certify_q(sdef, weight, num, den, q))
        if envelopes[-1].k0 == weight.start:
            # a larger q keeps this k0 and decays slower: no fewer terms
            break
    return min(envelopes, key=lambda env: env.k0 + env.predicted_terms(_RANK_BITS))


# ----------------------------------------------------------------------
# summation


@dataclass
class SumResult:
    ball: ApproxReal
    terms_used: int
    attempts: int = 1  # precision attempts of the retry loop, this one included


class _TermStream:
    """Scaled terms ``T_k`` near ``2^P * t_k``, each with its error count.

    The recurrence and the counts are those of the module docstring: ``v``
    and ``e`` carry ``V_k = S_k * base^k``, and the weight is read off the
    envelope's integer lists, each atom combined over c(k) with its integer
    pair from :class:`_Harmonic`.  :meth:`majorant_term` bounds
    ``|U(k) * S_k * base^k|`` for the last term from the same ``v`` and ``e``.
    """

    def __init__(self, sdef: SeriesDef, weight: _IntegerWeight, p: int):
        self.weight, self.p = weight, p
        self.k = k = sdef.k_start
        self.base = embed_dyadic(sdef.base_value, p)
        self.root = math.isqrt(weight.d << 2 * p) if weight.d > 1 else 0
        self.ratio = sdef.scale_ratio
        num, den = sdef.scale(k)
        self.v, self.e = (num << p) // den, 1
        for _ in range(k):  # times base^k_start
            self._step(1, 1)
        self.harmonics = weight.harmonics()
        self.last = None  # (k, v, e) of the last term

    def _step(self, rn: int, rd: int) -> None:
        """``V <- V * base * rn/rd`` for ``rd > 0``, floored once, and its count."""
        bn, bd, eb = self.base
        v, den = self.v, bd * rd
        self.v = v * bn * rn // den
        self.e = ceil_units(0, (self.e * (abs(bn) + eb) + abs(v) * eb) * abs(rn), den) + 1

    def _weigh(self, w: tuple[int, int, int], v: int, e: int) -> tuple[int, int]:
        """``floor(W~ * v)`` for ``W = (wa + wb*sqrt(d)) / wc``, and its error count."""
        wa, wb, wc = w
        if wc < 0:
            wa, wb, wc = -wa, -wb, -wc
        if not wb:
            return v * wa // wc, ceil_units(0, abs(wa) * e, wc) + 1
        w, den = (wa << self.p) + wb * self.root, wc << self.p
        return v * w // den, ceil_units(0, abs(w) * e + (abs(v) + e) * abs(wb), den) + 1

    def next_term(self) -> tuple[int, int, int]:
        """``(k, T_k, err_k)`` with ``|T_k - 2^P * t_k| <= err_k``; then steps V to k + 1."""
        k, v, e = self.k, self.v, self.e
        self.last = (k, v, e)
        t, err = self._weigh(self.weight.weight_at(k, self.harmonics), v, e)
        rn, rd = horner(self.ratio[0], k), horner(self.ratio[1], k)
        if rd < 0:
            rn, rd = -rn, -rd
        self._step(rn, rd)
        self.k = k + 1
        return k, t, err

    def majorant_term(self) -> int:
        """An upper bound on ``|U(k) * S_k * base^k| * 2^P`` for the last term's k."""
        k, v, e = self.last
        t, err = self._weigh(self.weight.majorant_at(k), v, e)
        return abs(t) + err


def _guard_bits(envelope: Envelope, n: int) -> int:
    """The bit length of the module docstring's bound on the count of an n-term sum."""
    u = envelope.weight.majorant_value
    weight = max(_log2_abs(u(k)) for k in (envelope.k0, envelope.k0 + n))
    size = math.ceil(max(0.0, weight, envelope.log2_term + 1))
    damping = math.ceil(1 / (1 - envelope.q))
    return n.bit_length() + (n + damping).bit_length() + size + 2


def sum_series(
    sdef: SeriesDef,
    digits: int,
    envelope: Envelope,
    bits: int,
    budget_terms: Optional[int] = None,
) -> SumResult:
    """Sum the series to ~`digits` absolute decimal digits at 2^-`bits`.

    The tail is the majorant bound of the ``envelope`` from
    :func:`certify_envelope`, by the stop rule of the module docstring; P is
    ``bits`` plus :func:`_guard_bits` for the predicted count.
    """
    budget = budget_terms if budget_terms is not None else DEFAULT_BUDGET
    tail_bits = math.ceil((digits + 3) * math.log2(10))
    n = envelope.k0 - sdef.k_start + 1 + envelope.predicted_terms(tail_bits)
    p = bits + _guard_bits(envelope, n)
    qn, qd = envelope.q.numerator, envelope.q.denominator
    # x * 2^-p * q/(1 - q) <= 10^-(digits+3) for an integer x >= 0 iff x <= limit
    limit = ((qd - qn) << p) // (qn * 10 ** (digits + 3))

    stream = _TermStream(sdef, envelope.weight, p)
    s = units = terms = 0
    while True:
        k, t, err = stream.next_term()
        s += t
        units += err
        terms += 1
        if k >= envelope.k0 and abs(t) + err <= limit:
            bound = stream.majorant_term()
            if bound <= limit:
                units += ceil_units(0, bound * qn, qd - qn)
                return SumResult(ApproxReal(s, p, units), terms)
        if terms >= budget:
            raise BudgetExceeded(terms, "term budget exhausted")


def _sum_to_digits(
    sdef: SeriesDef, digits: int, envelope: Envelope, budget_terms: Optional[int] = None
) -> SumResult:
    """The precision-retry loop of the module docstring around :func:`sum_series`."""
    for attempt in range(MAX_ATTEMPTS):
        bits = attempt_bits(digits + 3, attempt)
        try:
            res = sum_series(sdef, digits, envelope, bits, budget_terms=budget_terms)
        except BudgetExceeded as e:
            e.attempts = attempt + 1
            raise
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
    """Compare the series against its closed form at the requested digits."""
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
            lhs_str="" if lhs is None else mpmath.nstr(lhs.mid, digits + 5),
            residual_str="" if residual is None else mpmath.nstr(residual.mid, 8),
            note=note,
        )

    try:
        envelope = certify_envelope(sdef)
    except NonConvergent as e:
        return report(Status.INCONCLUSIVE, 0, tail="none", note=f"no certified tail: {e}")
    try:
        res = _sum_to_digits(sdef, digits + 5, envelope, budget_terms)
    except BudgetExceeded as e:
        return report(Status.INCONCLUSIVE, e.attempts, terms=e.terms_used, note=str(e))

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
