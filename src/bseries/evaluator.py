"""Certified series summation and identity verification.

Every convergent series is summed with one certified tail, the envelope
``(q, k0)`` of :mod:`bseries.envelope`: from k0 on, the majorant's terms
``m_k = U(k) * S_k * base^k`` shrink by the factor q each step.  The weight
W, its majorant U and their common denominator c are read off that
module's integer lists, in its notation.

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
first: a rational base steps by ``v * (Bn*Sn(k))`` over ``odd(Bd)*Sd(k)``,
read off lists scaled by Bn and odd(Bd) before the loop, and a quadratic
one by ``(v * Sn(k)) * Bn``; a term with c(k) = 1 skips its division, so a
term costs the two P-bit products ``v * w`` and the step's (and ``nb*R`` for
atoms in Q(sqrt d)), and no P-bit number divides another.

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

The loop reads each integer list at k, Sn, Sd, c, the unit atom's A and B
and each harmonic atom's, off a value stream built once per sum
(:func:`~bseries.exactnum.poly_values`): a polynomial of degree d at
consecutive integers is its difference table at ``k_start`` added up d
times, in C.  The differences of an integer polynomial at integers are
integers, so each value is the integer Horner's rule gives, and every
term, count and stop is the same, bit for bit.  The ``k_start`` steps by
the base alone run through the same loop, with ``r = 1``.

A series with an irrational base and an atom-free weight ``(A + B*sqrt(d))/c``
over a constant c is summed in blocks of m terms first
(:mod:`bseries.blocks`; m = 1 is the loop above, and :func:`_block_size`
gives m = 1 to every other series and wherever blocks do not pay).  Block
j starts at ``K = k_start + m*j``.  Since ``V_{K+i} = V_K * base^i *
prod_{l<i} r(K + l)``,

    V_{K+m} = V_K * base^m * Sn'(j)/Sd'(j),   Sn' = prod_{l<m} Sn(K + l),  Sd' alike,
    sum_{i<m} t_{K+i} = V_K * W'(j),   W'(j) = sum_{i<m} W(K + i) * base^i * prod_{l<i} r(K + l).

With ``base = (bx + by*sqrt(d))/bc``, W' is ``(NA' + NB'*sqrt(d)) / (cc * Sd')``
for ``cc = bc^(m-1) * c`` and

    NA' + NB'*sqrt(d) = sum_i (A + B*sqrt(d))(K + i) * (bx + by*sqrt(d))^i * bc^(m-1-i)
                        * prod_{l<i} Sn(K + l) * prod_{i<=l<m} Sd(K + l),

taken in exact integers as ``R <- Sd(K + i) * (R + X_i * prod_{l<i} Sn(K + l))``.
Each of Sn', Sd', NA', NB' is an integer polynomial in j of degree below
``D = m * max(deg Sn, deg Sd) + deg W + 1``, so its values at j = 0, ...,
D - 1, each from its m terms, fix it, and its difference stream goes on
from them (:func:`~bseries.exactnum.table_values`).  A g that divides cc
and those values of NA' and NB' divides all their differences there, so
every later value: it is divided out.  The block steps V as a term does,
by ``(Bn, 2^E, 2) = embed_dyadic(base^m, P)``, and floors once, with the
count of a step, but reads |Bn| and |v| above ``2^(min(bits(Bn), E) - 32)``,
since ``|base^m|`` may lie far below 2^-32.  The block's weight is a term's in
Q(sqrt d) with ``R' = isqrt(d * 4^P')``: ``T_j = floor(v * w / den)`` for ``w =
NA'*2^P' + NB'*R'`` and ``den = cc * Sd' * 2^P'``, within
``ceil((|w|*e + (|v| + e)*|NB'|) / den) + 1`` units of ``2^P * V_K * W'``,
read above 2^cut as a term's count is (``cut <= P <= P'``).  The first
block starts from ``embed_dyadic(base^k_start * S_{k_start}, P) = (x, y,
ex)``, ``v = floor(x * 2^P / y)`` within ``ceil(ex * 2^P / y) + 1``.

P' sizes the part ``(|v| + e)*|NB'|/den`` of that count.  With ``N' = NA'
+ NB'*sqrt(d)``, its conjugate N'' and ``s = |NA'| + |NB'|*(isqrt(d) + 1) >=
|N''|, |NB'|``, ``|NA'^2 - d*NB'^2| = |N'|*|N''|`` gives ``|NB'|/|N'| <= s^2 /
|NA'^2 - d*NB'^2| < 2^c`` for ``c = 2*bits(s) - bits(NA'^2 - d*NB'^2) + 1``,
the way :func:`~bseries.exactnum.embed_surd` sizes E from a surd's norm
and conjugate.  With ``P' = P + c``, that part is at most ``(|v| + e)/2^P *
|W'|``, about ``|V_K * W'(j)|``: the cancellation between NA' and
``NB'*sqrt(d)``, which grows by about ``log2|conjugate(base)/base|`` a term,
costs no precision.  c is read at j = 0 and at the predicted last block
``n/m``, the larger taken; where it falls short, the ball only widens.

The blocks need no more guard bits.  A block floors V once where m terms
floor it m times, its step is damped by ``|base^m * Sn'/Sd'| = |V_{K+m}/V_K|``
as the m steps together are, and base^m's rounding adds ``2*|v|*|Sn'/Sd'| /
2^E`` units once, below the ``m*|V|`` the m roundings of the base add; so e
stays within the term loop's bound.  The block's count, ``e*|W'| + |V_K *
W'| + 2``, is at most ``sum_i e_{K+i}*|W(K + i)|`` for the errors ``e_{K+i}
>= e*|V_{K+i}/V_K|`` the term loop would carry, plus ``sum_i |m_{K+i}|``
for the R' part, plus 2: no more than the m terms' own counts, whose R
parts are of that size.  Summed over n terms it stays below the guard's
bound for n terms, so P is unchanged.

A block is committed only when no stop can fall inside it.  The stop rule
ends the sum at k only if ``k >= k0`` and its bound, ``|M| + err >= 2^P *
|m_k|``, is at most ``limit``; and from k0 on ``|m_{k+1}| <= q*|m_k|``, so
``|m_k| >= |m_{K'}|`` for ``k0 <= k <= K'``.  So ``2^P * |m_{K'}| > limit``
proves that no k <= K' stops.  At the block's end ``K' = K + m`` the new
(v, e) and ``U(K') = (ua + ub*sqrt(d))/c`` give ``2^P * |m_{K'}| >= (|v| -
e) * (|u| - |ub|) / (|c| * 2^P)`` for ``u = ua*2^P + ub*R``, which exceeds
``limit`` when ``bits(|v| - e) + bits(|u| - |ub|) >= bits(limit) + bits(c) +
P + 2``: integer bit lengths.  A block with ``K' <= k0`` holds no k >= k0
and needs no test.  At the first block the test refuses, the blocks hand
over: the term loop goes on from that block's K with the committed (v, e),
S and units and its own stop rule, and with none committed it runs from
``k_start``, bit for bit the loop with m = 1.  The stop therefore falls at
the first k at which the rule holds on this sum's balls; those differ from
the term loop's by less than their counts, and on every shipped series the
terms are the term loop's (``tests/sum_pins.tsv``).

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
Then it compares once, in integers: for the residual ball ``LHS - RHS =
(s, p, units)`` and ``ua = |s| + units``, PASS iff the ball contains zero
and ``ua * 10^D <= 2^p``, with ``floor(log10(2^p / ua))`` digits matched;
FAIL iff the ball excludes zero (a proof of discrepancy); INCONCLUSIVE
otherwise.  A series without an envelope is INCONCLUSIVE at once.  The
report keeps both balls' integers, compares on them, and prints its
strings from them on first read.
"""

from __future__ import annotations

import enum
import math
import time
from itertools import chain, count, repeat
from typing import Optional

from .closedform import ClosedForm
from .envelope import Envelope, NonConvergent, _IntegerWeight, _log2_surd, certify_envelope
from .exactnum import embed_dyadic, horner, poly_values
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
    "SumResult",
    "sum_series",
    "evaluate",
    "Status",
    "VerificationReport",
    "verify_identity",
]


class Status(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


# ----------------------------------------------------------------------
# summation


class SumResult:
    """A series' sum as a ball, with the terms it took and the attempts that reached it."""

    __slots__ = ("ball", "terms_used", "predicted_terms", "attempts")

    def __init__(self, ball: ApproxReal, terms_used: int, predicted_terms: int, attempts: int = 1):
        self.ball = ball
        self.terms_used = terms_used
        # n, the count P is sized for: k0 - k_start + 1 + Envelope.predicted_terms
        self.predicted_terms = predicted_terms
        self.attempts = attempts  # precision attempts of the retry loop, this one included


def _sum_terms(
    sdef: SeriesDef, weight: _IntegerWeight, p: int, k0: int, limit: int, m: int = 1, n: int = 0
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
    bound, with ``limit``.  With ``m > 1`` the blocks of
    :func:`~bseries.blocks.sum_blocks` come first, for n predicted terms, and
    the terms go on from the first block its certificate refused; with none
    committed, from ``k_start``.
    """
    bn, bd, b_err = embed_dyadic(sdef.base_value, p)
    b_shift = (bd & -bd).bit_length() - 1
    b_odd, b_mag = bd >> b_shift, abs(bn) + b_err
    root = math.isqrt(weight.d << 2 * p) if weight.d > 1 else 0
    # a count reads a P-bit number above 2^cut, and the base's above 2^b_cut
    cut, b_cut = max(p - 32, 0), max(b_shift - 32, 0)
    b_top, r_top = (b_mag >> b_cut) + 1, ((root + 1) >> cut) + 1
    k_start = sdef.k_start
    state = None
    if m > 1:  # the blocks' module is compiled only by a process that sums in blocks
        from .blocks import sum_blocks

        state = sum_blocks(sdef, weight, p, k0, limit, m, n)
    if state is None:  # from k = 0: k_start steps by the base alone, the weight's values unread
        num, den = sdef.scale(k_start)
        k_first, v, e, total, units, terms = k_start, (num << p) // den, 1, 0, 0, 0
    else:  # on from the block the certificate refused, term by term
        k_first, v, e, total, units, terms = state
    unit_a = unit_b = ()
    atoms = []  # [stride, offset, order, n, h_n] of each harmonic atom
    pairs = []  # the values of each atom's A_i and B_i at k
    s = p if any(atom for *_, atom in weight.terms) else 0
    one = 1 << s
    for a, b, atom in weight.terms:
        if atom is None:
            unit_a, unit_b = a, b
        else:
            atoms.append([atom.stride, atom.offset, atom.order, 0, 0])
            pairs.append(zip(poly_values(a, k_first), poly_values(b, k_first)))
    sn, sd = sdef.scale_ratio
    r0 = 1, 1  # r = 1 before k_start; a rational base's Bn*Sn and odd(Bd)*Sd are scaled here
    if not b_err:
        sn, sd, r0 = [bn * x for x in sn], [b_odd * x for x in sd], (bn, b_odd)
    values = [poly_values(x, k_first) for x in (sn, sd, weight.c, unit_a, unit_b)]
    values.append(zip(*pairs) if pairs else repeat(()))
    # the k_start steps by the base alone unless blocks came first, then one weighed term and
    # one step by base*r(k) a k, each list's value at k read off its stream
    before = zip(range(0 if state else k_start), *map(repeat, r0), *[repeat(1)] * 4)
    steps = chain(before, zip(count(k_first), *values))
    for k, rn, rd, ck, na, nb, atom_values in steps:
        if k >= k_start:
            # na + nb*sqrt(d) within ea + eb*sqrt(d) of W(k) * c(k) * 2^s
            ea = eb = 0
            if s:
                na, nb = na << s, nb << s
                for atom, (x, y) in zip(atoms, atom_values):
                    stride, offset, order, n, h = atom
                    index = stride * k + offset
                    while n < index:  # h_n = sum_{j<=n} floor(2^P / j^m), one unit a floor
                        n += 1
                        h += one // n**order
                    atom[3:] = n, h
                    na, ea = na + x * h, ea + abs(x) * n
                    if y:
                        nb, eb = nb + y * h, eb + abs(y) * n
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
            if cw != 1:
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
            if rd < 0:
                rn, rd = -rn, -rd
        # V <- V * base * rn/rd, floored once, and its count
        if b_err:  # a quadratic base: Bd = 2^E, and |Bn| + eb and |v| are read above 2^b_cut
            x = (e * b_top + ((abs(v) >> b_cut) + 1) * b_err) * abs(rn)
            v, e = ((v * rn * bn) >> b_shift) // rd, -((-x >> b_shift - b_cut) // rd) + 1
        else:
            x = e * abs(rn)
            v, e = ((v * rn) >> b_shift) // rd, -((-x >> b_shift) // rd) + 1


def _block_size(sdef: SeriesDef, weight: _IntegerWeight, p: int, n: int) -> int:
    """m, the terms a block of :func:`~bseries.blocks.sum_blocks` takes: 1 for a rational
    base, a weight with harmonic atoms or a denominator in k, and wherever blocks do not pay."""
    if sdef.base_value.is_rational or len(weight.terms) != 1 or weight.terms[0][2] is not None:
        return 1
    if len(weight.c) != 1 or n * p < 1 << 18:
        return 1
    return 4 if p < 400 else 8 if p < 2000 else 16


def _guard_bits(envelope: Envelope, n: int) -> int:
    """The bit length of the module docstring's bound on the count of an n-term sum."""
    form, ends = envelope.weight, (envelope.k0, envelope.k0 + n)
    weight = max(
        _log2_surd(horner(form.ua, k), horner(form.ub, k), horner(form.c, k), form.d) for k in ends
    )
    size = math.ceil(max(0.0, weight, envelope.log2_term + 1))
    qn, qd = envelope.q.numerator, envelope.q.denominator
    damping = -(-qd // (qd - qn))  # ceil(1 / (1 - q))
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

    m = _block_size(sdef, envelope.weight, p, n)
    s, units, terms, bound = _sum_terms(sdef, envelope.weight, p, envelope.k0, limit, m, n)
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


class VerificationReport:
    """A series' verdict against its closed form, with the balls it rests on."""

    __slots__ = (
        "status", "digits_requested", "digits_matched", "terms_used", "tail_mode", "elapsed",
        "attempts", "lhs_ball", "residual_ball", "note", "_lhs_str", "_residual_str",
    )

    def __init__(
        self,
        status: Status,
        digits_requested: int,
        digits_matched: int,
        terms_used: int,
        tail_mode: str,  # "certified", or "none" when the series has no envelope
        elapsed: float,
        attempts: int,
        lhs_ball: Optional[tuple[int, int, int]] = None,  # (s, p, units) of the LHS ball
        residual_ball: Optional[tuple[int, int, int]] = None,  # and of LHS - RHS
        note: str = "",
    ):
        self.status = status
        self.digits_requested = digits_requested
        self.digits_matched = digits_matched
        self.terms_used = terms_used
        self.tail_mode = tail_mode
        self.elapsed = elapsed
        self.attempts = attempts
        self.lhs_ball = lhs_ball
        self.residual_ball = residual_ball
        self.note = note
        self._lhs_str = self._residual_str = None

    def __eq__(self, other):
        if type(other) is not VerificationReport:
            return NotImplemented
        fields = VerificationReport.__slots__[:10]  # not the strings printed from the balls
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    @property
    def passed(self) -> bool:
        return self.status is Status.PASS

    @property
    def lhs_str(self) -> str:  # to digits_requested + 5 digits; "" without a sum
        if self._lhs_str is None:
            ball, digits = self.lhs_ball, self.digits_requested + 5
            self._lhs_str = "" if ball is None else ApproxReal(*ball).decimal(digits)
        return self._lhs_str

    @property
    def residual_str(self) -> str:  # to 8 digits; "" without a sum
        if self._residual_str is None:
            ball = self.residual_ball
            self._residual_str = "" if ball is None else ApproxReal(*ball).decimal(8)
        return self._residual_str


def _residual_digits(residual: ApproxReal, digits: int) -> tuple[bool, int]:
    """Whether ``|residual| <= 10^-digits`` surely, and the digits matched,
    ``floor(log10(1/ua))`` for the bound ``|residual| <= ua``: in integers."""
    ua, one = abs(residual.s) + residual.units, 1 << residual.p  # ua over 2^p
    return ua * 10**digits <= one, log10_floor(one, ua) if ua else DIGITS_INF


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
            lhs_ball=None if lhs is None else (lhs.s, lhs.p, lhs.units),
            residual_ball=None if residual is None else (residual.s, residual.p, residual.units),
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
    within, matched = _residual_digits(residual, digits)
    result = dict(terms=res.terms_used, lhs=lhs, residual=residual)
    if residual.contains_zero() and within:
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
