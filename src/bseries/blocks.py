"""Quadratic-base series summed in blocks of m terms, for :mod:`bseries.evaluator`.

Block j of a series with an irrational base and an atom-free weight over a
constant c takes its m terms from ``K = k_start + m*j`` as one: ``V_{K+m} =
V_K * base^m * Sn'(j)/Sd'(j)`` with ``Sn' = prod_{l<m} Sn(K + l)`` and Sd'
alike, and its weight is

    W'(j) = sum_{i<m} W(K + i) * base^i * prod_{l<i} r(K + l)
          = (NA' + NB'*sqrt(d))(j) / (cc * Sd'(j)),

integer polynomials in j and a constant cc > 0.  Their values are read off
difference streams started from a table of their first values, each value
computed from its m terms in exact integers.  :func:`sum_blocks` sums the
blocks while a no-stop certificate holds, and the term loop of
:func:`bseries.evaluator._sum_terms` takes over at the first block it
refuses; :func:`bseries.evaluator._block_size` picks m.  The evaluator's
module docstring proves the recurrence, the precision P' the block's weight
is embedded at, the block's count, the certificate and the hand-over.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from typing import Optional

from .envelope import _IntegerWeight
from .exactnum import embed_dyadic, horner, poly_values, table_values
from .seriesmodel import SeriesDef

__all__ = ["block_values", "block_lists", "sum_blocks"]


def block_values(sdef: SeriesDef, weight: _IntegerWeight, m: int, j: int, number: int) -> list:
    """``(Sn', Sd', NA', NB')`` at blocks j, j + 1, ... (``number`` of them), as the module
    docstring has them, each from its m terms in exact integers."""
    beta, d = sdef.base_value, weight.d
    bc = math.lcm(beta.a.denominator, beta.b.denominator)
    bx, by = int(beta.a * bc), int(beta.b * bc)
    powers, px, py = [], 1, 0  # (bx + by*sqrt(d))^i * bc^(m - 1 - i)
    for i in range(m):
        powers.append((px * bc ** (m - 1 - i), py * bc ** (m - 1 - i)))
        px, py = px * bx + d * py * by, px * by + py * bx
    ((a, b, _),) = weight.terms
    lists = zip(*(poly_values(x, sdef.k_start + m * j) for x in (*sdef.scale_ratio, a, b)))
    out = []
    for _ in range(number):
        head, tail, na, nb = 1, 1, 0, 0  # prod Sn, prod Sd, and the weights so far over tail
        for (x, y), (sn, sd, wa, wb) in zip(powers, lists):
            xa, xb = (wa * x + d * wb * y) * head, (wa * y + wb * x) * head
            head, tail, na, nb = head * sn, tail * sd, (na + xa) * sd, (nb + xb) * sd
        out.append((head, tail, na, nb))
    return out


def block_lists(sdef: SeriesDef, weight: _IntegerWeight, m: int) -> tuple[int, int, list]:
    """``(cc, g, table)``: ``table[j]`` is ``(Sn', Sd', NA'/g, NB'/g)`` at blocks j = 0, 1, ...,
    as many as fix the lists, and g > 0 divides ``cc`` and each NA' and NB' value."""
    beta = sdef.base_value
    (sn, sd), (a, b, _) = sdef.scale_ratio, weight.terms[0]
    # each list's degree is below the table's length, m * max(deg Sn, deg Sd) + deg W + 1
    points = m * (max(len(sn), len(sd)) - 1) + max(1, len(a), len(b))
    table = block_values(sdef, weight, m, 0, points)
    cc = math.lcm(beta.a.denominator, beta.b.denominator) ** (m - 1) * weight.c[0]
    g = math.gcd(cc, *(x for *_, na, nb in table for x in (na, nb))) * (1 if cc > 0 else -1)
    return cc // g, g, [(rn, rd, na // g, nb // g) for rn, rd, na, nb in table]


def sum_blocks(
    sdef: SeriesDef, weight: _IntegerWeight, p: int, k0: int, limit: int, m: int, n: int
) -> Optional[tuple[int, int, int, int, int, int]]:
    """The series summed in blocks of m terms from ``k_start`` while the no-stop certificate
    holds: ``(K, v, e, S, units, terms)`` at the first block it refuses, None if that is
    the first.  n sizes P', as the module docstring says."""
    beta, k_start, d = sdef.base_value, sdef.k_start, weight.d
    cc, g, table = block_lists(sdef, weight, m)

    def cancellation(na: int, nb: int) -> int:  # bits NA' and NB'*sqrt(d) cancel, sized as E is
        size, norm = abs(na) + abs(nb) * (math.isqrt(d) + 1), abs(na * na - d * nb * nb)
        return 2 * size.bit_length() - norm.bit_length() + 1

    [(*_, na, nb)] = block_values(sdef, weight, m, n // m, 1)
    p2 = p + max(0, cancellation(*table[0][2:]), cancellation(na // g, nb // g))
    root, root2 = math.isqrt(d << 2 * p), math.isqrt(d << 2 * p2)
    bn, bd, b_err = embed_dyadic(beta**m, p)
    b_shift = bd.bit_length() - 1
    cut, b_cut = max(p - 32, 0), max(min(abs(bn).bit_length(), b_shift) - 32, 0)
    b_top = ((abs(bn) + b_err) >> b_cut) + 1
    # 2^P * |m_K'| > limit when (|v| - e) * (|u| - |ub|) > limit * |c| * 2^P, u = ua*2^P + ub*R
    need = limit.bit_length() + abs(weight.c[0]).bit_length() + p + 2
    num, den = sdef.scale(k_start)
    x, y, ex = embed_dyadic(beta**k_start * Fraction(num, den), p)
    v, e = (x << p) // y, -((-ex << p) // y) + 1
    total = units = terms = 0
    # the block lists at j, and U's numerator at the block's end K' = K + m
    streams = [table_values(list(x)) for x in zip(*table)]
    for u in weight.ua, weight.ub:
        streams.append(table_values([horner(u, k_start + m * t) for t in range(1, len(u) + 1)]))
    for k, rn, rd, na, nb, ua, ub in zip(count(k_start + m, m), *streams):  # k = K'
        if rd < 0:
            rn, rd, na, nb = -rn, -rd, -na, -nb
        cw = cc * rd
        # the block's T = floor(v * w / (cw * 2^P')) and its count, w = NA'*2^P' + NB'*R'
        w = (na << p2) + nb * root2
        t = ((v * w) >> p2) // cw
        x = ((abs(w) >> cut) + 1) * e + (((abs(v) + e) >> cut) + 1) * abs(nb)
        err = -((-x >> p2 - cut) // cw) + 1
        # V_{K+m} = V_K * base^m * Sn'/Sd', floored once, and its count
        x = (e * b_top + ((abs(v) >> b_cut) + 1) * b_err) * abs(rn)
        v2, e2 = ((v * rn * bn) >> b_shift) // rd, -((-x >> b_shift - b_cut) // rd) + 1
        if k > k0:  # commit only if no k < K + m stops: 2^P * |m_{K+m}| > limit
            lo, y = abs(v2) - e2, abs((ua << p) + ub * root) - abs(ub)
            if lo <= 0 or y <= 0 or lo.bit_length() + y.bit_length() < need:
                return None if k - m == k_start else (k - m, v, e, total, units, terms)
        total += t
        units += err
        terms += m
        v, e = v2, e2
