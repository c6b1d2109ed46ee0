"""Exact references the tests compare ``bseries`` against.

:func:`weight_value` and :func:`term_exact` evaluate a
:class:`~bseries.seriesmodel.SeriesDef` in exact ``Fraction``/``QuadElem``
arithmetic, with :class:`HarmonicCache`'s exact prefix sums, and use none of
the scale members.  The evaluator sums on integer lists and calls neither:
they are the exact references the tests compare it against.  It carries
each H_n^(m) as a floored fixed-point integer with a counted error, and
:class:`HarmonicCache` is the exact value that count is checked against.
:func:`series_partial_sum` is a series' partial sum, the reference for the
balls of its blocks.  :func:`partial_sum`, :func:`boundary_value` and
:func:`closed_sum` are the two sides of a concrete-base
:class:`~bseries.telescope.TelescopingCert` at one n.  :func:`log10_floor`, :func:`to_digits` and
:func:`residual_digits` count a ball's digits through ``Fraction``s, the
references for the integer counts of :mod:`bseries.precision` and of
verification.  :func:`loads_catalog_by_record` loads a catalog one record
at a time, the reference for the one pass of
:func:`bseries.catalog.loads_catalog`.  :func:`sum_terms_horner` is the
summation loop evaluating every integer list by Horner's rule at each
term, the reference for the evaluator's value streams.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Optional

from bseries.catalog import Catalog, CatalogError, _build_record, _KEY_RANK
from bseries.exactnum import QuadElem, embed_dyadic, horner, squarefree_split
from bseries.precision import DIGITS_INF, ApproxReal
from bseries.seriesmodel import Position, SeriesDef, den_value
from bseries.telescope import TelescopingCert


class HarmonicCache:
    """Exact prefix sums H_n^(m) as ``Fraction``s, grown on demand and shared across terms.

    The exact reference for ``weight_value`` and ``term_exact``, and for the
    evaluator's fixed-point atoms ``sum_{j<=n} floor(2^P / j^m)`` and their counts.
    """

    def __init__(self):
        self._tables: dict[int, list[Fraction]] = {}

    def value(self, order: int, n: int) -> Fraction:
        tab = self._tables.setdefault(order, [Fraction(0)])
        while len(tab) <= n:
            j = len(tab)
            tab.append(tab[-1] + Fraction(1, j**order))
        return tab[n]


def weight_value(sdef: SeriesDef, k: int, harm: Optional[HarmonicCache] = None):
    """W(k) exactly, a Fraction or a QuadElem, from the weight's integer lists."""
    total = Fraction(0)
    for a, b, e, atom in sdef.weight.parts:
        den = horner(e, k)
        c = Fraction(horner(a, k), den)
        if b:
            c = QuadElem(c, Fraction(horner(b, k), den), sdef.weight.d)
        if atom is not None:
            if harm is None:
                raise ValueError("harmonic cache required")
            c = c * harm.value(atom.order, atom.index_at(k))
        total = total + c
    return total


def term_exact(sdef: SeriesDef, k: int, harm: Optional[HarmonicCache] = None) -> QuadElem:
    """t_k exactly, as a quadratic surd (slow path; the evaluator is incremental)."""
    w = weight_value(sdef, k, harm)
    t = QuadElem.of(w) * sdef.base_value**k
    if sdef.kernel is not None:
        kv = sdef.kernel.value(k)
        t = t * kv if sdef.kernel_pos is Position.NUMERATOR else t / kv
    return t / den_value(sdef.den_factors, k)


def series_partial_sum(sdef: SeriesDef, k_end: int) -> QuadElem:
    """t_{k_start} + ... + t_{k_end} exactly, for a series without harmonic atoms."""
    return sum((term_exact(sdef, k) for k in range(sdef.k_start, k_end + 1)), QuadElem(0))


def partial_sum(cert: TelescopingCert, n: int) -> QuadElem:
    """t_0 + ... + t_n exactly at the concrete base."""
    sdef = cert.to_series()
    return sum((term_exact(sdef, k) for k in range(n + 1)), QuadElem(0))


def boundary_value(cert: TelescopingCert, n: int) -> Fraction:
    """B(n) exactly at the concrete base."""
    if cert.symbolic:
        raise ValueError("specialize the base before evaluating numerically")
    q = horner(cert.bound_den, n)
    if not q:
        raise ZeroDivisionError(f"boundary denominator vanishes at n={n}")
    b = Fraction(horner(cert.bound_num, n), q) * cert.base ** (n + cert.bound_xoff)
    kv = cert.kernel.value(n)
    return b * kv if cert.kernel_pos is Position.NUMERATOR else b / kv


def closed_sum(cert: TelescopingCert, n: int) -> Fraction:
    return cert.const + boundary_value(cert, n)


def sqrt_surd(q) -> QuadElem:
    """Exact sqrt of a nonnegative rational as a QuadElem (b*sqrt(m))."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of a negative rational")
    if q == 0:
        return QuadElem(0)
    s, m = squarefree_split(q.numerator * q.denominator)
    return QuadElem(0, Fraction(s, q.denominator), m) if m > 1 else QuadElem(Fraction(s, q.denominator))


def log10_floor(x: Fraction) -> int:
    """floor(log10(x)) for a rational x > 0, by Fraction comparisons."""
    k = math.floor((x.numerator.bit_length() - x.denominator.bit_length()) * math.log10(2))
    while x < Fraction(10) ** k:
        k -= 1
    while x >= Fraction(10) ** (k + 1):
        k += 1
    return k


def to_digits(ball: ApproxReal) -> int:
    """floor(-log10(rad / max(|mid|, 1))), DIGITS_INF if exact, at least 0."""
    if not ball.units:
        return DIGITS_INF
    rad = Fraction(ball.units, 1 << ball.p)
    scale = max(Fraction(abs(ball.s), 1 << ball.p), Fraction(1))
    return 0 if rad >= scale else log10_floor(scale / rad)


def residual_digits(residual: ApproxReal, digits: int) -> tuple[bool, int]:
    """Whether the residual's magnitude bound is at most 10^-digits, and floor(log10(1/bound))."""
    ua = residual.upper_abs()
    return ua * 10**digits <= 1, (log10_floor(1 / ua) if ua else DIGITS_INF)


def loads_catalog_by_record(text: str) -> Catalog:
    """The catalog of ``text``, read line by line: each block is built at the blank line
    after it, each series field parsed when its record reads it (once per load), and a
    malformed line raises where it stands.  No field is parsed ahead of its record."""
    records: list = []
    seen: dict[str, int] = {}
    fields: dict[str, str] = {}
    block_line = 0
    parsed: dict = {}

    def parse(parser, field_text: str):
        key = parser, field_text
        if key not in parsed:
            parsed[key] = parser(field_text)
        return parsed[key]

    def flush():
        if not fields:
            return
        rec = _build_record(dict(fields), block_line, parse)
        if rec.id in seen:
            raise CatalogError(
                f"duplicate record id {rec.id!r} (lines {seen[rec.id]} and {block_line})"
            )
        seen[rec.id] = block_line
        records.append(rec)
        fields.clear()

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            flush()
            continue
        if not fields:
            block_line = lineno
        key, sep, value = line.partition(": ")
        key, value = sys.intern(key.strip()), sys.intern(value.strip())
        if not sep or not key or not value:
            raise CatalogError(f"line {lineno}: expected 'key: value', got {line!r}")
        if key not in _KEY_RANK:
            raise CatalogError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise CatalogError(f"line {lineno}: duplicate key {key!r} in one record")
        fields[key] = value
    flush()
    return Catalog(records)


def sum_terms_horner(
    sdef: SeriesDef, weight, p: int, k0: int, limit: int
) -> tuple[int, int, int, int]:
    """``evaluator._sum_terms`` as it was with Horner's rule at every term: ``(S, units, terms,
    bound)`` from the same arguments.  The reference the term loop's value streams must
    match bit for bit."""
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
