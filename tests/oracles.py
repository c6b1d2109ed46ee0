"""Exact references the tests compare ``bseries`` against.

:func:`weight_value` and :func:`term_exact` evaluate a
:class:`~bseries.seriesmodel.SeriesDef` in exact ``Fraction``/``QuadElem``
arithmetic, with :class:`HarmonicCache`'s exact prefix sums, and use none of
the scale members.  The evaluator sums on integer lists and calls neither:
they are the exact references the tests compare it against.  It carries
each H_n^(m) as a floored fixed-point integer with a counted error, and
:class:`HarmonicCache` is the exact value that count is checked against.
:func:`partial_sum`, :func:`boundary_value` and :func:`closed_sum` are the
two sides of a concrete-base :class:`~bseries.telescope.TelescopingCert`
at one n.  :func:`log10_floor`, :func:`to_digits` and
:func:`residual_digits` count a ball's digits through ``Fraction``s, the
references for the integer counts of :mod:`bseries.precision` and of
verification.  :func:`loads_catalog_by_record` loads a catalog one record
at a time, the reference for the one pass of
:func:`bseries.catalog.loads_catalog`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Optional

from bseries.catalog import Catalog, CatalogError, _build_record, _KEY_RANK
from bseries.exactnum import QuadElem, horner, squarefree_split
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
