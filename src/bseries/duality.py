"""Galois conjugation of series and the Ramanujan -> Zeilberger dual map.

Every scalar in a series over Q(sqrt(d)) has a conjugate under the field
automorphism sigma: a + b*sqrt(d) -> a - b*sqrt(d).  Applying sigma
termwise to a convergent series produces its *conjugate series*; whether
that conjugate converges is decided exactly by comparing |sigma(m)| with
the kernel's growth constant c = lim kernel(k)^(1/k), where the original
series has base 1/m.

For a Ramanujan-style datum

    sum_{k>=0} (a*k + b) * kernel(k) / m^k  =  r * sqrt(n) / pi

three exact outcomes are possible:

* |sigma(m)| > c: the conjugated series converges as another series of
  the same shape (branch CONJUGATE_RAMANUJAN, provided sigma(n) > 0 so
  the conjectured right-hand side r*·sqrt(sigma(n))/pi makes sense);
* |sigma(m)| < c with sigma(m) < 0 and n a positive rational integer:
  the conjugated series diverges, but the *dual* series

      sum_{k>=1} sigma((a*k - b) * m^k / (k^3 * kernel(k)))

  converges (|sigma(m)|/c < 1) and is conjectured to evaluate in
  Dirichlet L-values (branch ZEILBERGER_DUAL);
* anything else, including exact equality |sigma(m)| = c: UNDEFINED.

All comparisons square both sides into Q(sqrt(d)) and use the exact sign
algorithm for quadratic surds; no floating point is consulted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .closedform import ClosedForm
from .exactnum import QuadElem
from .seriesmodel import NotHypergeometric, Position, SeriesDef, Weight

__all__ = [
    "DualBranch",
    "DualClassification",
    "RamanujanDatum",
    "ZeilbergerDatum",
    "classify_dual",
    "dualize",
]


class DualBranch(enum.Enum):
    CONJUGATE_RAMANUJAN = "conjugate-ramanujan"
    ZEILBERGER_DUAL = "zeilberger-dual"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class DualClassification:
    branch: DualBranch
    reason: str

    def __str__(self):
        return f"{self.branch.value}: {self.reason}"


def _linear_weight(sdef: SeriesDef) -> tuple[QuadElem, QuadElem]:
    """Extract (a, b) from a weight that must be a*k + b exactly."""
    w = sdef.weight
    if w.has_harmonic():
        raise NotHypergeometric("weight contains harmonic atoms")
    ((a, b, e, _),) = w.parts
    if len(e) != 1:
        raise ValueError("weight must be polynomial (a*k + b)")
    if len(a) > 2:
        raise ValueError("weight must be linear in k")
    (a0, a1), (b0, b1) = ((list(x) + [0, 0])[:2] for x in (a, b))
    c = e[0]
    return tuple(QuadElem(Fraction(x, c), Fraction(y, c), w.d) for x, y in ((a1, b1), (a0, b0)))


@dataclass(frozen=True)
class RamanujanDatum:
    """A series sum (a*k+b)*kernel(k)/m^k = r*sqrt(n)/pi in checkable form.

    ``series`` must have the exact Ramanujan shape: linear polynomial
    weight, kernel in the numerator, no extra denominator factors,
    k_start = 0.  The base stores 1/m.
    """

    series: SeriesDef
    rhs_r: Fraction
    rhs_n: QuadElem

    def __post_init__(self):
        s = self.series
        if s.kernel is None or s.kernel_pos is not Position.NUMERATOR:
            raise ValueError("datum needs a kernel in the numerator")
        if s.den_factors or s.k_start != 0:
            raise ValueError("datum series must start at k=0 with no denominator factors")
        a, _ = _linear_weight(s)
        if not a:
            raise ValueError("weight slope a must be nonzero")
        if not self.rhs_r:
            raise ValueError("rhs factor r must be nonzero")
        if QuadElem.of(self.rhs_n).sign() <= 0:
            raise ValueError("rhs radicand n must be positive")

    @property
    def a(self) -> QuadElem:
        return _linear_weight(self.series)[0]

    @property
    def b(self) -> QuadElem:
        return _linear_weight(self.series)[1]

    @property
    def m(self) -> QuadElem:
        return self.series.base_value.inverse()

    @property
    def growth_c(self) -> Fraction:
        return self.series.kernel.growth()


@dataclass(frozen=True)
class ZeilbergerDatum:
    """A series sum_{k>=1} (a*k-b)*m^k/(k^3*kernel(k)), rhs in L-values.

    ``rhs`` stays None when the datum was produced by ``dualize``; the
    relation module fills it by integer-relation discovery.
    """

    series: SeriesDef
    rhs: Optional[ClosedForm] = None

    def __post_init__(self):
        s = self.series
        if s.kernel is None or s.kernel_pos is not Position.DENOMINATOR:
            raise ValueError("datum needs a kernel in the denominator")
        if (1, 0, 3) not in s.den_factors:
            raise ValueError("datum series must carry a k^3 denominator factor")
        if s.k_start != 1:
            raise ValueError("datum series must start at k=1")
        _linear_weight(s)


def classify_dual(datum: RamanujanDatum) -> DualClassification:
    """Exact convergence classification of the conjugated series.

    The comparison |sigma(m)| vs c is done by squaring both sides into
    Q(sqrt(d)) and taking the exact sign of sigma(m)^2 - c^2; an exact
    tie is UNDEFINED, never broken numerically.
    """
    m = datum.m
    sm = m.conjugate()
    c = datum.growth_c
    gap = sm * sm - QuadElem(c * c)
    cmp = gap.sign()
    if cmp == 0:
        return DualClassification(
            DualBranch.UNDEFINED, f"|sigma(m)| equals the growth constant {c} exactly"
        )
    if cmp > 0:
        sn = datum.rhs_n.conjugate()
        if sn.sign() > 0:
            return DualClassification(
                DualBranch.CONJUGATE_RAMANUJAN,
                f"|sigma(m)| > {c}: the conjugated series converges",
            )
        return DualClassification(
            DualBranch.UNDEFINED,
            f"|sigma(m)| > {c} but sigma(n) is not positive",
        )
    if sm.sign() >= 0:
        return DualClassification(
            DualBranch.UNDEFINED,
            f"|sigma(m)| < {c} but sigma(m) > 0: no branch applies",
        )
    n = datum.rhs_n
    if not (n.is_rational and n.as_fraction().denominator == 1 and n.as_fraction() > 0):
        return DualClassification(
            DualBranch.UNDEFINED,
            f"|sigma(m)| < {c} and sigma(m) < 0, but n is not a positive rational integer",
        )
    return DualClassification(
        DualBranch.ZEILBERGER_DUAL,
        f"|sigma(m)| < {c}, sigma(m) < 0, n = {n.as_fraction()} a positive integer",
    )


def dualize(datum: RamanujanDatum) -> ZeilbergerDatum:
    """The dual series sum_{k>=1} sigma((a*k-b)*m^k/(k^3*kernel(k))).

    Only defined on the ZEILBERGER_DUAL branch; the right-hand side is
    left empty for discovery.
    """
    cls = classify_dual(datum)
    if cls.branch is not DualBranch.ZEILBERGER_DUAL:
        raise ValueError(f"dualize needs the zeilberger-dual branch, got {cls}")
    a, b = _linear_weight(datum.series)
    dual = SeriesDef(
        base_root=datum.series.base_root.conjugate(),
        base_exp=-datum.series.base_exp,
        kernel=datum.series.kernel,
        kernel_pos=Position.DENOMINATOR,
        weight=Weight.from_coeffs([-b.conjugate(), a.conjugate()]),
        den_factors=((1, 0, 3),),
        k_start=1,
    )
    return ZeilbergerDatum(series=dual, rhs=None)
