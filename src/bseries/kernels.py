"""Binomial-product kernels: families, exact values, term ratios, growth rates.

A kernel is a product of binomial coefficients ``prod_i C(p_i*k, q_i*k)``
described by its list of ``(p, q)`` pairs.  The consecutive-term ratio of
such a product is a fixed rational function of k,

    C(p(k+1), q(k+1)) / C(pk, qk)
        = prod_{i=1}^{p} (pk+i) / ( prod_{i=1}^{q} (qk+i) *
                                    prod_{j=1}^{p-q} ((p-q)k+j) ),

and the geometric growth rate (the limit of that ratio) is
``p^p / (q^q * (p-q)^(p-q))``.  Both are exposed exactly; nothing here is
approximate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from .exactnum import Frozen, poly_mul

__all__ = ["KernelFamily", "KERNELS", "kernel_by_tag"]


class KernelFamily(Frozen):
    """A product of binomial coefficients C(p*k, q*k) given by (p, q) pairs.

    ``ratio_factors`` holds the linear factors ``u*k + v`` of ``ratio_lists``,
    over and under, as ``(u, v)``; ``ratio_lists`` holds the integer lists
    (A, B), constant first, with value(k+1)/value(k) = A(k)/B(k).
    """

    __slots__ = ("tag", "pairs", "ratio_factors", "ratio_lists")

    def __init__(self, tag: str, pairs: tuple[tuple[int, int], ...]):
        num, den = [], []
        for p, q in pairs:
            if not (0 < q < p):
                raise ValueError(f"need 0 < q < p in binomial pair, got ({p}, {q})")
            num += [(p, i) for i in range(1, p + 1)]
            den += [(q, i) for i in range(1, q + 1)] + [(p - q, j) for j in range(1, p - q + 1)]
        factors = tuple(num), tuple(den)
        lists = tuple(tuple(reduce(poly_mul, ([v, u] for u, v in side), [1])) for side in factors)
        self._set(tag, pairs, factors, lists)

    def __hash__(self):  # the ratio lists follow from the pairs
        return hash((self.tag, self.pairs))

    def value(self, k: int) -> int:
        """Exact integer value prod C(p*k, q*k)."""
        out = 1
        for p, q in self.pairs:
            out *= math.comb(p * k, q * k)
        return out

    def growth(self) -> Fraction:
        """Limit of value(k+1)/value(k): prod p^p / (q^q (p-q)^(p-q))."""
        out = Fraction(1)
        for p, q in self.pairs:
            r = p - q
            out *= Fraction(p**p, q**q * r**r)
        return out

    def __str__(self):
        return self.tag


def _family(tag: str, *pairs: tuple[int, int]) -> KernelFamily:
    return KernelFamily(tag, tuple(pairs))


CENTRAL3 = _family("central^3", (2, 1), (2, 1), (2, 1))
CENTRAL2_3K = _family("central^2*binom(3k,k)", (2, 1), (2, 1), (3, 1))
CENTRAL2_4K2K = _family("central^2*binom(4k,2k)", (2, 1), (2, 1), (4, 2))
TRIPLE_2_3_6 = _family("binom(2k,k)*binom(3k,k)*binom(6k,3k)", (2, 1), (3, 1), (6, 3))
BIN_6K3K = _family("binom(6k,3k)", (6, 3))
BIN_3KK = _family("binom(3k,k)", (3, 1))
BIN_4K2K = _family("binom(4k,2k)", (4, 2))
BIN_4KK = _family("binom(4k,k)", (4, 1))

KERNELS: dict[str, KernelFamily] = {
    f.tag: f
    for f in (
        CENTRAL3,
        CENTRAL2_3K,
        CENTRAL2_4K2K,
        TRIPLE_2_3_6,
        BIN_6K3K,
        BIN_3KK,
        BIN_4K2K,
        BIN_4KK,
    )
}


def kernel_by_tag(tag: str) -> KernelFamily:
    try:
        return KERNELS[tag]
    except KeyError:
        raise KeyError(f"unknown kernel tag {tag!r}; known: {sorted(KERNELS)}") from None
