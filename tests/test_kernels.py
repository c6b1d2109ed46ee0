"""Kernel families: exact values, term-ratio lists, growth rates."""

import math
from fractions import Fraction

import pytest
import sympy as sp

from bseries.exactnum import horner
from bseries.kernels import KERNELS, kernel_by_tag


def test_registry_tags():
    assert set(KERNELS) == {
        "central^3",
        "central^2*binom(3k,k)",
        "central^2*binom(4k,2k)",
        "binom(2k,k)*binom(3k,k)*binom(6k,3k)",
        "binom(6k,3k)",
        "binom(3k,k)",
        "binom(4k,2k)",
        "binom(4k,k)",
    }
    with pytest.raises(KeyError):
        kernel_by_tag("binom(5k,k)")


def test_values():
    assert KERNELS["central^3"].value(1) == 8
    assert KERNELS["central^3"].value(2) == 216
    assert KERNELS["binom(6k,3k)"].value(0) == 1
    assert KERNELS["binom(6k,3k)"].value(1) == 20
    assert KERNELS["binom(6k,3k)"].value(2) == 924
    assert KERNELS["binom(2k,k)*binom(3k,k)*binom(6k,3k)"].value(1) == 2 * 3 * 20


GROWTH = {
    "central^3": Fraction(64),
    "central^2*binom(3k,k)": Fraction(108),
    "central^2*binom(4k,2k)": Fraction(256),
    "binom(2k,k)*binom(3k,k)*binom(6k,3k)": Fraction(1728),
    "binom(6k,3k)": Fraction(64),
    "binom(3k,k)": Fraction(27, 4),
    "binom(4k,2k)": Fraction(16),
    "binom(4k,k)": Fraction(256, 27),
}


def test_growth_rates():
    for tag, g in GROWTH.items():
        assert KERNELS[tag].growth() == g


def test_ratio_matches_direct_quotient():
    for fam in KERNELS.values():
        a, b = fam.ratio_lists
        for k in range(6):
            assert Fraction(horner(a, k), horner(b, k)) == Fraction(fam.value(k + 1), fam.value(k))


def test_integer_ratio_lists_are_the_ratio_polys():
    # A/B is sympy's simplified quotient C(p(k+1), q(k+1))/C(pk, qk), multiplied out
    k = sp.Symbol("k")
    for fam in KERNELS.values():
        ratio = sp.prod(
            sp.combsimp(sp.binomial(p * (k + 1), q * (k + 1)) / sp.binomial(p * k, q * k))
            for p, q in fam.pairs
        )
        want_num, want_den = sp.fraction(sp.factor(ratio))
        a, b = (sp.Poly(list(reversed(c)), k) for c in fam.ratio_lists)
        assert sp.expand(a.as_expr() * want_den - b.as_expr() * want_num) == 0, fam.tag
        assert all(isinstance(c, int) for lst in fam.ratio_lists for c in lst)
        assert fam.ratio_lists is fam.ratio_lists  # built once


def test_ratio_degrees_balance():
    # deg A == deg B == sum of p over the pairs; the ratio tends to growth().
    for fam in KERNELS.values():
        a, b = fam.ratio_lists
        assert len(a) - 1 == len(b) - 1 == sum(p for p, _ in fam.pairs)
        assert Fraction(a[-1], b[-1]) == fam.growth()


def test_six_three_ratio_structure():
    # C(6(k+1),3(k+1))/C(6k,3k) = prod(6k+i, i=1..6) / prod(3k+i, i=1..3)^2
    fam = KERNELS["binom(6k,3k)"]
    a, b = fam.ratio_lists
    k = 2
    num = math.prod(6 * k + i for i in range(1, 7))
    den = math.prod(3 * k + i for i in range(1, 4)) ** 2
    assert horner(a, k) == num and horner(b, k) == den
