"""Exact arithmetic: quadratic surds, coefficient lists, integer-point signs."""

import math
from fractions import Fraction
from functools import reduce
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bseries.exactnum import (
    IntegerSurdPoly,
    QuadElem,
    coefficient_sign,
    horner,
    poly_add,
    poly_mul,
    poly_shift,
    poly_values,
    squarefree_split,
)
from oracles import sqrt_surd


def test_squarefree_split():
    assert squarefree_split(720) == (12, 5)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(97) == (1, 97)
    assert squarefree_split(4 * 9 * 25) == (30, 1)


class TestQuadElem:
    def test_mul_golden(self):
        # (1 + sqrt(2)) * (3 + sqrt(2)) = 5 + 4 sqrt(2)
        x = QuadElem(1, 1, 2)
        y = QuadElem(3, 1, 2)
        assert x * y == QuadElem(5, 4, 2)

    def test_div_golden(self):
        # 1 / (12 - 4 sqrt(5)) = 3/16 + (1/16) sqrt(5)
        z = 1 / QuadElem(12, -4, 5)
        assert z == QuadElem(Fraction(3, 16), Fraction(1, 16), 5)

    def test_golden_ratio_power(self):
        # phi^8 = 13 + 21 phi = 47/2 + (21/2) sqrt(5) = 46.97871376...
        phi = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
        p8 = phi**8
        assert p8 == QuadElem(Fraction(47, 2), Fraction(21, 2), 5)
        assert p8 == 13 + 21 * phi

    def test_fourth_power(self):
        z = QuadElem(12, 4, 5) ** 4
        assert z == QuadElem(96256, 43008, 5)
        assert z.conjugate() == QuadElem(96256, -43008, 5)

    def test_radicand_normalization(self):
        assert QuadElem(0, 1, 8) == QuadElem(0, 2, 2)
        assert QuadElem(3, 2, 9) == QuadElem(9)  # sqrt(9) = 3 folds in
        assert QuadElem(5, 0, 7).d == 1

    def test_sqrt_surd(self):
        assert sqrt_surd(8) == QuadElem(0, 2, 2)
        assert sqrt_surd(Fraction(9, 4)) == QuadElem(Fraction(3, 2))
        assert sqrt_surd(Fraction(5, 4)) == QuadElem(0, Fraction(1, 2), 5)
        assert sqrt_surd(0) == QuadElem(0)
        with pytest.raises(ValueError):
            sqrt_surd(-1)

    def test_exact_sign(self):
        assert QuadElem(3, -1, 5).sign() == 1  # 3 > sqrt(5)
        assert QuadElem(2, -1, 5).sign() == -1  # 2 < sqrt(5)
        assert QuadElem(-3, 2, 2).sign() == -1  # 2 sqrt(2) < 3
        assert QuadElem(-2, 2, 2).sign() == 1  # 2 sqrt(2) > 2
        assert QuadElem(0, 0, 1).sign() == 0
        assert QuadElem(96256, -43008, 5).sign() == 1

    def test_comparisons(self):
        assert QuadElem(0, 1, 2) < QuadElem(Fraction(3, 2))
        assert QuadElem(0, 1, 2) > Fraction(7, 5)
        assert abs(QuadElem(2, -1, 5)) == QuadElem(-2, 1, 5)

    def test_mixed_radicands_raise(self):
        with pytest.raises(ValueError):
            QuadElem(1, 1, 2) + QuadElem(1, 1, 3)
        # rational operand is fine regardless of nominal radicand
        assert QuadElem(1, 1, 2) + QuadElem(2, 0, 3) == QuadElem(3, 1, 2)

    def test_inverse_roundtrip(self):
        z = QuadElem(Fraction(-7, 3), Fraction(2, 5), 6)
        assert z * z.inverse() == 1
        assert z ** -2 == (z.inverse()) ** 2


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
radicands = st.sampled_from([2, 3, 5, 6, 7, 19])


@st.composite
def quad_elems(draw, d=None):
    if d is None:
        d = draw(radicands)
    return QuadElem(draw(rationals), draw(rationals), d)


@given(st.data(), radicands)
@settings(max_examples=200, deadline=None)
def test_conjugation_is_a_field_automorphism(data, d):
    x = data.draw(quad_elems(d=d))
    y = data.draw(quad_elems(d=d))
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    prod = x * x.conjugate()
    assert prod.is_rational and prod.as_fraction() == x.norm()
    if x:
        assert (x.inverse()).conjugate() == x.conjugate().inverse()


@given(st.data(), radicands)
@settings(max_examples=100, deadline=None)
def test_sign_matches_float_embedding(data, d):
    x = data.draw(quad_elems(d=d))
    approx = float(x.a) + float(x.b) * d**0.5
    if abs(approx) > 1e-9:  # keep clear of float noise
        assert x.sign() == (1 if approx > 0 else -1)


@given(st.data(), radicands, st.integers(min_value=1, max_value=10**12))
@settings(max_examples=100, deadline=None)
def test_root_bound_magnitudes_are_sound(data, d, n):
    # A leading coefficient isqrt(d n^2) - n*sqrt(d) in (-1, 0) cancels badly.
    lead = data.draw(st.sampled_from([QuadElem(math.isqrt(d * n * n), -n, d), QuadElem(n)]))
    rest = data.draw(st.lists(st.one_of(quad_elems(d=d), rationals), max_size=3))
    f = rest + [lead]
    lead_lo, upper = surd_poly(f)._magnitudes()
    # Soundness needs U_i/lead_lo >= |c_i|/|lead|, whatever the common scale.
    assert lead_lo > 0
    for u, c in zip(upper, f):
        assert abs(QuadElem.of(c)) * lead_lo <= abs(lead) * u
    g = surd_poly(f)
    big_k = g.root_bound()
    assert {g.sign_at(k) for k in range(big_k, big_k + 20)} == {lead.sign()}


# ----------------------------------------------------------------------


def P(*coeffs):
    return [Fraction(c) for c in coeffs]


def surd_poly(*factors):
    """IntegerSurdPoly of the product of coefficient lists of ints, Fractions or
    QuadElems, its denominators cleared by their lcm: a positive multiple, with the
    same signs and roots."""
    qs = [QuadElem.of(c) for c in reduce(poly_mul, factors)]
    scale = math.lcm(*(x.denominator for q in qs for x in (q.a, q.b)))
    d = max(q.d for q in qs)
    return IntegerSurdPoly.from_lists([int(q.a * scale) for q in qs], [int(q.b * scale) for q in qs], d)


class TestIntegerSurdPoly:
    def test_cubic_with_three_roots(self):
        f = surd_poly(P(-1, 1), P(-3, 1), P(-7, 1))  # (k-1)(k-3)(k-7)
        big_k = f.root_bound()
        assert big_k >= 8
        assert all(f.sign_at(k) > 0 for k in range(big_k, big_k + 51))
        assert [f.sign_at(k) for k in (1, 2, 3, 5, 7)] == [0, 1, 0, -1, 0]

    def test_integer_root_from_a_start(self):
        f = surd_poly(P(-1, 1), P(-3, 1), P(-7, 1))  # (k-1)(k-3)(k-7)
        assert [f.integer_root(s) for s in (0, 2, 4, 8)] == [1, 3, 7, None]
        assert surd_poly([QuadElem(0, -1, 2), 1]).integer_root() is None

    def test_no_real_roots(self):
        f = surd_poly(P(1, 0, 1))  # k^2 + 1
        assert f.root_bound(start=3) == 3
        assert f.root_bound() == 2  # 1*K^2 > 1 needs K >= 2: the bound is not sharp
        assert all(f.sign_at(k) > 0 for k in range(-50, 51))

    def test_repeated_roots(self):
        f = [P(-1, 1)] * 3 + [P(-5, 1)]
        big_k = surd_poly(*f).root_bound()
        assert big_k >= 6
        assert all(horner(reduce(poly_mul, f), k) > 0 for k in range(big_k, big_k + 51))

    def test_negative_leading_coefficient(self):
        f = surd_poly(P(Fraction(7, 2), 0, Fraction(-1, 3)))  # 7/2 - k^2/3
        big_k = f.root_bound()
        assert big_k >= 4
        assert all(f.sign_at(k) < 0 for k in range(big_k, big_k + 51))

    def test_cancelling_quadratic_coefficients(self):
        # c = 930249 - 416020*sqrt(5) is about 5.4e-7, while |a| + |b|*sqrt(5)
        # is about 1.9e6: the bound must see c, not the size of its parts.
        c = QuadElem(930249, -416020, 5)
        assert 0 < c < Fraction(1, 10**6)
        f = [15 * c, -8 * c, c]  # c*(k - 3)*(k - 5)
        g = surd_poly(f)
        big_k = g.root_bound()
        assert 6 <= big_k <= 10
        assert all(g.sign_at(k) > 0 for k in range(big_k, big_k + 51))
        assert [g.sign_at(k) for k in (2, 3, 4, 5, 6)] == [1, 0, -1, 0, 1]
        assert surd_poly(f, [-1]).root_bound(start=4) == big_k

    def test_sign_matches_exact_evaluation(self):
        f = [QuadElem(Fraction(-3, 2), 1, 2), QuadElem(0, Fraction(1, 7), 2), QuadElem(-1)]
        g = surd_poly(f)
        for k in range(-20, 21):
            assert g.sign_at(k) == horner(f, k).sign(), k

    def test_mixed_radicands_and_zero_rejected(self):
        # one radicand d per polynomial: only the zero polynomial is left to refuse
        with pytest.raises(ValueError):
            IntegerSurdPoly.from_lists([], [], 1)
        with pytest.raises(ValueError):
            IntegerSurdPoly.from_lists([0, 0], [0], 5)

    def test_from_lists_matches_the_poly_constructor(self):
        # 3 - 2k + k^2*sqrt(5), with a trailing zero coefficient to drop, against the
        # clearing of its coefficient list by the lcm of the denominators
        f = surd_poly([QuadElem(3), QuadElem(-2), QuadElem(0, 1, 5)])
        g = IntegerSurdPoly.from_lists([3, -2, 0, 0], [0, 0, 1], 5)
        assert (g.a, g.b, g.d) == (f.a, f.b, f.d)
        assert g.root_bound() == f.root_bound()
        # d = 1 folds the second list into the first
        h = IntegerSurdPoly.from_lists([-4], [0, 1], 1)
        assert (h.a, h.b) == ([-4, 1], [0, 0])
        assert [h.sign_at(k) for k in (3, 4, 5)] == [-1, 0, 1]


_INT_POLYS = st.lists(st.integers(min_value=-50, max_value=50), max_size=6)


_SHIFTS = st.integers(min_value=-9, max_value=9) | st.fractions(
    min_value=-9, max_value=9, max_denominator=12
)


@given(_INT_POLYS, _INT_POLYS, st.integers(min_value=-20, max_value=20), _SHIFTS)
@settings(max_examples=100, deadline=None)
def test_integer_list_arithmetic(a, b, x, c):
    assert horner(poly_add(a, b), x) == horner(a, x) + horner(b, x)
    assert horner(poly_mul(a, b), x) == horner(a, x) * horner(b, x)
    assert horner(poly_shift(a, c), x) == horner(a, x + c)


@given(
    st.lists(st.integers(min_value=-50, max_value=50) | st.integers(), max_size=7),
    st.integers(min_value=0, max_value=60),
)
@settings(max_examples=300, deadline=None)
@example([], 0)
@example([-7], 60)
@example([0, 0, 0, 0, 0, 0, -3], 0)
@example([5, 0, -1, 0, 2, 0, -9], 37)
def test_poly_values_are_horner_at_each_k(coeffs, start):
    # degree 0 to 6 and the empty list; zero, negative and negative leading coefficients
    values = list(islice(poly_values(coeffs, start), 200))
    assert values == [horner(coeffs, k) for k in range(start, start + 200)]


def _sign_beyond(f, start):
    """coefficient_sign of ``f(x + start)``: Descartes' test as the envelope runs it."""
    b = poly_shift(f.b, start) if f.d > 1 else []
    return coefficient_sign(poly_shift(f.a, start), b, f.d)


@given(_INT_POLYS, _INT_POLYS, st.sampled_from([1, 2, 5]), st.integers(min_value=0, max_value=12))
@settings(max_examples=200, deadline=None)
def test_shifted_coefficient_sign_is_the_sign_at_every_later_integer(a, b, d, start):
    if not any(poly_add(a, b) if d == 1 else a + b):
        return
    f = IntegerSurdPoly.from_lists(a, b, d)
    s = _sign_beyond(f, start)
    if s:
        assert f.sign_at(start) in (0, s)
        beyond = range(start + 1, f.root_bound(start) + 10)
        assert {f.sign_at(k) for k in beyond} == {s}


def test_shifted_coefficient_sign_sees_a_later_root():
    f = surd_poly(P(-1, 1), P(-3, 1), P(-7, 1))  # (k-1)(k-3)(k-7)
    assert [_sign_beyond(f, s) for s in (0, 3, 6, 7, 8)] == [0, 0, 0, 1, 1]
    g = surd_poly([QuadElem(0, -1, 2), 1])  # k - sqrt(2)
    assert [_sign_beyond(g, s) for s in (0, 1, 2)] == [0, 0, 1]


@given(_INT_POLYS, st.integers(min_value=0, max_value=30))
@settings(max_examples=200, deadline=None)
def test_rational_root_bound_is_the_smallest_dominating_k(a, start):
    # d = 1 reads the bounds as |a_i|: K is the smallest K >= max(1, start)
    # with |a_n| K^n > sum_{i<n} |a_i| K^i
    if not any(a):
        return
    f = IntegerSurdPoly.from_lists(a, [], 1)
    *rest, lead = f.a

    def dominates(x):
        return abs(lead) * x ** len(rest) > horner([abs(c) for c in rest], x)

    k, low = f.root_bound(start), max(1, start)
    assert k >= low and dominates(k)
    assert k == low or not dominates(k - 1)
