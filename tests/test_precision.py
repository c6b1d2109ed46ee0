"""Ball arithmetic: containment at low precision, digit accounting, explicit exponents."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import make_mpf, mp, nstr
from mpmath.libmp import from_man_exp

from bseries.precision import (
    DIGITS_INF,
    ApproxReal,
    attempt_bits,
    digits_to_bits,
)


def test_digits_to_bits_policy():
    assert digits_to_bits(30) == 132  # ceil(30*log2(10)) + 32
    assert digits_to_bits(50) == 199
    assert attempt_bits(30, 0) == 132
    assert attempt_bits(30, 2) == 528


def test_exact_dyadic_fraction():
    x = ApproxReal.from_fraction(Fraction(3, 8), 53)
    assert x.units == 0
    assert x.to_digits() == DIGITS_INF
    assert x.to_fraction_bounds() == (Fraction(3, 8), Fraction(3, 8))


def test_inexact_fraction_digits():
    x = ApproxReal.from_fraction(Fraction(1, 3), digits_to_bits(30))
    assert 30 <= x.to_digits() <= 60
    lo, hi = x.to_fraction_bounds()
    assert lo <= Fraction(1, 3) <= hi


def test_to_digits_clamps_at_zero():
    x = ApproxReal.from_fraction(Fraction(1, 100), 53)
    wide = ApproxReal(x.s, x.p, 1 << x.p)  # radius 1
    assert wide.to_digits() == 0


def test_rounded_int_never_gets_zero_radius():
    # An integer is exact at any precision; a ratio floored at 53 bits must
    # count the floor, and a ball holds integers only.
    n = 10**30 + 1
    with pytest.raises(TypeError):
        ApproxReal(n, 0, mp.mpf(0))
    with pytest.raises(TypeError):
        ApproxReal(1, 0, Fraction(1, 2))
    for x in (ApproxReal.from_int(n), ApproxReal.from_int(0) + n):
        assert x.to_fraction_bounds() == (n, n)
    x = ApproxReal.from_ratio(n, 3, 53)
    assert x.units > 0
    lo, hi = x.to_fraction_bounds()
    assert lo <= Fraction(n, 3) <= hi


def test_zero_division_guard():
    around_zero = ApproxReal(0, 34, 1)  # radius 2^-34, about 6e-11
    one = ApproxReal.from_int(1)
    assert around_zero.contains_zero()
    assert not around_zero.excludes_zero()
    with pytest.raises(ZeroDivisionError):
        one / around_zero


def test_sqrt_encloses():
    s = ApproxReal.from_ratio(2, 1, 120).sqrt()
    assert s.p == 120
    lo, hi = s.to_fraction_bounds()
    assert lo * lo <= 2 <= hi * hi
    assert s.to_digits() >= 30


def test_sqrt_negative_raises():
    with pytest.raises(ValueError):
        ApproxReal.from_ratio(-4, 1, 53).sqrt()


def test_sqrt_straddling_zero():
    x = ApproxReal(2**100 // 10**30, 100, 2**100 // 10**20 + 1)  # 1e-30 +- 1e-20
    s = x.sqrt()
    lo, hi = s.to_fraction_bounds()
    assert lo <= 0 and hi * hi >= Fraction(1, 10**20)


def test_pow_int():
    x = ApproxReal.from_fraction(Fraction(3, 7), 120)
    lo, hi = (x**5).to_fraction_bounds()
    assert lo <= Fraction(3, 7) ** 5 <= hi
    lo, hi = (x**-3).to_fraction_bounds()
    assert lo <= Fraction(7, 3) ** 3 <= hi
    assert (x**0).units == 0


def test_negative_power_of_a_small_ball():
    # x excludes zero but x^3 floored at x's 36 bits does not: the reciprocal
    # comes first, so x^-3 is still a ball around 2840^3.
    x = ApproxReal(math.floor(Fraction(2**36, 2840)), 36, 1)
    assert x.excludes_zero() and (x**3).contains_zero()
    lo, hi = (x**-3).to_fraction_bounds()
    assert lo <= 2840**3 <= hi


small_fractions = st.fractions(min_value=-(10**8), max_value=10**8, max_denominator=10**6)


@given(small_fractions, small_fractions, st.sampled_from(["+", "-", "*", "/"]))
@settings(max_examples=300, deadline=None)
def test_ops_contain_exact_result_even_at_tiny_precision(a, b, op):
    # Operands floored at 7 bits force heavy rounding; containment must hold.
    x = ApproxReal.from_fraction(a, 7)
    y = ApproxReal.from_fraction(b, 7)
    if op == "+":
        z, exact = x + y, a + b
    elif op == "-":
        z, exact = x - y, a - b
    elif op == "*":
        z, exact = x * y, a * b
    else:
        if not y.excludes_zero():
            return
        z, exact = x / y, a / b
    lo, hi = z.to_fraction_bounds()
    assert lo <= exact <= hi


@given(small_fractions)
@settings(max_examples=100, deadline=None)
def test_sqrt_contains_exact_value(a):
    if a < 0:
        a = -a
    x = ApproxReal.from_fraction(a, 10)
    s = x.sqrt()
    lo, hi = s.to_fraction_bounds()
    # lo <= sqrt(a) <= hi  <=>  lo^2 <= a <= hi^2 given lo, hi >= 0
    assert max(lo, 0) ** 2 <= a <= hi * hi


def _floored_ball(x: Fraction, p: int, extra: int) -> ApproxReal:
    """x floored at 2^-p: one unit for the floor, ``extra`` more of slack."""
    return ApproxReal(math.floor(x * 2**p), p, 1 + extra)


@given(
    small_fractions,
    small_fractions,
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.sampled_from(["+", "-", "*", "/", "sqrt", "**"]),
    st.integers(min_value=-3, max_value=5),
)
@settings(max_examples=300, deadline=None)
def test_mixed_exponents_contain_exact_result(a, b, d, guard, ea, eb, tiny, op, n):
    # A sum at P + guard bits meets a constant at digits_to_bits(d + 2), or a
    # ball floored at only 7 bits.
    x = _floored_ball(a, digits_to_bits(d) + guard, ea)
    y = _floored_ball(b, 7 if tiny else digits_to_bits(d + 2), eb)
    if op == "sqrt":
        x = _floored_ball(abs(a), x.p, ea)
        lo, hi = x.sqrt().to_fraction_bounds()
        assert 0 <= hi and max(lo, 0) ** 2 <= abs(a) <= hi * hi
        return
    if op == "**":
        if n < 0 and not x.excludes_zero():
            return
        z, exact = x**n, a**n
    elif op == "/":
        if not y.excludes_zero():
            return
        z, exact = x / y, a / b
    else:
        z = {"+": x + y, "-": x - y, "*": x * y}[op]
        exact = {"+": a + b, "-": a - b, "*": a * b}[op]
    lo, hi = z.to_fraction_bounds()
    assert lo <= exact <= hi


def test_mixed_scalar_coercion():
    x = ApproxReal.from_fraction(Fraction(1, 3), 100)
    z = 1 - 3 * x
    assert z.contains_zero()
    z2 = (2 + x) - x - 2
    assert z2.contains_zero()
    # a Fraction has no exponent: it enters through from_fraction(q, p) only
    with pytest.raises(TypeError):
        x + Fraction(1, 3)
    with pytest.raises(TypeError):
        Fraction(1, 3) * x


def test_results_floor_at_the_larger_operand_exponent():
    # No operation reads a global precision: mpmath's is no input at all.
    lo, hi = ApproxReal.from_ratio(1, 3, 10), ApproxReal.from_ratio(2, 7, 40)
    got = []
    for prec in (7, 4000):
        with mp.workprec(prec):
            balls = (lo * hi, lo / hi, hi / lo, lo.sqrt(), hi.sqrt(), lo**-2)
            got.append([(z.s, z.p, z.units) for z in balls])
    assert got[0] == got[1]
    assert [p for _, p, _ in got[0]] == [40, 40, 40, 10, 40, 10]
    # products of integers stay exact; a quotient of two exact integer
    # balls floors at 2^0
    assert (ApproxReal.from_int(6) * 7).to_fraction_bounds() == (42, 42)
    q = ApproxReal.from_int(1) / ApproxReal.from_int(3)
    assert (q.s, q.p, q.units) == (0, 0, 1)


@st.composite
def int_ratios(draw):
    """(p, q): p of any sign, q of either sign, q sometimes a power of two, up to ~30 kbit."""
    p_bits = draw(st.sampled_from([1, 8, 64, 200, 2000, 30000]))
    p = draw(st.integers(min_value=-(2**p_bits), max_value=2**p_bits))
    if draw(st.booleans()):
        q = 1 << draw(st.integers(min_value=0, max_value=30000))
    else:
        q_bits = draw(st.sampled_from([1, 8, 64, 200, 2000, 30000]))
        q = draw(st.integers(min_value=1, max_value=2**q_bits))
    if draw(st.booleans()):
        p *= q  # an exact quotient
    if draw(st.booleans()):
        q = -q
    return p, q


@given(int_ratios(), st.sampled_from([53, 300, 1100]))
@example(((1 << 200) + (1 << 147) + 1, 1 << 200), 53)  # not a multiple of 2^-53
@example((3 * ((1 << 200) + (1 << 147) + 1), -3 << 200), 53)
@settings(max_examples=300, deadline=None)
def test_from_ratio_floors_once(pq, prec):
    p, q = pq
    x = ApproxReal.from_ratio(p, q, prec)
    exact = Fraction(p, q)
    assert (x.s, x.p) == (math.floor(exact * 2**prec), prec)
    lo, hi = x.to_fraction_bounds()
    assert lo <= exact <= hi
    assert (x.units == 0) == ((exact * 2**prec).denominator == 1)


@pytest.mark.parametrize(
    "x, n, text",
    [
        (Fraction(0), 5, "0.0"),
        (Fraction(-22, 7), 8, "-3.1428571"),
        (Fraction(1, 10**7), 5, "1.0e-7"),
        (Fraction(123456), 3, "1.23e+5"),
        (Fraction(123456), 8, "123456.0"),
        (Fraction(10**20), 5, "1.0e+20"),
        (Fraction(12345, 10**8), 5, "0.00012345"),
        (Fraction(12345, 10**9), 5, "1.2345e-5"),
        (Fraction(1, 8), 1, "0.1"),
        (Fraction(1, 8), 2, "0.13"),  # a tie, away from zero
        (Fraction(5, 2), 1, "3.0"),
        (Fraction(5, 2), 2, "2.5"),
        (Fraction(-5, 2), 1, "-3.0"),
        (Fraction(9999, 1000), 2, "10.0"),  # the carry moves the exponent
    ],
)
def test_decimal_rounds_the_midpoint_as_nstr_prints_it(x, n, text):
    ball = ApproxReal.from_fraction(x, 64)
    assert ball.decimal(n) == text == nstr(make_mpf(from_man_exp(ball.s, -ball.p)), n)


def _digits_by_divmod(x: int) -> str:
    """The decimal digits of x >= 0 from 10^1000 chunks, no ``str`` of more than 1,000 digits."""
    chunks = []
    while x >= 10**1000:
        x, r = divmod(x, 10**1000)
        chunks.append(str(r).zfill(1000))
    return str(x) + "".join(reversed(chunks))


def test_decimal_prints_past_the_int_to_str_limit():
    # CPython converts at most 4,300 digits of an int to str by default
    s, p, n = 3**20000, 30000, 5000
    e = len(_digits_by_divmod(s >> p)) - 1  # the leading digit's exponent, 511
    digits = _digits_by_divmod((s * 10 ** (n - 1 - e) * 2 + (1 << p)) >> (p + 1))
    assert len(digits) == n
    text = (digits[: e + 1] + "." + digits[e + 1 :]).rstrip("0")
    assert ApproxReal(s, p, 1).decimal(n) == text
    assert ApproxReal(-s, p, 1).decimal(n) == "-" + text
    # 10^100 - 2^-16700 rounds up to 10^100 at n digits: the carry moves the exponent
    s, p = (10**100 << 16700) - 1, 16700
    assert ApproxReal(s, p, 1).decimal(n) == "1" + "0" * 100 + ".0"
    assert ApproxReal(-s, p, 1).decimal(n) == "-1" + "0" * 100 + ".0"
    # 10^n - 1/2 rounds up to 10^n, past the fixed-point range
    assert ApproxReal(2 * 10**n - 1, 1, 1).decimal(n) == "1.0e+5000"
    assert ApproxReal(1 - 2 * 10**n, 1, 1).decimal(n) == "-1.0e+5000"


def test_repr_prints_midpoint_and_radius():
    assert repr(ApproxReal(-7, 1, 3)) == "ApproxReal(-3.5, rad=1.5)"
    assert repr(ApproxReal.from_int(3)) == "ApproxReal(3.0, rad=0.0)"


def test_from_ratio_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        ApproxReal.from_ratio(1, 0, 53)
