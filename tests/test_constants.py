"""Tests for the exact-rational constant routines.

Reference digit strings were computed independently with mpmath at high
precision and frozen here; the library itself never consults mpmath's
transcendental functions, so agreement is a genuine cross-check.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime, jacobi_symbol

from bseries import constants
from bseries.closedform import parse_closed_form
from bseries.constants import (
    bernoulli_numbers,
    hurwitz_zeta2_ball,
    kronecker,
    l_value_ball,
    log_ball,
    normalize_discriminant,
    pi_ball,
    zeta3_ball,
)
from bseries.precision import ApproxReal, ceil_units, digits_to_bits

PI = "3.141592653589793238462643383279502884197169399375106"
LOG2 = "0.6931471805599453094172321214581765680755001343602553"
LOG3 = "1.098612288668109691395245236922525704647490557822749"
LOG10 = "2.302585092994045684017991454684364207601101488628773"
ZETA3 = "1.202056903159594285399738161511449990764986292340499"
HZ_QUARTER = "17.19732915450711073927131911933522402150689440149417"
L_VALUES = {
    -4: "0.9159655941772190150546035149323841107741493742816721",
    -3: "0.7813024128964862968671874296240923563651343365452854",
    -11: "0.9095391053238837015320859390586052692591856791824289",
    -8: "1.064734171043503370392827451461668889483099151774485",
    -7: "1.151925470544491047101692397320549964797821404686567",
    5: "0.7062114032597409699310031757625640276602464718529469",
    12: "0.9497031262940093952634984917457415158736519509096929",
    -15: "1.296618596633237733240236594378533682777371129159732",
}


def assert_encloses(ball, decimal_str, eps=Fraction(1, 10**48)):
    """The ball must contain the reference value up to the string's own error."""
    ref = Fraction(decimal_str)
    lo, hi = ball.to_fraction_bounds()
    assert lo - eps <= ref <= hi + eps, f"{decimal_str} outside [{float(lo)}, {float(hi)}]"


def mpf_to_fraction(x) -> Fraction:
    """The exact value of a finite mpf."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** int(exp)


def frac_ball(p, q, bits):
    return ApproxReal.from_fraction(Fraction(p, q), bits)


# ----------------------------------------------------------------------
# pi


def test_pi_reference_digits():
    assert_encloses(pi_ball(50), PI)


def test_pi_two_formulas_agree_at_1000_digits():
    a = pi_ball(1000, formula=0)
    b = pi_ball(1000, formula=1)
    assert a.to_digits() >= 1000
    assert b.to_digits() >= 1000
    diff = a - b
    assert diff.contains_zero()
    assert diff.upper_abs() <= Fraction(1, 10**1000)


def test_pi_requested_digits_scale():
    for d in (10, 60, 200):
        assert pi_ball(d).to_digits() >= d


# ----------------------------------------------------------------------
# logarithms


def test_log_reference_digits():
    assert_encloses(log_ball(Fraction(2), 50), LOG2)
    assert_encloses(log_ball(Fraction(3), 50), LOG3)
    assert_encloses(log_ball(Fraction(10), 50), LOG10)


def test_log_one_is_zero():
    b = log_ball(Fraction(1), 40)
    assert b.contains_zero()
    assert b.upper_abs() <= Fraction(1, 10**40)


def test_log_is_additive():
    six = log_ball(Fraction(6), 45)
    split = log_ball(Fraction(2), 45) + log_ball(Fraction(3), 45)
    assert (six - split).contains_zero()


def test_log_of_inverse_negates():
    a = log_ball(Fraction(7, 5), 45)
    b = log_ball(Fraction(5, 7), 45)
    assert (a + b).contains_zero()


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_ball(Fraction(0), 10)
    with pytest.raises(ValueError):
        log_ball(Fraction(-3), 10)


# the catalog's log arguments, each a product of powers of 2 and 3
CATALOG_LOGS = [Fraction(x) for x in ("2", "3", "2/3", "3/4", "4/27", "27/256", "64/27", "432")]


def _assert_holds_the_reference(ball, ref_fn, p):
    """The ball holds ref_fn() computed by mpmath at 2p + 64 bits, without slack."""
    with mpmath.workprec(2 * p + 64):
        ref = mpf_to_fraction(ref_fn())
    lo, hi = ball.to_fraction_bounds()
    assert lo <= ref <= hi


@pytest.mark.parametrize("digits", [30, 300, 1000])
def test_log_balls_hold_mpmath(monkeypatch, digits):
    monkeypatch.setattr(constants, "_cache", {})
    rng = random.Random(digits)
    smooth = [
        Fraction(2) ** rng.randint(-9, 9) * Fraction(3) ** rng.randint(-6, 6)
        * Fraction(5) ** rng.randint(-4, 4) * Fraction(7) ** rng.randint(-3, 3)
        for _ in range(12)
    ]
    p = digits_to_bits(digits + 2)
    for x in CATALOG_LOGS + smooth:
        ball = log_ball(x, digits)
        assert ball.p == p and ball.to_digits() >= digits
        # the ball sums e times each factor's ball: S exactly, units with |e|
        basis = constants._log_basis(x)
        assert math.prod(b**e for b, e in basis.items()) == x
        parts = [(e, log_ball(b, digits)) for b, e in basis.items()]
        assert ball.s == sum(e * part.s for e, part in parts)
        assert ball.units == sum(abs(e) * part.units for e, part in parts)
        _assert_holds_the_reference(ball, lambda: mpmath.log(_mpf(x)), p)
        # the prime basis agrees with the direct reduction of x to atanh
        s, units = constants._log(x, p)
        assert abs(ball.s - s) <= ball.units + units, x


def test_log_of_a_cofactor_has_its_own_entry(monkeypatch):
    monkeypatch.setattr(constants, "_cache", {})
    x = Fraction(10007, 3)
    assert constants._log_basis(x) == {Fraction(3): -1, Fraction(10007): 1}
    for digits in (30, 300):
        _assert_holds_the_reference(
            log_ball(x, digits), lambda: mpmath.log(_mpf(x)), digits_to_bits(digits + 2)
        )
    # both reduce by powers of two, and take those from log 2's own entry
    assert set(constants._cache) == {("log", Fraction(n)) for n in (2, 3, 10007)}


def test_log_2_series_is_summed_once_per_precision(monkeypatch):
    # log 3 = 2*log 2 + 2*atanh(-1/7), with 2*log 2 taken from log 2's own entry
    monkeypatch.setattr(constants, "_cache", {})
    calls, atan = [], constants._atan
    monkeypatch.setattr(constants, "_atan", lambda c, x, *a, **k: calls.append((c, x)) or atan(c, x, *a, **k))
    for digits in (30, 300):
        for x in (3, 432, 2):
            log_ball(Fraction(x), digits)
    assert calls == [(2, Fraction(-1, 7)), (2, Fraction(1, 3))] * 2


def test_closed_forms_of_one_precision_compute_each_constant_once(monkeypatch):
    # coefficients of 1 to 4 digits pad eval_ball(310) to 321 .. 324 digits,
    # which the grid rounds to one request for each constant
    computed = []
    cached = constants._cached

    def counting(key, digits, compute):
        def recorded(p):
            computed.append(key)
            return compute(p)

        return cached(key, digits, recorded)

    monkeypatch.setattr(constants, "_cache", {})
    monkeypatch.setattr(constants, "_cached", counting)
    texts = [
        "3*pi + 2*log(2)",
        "17*log(3) - 5/4*G",
        "311/3*K + 7*zeta(3) - log(4/27)",
        "2719*log(432) + 13*pi - 4000*K",
        "9*G*pi + log(27/256) - 99*zeta(3)",
    ]
    for text in texts:
        parse_closed_form(text).eval_ball(310)
    assert sorted(computed, key=str) == sorted(
        [("pi", 0), ("log", Fraction(2)), ("log", Fraction(3)), ("lvalue", -3), ("lvalue", -4), ("zeta3",)],
        key=str,
    )


# ----------------------------------------------------------------------
# zeta(3) and Hurwitz zeta(2, a)


def test_zeta3_reference_digits():
    assert_encloses(zeta3_ball(50), ZETA3)


def test_hurwitz_reference_digits():
    assert_encloses(hurwitz_zeta2_ball(Fraction(1, 4), 50), HZ_QUARTER)


def test_hurwitz_at_one_is_pi2_over_6():
    z = hurwitz_zeta2_ball(Fraction(1), 50)
    diff = z - pi_ball(50) * pi_ball(50) * frac_ball(1, 6, digits_to_bits(55))
    assert diff.contains_zero()
    assert diff.upper_abs() < Fraction(1, 10**48)


def test_hurwitz_at_half_is_pi2_over_2():
    z = hurwitz_zeta2_ball(Fraction(1, 2), 50)
    diff = z - pi_ball(50) * pi_ball(50) * frac_ball(1, 2, digits_to_bits(55))
    assert diff.contains_zero()
    assert diff.upper_abs() < Fraction(1, 10**48)


def test_hurwitz_multiplication_theorem():
    # sum_{a=1..q} zeta(2, a/q) = q^2 zeta(2)
    q = 5
    total = hurwitz_zeta2_ball(Fraction(1, q), 45)
    for a in range(2, q + 1):
        total = total + hurwitz_zeta2_ball(Fraction(a, q), 45)
    diff = total - pi_ball(45) * pi_ball(45) * frac_ball(q * q, 6, digits_to_bits(50))
    assert diff.contains_zero()
    assert diff.upper_abs() < Fraction(1, 10**43)


def test_bernoulli_numbers():
    want = [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(5, 66),
        Fraction(0),
        Fraction(-691, 2730),
    ]
    assert bernoulli_numbers(12) == want


def _bernoulli_recurrence(n: int) -> list[Fraction]:
    """B_0 .. B_n from sum_{j=0}^{m} C(m+1, j) B_j = 0, in Fractions: the reference."""
    b = [Fraction(1)]
    while len(b) <= n:
        m = len(b)
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


@pytest.fixture
def cold_bernoulli(monkeypatch):
    """An empty Bernoulli cache for one test, and a count of the tangent tables built."""
    builds = []
    tangent = constants._tangent_numbers

    def counting(n):
        builds.append(n)
        return tangent(n)

    monkeypatch.setattr(constants, "_bernoulli", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(constants, "_tangent_numbers", counting)
    return builds


def test_bernoulli_numbers_match_the_recurrence(cold_bernoulli):
    assert bernoulli_numbers(400) == _bernoulli_recurrence(400)


def test_bernoulli_cache_grown_in_steps_is_the_same_list(cold_bernoulli):
    steps = [bernoulli_numbers(n) for n in (12, 40, 401)]
    constants._bernoulli[:] = [Fraction(1), Fraction(-1, 2)]
    once = bernoulli_numbers(401)
    assert [len(b) for b in steps] == [13, 41, 402]
    for b in steps:
        assert b == once[: len(b)]


def test_hurwitz_builds_logarithmically_many_tangent_tables(cold_bernoulli):
    # the pass reads B_2 .. B_{2J+2} for its J orders; the table is grown to
    # the predicted last order, and at least doubled if the pass outruns it
    constants._hurwitz_sum(3, [(1, 1)], 1, 1, 3400)
    builds = list(cold_bernoulli)
    orders = len(_fixed_point_pass(3, [(1, 1)], 1, 1, 3400)[2])
    assert orders > 300
    assert len(builds) <= orders.bit_length() + 1, builds


def test_l_value_builds_the_bernoulli_table_once_to_its_last_correction(
    cold_bernoulli, monkeypatch
):
    # At 1000 digits the corrections of L(-111) read up to B_704.  The table
    # is built once, to the last order predicted for the combined tail of
    # all 72 residues; doubling from one more number at a time would have
    # built it to B_1024.
    monkeypatch.setattr(constants, "_cache", {})
    l_value_ball(-111, 1000)
    assert 704 <= len(constants._bernoulli) - 1 <= 710
    assert len(cold_bernoulli) == 1, cold_bernoulli


# ----------------------------------------------------------------------
# Kronecker symbol


def test_kronecker_special_cases():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(12, 18) == 0  # both even
    assert kronecker(-4, 2) == 0
    # (d|2) depends on d mod 8
    assert kronecker(17, 2) == 1  # 17 = 1 (mod 8)
    assert kronecker(7, 2) == 1  # 7 = -1 (mod 8)
    assert kronecker(3, 2) == -1
    assert kronecker(5, 2) == -1


def test_kronecker_matches_jacobi_for_odd_n():
    for d in range(-30, 31):
        for n in range(1, 40, 2):
            assert kronecker(d, n) == jacobi_symbol(d, n), (d, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-120, max_value=120), st.integers(min_value=3, max_value=5000))
def test_kronecker_euler_criterion(d, p):
    # For odd primes p not dividing d: (d|p) = d^((p-1)/2) mod p.
    if not isprime(p) or d % p == 0:
        return
    want = pow(d % p, (p - 1) // 2, p)
    if want == p - 1:
        want = -1
    assert kronecker(d, p) == want


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=-80, max_value=80),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=300),
)
def test_kronecker_multiplicative_in_n(d, m, n):
    assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=500))
def test_kronecker_periodic_mod_discriminant(n):
    for d in (-4, -3, -8, 5, 12, -20, 13):
        assert kronecker(d, n) == kronecker(d, n + abs(d))


# ----------------------------------------------------------------------
# discriminants and L-values


def test_normalize_discriminant():
    assert normalize_discriminant(-6) == -24
    assert normalize_discriminant(-39) == -39
    assert normalize_discriminant(-4) == -4
    assert normalize_discriminant(5) == 5
    assert normalize_discriminant(7) == 28
    assert normalize_discriminant(-5) == -20
    with pytest.raises(ValueError):
        normalize_discriminant(0)


def test_l_value_rejects_non_discriminant():
    with pytest.raises(ValueError):
        l_value_ball(-6, 20)
    with pytest.raises(ValueError):
        l_value_ball(3, 20)


def test_l_value_reference_digits():
    for d, s in L_VALUES.items():
        assert_encloses(l_value_ball(d, 50), s)


def test_l_value_balls_are_pinned(monkeypatch):
    # (d, P, units, sha256 of S) at 300 digits, for every discriminant of the catalogs
    monkeypatch.setattr(constants, "_cache", {})
    pins = (Path(__file__).parent / "lvalue_pins.tsv").read_text().splitlines()
    rows = [line.split("\t") for line in pins if not line.startswith("#")]
    assert len(rows) == 10
    for d, p, units, digest in rows:
        ball = l_value_ball(int(d), 300)
        got = [str(ball.p), str(ball.units), hashlib.sha256(str(ball.s).encode()).hexdigest()]
        assert got == [p, units, digest], d


def _per_residue_hurwitz2(a: Fraction, cn: int, cd: int, p: int) -> tuple[int, int]:
    """(S, units) for ``(cn/cd) * zeta(2, a)`` by Euler-Maclaurin, every term an exact floor.

    The route the one-pass routine replaced, kept as a reference: each
    correction ``B_2j r^(2j+1) / u^(2j+1)`` and its tail are divisions of
    exact integers, one residue at a time.
    """
    e, r = a.numerator, a.denominator
    n_terms = max(8, p // 3)
    s = sum((cn * r * r << p) // (cd * (n * r + e) ** 2) for n in range(n_terms))
    u = n_terms * r + e
    s += (cn * r << p) // (cd * u) + (cn * r * r << p) // (2 * cd * u * u)
    bernoulli_numbers(2 * constants._last_correction(cn / cd, u / r, p, 4 * n_terms) + 2)
    rpow, upow = r**3, u**3  # r^(2j+1), u^(2j+1) at j = 1
    j = 1
    while True:
        bern = bernoulli_numbers(2 * j + 2)
        b = bern[2 * j]
        s += (cn * b.numerator * rpow << p) // (cd * b.denominator * upow)
        rpow, upow = rpow * r * r, upow * u * u
        b = bern[2 * j + 2]
        tail = ceil_units(p, 4 * abs(cn * b.numerator) * rpow, cd * b.denominator * upow)
        if tail <= 1:
            return s, n_terms + 2 + j + tail
        j += 1


def _per_residue_l_value(d: int, p: int) -> tuple[int, int]:
    q = abs(d)
    chis = [(a, chi) for a in range(1, q + 1) if (chi := kronecker(d, a))]
    parts = [_per_residue_hurwitz2(Fraction(a, q), chi, q * q, p) for a, chi in chis]
    return sum(s for s, _ in parts), sum(u for _, u in parts)


CATALOG_DISCRIMINANTS = (-3, -4, -8, -11, -15, -24, -39, -68, -87, -111)


@pytest.mark.parametrize(
    "digits, discriminants",
    [(30, CATALOG_DISCRIMINANTS), (300, CATALOG_DISCRIMINANTS), (1000, (-3, -111))],
)
def test_l_value_ball_overlaps_the_per_residue_route(monkeypatch, digits, discriminants):
    monkeypatch.setattr(constants, "_cache", {})
    p = digits_to_bits(digits + 2)
    for d in discriminants:
        ball = l_value_ball(d, digits)
        s, units = _per_residue_l_value(d, p)
        assert ball.p == p
        assert abs(ball.s - s) <= ball.units + units, d


def test_l_value_against_hurwitz_route():
    # Independent route: mpmath's Hurwitz zeta with a character table from
    # the (separately tested) Kronecker symbol.
    with mpmath.workdps(45):  # the references' precision
        for d in (-11, -8, 5, 12, -15, -24, -39, -68, -87, -111):
            q = abs(d)
            ref = sum(
                kronecker(d, a) * mpmath.zeta(2, mpmath.mpf(a) / q)
                for a in range(1, q + 1)
            ) / q**2
            got = l_value_ball(d, 40)
            assert abs(mpmath.ldexp(got.s, -got.p) - ref) < mpmath.mpf(10) ** -38


def test_l_value_ball_holds_the_hurwitz_route_without_slack():
    # mpmath's Hurwitz zeta at twice the digits, compared exactly with the
    # ball, whose radius is the counted error itself.
    d, digits = -111, 300
    q = abs(d)
    with mpmath.workprec(digits_to_bits(2 * digits)):  # the reference's precision
        ref = mpmath.fsum(
            kronecker(d, a) * mpmath.zeta(2, mpmath.mpf(a) / q) for a in range(1, q + 1)
        ) / q**2
    ball = l_value_ball(d, digits)
    lo, hi = ball.to_fraction_bounds()
    assert lo <= mpf_to_fraction(ref) <= hi
    assert ball.to_digits() >= digits


# ----------------------------------------------------------------------
# the tail units of each series
#
# A constant's ``(S, units)`` counts its terms' errors plus its tail bound.
# The floors alone leave about half the units as slack, so a ball can hold
# the constant with its tail dropped or shrunk.  These tests replay each
# series' fixed-point recurrence as the module docstring states it, which
# fixes the term count n, and check the parts of the count: S against the
# exact head in Fractions, and the tail against a reference at twice the
# precision.


def _fixed_point_steps(t: int, ratio, start: int = 0) -> list[int]:
    """T_start, T_start+1, ... before the first zero, with T_{j+1} = floor(T_j * ratio(j))."""
    steps = []
    for j in itertools.count(start):
        if not t:
            return steps
        steps.append(t)
        t = math.floor(t * ratio(j))


def _check_count(adds, terms, s: int, units: int, p: int, ref) -> None:
    """S sums the n replayed terms, each within two units of its exact term; the tail's
    two units cover the rest.

    ``ref`` is the constant from mpmath at 2p + 64 bits, so it is good to
    2^-2p, far below one unit 2^-p.
    """
    n = len(adds)
    head = [next(terms) for _ in range(n)]
    assert s == sum(adds)
    assert units == 2 * n + 2
    assert abs(s - sum(head) * 2**p) < 2 * n  # the proved head count
    with mpmath.workprec(2 * p + 64):
        remainder = abs(mpf_to_fraction(ref()) - sum(head))
    assert 2 * 2**p >= remainder * 4**p - 1, float(remainder * 2**p)


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


TAIL_BITS = [digits_to_bits(d + 2) for d in (8, 20, 45, 80)]


@pytest.mark.parametrize("p", TAIL_BITS)
@pytest.mark.parametrize(
    "c, x, hyperbolic",
    [
        (16, Fraction(1, 5), False),
        (-4, Fraction(1, 239), False),
        (4, Fraction(1, 2), False),
        (4, Fraction(1, 3), False),
        (2, Fraction(1, 3), True),
        (2, Fraction(-1, 5), True),
        (2, Fraction(1, 7), True),
    ],
)
def test_atan_tail_covers_the_remainder(p, c, x, hyperbolic):
    s, units = constants._atan(c, x, p, hyperbolic)
    steps = _fixed_point_steps(math.floor(abs(c * x) * 2**p), lambda j: x * x)
    sign = 1 if c * x > 0 else -1
    adds = [sign * (-1 if j % 2 and not hyperbolic else 1) * (t // (2 * j + 1)) for j, t in enumerate(steps)]
    step = x * x if hyperbolic else -x * x
    terms = (c * step**j * x / (2 * j + 1) for j in itertools.count())
    fn = mpmath.atanh if hyperbolic else mpmath.atan
    _check_count(adds, terms, s, units, p, lambda: c * fn(_mpf(x)))


@pytest.mark.parametrize("p", TAIL_BITS)
def test_zeta3_tail_covers_the_remainder(p):
    s, units = constants._zeta3(p)
    steps = _fixed_point_steps(
        math.floor(Fraction(5, 4) * 2**p), lambda k: Fraction(k**3, 2 * (k + 1) ** 2 * (2 * k + 1)), 1
    )
    adds = [t if k % 2 else -t for k, t in enumerate(steps, 1)]
    terms = (
        Fraction(5 * (-1) ** (k - 1), 2 * k**3 * math.comb(2 * k, k)) for k in itertools.count(1)
    )
    _check_count(adds, terms, s, units, p, lambda: mpmath.zeta(3))


def _fixed_point_pass(q: int, residues: list, sn: int, sd: int, p: int):
    """What ``constants._hurwitz_sum`` floors, counts and bounds, recomputed in Fractions.

    Returns the exact head and end terms with their floors, one
    ``(floor, count, exact)`` triple per correction order, and the last
    tail, each as the ``constants`` module docstring defines it.
    """
    scale, big_n = Fraction(sn, sd), max(8, p // 3)
    us = [big_n * q + a for a, _ in residues]
    terms = []
    for (a, c), u in zip(residues, us):
        terms += [scale * c * Fraction(q * q, (k * q + a) ** 2) for k in range(big_n)]
        terms += [scale * c * Fraction(q, u), scale * c * Fraction(q * q, 2 * u * u)]
    floors = [math.floor(t * 2**p) for t in terms]
    n, u_min = sum(abs(c) for _, c in residues), min(us)
    last = constants._last_correction(float(n * scale), u_min / q, p, 4 * big_n)
    bernoulli_numbers(2 * last + 2)
    g = constants._guard(sn, sd, n, last)
    xs = [math.floor(Fraction(q, u) ** 3 * 2 ** (p + g)) for u in us]
    corrections = []
    for j in itertools.count(1):
        bern = bernoulli_numbers(2 * j + 2)
        factor = scale * bern[2 * j]
        exact = factor * sum(c * Fraction(q, u) ** (2 * j + 1) for (_, c), u in zip(residues, us))
        fixed = sum(c * x for (_, c), x in zip(residues, xs))
        count = math.ceil(abs(factor) * n * j / 2**g) + 1
        corrections.append((math.floor(factor * fixed / 2**g), count, exact))
        x_min = xs[us.index(u_min)]
        bound = 4 * abs(scale * bern[2 * j + 2]) * n * (x_min + j) * Fraction(q, u_min) ** 2
        tail = math.ceil(bound / 2**g)
        if tail <= 1:
            return terms, floors, corrections, tail
        xs = [math.floor(x * Fraction(q, u) ** 2) for x, u in zip(xs, us)]


def _l_value_case(d: int) -> tuple:
    q = abs(d)
    return q, [(a, chi) for a in range(1, q + 1) if (chi := kronecker(d, a))], 1, q * q


# zeta(2, a) * scale for one residue, with the ids pytest gives an (a, scale) pair, and three L_d(2)
_ONE_RESIDUE = [
    (Fraction(1), Fraction(1)),
    (Fraction(1, 2), Fraction(1)),
    (Fraction(1, 4), Fraction(1)),
    (Fraction(3, 7), Fraction(-1, 49)),
    (Fraction(10, 11), Fraction(1, 121)),
    (Fraction(5, 24), Fraction(-1, 576)),
]
_PASSES = [
    pytest.param(
        a.denominator, [(a.numerator, 1)], scale.numerator, scale.denominator, id=f"a{i}-scale{i}"
    )
    for i, (a, scale) in enumerate(_ONE_RESIDUE)
] + [pytest.param(*_l_value_case(d), id=f"L({d})") for d in (-3, -4, -111)]


@pytest.mark.parametrize("p", TAIL_BITS)
@pytest.mark.parametrize("q, residues, sn, sd", _PASSES)
def test_hurwitz_tail_covers_the_remainder(p, q, residues, sn, sd):
    s, units = constants._hurwitz_sum(q, residues, sn, sd, p)
    terms, floors, corrections, tail = _fixed_point_pass(q, residues, sn, sd, p)
    assert s == sum(floors) + sum(f for f, _, _ in corrections)
    assert units == len(floors) + sum(c for _, c, _ in corrections) + tail
    for floor, count, exact in corrections:  # each order's count covers its fixed-point error
        assert abs(exact * 2**p - floor) < count
    # the tail covers what Euler-Maclaurin leaves after the last order
    with mpmath.workprec(2 * p + 64):
        ref = sum(c * mpmath.zeta(2, mpmath.mpf(a) / q) for a, c in residues) * sn / sd
        remainder = abs(mpf_to_fraction(ref) - sum(terms) - sum(e for _, _, e in corrections))
    assert tail * 2**p >= remainder * 4**p - 1, float(remainder * 2**p)
