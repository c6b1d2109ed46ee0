"""Closed-form expressions: parsing, canonical rendering, exact algebra, balls."""

import functools
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bseries.closedform import ClosedForm, parse_closed_form, render_closed_form
from bseries.exactnum import QuadElem
from bseries.exprparse import ExprError
from bseries.precision import digits_to_bits
from bseries.seriesmodel import render_quad

CANONICAL = [
    ("pi", "pi"),
    ("2/pi", "2/pi"),
    ("pi^2/6", "1/6*pi^2"),
    ("3/2*pi^-1", "3/2/pi"),
    ("G", "G"),
    ("K", "K"),
    ("L(-11)", "L(-11)"),
    ("2*L(-8)/3", "2/3*L(-8)"),
    ("zeta(3)", "zeta(3)"),
    ("7*zeta(3)/2", "7/2*zeta(3)"),
    ("log(2)", "log(2)"),
    ("2*log(2) - log(3)", "2*log(2) - log(3)"),
    ("sqrt(5)", "sqrt(5)"),
    ("1/sqrt(5)", "1/5*sqrt(5)"),
    ("sqrt(8)", "2*sqrt(2)"),
    ("sqrt(2)^2", "2"),
    ("sqrt(2)*sqrt(3)", "sqrt(6)"),
    ("15/2*sqrt(3)*K - 40/3*G", "15/2*sqrt(3)*K - 40/3*G"),
    ("sqrt(96256 + 43008*sqrt(5))", "sqrt(96256 + 43008*sqrt(5))"),
    ("sqrt(113315700 - 49617900*sqrt(5))/pi", "sqrt(113315700 - 49617900*sqrt(5))/pi"),
    ("(25 + 3*sqrt(69))/96", "25/96 + 1/32*sqrt(69)"),
    ("-pi^2/8 + 2", "2 - 1/8*pi^2"),
    ("0", "0"),
]


def test_canonical_rendering():
    for src, want in CANONICAL:
        cf = parse_closed_form(src)
        got = render_closed_form(cf)
        assert got == want, f"{src!r} rendered {got!r}, wanted {want!r}"
        # rendering is a fixed point
        assert render_closed_form(parse_closed_form(got)) == got


def test_parse_render_identity_on_canonical_output():
    for src, _ in CANONICAL:
        cf = parse_closed_form(src)
        assert parse_closed_form(render_closed_form(cf)) == cf


def test_algebra():
    one_plus = parse_closed_form("1 + sqrt(2)")
    three_minus = parse_closed_form("3 - sqrt(2)")
    assert render_closed_form(one_plus * three_minus) == "1 + 2*sqrt(2)"
    pi = parse_closed_form("pi")
    assert render_closed_form(pi * pi / pi) == "pi"
    assert render_closed_form(pi**2 / 6 - pi**2 / 6) == "0"
    assert (parse_closed_form("1/2") + parse_closed_form("1/2")) == ClosedForm.const(1)


def test_division_by_multi_term_rejected():
    with pytest.raises(ExprError):
        parse_closed_form("1/(1 + sqrt(2))")


@pytest.mark.parametrize(
    "src, why",
    [
        ("(1 + pi)^-1", "can only divide by a single closed-form term"),
        ("2^(1/2)", "non-integer exponent"),
        ("sqrt(-4)", "sqrt of a non-positive closed-form radicand"),
        ("log(0)", "log of non-positive rational"),
    ],
)
def test_malformed_closed_form_names_the_fault(src, why):
    with pytest.raises(ExprError) as err:
        parse_closed_form(src)
    assert type(err.value) is ExprError and str(err.value) == why


@pytest.mark.parametrize("src", ["1/0", "1/(2 - 2)", "3/(pi - pi)", "0^-1", "pi*0^-2"])
def test_zero_divisor_in_closed_form_is_named(src):
    # a divisor that folds to zero is a division by zero, as in a weight, not a malformed divisor
    with pytest.raises(ZeroDivisionError) as err:
        parse_closed_form(src)
    assert str(err.value) == "division by zero in closed form"


def test_unknown_names_rejected():
    with pytest.raises(ExprError):
        parse_closed_form("x + 1")
    with pytest.raises(ExprError):
        parse_closed_form("zeta(5)")
    with pytest.raises(ExprError):
        parse_closed_form("L(-6)")  # not a discriminant


def test_eval_ball_digits():
    for src, _ in CANONICAL:
        cf = parse_closed_form(src)
        ball = cf.eval_ball(40)
        if cf.terms:
            assert ball.to_digits() >= 40, src


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("exponent", [40, 80])
def test_large_coefficient_keeps_the_absolute_radius(exponent, digits):
    # verify_identity evaluates the RHS with eval_ball(digits + 10) and
    # compares against 10^-digits.
    cf = parse_closed_form(f"{10**exponent}*pi")
    ball = cf.eval_ball(digits + 10)
    assert ball.units * 10**digits <= 1 << ball.p


def test_eval_against_reference():
    with mpmath.workdps(50):  # the references' precision
        cases = {
            "1/6*pi^2": mpmath.pi**2 / 6,
            "2/pi": 2 / mpmath.pi,
            "G": mpmath.catalan,
            "7/2*zeta(3)": mpmath.zeta(3) * mpmath.mpf(7) / 2,
            "2*log(2) - log(3)": 2 * mpmath.log(2) - mpmath.log(3),
            "sqrt(96256 + 43008*sqrt(5))": mpmath.sqrt(96256 + 43008 * mpmath.sqrt(5)),
        }
        for src, ref in cases.items():
            ball = parse_closed_form(src).eval_ball(45)
            assert abs(mpmath.ldexp(ball.s, -ball.p) - ref) < mpmath.mpf(10) ** -42, src


# mpmath's atoms at twice the deepest ball's precision, and a slack far below its unit
_REF_BITS = 2 * digits_to_bits(440) + 64
_REF_SLACK = Fraction(1, 2 ** (_REF_BITS - 80))


@functools.cache
def _reference(name: str, arg: Fraction = Fraction(0)) -> Fraction:
    """An atom's value from mpmath at ``_REF_BITS`` bits, as the exact value of the mpf."""
    with mpmath.workprec(_REF_BITS):
        value = {
            "pi": lambda: +mpmath.pi,
            "zeta(3)": lambda: mpmath.zeta(3),
            "G": lambda: +mpmath.catalan,
            "K": lambda: (mpmath.zeta(2, mpmath.mpf(1) / 3) - mpmath.zeta(2, mpmath.mpf(2) / 3)) / 9,
            "log": lambda: mpmath.log(mpmath.mpf(arg.numerator) / arg.denominator),
            "sqrt": lambda: mpmath.sqrt(arg),
        }[name]()
    sign, man, exp, _ = value._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** int(exp)


def _log_atom(a: int, b: int, c: int) -> tuple[str, Fraction]:
    x = Fraction(2) ** a * Fraction(3) ** b * Fraction(5) ** c
    return f"log({x})", _reference("log", x)


# (text, mpmath's value) of one atom of a closed form
_ATOMS = st.one_of(
    st.sampled_from(["pi", "zeta(3)", "G", "K"]).map(lambda name: (name, _reference(name))),
    st.just(("pi^-1", 1 / _reference("pi"))),
    st.tuples(st.integers(-6, 6), st.integers(-4, 4), st.integers(-3, 3)).map(lambda e: _log_atom(*e)),
    st.integers(2, 30).map(lambda m: (f"sqrt({m})", _reference("sqrt", Fraction(m)))),
)
_COEFFS = st.builds(
    Fraction, st.integers(1, 999_999) | st.integers(-999_999, -1), st.integers(1, 999)
)
_TERMS = st.lists(st.tuples(_COEFFS, st.lists(_ATOMS, max_size=2)), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(_TERMS, st.integers(20, 400))
def test_eval_ball_holds_mpmath_at_the_digits_asked(terms, digits):
    text, ref = [], Fraction(0)
    for coeff, atoms in terms:
        text.append("*".join([f"({coeff})"] + [atom for atom, _ in atoms]))
        value = coeff
        for _, v in atoms:
            value *= v
        ref += value
    ball = parse_closed_form(" + ".join(text)).eval_ball(digits)
    assert ball.to_digits() >= digits
    lo, hi = ball.to_fraction_bounds()
    assert lo - _REF_SLACK <= ref <= hi + _REF_SLACK


def test_surd_root_inverse_multiplies_to_one():
    cf = parse_closed_form("sqrt(96256 + 43008*sqrt(5))")
    inv = 1 / cf
    diff = cf.eval_ball(40) * inv.eval_ball(40) - 1
    assert diff.contains_zero()
    assert diff.upper_abs() < Fraction(1, 10**38)


def test_nested_radical_with_a_huge_conjugate_keeps_its_digits():
    # (2 - sqrt(3))^40 is about 1.3e-23, but its parts have 75 bits each and
    # cancel when each is rounded to the working precision on its own.  Its
    # square root is (2 - sqrt(3))^20 exactly; the ball must hold it to 30 digits.
    cf = parse_closed_form("sqrt(" + render_quad(QuadElem(2, -1, 3) ** 40) + ")")
    ball = cf.eval_ball(30)
    assert ball.to_digits() >= 30
    lo, hi = ball.to_fraction_bounds()
    exact = QuadElem(2, -1, 3) ** 20
    assert (exact - lo).sign() >= 0 and (hi - exact).sign() >= 0


def test_negative_surd_rejected():
    with pytest.raises((ExprError, ValueError)):
        parse_closed_form("sqrt(1 - sqrt(5))")


def test_atoms_used():
    cf = parse_closed_form("15/2*sqrt(3)*K - 40/3*G")
    kinds = sorted(a.kind for a in cf.atoms_used())
    assert kinds == ["lvalue", "lvalue", "sqrt"]
