"""Series model: field parsing/rendering round-trips and exact term arithmetic."""

import math
import operator
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from bseries.catalog import load_catalog
from bseries.exactnum import QuadElem, horner
from bseries.exprparse import ExprError, ast_as_int, parse_expr
from bseries.kernels import KERNELS
from bseries.seriesmodel import (
    HarmonicAtom,
    Position,
    SeriesDef,
    den_value,
    parse_base,
    parse_den_factors,
    parse_quad,
    parse_weight,
    render_base,
    render_den_factors,
    render_weight,
)
from bseries.telescope import parse_derivative

from oracles import HarmonicCache, sqrt_surd, term_exact, weight_value


class TestScalarField:
    def test_golden_inverse(self):
        assert parse_quad("1/(12 - 4*sqrt(5))") == QuadElem(
            Fraction(3, 16), Fraction(1, 16), 5
        )

    def test_phi(self):
        phi = parse_quad("(1 + sqrt(5))/2")
        assert phi**8 == parse_quad("47/2 + 21/2*sqrt(5)")

    def test_sqrt_normalization(self):
        assert parse_quad("sqrt(8)") == QuadElem(0, 2, 2)
        assert parse_quad("sqrt(9)") == QuadElem(3)

    def test_render_round_trip(self):
        for s in [
            "47/2 + 21/2*sqrt(5)",
            "-1/4096",
            "325 - 119*sqrt(7)",
            "sqrt(6)",
            "-sqrt(2)",
            "0",
            "27",
            "37102 - 15147*sqrt(6)",
        ]:
            v = parse_quad(s)
            assert str(v) == s
            assert parse_quad(str(v)) == v

    def test_implicit_multiplication(self):
        assert parse_quad("2sqrt(5)") == QuadElem(0, 2, 5)


class TestBase:
    def test_structured_power(self):
        root, exp = parse_base("(12 + 4*sqrt(5))^-4")
        assert root == QuadElem(12, 4, 5) and exp == -4
        assert render_base(root, exp) == "(12 + 4*sqrt(5))^-4"
        assert root**exp * QuadElem(96256, 43008, 5) == 1

    def test_plain_base(self):
        root, exp = parse_base("-1/4096")
        assert (root, exp) == (QuadElem(Fraction(-1, 4096)), 1)
        assert render_base(root, exp) == "-1/4096"


class TestWeight:
    def test_polynomial(self):
        w = parse_weight("63*k^2 + 78*k + 22")
        assert w.parts == (((22, 78, 63), (), (1,), None),)
        assert weight_value(_simple_series(weight=w), 1) == 163
        assert render_weight(w) == "63*k^2 + 78*k + 22"

    def test_harmonic_terms(self):
        w = parse_weight("2*k - (3*k + 1)*H(k,1) + (11*k + 3)*H(2*k,1)")
        assert render_weight(w) == "2*k - (3*k + 1)*H(k,1) + (11*k + 3)*H(2*k,1)"
        atoms = {atom for *_, atom in w.parts}
        assert HarmonicAtom(1, 0, 1) in atoms and HarmonicAtom(2, 0, 1) in atoms

    def test_offset_atom(self):
        w = parse_weight("H(k - 1,3)")
        assert w.parts == (((1,), (), (1,), HarmonicAtom(1, -1, 3)),)
        assert render_weight(w) == "H(k - 1,3)"

    def test_quadratic_coefficients(self):
        w = parse_weight("(459 + 99*sqrt(6))*k - 108 - 38*sqrt(6)")
        assert w.parts == (((-108, 459), (-38, 99), (1,), None),) and w.d == 6
        assert weight_value(_simple_series(weight=w), 0) == QuadElem(-108, -38, 6)
        canon = render_weight(w)
        assert canon == "(459 + 99*sqrt(6))*k - (108 + 38*sqrt(6))"
        # canonical form is a fixed point of parse/render
        assert render_weight(parse_weight(canon)) == canon

    def test_rational_function_coefficient(self):
        w = parse_weight("(15*k - 4)/27")
        assert w.parts == (((-4, 15), (), (27,), None),)
        assert weight_value(_simple_series(weight=w), 1) == Fraction(11, 27)

    def test_nonlinear_atoms_rejected(self):
        with pytest.raises(ValueError):
            parse_weight("H(k,1)*H(k,2)")
        with pytest.raises(ValueError):
            parse_weight("H(k,1)^2")

    @pytest.mark.parametrize("text", ["H(k,1)^(-1)", "H(k,2)^(-2)", "k*H(2*k,1)^(-1)"])
    def test_negative_atom_power_rejected(self, text):
        # a negative power inverts the atom, and a harmonic atom has no inverse in a weight
        with pytest.raises(ExprError, match="cannot divide by a harmonic atom"):
            parse_weight(text)

    def test_unsupported_atom_rejected(self):
        with pytest.raises(ValueError):
            parse_weight("H(4*k,1)")
        with pytest.raises(ValueError):
            parse_weight("H(k,5)")


class TestDenFactors:
    def test_parse_and_render(self):
        f = parse_den_factors("k^3*(2*k + 1)*(6*k + 1)^2")
        assert f == ((1, 0, 3), (2, 1, 1), (6, 1, 2))
        assert render_den_factors(f) == "k^3*(2*k + 1)*(6*k + 1)^2"
        assert parse_den_factors("1") == ()
        assert render_den_factors(()) == "1"

    def test_negative_shift(self):
        f = parse_den_factors("(3*k - 1)*(3*k - 2)")
        assert f == ((3, -2, 1), (3, -1, 1))
        assert render_den_factors(f) == "(3*k - 2)*(3*k - 1)"

    def test_rejects_nonlinear(self):
        with pytest.raises(ValueError):
            parse_den_factors("(k^2 + 1)")

    @pytest.mark.parametrize("text", ["3", "(2*k + 1)*5", "0*k + 2", "1 - k", "-2*k + 3", "k/2 + 1"])
    def test_rejects_a_constant_and_a_slope_that_is_not_a_positive_integer(self, text):
        with pytest.raises(ExprError, match=r"u\*k \+ v with integer u > 0"):
            parse_den_factors(text)

    @pytest.mark.parametrize("text", ["k^-1", "(2*k + 1)*k^2*k^-2"])
    def test_rejects_nonpositive_exponents(self, text):
        # D(k) is an integer product; a factor with exponent <= 0 is not a denominator
        with pytest.raises(ValueError, match="exponents must be positive"):
            parse_den_factors(text)

    def test_value_is_an_integer(self):
        f = parse_den_factors("(2*k - 1)*(6*k - 5)*(6*k - 1)")
        assert den_value(f, 0) == -5 and type(den_value(f, 0)) is int
        with pytest.raises(ZeroDivisionError):
            den_value(parse_den_factors("k*(k + 1)"), 0)


def test_harmonic_cache():
    h = HarmonicCache()
    assert h.value(1, 3) == Fraction(11, 6)
    assert h.value(2, 4) == Fraction(205, 144)
    assert h.value(3, 2) == Fraction(9, 8)
    assert h.value(1, 0) == 0


def _simple_series(**kw):
    defaults = dict(
        base_root=parse_quad("1/64"),
        kernel=KERNELS["central^3"],
        kernel_pos=Position.NUMERATOR,
        weight=parse_weight("4*k + 1"),
        den_factors=(),
        k_start=0,
    )
    defaults.update(kw)
    return SeriesDef(**defaults)


class TestSeriesDef:
    def test_term_exact_matches_direct_formula(self):
        sd = _simple_series()
        for k in range(6):
            direct = Fraction(4 * k + 1) * Fraction(1, 64) ** k * math.comb(2 * k, k) ** 3
            assert term_exact(sd, k) == direct

    def test_kernel_in_denominator(self):
        sd = SeriesDef(
            base_root=parse_quad("-8"),
            kernel=KERNELS["central^3"],
            kernel_pos=Position.DENOMINATOR,
            weight=parse_weight("3*k - 1"),
            den_factors=parse_den_factors("k^3"),
            k_start=1,
        )
        # t_1 = 2 * (-8) / (1 * 8) = -2
        assert term_exact(sd, 1) == -2
        assert term_exact(sd, 2) == Fraction(5 * 64, 8 * 216)

    def test_term_ratio_consistency(self):
        # t_{k+1}/t_k from the base, the weight and scale_ratio equals term_exact's
        # quotient and sympy's simplified quotient of the term, at more points than
        # the ratio's degree
        sd = SeriesDef(
            base_root=parse_quad("1/4"),
            kernel=KERNELS["binom(6k,3k)"],
            kernel_pos=Position.DENOMINATOR,
            weight=parse_weight("15*k + 2"),
            den_factors=parse_den_factors("(2*k + 1)"),
            k_start=0,
        )
        k = sp.Symbol("k")
        term = (15 * k + 2) * sp.Rational(1, 4) ** k / (sp.binomial(6 * k, 3 * k) * (2 * k + 1))
        ratio = sp.combsimp(term.subs(k, k + 1) / term)
        num, den = sd.scale_ratio
        assert len(num) == len(den) == 4
        for n in range(10):
            want = (term_exact(sd, n + 1) / term_exact(sd, n)).as_fraction()
            got = sd.base_value * Fraction(horner(num, n), horner(den, n))
            assert got * weight_value(sd, n + 1) / weight_value(sd, n) == want
            assert ratio.subs(k, n) == sp.Rational(want.numerator, want.denominator)

    def test_harmonic_weight_term(self):
        sd = SeriesDef(
            base_root=parse_quad("1/2"),
            weight=parse_weight("H(2*k,1)"),
            den_factors=parse_den_factors("k"),
            k_start=1,
        )
        h = HarmonicCache()
        assert term_exact(sd, 1, h) == Fraction(3, 4)  # (1 + 1/2) * (1/2) / 1

    def test_conjugate(self):
        sd = SeriesDef(
            base_root=parse_quad("12 + 4*sqrt(5)"),
            base_exp=-4,
            kernel=KERNELS["central^3"],
            kernel_pos=Position.DENOMINATOR,
            weight=parse_weight("(20*k + 3 + sqrt(5))"),
            den_factors=(),
            k_start=1,
        )
        c = sd.conjugate()
        assert c.base_root == QuadElem(12, -4, 5)
        assert weight_value(c, 0) == QuadElem(3, -1, 5)
        assert c.conjugate() == sd

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ValueError):
            SeriesDef(
                base_root=parse_quad("sqrt(2)"),
                weight=parse_weight("k + sqrt(3)"),
                den_factors=parse_den_factors("k"),
                k_start=1,
            )

    def test_negative_harmonic_index_rejected(self):
        # H(k - 1) has index -1 at k = 0: refused when the series is built, not mid-sum
        half, weight = parse_quad("1/2"), parse_weight("H(k - 1,1)")
        with pytest.raises(ValueError, match=r"harmonic index -1 < 0 at k=0"):
            SeriesDef(base_root=half, weight=weight, k_start=0)
        assert SeriesDef(base_root=half, weight=weight, k_start=1).k_start == 1

    def test_negative_k_start_rejected(self):
        # base^k_start cannot be stepped to a negative k: the sum from k = -1
        # of 2^-k is 4, and summing from 0 would give 2
        half, one = parse_quad("1/2"), parse_weight("1")
        with pytest.raises(ValueError, match="k_start must be >= 0, got -1"):
            SeriesDef(base_root=half, weight=one, k_start=-1)

    def test_field_d(self):
        assert _simple_series().field_d == 1
        sd = _simple_series(base_root=parse_quad("(3 + sqrt(5))/64"))
        assert sd.field_d == 5


def test_integer_exponents():
    assert [ast_as_int(parse_expr(x)) for x in ("2^3", "(-1)^-3", "1^-2", "(2^3)^2")] == [8, -1, 1, 64]
    for bad in ("2^-1", "0^-1", "(-2)^(0-1)"):
        with pytest.raises(ExprError, match="non-integer exponent"):
            ast_as_int(parse_expr(bad))


def test_parse_ratfun_certificate_fields():
    # a certificate's rational function of t is a (num, den) pair of coefficient lists
    cert = parse_derivative(
        f_rational="(2*t^5 + 10*t)/(3*(1 + t^2))", arctan_coeff="0", target="8 - (1 - t^2)^3"
    )
    (n, d), (p, q) = cert.f_rational, cert.target
    assert (n, d) == ((0, 10, 0, 0, 0, 2), (3, 0, 3))
    assert Fraction(horner(n, 1), horner(d, 1)) == Fraction(12, 6)
    assert (p, q) == ((7, 0, 3, 0, -3, 0, 1), (1,))
    assert Fraction(horner(p, 0), horner(q, 0)) == 7


# ----------------------------------------------------------------------
# the loaded integer lists against independent exact evaluations of the text


K = sp.Symbol("k")


def _sympy_weight(text: str) -> dict:
    """The weight's text read by sympy, ``{atom: coefficient}`` with None the unit atom."""
    h = sp.Function("H")
    expr = sp.parse_expr(text.replace("^", "**"), local_dict={"k": K, "H": h, "sqrt": sp.sqrt})
    atoms = {}
    for app in expr.atoms(sp.core.function.AppliedUndef):
        index, order = app.args
        offset, stride = (sp.Poly(index, K).all_coeffs()[::-1] + [0])[:2]
        atoms[HarmonicAtom(int(stride), int(offset), int(order))] = app
    symbols = {atom: sp.Dummy() for atom in atoms}
    flat = expr.xreplace({app: symbols[atom] for atom, app in atoms.items()})
    out = {atom: sp.diff(flat, x) for atom, x in symbols.items()}
    out[None] = flat.subs({x: 0 for x in symbols.values()})
    return {atom: c for atom, c in out.items() if not _is_zero(c)}


def _is_zero(expr) -> bool:
    return sp.expand(sp.numer(sp.together(expr))) == 0


def _sympy_part(a, b, e, d):
    """(a + b*sqrt(d)) / e for integer lists, constant first."""

    def poly(c):
        return sum(x * K**i for i, x in enumerate(c))

    return (poly(a) + poly(b) * sp.sqrt(d)) / poly(e)


def _assert_cleared(w, text):
    ref = _sympy_weight(text)
    assert {atom for *_, atom in w.parts} == set(ref)
    for a, b, e, atom in w.parts:
        assert _is_zero(ref[atom] - _sympy_part(a, b, e, w.d)), (text, atom)
        if len(e) == 1:  # a polynomial coefficient over the least positive integer
            assert e[0] > 0 and math.gcd(*a, *b, *e) == 1, (text, atom)


def _exact(node, k: int, harm: HarmonicCache):
    """W(k) at one integer k from the weight's AST, in Fraction/QuadElem arithmetic,
    each H(n, m) the exact prefix sum of :class:`HarmonicCache`."""
    kind = node[0]
    if kind == "num":
        return Fraction(node[1])
    if kind == "name":
        assert node[1] == "k"
        return Fraction(k)
    if kind == "neg":
        return -_exact(node[1], k, harm)
    if kind == "pow":
        return _exact(node[1], k, harm) ** ast_as_int(node[2])
    if kind == "call":
        x = _exact(node[2][0], k, harm)
        if node[1] == "sqrt":
            return sqrt_surd(x)
        assert x.denominator == 1
        return harm.value(ast_as_int(node[2][1]), int(x))
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    out = _exact(node[1], k, harm)
    for op, y in node[2]:  # a sum or a product, left to right
        out = ops[op](out, _exact(y, k, harm))
    return out


def _shipped_series_records():
    root = Path(__file__).resolve().parent.parent
    for path in (root / "src/bseries/data/catalog.txt", root / "perfbench/catalog.txt"):
        yield from (r for r in load_catalog(path) if r.kind == "series_identity")


def test_loaded_lists_are_the_ratfun_weights_cleared():
    # each part of every loaded weight is sympy's coefficient of its atom in the
    # weight's text, cleared to integer lists
    records = list(_shipped_series_records())
    assert len(records) == 189
    for rec in records:
        _assert_cleared(rec.series.weight, rec.fields["weight"])


def test_rendered_weights_parse_back():
    # render_weight is canonical on the lists of every shipped series
    records = list(_shipped_series_records())
    assert len(records) == 189
    for rec in records:
        w = rec.series.weight
        assert parse_weight(render_weight(w)) == w, rec.id


@pytest.mark.parametrize(
    "text",
    [
        "sqrt(1/2)*k + sqrt(9/8) - 1/3",
        "k/sqrt(3) - (1 + sqrt(3))^-2",
        "(k/2)/(k/3 + 1) + (2*k + 13/9)/(2*k + 1)*H(k,1)",
        "(k + 1)/(2*k - sqrt(5)) + H(2*k,1)/(k + sqrt(5)) - sqrt(5/4)*H(3*k - 1,2)",
        "((k + 1)^2 - k^2 - 1)*H(6*k,3) + 1/(k + 1)^-2",
    ],
)
def test_parsed_lists_are_the_ratfun_weight_cleared(text):
    _assert_cleared(parse_weight(text), text)


@pytest.mark.parametrize(
    "term",
    [
        "(14976*k^3 - 23616*k^2 + 9952*k - 1200)/(216*k^3 - 324*k^2 + 114*k - 6)",
        "48*k*(k^4 - 3*k^2 + 10)/(k^6 - 3*k^4 + 3*k^2 + 7)^2 + k*(3*k^4 - 10*k^2 - 25)/(k^6 - 3*k^4 + 3*k^2 + 7)"
        " - (36*k^2 - 12*k + 5)*H(2*k,1)",
    ],
    ids=["one-fraction", "two-fractions-and-an-atom"],
)
def test_flat_sum_of_fractions_keeps_its_denominator(term):
    # copies of a term over a cubic add over that one cubic, not over a product of as
    # many cubics, and the terms of copies of a sum add over their own denominators:
    # 3,000 copies parse at once, to the weight of 3000 times the term
    assert parse_weight(" + ".join([term] * 3000)) == parse_weight(f"3000*({term})")


def test_loaded_lists_give_the_weight_at_integer_points():
    harm = HarmonicCache()
    for rec in _shipped_series_records():
        sdef, ast = rec.series, parse_expr(rec.fields["weight"])
        deg = max(len(a) + len(b) for a, b, _, _ in sdef.weight.parts) + max(
            len(e) for *_, e, _ in sdef.weight.parts
        )
        for k in range(sdef.k_start, sdef.k_start + deg + 2):
            exact = _exact(ast, k, harm)
            assert QuadElem.of(weight_value(sdef, k, harm)) == QuadElem.of(exact), (rec.id, k)


def test_den_factor_with_a_surd_is_refused():
    for text in ("sqrt(2)*k + 1", "(2*k + 1)*(sqrt(3)*k + 1)", "k + sqrt(2)"):
        with pytest.raises(ExprError, match=r"u\*k \+ v with integer u > 0"):
            parse_den_factors(text)
    assert parse_den_factors("sqrt(4)*k + (2*k + 2)/2") == ((3, 1, 1),)
