"""Telescoping / derivative / factorial certificates: exact symbolic checks."""

import random
from fractions import Fraction

import pytest

from bseries.closedform import ClosedForm, parse_closed_form
from bseries.evaluator import Status, verify_identity
from bseries.exactnum import horner
from bseries.exprparse import ExprError
from bseries.seriesmodel import den_value, parse_weight
from bseries.telescope import (
    CertReport,
    TelescopingCert,
    check_beta_binomial,
    check_derivative,
    check_telescoping,
    parse_derivative,
    parse_telescoping,
)

from oracles import boundary_value, closed_sum, partial_sum, term_exact

# The four shipped partial-sum certificates.  The first two keep the base x
# symbolic; the last two specialize x = 1/4096 with the kernel on top.
CERT_FIELDS = {
    "sixk-general": dict(
        kernel="binom(6k,3k)",
        position="denominator",
        base="x",
        weight="9*(x - 64)*k^3 + 18*(x - 16)*k^2 + (11*x + 208)*k + 2*x + 40",
        den="(6*k + 1)*(6*k + 5)",
        closed_form=(
            "8 + (n + 1)*(3*n + 1)*(3*n + 2)*x^(n + 1)"
            "/((6*n + 1)*(6*n + 5)*binom(6*n,3*n))"
        ),
    ),
    "sixk-odd-general": dict(
        kernel="binom(6k,3k)",
        position="denominator",
        base="x",
        weight="9*(x - 64)*k^3 + 18*(x - 48)*k^2 + (11*x - 368)*k + 2*x - 40",
        den="(2*k + 1)*(6*k + 1)*(6*k + 5)",
        closed_form=(
            "-8 + (n + 1)*(3*n + 1)*(3*n + 2)*x^(n + 1)"
            "/((2*n + 1)*(6*n + 1)*(6*n + 5)*binom(6*n,3*n))"
        ),
    ),
    "sixk-4096-triple": dict(
        kernel="binom(6k,3k)",
        position="numerator",
        base="1/4096",
        weight="4536*k^3 - 4500*k^2 + 978*k + 5",
        den="(2*k - 1)*(6*k - 1)*(6*k - 5)",
        closed_form="-binom(6*n,3*n)*x^n",
    ),
    "sixk-4096-single": dict(
        kernel="binom(6k,3k)",
        position="numerator",
        base="1/4096",
        weight="4536*k^3 - 4644*k^2 + 1074*k + 25",
        den="6*k - 5",
        closed_form="-(2*n + 1)*(6*n + 5)*binom(6*n,3*n)*x^n",
    ),
}

# (const, bound_num, bound_den, bound_xoff, weight) each of them parses to
PARSED = {
    "sixk-general": (8, (2, 11, 18, 9), (5, 36, 36), 1, ((40, 208, -288, -576), (2, 11, 18, 9))),
    "sixk-odd-general": (
        -8, (2, 11, 18, 9), (5, 46, 108, 72), 1, ((-40, -368, -864, -576), (2, 11, 18, 9)),
    ),
    "sixk-4096-triple": (0, (-1,), (1,), 0, ((5, 978, -4500, 4536),)),
    "sixk-4096-single": (0, (-5, -16, -12), (1,), 0, ((25, 1074, -4644, 4536),)),
}

# (name, x to specialize or None, value of the infinite sum)
LIMITS = [
    ("sixk-general", Fraction(8), Fraction(8)),
    ("sixk-odd-general", Fraction(8), Fraction(-8)),
    ("sixk-4096-triple", None, Fraction(0)),
    ("sixk-4096-single", None, Fraction(0)),
]


def make_cert(name):
    return parse_telescoping(**CERT_FIELDS[name])


def concrete(name, x):
    cert = make_cert(name)
    return cert.specialize(x) if cert.symbolic else cert


class TestShippedCertificates:
    @pytest.mark.parametrize("name", sorted(CERT_FIELDS))
    def test_passes_symbolically(self, name):
        rep = check_telescoping(make_cert(name))
        assert rep.passed, rep
        assert rep.witness == ""

    def test_base_case_expansion(self):
        # t(0) = (2x + 40)/5 = 8 + 2x/5 = R(0) for the general certificate
        cert = make_cert("sixk-general")
        assert cert.const == 8
        assert cert.bound_xoff == 1
        # W(x, 0) = 40 + 2x: the constant coefficient in k of each power of x
        assert [w[0] for w in cert.weight] == [40, 2]
        assert den_value(cert.den_factors, 0) == 5
        assert horner(cert.bound_num, 0) == 2
        assert horner(cert.bound_den, 0) == 5
        third = cert.specialize(Fraction(1, 3))
        assert partial_sum(third, 0) == Fraction(2, 5) * Fraction(1, 3) + 8
        assert partial_sum(third, 0) == closed_sum(third, 0)

    def test_4096_triple_spot_check(self):
        cert = make_cert("sixk-4096-triple")
        sdef = cert.to_series()
        assert term_exact(sdef, 0) == -1
        assert term_exact(sdef, 1) == Fraction(1019, 1024)
        assert partial_sum(cert, 1) == Fraction(-5, 1024) == Fraction(-20, 4096)
        assert closed_sum(cert, 1) == Fraction(-5, 1024)

    def test_4096_single_base_case(self):
        cert = make_cert("sixk-4096-single")
        assert partial_sum(cert, 0) == -5 == closed_sum(cert, 0)

    def test_single_known_perturbation_fails(self):
        fields = dict(CERT_FIELDS["sixk-4096-triple"])
        fields["weight"] = "4536*k^3 - 4500*k^2 + 979*k + 5"
        rep = check_telescoping(parse_telescoping(**fields))
        assert not rep.passed
        assert rep.witness != ""

    @pytest.mark.parametrize("name,x,_", LIMITS)
    def test_partial_sums_match_series_model(self, name, x, _):
        cert = concrete(name, x)
        sdef = cert.to_series()
        running = Fraction(0)
        for n in range(0, 41):
            running += term_exact(sdef, n).as_fraction()
            assert partial_sum(cert, n) == running == closed_sum(cert, n)

    @pytest.mark.parametrize("name", sorted(CERT_FIELDS))
    def test_series_weight_is_the_weight_text_at_the_base(self, name):
        # the lists to_series builds its Weight from clear as the text does
        text = CERT_FIELDS[name]["weight"].replace("x", "(8)")
        assert concrete(name, 8).to_series().weight == parse_weight(text)

    @pytest.mark.parametrize("name,x,total", LIMITS)
    def test_limit_consistency(self, name, x, total):
        # the boundary term dies geometrically, so the series sums to const
        cert = concrete(name, x)
        assert cert.const == total
        assert abs(boundary_value(cert, 40)) < Fraction(1, 10) ** 20
        rep = verify_identity(cert.to_series(), ClosedForm.const(total), digits=30)
        assert rep.status is Status.PASS, rep.note
        assert rep.tail_mode == "certified"


class TestPerturbationFuzz:
    def _perturb(self, cert, rng):
        def changed(**fields):  # the certificate built again through its constructor
            names = TelescopingCert.__slots__
            return TelescopingCert(**{f: fields.get(f, getattr(cert, f)) for f in names})

        delta = rng.choice([-3, -2, -1, 1, 2, 3])
        which = rng.randrange(3)
        if which == 0:  # the coefficient of x^j k^i in the weight, j = 0 at a concrete base
            i = rng.randrange(max(map(len, cert.weight)))
            j = rng.randrange(2) if cert.symbolic else 0
            weight = [list(w) for w in cert.weight] + [[] for _ in range(j + 1 - len(cert.weight))]
            weight[j] += [0] * (i + 1 - len(weight[j]))
            weight[j][i] += delta
            return changed(weight=tuple(map(tuple, weight)))
        if which == 1:  # one coefficient of the boundary numerator
            i = rng.randrange(len(cert.bound_num))
            coeffs = list(cert.bound_num)
            if len(coeffs) == 1 and coeffs[i] + delta == 0:
                delta *= 2
            coeffs[i] += delta
            return changed(bound_num=tuple(coeffs))
        return changed(const=cert.const + delta)

    def test_hundred_random_perturbations_fail(self):
        rng = random.Random(20260815)
        certs = [make_cert(n) for n in sorted(CERT_FIELDS)]
        failures = 0
        for _ in range(100):
            bad = self._perturb(rng.choice(certs), rng)
            rep = check_telescoping(bad)
            assert not rep.passed
            assert rep.witness != ""
            failures += 1
        assert failures == 100


class TestSymbolicBase:
    @pytest.mark.parametrize("roots", [(1,), (1, 2, 3)])
    def test_residual_vanishing_at_every_sample_base_but_one_fails(self, roots):
        # sixk-general plus prod(x - r)*k: deg_x W = len(roots) = D, so the formal
        # base is checked at x = 1, ..., D + 1, and both residuals vanish at the D
        # roots and nowhere else among them
        fields = dict(CERT_FIELDS["sixk-general"])
        fields["weight"] += " + " + "*".join(f"(x - {r})" for r in roots) + "*k"
        cert = parse_telescoping(**fields)
        assert len(cert.weight) - 1 == len(roots)
        for r in roots:
            assert check_telescoping(cert.specialize(r)).passed
        rep = check_telescoping(cert)
        assert not rep.passed
        assert rep.detail.endswith(f"at x = {len(roots) + 1}") and rep.witness != ""

    def test_weight_of_degree_two_in_x_fails_with_a_witness(self):
        fields = dict(CERT_FIELDS["sixk-general"], weight="x^2*k + 1")
        rep = check_telescoping(parse_telescoping(**fields))
        assert not rep.passed
        assert rep.witness != ""

    def test_surd_weight_at_a_concrete_base_fails(self):
        fields = dict(CERT_FIELDS["sixk-4096-single"], weight="sqrt(2)*k")
        rep = check_telescoping(parse_telescoping(**fields))
        assert not rep.passed
        assert rep.witness != ""


class TestDerivativeCertificate:
    FIELDS = dict(
        f_rational=(
            "48*t*(t^4 - 3*t^2 + 10)/(t^6 - 3*t^4 + 3*t^2 + 7)^2"
            " + t*(3*t^4 - 10*t^2 - 25)/(t^6 - 3*t^4 + 3*t^2 + 7)"
        ),
        arctan_coeff="3",
        target="4*(47*(1 - t^2)^6 + 616*(1 - t^2)^3 + 128)/(t^6 - 3*t^4 + 3*t^2 + 7)^3",
        endpoint="2 + 3/4*pi",
    )

    def test_passes(self):
        rep = check_derivative(parse_derivative(**self.FIELDS))
        assert rep.passed, rep

    def test_endpoint_values(self):
        cert = parse_derivative(**self.FIELDS)
        num, den = cert.f_rational
        assert horner(num, 0) == 0 and horner(den, 0) != 0
        assert Fraction(horner(num, 1), horner(den, 1)) == 2
        # 2 f(1) = 4 + 3 pi / 2
        doubled = ClosedForm.const(2) * cert.endpoint
        assert doubled == parse_closed_form("4 + 3/2*pi")
        ball = doubled.eval_ball(30)
        from mpmath import make_mpf, mp, mpf
        from mpmath.libmp import from_man_exp

        with mp.workprec(140):
            want = mpf(4) + 3 * mp.pi / 2
            assert abs(make_mpf(from_man_exp(ball.s, -ball.p)) - want) <= mpf(10) ** -30

    def test_wrong_arctan_coeff_fails(self):
        fields = dict(self.FIELDS, arctan_coeff="5/2")
        assert not check_derivative(parse_derivative(**fields)).passed

    def test_perturbed_target_fails(self):
        fields = dict(
            self.FIELDS,
            target="4*(47*(1 - t^2)^6 + 617*(1 - t^2)^3 + 128)/(t^6 - 3*t^4 + 3*t^2 + 7)^3",
        )
        rep = check_derivative(parse_derivative(**fields))
        assert not rep.passed
        assert rep.witness != ""

    def test_wrong_endpoint_fails(self):
        fields = dict(self.FIELDS, endpoint="2 + 5/4*pi")
        assert not check_derivative(parse_derivative(**fields)).passed

    def test_pole_at_zero_fails(self):
        cert = parse_derivative(f_rational="1/t", arctan_coeff="3", target="-1/t^2 + 3/(1 + t^2)")
        rep = check_derivative(cert)
        assert not rep.passed
        assert rep.witness == "pole at t = 0"

    def test_pole_at_one_fails_when_the_endpoint_is_pinned(self):
        fields = dict(f_rational="t/(1 - t)", arctan_coeff="0", target="1/(1 - t)^2")
        assert check_derivative(parse_derivative(**fields)).passed  # f(1) is not read
        rep = check_derivative(parse_derivative(**fields, endpoint="1"))
        assert not rep.passed
        assert rep.witness == "pole at t = 1"

    def test_surd_coefficients_pass(self):
        cert = parse_derivative(f_rational="sqrt(2)*t", arctan_coeff="0", target="sqrt(2)")
        assert check_derivative(cert).passed

    def test_surd_endpoint_is_compared_in_the_field(self):
        fields = dict(f_rational="sqrt(2)*t", arctan_coeff="0", target="sqrt(2)")
        assert check_derivative(parse_derivative(**fields, endpoint="sqrt(2)")).passed
        rep = check_derivative(parse_derivative(**fields, endpoint="sqrt(3)"))
        assert not rep.passed and rep.witness == "ClosedForm('sqrt(2)')"
        fields = dict(
            f_rational="(1 + sqrt(2))*t",
            arctan_coeff="1",
            target="1 + sqrt(2) + 1/(1 + t^2)",
            endpoint="1 + sqrt(2) + 1/4*pi",
        )
        assert check_derivative(parse_derivative(**fields)).passed

    @pytest.mark.parametrize(
        "f_rational", ["t^2/t", "t*(t - 1)/(t - 1)", "t^2*(t - 1)^2/(t*(t - 1)^2)"]
    )
    def test_removable_singularity_is_no_pole(self, f_rational):
        # each f is t, with a common factor t or t - 1 over and under
        fields = dict(f_rational=f_rational, arctan_coeff="0", target="1")
        assert check_derivative(parse_derivative(**fields)).passed
        assert check_derivative(parse_derivative(**fields, endpoint="1")).passed
        rep = check_derivative(parse_derivative(**fields, endpoint="2"))
        assert not rep.passed and rep.detail == "f(1) does not match the pinned endpoint"

    def test_cancelled_factor_leaves_the_constant(self):
        # t*(t - 1)/(t*(t - 1)) = 1: nothing is a pole, and f(0) = 1 fails
        cert = parse_derivative(f_rational="t*(t - 1)/(t*(t - 1))", arctan_coeff="0", target="0")
        rep = check_derivative(cert)
        assert not rep.passed and rep.detail == "f(0) != 0"


class TestBetaBinomial:
    def test_range_holds(self):
        rep = check_beta_binomial(25)
        assert rep.passed, rep

    def test_k1_value(self):
        import math

        assert Fraction(math.factorial(3) ** 2, math.factorial(7)) == Fraction(36, 5040)
        assert Fraction(36, 5040) == Fraction(1, 140) == Fraction(1, 7 * 20)

    def test_rejects_nonpositive_kmax(self):
        with pytest.raises(ValueError):
            check_beta_binomial(0)


class TestParsing:
    def test_report_str(self):
        rep = check_telescoping(make_cert("sixk-general"))
        assert str(rep).startswith("PASS")
        assert isinstance(rep, CertReport)

    @pytest.mark.parametrize("name,parts", sorted(PARSED.items()))
    def test_shipped_fields_parse_to_pinned_lists(self, name, parts):
        cert = make_cert(name)
        got = (cert.const, cert.bound_num, cert.bound_den, cert.bound_xoff, cert.weight)
        assert got == parts

    def test_rejects_two_boundary_terms(self):
        fields = dict(
            CERT_FIELDS["sixk-4096-triple"],
            closed_form="-binom(6*n,3*n)*x^n + binom(6*n,3*n)*x^(n + 1)",
        )
        with pytest.raises(ExprError):
            parse_telescoping(**fields)

    def test_like_boundary_terms_merge(self):
        # both terms carry binom(6n,3n)*x^n, so the text denotes one boundary term,
        # -6n/(6n + 1) of it, and the induction check refutes it
        base = CERT_FIELDS["sixk-4096-triple"]
        two = dict(base, closed_form="-binom(6*n,3*n)*x^n + binom(6*n,3*n)*x^n/(6*n + 1)")
        one = dict(base, closed_form="-6*n*binom(6*n,3*n)*x^n/(6*n + 1)")
        cert = parse_telescoping(**two)
        assert cert == parse_telescoping(**one)
        rep = check_telescoping(cert)
        assert not rep.passed
        assert rep.witness != ""

    def test_kernel_power_is_its_repeated_factors(self):
        # binom(2n,n)^3 is central^3's three factors, all under the fraction bar
        fields = dict(
            kernel="central^3",
            position="denominator",
            base="1/64",
            weight="k",
            den="1",
            closed_form="1 + x^n/binom(2*n,n)^3",
        )
        cert = parse_telescoping(**fields)
        three = "1 + x^n/(binom(2*n,n)*binom(2*n,n)*binom(2*n,n))"
        assert cert == parse_telescoping(**dict(fields, closed_form=three))
        assert (cert.const, cert.bound_num, cert.bound_den, cert.bound_xoff) == (1, (1,), (1,), 0)

    def test_negative_kernel_power_is_its_inverse(self):
        # binom(2n,n)^(-3) is the reciprocal atom cubed, the same as dividing by binom(2n,n)^3
        fields = dict(
            kernel="central^3",
            position="denominator",
            base="1/64",
            weight="k",
            den="1",
            closed_form="1 + x^n/binom(2*n,n)^3",
        )
        cert = parse_telescoping(**dict(fields, closed_form="1 + x^n*binom(2*n,n)^(-3)"))
        assert cert == parse_telescoping(**fields)
        x_inverse = "1 + binom(2*n,n)^(-3)/(x^(-n))"
        assert parse_telescoping(**dict(fields, closed_form=x_inverse)) == cert

    @pytest.mark.parametrize("closed_form", ["1 + x", "1 + binom(6*n,3*n)/x^n", "3"])
    def test_rejects_boundary_without_x_to_the_n(self, closed_form):
        fields = dict(CERT_FIELDS["sixk-4096-triple"], closed_form=closed_form)
        with pytest.raises(ExprError):
            parse_telescoping(**fields)

    def test_rejects_x_in_a_concrete_base_weight(self):
        fields = dict(CERT_FIELDS["sixk-4096-single"], weight="x*k + 1")
        with pytest.raises(ValueError):
            parse_telescoping(**fields)

    def test_rejects_missing_x_power(self):
        fields = dict(CERT_FIELDS["sixk-4096-triple"], closed_form="-binom(6*n,3*n)")
        with pytest.raises(ExprError):
            parse_telescoping(**fields)

    def test_rejects_kernel_mismatch(self):
        fields = dict(
            CERT_FIELDS["sixk-4096-triple"], closed_form="-binom(4*n,2*n)*x^n"
        )
        with pytest.raises(ExprError):
            parse_telescoping(**fields)

    def test_rejects_kernel_on_wrong_side(self):
        fields = dict(
            CERT_FIELDS["sixk-general"],
            closed_form="8 + (n + 1)*x^(n + 1)*binom(6*n,3*n)/((6*n + 1)*(6*n + 5))",
        )
        with pytest.raises(ExprError):
            parse_telescoping(**fields)

    def test_rejects_bad_x_exponent(self):
        fields = dict(CERT_FIELDS["sixk-4096-triple"], closed_form="-binom(6*n,3*n)*x^(2*n)")
        with pytest.raises(ExprError):
            parse_telescoping(**fields)

    def test_rejects_vanishing_denominator(self):
        fields = dict(CERT_FIELDS["sixk-4096-triple"], den="(6*k - 6)*(2*k - 1)")
        with pytest.raises(ValueError):
            parse_telescoping(**fields)

    def test_specialize_guards(self):
        sym = make_cert("sixk-general")
        with pytest.raises(ValueError):
            partial_sum(sym, 3)
        conc = sym.specialize(8)
        with pytest.raises(ValueError):
            conc.specialize(8)
