"""Integer-relation search: soundness, the worked examples, discovery."""

import random
from fractions import Fraction

import pytest

from bseries.catalog import load_catalog, resolve_catalog_path
from bseries.closedform import ClosedForm, parse_closed_form
from bseries.evaluator import evaluate
from bseries.kernels import kernel_by_tag
from bseries.precision import ApproxReal, ceil_units, digits_to_bits
from bseries.relation import (
    discover_rhs,
    pslq,
    required_digits,
    shortfall_warning,
)
from bseries.seriesmodel import (
    Position,
    SeriesDef,
    parse_base,
    parse_den_factors,
    parse_weight,
)


def ball(x: str, digits: int = 45) -> ApproxReal:
    return parse_closed_form(x).eval_ball(digits)


def widened(mid: Fraction, rad: Fraction, p: int = 256) -> ApproxReal:
    """The ball around ``mid``, floored at 2^-p, with a radius of at least ``rad``."""
    units = ceil_units(p, rad.numerator, rad.denominator) + 1
    return ApproxReal(mid.numerator * 2**p // mid.denominator, p, units)


def rand_ball(rng: random.Random, digits: int = 50) -> ApproxReal:
    bits = max(170, digits * 4)
    q = Fraction(rng.getrandbits(bits) | (1 << (bits - 1)) | 1, 1 << bits)
    return widened(q, Fraction(1, 10**digits))


class TestPslqExamples:
    def test_exact_halves(self):
        r = pslq([ApproxReal.from_int(1), ApproxReal.from_fraction(Fraction(1, 2), 53)], 24)
        assert r.coefficients == (1, -2)
        assert r.confidence_digits > 100

    def test_golden_ratio_square(self):
        root5 = ApproxReal.from_ratio(5, 1, digits_to_bits(45)).sqrt()
        phi = (ApproxReal.from_int(1) + root5) / ApproxReal.from_int(2)
        vals = [ApproxReal.from_int(1), phi, phi * phi]
        r = pslq(vals, 24)
        assert r.coefficients == (1, 1, -1)
        assert r.confidence_digits >= 35

    def test_series_value_against_pi_squared(self):
        # sum_{k>=1} (3k-1) 16^k / (k^3 C(2k,k)^3) relates 2:1 to pi^2
        sdef = SeriesDef(
            base_root=parse_base("16")[0],
            base_exp=1,
            kernel=kernel_by_tag("central^3"),
            kernel_pos=Position.DENOMINATOR,
            weight=parse_weight("3*k - 1"),
            den_factors=parse_den_factors("k^3"),
            k_start=1,
        )
        s = evaluate(sdef, 45).ball
        r = pslq([s, ball("pi^2")], 24)
        assert r.coefficients == (2, -1)

    def test_sign_and_gcd_normalization(self):
        r = pslq([ApproxReal.from_fraction(Fraction(1, 2), 53), ApproxReal.from_int(1)], 24)
        assert r.coefficients == (2, -1)
        r = pslq([ApproxReal.from_int(6), ApproxReal.from_int(4)], 24)
        assert r.coefficients == (2, -3)

    def test_relation_invariant(self):
        vals = [ball("pi"), ball("3*pi"), ball("sqrt(2)")]
        r = pslq(vals, 24)
        assert r.coefficients == (3, -1, 0)
        scale = max(v.upper_abs() for v in vals)
        assert r.residual.upper_abs() <= Fraction(1, 10**r.confidence_digits) * scale


class TestPslqSoundness:
    def test_no_false_positives_on_random(self):
        rng = random.Random(20260815)
        for trial in range(100):
            n = 2 + trial % 3
            vals = [rand_ball(rng) for _ in range(n)]
            r = pslq(vals, 24)
            assert r.coefficients is None, (trial, r.coefficients, r.note)

    def test_near_relation_rejected(self):
        # off by 1e-12: ball residual excludes zero at 40 certified digits
        v = widened(Fraction(1, 2) + Fraction(1, 10**12), Fraction(1, 10**40))
        r = pslq([ApproxReal.from_int(1), v], 24)
        assert r.coefficients is None

    def test_coefficient_bound_respected(self):
        v = ApproxReal.from_fraction(Fraction(2 * 10**8 + 1, 2 * 10**8), 53)
        r = pslq([ApproxReal.from_int(1), v], 24)
        assert r.coefficients is None

    def test_zero_input_detected(self):
        z = widened(Fraction(0), Fraction(1, 10**30))
        r = pslq([ball("pi"), z], 24)
        assert r.coefficients == (0, 1)
        r = pslq([ApproxReal.exact_zero(), ApproxReal.exact_zero()], 24)
        assert r.coefficients == (1, 0)

    def test_wide_zero_straddler_rejected(self):
        z = widened(Fraction(0), Fraction(1, 2))
        r = pslq([ball("pi"), z], 24)
        assert r.coefficients is None
        assert "straddles" in r.note

    def test_relation_across_thirty_orders_of_magnitude(self):
        p = digits_to_bits(45)
        vals = [
            ApproxReal.from_fraction(Fraction(1, 7), p),
            ApproxReal.from_fraction(Fraction(10**30, 7), p),
            ApproxReal.from_int(1),
        ]
        r = pslq(vals, 24)
        assert r.coefficients == (7, 0, -1)

    def test_input_below_working_precision_gives_no_relation(self):
        vals = [
            ApproxReal.from_fraction(10**100 + Fraction(1, 3), 53),
            ApproxReal.from_fraction(Fraction(1, 7), 53),
        ]
        r = pslq(vals, 24)
        assert r.coefficients is None

    def test_input_below_pslq_tolerance_is_named(self):
        # exact inputs: the search runs at the 400-digit cap, and 2^-2000
        # (about 1e-602) is below the tol/100 at which mpmath.pslq stops
        vals = [ApproxReal(1, 2000, 0), ApproxReal.from_int(1)]
        r = pslq(vals, 24)
        assert r.coefficients is None
        assert "input 0 is below 1e-396 of the largest at 400 digits" in r.note

    def test_tiny_input_beside_the_largest_keeps_its_digits(self):
        # 16-digit balls: scaled by the largest, 1/7 is 1e-30, but it and
        # the other inputs are known to 45 digits there, so pslq searches
        vals = [
            ApproxReal.from_fraction(Fraction(1, 7), 53),
            ApproxReal.from_fraction(Fraction(10**30, 7), 53),
            ApproxReal.from_int(1),
        ]
        r = pslq(vals, 24)
        assert r.coefficients == (7, 0, -1)
        assert r.confidence_digits >= 40

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pslq([ApproxReal.from_int(1)], 24)
        with pytest.raises(ValueError):
            pslq([ApproxReal.from_int(1), ApproxReal.from_int(2)], 0)

    def test_residual_never_exceeds_radii(self):
        # fuzz: every accepted relation's residual ball must contain zero
        rng = random.Random(99)
        for _ in range(25):
            a = rng.randint(1, 50)
            b = rng.randint(-50, 50) or 1
            c = rng.randint(1, 9)
            x = ball("pi", 45)
            y = (ApproxReal.from_int(a) * x + ApproxReal.from_int(b)) / ApproxReal.from_int(c)
            r = pslq([ApproxReal.from_int(1), x, y], 24)
            assert r.found, (a, b, c)
            assert not r.residual.excludes_zero()
            got = r.coefficients
            want = (b, a, -c)
            g = __import__("math").gcd(__import__("math").gcd(abs(b), a), c)
            want = tuple(v // g for v in want)
            if want[0] < 0 or (want[0] == 0 and want[1] < 0):
                want = tuple(-v for v in want)
            assert got == want, (a, b, c, got)


class TestPrecisionRule:
    def test_required_digits(self):
        assert required_digits(2, 24) == 29
        assert required_digits(3, 24) == 44

    def test_shortfall_warning(self):
        thin = [rand_ball(random.Random(1), digits=20) for _ in range(3)]
        msg = shortfall_warning(thin, 24)
        assert msg is not None and "below the ~44" in msg
        thick = [rand_ball(random.Random(2), digits=80) for _ in range(3)]
        assert shortfall_warning(thick, 24) is None

    def test_thin_inputs_fail_safe(self):
        rng = random.Random(5)
        for _ in range(10):
            vals = [rand_ball(rng, digits=18) for _ in range(3)]
            r = pslq(vals, 24)
            assert r.coefficients is None


class TestDiscoverRhs:
    def test_three_halves_pi(self):
        got = discover_rhs(ball("3/2*pi"), [parse_closed_form("pi")], 24)
        assert got == parse_closed_form("3/2*pi")

    def test_lvalue_combination(self):
        target = ball("3520/3*sqrt(33)*L(-11) - 8640*L(-3)", digits=60)
        basis = [parse_closed_form("sqrt(33)*L(-11)"), parse_closed_form("L(-3)")]
        got = discover_rhs(target, basis, 24)
        assert got == parse_closed_form("3520/3*sqrt(33)*L(-11) - 8640*L(-3)")

    def test_random_value_finds_nothing(self):
        rng = random.Random(11)
        basis = [
            parse_closed_form("pi"),
            parse_closed_form("pi^2"),
            parse_closed_form("L(-4)"),
            parse_closed_form("log(2)"),
        ]
        assert discover_rhs(rand_ball(rng, digits=60), basis, 24) is None

    def test_basis_internal_relation_raises(self):
        # relation hits the basis alone (c0 = 0): no reconstruction claimed
        rng = random.Random(13)
        basis = [parse_closed_form("pi"), parse_closed_form("2*pi")]
        with pytest.raises(ValueError, match=r"basis is dependent: 2\*\(pi\) - 1\*\(2\*pi\) = 0"):
            discover_rhs(rand_ball(rng, digits=60), basis, 24)

    def test_dependent_basis_hiding_the_rhs_raises(self):
        # L(-12) = 5/4*K, so the basis is dependent; the value
        # 15/2*sqrt(3)*K - 40/3*G lies in its span, and pslq certifies the
        # basis relation (0, 5, -4, 0) rather than one involving the value
        rec = load_catalog(resolve_catalog_path()).lookup("conj6.1-8g")
        assert rec.rhs == parse_closed_form("15/2*sqrt(3)*K - 40/3*G")
        basis = [parse_closed_form(s) for s in ("sqrt(3)*K", "sqrt(3)*L(-12)", "G")]
        with pytest.raises(ValueError, match=r"5\*\(sqrt\(3\)\*K\) - 4\*\(sqrt\(3\)\*L\(-12\)\) = 0"):
            discover_rhs(evaluate(rec.series, 60).ball, basis, 24)

    def test_empty_basis(self):
        assert discover_rhs(ball("pi"), [], 24) is None

    def test_fifteen_digit_ball_spends_no_more_digits_than_it_has(self):
        # 6272*sqrt(3) to ~15 digits: 184396804/24005*sqrt(2) matches it to
        # 13 digits, but its coefficients spend those same digits
        v = ball("6272*sqrt(3)", 40) + widened(Fraction(0), Fraction(1, 10**11))
        assert v.to_digits() == 15
        for bits in (40, 24):
            assert discover_rhs(v, [parse_closed_form("sqrt(2)")], bits) is None

    @pytest.mark.parametrize("rid", ["conj6.1-m24", "conj6.2-m8", "conj6.1-8g"])
    def test_catalog_rhs_rediscovered(self, rid):
        rec = load_catalog(resolve_catalog_path()).lookup(rid)
        basis = [ClosedForm.term(1, atoms) for _, atoms in rec.rhs.terms]
        assert discover_rhs(evaluate(rec.series, 60).ball, basis, 24) == rec.rhs

    def test_unused_basis_elements_dropped(self):
        got = discover_rhs(
            ball("5/8*pi^2", digits=50),
            [parse_closed_form("pi"), parse_closed_form("pi^2"), parse_closed_form("log(2)")],
            24,
        )
        assert got == parse_closed_form("5/8*pi^2")
