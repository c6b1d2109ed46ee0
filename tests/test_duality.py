"""Galois conjugation, convergence classification, and the dual construction."""

from fractions import Fraction

import pytest

from bseries.catalog import load_catalog, resolve_catalog_path
from bseries.closedform import ClosedForm, parse_closed_form
from bseries.duality import (
    DualBranch,
    RamanujanDatum,
    ZeilbergerDatum,
    classify_dual,
    dualize,
)
from bseries.evaluator import Status, verify_identity
from bseries.exactnum import QuadElem
from bseries.kernels import kernel_by_tag
from bseries.seriesmodel import (
    Position,
    SeriesDef,
    parse_quad,
    parse_weight,
)

from oracles import HarmonicCache, term_exact


def mk(base, kernel, pos, weight, den="1", kstart=0, base_exp=None):
    from bseries.seriesmodel import parse_base, parse_den_factors

    root, exp = parse_base(base)
    return SeriesDef(
        base_root=root,
        base_exp=exp if base_exp is None else base_exp,
        kernel=None if kernel is None else kernel_by_tag(kernel),
        kernel_pos=Position.NUMERATOR if pos == "num" else Position.DENOMINATOR,
        weight=parse_weight(weight),
        den_factors=parse_den_factors(den),
        k_start=kstart,
    )


# sum (6k(7*sqrt5+5) + 5*sqrt5 - 1) C(2k,k)^3 / (12+4*sqrt5)^(4k) = 32/pi
R1 = mk(
    "(12 + 4*sqrt(5))^-4",
    "central^3",
    "num",
    "6*(7*sqrt(5) + 5)*k + 5*sqrt(5) - 1",
)
R1_DATUM = RamanujanDatum(series=R1, rhs_r=Fraction(32), rhs_n=QuadElem(1))

# sum C(2k,k)^2 C(3k,k) (9k(51-11*sqrt6) + 2(54-19*sqrt6)) / (27(37102+15147*sqrt6))^k
#   = 375/(8 pi)
S375 = mk(
    "(1001754 + 408969*sqrt(6))^-1",
    "central^2*binom(3k,k)",
    "num",
    "9*(51 - 11*sqrt(6))*k + 2*(54 - 19*sqrt(6))",
)
S375_DATUM = RamanujanDatum(series=S375, rhs_r=Fraction(375, 8), rhs_n=QuadElem(1))

# sum_{k>=1} (3(16*sqrt5+35)k - 4(5*sqrt5+11)) ((1-sqrt5)/2)^(8k) / (k^3 C(2k,k)^3)
#   = pi^2/30
GR5 = mk(
    "((1 - sqrt(5))/2)^8",
    "central^3",
    "den",
    "3*(16*sqrt(5) + 35)*k - 4*(5*sqrt(5) + 11)",
    den="k^3",
    kstart=1,
)


class TestConjugateSeries:
    def test_r1_conjugate_structure(self):
        dual = R1.conjugate()
        assert dual.base_root == parse_quad("12 - 4*sqrt(5)")
        assert dual.base_exp == -4
        assert dual.weight == parse_weight("6*(5 - 7*sqrt(5))*k - 5*sqrt(5) - 1")

    def test_rational_series_fixed(self):
        s = mk("1/2", "central^3", "den", "k + 1")
        assert s.conjugate() == s

    @pytest.mark.parametrize("sdef", [R1, S375, GR5], ids=["r1", "s375", "gr5"])
    def test_involution(self, sdef):
        assert sdef.conjugate().conjugate() == sdef

    @pytest.mark.parametrize("sdef", [R1, S375, GR5], ids=["r1", "s375", "gr5"])
    def test_termwise_exact(self, sdef):
        dual = sdef.conjugate()
        for k in range(sdef.k_start, 101):
            assert term_exact(sdef, k).conjugate() == term_exact(dual, k)

    def test_termwise_exact_harmonic_weight(self):
        s = mk(
            "(12 + 4*sqrt(5))^-4",
            "central^3",
            "num",
            "(6*(5 + 7*sqrt(5))*k + 5*sqrt(5) - 1)*(35*H(k,2) - 136*H(2*k,2))"
            " + (60*(7 - 3*sqrt(5)))/(2*k + 1)",
        )
        dual = s.conjugate()
        harm = HarmonicCache()
        for k in range(0, 60):
            assert term_exact(s, k, harm).conjugate() == term_exact(dual, k, harm)


class TestClassify:
    def test_r1_conjugate_ramanujan(self):
        cls = classify_dual(R1_DATUM)
        assert cls.branch is DualBranch.CONJUGATE_RAMANUJAN
        # exact statement behind it: (12-4*sqrt5)^4 > 64
        sm = R1_DATUM.m.conjugate()
        assert sm == parse_quad("(12 - 4*sqrt(5))^4") == parse_quad("96256 - 43008*sqrt(5)")
        assert (sm * sm - QuadElem(Fraction(64 * 64))).sign() > 0

    def test_375_zeilberger_dual(self):
        cls = classify_dual(S375_DATUM)
        assert cls.branch is DualBranch.ZEILBERGER_DUAL
        assert S375_DATUM.growth_c == 108

    def test_exact_tie_undefined(self):
        s = mk("-1/64", "central^3", "num", "k + 1")
        datum = RamanujanDatum(series=s, rhs_r=Fraction(1), rhs_n=QuadElem(1))
        cls = classify_dual(datum)
        assert cls.branch is DualBranch.UNDEFINED
        assert "growth" in cls.reason

    def test_positive_conjugate_base_undefined(self):
        # |sigma(m)| < c with sigma(m) > 0: no branch in sight
        s = mk("(100 + 33*sqrt(6))^-1", "central^3", "num", "k + 1")
        datum = RamanujanDatum(series=s, rhs_r=Fraction(1), rhs_n=QuadElem(1))
        assert datum.m.conjugate().sign() > 0
        assert classify_dual(datum).branch is DualBranch.UNDEFINED

    def test_irrational_n_blocks_zeilberger(self):
        datum = RamanujanDatum(
            series=S375, rhs_r=Fraction(375, 8), rhs_n=parse_quad("3 + sqrt(6)")
        )
        assert classify_dual(datum).branch is DualBranch.UNDEFINED

    def test_scaling_invariance(self):
        for q in (Fraction(2), Fraction(3, 7), Fraction(-5)):
            scaled = mk(
                "(1001754 + 408969*sqrt(6))^-1",
                "central^2*binom(3k,k)",
                "num",
                f"({q})*(9*(51 - 11*sqrt(6))*k + 2*(54 - 19*sqrt(6)))",
            )
            datum = RamanujanDatum(
                series=scaled, rhs_r=Fraction(375, 8) * q, rhs_n=QuadElem(1)
            )
            assert classify_dual(datum).branch is DualBranch.ZEILBERGER_DUAL


class TestDualize:
    def test_375_gives_minus24_series(self):
        dual = dualize(S375_DATUM)
        assert dual.rhs is None
        want = mk(
            "1001754 - 408969*sqrt(6)",
            "central^2*binom(3k,k)",
            "den",
            "9*(51 + 11*sqrt(6))*k - 2*(54 + 19*sqrt(6))",
            den="k^3",
            kstart=1,
        )
        assert dual.series == want
        assert dual.series.base_value == parse_quad("27*(37102 - 15147*sqrt(6))")

    def test_minus24_value_verifies(self):
        # downstream identity for the dual: 5625/2 (sqrt6 L_{-24}(2) - 3 L_{-4}(2))
        dual = dualize(S375_DATUM)
        rhs = parse_closed_form("5625/2*sqrt(6)*L(-24) - 16875/2*L(-4)")
        rep = verify_identity(dual.series, rhs, digits=25)
        assert rep.status is Status.PASS, rep.note

    def test_a_table_row_gives_320_series(self):
        # base m = -32(523 + 91 sqrt33), an alternating source series
        src = mk(
            "(-16736 - 2912*sqrt(33))^-1",
            "central^2*binom(3k,k)",
            "num",
            "(891 - 91*sqrt(33))*k + 225 - 33*sqrt(33)",
        )
        datum = RamanujanDatum(series=src, rhs_r=Fraction(1), rhs_n=QuadElem(1))
        assert classify_dual(datum).branch is DualBranch.ZEILBERGER_DUAL
        dual = dualize(datum)
        assert dual.series.base_value == parse_quad("32*(91*sqrt(33) - 523)")
        assert dual.series.weight == parse_weight(
            "(891 + 91*sqrt(33))*k - 225 - 33*sqrt(33)"
        )

    def test_zero_b_keeps_pure_slope(self):
        s = mk("(1001754 + 408969*sqrt(6))^-1", "central^2*binom(3k,k)", "num", "sqrt(6)*k")
        datum = RamanujanDatum(series=s, rhs_r=Fraction(1), rhs_n=QuadElem(1))
        dual = dualize(datum)
        assert dual.series.weight == parse_weight("-sqrt(6)*k")

    def test_wrong_branch_raises(self):
        with pytest.raises(ValueError):
            dualize(R1_DATUM)

    def test_dual_datum_shape_enforced(self):
        with pytest.raises(ValueError):
            ZeilbergerDatum(series=R1)


class TestVerifiedPairs:
    # The printed companions flip an overall sign relative to the raw
    # sigma image: sigma(a*k + b) = -(a'*k + b') with a', b' as printed.

    def test_r1_and_r2(self):
        rep1 = verify_identity(R1, parse_closed_form("32/pi"), digits=30)
        assert rep1.status is Status.PASS, rep1.note
        r2 = mk(
            "(12 - 4*sqrt(5))^-4",
            "central^3",
            "num",
            "6*(7*sqrt(5) - 5)*k + 5*sqrt(5) + 1",
        )
        rep2 = verify_identity(r2, parse_closed_form("96/pi"), digits=30)
        assert rep2.status is Status.PASS, rep2.note

    def test_conjugate_of_r1_is_negated_r2(self):
        rep = verify_identity(
            R1.conjugate(), parse_closed_form("-96/pi"), digits=30
        )
        assert rep.status is Status.PASS, rep.note

    def test_conjugate_of_7pi_record(self):
        # The fully conjugated companion of catalog record conj5.2-7pi.
        sdef = load_catalog(resolve_catalog_path()).lookup("conj5.2-7pi").series
        datum = RamanujanDatum(series=sdef, rhs_r=Fraction(29241), rhs_n=QuadElem(1))
        assert classify_dual(datum).branch is DualBranch.CONJUGATE_RAMANUJAN
        rep = verify_identity(
            sdef.conjugate(), parse_closed_form("29241/(2*pi)"), digits=30
        )
        assert rep.status is Status.PASS, rep.note
        assert rep.tail_mode == "certified"

    def test_gr5_and_gr_minus5(self):
        rep1 = verify_identity(GR5, parse_closed_form("pi^2/30"), digits=30)
        assert rep1.status is Status.PASS, rep1.note
        grm5 = mk(
            "((1 + sqrt(5))/2)^8",
            "central^3",
            "den",
            "3*(16*sqrt(5) - 35)*k - 4*(5*sqrt(5) - 11)",
            den="k^3",
            kstart=1,
        )
        rep2 = verify_identity(grm5, parse_closed_form("71/30*pi^2"), digits=30)
        assert rep2.status is Status.PASS, rep2.note
        rep3 = verify_identity(
            GR5.conjugate(), parse_closed_form("-71/30*pi^2"), digits=20
        )
        assert rep3.status is Status.PASS, rep3.note


class TestDatumValidation:
    def test_rejects_kernel_in_denominator(self):
        s = mk("1/2", "central^3", "den", "k + 1")
        with pytest.raises(ValueError):
            RamanujanDatum(series=s, rhs_r=Fraction(1), rhs_n=QuadElem(1))

    def test_rejects_quadratic_weight(self):
        s = mk("(12 + 4*sqrt(5))^-4", "central^3", "num", "k^2 + 1")
        with pytest.raises(ValueError):
            RamanujanDatum(series=s, rhs_r=Fraction(1), rhs_n=QuadElem(1))

    def test_rejects_zero_slope(self):
        s = mk("(12 + 4*sqrt(5))^-4", "central^3", "num", "5*sqrt(5) - 1")
        with pytest.raises(ValueError):
            RamanujanDatum(series=s, rhs_r=Fraction(1), rhs_n=QuadElem(1))

    def test_rejects_zero_r_and_nonpositive_n(self):
        with pytest.raises(ValueError):
            RamanujanDatum(series=R1, rhs_r=Fraction(0), rhs_n=QuadElem(1))
        with pytest.raises(ValueError):
            RamanujanDatum(series=R1, rhs_r=Fraction(1), rhs_n=parse_quad("1 - sqrt(5)"))

    def test_datum_accessors(self):
        assert R1_DATUM.a == parse_quad("30 + 42*sqrt(5)")
        assert R1_DATUM.b == parse_quad("-1 + 5*sqrt(5)")
        assert R1_DATUM.m == parse_quad("(12 + 4*sqrt(5))^4")
        assert R1_DATUM.growth_c == 64
