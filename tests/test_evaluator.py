"""Evaluator tests: exact term streams, majorants, certified envelopes, verification.

The evaluator works on integer lists only; each test's exact reference is
built from ``oracles.weight_value``/``term_exact``.

Frozen reference sums were computed independently with mpmath.nsum at 70
significant digits.
"""

import ast
import inspect
import json
import math
from itertools import islice
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bseries import blocks, constants, envelope, evaluator, seriesmodel, telescope
from bseries.catalog import load_catalog, resolve_catalog_path
from bseries.closedform import parse_closed_form
from bseries.envelope import NonConvergent, _IntegerWeight, _log2_surd, certify_envelope
from bseries.evaluator import Status, _sum_terms, evaluate, sum_series, verify_identity
from bseries.exactnum import IntegerSurdPoly, QuadElem, embed_dyadic, horner, poly_add, table_values
from bseries.kernels import kernel_by_tag
from bseries.precision import ApproxReal, attempt_bits, ceil_units, log10_floor
from bseries.seriesmodel import (
    Position,
    SeriesDef,
    den_value,
    parse_base,
    parse_den_factors,
    parse_weight,
)

import oracles
import sum_pin
from oracles import HarmonicCache, term_exact, weight_value

# sum_{k>=1} k 2^k / C(2k,k)^3
REF_CENTRAL3_DEN = "0.29023413400657121703470999343912139021301191051624900008780285"
# sum_{k>=0} C(3k,k) / 16^k
REF_BIN3K_NUM = "1.2788434842132471363252268584432438448292614533246540296855359"


def shipped_series():
    return [r for r in load_catalog(resolve_catalog_path()).records if r.kind == "series_identity"]


def rebuilt(obj, **changes):
    """obj built again through its constructor, with ``changes`` to its arguments."""
    params = inspect.signature(type(obj)).parameters
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in params})


def mk(base, weight="1", den="", kernel=None, pos="den", k0=0):
    base_root, base_exp = parse_base(base)
    return SeriesDef(
        base_root=base_root,
        base_exp=base_exp,
        kernel=kernel_by_tag(kernel) if kernel else None,
        kernel_pos=Position.NUMERATOR if pos == "num" else Position.DENOMINATOR,
        weight=parse_weight(weight),
        den_factors=parse_den_factors(den) if den else (),
        k_start=k0,
    )


def u_value(form, k):
    """U(k) from the integer form's lists, exactly."""
    c = horner(form.c, k)
    return QuadElem(Fraction(horner(form.ua, k), c), Fraction(horner(form.ub, k), c), form.d)


def quad_integers(x):
    """A QuadElem as integers ``(a, b, c)`` in lowest terms with c > 0, x = (a + b*sqrt(d)) / c."""
    c = math.lcm(x.a.denominator, x.b.denominator)
    return int(x.a * c), int(x.b * c), c


def majorant_term(sdef, form, k):
    """m_k = U(k) * S_k * base^k: U(k) times the term of the same series with weight 1."""
    return u_value(form, k) * term_exact(rebuilt(sdef, weight=parse_weight("1")), k)


# ----------------------------------------------------------------------
# exact term streams


STREAM_CASES = [
    mk("1/2"),
    mk("-2/3", weight="k^2 - 3"),
    mk("(3 - sqrt(5))/4", weight="(1 + 2*sqrt(5))*k + 3", k0=1),
    mk("2", weight="k", kernel="central^3", pos="den", k0=1),
    mk("1/16", kernel="binom(3k,k)", pos="num"),
    mk("1/2", weight="H(k,1) + k", den="k*(k + 1)", k0=1),
    mk("(12 + 4*sqrt(5))^-4", weight="k + 1", kernel="central^3", pos="num"),
    mk("1/64", weight="3*H(2*k - 1,2) - 1", kernel="binom(4k,2k)", pos="den", k0=1),
    # sec2-4500 shape: D(0) = (-1)*(-5)*(-1) = -5 < 0
    mk(
        "1/4096",
        weight="4536*k^3 - 4500*k^2 + 978*k + 5",
        kernel="binom(6k,3k)",
        pos="num",
        den="(2*k - 1)*(6*k - 5)*(6*k - 1)",
    ),
    # sec1-g1a shape: negative base on the boundary |ratio| -> 1
    mk("-64", weight="4*k - 1", kernel="central^3", pos="den", den="k^3", k0=1),
    # large, growing terms (V_20 ~ 2^35, then x4.6 a step) on a small base of
    # norm 1, whose embedding has few spare bits: the base's rounding
    # outweighs the floors; with a cancelling sqrt(3) weight, sqrt(3)'s
    # rounding outweighs both
    mk("(2 - sqrt(3))^2", weight="k + 1", kernel="central^3", pos="num", k0=20),
    mk("(2 - sqrt(3))^2", weight="(97 - 56*sqrt(3))*k + 1", kernel="central^3", pos="num", k0=20),
    # growing terms (V_20 ~ 2^31, then x4 a step) on harmonic atoms: at a low P
    # the atoms' floors outweigh every other part of the count
    mk("1/16", weight="k*H(3*k - 1,2) - H(k,1)", kernel="central^3", pos="num", k0=20),
    # the weight vanishes at k = 3: an exact zero term
    mk("-1/5", weight="(k - 3)*(2*k + 1)/(k + 2)", den="k + 1"),
    # conj4.1-hb shape: Q(sqrt 5) base and coefficients, order-2 atoms
    mk(
        "(12 - 4*sqrt(5))^-4",
        weight="(420 + 180*sqrt(5))/(2*k + 1)"
        " - ((-1050 + 1470*sqrt(5))*k + 35 + 175*sqrt(5))*H(k,2)"
        " + ((-4080 + 5712*sqrt(5))*k + 136 + 680*sqrt(5))*H(2*k,2)",
        kernel="central^3",
        pos="num",
    ),
    # sqrt(d) in coefficient denominators, one of them changing sign
    mk(
        "(3 - sqrt(5))/4",
        weight="(k + 1)/(2*k - sqrt(5)) + H(2*k,1)/(k + sqrt(5))",
        kernel="binom(3k,k)",
        pos="den",
        k0=1,
    ),
]


def _count_bound(k, sdef, weight, size, per_floor=0):
    """A few units per step, scaled by the weight and by ``size = floor(|V_k|)``, plus
    ``per_floor``, the harmonic atoms' floors ``sum_i |coeff_i|_1 * u_i``, times |V_k|."""
    w = QuadElem.of(weight)
    w_bound = int(abs(w.a) + abs(w.b) * (w.d + 1)) + 1
    return 4 * ((k - sdef.k_start + 2) * w_bound + per_floor) * (size + 1)


def _per_floor(form, k):
    """``ceil(sum_i (|A_i| + |B_i|*(isqrt(d) + 1)) * u_i / |c|)`` over the harmonic atoms at k,
    each ``u_i`` the atom's index, from the integer form's lists."""
    total = sum(
        (abs(horner(a, k)) + abs(horner(b, k)) * (math.isqrt(form.d) + 1)) * atom.index_at(k)
        for a, b, atom in form.terms
        if atom is not None
    )
    return -(-total // abs(horner(form.c, k)))


def _floor_abs(x):
    """floor(|x|) of a QuadElem, exactly."""
    x = abs(x)
    bn, bd, _ = embed_dyadic(x, 8)
    n = bn // bd
    while (x - n).sign() < 0:
        n -= 1
    while (x - (n + 1)).sign() >= 0:
        n += 1
    return n


def _sum_through(sdef, form, p, k):
    """``(S, units, bound)`` of the summation loop up to term k, ``bound = |M| + err`` of the
    majorant's term at k: the stop rule with k0 = k and a limit above every term and bound
    these tests reach.  Zeros before ``k_start``."""
    if k < sdef.k_start:
        return 0, 0, 0
    s, units, terms, bound = _sum_terms(sdef, form, p, k, 1 << 20000)
    assert terms == k - sdef.k_start + 1
    return s, units, bound


def _terms(sdef, form, p, n):
    """``(k, T_k, err_k, bound_k)`` of the first n terms: the partial sums through k and k - 1
    differ by term k."""
    last_s = last_units = 0
    for k in range(sdef.k_start, sdef.k_start + n):
        s, units, bound = _sum_through(sdef, form, p, k)
        yield k, s - last_s, units - last_units, bound
        last_s, last_units = s, units


def _check_stream(sdef, terms, p=300):
    """Exact checks of each scaled term T_k ~ 2^P t_k and its count err_k, by QuadElem signs,
    and of the majorant's term at which the stop rule would end the sum at k."""
    form = _IntegerWeight(sdef)
    harm = HarmonicCache() if sdef.has_harmonic() else None
    unit = rebuilt(sdef, weight=parse_weight("1"))
    for k, t, err, m in _terms(sdef, form, p, terms):
        exact = term_exact(sdef, k, harm) * (1 << p)
        # |T_k - 2^P t_k| <= err_k
        assert (exact - (t - err)).sign() >= 0 and ((t + err) - exact).sign() >= 0, (sdef, k)
        # the count stays small
        v = term_exact(unit, k)  # V_k = S_k * base^k
        size = _floor_abs(v)
        bound = _count_bound(k, sdef, weight_value(sdef, k, harm), size, _per_floor(form, k))
        assert err <= bound, (sdef, k, err)
        if not exact and not sdef.has_harmonic():
            assert t == 0, (sdef, k)
        ref = abs(u_value(form, k) * v * (1 << p))
        # an upper bound on |U(k) S_k base^k| * 2^P, and a tight one
        assert (m - ref).sign() >= 0, (sdef, k)
        slack = 2 * _count_bound(k, sdef, u_value(form, k), size)
        assert (ref + slack - m).sign() >= 0, (sdef, k)


def test_stream_matches_direct_terms():
    for sdef in STREAM_CASES:
        _check_stream(sdef, 25)


def test_stream_counts_the_harmonic_floors_at_low_precision():
    # at P = 16 most floors of 2^P / j^m drop a large part of a unit, and
    # from j^m > 2^16 on they drop the whole term: the count must cover them
    harmonic = [r.series for r in shipped_series() if r.series.has_harmonic()]
    for sdef in harmonic + [s for s in STREAM_CASES if s.has_harmonic()]:
        _check_stream(sdef, 40, p=16)


def test_stream_exact_far_beyond_working_precision():
    # by k = 400 the kernel C(2k,k)^3 and 64^k have ~2400 bits against 300
    _check_stream(mk("-64", weight="4*k - 1", kernel="central^3", pos="den", den="k^3", k0=1), 400)


def test_huge_conjugate_base_is_certified():
    # beta = (2 - sqrt(3))^120 is about 4e-69, but its coefficients have 227 bits
    # and cancel in any fixed-precision embedding of the base
    beta = QuadElem(2, -1, 3) ** 120
    sdef = mk("(2 - sqrt(3))^120")
    env = certify_envelope(sdef)
    assert env.q < Fraction(1, 10**6)
    # 1/(1 - beta) = 1/2 + b/(2(a - 1)) sqrt(3) for beta = a - b sqrt(3) of norm 1
    rhs = parse_closed_form(f"1/2 + {-beta.b / (2 * (beta.a - 1))}*sqrt(3)")
    rep = verify_identity(sdef, rhs, 30)
    assert rep.status is Status.PASS, rep.note
    assert rep.attempts == 1


def test_every_shipped_sum_at_30_digits_overlaps_60():
    for rec in shipped_series():
        try:
            env = certify_envelope(rec.series)
        except NonConvergent:
            continue
        lo, hi = {}, {}
        for digits in (30, 60):
            bits = attempt_bits(digits + 8, 0)
            ball = sum_series(rec.series, digits + 5, env, bits).ball
            lo[digits], hi[digits] = ball.to_fraction_bounds()
        assert lo[30] <= hi[60] and lo[60] <= hi[30], rec.id


# ----------------------------------------------------------------------
# envelope certification


def test_envelope_geometric():
    env = certify_envelope(mk("1/2"))
    assert env.q == Fraction(65, 128)
    assert env.k0 == 0


def _gaps(sdef, env, ks):
    """q^2*m_k^2 - m_{k+1}^2 for each k, from the exact majorant terms m_k."""
    m = {k: majorant_term(sdef, env.weight, k) for k in (*ks, *(k + 1 for k in ks))}
    return [m[k] * m[k] * (env.q * env.q) - m[k + 1] * m[k + 1] for k in ks]


def test_envelope_bound_holds_exactly():
    for sdef in (
        mk("1/2"),
        mk("-2/3", weight="k^2 - 3", k0=2),
        mk("2", weight="k", kernel="central^3", pos="den", k0=1),
        mk("1/16", kernel="binom(3k,k)", pos="num"),
        mk("(12 + 4*sqrt(5))^-4", weight="k + 1", kernel="central^3", pos="num"),
        mk("1/2", weight="H(k,1)", k0=1),
        STREAM_CASES[-2],
        STREAM_CASES[-1],
    ):
        env = certify_envelope(sdef)
        assert vars(env.weight) == vars(_IntegerWeight(sdef))
        assert env.q < 1
        assert env.k0 >= sdef.k_start
        # |m_{k+1}| <= q |m_k| on the exact terms, not the envelope's own factors
        for k, gap in enumerate(_gaps(sdef, env, range(env.k0, env.k0 + 40)), env.k0):
            assert gap.sign() >= 0, (sdef, k)


def test_envelope_start_is_sharp():
    # where k0 > k_start the bound must genuinely fail just below k0
    sdef = mk("2", weight="k", kernel="central^3", pos="den", k0=1)
    env = certify_envelope(sdef)
    assert env.k0 > sdef.k_start
    assert _gaps(sdef, env, [env.k0 - 1])[0].sign() < 0


@pytest.mark.parametrize(
    "rid, q, k0",
    [
        ("conj3.2-equiv", Fraction(9, 32), 13),
        ("sec2-315", Fraction(65, 512), 32),
        ("conj6.1-111", Fraction(16116889, 16777216), 1),
        ("aldawoud-t31-r10", Fraction(1, 16777216), 0),
        ("conj3.5-ha", Fraction(9, 512), 21),
    ],
)
def test_envelope_pinned_on_catalog_records(rid, q, k0):
    # (q, k0) as the exact root isolation gave them; k0 is the sharp start.
    # q = L*65/64 would put k0 at 97 on conj3.2-equiv and at 161 on
    # conj3.5-ha; q = L*9/8 predicts fewer terms there.
    env = certify_envelope(load_catalog(resolve_catalog_path()).lookup(rid).series)
    assert (env.q, env.k0) == (q, k0)


def test_envelope_pinned_on_every_shipped_series():
    # (q, k0) of every shipped series as the RatFun factors gave them
    pins = {}
    for line in (Path(__file__).parent / "envelope_pins.tsv").read_text().splitlines():
        if not line.startswith("#"):
            rid, *pin = line.split("\t")
            pins[rid] = pin
    got = {}
    for rec in shipped_series():
        try:
            env = certify_envelope(rec.series)
            got[rec.id] = [str(env.q), str(env.k0)]
        except NonConvergent:
            got[rec.id] = ["NonConvergent"]
    assert got == pins


def test_integer_ratio_matches_term_ratio():
    # m_{k+1}/m_k = U(k+1)/U(k) times the term ratio of the series with weight 1,
    # read off its exact terms
    cases = [(rec.id, rec.series) for rec in shipped_series()] + list(enumerate(STREAM_CASES))
    for rid, sdef in cases:
        form = _IntegerWeight(sdef)
        one = rebuilt(sdef, weight=parse_weight("1"))
        (na, nb), (da, db) = envelope._majorant_ratio(sdef, form, quad_integers(sdef.base_value))
        for k in range(form.start, form.start + 20):
            num = QuadElem(horner(na, k), horner(nb, k), form.d)
            den = QuadElem(horner(da, k), horner(db, k), form.d)
            ref_num = u_value(form, k + 1) * term_exact(one, k + 1)
            ref_den = u_value(form, k) * term_exact(one, k)
            # a zero weight (sec1-cz4096 at k = 0) zeroes both denominators
            assert bool(den) == bool(ref_den), (rid, k)
            assert num * ref_den == ref_num * den, (rid, k)


def test_log2_term_is_the_exact_majorant_term():
    for sdef in [rec.series for rec in shipped_series()] + STREAM_CASES:
        try:
            env = certify_envelope(sdef)
        except NonConvergent:
            continue
        m = majorant_term(sdef, env.weight, env.k0)
        assert env.log2_term == _log2_surd(*quad_integers(m), m.d), sdef


def test_evaluator_works_on_integer_lists_only():
    # the RatFun majorant, the Fraction term paths and the Fraction harmonic atoms are gone
    for name in ("Poly", "RatFun", "WeightTerm", "majorant", "HarmonicCache", "_Harmonic"):
        assert not hasattr(evaluator, name), name
    # S_k and its ratio come from SeriesDef.scale/scale_ratio alone
    for name in ("Position", "den_value", "_kernel_ratio", "_growth"):
        assert not hasattr(evaluator, name), name
    reads = {
        node.attr
        for node in ast.walk(ast.parse(inspect.getsource(evaluator)))
        if isinstance(node, ast.Attribute)
    }
    assert not reads & {"kernel", "kernel_pos", "den_factors"}


def test_envelope_and_exact_oracles_are_out_of_the_evaluator():
    # the certified tail is decided in bseries.envelope, and the exact references live in
    # tests/oracles.py: no module of src defines them a second time
    moved = {
        "NonConvergent", "_RANK_BITS", "_log2_surd", "_IntegerWeight", "Envelope",
        "_majorant_term", "_majorant_ratio", "_certify_q", "certify_envelope",
    }
    exact = {
        "weight_value", "term_exact", "HarmonicCache", "partial_sum", "closed_sum", "boundary_value",
    }

    def defined(module):
        names = set()
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        return names

    assert moved <= defined(envelope)
    assert not moved & defined(evaluator)
    assert not exact & (defined(seriesmodel) | defined(telescope))
    assert not hasattr(seriesmodel.Weight, "common")


def test_scale_is_the_kernel_over_d():
    # S_k = kernel(k)^(+-1) / D(k) and S_{k+1}/S_k = num(k)/den(k), in both kernel positions
    for series in [rec.series for rec in shipped_series()] + STREAM_CASES:
        for pos in Position:
            sdef = rebuilt(series, kernel_pos=pos)
            num, den = sdef.scale_ratio
            growth = sdef.kernel.growth() ** pos.exponent if sdef.kernel else 1
            assert sdef.scale_growth == Fraction(num[-1], den[-1]) == growth, sdef
            scales = {}
            for k in range(sdef.k_start, sdef.k_start + 31):
                sn, sd = sdef.scale(k)
                assert sd > 0, (sdef, k)
                ref = Fraction(1, den_value(sdef.den_factors, k))
                if sdef.kernel is not None:
                    ref *= Fraction(sdef.kernel.value(k)) ** pos.exponent
                scales[k] = Fraction(sn, sd)
                assert scales[k] == ref, (sdef, k)
            for k in range(sdef.k_start, sdef.k_start + 30):
                assert horner(den, k) != 0, (sdef, k)
                assert horner(num, k) * scales[k] == horner(den, k) * scales[k + 1], (sdef, k)


def test_scale_ratio_is_in_lowest_terms():
    # num and den share no root (sympy's gcd is a constant) and no integer factor, in
    # both kernel positions
    k = sp.Symbol("k")
    for series in [rec.series for rec in shipped_series()] + STREAM_CASES:
        for pos in Position:
            sdef = rebuilt(series, kernel_pos=pos)
            num, den = sdef.scale_ratio
            assert sp.gcd(sp.Poly(num[::-1], k), sp.Poly(den[::-1], k)).degree() == 0, sdef
            assert math.gcd(*num, *den) == 1, sdef
    # thm1.1-pi: (3k+1)(3k+2)(k+1) / (8(2k+3)(6k+7)(6k+11)), of degree 3 over 3
    sdef = load_catalog(resolve_catalog_path()).lookup("thm1.1-pi").series
    assert sdef.scale_ratio == ((2, 11, 18, 9), (1848, 3824, 2592, 576))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-(2**600), max_value=2**600),
    st.integers(min_value=1, max_value=2**80),
    st.integers(min_value=0, max_value=700),
)
def test_divisor_splits_into_a_shift(x, a, shift):
    # floor(floor(x/a) / 2^E) = floor(x / (a*2^E)) = floor(floor(x/2^E) / a), and so for ceil
    assert (x // a) >> shift == x // (a << shift)
    assert (x >> shift) // a == x // (a << shift)
    assert -((-x // a) >> shift) == ceil_units(0, x, a << shift)
    assert -((-x >> shift) // a) == ceil_units(0, x, a << shift)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=32, max_value=700),
    st.integers(min_value=-(2**710), max_value=2**710),
    st.integers(min_value=-(2**710), max_value=2**710),
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=1, max_value=2**40),
)
@example(64, 2**64 - 1, 2**64 - 1, 2**40, 2**40, 1)
def test_top_bit_count_bounds_the_exact_count(p, v, w, e, ew, c):
    # a term's count ceil((|w|*e + (|v| + e)*ew) / (c*2^P)) + 1, with |w| and
    # |v| + e read above 2^(P - 32) only, as the summation loop counts it
    exact = ceil_units(0, abs(w) * e + (abs(v) + e) * ew, c << p) + 1
    cut = p - 32
    x = ((abs(w) >> cut) + 1) * e + (((abs(v) + e) >> cut) + 1) * ew
    top = -((-x >> p - cut) // c) + 1
    assert exact <= top <= exact + 1 + Fraction(e + ew, 2**32)


def _sum_terms_code(select, fn=evaluator._sum_terms, count=1):
    """The ``count`` statements of ``fn`` that ``select`` picks, compiled from its source, so
    that a test runs the production count expression itself and not a copy of it."""
    tree = ast.parse(inspect.getsource(fn))
    body = [node for node in ast.walk(tree) if select(node)]
    assert len(body) == count
    return compile(ast.Module(body=body, type_ignores=[]), f"<{fn.__name__}>", "exec")


def test_term_loop_runs_no_loop_over_a_coefficient_list():
    # every list's value at k comes off its stream in the loop header; the one loop inside is
    # the harmonic atoms' own, so Horner's rule cannot come back into the term loop, and the
    # block loop has none at all
    for fn, allowed in ((evaluator._sum_terms, ["zip(atoms, atom_values)"]), (blocks.sum_blocks, [])):
        tree = ast.parse(inspect.getsource(fn))
        (loop,) = [
            n for n in ast.walk(tree)
            if isinstance(n, ast.For) and any(isinstance(m, ast.Return) for m in ast.walk(n))
        ]
        inner = [n for n in ast.walk(loop) if isinstance(n, (ast.For, ast.comprehension))]
        assert [ast.unparse(n.iter) for n in inner[1:]] == allowed, fn.__name__


# b_top and r_top, the base's and R + 1's top bits; the step of V (its quadratic branch under
# b_err != 0); and the floor of w back to 2^P in Q(sqrt d), which reads r_top
def _assigns(target, reading=""):
    """Picks an assignment to ``target`` whose text contains ``reading``."""
    return lambda n: (
        isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == target and reading in ast.unparse(n)
    )


_TOPS = _sum_terms_code(_assigns("(b_top, r_top)"))
_STEP = _sum_terms_code(lambda n: isinstance(n, ast.If) and ast.unparse(n.test) == "b_err")
_FLOOR_BACK = _sum_terms_code(_assigns("ew", reading="r_top"))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=700),
    st.integers(min_value=0, max_value=2**710),
    st.integers(min_value=-(2**710), max_value=2**710),
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=1, max_value=2**20),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=1, max_value=2**40),
)
# v's low bits, then |Bn| + eb's, carry the count just over a multiple of rd*2^E
@example(40, 2**40, 2**39 * 3 + 1, 0, 2, 1, 1)
@example(40, 733007751851, 0, 3, 1, 1, 1)
def test_quadratic_step_count_bounds_the_exact_count(b_shift, b_mag, v, e, b_err, rn, rd):
    # e' = ceil((e*(|Bn| + eb) + |v|*eb) * |rn| / (rd*2^E)) + 1, as the summation loop counts it
    # with |Bn| + eb and |v| read above 2^b_cut: at most 1 + (e + eb)*|rn|/(rd*2^(E - b_cut)) more
    b_cut = max(b_shift - 32, 0)
    loop = dict(b_mag=b_mag, b_cut=b_cut, root=0, cut=0)
    exec(_TOPS, loop)
    loop.update(v=v, e=e, rn=rn, rd=rd, bn=b_mag - b_err, b_err=b_err, b_shift=b_shift)
    exec(_STEP, loop)
    exact = ceil_units(0, (e * b_mag + abs(v) * b_err) * abs(rn), rd << b_shift) + 1
    slack = Fraction((e + b_err) * abs(rn), rd << b_shift - b_cut)
    assert exact <= loop["e"] <= exact + 1 + slack
    assert loop["v"] == (v * rn * (b_mag - b_err)) // (rd << b_shift)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=700),
    st.sampled_from([2, 3, 5, 6, 7, 10, 13, 15]),
    st.integers(min_value=-(2**710), max_value=2**710),
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**40),
)
# |nb|'s low bits, then R + 1's, carry the count just over a multiple of 2^P
@example(40, 2, 2**40 + 1, 0, 0)
@example(40, 2, 2843102255117, 0, 1)
def test_floor_back_count_bounds_the_exact_count(p, d, nb, ea, eb):
    # ew = ceil((|nb| + ea*2^P + eb*(R + 1)) / 2^P) + 1 with R = isqrt(d*4^P), as the loop counts
    # the floor of w back to 2^P, with |nb| and R + 1 read above 2^cut: at most
    # 1 + (1 + eb)/2^(P - cut) more
    cut, root = max(p - 32, 0), math.isqrt(d << 2 * p)
    loop = dict(b_mag=0, b_cut=0, root=root, cut=cut)
    exec(_TOPS, loop)
    loop.update(nb=nb, ea=ea, eb=eb, p=p)
    exec(_FLOOR_BACK, loop)
    exact = ceil_units(0, abs(nb) + (ea << p) + eb * (root + 1), 1 << p) + 1
    assert exact <= loop["ew"] <= exact + 1 + Fraction(1 + eb, 1 << p - cut)


# the count of a block's weight: x, read above 2^cut, then err
_BLOCK_COUNT = _sum_terms_code(
    lambda n: _assigns("x", reading="abs(nb)")(n) or _assigns("err")(n), blocks.sum_blocks, 2
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=32, max_value=700),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=-(2**710), max_value=2**710),
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=-(2**400), max_value=2**400),
    st.integers(min_value=1, max_value=2**300),
)
def test_block_count_bounds_the_exact_count(p, extra, v, w, e, nb, cw):
    # a block's count ceil((|w|*e + (|v| + e)*|NB'|) / (cw*2^P')) + 1 with |w| and |v| + e read
    # above 2^(P - 32) <= 2^P': at most 1 + (e + |NB'|) / (cw*2^(P' - cut)) more
    p2, cut = p + extra, p - 32
    loop = dict(v=v, w=w, e=e, nb=nb, cw=cw, p2=p2, cut=cut)
    exec(_BLOCK_COUNT, loop)
    exact = ceil_units(0, abs(w) * e + (abs(v) + e) * abs(nb), cw << p2) + 1
    assert exact <= loop["err"] <= exact + 1 + Fraction(e + abs(nb), cw << p2 - cut)


def test_envelope_rejects_unit_ratio():
    with pytest.raises(NonConvergent):
        certify_envelope(mk("-1/64", weight="4*k + 1", kernel="central^3", pos="num"))


def test_envelope_rejects_divergent():
    with pytest.raises(NonConvergent):
        certify_envelope(mk("2", kernel="central^3", pos="num"))


def test_envelope_refuses_when_no_candidate_is_below_one():
    # L = 1 - 2^-30 < 1, but (1 + L)/2 rounds up to 1 on the 2^-24 grid
    with pytest.raises(NonConvergent, match="cannot select a geometric bound below 1"):
        certify_envelope(mk("1 - 1/2^30"))


def test_every_shipped_series_gets_an_envelope():
    # sec1-g1a sits on the boundary |base| * growth = 1: no geometric tail exists
    refused = set()
    for rec in shipped_series():
        try:
            certify_envelope(rec.series)
        except NonConvergent:
            refused.add(rec.id)
    assert refused == {"sec1-g1a"}


# ----------------------------------------------------------------------
# majorants of harmonic weights


def _assert_majorant_bounds(sdef, span):
    form = _IntegerWeight(sdef)
    assert form.start >= max(1, sdef.k_start)
    harm = HarmonicCache()
    for k in range(form.start, form.start + span + 1):
        w = abs(QuadElem.of(weight_value(sdef, k, harm)))
        assert w <= u_value(form, k), (sdef, k)


def test_majorant_of_an_atom_free_series_is_the_series():
    cases = [mk("-2/3", weight="k^2 - 3")] + [r.series for r in shipped_series()] + STREAM_CASES
    for sdef in (s for s in cases if not s.has_harmonic()):
        form = _IntegerWeight(sdef)
        assert form.start == sdef.k_start
        for k in range(sdef.k_start, sdef.k_start + 30):
            assert u_value(form, k) == weight_value(sdef, k), (sdef, k)


def test_integer_form_is_the_weight():
    # With base 1 and S_k = 1, v = 2^P exactly and e = 1 + k (one unit a step
    # from k = 0, the base's steps up to k_start included), so the
    # stream weighs W(k) alone: |T_k - 2^P W(k)| <= err_k.  Without atoms or
    # sqrt(d) the form is W itself: T_k = floor(2^P W(k)), err_k = ceil(|W(k)| e) + 1.
    for p in (16, 300):
        for series in [rec.series for rec in shipped_series()] + STREAM_CASES:
            sdef = rebuilt(
                series, base_root=QuadElem(1), base_exp=1, kernel=None, den_factors=()
            )
            form, harm = _IntegerWeight(sdef), HarmonicCache()
            for k, t, err, _ in _terms(sdef, form, p, 30):
                w = QuadElem.of(weight_value(sdef, k, harm))
                exact = w * (1 << p)
                assert (exact - (t - err)).sign() >= 0 and ((t + err) - exact).sign() >= 0
                if sdef.field_d == 1 and not sdef.has_harmonic():
                    e = 1 + k
                    assert t == math.floor(exact.a), (sdef, k)
                    assert err == math.ceil(abs(w.a) * e) + 1, (sdef, k)
                else:
                    assert err <= _count_bound(k, sdef, w, 1, _per_floor(form, k)), (sdef, k)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_fixed_harmonic_counts_its_floors(order):
    # With base 1, S_k = 1 and W = H(k, m), v = 2^P exactly and the term is the
    # atom itself: T_k = h_k = sum_{j<=k} floor(2^P / j^m), and 0 <= 2^P * H_k^(m)
    # - h_k <= k <= err_k.  At P = 16 the floors drop every term with j^m > 2^16,
    # so no count of 0 covers them.
    p = 16
    sdef = mk("1", weight=f"H(k,{order})")
    form, harm = _IntegerWeight(sdef), HarmonicCache()
    for k in (0, 1, 2, 3, 40, 41, 255, 256, 257, 1000, 3000):
        (s0, u0, _), (s1, u1, _) = (_sum_through(sdef, form, p, j) for j in (k - 1, k))
        h, err = s1 - s0, u1 - u0
        assert h == sum(2**p // j**order for j in range(1, k + 1)), k
        assert 0 <= harm.value(order, k) * 2**p - h <= k <= err, k


def test_majorant_bounds_every_shipped_harmonic_weight():
    harmonic = [r.series for r in shipped_series() if r.series.has_harmonic()]
    assert len(harmonic) == 23
    for sdef in harmonic + [s for s in STREAM_CASES if s.has_harmonic()]:
        _assert_majorant_bounds(sdef, 200)


_ATOMS = st.sampled_from(["H(k,1)", "H(2*k,1)", "H(3*k - 1,2)", "H(6*k,1)", "H(k - 1,3)"])
_INTS = st.integers(min_value=-60, max_value=60)


@st.composite
def harmonic_weights(draw):
    """Polynomial coefficients on 1-3 atoms, plus a rational unit term; the
    coefficients often change sign after the start."""
    parts = []
    for atom in draw(st.lists(_ATOMS, min_size=1, max_size=3, unique=True)):
        lead = draw(_INTS.filter(bool))
        parts.append(f"({lead}*k^2 + {draw(_INTS)}*k + {draw(_INTS)})*{atom}")
    parts.append(f"({draw(_INTS)}*k + {draw(_INTS)})/(k + {draw(st.integers(1, 9))})")
    return " + ".join(parts)


@settings(max_examples=40, deadline=None)
@given(harmonic_weights(), st.integers(min_value=0, max_value=3))
@example("(k - 40)*H(k,1)", 0)
def test_majorant_bounds_random_harmonic_weights(weight, k0):
    if k0 == 0 and "- 1," in weight:  # H(s*k - 1) has index -1 at k = 0
        with pytest.raises(ValueError, match="harmonic index -1 < 0 at k=0"):
            mk("1/2", weight=weight, k0=k0)
        k0 = 1
    _assert_majorant_bounds(mk("1/2", weight=weight, k0=k0), 60)


# ----------------------------------------------------------------------
# the q candidates: certified from one shifted ratio, or provably not winning


def reference_envelope(sdef):
    """certify_envelope as it was before the candidates shared a shifted ratio: every
    candidate certified from scratch, each factor of G built and root-bounded and G's sign
    walked from the larger bound down to K, and log2_term from the exact majorant term; the
    fewest predicted terms win, the smallest q on a tie."""
    beta = sdef.base_value
    g = sdef.kernel.growth() ** sdef.kernel_pos.exponent if sdef.kernel else Fraction(1)
    if abs(beta) * g >= 1:
        raise NonConvergent("limiting term ratio is >= 1")
    bn, bd, eb = embed_dyadic(beta, 192)
    n, m = (abs(bn) + eb) * g.numerator, bd * g.denominator
    candidates = [(65 * n, 64 * m), (9 * n, 8 * m), (3 * n, 2 * m), (n + m, 2 * m)]
    tops = sorted({-((-a << 24) // b) for a, b in candidates})
    qs = [Fraction(top, 1 << 24) for top in tops if top < 1 << 24]
    if not qs:
        raise NonConvergent("cannot select a geometric bound below 1")
    form = _IntegerWeight(sdef)
    (na, nb), (da, db) = envelope._majorant_ratio(sdef, form, quad_integers(beta))
    envelopes = []
    for q in qs:
        qn, qd = q.numerator, q.denominator
        factors = [
            IntegerSurdPoly.from_lists(
                poly_add([qn * c for c in da], [s * qd * c for c in na]),
                poly_add([qn * c for c in db], [s * qd * c for c in nb]),
                form.d,
            )
            for s in (-1, 1)
        ]

        def sign_g(k):
            return factors[0].sign_at(k) * factors[1].sign_at(k)

        k0 = max(f.root_bound(start=form.start) for f in factors)
        if sign_g(k0) < 0:
            raise NonConvergent("envelope is negative beyond its root bound")
        while k0 > form.start and sign_g(k0 - 1) >= 0:
            k0 -= 1
        mk0 = majorant_term(sdef, form, k0)
        log2_term = _log2_surd(*quad_integers(mk0), mk0.d)
        envelopes.append(envelope.Envelope(q=q, k0=k0, weight=form, log2_term=log2_term))
    return min(envelopes, key=lambda env: env.k0 + env.predicted_terms(envelope._RANK_BITS))


def _assert_envelope_is_the_reference(sdef):
    try:
        ref = reference_envelope(sdef)
    except NonConvergent:
        with pytest.raises(NonConvergent):
            certify_envelope(sdef)
        return
    env = certify_envelope(sdef)
    assert (env.q, env.k0, env.log2_term) == (ref.q, ref.k0, ref.log2_term), sdef


def test_envelope_is_the_reference_on_every_shipped_series():
    for sdef in [rec.series for rec in shipped_series()] + STREAM_CASES:
        _assert_envelope_is_the_reference(sdef)


@st.composite
def small_series(draw):
    """A small series of the catalog's shape: a rational or Q(sqrt 5) base, a kernel on
    either side or none, a linear den and a polynomial or harmonic weight."""
    base = draw(st.sampled_from(
        ["1/2", "-2/3", "1/16", "-1/64", "1/4096", "4/27", "-27/512", "(3 - sqrt(5))/4",
         "(12 + 4*sqrt(5))^-4", "(2 - sqrt(5))^2"]
    ))
    kernel = draw(
        st.sampled_from([None, "central^3", "binom(3k,k)", "binom(6k,3k)", "binom(4k,2k)"])
    )
    polynomial = st.builds("({}*k^2 + {}*k + {})".format, _INTS, _INTS, _INTS.filter(bool))
    weight = draw(polynomial | harmonic_weights())
    den = draw(
        st.sampled_from(["", "k + 1", "(2*k + 1)*(6*k + 5)", "(k + 1)^3", "(3*k + 2)*(k + 3)"])
    )
    return base, weight, den, kernel, draw(st.sampled_from(["num", "den"])), draw(st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(small_series())
@example(("1/2", "(k - 40)*H(k,1)", "", None, "den", 1))
# Descartes' test fails at K = 2 and passes at 3, and G(2) >= 0: k0 is K after a walk of one step
@example(("1/2", "(1*k^2 + -3*k + 5)", "(k + 1)^3", None, "num", 2))
def test_envelope_is_the_reference_on_small_series(fields):
    try:
        sdef = mk(*fields)
    except ValueError:  # a weight denominator that vanishes from k0 on
        return
    _assert_envelope_is_the_reference(sdef)


def test_candidate_certifications_are_pinned(monkeypatch):
    # certifying every candidate took 221 certifications over the shipped series; the
    # candidates that provably cannot win are not certified
    calls = []
    certify_q = envelope._certify_q
    monkeypatch.setattr(envelope, "_certify_q", lambda *args: calls.append(1) or certify_q(*args))
    for rec in shipped_series():
        try:
            certify_envelope(rec.series)
        except NonConvergent:
            pass
    assert len(calls) == 140


# ----------------------------------------------------------------------
# certified summation


def test_geometric_sum_certified():
    sdef = mk("1/2")
    res = sum_series(sdef, 40, certify_envelope(sdef), 200)
    lo, hi = res.ball.to_fraction_bounds()
    assert lo <= 2 <= hi
    assert res.ball.to_digits() >= 40


def test_kernel_denominator_reference():
    res = evaluate(mk("2", weight="k", kernel="central^3", pos="den", k0=1), 50)
    lo, hi = res.ball.to_fraction_bounds()
    ref = Fraction(REF_CENTRAL3_DEN)
    assert lo - Fraction(1, 10**58) <= ref <= hi + Fraction(1, 10**58)
    assert res.ball.to_digits() >= 50


def test_kernel_numerator_reference():
    res = evaluate(mk("1/16", kernel="binom(3k,k)", pos="num"), 50)
    lo, hi = res.ball.to_fraction_bounds()
    ref = Fraction(REF_BIN3K_NUM)
    assert lo - Fraction(1, 10**58) <= ref <= hi + Fraction(1, 10**58)


def test_every_shipped_ball_is_pinned():
    """Every shipped series' ball, bit for bit, as ``sum_pins.tsv`` records it
    (:mod:`sum_pin` says how to regenerate the file)."""
    rows = sum_pin.pinned()
    assert len(rows) == 189
    assert sum_pin.rows() == rows


def test_term_loop_is_the_horner_loop_bit_for_bit(monkeypatch):
    # every shipped series at 30, 150 (deep_quadratic's precision) and 300 digits, with the
    # arguments sum_series passes: where it sums term by term (m = 1), the value streams give
    # the same S, units, terms and bound; where in blocks, the same terms and an overlapping ball
    calls = []

    def recording(*args):
        out = _sum_terms(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(evaluator, "_sum_terms", recording)
    for rec in shipped_series():
        try:
            env = certify_envelope(rec.series)
        except NonConvergent:
            continue
        for digits in (30, 150, 300):
            evaluator._sum_to_digits(rec.series, digits + 5, env)
    assert len(calls) == 279  # 93 series, one attempt each
    blocks = 0
    for args, out in calls:
        ref = oracles.sum_terms_horner(*args[:5])
        if args[5] == 1:
            assert ref == out, args[0]
        else:
            blocks += 1
            assert ref[2] == out[2] and abs(ref[0] - out[0]) <= ref[1] + out[1], args[0]
    assert blocks == 32
    # and 40 terms of each stream case at a low and a high P: starts past 0, D(0) < 0, H(2*k - 1,2)
    for sdef in STREAM_CASES:
        for p in (16, 300):
            args = (sdef, _IntegerWeight(sdef), p, sdef.k_start + 40, 1 << 20000)
            assert oracles.sum_terms_horner(*args) == _sum_terms(*args), sdef


def _block_series():
    """The shipped series that :func:`evaluator._block_size` lets sum in blocks."""
    size = evaluator._block_size
    return [r for r in shipped_series() if size(r.series, _IntegerWeight(r.series), 600, 1000) > 1]


def test_block_sizes_of_the_shipped_series():
    # the quadratic bases with an atom-free weight over a constant c; nothing rational, no atom
    series = _block_series()
    assert len(series) == 33
    assert all(not r.series.base_value.is_rational and not r.series.has_harmonic() for r in series)
    # m = 1 below 2^18 terms times bits, then 4, 8 and 16 by P
    sdef = series[0].series
    weight = _IntegerWeight(sdef)
    cases = ((200, 1310), (200, 1311), (600, 1000), (2000, 1000))
    sizes = [evaluator._block_size(sdef, weight, p, n) for p, n in cases]
    assert sizes == [1, 4, 8, 16]


def test_block_balls_contain_the_exact_partial_sum():
    # 150 terms of every series that sums in blocks, and of the stream cases that could (the
    # growing terms of (2 - sqrt(3))^2 among them), at m = 2, 4 and 8: the blocks run until one
    # ends past k0, and the terms from there stop at k0, since no bound is below 2^20000
    cases = [rec.series for rec in _block_series()] + [
        s for s in STREAM_CASES if evaluator._block_size(s, _IntegerWeight(s), 600, 1000) > 1
    ]
    assert len(cases) == 37
    for sdef in cases:
        weight, k0, p = _IntegerWeight(sdef), sdef.k_start + 150, 300
        exact = oracles.series_partial_sum(sdef, k0) * (1 << p)
        for m in (2, 4, 8):
            s, units, terms, _ = _sum_terms(sdef, weight, p, k0, 1 << 20000, m, 150)
            assert terms == 151, (sdef, m)
            assert exact - (s - units) >= 0 and (s + units) - exact >= 0, (sdef, m)
            assert blocks.sum_blocks(sdef, weight, p, k0, 1 << 20000, m, 150)[0] > k0 - m


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=32),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=120),
)
def test_block_lists_are_the_products_and_sums_of_the_term_lists(index, m, j):
    # the value streams of the block table at j are Sn' = prod_l Sn(K + l), Sd' alike, and
    # (NA' + NB'*sqrt(d)) / (cc * Sd') = sum_i W(K + i) * base^i * prod_{l<i} Sn(K + l)/Sd(K + l)
    sdef = _block_series()[index].series
    weight = _IntegerWeight(sdef)
    cc, g, table = blocks.block_lists(sdef, weight, m)
    rn, rd, na, nb = (next(islice(table_values(list(x)), j, None)) for x in zip(*table))
    assert [(rn, rd, na * g, nb * g)] == blocks.block_values(sdef, weight, m, j, 1)
    k, (sn, sd), beta = sdef.k_start + m * j, sdef.scale_ratio, sdef.base_value
    assert rn == math.prod(horner(sn, k + l) for l in range(m))
    assert rd == math.prod(horner(sd, k + l) for l in range(m))
    ratio, want = Fraction(1), QuadElem(0)
    for i in range(m):
        want += QuadElem.of(weight_value(sdef, k + i)) * beta**i * ratio
        ratio *= Fraction(horner(sn, k + i), horner(sd, k + i))
    assert QuadElem(na, nb, weight.d) / (cc * rd) == want


def test_block_refused_at_once_is_the_term_loop():
    # a certificate that fails at the first block hands the whole sum to the term loop from
    # k_start: the same S, units, terms and bound as the reference, bit for bit
    for rec in _block_series():
        sdef, weight = rec.series, _IntegerWeight(rec.series)
        args = (sdef, weight, 300, sdef.k_start, 1 << 20000)
        assert blocks.sum_blocks(*args, 4, 100) is None
        assert _sum_terms(*args, 4, 100) == oracles.sum_terms_horner(*args), rec.id


def test_slow_series_is_not_cut_short():
    # term ratio about 0.94: 700 digits take more than 20,000 terms, and an ignored
    # budget_terms of 20000 must not end the sum before the stop rule does
    rec = load_catalog(resolve_catalog_path()).lookup("conj5.1-slow")
    rep = verify_identity(rec.series, rec.rhs, 700, budget_terms=20000, lhs_scale=rec.lhs_scale)
    assert rep.status is Status.PASS, rep.note
    assert rep.terms_used == 22151


# ----------------------------------------------------------------------
# one certified tail


def test_evaluate_raises_on_boundary_series():
    sdef = load_catalog(resolve_catalog_path()).lookup("sec1-g1a").series
    with pytest.raises(NonConvergent, match="limiting term ratio"):
        evaluate(sdef, 30)


def test_verify_certifies_once_and_sums_once_per_attempt(monkeypatch):
    # The benchmark rebinds these module globals to trace them and to read
    # q and k0 off the envelope; verify_identity and evaluate must call through them.
    calls = {}

    def counting(name):
        fn = getattr(evaluator, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("certify_envelope", "sum_series"):
        monkeypatch.setattr(evaluator, name, counting(name))
    for sdef, rhs in (
        (mk("1/2"), "2"),
        (mk("1/2", weight="H(k,1)", k0=1), "2*log(2)"),
    ):
        calls.update(certify_envelope=0, sum_series=0)
        rep = verify_identity(sdef, parse_closed_form(rhs), 30)
        assert rep.status is Status.PASS
        assert calls == {"certify_envelope": 1, "sum_series": rep.attempts}
        calls.update(certify_envelope=0, sum_series=0)
        res = evaluate(sdef, 30)
        assert calls == {"certify_envelope": 1, "sum_series": res.attempts}


# ----------------------------------------------------------------------
# verification


def test_verify_surd_geometric():
    # sum_{k>=0} ((3 - sqrt(5))/4)^k = 1/(1 - b) = sqrt(5) - 1
    rep = verify_identity(mk("(3 - sqrt(5))/4"), parse_closed_form("sqrt(5) - 1"), 40)
    assert rep.status is Status.PASS
    assert rep.tail_mode == "certified"
    assert rep.digits_matched >= 40


def test_verify_weighted_geometric():
    # sum_{k>=1} k^2 / 3^k = 3/2
    rep = verify_identity(mk("1/3", weight="k^2", k0=1), parse_closed_form("3/2"), 45)
    assert rep.status is Status.PASS


def test_verify_alternating_geometric():
    rep = verify_identity(mk("-1/2"), parse_closed_form("2/3"), 45)
    assert rep.status is Status.PASS
    assert rep.tail_mode == "certified"


def test_verify_central_even_kernel_closed_form():
    # sum_{k>=0} C(4k,2k) / 64^k = (1/2) (1/sqrt(1 - 1/2) + 1/sqrt(1 + 1/2))
    rep = verify_identity(
        mk("1/64", kernel="binom(4k,2k)", pos="num"),
        parse_closed_form("1/2*sqrt(2) + 1/6*sqrt(6)"),
        45,
    )
    assert rep.status is Status.PASS
    assert rep.tail_mode == "certified"


def test_verify_harmonic_log():
    # sum_{k>=1} H_k / 2^k = 2 log 2, with the tail of the majorant k / 2^k
    rep = verify_identity(mk("1/2", weight="H(k,1)", k0=1), parse_closed_form("2*log(2)"), 40)
    assert rep.status is Status.PASS
    assert rep.tail_mode == "certified"


def test_verify_zero_term_does_not_end_the_sum():
    # sum_{k>=1} (H_k - H_100) / 2^k = 2 log 2 - H_100.  t_100 = 0 lies past k0,
    # so |t_k| alone would end the sum there, about 2^-100 short.
    h100 = HarmonicCache().value(1, 100)
    sdef = mk("1/2", weight=f"H(k,1) - {h100}", k0=1)
    assert certify_envelope(sdef).k0 < 100
    rep = verify_identity(sdef, parse_closed_form(f"2*log(2) - {h100}"), 40)
    assert rep.status is Status.PASS, rep.note
    assert rep.terms_used > 100


def test_verify_den_factors_log():
    # sum_{k>=1} (1/2)^k / (k (k+1)) = 1 - log 2
    rep = verify_identity(
        mk("1/2", den="k*(k + 1)", k0=1), parse_closed_form("1 - log(2)"), 45
    )
    assert rep.status is Status.PASS
    assert rep.tail_mode == "certified"


def test_verify_detects_wrong_rhs():
    rep = verify_identity(mk("1/2"), parse_closed_form("2 + 1/100000000"), 30)
    assert rep.status is Status.FAIL
    assert rep.digits_matched in range(6, 10)


def test_verify_boundary_record_ends_at_once():
    # no envelope: the verdict comes before any term is summed
    rec = load_catalog(resolve_catalog_path()).lookup("sec1-g1a")
    rep = verify_identity(rec.series, rec.rhs, 30)
    assert rep.status is Status.INCONCLUSIVE
    assert (rep.terms_used, rep.attempts, rep.tail_mode) == (0, 0, "none")
    assert "limiting term ratio |base|*growth = 1 is >= 1" in rep.note


def test_verify_boundary_series_inconclusive():
    rep = verify_identity(
        mk("-1/64", weight="4*k + 1", kernel="central^3", pos="num"),
        parse_closed_form("2/pi"),
        10,
    )
    assert rep.status is Status.INCONCLUSIVE
    assert (rep.terms_used, rep.attempts, rep.tail_mode) == (0, 0, "none")


@settings(max_examples=12, deadline=None)
@given(
    st.fractions(
        min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=12
    )
)
def test_geometric_closed_form_property(b):
    assume(b != 0)
    rhs = 1 / (1 - b)
    rep = verify_identity(mk(str(b)), parse_closed_form(str(rhs)), 30)
    assert rep.status is Status.PASS, (b, rep.note)


def test_report_fields():
    rep = verify_identity(mk("1/2"), parse_closed_form("2"), 35)
    assert rep.status is Status.PASS
    assert rep.digits_requested == 35
    assert rep.digits_matched >= 35
    assert rep.terms_used > 100
    assert rep.elapsed >= 0
    assert rep.attempts == 1
    assert rep.lhs_str.startswith("2.0")


def test_report_prints_its_strings_on_first_read(monkeypatch):
    calls = []
    decimal = ApproxReal.decimal

    def counted(ball, n):
        calls.append(n)
        return decimal(ball, n)

    monkeypatch.setattr(ApproxReal, "decimal", counted)
    rep = verify_identity(mk("1/2"), parse_closed_form("2"), 35)
    assert calls == []
    lhs, residual = rep.lhs_str, rep.residual_str
    assert calls == [40, 8]
    assert (rep.lhs_str, rep.residual_str) == (lhs, residual) and len(calls) == 2
    assert rebuilt(rep, elapsed=0.0) == rebuilt(rep, elapsed=0.0)
    assert rebuilt(rep, lhs_ball=(1, 0, 0)) != rep


def test_report_strings_are_the_eager_formatting_on_shipped_series():
    # the strings printed on first read are the ones verification printed before it
    # kept the balls: the LHS to digits + 5 and the residual to 8 digits
    for rec in shipped_series():
        for digits in (30, 300):
            rep = verify_identity(rec.series, rec.rhs, digits, lhs_scale=rec.lhs_scale)
            try:
                env = certify_envelope(rec.series)
            except NonConvergent:
                assert (rep.lhs_str, rep.residual_str) == ("", ""), rec.id
                continue
            lhs = evaluator._sum_to_digits(rec.series, digits + 5, env).ball
            if rec.lhs_scale is not None:
                lhs = lhs * rec.lhs_scale.eval_ball(digits + 10)
            residual = lhs - rec.rhs.eval_ball(digits + 10)
            assert rep.lhs_str == lhs.decimal(digits + 5), (rec.id, digits)
            assert rep.residual_str == residual.decimal(8), (rec.id, digits)


def _balls():
    """(s, p, units) at random, and with units 0, units past both |s| and 2^p, and
    midpoints and radii whose ratio is a power of ten."""
    s, p, u = st.integers(-(2**160), 2**160), st.integers(0, 200), st.integers(0, 2**160)
    ten = st.tuples(st.integers(1, 2**40), st.integers(0, 40), st.integers(0, 60))
    return st.one_of(
        st.tuples(s, p, u),
        st.tuples(s, p, st.just(0)),
        st.tuples(s, p, u).map(lambda b: (b[0], b[1], max(abs(b[0]), 1 << b[1]) + b[2])),
        ten.map(lambda t: (t[0] * 10 ** t[1], t[2], t[0])),  # |mid|/rad = 10^j
        ten.map(lambda t: (t[0], t[2], t[0] * 10 ** t[1])),
        ten.map(lambda t: (0, t[2], 10 ** t[1] << t[2])),  # rad = 10^j exactly
        ten.map(lambda t: ((1 << t[2]) * t[0], t[2], t[0] * 10 ** t[1] - 1)),
    )


@settings(max_examples=400, deadline=None)
@given(_balls(), st.integers(0, 60))
@example((1, 0, 0), 0)
@example((0, 0, 1), 0)
@example((0, 4, 16), 0)  # |residual| <= 1 = 10^0 exactly
@example((10**30, 0, 1), 30)
@example((0, 100, 10**5 << 70), 5)  # 10^5 * 2^-30 against 10^-5
def test_digit_counts_in_integers_are_the_fraction_counts(ball, digits):
    s, p, units = ball
    x = ApproxReal(s, p, units)
    assert x.to_digits() == oracles.to_digits(x)
    assert evaluator._residual_digits(x, digits) == oracles.residual_digits(x, digits)
    n, d = abs(s) + units, (1 << p) + units
    if n:
        assert log10_floor(n, d) == oracles.log10_floor(Fraction(n, d))
        assert log10_floor(n * 10**digits, n) == digits
        assert log10_floor(n, n * 10**digits) == -digits


# ----------------------------------------------------------------------
# precision is carried by the balls


def test_balls_do_not_read_the_mpmath_precision(monkeypatch):
    # pi, sqrt(m), an L-value and a nested radical: the ball, the sums and
    # the verification reports come out the same under any mpmath precision.
    # Each pass starts from an empty constants cache, which otherwise hands
    # back an earlier pass's deeper balls floored, not computed afresh.
    cf = parse_closed_form("16/3*sqrt(3)/pi - 1/7*L(-111) + sqrt(96256 + 43008*sqrt(5))")
    cat = load_catalog(resolve_catalog_path())
    records = [cat.lookup(rid) for rid in ("aldawoud-t31-r10", "conj6.1-111", "conj4.1-hb")]

    def snapshot():
        monkeypatch.setattr(constants, "_cache", {})
        out = [cf.eval_ball(30)] + [evaluate(r.series, 30).ball for r in records]
        out = [(b.s, b.p, b.units) for b in out]
        for r in records:
            rep = verify_identity(r.series, r.rhs, 30, lhs_scale=r.lhs_scale)
            out.append(rebuilt(rep, elapsed=0.0))
        return out

    with mpmath.mp.workprec(10):
        low = snapshot()
    with mpmath.mp.workprec(4000):
        high = snapshot()
    assert low == high == snapshot()
    assert [rep.status for rep in low[-3:]] == [Status.FAIL, Status.PASS, Status.PASS]


def test_report_strings_match_nstr_on_shipped_sums():
    # a ball prints from its integers; mpmath.nstr of its exact midpoint is the
    # reference, for the sums and their residuals at the report's digit counts
    for rec in shipped_series():
        for digits in (30, 300):
            try:
                lhs = evaluate(rec.series, digits).ball
            except NonConvergent:
                continue
            for ball in (lhs, lhs - rec.rhs.eval_ball(digits + 10)):
                mid = mpmath.make_mpf(mpmath.libmp.from_man_exp(ball.s, -ball.p))
                for n in (digits + 5, 8):
                    assert ball.decimal(n) == mpmath.nstr(mid, n), (rec.id, digits, n)


def test_verification_runs_without_mpmath():
    # the perfbench worker's imports check every shipped record on the standard library alone
    script = Path(__file__).with_name("verify_without_mpmath.py")
    src = str(Path(evaluator.__file__).parents[1])
    out = subprocess.run([sys.executable, str(script), src], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)  # 94 series and 5 certificates
    assert len(got) == 99
    assert {rid: v for rid, v in got.items() if v != "PASS"} == {
        "aldawoud-t31-r10": "FAIL",
        "sec1-g1a": "INCONCLUSIVE",
    }


def test_no_module_reads_an_ambient_precision():
    # Balls take their exponent where they are made; only relation.pslq sets
    # mpmath's precision, around mpmath.pslq, which computes on mpf midpoints.
    for path in sorted(Path(evaluator.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        dotted = {ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert "working_bits" not in names, path.name
        assert not {d for d in dotted if d.endswith("mp.prec") or d.endswith("mp.dps")}, path.name
        assert ("workprec" in names) == (path.stem == "relation"), path.name


def test_closed_form_ball_does_not_depend_on_the_constants_cache(monkeypatch):
    # verify_identity at 30 digits caches its constants at 40 (eval_ball(D + 10));
    # a later eval_ball(30) floors them to its own precision instead of
    # carrying their extra bits into every product
    cf = parse_closed_form("16/3*sqrt(3)/pi - 1/7*L(-111) + sqrt(96256 + 43008*sqrt(5))")
    monkeypatch.setattr(constants, "_cache", {})
    cold = cf.eval_ball(30)
    rec = load_catalog(resolve_catalog_path()).lookup("conj6.1-111")
    assert verify_identity(rec.series, rec.rhs, 30, lhs_scale=rec.lhs_scale).passed
    warm = cf.eval_ball(30)
    assert warm.p == cold.p
    lo, hi = warm.to_fraction_bounds()
    cold_lo, cold_hi = cold.to_fraction_bounds()
    assert lo <= cold_hi and cold_lo <= hi
