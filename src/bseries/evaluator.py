"""Certified series summation and identity verification.

Every convergent series is summed with one certified tail.  An atom-free
weight gives an exact term ratio ``rho(k) = t_{k+1}/t_k``, a rational
function over the quadratic field.  A weight with harmonic atoms is first
replaced by the atom-free weight U of its :func:`majorant`, which bounds
``|W(k)|`` from the majorant's start on because ``0 <= H(n, m) <= n``
(Mezzarobba & Salvy, *Effective bounds for P-recursive sequences*, 2010);
an atom-free series is its own majorant.

The envelope is certified for the majorant's ratio: with a rational
``q < 1`` slightly above the limiting ratio ``L = |base| * growth^(+-1)``,
``|rho(k)| <= q`` for every integer ``k >= k0`` because

    G(k) = q^2 * den(rho)^2 - num(rho)^2 = (q*den - num) * (q*den + num)

is >= 0 there.  Each factor is an :class:`~bseries.exactnum.IntegerSurdPoly`
with no real root beyond its coefficient-dominance bound; the sign of G at
an integer, the product of the factors' exact signs, is checked from the
larger bound down to the majorant's start, which gives ``k0``.  ``L >= 1``
raises :class:`NonConvergent`.

One stop rule ends every sum: once ``k >= k0`` and ``|t_k| * q/(1 - q)``
is at most ``10^-(digits+3)``, the sum stops as soon as the majorant's
bound ``|U(k) * S_k * base^k| * q/(1 - q)`` is at most that too; it covers
the tail after ``t_k`` and is added as an explicit ball radius.

Verification at D digits: PASS iff the residual ball ``LHS - RHS`` contains
zero and its magnitude upper bound is at most ``10^-D``; FAIL iff the ball
excludes zero (a proof of discrepancy); otherwise the working precision is
doubled, up to ``precision.MAX_ATTEMPTS`` attempts, and INCONCLUSIVE is
reported.  A series without an envelope is INCONCLUSIVE at once.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath import mpf

from .closedform import ClosedForm
from .exactnum import IntegerSurdPoly, Poly, QuadElem, RatFun, horner
from .precision import DIGITS_INF, MAX_ATTEMPTS, ApproxReal, attempt_bits, working_bits
from .seriesmodel import HarmonicCache, Position, SeriesDef, WeightTerm, den_value

__all__ = [
    "NonConvergent",
    "BudgetExceeded",
    "Envelope",
    "majorant",
    "certify_envelope",
    "SumResult",
    "sum_series",
    "evaluate",
    "Status",
    "VerificationReport",
    "verify_identity",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 200_000


class NonConvergent(ArithmeticError):
    """The limiting term ratio is >= 1; no geometric tail exists."""


class BudgetExceeded(ArithmeticError):
    """The term budget ran out after ``terms_used`` terms."""

    def __init__(self, terms_used: int, message: str):
        super().__init__(message)
        self.terms_used = terms_used


class Status(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


# ----------------------------------------------------------------------
# envelope certification


@dataclass(frozen=True)
class Envelope:
    """``|m_{k+1}/m_k| <= q`` for the terms m_k of ``majorant`` and every k >= k0."""

    q: Fraction
    k0: int
    ratio: RatFun
    majorant: SeriesDef


def _growth(sdef: SeriesDef) -> Fraction:
    """Limiting ratio of the kernel factor kernel(k)^s; 1 without a kernel."""
    if sdef.kernel is None:
        return Fraction(1)
    return sdef.kernel.growth() ** sdef.kernel_pos.exponent


def _rational_upper_abs(x: QuadElem, bits: int = 192) -> Fraction:
    with working_bits(bits):
        ball = abs(x.embed())
    lo, hi = ball.to_fraction_bounds()
    return hi


def majorant(sdef: SeriesDef) -> SeriesDef:
    """An atom-free series whose terms bound ``|t_k|`` from its start on.

    An atom-free series is returned unchanged.  Otherwise the start K is the
    largest root bound, from ``k_start``, of every coefficient's numerator
    and denominator, so each coefficient ``c_i`` keeps its sign ``sigma_i``
    from K on, and the weight is ``U = sum_i sigma_i * c_i * B_i``, with
    ``B_i(k) = stride*k + offset >= H(stride*k + offset, m) >= 0`` for an atom
    and ``B_i = 1`` for the unit atom.  Then ``U(k) >= |W(k)|`` for k >= K.
    """
    if not sdef.has_harmonic():
        return sdef
    polys = [IntegerSurdPoly(p) for c, _ in sdef.weight for p in (c.num, c.den)]
    start = max(p.root_bound(start=sdef.k_start) for p in polys)
    u = RatFun.const(Fraction(0))
    for (coeff, atom), num, den in zip(sdef.weight, polys[::2], polys[1::2]):
        sign = Fraction(num.sign_at(start) * den.sign_at(start))
        bound = Poly((Fraction(atom.offset), Fraction(atom.stride))) if atom else 1
        u = u + coeff * (bound * sign)
    return dataclasses.replace(sdef, weight=(WeightTerm(u, None),), k_start=start)


def certify_envelope(sdef: SeriesDef) -> Envelope:
    """Prove ``|m_{k+1}/m_k| <= q < 1`` for the majorant's terms, k >= k0 (exact arithmetic only)."""
    g = _growth(sdef)
    limit = abs(sdef.base_value) * g
    if limit >= 1:
        raise NonConvergent(f"limiting term ratio |base|*growth = {limit} is >= 1")

    def dyadic_up(x: Fraction, bits: int = 24) -> Fraction:
        # Round up to a small-denominator dyadic: keeps every downstream
        # coefficient of G small.
        return Fraction(math.ceil(x * (1 << bits)), 1 << bits)

    l_hi = _rational_upper_abs(sdef.base_value) * g
    q = dyadic_up(l_hi * Fraction(65, 64))
    if q >= 1:
        q = dyadic_up((l_hi + 1) / 2)
    if q >= 1:
        raise NonConvergent("cannot select a geometric bound below 1")

    bound = majorant(sdef)
    ratio = bound.term_ratio()
    num, den = ratio.num, ratio.den
    # G = q^2*den^2 - num^2 = (q*den - num) * (q*den + num); want G(k) >= 0
    factors = (IntegerSurdPoly(den * q - num), IntegerSurdPoly(den * q + num))

    def sign_g(k: int) -> int:
        return factors[0].sign_at(k) * factors[1].sign_at(k)

    k_min = bound.k_start
    k_star = max(f.root_bound(start=k_min) for f in factors)
    if sign_g(k_star) < 0:
        raise NonConvergent("envelope is negative beyond its root bound")
    k0 = k_star
    k = k_star - 1
    while k >= k_min and sign_g(k) >= 0:
        k0 = k
        k -= 1
    return Envelope(q=q, k0=k0, ratio=ratio, majorant=bound)


# ----------------------------------------------------------------------
# summation


@dataclass
class SumResult:
    ball: ApproxReal
    terms_used: int


def _cleared(weight: tuple[WeightTerm, ...]) -> list:
    """Each weight term as integer lists ``(a, b, c, atom)``: ``coeff = (a + b*sqrt(d)) / c``.

    A sqrt(d) in a coefficient's denominator is rationalised once by its
    conjugate; ``b`` is None when the coefficient is rational.
    """
    out = []
    for coeff, atom in weight:
        num, den = coeff.num, coeff.den
        if any(QuadElem.of(x).b for x in den.coeffs):
            conj = den.map_coeffs(lambda x: QuadElem.of(x).conjugate())
            num, den = num * conj, den * conj
        num, den = IntegerSurdPoly(num), IntegerSurdPoly(den)
        # coeff = (A + B*sqrt(d)) * den.scale / (C * num.scale)
        a = [x * den.scale for x in num.a]
        b = [x * den.scale for x in num.b] if any(num.b) else None
        out.append((a, b, [x * num.scale for x in den.a], atom))
    return out


class _TermStream:
    """Term balls t_k produced incrementally at the ambient precision.

    Each term is ``W(k) * S_k * base^k`` with the exact scale
    ``S_k = kernel(k)^(+-1) / D(k)`` carried as a plain integer pair: the
    kernel is advanced by its integer term ratio and D(k) is an integer
    product, so no Fraction (and no gcd on the huge kernel) is built.

    Every weight takes one path: each weight term's coefficient, cleared to
    integer polynomials once per stream, times its atom's exact
    :class:`HarmonicCache` value, so W(k) is ``(A + B*sqrt(d)) / C`` for
    three integers.  The majorant's weight U is cleared the same way, and
    :meth:`majorant_term` bounds ``|U(k) * S_k * base^k|`` for the last
    term from the same integers.

    For a rational base, base^k is an exact integer pair too, and the whole
    term is one integer ratio rounded once by :meth:`ApproxReal.from_ratio`;
    no ball is multiplied per term.

    For a quadratic base the power stays a *ball*, multiplied by the base
    ball each step: when the conjugate of the base is much larger than the
    base itself (huge integer coefficients, small magnitude), the exact
    power cancels catastrophically on embedding, while the incremental ball
    only accrues a few ulp of relative radius per step.  The term is then
    ``(ratio(A*S_k) + ratio(B*S_k)*sqrt(d)) * power``, with the sqrt(d) ball
    computed once per stream.
    """

    def __init__(self, sdef: SeriesDef, majorant: SeriesDef):
        self.sdef = sdef
        self.k = k0 = sdef.k_start
        d = sdef.field_d
        self.root = ApproxReal.from_int(d).sqrt() if d > 1 else None
        # self.power is base^k: an exact (num, den) pair for a rational base, else a ball
        if sdef.base_value.is_rational:
            beta = sdef.base_value.a
            self.base_pair = (beta.numerator, beta.denominator)
            self.power = (beta.numerator**k0, beta.denominator**k0)
        else:
            self.base_pair = None
            x = sdef.base_root
            root_ball = ApproxReal.from_fraction(x.a) + ApproxReal.from_fraction(x.b) * self.root
            self.base_ball = root_ball**sdef.base_exp
            self.power = self.base_ball**k0
        self.kernel_val = sdef.kernel.value(k0) if sdef.kernel else 1
        if sdef.kernel:
            a, b = sdef.kernel.ratio_polys()
            self.ratio_num = [int(c) for c in a.coeffs]
            self.ratio_den = [int(c) for c in b.coeffs]
        self.harm = HarmonicCache()
        self.weight_terms = _cleared(sdef.weight)
        self.majorant_terms = _cleared(majorant.weight)
        self.last = None  # (k, S_k*base^k as num, den, power ball or None)

    def _ball(self, terms: list, k: int, num: int, den: int, power) -> ApproxReal:
        """The ball of ``sum_i coeff_i(k) * atom_i(k) * num/den * power``."""
        wa, wb, wc = 0, 0, 1  # the weight is (wa + wb*sqrt(d)) / wc
        for a, b, c, atom in terms:
            x, y, n = horner(a, k), horner(b, k) if b else 0, horner(c, k)
            if atom is not None:
                h = self.harm.value(atom.order, atom.index_at(k))
                x, y, n = x * h.numerator, y * h.numerator, n * h.denominator
            wa, wb, wc = wa * n + x * wc, wb * n + y * wc, wc * n
        t = ApproxReal.from_ratio(wa * num, wc * den)
        if wb:
            t = t + ApproxReal.from_ratio(wb * num, wc * den) * self.root
        return t if power is None else t * power

    def next_term(self) -> tuple[int, ApproxReal]:
        sdef, k = self.sdef, self.k
        num, den = 1, den_value(sdef.den_factors, k)
        if sdef.kernel_pos is Position.NUMERATOR:
            num = self.kernel_val
        else:
            den *= self.kernel_val
        power = None
        if self.base_pair is not None:
            (pn, pd), (bn, bd) = self.power, self.base_pair
            num, den = num * pn, den * pd
            self.power = (pn * bn, pd * bd)
        else:
            power = self.power
            self.power = power * self.base_ball
        self.last = (k, num, den, power)
        t = self._ball(self.weight_terms, *self.last)
        if sdef.kernel is not None:
            self.kernel_val = (
                self.kernel_val * horner(self.ratio_num, k)
            ) // horner(self.ratio_den, k)
        self.k += 1
        return k, t

    def majorant_term(self) -> mpf:
        """An upper bound on ``|U(k) * S_k * base^k|`` for the last term's k."""
        return self._ball(self.majorant_terms, *self.last).upper_abs()


def sum_series(
    sdef: SeriesDef,
    digits: int,
    envelope: Envelope,
    budget_terms: Optional[int] = None,
) -> SumResult:
    """Sum the series to ~`digits` absolute decimal digits at the ambient precision.

    The tail is the majorant bound of the ``envelope`` from
    :func:`certify_envelope`, by the stop rule of the module docstring.
    """
    budget = budget_terms if budget_terms is not None else DEFAULT_BUDGET
    qf = envelope.q / (1 - envelope.q)  # exact; q < 1 guaranteed by certify_envelope
    q_over = mpmath.make_mpf(mpmath.libmp.from_rational(qf.numerator, qf.denominator, 64, "c"))
    eps = mpf(10) ** (-(digits + 3))

    def tail(x):
        return mpmath.fmul(x, q_over, prec=64, rounding="c")

    stream = _TermStream(sdef, envelope.majorant)
    acc = ApproxReal.from_int(0)
    terms = 0
    while True:
        k, tb = stream.next_term()
        acc = acc + tb
        terms += 1
        if k >= envelope.k0 and tail(tb.upper_abs()) <= eps:
            bound = tail(stream.majorant_term())
            if bound <= eps:
                return SumResult(acc + ApproxReal(mpf(0), bound), terms)
        if terms >= budget:
            raise BudgetExceeded(terms, "term budget exhausted")


def evaluate(sdef: SeriesDef, digits: int) -> SumResult:
    """Attempt loop around sum_series: doubles precision until the ball is tight.

    Raises :class:`NonConvergent` when the series has no envelope.
    """
    envelope = certify_envelope(sdef)
    res: Optional[SumResult] = None
    for attempt in range(MAX_ATTEMPTS):
        with working_bits(attempt_bits(digits + 5, attempt)):
            res = sum_series(sdef, digits, envelope)
        if res.ball.to_digits() >= digits:
            break
    return res


# ----------------------------------------------------------------------
# verification


@dataclass
class VerificationReport:
    status: Status
    digits_requested: int
    digits_matched: int
    terms_used: int
    tail_mode: str  # "certified", or "none" when the series has no envelope
    elapsed: float
    attempts: int
    lhs_str: str = ""
    residual_str: str = ""
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status is Status.PASS


def _magnitude_digits(x) -> int:
    """floor(-log10(x)) for a positive mpf upper bound; huge when x == 0."""
    if x == 0:
        return DIGITS_INF
    with working_bits(64):
        return int(mpmath.floor(-mpmath.log(x, 10)))


def verify_identity(
    sdef: SeriesDef,
    rhs: ClosedForm,
    digits: int,
    budget_terms: Optional[int] = None,
    lhs_scale: Optional[ClosedForm] = None,
) -> VerificationReport:
    """Compare the series against its closed form at the requested digits."""
    t0 = time.monotonic()

    def report(
        status, attempts, matched=0, res=None, terms=0, tail="certified", lhs=None, residual=None,
        note="",
    ):
        return VerificationReport(
            status=status,
            digits_requested=digits,
            digits_matched=matched,
            terms_used=res.terms_used if res else terms,
            tail_mode=tail,
            elapsed=time.monotonic() - t0,
            attempts=attempts,
            lhs_str="" if lhs is None else mpmath.nstr(lhs.mid, digits + 5),
            residual_str="" if residual is None else mpmath.nstr(residual.mid, 8),
            note=note,
        )

    try:
        envelope = certify_envelope(sdef)
    except NonConvergent as e:
        return report(Status.INCONCLUSIVE, 0, tail="none", note=f"no certified tail: {e}")

    for attempt in range(MAX_ATTEMPTS):
        bits = attempt_bits(digits + 8, attempt)
        try:
            with working_bits(bits):
                res = sum_series(sdef, digits + 5, envelope, budget_terms=budget_terms)
                lhs = res.ball
                if lhs_scale is not None:
                    lhs = lhs * lhs_scale.eval_ball(digits + 10)
                rhs_ball = rhs.eval_ball(digits + 10)
                residual = lhs - rhs_ball
        except BudgetExceeded as e:
            return report(Status.INCONCLUSIVE, attempt + 1, terms=e.terms_used, note=str(e))

        ua = residual.upper_abs()
        tol = mpf(10) ** (-digits)
        if residual.contains_zero() and ua <= tol:
            matched = min(_magnitude_digits(ua), DIGITS_INF)
            return report(Status.PASS, attempt + 1, matched, res, lhs=lhs, residual=residual)
        if residual.excludes_zero():
            matched = max(0, _magnitude_digits(ua))
            return report(
                Status.FAIL, attempt + 1, matched, res, lhs=lhs, residual=residual,
                note="residual ball excludes zero",
            )
    return report(
        Status.INCONCLUSIVE, MAX_ATTEMPTS, max(0, residual.to_digits()), res,
        note="residual ball still straddles zero at max precision",
    )
