"""Series summation with certified or heuristic tails, and identity verification.

Certified mode proves a geometric envelope for the term ratio first: with
``rho(k) = t_{k+1}/t_k`` (an exact rational function over the quadratic
field) and a rational ``q < 1`` slightly above the limiting ratio
``L = |base| * growth^(+-1)``, the inequality ``|rho(k)| <= q`` for every
integer ``k >= k0`` is certified exactly — the polynomial

    G(k) = q^2 * den(rho)^2 - num(rho)^2

has no real root from the first integer ``K`` at which a lower bound on
its leading coefficient times ``K^n`` exceeds the sum of upper bounds on
its other (embedded) coefficients times ``K^i``, and is positive there;
its exact sign is then checked at each integer from ``K`` down to the
summation start, which gives ``k0``.  The tail after a term ``t_m`` with
``m >= k0`` is then at most ``|t_m| * q / (1 - q)``, added as an explicit
ball radius.

Heuristic mode (for weights with harmonic atoms, or on request) stops after
32 consecutive non-increasing terms below ``10^-(digits+6)`` and charges a
``64 * |t_last|`` slack; the summed prefix is still exact-ball arithmetic,
only the tail allowance is unproven.

``select_envelope`` is the one place a ``mode`` ("auto", "certified" or
"heuristic") is resolved, into an envelope or None; ``sum_series`` takes
that envelope and nothing else decides the tail.

Verification at D digits: PASS iff the residual ball ``LHS - RHS`` contains
zero and its magnitude upper bound is at most ``10^-D``; FAIL iff the ball
excludes zero (a proof of discrepancy, up to the tail caveat in heuristic
mode); otherwise the working precision is doubled, up to
``precision.MAX_ATTEMPTS`` attempts, and INCONCLUSIVE is reported.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath import mpf

from .closedform import ClosedForm
from .exactnum import IntegerSurdPoly, QuadElem, RatFun, horner
from .precision import DIGITS_INF, MAX_ATTEMPTS, ApproxReal, attempt_bits, working_bits
from .seriesmodel import HarmonicCache, NotHypergeometric, Position, SeriesDef, den_value

__all__ = [
    "NonConvergent",
    "BudgetExceeded",
    "Envelope",
    "certify_envelope",
    "select_envelope",
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
    """The term budget ran out; ``tail_mode`` is the tail the summation ran with."""

    def __init__(self, terms_used: int, tail_mode: str, message: str):
        super().__init__(message)
        self.terms_used = terms_used
        self.tail_mode = tail_mode


class Status(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


# ----------------------------------------------------------------------
# envelope certification


@dataclass(frozen=True)
class Envelope:
    q: Fraction
    k0: int
    ratio: RatFun


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


def certify_envelope(sdef: SeriesDef) -> Envelope:
    """Prove |t_{k+1}/t_k| <= q < 1 for all k >= k0 (exact arithmetic only)."""
    ratio = sdef.term_ratio()  # raises NotHypergeometric for harmonic weights
    g = _growth(sdef)
    # L = |base| * g >= 1  <=>  base^2 * g^2 - 1 >= 0
    if (sdef.base_value * sdef.base_value * (g * g) - 1).sign() >= 0:
        raise NonConvergent("limiting term ratio is >= 1")

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

    num, den = ratio.num, ratio.den
    big_g = IntegerSurdPoly(den * den * (q * q) - num * num)  # want G(k) >= 0

    k_min = sdef.k_start
    k_star = big_g.root_bound(start=k_min)
    if big_g.sign_at(k_star) < 0:
        raise NonConvergent("envelope is negative beyond its root bound")
    k0 = k_star
    k = k_star - 1
    while k >= k_min and big_g.sign_at(k) >= 0:
        k0 = k
        k -= 1
    return Envelope(q=q, k0=k0, ratio=ratio)


def select_envelope(sdef: SeriesDef, mode: str) -> Optional[Envelope]:
    """The envelope a ``mode`` asks for; None means a heuristic tail.

    "heuristic" never certifies; "auto" falls back to None when no envelope
    exists (harmonic weights, or a limiting ratio >= 1); "certified"
    re-raises NotHypergeometric or NonConvergent instead.
    """
    if mode == "heuristic":
        return None
    if mode not in ("auto", "certified"):
        raise ValueError(f"unknown mode {mode!r}")
    try:
        return certify_envelope(sdef)
    except (NotHypergeometric, NonConvergent):
        if mode == "certified":
            raise
        return None


# ----------------------------------------------------------------------
# summation


@dataclass
class SumResult:
    ball: ApproxReal
    terms_used: int
    tail_mode: str  # "certified" | "heuristic"
    q: Optional[Fraction] = None
    k_last: int = 0


class _TermStream:
    """Term balls t_k produced incrementally at the ambient precision.

    Each term is ``W(k) * S_k * base^k`` with the exact scale
    ``S_k = kernel(k)^(+-1) / D(k)`` carried as a plain integer pair: the
    kernel is advanced by its integer term ratio and D(k) is an integer
    product, so no Fraction (and no gcd on the huge kernel) is built.  An
    atom-free weight ``W = (A + B*sqrt(d)) / C`` is evaluated from integer
    polynomials cleared of denominators once per stream.

    For a rational base, base^k is an exact integer pair too, and the whole
    term is one integer ratio rounded once by :meth:`ApproxReal.from_ratio`;
    no ball is multiplied per term.

    For a quadratic base the power stays a *ball*, multiplied by the base
    ball each step: when the conjugate of the base is much larger than the
    base itself (huge integer coefficients, small magnitude), the exact
    power cancels catastrophically on embedding, while the incremental ball
    only accrues a few ulp of relative radius per step.  The term is then
    ``(ratio(a*S_k) + ratio(b*S_k)*sqrt(d)) * power`` for ``W = a + b*sqrt(d)``,
    with the sqrt(d) ball computed once per stream.
    """

    def __init__(self, sdef: SeriesDef):
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
        self.harm = HarmonicCache() if sdef.has_harmonic() else None
        self.weight_polys = None
        if self.harm is None:
            w = sdef.weight_ratfun()
            num, den = IntegerSurdPoly(w.num), IntegerSurdPoly(w.den)
            if not any(den.b):
                # W = (A + B*sqrt(d)) * den.scale / (C * num.scale)
                self.weight_polys = (
                    [c * den.scale for c in num.a],
                    [c * den.scale for c in num.b] if any(num.b) else None,
                    [c * num.scale for c in den.a],
                )

    def _weight(self, k: int) -> tuple[int, int, int, int]:
        """W(k) = a_num/a_den + (b_num/b_den)*sqrt(d) as four integers."""
        if self.weight_polys is not None:
            a, b, c = self.weight_polys
            den = horner(c, k)
            return horner(a, k), den, horner(b, k) if b else 0, den
        w = self.sdef.weight_value(k, self.harm)
        a, b = (w.a, w.b) if isinstance(w, QuadElem) else (w, Fraction(0))
        return a.numerator, a.denominator, b.numerator, b.denominator

    def next_term(self) -> tuple[int, ApproxReal]:
        sdef, k = self.sdef, self.k
        num, den = 1, den_value(sdef.den_factors, k)
        if sdef.kernel_pos is Position.NUMERATOR:
            num = self.kernel_val
        else:
            den *= self.kernel_val
        if self.base_pair is not None:
            (pn, pd), (bn, bd) = self.power, self.base_pair
            num, den = num * pn, den * pd
            self.power = (pn * bn, pd * bd)
        a_num, a_den, b_num, b_den = self._weight(k)
        t = ApproxReal.from_ratio(a_num * num, a_den * den)
        if b_num:
            t = t + ApproxReal.from_ratio(b_num * num, b_den * den) * self.root
        if self.base_pair is None:
            t = t * self.power
            self.power = self.power * self.base_ball
        if sdef.kernel is not None:
            self.kernel_val = (
                self.kernel_val * horner(self.ratio_num, k)
            ) // horner(self.ratio_den, k)
        self.k += 1
        return k, t


def sum_series(
    sdef: SeriesDef,
    digits: int,
    envelope: Optional[Envelope] = None,
    budget_terms: Optional[int] = None,
) -> SumResult:
    """Sum the series to ~`digits` absolute decimal digits at the ambient precision.

    With an ``envelope`` (from :func:`certify_envelope`) the tail is the
    certified bound ``|t_k| * q/(1 - q)``, taken once k >= k0 and it is
    below ``10^-(digits+3)``; ``envelope=None`` means a heuristic tail.
    """
    budget = budget_terms if budget_terms is not None else DEFAULT_BUDGET
    if envelope is not None:
        qf = envelope.q / (1 - envelope.q)  # exact; q < 1 guaranteed by certify_envelope
        q_over = mpmath.make_mpf(
            mpmath.libmp.from_rational(qf.numerator, qf.denominator, 64, "c")
        )
        eps = mpf(10) ** (-(digits + 3))
    else:
        threshold = mpf(10) ** (-(digits + 6))
        streak = 0
        prev_abs = None

    stream = _TermStream(sdef)
    acc = ApproxReal.from_int(0)
    terms = 0
    while True:
        k, tb = stream.next_term()
        acc = acc + tb
        terms += 1
        if envelope is None:
            cur = tb.upper_abs()
            if cur <= threshold and (prev_abs is None or cur <= prev_abs):
                streak += 1
            else:
                streak = 0
            prev_abs = cur
            if streak >= 32:
                slack = mpmath.fmul(cur, 64, prec=64, rounding="c")
                acc = acc + ApproxReal(mpf(0), slack)
                return SumResult(acc, terms, "heuristic", k_last=k)
        elif k >= envelope.k0:
            tail = mpmath.fmul(tb.upper_abs(), q_over, prec=64, rounding="c")
            if tail <= eps:
                acc = acc + ApproxReal(mpf(0), tail)
                return SumResult(acc, terms, "certified", q=envelope.q, k_last=k)
        if terms >= budget:
            tail_mode = "heuristic" if envelope is None else "certified"
            raise BudgetExceeded(terms, tail_mode, f"term budget exhausted in {tail_mode} mode")


def evaluate(
    sdef: SeriesDef,
    digits: int,
    mode: str = "auto",
    budget_terms: Optional[int] = None,
) -> SumResult:
    """Attempt loop around sum_series: doubles precision until the ball is tight."""
    envelope = select_envelope(sdef, mode)
    res: Optional[SumResult] = None
    for attempt in range(MAX_ATTEMPTS):
        with working_bits(attempt_bits(digits + 5, attempt)):
            res = sum_series(sdef, digits, envelope=envelope, budget_terms=budget_terms)
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
    tail_mode: str
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
    mode: str = "auto",
    budget_terms: Optional[int] = None,
    lhs_scale: Optional[ClosedForm] = None,
) -> VerificationReport:
    """Compare the series against its closed form at the requested digits."""
    t0 = time.monotonic()

    def report(
        status, attempts, matched=0, res=None, terms=0, tail=mode, lhs=None, residual=None, note=""
    ):
        return VerificationReport(
            status=status,
            digits_requested=digits,
            digits_matched=matched,
            terms_used=res.terms_used if res else terms,
            tail_mode=res.tail_mode if res else tail,
            elapsed=time.monotonic() - t0,
            attempts=attempts,
            lhs_str="" if lhs is None else mpmath.nstr(lhs.mid, digits + 5),
            residual_str="" if residual is None else mpmath.nstr(residual.mid, 8),
            note=note,
        )

    try:
        envelope = select_envelope(sdef, mode)
    except (NotHypergeometric, NonConvergent) as e:
        return report(Status.INCONCLUSIVE, 0, note=f"certified summation unavailable: {e}")

    for attempt in range(MAX_ATTEMPTS):
        bits = attempt_bits(digits + 8, attempt)
        try:
            with working_bits(bits):
                res = sum_series(sdef, digits + 5, envelope=envelope, budget_terms=budget_terms)
                lhs = res.ball
                if lhs_scale is not None:
                    lhs = lhs * lhs_scale.eval_ball(digits + 10)
                rhs_ball = rhs.eval_ball(digits + 10)
                residual = lhs - rhs_ball
        except BudgetExceeded as e:
            return report(
                Status.INCONCLUSIVE, attempt + 1, terms=e.terms_used, tail=e.tail_mode, note=str(e)
            )

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
