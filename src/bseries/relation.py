"""Integer-relation detection (PSLQ) over certified ball inputs.

Given values v_1..v_n as balls, ``pslq`` searches for a nonzero integer
vector c with sum(c_i * v_i) = 0.  ``mpmath.pslq`` (Bailey's PSLQ; see
Ferguson, Bailey & Arno, *Analysis of PSLQ*, Math. Comp. 1999) runs on the
ball midpoints, scaled by the largest, and only *proposes* a candidate
with every |c_i| <= 2^max_coeff_bits.  Acceptance is decided against the
original enclosures by one rule:

* the residual ball sum(c_i * v_i) must contain zero, so a relation whose
  residual provably exceeds the input radii is never reported;
* its magnitude bound must sit at least 10 + ceil(sum log10|c_i|) decimal
  digits (over the nonzero c_i) below the input scale.  Every coefficient
  digit a relation spends must be visible in the data on top of a margin
  of ten digits, which rules out wide balls vacuously containing zero and
  large coefficients fitted to the noise of thin inputs.

A tight ball around zero is accepted as a unit relation without a search.
The search runs at the digits to which the scaled midpoints are known, the
least ``log10(scale / radius)`` over the inputs (capped at 400), so an input
far below the largest keeps the digits its own ball certifies.  An input
below ``tol/100`` of the largest, where ``mpmath.pslq`` would stop without
searching, is reported as "no relation" with that reason.  The balls carry
their own exponents.  This module alone imports mpmath: ``pslq`` builds
each midpoint as the exact mpf of ``s * 2^-p`` from its ball's integers, and
only ``mpmath.pslq`` on them runs under ``mp.workprec`` at those digits.

Reliable discovery wants roughly 2 * max_coeff_bits * n / 3.32 certified
digits of input (each coefficient digit consumed by the relation must be
visible in the data, times a safety factor of two); ``shortfall_warning``
reports a human-readable warning when inputs are thinner than that — by
design a warning, not an error, since thin inputs still fail safe: the
acceptance rule refuses any candidate whose coefficients spend more
digits than the data certify.

``discover_rhs`` layers right-hand-side reconstruction on top: it runs
pslq on [S, b_1..b_m] for a basis of closed-form constants, solves for S,
and re-verifies the proposed combination with the basis re-evaluated at
doubled digits before accepting; each ``eval_ball`` takes its precision
from the digits it is asked for.  A certified relation among the basis
alone raises ``ValueError`` naming it, since a dependent basis can hide
a combination that does hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from .closedform import ClosedForm, render_closed_form
from .precision import DIGITS_INF, ApproxReal, digits_to_bits, log10_floor

__all__ = [
    "RelationResult",
    "required_digits",
    "shortfall_warning",
    "pslq",
    "discover_rhs",
]

_MAX_WORK_DIGITS = 400
_CONFIDENCE_FLOOR = 10


def required_digits(n: int, max_coeff_bits: int) -> int:
    """Certified digits wanted for a reliable n-value search."""
    return math.ceil(2 * max_coeff_bits * n / 3.32)


def shortfall_warning(values: Sequence[ApproxReal], max_coeff_bits: int) -> Optional[str]:
    """Warning text when the inputs are thinner than the sufficiency rule."""
    n = len(values)
    need = required_digits(n, max_coeff_bits)
    have = min(v.to_digits() for v in values)
    if have >= need:
        return None
    return (
        f"inputs certified to {have} digits, below the ~{need} wanted for "
        f"{n} values at {max_coeff_bits} coefficient bits; a genuine relation "
        f"may be missed (spurious ones are still rejected)"
    )


@dataclass(frozen=True)
class RelationResult:
    """Outcome of a relation search.

    ``coefficients`` is None when no relation was certified; ``residual``
    is then an uninformative ball (zero center, input-scale radius) and
    ``note`` says why the search stopped.
    """

    coefficients: Optional[tuple[int, ...]]
    residual: ApproxReal
    confidence_digits: int
    note: str = ""

    @property
    def found(self) -> bool:
        return self.coefficients is not None


def _scale_of(values: Sequence[ApproxReal]) -> Fraction:
    return max(v.upper_abs() for v in values)


def _confidence(residual: ApproxReal, scale: Fraction) -> int:
    """floor(log10(scale / |residual|)) over the residual's magnitude bound, at least 0."""
    up = residual.upper_abs()
    if up == 0:
        return DIGITS_INF
    if scale == 0:
        return 0
    q = scale / up
    return max(0, log10_floor(q.numerator, q.denominator))


def _residual_ball(values: Sequence[ApproxReal], coeffs: Sequence[int]) -> ApproxReal:
    """sum(c_i * v_i), exactly: integer multiples and sums of balls round nothing."""
    total = ApproxReal.exact_zero()
    for c, v in zip(coeffs, values):
        total = total + c * v
    return total


def _normalize(coeffs: list[int]) -> tuple[int, ...]:
    """Divide out the gcd and make the first nonzero coefficient positive."""
    g = math.gcd(*coeffs)
    if next(c for c in coeffs if c) < 0:
        g = -g
    return tuple(c // g for c in coeffs)


def _none_result(values: Sequence[ApproxReal], note: str) -> RelationResult:
    v = max(values, key=ApproxReal.upper_abs)
    return RelationResult(None, ApproxReal(0, v.p, abs(v.s) + v.units), 0, note)


def _digits_spent(coeffs: Sequence[int]) -> int:
    """ceil(sum log10|c_i|) over the nonzero c_i, computed exactly."""
    prod = 1
    for c in coeffs:
        if c:
            prod *= abs(c)
    return len(str(prod - 1)) if prod > 1 else 0


def _certify(values: Sequence[ApproxReal], coeffs: list[int]) -> RelationResult:
    """Ball-arithmetic acceptance of a float-proposed candidate."""
    cand = _normalize(coeffs)
    residual = _residual_ball(values, cand)
    if residual.excludes_zero():
        return _none_result(values, "candidate residual excludes zero")
    conf = _confidence(residual, _scale_of(values))
    need = _CONFIDENCE_FLOOR + _digits_spent(cand)
    if conf < need:
        return _none_result(
            values, f"candidate residual only {conf} digits below the input scale, {need} wanted"
        )
    return RelationResult(cand, residual, conf, "accepted")


def pslq(values: Sequence[ApproxReal], max_coeff_bits: int = 24) -> RelationResult:
    """Search for an integer relation among ball-certified values.

    Returns a RelationResult; ``coefficients`` is None when
    ``mpmath.pslq`` proposes nothing with every |c_i| <= 2^max_coeff_bits,
    an input is too small relative to the largest for it to search, or
    the proposed candidate fails the ball certification.
    """
    vals = list(values)
    n = len(vals)
    if n < 2:
        raise ValueError("need at least two values")
    if max_coeff_bits < 1:
        raise ValueError("max_coeff_bits must be positive")

    scale = _scale_of(vals)
    # An input indistinguishable from zero is already a unit relation —
    # provided the ball is *tight* around zero, not merely wide.
    for i, v in enumerate(vals):
        if not v.excludes_zero():
            unit = [0] * n
            unit[i] = 1
            conf = _confidence(v, scale)
            if conf >= _CONFIDENCE_FLOOR:
                return RelationResult(tuple(unit), v, conf, f"input {i} is zero")
            return _none_result(vals, f"input {i} straddles zero too widely")

    # Scaled by the largest, an input is known to floor(log10(scale/rad))
    # digits: a small input with a thin ball keeps every digit of its own.
    sn, sd = scale.numerator, scale.denominator
    known = [log10_floor(sn << v.p, sd * v.units) for v in vals if v.units]
    work_digits = max(15, min(known + [_MAX_WORK_DIGITS]))
    with mp.workprec(digits_to_bits(work_digits)):
        mids = [mpmath.make_mpf(from_man_exp(v.s, -v.p)) for v in vals]
        top = max(abs(m) for m in mids)
        mids = [m / top for m in mids]
        # The dip threshold sits at the certified level of the inputs,
        # well above the float noise floor.
        tol_digits = max(work_digits - 6, 8)
        tol = mpf(10) ** -tol_digits
        # mpmath.pslq returns None without searching when an input is below
        # tol/100 relative to the largest.
        small = [i for i, m in enumerate(mids) if abs(m) < tol / 100]
        if small:
            return _none_result(
                vals,
                f"input {small[0]} is below 1e-{tol_digits + 2} of the largest "
                f"at {work_digits} digits; pslq does not search",
            )
        cand = mpmath.pslq(
            mids,
            tol=tol,
            maxcoeff=(1 << max_coeff_bits) + 1,
            maxsteps=16 * n * n * max_coeff_bits,
        )
    if cand is None:
        return _none_result(vals, f"no relation with coefficients up to 2^{max_coeff_bits}")
    return _certify(vals, cand)


def discover_rhs(
    series_value: ApproxReal,
    basis: Sequence[ClosedForm],
    max_coeff_bits: int = 24,
) -> Optional[ClosedForm]:
    """Reconstruct series_value as a rational combination of basis constants.

    Runs pslq on [S, b_1..b_m]; a hit c_0*S + sum c_j*b_j = 0 with
    c_0 != 0 proposes S = sum (-c_j/c_0)*b_j, which is accepted only
    after re-evaluating the combination with every basis constant at
    doubled precision and checking the residual against S's ball again.
    Returns None when no relation is certified.  Raises ``ValueError``
    naming the relation when the certified one has c_0 = 0: the basis is
    dependent, and S may lie in its span unseen.
    """
    basis = list(basis)
    if not basis:
        return None
    d = max(15, min(series_value.to_digits(), _MAX_WORK_DIGITS))
    bballs = [cf.eval_ball(d + 10) for cf in basis]
    res = pslq([series_value] + bballs, max_coeff_bits)
    if not res.found:
        return None
    c0 = res.coefficients[0]
    if c0 == 0:
        relation = " ".join(
            f"{'-' if cj < 0 else '+'} {abs(cj)}*({render_closed_form(cf)})"
            for cj, cf in zip(res.coefficients[1:], basis)
            if cj
        ).removeprefix("+ ")
        raise ValueError(f"basis is dependent: {relation} = 0")
    combo = ClosedForm.zero()
    for cj, cf in zip(res.coefficients[1:], basis):
        if cj:
            combo = combo + ClosedForm.const(Fraction(-cj, c0)) * cf
    # re-verification: basis at doubled precision, residual vs S's ball
    resid2 = series_value - combo.eval_ball(2 * d + 20)
    if resid2.excludes_zero():
        return None
    if _confidence(resid2, _scale_of([series_value] + bballs)) < _CONFIDENCE_FLOOR:
        return None
    return combo
