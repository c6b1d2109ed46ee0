"""Exact symbolic verification of finite-sum proof certificates.

A *telescoping certificate* claims a closed form for every partial sum of
a kernel series:

    sum_{k=0}^{n}  W(x, k) * x^k * kernel(k)^s / D(k)  =  c0 + B(n),

    B(n) = P(n) * x^(n+e) * kernel(n)^s / Q(n),

where W is a polynomial weight (possibly genuinely bivariate in x and k),
D and Q are products of integer-linear factors, P is a polynomial, and
s = +1/-1 places the kernel in the numerator or denominator.  The base x
is either a formal indeterminate or a fixed rational specialized up front.

``check_telescoping`` proves or refutes the claim with no numerics at all.
The base case at n = 0 is an exact arithmetic identity.  The induction
step B(n) - B(n-1) = t(n) becomes a pure polynomial identity once the
kernel quotient kernel(n)/kernel(n-1) is replaced by its exact ratio
polynomials -- for C(6n,3n) that quotient is

    (6n-5)(6n-4)(6n-3)(6n-2)(6n-1)(6n) / ((3n-2)(3n-1)(3n))^2

-- and every denominator is cleared; the result must vanish coefficient by
coefficient in Q[x][n].  A failing check reports the nonzero witness.

A *derivative certificate* claims f'(t) = target(t) for
f(t) = f_rational(t) + c*arctan(t); it is checked by exact rational-
function differentiation plus pinned endpoint values at t = 0 and t = 1.

``check_beta_binomial`` verifies the factorial identity
(3k)!^2 / (6k+1)! = 1 / ((6k+1)*C(6k,3k)) pointwise with big integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .closedform import ClosedForm, parse_closed_form
from .exactnum import IntegerSurdPoly, Poly, QuadElem, RatFun
from .exprparse import ExprError, ast_as_int, eval_ast, parse_expr
from .kernels import KernelFamily, kernel_by_tag
from .seriesmodel import (
    Position,
    SeriesDef,
    Weight,
    WeightTerm,
    _RatFunCtx,
    check_den_factors,
    den_poly,
    den_value,
    parse_den_factors,
    parse_quad,
    parse_ratfun,
    render_poly,
)

__all__ = [
    "TelescopingCert",
    "DerivativeCert",
    "CertReport",
    "parse_telescoping",
    "parse_derivative",
    "check_telescoping",
    "check_derivative",
    "check_beta_binomial",
]


@dataclass(frozen=True)
class CertReport:
    """Outcome of a certificate check: PASS/FAIL plus a failure witness."""

    passed: bool
    detail: str
    witness: str = ""

    def __str__(self):
        s = "PASS" if self.passed else "FAIL"
        return f"{s}: {self.detail}" + (f" [witness: {self.witness}]" if self.witness else "")


# ----------------------------------------------------------------------
# the telescoping certificate


@dataclass(frozen=True)
class TelescopingCert:
    """Partial-sum closed form for a kernel series, in checkable form.

    ``weight_poly`` is a Poly in k; its coefficients are Fractions (or
    quadratic surds) when the base is a concrete rational, and Polys in x
    when the base is symbolic (``base is None``).  ``bound_num`` carries
    the boundary sign; ``bound_xoff`` is the e in x^(n+e).
    """

    kernel: KernelFamily
    kernel_pos: Position
    base: Optional[Fraction]
    weight_poly: Poly
    den_factors: tuple[tuple[int, int, int], ...]
    const: Fraction
    bound_num: Poly
    bound_den: Poly
    bound_xoff: int
    k_start: int = 0

    def __post_init__(self):
        if self.k_start != 0:
            raise ValueError("telescoping base case is fixed at k_start = 0")
        if not self.weight_poly:
            raise ValueError("zero weight")
        if not self.bound_num:
            raise ValueError("zero boundary numerator")
        if self.base is not None and self.base == 0:
            raise ValueError("zero base")
        check_den_factors(self.den_factors, self.k_start)
        # Q(n) must be nonzero at every index the boundary is evaluated at.
        j = IntegerSurdPoly(self.bound_den).integer_root()
        if j is not None:
            raise ValueError(f"boundary denominator vanishes at n = {j}")

    @property
    def symbolic(self) -> bool:
        return self.base is None

    # -- concrete-base views ------------------------------------------

    def specialize(self, x_value) -> "TelescopingCert":
        """Substitute a rational value for the formal base x."""
        if not self.symbolic:
            raise ValueError("base is already concrete")
        xv = Fraction(x_value)
        w = self.weight_poly.map_coeffs(lambda c: c(xv) if isinstance(c, Poly) else c)
        return TelescopingCert(
            kernel=self.kernel,
            kernel_pos=self.kernel_pos,
            base=xv,
            weight_poly=w,
            den_factors=self.den_factors,
            const=self.const,
            bound_num=self.bound_num,
            bound_den=self.bound_den,
            bound_xoff=self.bound_xoff,
        )

    def _need_concrete(self):
        if self.symbolic:
            raise ValueError("specialize the base before evaluating numerically")

    def partial_sum(self, n: int) -> QuadElem:
        """t_0 + ... + t_n exactly at the concrete base."""
        sdef = self.to_series()
        return sum((sdef.term_exact(k) for k in range(self.k_start, n + 1)), QuadElem(0))

    def boundary_value(self, n: int) -> Fraction:
        """B(n) exactly at the concrete base."""
        self._need_concrete()
        q = self.bound_den(Fraction(n))
        if not q:
            raise ZeroDivisionError(f"boundary denominator vanishes at n={n}")
        b = self.bound_num(Fraction(n)) * self.base ** (n + self.bound_xoff) / q
        kv = self.kernel.value(n)
        return b * kv if self.kernel_pos is Position.NUMERATOR else b / kv

    def closed_sum(self, n: int) -> Fraction:
        return self.const + self.boundary_value(n)

    def to_series(self) -> SeriesDef:
        """The infinite series this certificate's partial sums approach."""
        self._need_concrete()
        return SeriesDef(
            base_root=QuadElem.of(self.base),
            base_exp=1,
            kernel=self.kernel,
            kernel_pos=self.kernel_pos,
            weight=Weight.from_terms([WeightTerm(RatFun(self.weight_poly), None)]),
            den_factors=self.den_factors,
            k_start=self.k_start,
        )


# ----------------------------------------------------------------------
# parsing: weight in x and k, closed form in n and x


def _x_const(c) -> Poly:
    return Poly.const(Fraction(c), "x")


class _BivarCtx:
    """Evaluates an AST to a Poly in k whose coefficients are Polys in x."""

    def number(self, n: int):
        return Poly.const(_x_const(n), "k")

    def name(self, name: str):
        if name == "k":
            return Poly((_x_const(0), _x_const(1)), "k")
        if name == "x":
            return Poly.const(Poly.variable("x"), "k")
        raise ExprError(f"unknown name {name!r} in bivariate weight")

    def call(self, name, args):
        raise ExprError(f"function {name!r} not allowed in bivariate weight")

    def power(self, base, exp_ast):
        return base ** ast_as_int(exp_ast)


def _parse_weight_poly(s: str, symbolic: bool) -> Poly:
    if symbolic:
        try:
            v = eval_ast(parse_expr(s), _BivarCtx())
        except TypeError as exc:
            raise ExprError(f"weight must be polynomial in x and k: {s!r}") from exc
        if not isinstance(v, Poly) or v.var != "k":
            raise ExprError(f"weight must involve k: {s!r}")
        return v
    r = parse_ratfun(s, "k")
    if not r.is_polynomial():
        raise ExprError(f"weight must be a polynomial in k: {s!r}")
    return r.num


def _rename(p: Poly, var: str) -> Poly:
    return Poly(p.coeffs, var)


def _flatten_sum(node, sign=1, out=None):
    if out is None:
        out = []
    if node[0] == "bin" and node[1] in "+-":
        _flatten_sum(node[2], sign, out)
        _flatten_sum(node[3], sign if node[1] == "+" else -sign, out)
    elif node[0] == "neg":
        _flatten_sum(node[1], -sign, out)
    else:
        out.append((sign, node))
    return out


def _flatten_product(node, inv=False, out=None, sign=1):
    if out is None:
        out = []
    if node[0] == "bin" and node[1] in "*/":
        sign = _flatten_product(node[2], inv, out, sign)
        sign = _flatten_product(node[3], inv or node[1] == "/", out, sign)
    elif node[0] == "neg":
        sign = -_flatten_product(node[1], inv, out, sign)
    else:
        out.append((node, inv))
    return sign


def _mentions(node, kind, name) -> bool:
    if node[0] == kind and node[1] == name:
        return True
    for child in node[1:]:
        if isinstance(child, tuple) and child and isinstance(child[0], str):
            if _mentions(child, kind, name):
                return True
        elif isinstance(child, tuple):  # call argument tuples
            if any(_mentions(a, kind, name) for a in child):
                return True
    return False


def _linear_n_poly(node) -> Poly:
    r = parse_ratfun_ast(node)
    if not r.is_polynomial():
        raise ExprError("expected a polynomial in n")
    return r.num


def parse_ratfun_ast(node) -> RatFun:
    return eval_ast(node, _RatFunCtx("n"))


def _x_exponent_offset(exp_ast) -> int:
    """Offset e from an x-power exponent of the form n + e."""
    r = parse_ratfun_ast(exp_ast)
    if not r.is_polynomial():
        raise ExprError("x exponent must be polynomial in n")
    p = r.num.map_coeffs(lambda c: c / r.den.coeff(0))
    if p.degree() != 1 or p.coeff(1) != 1 or p.coeff(0).denominator != 1:
        raise ExprError("x exponent must have the form n + integer")
    return int(p.coeff(0))


def _binom_pair(args) -> tuple[int, int]:
    if len(args) != 2:
        raise ExprError("binom takes two arguments")
    pq = []
    for a in args:
        p = _linear_n_poly(a)
        if p.degree() != 1 or p.coeff(0) != 0:
            raise ExprError("binom arguments must be integer multiples of n")
        c = p.coeff(1)
        if c.denominator != 1 or c <= 0:
            raise ExprError("binom arguments must be positive integer multiples of n")
        pq.append(int(c))
    return pq[0], pq[1]


def _parse_closed_form_rhs(
    src: str, kernel: KernelFamily, kernel_pos: Position
) -> tuple[Fraction, Poly, Poly, int]:
    """Split ``c0 + P(n)*x^(n+e)/(Q(n)*kernel(n))`` into its parts.

    Returns (const, bound_num, bound_den, x_offset) with polynomials in k
    and the boundary sign folded into bound_num.  The kernel factor must
    match the certificate kernel and sit on the same side.
    """
    const = Fraction(0)
    boundary = None
    for sign, term in _flatten_sum(parse_expr(src)):
        if _mentions(term, "name", "x") or _mentions(term, "call", "binom"):
            if boundary is not None:
                raise ExprError("closed form must have exactly one boundary term")
            boundary = (sign, term)
        else:
            r = parse_ratfun_ast(term)
            if r.num.degree() > 0 or r.den.degree() > 0:
                raise ExprError("non-boundary part of the closed form must be constant")
            const += sign * r.num.coeff(0) / r.den.coeff(0)
    if boundary is None:
        raise ExprError("closed form lacks a boundary term (no x power found)")
    sign, term = boundary

    factors: list[tuple[tuple, bool]] = []
    sign *= _flatten_product(term, out=factors)
    num = RatFun.const(Fraction(sign), "n")
    x_off = None
    binom_pairs: list[tuple[int, int]] = []
    binom_inv = None
    for node, inv in factors:
        if node[0] == "call" and node[1] == "binom":
            binom_pairs.append(_binom_pair(node[2]))
            if binom_inv is None:
                binom_inv = inv
            elif binom_inv != inv:
                raise ExprError("kernel factors must all sit on one side of the fraction")
            continue
        if node[0] == "pow" and node[1] == ("name", "x"):
            if inv:
                raise ExprError("x power must sit in the numerator of the boundary term")
            if x_off is not None:
                raise ExprError("multiple x powers in the boundary term")
            x_off = _x_exponent_offset(node[2])
            continue
        if node[0] == "name" and node[1] == "x":
            raise ExprError("write the base power as x^n or x^(n + e)")
        r = parse_ratfun_ast(node)
        num = num / r if inv else num * r
    if x_off is None:
        raise ExprError("boundary term lacks an x power")
    if sorted(binom_pairs) != sorted(kernel.pairs):
        raise ExprError(f"boundary kernel {binom_pairs} does not match {kernel.tag!r}")
    want_inv = kernel_pos is Position.DENOMINATOR
    if binom_inv != want_inv:
        raise ExprError("boundary kernel is on the wrong side for the summand position")
    return const, _rename(num.num, "k"), _rename(num.den, "k"), x_off


def parse_telescoping(
    *,
    kernel: str,
    position: str,
    base: str,
    weight: str,
    den: str,
    closed_form: str,
    k_start: int = 0,
) -> TelescopingCert:
    """Build a certificate from its textual record fields."""
    fam = kernel_by_tag(kernel)
    pos = Position(position)
    symbolic = base.strip() == "x"
    base_value = None if symbolic else parse_quad(base).as_fraction()
    w = _parse_weight_poly(weight, symbolic)
    const, bnum, bden, x_off = _parse_closed_form_rhs(closed_form, fam, pos)
    return TelescopingCert(
        kernel=fam,
        kernel_pos=pos,
        base=base_value,
        weight_poly=w,
        den_factors=parse_den_factors(den),
        const=const,
        bound_num=bnum,
        bound_den=bden,
        bound_xoff=x_off,
        k_start=k_start,
    )


# ----------------------------------------------------------------------
# the induction check


def _witness_str(z: Poly) -> str:
    parts = []
    for i, c in enumerate(z.coeffs):
        if not c:
            continue
        cs = render_poly(c, "x") if isinstance(c, Poly) else str(c)
        parts.append(f"({cs})" if i == 0 else f"({cs})*n^{i}")
    return " + ".join(parts)


def check_telescoping(cert: TelescopingCert) -> CertReport:
    """Exact base-case and induction-step check; PASS proves the identity.

    The step B(n) - B(n-1) = t(n) is multiplied out over Q[x][n] (or Q[n]
    at a concrete base): with kernel(n)/kernel(n-1) = A(n-1)/B(n-1) from
    the kernel's ratio polynomials, a denominator kernel requires

      P(n) x^e Q(n-1) D(n) B(n-1) - P(n-1) x^(e-1) A(n-1) Q(n) D(n)
        = W(x,n) Q(n) Q(n-1) B(n-1),

    and a numerator kernel the same with A and B exchanged.  Both sides
    are scaled by x^max(0, 1-e) so every exponent is nonnegative.
    """
    symbolic = cert.symbolic

    def lift(p: Poly) -> Poly:
        if not symbolic:
            return p
        return p.map_coeffs(lambda c: c if isinstance(c, Poly) else _x_const(c))

    def x_power(e: int):
        if symbolic:
            return Poly((Fraction(0),) * e + (Fraction(1),), "x")
        return cert.base**e

    def kc(scalar) -> Poly:
        return Poly.const(scalar, "k")

    w_n = lift(cert.weight_poly)
    p_n = lift(cert.bound_num)
    q_n = lift(cert.bound_den)
    d_n = lift(den_poly(cert.den_factors))
    a, b = cert.kernel.ratio_polys()
    a_m, b_m = lift(a.shift(-1)), lift(b.shift(-1))
    p_m, q_m = p_n.shift(-1), q_n.shift(-1)

    shift = max(0, 1 - cert.bound_xoff)
    x_hi = kc(x_power(cert.bound_xoff + shift))
    x_lo = kc(x_power(cert.bound_xoff + shift - 1))
    x_w = kc(x_power(shift))

    if cert.kernel_pos is Position.DENOMINATOR:
        z = p_n * x_hi * q_m * d_n * b_m - p_m * x_lo * a_m * q_n * d_n - w_n * x_w * q_n * q_m * b_m
    else:
        z = p_n * x_hi * a_m * q_m * d_n - p_m * x_lo * b_m * q_n * d_n - w_n * x_w * a_m * q_n * q_m
    step_ok = not z

    # base case at n = 0: W(x,0)/D(0) = c0 + P(0) x^e / Q(0)  (kernel(0) = 1)
    clear = max(0, -cert.bound_xoff)
    d0 = den_value(cert.den_factors, 0)
    q0 = cert.bound_den.coeff(0)
    w0 = w_n.coeff(0)
    base_resid = (
        w0 * q0 * x_power(clear)
        - cert.const * d0 * q0 * x_power(clear)
        - cert.bound_num.coeff(0) * x_power(cert.bound_xoff + clear) * d0
    )
    base_ok = not base_resid

    if step_ok and base_ok:
        return CertReport(True, "base case and induction step hold exactly")
    if not step_ok:
        return CertReport(False, "induction step leaves a nonzero residual", _witness_str(z))
    resid = render_poly(base_resid, "x") if isinstance(base_resid, Poly) else str(base_resid)
    return CertReport(False, "base case fails at n = 0", resid)


# ----------------------------------------------------------------------
# the derivative certificate


_PI = parse_closed_form("pi")


@dataclass(frozen=True)
class DerivativeCert:
    """Claim that d/dt [f_rational(t) + c*arctan(t)] equals target(t),

    with pinned values f(0) = 0 and f(1) = endpoint (a closed form whose
    arctan contribution appears as c/4 * pi)."""

    f_rational: RatFun
    arctan_coeff: Fraction
    target: RatFun
    endpoint: Optional[ClosedForm] = None


def parse_derivative(
    *,
    f_rational: str,
    arctan_coeff: str,
    target: str,
    endpoint: str | None = None,
) -> DerivativeCert:
    return DerivativeCert(
        f_rational=parse_ratfun(f_rational, "t"),
        arctan_coeff=Fraction(arctan_coeff),
        target=parse_ratfun(target, "t"),
        endpoint=None if endpoint is None else parse_closed_form(endpoint),
    )


def check_derivative(cert: DerivativeCert) -> CertReport:
    """Exact rational-function check of the derivative identity."""
    one_plus_t2 = Poly((Fraction(1), Fraction(0), Fraction(1)), "t")
    lhs = cert.f_rational.derivative() + RatFun(Poly.const(cert.arctan_coeff, "t"), one_plus_t2)
    if lhs != cert.target:
        diff = (lhs - cert.target).reduced()
        return CertReport(
            False,
            "derivative identity fails",
            f"({render_poly(diff.num, 't')})/({render_poly(diff.den, 't')})",
        )
    if cert.f_rational(Fraction(0)) != 0:
        return CertReport(False, "f(0) != 0", str(cert.f_rational(Fraction(0))))
    if cert.endpoint is not None:
        at_one = ClosedForm.const(cert.f_rational(Fraction(1))) + ClosedForm.const(
            cert.arctan_coeff / 4
        ) * _PI
        if at_one != cert.endpoint:
            return CertReport(False, "f(1) does not match the pinned endpoint", repr(at_one))
    return CertReport(True, "derivative identity and endpoints hold exactly")


# ----------------------------------------------------------------------
# the Beta/binomial identity


def check_beta_binomial(k_max: int) -> CertReport:
    """Verify (3k)!^2/(6k+1)! = 1/((6k+1)*C(6k,3k)) exactly for 0 <= k <= k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    for k in range(0, k_max + 1):
        lhs = Fraction(math.factorial(3 * k) ** 2, math.factorial(6 * k + 1))
        rhs = Fraction(1, (6 * k + 1) * math.comb(6 * k, 3 * k))
        if lhs != rhs:
            return CertReport(False, f"factorial identity fails at k = {k}", f"{lhs} != {rhs}")
    return CertReport(True, f"factorial identity holds for 0 <= k <= {k_max}")
