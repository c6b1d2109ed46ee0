"""Exact verification of finite-sum proof certificates.

A *telescoping certificate* claims a closed form for every partial sum of
a kernel series:

    sum_{k=0}^{n}  W(x, k) * x^k * kernel(k)^s / D(k)  =  c0 + B(n),

    B(n) = P(n) * x^(n+e) * kernel(n)^s / Q(n),

where W is a polynomial weight (possibly genuinely bivariate in x and k),
D and Q are products of integer-linear factors, P is a polynomial, and
s = +1/-1 places the kernel in the numerator or denominator.  The base x
is either a formal indeterminate or a fixed rational specialized up front.
Every polynomial is a coefficient list, constant first, read from its text
by one :class:`~bseries.exprparse.IntegerEval` subclass, whose atoms are
x^(a*var + e) * kernel^s: the weight in k, as one list W_j per power x^j,
and the closed form in n.  The closed form is read as the value it
denotes, one coefficient per atom, so like terms merge (``x^n*x`` is
x^(n+1)): the unit atom's coefficient is c0, and the one other atom must
be x^(n+e) times the kernel, on the side s names, with P/Q its
coefficient.

``check_telescoping`` proves or refutes the claim with no numerics at all.
At a concrete base the base case at n = 0 is an exact arithmetic identity,
and the induction step B(n) - B(n-1) = t(n) becomes a polynomial identity
in n once the kernel quotient kernel(n)/kernel(n-1) is replaced by the
kernel's ratio lists -- for C(6n,3n) that quotient is

    (6n-5)(6n-4)(6n-3)(6n-2)(6n-1)(6n) / ((3n-2)(3n-1)(3n))^2

-- and every denominator is cleared; the residual must vanish coefficient
by coefficient.  A formal base is checked at enough concrete bases to
decide the identity in x (see :func:`check_telescoping`).  A failing check
reports the nonzero witness.

A *derivative certificate* claims f'(t) = target(t) for
f(t) = f_rational(t) + c*arctan(t), with f and the target pairs of
coefficient lists; it is checked by cross-multiplication plus pinned
endpoint values at t = 0 and t = 1.

``check_beta_binomial`` verifies the factorial identity
(3k)!^2 / (6k+1)! = 1 / ((6k+1)*C(6k,3k)) pointwise with big integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

from .closedform import ClosedForm, parse_closed_form
from .exactnum import Frozen, IntegerSurdPoly, QuadElem, horner, poly_add, poly_mul, poly_shift
from .exprparse import ONE, ExprError, IntegerEval, lowest_terms, parse_expr
from .kernels import KernelFamily, kernel_by_tag
from .seriesmodel import (
    Position,
    SeriesDef,
    Weight,
    check_den_factors,
    den_list,
    den_value,
    parse_den_factors,
    parse_quad,
    render_poly,
    render_quad,
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


class CertReport(Frozen):
    """Outcome of a certificate check: PASS/FAIL plus a failure witness."""

    __slots__ = ("passed", "detail", "witness")

    def __init__(self, passed: bool, detail: str, witness: str = ""):
        self._set(passed, detail, witness)

    def __str__(self):
        s = "PASS" if self.passed else "FAIL"
        return f"{s}: {self.detail}" + (f" [witness: {self.witness}]" if self.witness else "")


# ----------------------------------------------------------------------
# coefficient lists


def _scaled(a, b, c, d: int) -> tuple:
    """``(a + b*sqrt(d)) * c`` coefficient by coefficient, for integer lists a, b of
    one length: the rational c's multiples, or QuadElems where sqrt(d) enters."""
    return tuple(QuadElem(x * c, y * c, d) if y else x * c for x, y in zip(a, b))


def _prod(*factors) -> list:
    return reduce(poly_mul, factors)


def _sub(a, b) -> list:
    return poly_add(a, [-c for c in b])


def _derivative(a) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def _weight_at(weight: tuple, x) -> list:
    """``W(x, k) = sum_j x^j * W_j(k)`` at a concrete x, as one list in k."""
    return reduce(poly_add, ([x**j * c for c in w] for j, w in enumerate(weight)), [])


# ----------------------------------------------------------------------
# the telescoping certificate


class TelescopingCert(Frozen):
    """Partial-sum closed form for a kernel series, in checkable form.

    ``weight`` holds ``W(x, k) = sum_j x^j * W_j(k)`` as one coefficient
    list W_j in k per power j of x (ints, Fractions or QuadElems); a
    concrete base (``base`` not None) has only j = 0.  ``bound_num`` and
    ``bound_den`` are the integer coefficient lists of P and Q in n;
    ``bound_num`` carries the boundary sign, and ``bound_xoff`` is the e
    in x^(n+e).
    """

    __slots__ = (
        "kernel", "kernel_pos", "base", "weight", "den_factors", "const", "bound_num", "bound_den",
        "bound_xoff",
    )

    def __init__(
        self,
        kernel: KernelFamily,
        kernel_pos: Position,
        base: Optional[Fraction],
        weight: tuple[tuple, ...],
        den_factors: tuple[tuple[int, int, int], ...],
        const: Fraction,
        bound_num: tuple[int, ...],
        bound_den: tuple[int, ...],
        bound_xoff: int,
    ):
        if not any(map(any, weight)):
            raise ValueError("zero weight")
        if base is not None and any(map(any, weight[1:])):
            raise ValueError("a concrete base leaves no power of x in the weight")
        if not any(bound_num):
            raise ValueError("zero boundary numerator")
        if base is not None and base == 0:
            raise ValueError("zero base")
        check_den_factors(den_factors, 0)
        # Q(n) must be nonzero at every index the boundary is evaluated at.
        j = IntegerSurdPoly.from_lists(bound_den, (), 1).integer_root()
        if j is not None:
            raise ValueError(f"boundary denominator vanishes at n = {j}")
        self._set(
            kernel, kernel_pos, base, weight, den_factors, const, bound_num, bound_den, bound_xoff
        )

    @property
    def symbolic(self) -> bool:
        return self.base is None

    # -- concrete-base views ------------------------------------------

    def specialize(self, x_value) -> "TelescopingCert":
        """Substitute a rational value for the formal base x."""
        if not self.symbolic:
            raise ValueError("base is already concrete")
        xv = Fraction(x_value)
        return TelescopingCert(
            kernel=self.kernel,
            kernel_pos=self.kernel_pos,
            base=xv,
            weight=(tuple(_weight_at(self.weight, xv)),),
            den_factors=self.den_factors,
            const=self.const,
            bound_num=self.bound_num,
            bound_den=self.bound_den,
            bound_xoff=self.bound_xoff,
        )

    def to_series(self) -> SeriesDef:
        """The infinite series this certificate's partial sums approach."""
        if self.symbolic:
            raise ValueError("specialize the base before evaluating numerically")
        return SeriesDef(
            base_root=QuadElem.of(self.base),
            base_exp=1,
            kernel=self.kernel,
            kernel_pos=self.kernel_pos,
            weight=Weight.from_coeffs(self.weight[0]),
            den_factors=self.den_factors,
        )


# ----------------------------------------------------------------------
# parsing: weight in x and k, closed form in n and x


class _CertEval(IntegerEval):
    """:class:`~bseries.exprparse.IntegerEval` with the atoms of a certificate field.

    The atom ``(a, e, kernel)`` stands for x^(a*var + e) times
    binom(p*var, q*var)^s over the sorted ``((p, q), s)`` in ``kernel``.
    Atoms add under a product and subtract under a quotient, and one with
    nothing left is the unit atom None.  ``x`` is ``(0, 1, ())``, and in
    ``x^(expr)`` the exponent is an integer-linear form in var.
    """

    def eval(self, node) -> dict:
        if node[0] == "pow" and node[1] == ("name", "x"):
            e, a = self.linear(self.eval(node[2]), "the exponent of x")
            return {(a, e, ()) if a or e else None: (ONE, ONE)}
        return super().eval(node)

    def name(self, name: str) -> dict:
        return {(0, 1, ()): (ONE, ONE)} if name == "x" else super().name(name)

    def call(self, name: str, args: tuple) -> dict:
        if name != "binom":
            return super().call(name, args)
        if len(args) != 2:
            raise ExprError("binom takes two arguments")
        (e, p), (f, q) = (self.linear(self.eval(arg), "a binom argument") for arg in args)
        if e or f or p < 1 or q < 1:
            raise ExprError(f"binom arguments must be positive integer multiples of {self.var}")
        return {(0, 0, (((p, q), 1),)): (ONE, ONE)}

    @staticmethod
    def atom_product(a, b):
        (a1, e1, k1), (a2, e2, k2) = a or (0, 0, ()), b or (0, 0, ())
        kernel = dict(k1)
        for pq, s in k2:
            kernel[pq] = kernel.get(pq, 0) + s
        kernel = tuple(sorted((pq, s) for pq, s in kernel.items() if s))
        return (a1 + a2, e1 + e2, kernel) if a1 + a2 or e1 + e2 or kernel else None

    @staticmethod
    def atom_inverse(b):
        return b and (-b[0], -b[1], tuple((pq, -s) for pq, s in b[2]))


def _parse_weight_lists(s: str) -> tuple[tuple, ...]:
    """W_j(k) for each power j of x, from the weight's text."""
    ev = _CertEval("k", "certificate weight")
    powers = {}
    for atom, (num, den) in ev.terms(ev.eval(parse_expr(s))).items():
        k_exp, j, kernel = atom or (0, 0, ())
        num, den = ev.fold(num, den)
        if k_exp or kernel or j < 0 or den is not ONE:
            raise ExprError(f"weight must be a polynomial in x and k: {s!r}")
        a, b, l = lowest_terms(num)
        powers[j] = _scaled(a, b, Fraction(1, l) if l > 1 else 1, ev.d)
    return tuple(powers.get(j, ()) for j in range(max(powers, default=-1) + 1))


def _parse_closed_form_rhs(
    src: str, kernel: KernelFamily, kernel_pos: Position
) -> tuple[Fraction, tuple, tuple, int]:
    """Split ``c0 + P(n)*x^(n+e)*kernel(n)^s/Q(n)`` into its parts.

    :class:`_CertEval` reads the text as one coefficient per atom.  The
    unit atom's must be the rational constant c0, and there must be exactly
    one other atom: x^(n + e) times the certificate kernel, each binomial
    on the side ``kernel_pos`` names, with P/Q its coefficient.  Returns
    (const, bound_num, bound_den, e) with integer lists in n and the
    boundary sign in bound_num.
    """
    ev = _CertEval("n", "closed form")
    terms = ev.terms(ev.eval(parse_expr(src)))
    c = ev.polynomial({None: ev.unit(terms)}, 0)
    if c is None or any(c[1]):
        raise ExprError("non-boundary part of the closed form must be a rational constant")
    boundary = [(atom, coeff) for atom, coeff in terms.items() if atom is not None]
    if len(boundary) != 1:
        raise ExprError(f"closed form must have exactly one boundary term, not {len(boundary)}")
    (((a, e, kern), (num, den)),) = boundary
    if a != 1:
        raise ExprError("boundary term must carry x^(n + e)")
    pairs = sorted(pq for pq, s in kern for _ in range(abs(s)))
    if pairs != sorted(kernel.pairs):
        raise ExprError(f"boundary kernel {pairs} does not match {kernel.tag!r}")
    if any(s * kernel_pos.exponent < 0 for _, s in kern):
        raise ExprError("boundary kernel is on the wrong side for the summand position")
    (na, nb, nl), (da, db, dl) = map(lowest_terms, (num, den))
    if any(nb) or any(db):
        raise ExprError("boundary term must be rational in n")
    const = Fraction(c[0][0], c[2]) if c[0] else Fraction(0)
    return const, tuple(v * dl for v in na), tuple(v * nl for v in da), e


def parse_telescoping(
    *,
    kernel: str,
    position: str,
    base: str,
    weight: str,
    den: str,
    closed_form: str,
) -> TelescopingCert:
    """Build a certificate from its textual record fields."""
    fam = kernel_by_tag(kernel)
    pos = Position(position)
    base_value = None if base.strip() == "x" else parse_quad(base).as_fraction()
    w = _parse_weight_lists(weight)
    const, bnum, bden, x_off = _parse_closed_form_rhs(closed_form, fam, pos)
    return TelescopingCert(
        kernel=fam,
        kernel_pos=pos,
        base=base_value,
        weight=w,
        den_factors=parse_den_factors(den),
        const=const,
        bound_num=bnum,
        bound_den=bden,
        bound_xoff=x_off,
    )


# ----------------------------------------------------------------------
# the induction check


def _check_at(cert: TelescopingCert, x, w) -> CertReport:
    """Base case and induction step of ``cert`` at the concrete base x, with
    ``w`` the weight W(x, k) there.

    With kernel(n)/kernel(n-1) = A(n-1)/B(n-1) from the kernel's ratio
    lists, a denominator kernel requires

      P(n) x^e Q(n-1) D(n) B(n-1) - P(n-1) x^(e-1) A(n-1) Q(n) D(n)
        = W(x,n) Q(n) Q(n-1) B(n-1),

    and a numerator kernel the same with A and B exchanged.  Both sides are
    scaled by x^max(0, 1-e) so every exponent is nonnegative, and so are
    both sides of the base case W(x,0)/D(0) = c0 + P(0) x^e / Q(0), by
    x^max(0, -e).
    """
    e, p_n, q_n = cert.bound_xoff, cert.bound_num, cert.bound_den
    up, down = (poly_shift(r, -1) for r in cert.kernel.ratio_lists)
    if cert.kernel_pos is Position.NUMERATOR:
        up, down = down, up
    d_n = den_list(cert.den_factors)
    p_m, q_m = poly_shift(p_n, -1), poly_shift(q_n, -1)
    s = max(0, 1 - e)
    hi = _prod([x ** (e + s)], p_n, q_m, d_n, down)
    lo = _prod([x ** (e + s - 1)], p_m, up, q_n, d_n)
    z = _sub(_sub(hi, lo), _prod([x**s], w, q_n, q_m, down))
    if any(z):
        return CertReport(False, "induction step leaves a nonzero residual", render_poly(z, "n"))

    clear = max(0, -e)
    d0, q0, w0 = den_value(cert.den_factors, 0), q_n[0], w[0] if w else 0
    resid = (w0 - cert.const * d0) * q0 * x**clear - p_n[0] * x ** (e + clear) * d0
    if resid:
        return CertReport(False, "base case fails at n = 0", str(resid))
    return CertReport(True, "base case and induction step hold exactly")


def check_telescoping(cert: TelescopingCert) -> CertReport:
    """Exact base-case and induction-step check; PASS proves the identity.

    At a concrete base this is :func:`_check_at`.  A formal base x is
    checked at the concrete bases x = 1, 2, ..., D + 1, where
    ``D = max(deg_x W, e) + max(0, 1 - e)``.  Every coefficient in n of
    the scaled step residual is a polynomial in x of degree at most D: its
    terms carry x^(e+s), x^(e+s-1) and x^s*W with s = max(0, 1 - e).  So
    is the scaled base-case residual, whose terms carry x^c*W(x, 0) and
    x^(e+c) with c = max(0, -e) <= s.  A polynomial of degree at most D
    that vanishes at D + 1 distinct points is zero, so both residuals
    vanish identically in x exactly when they vanish at every one of these
    bases, and the identity then holds at every base.
    """
    if not cert.symbolic:
        return _check_at(cert, cert.base, cert.weight[0])
    e = cert.bound_xoff
    deg = max(j for j, w in enumerate(cert.weight) if any(w))
    for x in range(1, max(deg, e) + max(0, 1 - e) + 2):
        rep = _check_at(cert, x, _weight_at(cert.weight, x))
        if not rep.passed:
            return CertReport(False, f"{rep.detail} at x = {x}", rep.witness)
    return CertReport(True, "base case and induction step hold exactly")


# ----------------------------------------------------------------------
# the derivative certificate


_PI = parse_closed_form("pi")


class DerivativeCert(Frozen):
    """Claim that d/dt [f_rational(t) + c*arctan(t)] equals target(t),

    with pinned values f(0) = 0 and f(1) = endpoint (a closed form whose
    arctan contribution appears as c/4 * pi).  ``f_rational`` and
    ``target`` are ``(num, den)`` pairs of coefficient lists in t."""

    __slots__ = ("f_rational", "arctan_coeff", "target", "endpoint")

    def __init__(
        self,
        f_rational: tuple[tuple, tuple],
        arctan_coeff: Fraction,
        target: tuple[tuple, tuple],
        endpoint: Optional[ClosedForm] = None,
    ):
        self._set(f_rational, arctan_coeff, target, endpoint)


def _parse_pair(s: str) -> tuple[tuple, tuple]:
    """A rational function of t as ``(num, den)`` coefficient lists, integers
    where the text is rational."""
    ev = IntegerEval("t", "derivative certificate")
    (a, b, l), (da, db, dl) = map(lowest_terms, ev.unit(ev.terms(ev.eval(parse_expr(s)))))
    return _scaled(a, b, dl, ev.d), _scaled(da, db, l, ev.d)


def parse_derivative(
    *,
    f_rational: str,
    arctan_coeff: str,
    target: str,
    endpoint: str | None = None,
) -> DerivativeCert:
    return DerivativeCert(
        f_rational=_parse_pair(f_rational),
        arctan_coeff=Fraction(arctan_coeff),
        target=_parse_pair(target),
        endpoint=None if endpoint is None else parse_closed_form(endpoint),
    )


def _divide_root(a: Sequence, r: int) -> list:
    """``a(t) / (t - r)`` for a list a with ``a(r) = 0``, constant first (synthetic division)."""
    out, carry = [], 0
    for x in reversed(a[1:]):
        carry = x + r * carry
        out.append(carry)
    return out[::-1]


def check_derivative(cert: DerivativeCert) -> CertReport:
    """Exact check of the derivative identity on list pairs, with its endpoints.

    With f_rational = N/D and target = P/Q, f' + c/(1 + t^2) = P/Q holds
    exactly when ``(N'D - ND')(1 + t^2)Q + c*D^2*Q - P*D^2*(1 + t^2)`` is
    the zero list.  f(0), and f(1) when an endpoint is pinned, are then
    read off N/D with every common factor t and t - 1 divided out, so a
    removable singularity is no pole; a zero of D left there is a pole, and
    fails the check.  f(1) lies in Q(sqrt d) and is compared with the
    endpoint as a closed form.
    """
    (n, d), (p, q), c = cert.f_rational, cert.target, cert.arctan_coeff

    def f(t: int):
        return horner(n, Fraction(t)) / horner(d, Fraction(t))

    one_t2, dd = [1, 0, 1], poly_mul(d, d)
    derivative = _sub(poly_mul(_derivative(n), d), poly_mul(n, _derivative(d)))
    resid = _sub(
        poly_add(_prod(derivative, one_t2, q), [c * x for x in poly_mul(dd, q)]),
        _prod(p, dd, one_t2),
    )
    if any(resid):
        return CertReport(False, "derivative identity fails", render_poly(resid, "t"))
    for t in (0, 1) if cert.endpoint is not None else (0,):
        while any(n) and not horner(n, t) and not horner(d, t):
            n, d = _divide_root(n, t), _divide_root(d, t)
        if not horner(d, t):
            return CertReport(False, f"f_rational has a pole at t = {t}", f"pole at t = {t}")
    if f(0):
        return CertReport(False, "f(0) != 0", str(f(0)))
    if cert.endpoint is not None:
        at_one = parse_closed_form(render_quad(QuadElem.of(f(1)))) + ClosedForm.const(c / 4) * _PI
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
