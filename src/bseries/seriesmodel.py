"""Structural model of a series: kernel placement, base, weight, denominator.

A series is

    sum_{k >= k_start}  W(k) * base^k * kernel(k)^s / D(k)

where ``kernel`` is a :class:`~bseries.kernels.KernelFamily` (or absent),
``s`` is +1/-1 according to whether the kernel sits in the numerator or
denominator, ``base`` is an exact quadratic surd stored in structured form
``root^exp``, ``D(k)`` is a product of integer-linear factors
``prod (u*k + v)^e``, and the weight ``W(k)`` is a finite sum of terms
``coeff(k) * atom(k)`` with rational-function coefficients over the field
and atoms drawn from generalized harmonic numbers

    H(s*k + o, m) = sum_{j=1}^{s*k+o} 1/j^m .

The textual grammar for each field (used by the catalog) is parsed and
rendered here; rendering is canonical, i.e. ``render(parse(render(x))) ==
render(x)`` byte-for-byte.

The scale ``S_k = kernel(k)^s / D(k)`` is built here once, in integers:
:meth:`SeriesDef.scale` gives S_k as a fraction of two integers, and
:attr:`~SeriesDef.scale_ratio` gives ``S_{k+1}/S_k`` as two integer
coefficient lists, with :attr:`~SeriesDef.scale_growth` its limit.  The
evaluator reads the kernel, its position and D through these members only.

:meth:`SeriesDef.weight_value`, :meth:`~SeriesDef.term_exact` and
:meth:`~SeriesDef.term_ratio` evaluate in exact ``Fraction``/``QuadElem``
arithmetic, with :class:`HarmonicCache`'s exact prefix sums, and use none
of the scale members.  The evaluator sums on integer lists and calls none
of the three: they are the exact references the tests compare it against.
It carries each H_n^(m) as a floored fixed-point integer with a counted
error, and :class:`HarmonicCache` is the exact value that count is checked
against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

from .exactnum import IntegerSurdPoly, Poly, QuadElem, RatFun, poly_mul, poly_shift, sqrt_surd
from .exprparse import EvalContext, ExprError, ast_as_int, eval_ast, parse_expr
from .kernels import KernelFamily

__all__ = [
    "Position",
    "HarmonicAtom",
    "WeightTerm",
    "SeriesDef",
    "HarmonicCache",
    "NotHypergeometric",
    "parse_quad",
    "render_quad",
    "parse_base",
    "render_base",
    "parse_weight",
    "render_weight",
    "parse_den_factors",
    "render_den_factors",
    "check_den_factors",
    "den_value",
    "den_list",
    "den_poly",
    "parse_ratfun",
    "render_poly",
    "render_ratfun",
]

ALLOWED_STRIDES = (1, 2, 3, 6)
ALLOWED_OFFSETS = (0, -1)
ALLOWED_ORDERS = (1, 2, 3)


class NotHypergeometric(ValueError):
    """The series has no single rational term ratio (e.g. harmonic weights)."""


class Position(enum.Enum):
    NUMERATOR = "numerator"
    DENOMINATOR = "denominator"

    @property
    def exponent(self) -> int:
        return 1 if self is Position.NUMERATOR else -1


class HarmonicAtom(NamedTuple):
    """H(stride*k + offset, order): generalized harmonic number atom."""

    stride: int
    offset: int
    order: int

    def index_at(self, k: int) -> int:
        n = self.stride * k + self.offset
        if n < 0:
            raise ValueError(f"harmonic index {n} < 0 at k={k}")
        return n

    def render(self) -> str:
        if self.stride == 1:
            arg = "k" if self.offset == 0 else f"k - {-self.offset}"
        else:
            arg = f"{self.stride}*k" if self.offset == 0 else f"{self.stride}*k - {-self.offset}"
        return f"H({arg},{self.order})"


class WeightTerm(NamedTuple):
    coeff: RatFun
    atom: Optional[HarmonicAtom]


class HarmonicCache:
    """Exact prefix sums H_n^(m) as ``Fraction``s, grown on demand and shared across terms.

    The exact reference for ``weight_value`` and ``term_exact``, and for the
    evaluator's fixed-point atoms ``sum_{j<=n} floor(2^P / j^m)`` and their counts.
    """

    def __init__(self):
        self._tables: dict[int, list[Fraction]] = {}

    def value(self, order: int, n: int) -> Fraction:
        tab = self._tables.setdefault(order, [Fraction(0)])
        while len(tab) <= n:
            j = len(tab)
            tab.append(tab[-1] + Fraction(1, j**order))
        return tab[n]


# ----------------------------------------------------------------------
# scalar (quadratic surd) expressions


class _QuadCtx(EvalContext):
    """Exact scalars, possibly with nested sqrt: bases, and closed-form sqrt()/log() arguments."""

    def number(self, n: int):
        return QuadElem(Fraction(n))

    def call(self, name, args):
        if name == "sqrt" and len(args) == 1:
            v = eval_ast(args[0], self)
            return sqrt_surd(v.as_fraction())
        raise ExprError(f"function {name!r} not allowed in scalar expressions")


def parse_quad(s: str) -> QuadElem:
    v = eval_ast(parse_expr(s), _QuadCtx())
    return v if isinstance(v, QuadElem) else QuadElem.of(v)


def _frac_str(q: Fraction) -> str:
    return str(q)


def render_quad(q: QuadElem) -> str:
    """Canonical scalar rendering: 'a + b*sqrt(d)' with explicit rationals."""
    if q.b == 0:
        return _frac_str(q.a)
    babs = abs(q.b)
    root = f"sqrt({q.d})" if babs == 1 else f"{_frac_str(babs)}*sqrt({q.d})"
    if q.a == 0:
        return root if q.b > 0 else f"-{root}"
    sign = " + " if q.b > 0 else " - "
    return f"{_frac_str(q.a)}{sign}{root}"


def parse_base(s: str) -> tuple[QuadElem, int]:
    """Base in structured form: returns (root, exponent)."""
    ast = parse_expr(s)
    if ast[0] == "pow":
        root = eval_ast(ast[1], _QuadCtx())
        exp = ast_as_int(ast[2])
    else:
        root = eval_ast(ast, _QuadCtx())
        exp = 1
    if not root:
        raise ValueError("zero base")
    return QuadElem.of(root), exp


def render_base(root: QuadElem, exp: int) -> str:
    if exp == 1:
        return render_quad(root)
    return f"({render_quad(root)})^{exp}"


# ----------------------------------------------------------------------
# weights: linear combinations of harmonic atoms with RatFun coefficients


def _fold_constant_den(r: RatFun) -> RatFun:
    """Fold a degree-0 denominator into the numerator coefficients."""
    if r.den.degree() == 0:
        c = r.den.leading()
        return RatFun(r.num.map_coeffs(lambda x: x / c))
    return r


class _WeightValue:
    """Linear combination atom -> RatFun coefficient (None = the unit atom)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {a: c for a, c in terms.items() if c}

    @staticmethod
    def unit(coeff: RatFun) -> "_WeightValue":
        return _WeightValue({None: coeff})

    def is_unit(self) -> bool:
        return set(self.terms) <= {None}

    def unit_coeff(self) -> RatFun:
        return self.terms.get(None, RatFun.const(Fraction(0)))

    def __add__(self, other):
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out[a] + c if a in out else c
        return _WeightValue(out)

    def __neg__(self):
        return _WeightValue({a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_unit():
            c = self.unit_coeff()
            return _WeightValue({a: c * d for a, d in other.terms.items()})
        if other.is_unit():
            c = other.unit_coeff()
            return _WeightValue({a: d * c for a, d in self.terms.items()})
        raise ExprError("weights must be linear in harmonic atoms")

    def __truediv__(self, other):
        if not other.is_unit():
            raise ExprError("cannot divide by a harmonic atom")
        c = other.unit_coeff()
        if not c:
            raise ZeroDivisionError("division by zero in weight")
        return _WeightValue({a: d / c for a, d in self.terms.items()})

    def __pow__(self, n: int):
        if not self.is_unit():
            if n == 1:
                return self
            raise ExprError("weights must be linear in harmonic atoms")
        return _WeightValue.unit(self.unit_coeff() ** n)


class _WeightCtx(EvalContext):
    def number(self, n: int):
        return _WeightValue.unit(RatFun.const(Fraction(n)))

    def name(self, name: str):
        if name == "k":
            return _WeightValue.unit(RatFun(Poly.variable("k")))
        raise ExprError(f"unknown name {name!r} in weight")

    def call(self, name, args):
        if name == "sqrt" and len(args) == 1:
            v = eval_ast(args[0], _QuadCtx())
            return _WeightValue.unit(RatFun.const(sqrt_surd(v.as_fraction())))
        if name == "H" and len(args) == 2:
            arg = eval_ast(args[0], self)
            if not arg.is_unit():
                raise ExprError("nested harmonic atoms")
            r = arg.unit_coeff()
            if not r.is_polynomial() or r.num.degree() > 1:
                raise ExprError("harmonic argument must be linear in k")
            r = _fold_constant_den(r)
            stride = r.num.coeff(1)
            offset = r.num.coeff(0)
            if stride.denominator != 1 or offset.denominator != 1:
                raise ExprError("harmonic argument must have integer coefficients")
            stride, offset = int(stride), int(offset)
            order = ast_as_int(args[1])
            if stride not in ALLOWED_STRIDES or offset not in ALLOWED_OFFSETS:
                raise ExprError(f"unsupported harmonic index {stride}*k{offset:+d}")
            if order not in ALLOWED_ORDERS:
                raise ExprError(f"unsupported harmonic order {order}")
            return _WeightValue({HarmonicAtom(stride, offset, order): RatFun.const(Fraction(1))})
        raise ExprError(f"function {name!r} not allowed in weight")

    def power(self, base, exp_ast):
        return base ** ast_as_int(exp_ast)


def _atom_key(atom: Optional[HarmonicAtom]):
    if atom is None:
        return (0, 0, 0, 0)
    return (1, atom.order, atom.stride, atom.offset)


def parse_weight(s: str) -> tuple[WeightTerm, ...]:
    v = eval_ast(parse_expr(s), _WeightCtx())
    if not v.terms:
        raise ValueError("weight must be nonzero")
    terms = []
    for atom in sorted(v.terms, key=_atom_key):
        terms.append(WeightTerm(_fold_constant_den(v.terms[atom]), atom))
    return tuple(terms)


# ----------------------------------------------------------------------
# rendering of polynomials / rational functions over the scalar field


def _scalar_sign(c) -> int:
    if isinstance(c, QuadElem):
        return c.sign()
    return (c > 0) - (c < 0)


def _scalar_str(c) -> str:
    if isinstance(c, QuadElem):
        return render_quad(c)
    return _frac_str(c)


def _needs_parens(s: str) -> bool:
    return (" + " in s) or (" - " in s)


def _wrap(s: str) -> str:
    return f"({s})" if _needs_parens(s) else s


def render_poly(p: Poly, var: str | None = None) -> str:
    if var is None:
        var = p.var
    if not p:
        return "0"
    parts: list[tuple[int, str]] = []
    for i in range(p.degree(), -1, -1):
        c = p.coeff(i)
        if not c:
            continue
        s = _scalar_sign(c)
        ca = abs(c) if not isinstance(c, QuadElem) else (c if s >= 0 else -c)
        if i == 0:
            body = _scalar_str(ca)
        else:
            v = var if i == 1 else f"{var}^{i}"
            body = v if ca == 1 else f"{_wrap(_scalar_str(ca))}*{v}"
        parts.append((s, body))
    out = parts[0][1] if parts[0][0] >= 0 else ("-" + parts[0][1] if " " not in parts[0][1] else f"-({parts[0][1]})")
    for s, body in parts[1:]:
        if s >= 0:
            out += f" + {body}"
        else:
            out += f" - {body}" if not _needs_parens(body) else f" - ({body})"
    return out


def render_ratfun(r: RatFun) -> str:
    r = _fold_constant_den(r)
    if r.den.degree() == 0:
        return render_poly(r.num)
    return f"({render_poly(r.num)})/({render_poly(r.den)})"


def render_weight(terms: tuple[WeightTerm, ...]) -> str:
    parts: list[str] = []
    for coeff, atom in sorted(terms, key=lambda t: _atom_key(t.atom)):
        if atom is None:
            parts.append(render_ratfun(coeff))
            continue
        neg = False
        if coeff.num and _scalar_sign(coeff.num.leading()) < 0:
            coeff, neg = -coeff, True
        cs = render_ratfun(coeff)
        body = atom.render() if cs == "1" else f"{_wrap(cs)}*{atom.render()}"
        parts.append(f"-{body}" if neg else body)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# ----------------------------------------------------------------------
# denominator factors: products of integer-linear factors


def parse_den_factors(s: str) -> tuple[tuple[int, int, int], ...]:
    s = s.strip()
    if s == "1":
        return ()
    factors: dict[tuple[int, int], int] = {}

    def add_linear(node, e: int):
        r = eval_ast(node, _WeightCtx())
        if not r.is_unit():
            raise ExprError("harmonic atoms not allowed in denominator")
        rf = _fold_constant_den(r.unit_coeff())
        if not rf.is_polynomial() or rf.num.degree() != 1:
            raise ExprError(f"denominator factor must be linear in k")
        u, v = rf.num.coeff(1), rf.num.coeff(0)
        if u.denominator != 1 or v.denominator != 1 or u <= 0:
            raise ExprError("denominator factors must be u*k + v with integer u > 0")
        key = (int(u), int(v))
        factors[key] = factors.get(key, 0) + e

    def walk(node, e: int):
        if node[0] == "bin" and node[1] == "*":
            walk(node[2], e)
            walk(node[3], e)
        elif node[0] == "pow":
            walk(node[1], e * ast_as_int(node[2]))
        else:
            add_linear(node, e)

    walk(parse_expr(s), 1)
    if any(e < 1 for e in factors.values()):
        raise ExprError("denominator factor exponents must be positive")
    return tuple(sorted((u, v, e) for (u, v), e in factors.items()))


def check_den_factors(factors: tuple[tuple[int, int, int], ...], k_start: int) -> None:
    """Refuse a factor that is not u*k + v (u, e > 0) or vanishes at an integer k >= k_start."""
    for u, v, e in factors:
        if u <= 0 or e <= 0:
            raise ValueError("denominator factors must be u*k + v with u > 0")
        if v % u == 0 and -v // u >= k_start:
            raise ValueError(f"denominator factor {u}*k{v:+d} vanishes at k={-v // u}")


def den_value(factors: tuple[tuple[int, int, int], ...], k: int) -> int:
    """D(k) = prod (u*k + v)^e as an integer; raises if a factor vanishes at k."""
    out = 1
    for u, v, e in factors:
        f = u * k + v
        if f == 0:
            raise ZeroDivisionError(f"denominator factor {u}*k{v:+d} vanishes at k={k}")
        out *= f**e
    return out


def den_list(factors: tuple[tuple[int, int, int], ...]) -> list[int]:
    """D as an integer coefficient list, constant first."""
    out = [1]
    for u, v, e in factors:
        for _ in range(e):
            out = poly_mul(out, [v, u])
    return out


def den_poly(factors: tuple[tuple[int, int, int], ...]) -> Poly:
    """D as a polynomial in k: :func:`den_list` over Q."""
    return Poly(map(Fraction, den_list(factors)))


def render_den_factors(factors: tuple[tuple[int, int, int], ...]) -> str:
    if not factors:
        return "1"
    parts = []
    for u, v, e in sorted(factors):
        lin = "k" if (u, v) == (1, 0) else f"({render_poly(Poly((Fraction(v), Fraction(u)), 'k'))})"
        parts.append(lin if e == 1 else f"{lin}^{e}")
    return "*".join(parts)


# ----------------------------------------------------------------------
# generic polynomial / rational-function fields (certificates)


class _RatFunCtx(EvalContext):
    def __init__(self, var: str):
        self.var = var

    def number(self, n: int):
        return RatFun.const(Fraction(n), self.var)

    def name(self, name: str):
        if name == self.var:
            return RatFun(Poly.variable(self.var))
        raise ExprError(f"unknown name {name!r}; expected {self.var!r}")

    def call(self, name, args):
        if name == "sqrt" and len(args) == 1:
            v = eval_ast(args[0], _QuadCtx())
            return RatFun.const(sqrt_surd(v.as_fraction()), self.var)
        raise ExprError(f"function {name!r} not allowed here")


def parse_ratfun(s: str, var: str) -> RatFun:
    return _fold_constant_den(eval_ast(parse_expr(s), _RatFunCtx(var)))


# ----------------------------------------------------------------------
# the series definition proper


@dataclass(frozen=True)
class SeriesDef:
    base_root: QuadElem
    base_exp: int = 1
    kernel: Optional[KernelFamily] = None
    kernel_pos: Position = Position.DENOMINATOR
    weight: tuple[WeightTerm, ...] = ()
    den_factors: tuple[tuple[int, int, int], ...] = ()
    k_start: int = 0
    base_value: QuadElem = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.k_start < 0:
            raise ValueError(f"k_start must be >= 0, got {self.k_start}")
        if not self.weight:
            raise ValueError("series needs a nonzero weight")
        object.__setattr__(self, "base_value", self.base_root**self.base_exp)
        if not self.base_value:
            raise ValueError("zero base")
        self.field_d  # validates coefficient radicands agree
        check_den_factors(self.den_factors, self.k_start)
        for coeff, atom in self.weight:
            k = IntegerSurdPoly(coeff.den).integer_root(self.k_start)
            if k is not None:
                raise ValueError(f"weight denominator vanishes at k={k}")
            if atom is not None:  # the index grows with k: refuse it below 0 at the start
                atom.index_at(self.k_start)

    @property
    def field_d(self) -> int:
        d = 1

        def merge(dd: int):
            nonlocal d
            if dd != 1:
                if d not in (1, dd):
                    raise ValueError(f"mixed radicands {d} and {dd} in one series")
                d = dd

        merge(self.base_value.d)
        for coeff, _ in self.weight:
            for poly in (coeff.num, coeff.den):
                for c in poly.coeffs:
                    if isinstance(c, QuadElem):
                        merge(c.d)
        return d

    def has_harmonic(self) -> bool:
        return any(atom is not None for _, atom in self.weight)

    def weight_ratfun(self) -> RatFun:
        """The weight as one rational function (only when atom-free)."""
        if self.has_harmonic():
            raise NotHypergeometric("weight contains harmonic atoms")
        total = RatFun.const(Fraction(0), "k")
        for coeff, _ in self.weight:
            total = total + coeff
        return total

    def scale(self, k: int) -> tuple[int, int]:
        """``S_k = kernel(k)^(+-1) / D(k)`` as integers ``(num, den)`` with ``den > 0``."""
        num, den = 1, den_value(self.den_factors, k)
        if self.kernel is not None:
            if self.kernel_pos is Position.NUMERATOR:
                num = self.kernel.value(k)
            else:
                den *= self.kernel.value(k)
        return (-num, -den) if den < 0 else (num, den)

    @cached_property
    def scale_ratio(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Integer lists ``(num, den)``, constant first, with ``S_{k+1}/S_k = num(k)/den(k)``.

        The kernel's ratio lists, swapped for the denominator position, times
        D(k) over D(k + 1); den vanishes at no integer k >= k_start.
        """
        a, b = self.kernel.ratio_lists if self.kernel else ((1,), (1,))
        if self.kernel_pos is Position.DENOMINATOR:
            a, b = b, a
        d = den_list(self.den_factors)
        return tuple(poly_mul(a, d)), tuple(poly_mul(b, poly_shift(d, 1)))

    @property
    def scale_growth(self) -> Fraction:
        """The limit of ``S_{k+1}/S_k``: the kernel's growth to the power +-1, or 1."""
        return self.kernel.growth() ** self.kernel_pos.exponent if self.kernel else Fraction(1)

    def weight_value(self, k: int, harm: Optional[HarmonicCache] = None):
        total = Fraction(0)
        for coeff, atom in self.weight:
            c = coeff(Fraction(k))
            if atom is not None:
                if harm is None:
                    raise ValueError("harmonic cache required")
                c = c * harm.value(atom.order, atom.index_at(k))
            total = total + c
        return total

    def term_exact(self, k: int, harm: Optional[HarmonicCache] = None) -> QuadElem:
        """t_k exactly, as a quadratic surd (slow path; the evaluator is incremental)."""
        w = self.weight_value(k, harm)
        t = QuadElem.of(w) * self.base_value**k
        if self.kernel is not None:
            kv = self.kernel.value(k)
            t = t * kv if self.kernel_pos is Position.NUMERATOR else t / kv
        return t / den_value(self.den_factors, k)

    def term_ratio(self) -> RatFun:
        """t_{k+1}/t_k as an exact rational function of k (atom-free weights)."""
        w = self.weight_ratfun()
        num = w.compose_shift(1) * self.base_value
        den = RatFun.of(w, "k")
        if self.kernel is not None:
            a, b = self.kernel.ratio_polys()
            if self.kernel_pos is Position.NUMERATOR:
                num, den = num * a, den * b
            else:
                num, den = num * b, den * a
        dpoly = den_poly(self.den_factors)
        num = num * RatFun(dpoly)
        den = den * RatFun(dpoly.shift(1))
        r = num / den
        return RatFun(r.num, r.den)

    def conjugate(self) -> "SeriesDef":
        """Apply the Galois conjugate to every scalar (base and weight coefficients)."""

        def conj_scalar(c):
            return c.conjugate() if isinstance(c, QuadElem) else c

        def conj_ratfun(r: RatFun) -> RatFun:
            return RatFun(r.num.map_coeffs(conj_scalar), r.den.map_coeffs(conj_scalar))

        return SeriesDef(
            base_root=self.base_root.conjugate(),
            base_exp=self.base_exp,
            kernel=self.kernel,
            kernel_pos=self.kernel_pos,
            weight=tuple(WeightTerm(conj_ratfun(c), a) for c, a in self.weight),
            den_factors=self.den_factors,
            k_start=self.k_start,
        )
