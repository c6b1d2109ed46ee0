"""Structural model of a series: kernel placement, base, weight, denominator.

A series is

    sum_{k >= k_start}  W(k) * base^k * kernel(k)^s / D(k)

where ``kernel`` is a :class:`~bseries.kernels.KernelFamily` (or absent),
``s`` is +1/-1 according to whether the kernel sits in the numerator or
denominator, ``base`` is an exact quadratic surd stored in structured form
``root^exp``, ``D(k)`` is a product of integer-linear factors
``prod (u*k + v)^e``, and the weight ``W(k)`` is a finite sum of terms
``coeff(k) * atom(k)`` with rational-function coefficients over the field
and atoms 1 or generalized harmonic numbers

    H(s*k + o, m) = sum_{j=1}^{s*k+o} 1/j^m .

What a :class:`SeriesDef` holds is integers and one surd: the base's root
as a :class:`~bseries.exactnum.QuadElem` with an integer exponent, the
kernel and its position, D as integer triples ``(u, v, e)``, ``field_d``
(1 or the one squarefree radicand of base and weight), and the weight as a
:class:`Weight`: per atom, integer lists ``(a_i, b_i, e_i)`` with
coefficient ``(a_i + b_i*sqrt(d)) / e_i``, from which
:mod:`bseries.envelope` builds the common form the evaluator sums with.

Each field's text is read straight into those integers by
:class:`~bseries.exprparse.IntegerEval`, with the harmonic atoms added here.
A coefficient's numerator and denominator are cleared to integers and
divided by their integer gcd, each on its own, and a surd in the
denominator is rationalised, so a weight has one form per text.  Code that
builds a polynomial weight from a coefficient list (duality, telescoping
certificates) passes it through :meth:`Weight.from_coeffs`, the same
clearing.  :func:`render_weight` renders the lists, each scalar in the text
``str`` gives it (:mod:`bseries.exactnum`), and rendering is canonical:
``parse_weight(render_weight(w)) == w``.

The scale ``S_k = kernel(k)^s / D(k)`` is built here once, in integers:
:meth:`SeriesDef.scale` gives S_k as a fraction of two integers, and
:attr:`~SeriesDef.scale_ratio` gives ``S_{k+1}/S_k`` as two integer
coefficient lists in lowest terms, with :attr:`~SeriesDef.scale_growth` its
limit.  Kernel ratio and ``D(k)/D(k + 1)`` are both products of
integer-linear factors, so lowest terms need no polynomial gcd: the factors
common to both sides cancel as a multiset of primitive pairs, and the
integer contents by their gcd.  The envelope and the sum read the kernel,
its position and D through these members only.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import zip_longest
from typing import NamedTuple, Optional, Sequence

from .exactnum import Frozen, IntegerSurdPoly, QuadElem, poly_mul, surd_mul
from .exprparse import (
    ONE, ExprError, IntegerEval, ast_as_int, eval_quad, lowest_terms, parse_expr,
)
from .kernels import KernelFamily

__all__ = [
    "Position",
    "HarmonicAtom",
    "Weight",
    "SeriesDef",
    "NotHypergeometric",
    "parse_quad",
    "parse_base",
    "render_base",
    "parse_weight",
    "render_weight",
    "parse_den_factors",
    "render_den_factors",
    "check_den_factors",
    "den_value",
    "den_list",
    "render_poly",
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


# ----------------------------------------------------------------------
# reading fields: scalars, bases and the harmonic atoms of a weight


class _WeightEval(IntegerEval):
    """:class:`~bseries.exprparse.IntegerEval` with the harmonic atoms of a weight."""

    def __init__(self):
        super().__init__("k", "weight")

    def call(self, name: str, args: tuple):
        if name != "H":
            return super().call(name, args)
        if len(args) != 2:
            raise ExprError("H takes an index and an order")
        arg = self.terms(self.eval(args[0]))
        if not set(arg) <= {None}:
            raise ExprError("nested harmonic atoms")
        (offset, stride), order = self.linear(arg, "harmonic argument"), ast_as_int(args[1])
        if stride not in ALLOWED_STRIDES or offset not in ALLOWED_OFFSETS:
            raise ExprError(f"unsupported harmonic index {stride}*k{offset:+d}")
        if order not in ALLOWED_ORDERS:
            raise ExprError(f"unsupported harmonic order {order}")
        return {HarmonicAtom(stride, offset, order): (ONE, ONE)}


def parse_quad(s: str) -> QuadElem:
    return eval_quad(parse_expr(s))


def parse_base(s: str) -> tuple[QuadElem, int]:
    """Base in structured form: returns (root, exponent)."""
    ast = parse_expr(s)
    if ast[0] == "pow":
        root, exp = eval_quad(ast[1]), ast_as_int(ast[2])
    else:
        root, exp = eval_quad(ast), 1
    if not root:
        if exp < 0:
            raise ZeroDivisionError("division by zero: zero base to a negative power")
        raise ValueError("zero base")
    return root, exp


def render_base(root: QuadElem, exp: int) -> str:
    if exp == 1:
        return str(root)
    return f"({root})^{exp}"


# ----------------------------------------------------------------------
# weights: linear combinations of harmonic atoms, on integer lists


def _atom_key(atom: Optional[HarmonicAtom]):
    if atom is None:
        return (0, 0, 0, 0)
    return (1, atom.order, atom.stride, atom.offset)


def _clear(num, den, d: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The coefficient num/den as ``(a, b, e)``: ``(a + b*sqrt(d)) / e`` on integer lists.

    num and den are polynomial triples, each taken as ``(a, b, scale)`` in
    :func:`~bseries.exprparse.lowest_terms`; a sqrt(d) in den is
    rationalised by den's conjugate, over and under.
    """
    a, b, num_scale = lowest_terms(num)
    if den is ONE:
        return tuple(a), tuple(b) if any(b) else (), (num_scale,)
    da, db, den_scale = lowest_terms(den)
    e = da
    if any(db):
        conj = (da, [-x for x in db])
        a, b = surd_mul((a, b), conj, d)
        e = surd_mul((da, db), conj, d)[0]
    b = tuple(x * den_scale for x in b) if any(b) else ()
    return tuple(x * den_scale for x in a), b, tuple(x * num_scale for x in e)


class Weight(Frozen):
    """``W(k) = sum_i (a_i + b_i*sqrt(d)) / e_i * atom_i(k)`` on integer lists, constant first.

    ``parts`` holds ``(a_i, b_i, e_i, atom_i)`` sorted by atom, the unit
    atom (None) first; b_i is empty when the coefficient is rational, and
    e_i is a rational integer list that vanishes at no index of the series.
    ``d`` is 1 or the one squarefree radicand of the coefficients.
    """

    __slots__ = ("parts", "d")

    def __init__(self, parts: tuple, d: int = 1):
        self._set(parts, d)

    @staticmethod
    def from_coeffs(coeffs: Sequence) -> "Weight":
        """The polynomial weight with coefficients ``coeffs``, constant first:
        ints, Fractions or QuadElems of one radicand, not all zero."""
        qs = [QuadElem.of(c) for c in coeffs]
        if not any(qs):
            raise ValueError("weight must be nonzero")
        radicands = {q.d for q in qs} - {1}
        if len(radicands) > 1:
            raise ValueError(f"incompatible radicands {sorted(radicands)}")
        l = math.lcm(*(x.denominator for q in qs for x in (q.a, q.b)))
        num = [int(q.a * l) for q in qs], [int(q.b * l) for q in qs], l
        return _weight({None: (num, ONE)}, radicands.pop() if radicands else 1)

    def __len__(self) -> int:
        return len(self.parts)

    def has_harmonic(self) -> bool:
        return any(atom is not None for *_, atom in self.parts)

    def conjugate(self) -> "Weight":
        """The Galois conjugate: every b_i negated."""
        parts = tuple((a, tuple(-x for x in b), e, atom) for a, b, e, atom in self.parts)
        return Weight(parts, self.d)


def _weight(terms: dict, d: int) -> Weight:
    """The Weight of ``{atom: (num, den)}``, num and den polynomial triples of
    :class:`~bseries.exprparse.IntegerEval` over Q(sqrt d)."""
    parts = [
        _clear(num, den, d) + (atom,)
        for atom, (num, den) in sorted(terms.items(), key=lambda t: _atom_key(t[0]))
    ]
    return Weight(tuple(parts), d if any(b for _, b, _, _ in parts) else 1)


def parse_weight(s: str) -> Weight:
    """A weight's text as its integer lists."""
    ev = _WeightEval()
    v = ev.terms(ev.eval(parse_expr(s)))
    if not v:
        raise ValueError("weight must be nonzero")
    return _weight({atom: ev.fold(num, den) for atom, (num, den) in v.items()}, ev.d)


# ----------------------------------------------------------------------
# rendering of coefficient lists over the scalar field


def _needs_parens(s: str) -> bool:
    return (" + " in s) or (" - " in s)


def _wrap(s: str) -> str:
    return f"({s})" if _needs_parens(s) else s


def render_poly(coeffs: Sequence, var: str) -> str:
    """A coefficient list (constant first) as text in var, each scalar by its sign, abs and str."""
    parts: list[tuple[int, str]] = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        s, ca = (c > 0) - (c < 0), abs(c)
        if i == 0:
            body = str(ca)
        else:
            v = var if i == 1 else f"{var}^{i}"
            body = v if ca == 1 else f"{_wrap(str(ca))}*{v}"
        parts.append((s, body))
    if not parts:
        return "0"
    out = parts[0][1] if parts[0][0] >= 0 else ("-" + parts[0][1] if " " not in parts[0][1] else f"-({parts[0][1]})")
    for s, body in parts[1:]:
        if s >= 0:
            out += f" + {body}"
        else:
            out += f" - {body}" if not _needs_parens(body) else f" - ({body})"
    return out


def render_weight(weight: Weight) -> str:
    """Canonical text of a weight: each coefficient a polynomial in k, its
    constant denominator folded in, or ``(numerator)/(denominator)``."""
    parts: list[str] = []
    for a, b, e, atom in weight.parts:
        scale = e[0] if len(e) == 1 else 1
        num = [
            QuadElem(Fraction(x, scale), Fraction(y, scale), weight.d) if b else Fraction(x, scale)
            for x, y in zip_longest(a, b, fillvalue=0)
        ]
        neg = atom is not None and next(c for c in reversed(num) if c) < 0
        if neg:
            num = [-c for c in num]
        cs = render_poly(num, "k")
        if len(e) > 1:
            cs = f"({cs})/({render_poly(e, 'k')})"
        if atom is None:
            parts.append(cs)
            continue
        body = atom.render() if cs == "1" else f"{_wrap(cs)}*{atom.render()}"
        parts.append(f"-{body}" if neg else body)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# ----------------------------------------------------------------------
# denominator factors: products of integer-linear factors


def parse_den_factors(s: str) -> tuple[tuple[int, int, int], ...]:
    """``D = prod (u*k + v)^e`` as sorted integer triples ``(u, v, e)``, read off the AST."""
    s = s.strip()
    if s == "1":
        return ()
    factors: dict[tuple[int, int], int] = {}

    def add_linear(node, e: int):
        refusal = "denominator factors must be u*k + v with integer u > 0"
        ev = IntegerEval("k", "denominator")
        v, u = ev.linear(ev.eval(node), "denominator factor", refusal)
        if u <= 0:
            if not (u or v) and e < 0:
                raise ZeroDivisionError("division by zero in denominator")
            raise ExprError(refusal)
        factors[(u, v)] = factors.get((u, v), 0) + e

    def walk(node, e: int):
        if node[0] == "prod":  # the product up to its last '/' is read whole, then each factor
            i = max((j + 1 for j, (op, _) in enumerate(node[2]) if op == "/"), default=0)
            if i:
                add_linear(("prod", node[1], node[2][:i]), e)
            else:
                walk(node[1], e)
            for _, y in node[2][i:]:
                walk(y, e)
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


def render_den_factors(factors: tuple[tuple[int, int, int], ...]) -> str:
    if not factors:
        return "1"
    parts = []
    for u, v, e in sorted(factors):
        lin = "k" if (u, v) == (1, 0) else f"({render_poly((v, u), 'k')})"
        parts.append(lin if e == 1 else f"{lin}^{e}")
    return "*".join(parts)


# ----------------------------------------------------------------------
# the series definition proper


@cache
def _scale_ratio(kernel, kernel_pos, den_factors) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """:attr:`SeriesDef.scale_ratio`, once per kernel, position and D(k)."""
    num, den = kernel.ratio_factors if kernel else ((), ())
    if kernel_pos is Position.DENOMINATOR:
        num, den = den, num
    d = [(u, v) for u, v, e in den_factors for _ in range(e)]
    sides = []
    for factors in ([*num, *d], [*den, *((u, u + v) for u, v in d)]):
        content, pairs = 1, Counter()
        for u, v in factors:
            g = math.gcd(u, v)
            content *= g
            pairs[u // g, v // g] += 1
        sides.append((content, pairs))
    (cn, pn), (cd, pd) = sides
    g, common = math.gcd(cn, cd), pn & pd
    return tuple(
        tuple(reduce(poly_mul, ([v, u] for (u, v) in (pairs - common).elements()), [c // g]))
        for c, pairs in ((cn, pn), (cd, pd))
    )


class SeriesDef(Frozen):
    """The series ``sum_{k >= k_start} W(k) * S_k * base^k`` with ``base = base_root^base_exp``."""

    __slots__ = (
        "base_root", "base_exp", "kernel", "kernel_pos", "weight", "den_factors", "k_start",
        "base_value", "field_d",
    )

    def __init__(
        self,
        base_root: QuadElem,
        base_exp: int = 1,
        kernel: Optional[KernelFamily] = None,
        kernel_pos: Position = Position.DENOMINATOR,
        weight: Optional[Weight] = None,
        den_factors: tuple[tuple[int, int, int], ...] = (),
        k_start: int = 0,
    ):
        if k_start < 0:
            raise ValueError(f"k_start must be >= 0, got {k_start}")
        if not weight:
            raise ValueError("series needs a nonzero weight")
        base = base_root**base_exp
        if not base:
            raise ValueError("zero base")
        d = weight.d
        if base.d != 1 and d not in (1, base.d):
            raise ValueError(f"mixed radicands {base.d} and {d} in one series")
        check_den_factors(den_factors, k_start)
        for _, _, e, atom in weight.parts:
            k = IntegerSurdPoly.from_lists(e, (), 1).integer_root(k_start) if e[1:] else None
            if k is not None:
                raise ValueError(f"weight denominator vanishes at k={k}")
            if atom is not None:  # the index grows with k: refuse it below 0 at the start
                atom.index_at(k_start)
        self._set(
            base_root, base_exp, kernel, kernel_pos, weight, den_factors, k_start, base, max(d, base.d)
        )

    def has_harmonic(self) -> bool:
        return self.weight.has_harmonic()

    def scale(self, k: int) -> tuple[int, int]:
        """``S_k = kernel(k)^(+-1) / D(k)`` as integers ``(num, den)`` with ``den > 0``."""
        num, den = 1, den_value(self.den_factors, k)
        if self.kernel is not None:
            if self.kernel_pos is Position.NUMERATOR:
                num = self.kernel.value(k)
            else:
                den *= self.kernel.value(k)
        return (-num, -den) if den < 0 else (num, den)

    @property
    def scale_ratio(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Coprime integer lists ``(num, den)``, constant first: ``S_{k+1}/S_k = num(k)/den(k)``.

        Both sides are products of integer-linear factors ``u*k + v`` with u > 0:
        the kernel's :attr:`~bseries.kernels.KernelFamily.ratio_factors`,
        swapped for the denominator position, with D(k)'s factors over and
        D(k + 1)'s under.  Each factor is split into its content ``gcd(u, v)``
        and a primitive pair, the pairs common to both sides cancel as a
        multiset, and the two contents are divided by their gcd.  Distinct
        primitive pairs have distinct roots, and a product of primitive
        factors is primitive, so num and den share no root and no integer
        factor.  A cancelled factor vanishes at no integer k >= k_start (a
        kernel factor has v > 0, and D(k) has no zero there), so the ratio is
        unchanged at every such k, and den vanishes at none of them.
        """
        return _scale_ratio(self.kernel, self.kernel_pos, self.den_factors)

    @property
    def scale_growth(self) -> Fraction:
        """The limit of ``S_{k+1}/S_k``, the kernel's growth to the power +-1 or 1: the ratio
        of :attr:`scale_ratio`'s leading coefficients, since D(k)/D(k + 1) tends to 1."""
        num, den = self.scale_ratio
        return Fraction(num[-1], den[-1])

    def conjugate(self) -> "SeriesDef":
        """Apply the Galois conjugate to every scalar (base and weight coefficients)."""
        return SeriesDef(
            base_root=self.base_root.conjugate(),
            base_exp=self.base_exp,
            kernel=self.kernel,
            kernel_pos=self.kernel_pos,
            weight=self.weight.conjugate(),
            den_factors=self.den_factors,
            k_start=self.k_start,
        )
