"""Exact closed forms: rational combinations of pi powers, square roots,
Dirichlet L-values, logarithms and zeta(3).

A :class:`ClosedForm` is a sum of terms ``coeff * prod atom^exp`` with
``Fraction`` coefficients.  Atoms:

* ``pi`` with any integer exponent (``1/pi`` and ``pi^-1`` both parse);
* ``sqrt(m)`` for squarefree integer m >= 2 (even powers fold into the
  coefficient, inverses use ``1/sqrt(m) = sqrt(m)/m``);
* ``sqrt(x)`` for a positive quadratic surd x (nested radical; inverses
  use ``1/sqrt(x) = sqrt(1/x)``, powers beyond +-1 are rejected);
* ``L(d)`` for a discriminant d, with ``G`` = L(-4) and ``K`` = L(-3) as
  aliases (Catalan-type values at s = 2);
* ``log(q)`` for positive rational q;
* ``zeta(3)``.

The ring operations work on a dict ``{atoms: coeff}`` of canonical terms,
and parsing folds the whole AST into one such dict before it builds one
:class:`ClosedForm`.  Rendering is canonical (sorted atoms, negative
exponents as ``/pi`` style suffixes) and parse/render round-trips
byte-for-byte on canonical text.
Evaluation produces a conservative ball via :mod:`bseries.constants`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import constants
from .exactnum import Frozen, QuadElem, embed_dyadic, squarefree_split
from .exprparse import ExprError, ast_as_int, eval_quad, parse_expr
from .precision import ApproxReal, digits_to_bits
from .seriesmodel import render_quad

__all__ = ["ClosedForm", "CFAtom", "parse_closed_form", "render_closed_form"]

_ONE = Fraction(1)
_KIND_RANK = {"sqrt": 0, "sqrtq": 1, "pi": 2, "lvalue": 3, "log": 4, "zeta3": 5}


class CFAtom(NamedTuple):
    kind: str
    param: object = None

    def sort_key(self):
        p = self.param
        if isinstance(p, QuadElem):
            p = (p.a, p.b, p.d)
        elif p is None:
            p = 0
        return (_KIND_RANK[self.kind], p)

    def render(self) -> str:
        if self.kind == "pi":
            return "pi"
        if self.kind == "zeta3":
            return "zeta(3)"
        if self.kind == "sqrt":
            return f"sqrt({self.param})"
        if self.kind == "sqrtq":
            return f"sqrt({render_quad(self.param)})"
        if self.kind == "log":
            return f"log({self.param})"
        if self.kind == "lvalue":
            if self.param == -4:
                return "G"
            if self.param == -3:
                return "K"
            return f"L({self.param})"
        raise AssertionError(self.kind)


def _term_key(atoms: tuple) -> tuple:
    return tuple((a.sort_key(), e) for a, e in atoms)


# A closed form's terms as a dict {atoms: coeff}, atoms a canonical tuple of
# (atom, exponent) pairs (see _canonical) and no coefficient zero: the ring
# operations below work on these dicts, and ClosedForm wraps one.


def _canonical(coeff: Fraction, atoms) -> tuple[Fraction, tuple]:
    """The term ``coeff * prod atom^exp`` with its atoms merged, sorted and even roots folded."""
    return _fold_even_sqrt(coeff, _normalize_atoms_tuple(atoms))


def _add_term(out: dict, coeff: Fraction, atoms: tuple) -> None:
    if atoms in out:
        coeff += out[atoms]
        if not coeff:
            del out[atoms]
            return
    out[atoms] = coeff


def _sum(x: dict, y: dict) -> dict:
    out = dict(x)
    for atoms, c in y.items():
        _add_term(out, c, atoms)
    return out


def _product(x: dict, y: dict) -> dict:
    out: dict = {}
    for a1, c1 in x.items():
        for a2, c2 in y.items():
            c = c1 if c2 is _ONE else c2 if c1 is _ONE else c1 * c2
            if a1 and a2:
                c, atoms = _canonical(c, a1 + a2)
            else:  # a rational factor leaves the other's atoms canonical
                atoms = a1 or a2
            _add_term(out, c, atoms)
    return out


def _inverse(x: dict) -> dict:
    if not x:
        raise ZeroDivisionError("division by zero in closed form")
    if len(x) != 1:
        raise ExprError("can only divide by a single closed-form term")
    ((atoms, coeff),) = x.items()
    inv_coeff = 1 / coeff
    inv_atoms = []
    for atom, exp in atoms:
        if atom.kind == "pi":
            inv_atoms.append((atom, -exp))
        elif atom.kind == "sqrt":
            if exp != 1:
                raise ExprError("unexpected radical power in divisor")
            # 1/sqrt(m) = sqrt(m)/m
            inv_coeff /= atom.param
            inv_atoms.append((atom, 1))
        elif atom.kind == "sqrtq":
            if exp != 1:
                raise ExprError("unexpected radical power in divisor")
            inv_atoms.append((CFAtom("sqrtq", atom.param.inverse()), 1))
        else:
            raise ExprError(f"cannot invert {atom.render()}")
    c, atoms = _canonical(inv_coeff, inv_atoms)
    return {atoms: c}


def _power(x: dict, n: int) -> dict:
    if n < 0:
        return _power(_inverse(x), -n)
    out = {(): _ONE}
    for _ in range(n):
        out = _product(out, x)
    return out


class ClosedForm(Frozen):
    """Sum of coeff * prod(atom^exp) with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        """The closed form of a dict of canonical terms, as the ring operations leave it."""
        ordered = sorted(((c, a) for a, c in terms.items()), key=lambda t: _term_key(t[1]))
        self._set(tuple(ordered))

    def _dict(self) -> dict:
        return {atoms: c for c, atoms in self.terms}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> "ClosedForm":
        return ClosedForm({(): Fraction(c)} if c else {})

    @staticmethod
    def term(coeff, atoms) -> "ClosedForm":
        coeff, atoms = _canonical(Fraction(coeff), atoms)
        return ClosedForm({atoms: coeff} if coeff else {})

    @staticmethod
    def zero() -> "ClosedForm":
        return ClosedForm({})

    def is_rational(self) -> bool:
        return all(not atoms for _, atoms in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_rational():
            return sum((c for c, _ in self.terms), Fraction(0))
        raise ValueError("closed form is not rational")

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        return ClosedForm(_sum(self._dict(), _coerce_cf(other)._dict()))

    __radd__ = __add__

    def __neg__(self):
        return ClosedForm({atoms: -c for c, atoms in self.terms})

    def __sub__(self, other):
        return self + (-_coerce_cf(other))

    def __rsub__(self, other):
        return (-self) + _coerce_cf(other)

    def __mul__(self, other):
        return ClosedForm(_product(self._dict(), _coerce_cf(other)._dict()))

    __rmul__ = __mul__

    def inverse(self) -> "ClosedForm":
        return ClosedForm(_inverse(self._dict()))

    def __truediv__(self, other):
        return self * _coerce_cf(other).inverse()

    def __rtruediv__(self, other):
        return _coerce_cf(other) * self.inverse()

    def __pow__(self, n: int):
        return ClosedForm(_power(self._dict(), n))

    def __eq__(self, other):
        if not isinstance(other, (ClosedForm, int, Fraction)):
            return NotImplemented
        return self.terms == _coerce_cf(other).terms

    def __hash__(self):
        return hash(self.terms)

    # -- numerics ----------------------------------------------------------

    def eval_ball(self, digits: int) -> ApproxReal:
        """Ball enclosure good to ~`digits`; its precision is set by `digits` alone."""
        # A coefficient of n decimal digits scales the error of the constants
        # it multiplies by up to 10^n, so they are computed n digits further;
        # rounded up to a multiple of 4, so that the closed forms of one
        # precision ask for their constants at one precision, computed once.
        pad = digits + 10 + max((len(str(abs(c.numerator))) for c, _ in self.terms), default=0)
        pad += -pad % 4
        bits = digits_to_bits(pad)
        total = ApproxReal.from_int(0)
        for coeff, atoms in self.terms:
            v = ApproxReal.from_fraction(coeff, bits)
            for atom, exp in atoms:
                v = v * _atom_ball(atom, pad) ** exp
            total = total + v
        return total

    def atoms_used(self) -> set[CFAtom]:
        out = set()
        for _, atoms in self.terms:
            for a, _ in atoms:
                out.add(a)
        return out

    def __repr__(self):
        return f"ClosedForm({render_closed_form(self)!r})"


def _coerce_cf(x) -> ClosedForm:
    if isinstance(x, ClosedForm):
        return x
    if isinstance(x, (int, Fraction)):
        return ClosedForm.const(x)
    raise TypeError(f"cannot treat {type(x).__name__} as a closed form")


def _normalize_atoms_tuple(atoms) -> tuple:
    merged: dict[CFAtom, int] = {}
    for atom, exp in atoms:
        merged[atom] = merged.get(atom, 0) + exp
    out = [(a, e) for a, e in merged.items() if e]
    out.sort(key=lambda t: t[0].sort_key())
    return tuple(out)


def _fold_even_sqrt(coeff: Fraction, atoms: tuple) -> tuple[Fraction, tuple]:
    """sqrt(m)^(2j+r) -> m^j * sqrt(m)^r, merging residual roots into one
    radicand (sqrt(2)*sqrt(3) = sqrt(6)); rejects powered surd radicals.
    Merged and sorted atoms stay so: the one radical left is the least atom."""
    out = []
    radicand = 1
    for atom, exp in atoms:
        if atom.kind == "sqrt":
            j, r = divmod(exp, 2)
            if j:
                coeff *= Fraction(atom.param) ** j
            if r:
                radicand *= atom.param
        elif atom.kind == "sqrtq":
            if exp not in (0, 1):
                raise ExprError("cannot take powers of nested radicals")
            if exp:
                out.append((atom, exp))
        elif atom.kind == "pi":
            out.append((atom, exp))
        else:
            if exp < 0:
                raise ExprError(f"cannot invert {atom.render()}")
            out.append((atom, exp))
    if radicand != 1:
        s, m = squarefree_split(radicand)
        coeff *= s
        if m != 1:
            out.insert(0, (CFAtom("sqrt", m), 1))
    return coeff, tuple(out)


def _atom_ball(atom: CFAtom, digits: int) -> ApproxReal:
    """The atom's ball to ~`digits`; a radical is floored at 2^-digits_to_bits(digits)."""
    if atom.kind == "pi":
        return constants.pi_ball(digits)
    if atom.kind == "zeta3":
        return constants.zeta3_ball(digits)
    if atom.kind == "lvalue":
        return constants.l_value_ball(atom.param, digits)
    if atom.kind == "log":
        return constants.log_ball(atom.param, digits)
    if atom.kind == "sqrt":
        return ApproxReal.from_ratio(atom.param, 1, digits_to_bits(digits)).sqrt()
    if atom.kind == "sqrtq":
        # |x| <= |a| + |b|*(isqrt(d) + 1): that many bits more keep sqrt(x)'s
        # absolute error below one unit of 2^-digits_to_bits(digits)
        x = atom.param
        size = int(abs(x.a) + abs(x.b) * (math.isqrt(x.d) + 1)).bit_length()
        bn, bd, eb = embed_dyadic(x, digits_to_bits(digits) + size)
        return ApproxReal(bn, bd.bit_length() - 1, eb).sqrt()
    raise AssertionError(atom.kind)


# ----------------------------------------------------------------------
# parsing and rendering


_NAMES = {"pi": CFAtom("pi"), "G": CFAtom("lvalue", -4), "K": CFAtom("lvalue", -3)}


def _fold(node):
    """A closed form's AST folded into one dict of canonical terms, or into an int pair
    ``(n, d)`` where it holds integers alone."""
    kind = node[0]
    if kind == "num":
        return node[1], 1
    if kind == "sum" or kind == "prod":
        x = _fold(node[1])
        for op, y in node[2]:
            x = _combine(op, x, _fold(y))
        return x
    if kind == "name":
        if node[1] not in _NAMES:
            raise ExprError(f"unknown closed-form name {node[1]!r}")
        return {((_NAMES[node[1]], 1),): _ONE}
    if kind == "neg":
        x = _fold(node[1])
        return (-x[0], x[1]) if type(x) is tuple else {atoms: -c for atoms, c in x.items()}
    if kind == "call":
        return _call(node[1], node[2])
    if kind == "pow":
        return _power(_terms(_fold(node[1])), ast_as_int(node[2]))
    raise ExprError(f"bad AST node {node!r}")


def _combine(op: str, x, y):
    """``x op y`` for folded values, int pairs where both are."""
    if type(x) is tuple and type(y) is tuple:
        (n1, d1), (n2, d2) = x, y
        if op == "*":
            return n1 * n2, d1 * d2
        if op == "/":
            if not n2:
                raise ZeroDivisionError("division by zero in closed form")
            return n1 * d2, d1 * n2
        return n1 * d2 + (n2 if op == "+" else -n2) * d1, d1 * d2
    x, y = _terms(x), _terms(y)
    if op == "+":
        return _sum(x, y)
    if op == "-":
        return _sum(x, {atoms: -c for atoms, c in y.items()})
    return _product(x, y if op == "*" else _inverse(y))


def _terms(x) -> dict:
    """A folded value as a dict of canonical terms."""
    if type(x) is dict:
        return x
    return {(): Fraction(*x)} if x[0] else {}


def _call(name: str, args: tuple) -> dict:
    if name == "sqrt" and len(args) == 1:
        if args[0][0] == "num":  # sqrt(m) of an integer m
            return _rational_sqrt(args[0][1], 1)
        x = eval_quad(args[0])
        if x.is_rational:
            return _rational_sqrt(x.a.numerator, x.a.denominator)
        if x.sign() < 0:
            raise ExprError("sqrt of a non-positive closed-form radicand")
        return {((CFAtom("sqrtq", x), 1),): _ONE}
    if name == "L" and len(args) == 1:
        d = ast_as_int(args[0])
        if d % 4 not in (0, 1) or d == 0:
            raise ExprError(f"L({d}): not a discriminant")
        return {((CFAtom("lvalue", d), 1),): _ONE}
    if name == "log" and len(args) == 1:
        q = eval_quad(args[0]).as_fraction()
        if q <= 0:
            raise ExprError("log of non-positive rational")
        return {((CFAtom("log", q), 1),): _ONE} if q != 1 else {}
    if name == "zeta" and len(args) == 1:
        if ast_as_int(args[0]) != 3:
            raise ExprError("only zeta(3) is supported")
        return {((CFAtom("zeta3"), 1),): _ONE}
    raise ExprError(f"unknown closed-form function {name!r}")


def _rational_sqrt(n: int, d: int) -> dict:
    """sqrt(n/d) for integers d > 0 and n, n*d = s^2 * m split once: (s/d) * sqrt(m)."""
    if n <= 0:
        raise ExprError("sqrt of a non-positive closed-form radicand")
    s, m = squarefree_split(n * d)
    return {(): Fraction(s, d)} if m == 1 else {((CFAtom("sqrt", m), 1),): Fraction(s, d)}


def parse_closed_form(s: str) -> ClosedForm:
    return ClosedForm(_terms(_fold(parse_expr(s))))


def render_closed_form(cf: ClosedForm) -> str:
    if not cf.terms:
        return "0"
    rendered = []
    for coeff, atoms in cf.terms:
        num_parts = [a.render() if e == 1 else f"{a.render()}^{e}" for a, e in atoms if e > 0]
        den_parts = [a.render() if e == -1 else f"{a.render()}^{-e}" for a, e in atoms if e < 0]
        neg = coeff < 0
        c = -coeff if neg else coeff
        if num_parts and c == 1:
            body = "*".join(num_parts)
        else:
            body = "*".join([str(c)] + num_parts)
        for d in den_parts:
            body += f"/{d}"
        rendered.append(("-" if neg else "") + body)
    out = rendered[0]
    for r in rendered[1:]:
        out += f" - {r[1:]}" if r.startswith("-") else f" + {r}"
    return out
