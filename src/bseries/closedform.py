"""Exact closed forms: rational combinations of pi powers, square roots,
Dirichlet L-values, logarithms and zeta(3).

A :class:`ClosedForm` is a sum of terms ``coeff * prod atom^exp`` with
``Fraction`` coefficients.  Atoms:

* ``pi`` with any integer exponent (``1/pi`` and ``pi^-1`` both parse);
* ``sqrt(m)`` for squarefree integer m >= 2, from a rational n/l in lowest
  terms with n*l < 2^64 (even powers fold into the coefficient, two merge by
  their gcd, inverses use ``1/sqrt(m) = sqrt(m)/m``);
* ``sqrt(x)`` for a positive quadratic surd x (nested radical; inverses
  use ``1/sqrt(x) = sqrt(1/x)``, powers beyond +-1 are rejected);
* ``L(d)`` for a discriminant d, with ``G`` = L(-4) and ``K`` = L(-3) as
  aliases (Catalan-type values at s = 2);
* ``log(q)`` for positive rational q;
* ``zeta(3)``.

Closed forms are read and combined by :class:`_CFEval`, the
:class:`~bseries.exprparse.IntegerEval` whose atoms are canonical monomials:
sorted ``(CFAtom, exp)`` tuples with at most one ``sqrt(m)``.  Its ``name``
and ``call`` read the atoms from the text, and its atom hooks multiply and
invert them, returning the integer the radicals leave over.  Parsing and
every :class:`ClosedForm` operator run the evaluator's ``add``, ``mul``,
``reciprocal`` and ``power``, so closed forms follow the coefficient rules
of every other field.  Rendering is canonical (sorted atoms,
negative exponents as ``/pi`` style suffixes) and parse/render round-trips
byte-for-byte on canonical text.
Evaluation produces a conservative ball via :mod:`bseries.constants`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import constants
from .exactnum import Frozen, QuadElem, embed_dyadic, sqrt_split
from .exprparse import ONE, ExprError, IntegerEval, ast_as_int, eval_quad, parse_expr
from .precision import ApproxReal, digits_to_bits

__all__ = ["ClosedForm", "CFAtom", "parse_closed_form", "render_closed_form"]

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
        if self.kind in ("sqrt", "sqrtq"):
            return f"sqrt({self.param})"
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


class ClosedForm(Frozen):
    """Sum of coeff * prod(atom^exp) with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, x):
        """The closed form of an evaluator value: an int pair or ``{atoms or None: (num, den)}``."""
        terms = [(_fraction(*value), atoms or ()) for atoms, value in IntegerEval.terms(x).items()]
        terms.sort(key=lambda t: _term_key(t[1]))
        self._set(tuple(terms))

    def _value(self) -> dict:
        """The closed form as a new evaluator value."""
        terms = IntegerEval.terms
        return {atoms or None: terms((c.numerator, c.denominator))[None] for c, atoms in self.terms}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> "ClosedForm":
        c = Fraction(c)
        return ClosedForm((c.numerator, c.denominator))

    @staticmethod
    def term(coeff, atoms) -> "ClosedForm":
        """coeff times the product of ``atom^exp`` over the pairs of ``atoms``."""
        out = ClosedForm.const(coeff)
        for atom, exp in atoms:
            out *= ClosedForm({((atom, 1),): (ONE, ONE)}) ** exp
        return out

    @staticmethod
    def zero() -> "ClosedForm":
        return ClosedForm((0, 1))

    def is_rational(self) -> bool:
        return all(not atoms for _, atoms in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_rational():
            return sum((c for c, _ in self.terms), Fraction(0))
        raise ValueError("closed form is not rational")

    # -- ring operations: the evaluator's ------------------------------------

    def __add__(self, other):
        return ClosedForm(_CFEval().add(self._value(), _coerce_cf(other)._value()))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-_coerce_cf(other))

    def __rsub__(self, other):
        return (-self) + _coerce_cf(other)

    def __mul__(self, other):
        return ClosedForm(_CFEval().mul(self._value(), _coerce_cf(other)._value()))

    __rmul__ = __mul__

    def inverse(self) -> "ClosedForm":
        return ClosedForm(_CFEval().reciprocal(self._value()))

    def __truediv__(self, other):
        return self * _coerce_cf(other).inverse()

    def __rtruediv__(self, other):
        return _coerce_cf(other) * self.inverse()

    def __pow__(self, n: int):
        return ClosedForm(_CFEval().power(self._value(), n))

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


def _fraction(num, den) -> Fraction:
    """num/den for the evaluator's constant triples ``([a], [], l)``, each a/l."""
    return Fraction(num[0][0] * den[2], num[2] * den[0][0])


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


_NAMES = {"pi": ("pi", None), "G": ("lvalue", -4), "K": ("lvalue", -3)}


def _atom(kind: str, param=None) -> dict:
    """The value of one atom: a new dict, as the evaluator adds into its first operand."""
    return {((CFAtom(kind, param), 1),): (ONE, ONE)}


class _CFEval(IntegerEval):
    """:class:`~bseries.exprparse.IntegerEval` with the atoms of a closed form.

    An atom is a canonical monomial: a tuple of ``(CFAtom, exp)`` pairs,
    sorted by :meth:`CFAtom.sort_key`, with at most one ``sqrt(m)``, and
    that to the first power; None is the unit atom.  Every coefficient is
    rational: no radical enters one.
    """

    def __init__(self):
        super().__init__(None, "closed form")

    def name(self, name: str) -> dict:
        if name not in _NAMES:
            raise ExprError(f"unknown closed-form name {name!r}")
        return _atom(*_NAMES[name])

    def call(self, name: str, args: tuple):
        if name == "sqrt" and len(args) == 1:
            if args[0][0] == "num":  # sqrt(m) of an integer m
                return self._rational_sqrt(args[0][1], 1)
            x = eval_quad(args[0])
            if x.is_rational:
                return self._rational_sqrt(x.a.numerator, x.a.denominator)
            if x.sign() < 0:
                raise ExprError("sqrt of a non-positive closed-form radicand")
            return _atom("sqrtq", x)
        if name == "L" and len(args) == 1:
            d = ast_as_int(args[0])
            if d % 4 not in (0, 1) or d == 0:
                raise ExprError(f"L({d}): not a discriminant")
            return _atom("lvalue", d)
        if name == "log" and len(args) == 1:
            q = eval_quad(args[0]).as_fraction()
            if q <= 0:
                raise ExprError("log of non-positive rational")
            return _atom("log", q) if q != 1 else {}
        if name == "zeta" and len(args) == 1:
            if ast_as_int(args[0]) != 3:
                raise ExprError("only zeta(3) is supported")
            return _atom("zeta3")
        raise ExprError(f"unknown closed-form function {name!r}")

    def _rational_sqrt(self, n: int, d: int):
        """sqrt(n/d) for integers d > 0 and n, n*d = s^2 * m split once: (s/d) * sqrt(m)."""
        if n <= 0:
            raise ExprError("sqrt of a non-positive closed-form radicand")
        s, m = sqrt_split(n, d)
        return (s, d) if m == 1 else self.mul(_atom("sqrt", m), (s, d))

    def reciprocal(self, x):
        if type(x) is dict and len(x) > 1:
            raise ExprError("can only divide by a single closed-form term")
        return super().reciprocal(x)

    @staticmethod
    def atom_product(a, b):
        """Exponents add; sqrt(m)^2 = m, and two radicals merge into one, sqrt(2)*sqrt(6) =
        2*sqrt(3): that m, or 2, is the integer returned."""
        if a is None or b is None:
            return (b if a is None else a), 1
        merged = dict(a)
        for atom, exp in b:
            merged[atom] = merged.get(atom, 0) + exp
        f, roots, out = 1, [], []
        for atom, exp in sorted(merged.items(), key=lambda t: t[0].sort_key()):
            if atom.kind == "sqrt":
                if exp == 2:
                    f = atom.param
                else:
                    roots.append(atom.param)
            elif atom.kind == "sqrtq" and exp > 1:
                raise ExprError("cannot take powers of nested radicals")
            elif exp:
                out.append((atom, exp))
        if len(roots) == 2:  # distinct squarefree m, n: m*n = g^2 * (m/g)*(n/g), g = gcd(m, n)
            f = math.gcd(*roots)
            roots = [roots[0] * roots[1] // (f * f)]
        return tuple([(CFAtom("sqrt", m), 1) for m in roots] + out) or None, f

    @staticmethod
    def atom_inverse(b):
        """1/pi^e = pi^-e, 1/sqrt(m) = sqrt(m)/m, with m returned, and 1/sqrt(x) = sqrt(1/x);
        no other atom has a reciprocal."""
        if b is None:
            return None, 1
        f, out = 1, []
        for atom, exp in b:
            if atom.kind == "pi":
                out.append((atom, -exp))
            elif atom.kind == "sqrt":
                f = atom.param
                out.append((atom, 1))
            elif atom.kind == "sqrtq":
                out.append((CFAtom("sqrtq", atom.param.inverse()), 1))
            else:
                raise ExprError(f"cannot invert {atom.render()}")
        return tuple(sorted(out, key=lambda t: t[0].sort_key())), f


def parse_closed_form(s: str) -> ClosedForm:
    return ClosedForm(_CFEval().eval(parse_expr(s)))


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
