"""A small arithmetic-expression front end shared by every textual field.

One tokenizer (a single compiled pattern over ASCII text) and one
recursive-descent parser produce a plain-tuple AST:

    ('num', 17) | ('name', 'k') | ('neg', x) | ('bin', '+', l, r)
    | ('pow', base, exponent_ast) | ('call', 'sqrt', (arg, ...))

The same syntax serves quadratic surds, harmonic-weight expressions, linear
denominator factors, closed forms and certificate polynomials.
:class:`IntegerEval` is the one interpreter of an AST into polynomials: it
walks it straight into integer polynomials over Q(sqrt d) with the rules of
rational-function arithmetic, one coefficient per atom.  A product
multiplies atoms by :meth:`IntegerEval.atom_product`, and a quotient or a
negative power by the reciprocal atom, :meth:`IntegerEval.atom_inverse`; by
default only the unit atom has one.  :meth:`IntegerEval.linear` reads an
integer-linear form in the variable, such as an index or an exponent.  It reads scalars (:func:`eval_quad`),
denominator factors and the rational functions of t in derivative
certificates; with the harmonic atoms :mod:`bseries.seriesmodel` adds,
weights; and with the atoms ``x^(a*n + e) * prod binom(p*n, q*n)^s``,
which multiply and divide, both text fields of a telescoping certificate
in :mod:`bseries.telescope`, the weight in k and the closed form in n.
:mod:`bseries.closedform` folds its ASTs into one dict of terms.

Implicit multiplication (``2k``, ``k(k+1)``, ``(a)(b)``) is supported;
``name(...)`` is a function call only when the name is a registered
function, so ``k(k+1)`` multiplies while ``sqrt(5)`` calls.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional

from .exactnum import QuadElem, poly_add, squarefree_split, surd_mul

__all__ = [
    "parse_expr",
    "ast_as_int",
    "ExprError",
    "IntegerEval",
    "eval_quad",
    "lowest_terms",
    "ONE",
]


class ExprError(ValueError):
    pass


FUNCTION_NAMES = frozenset({"sqrt", "H", "L", "log", "binom", "zeta"})

# one token per match, after optional whitespace: a number, a name, an
# operator, or any other character, which is an error
_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d]\w*)|([-+*/^(),])|(\S))", re.ASCII)


def _tokenize(s: str) -> list[tuple[str, object]]:
    toks: list[tuple[str, object]] = []
    for num, name, op, other in _TOKEN.findall(s):
        if num:
            toks.append(("num", int(num)))
        elif name:
            toks.append(("name", name))
        elif op:
            toks.append(("op", op))
        else:
            raise ExprError(f"unexpected character {other!r} in {s!r}")
    toks.append(("end", None))
    return toks


class _Parser:
    def __init__(self, s: str):
        self.toks = _tokenize(s)
        self.pos = 0
        self.src = s

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r} in {self.src!r}, got {val!r}")

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = ("bin", val, node, rhs)
            else:
                return node

    # term := unary (('*'|'/'|implicit) unary)*
    def term(self):
        node = self.unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = ("bin", val, node, self.unary())
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                # implicit multiplication: 2k, 22k(k+1), (a)(b)
                node = ("bin", "*", node, self.unary())
            else:
                return node

    # unary := '-' unary | power
    def unary(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return ("neg", self.unary())
        if kind == "op" and val == "+":
            self.next()
            return self.unary()
        return self.power()

    # power := primary ('^' exponent)?     (right associative)
    def power(self):
        base = self.primary()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return ("pow", base, self.exponent())
        return base

    # exponent := '-' exponent | primary ('^' exponent)?
    def exponent(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return ("neg", self.exponent())
        return self.power()

    def primary(self):
        kind, val = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            nk, nv = self.peek()
            if nk == "op" and nv == "(" and val in FUNCTION_NAMES:
                self.next()
                args = [self.expr()]
                while True:
                    k2, v2 = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.next()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                return ("call", val, tuple(args))
            return ("name", val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected token {val!r} in {self.src!r}")


def parse_expr(s: str):
    p = _Parser(s)
    node = p.expr()
    kind, val = p.next()
    if kind != "end":
        raise ExprError(f"trailing input at {val!r} in {s!r}")
    return node


def ast_as_int(node) -> int:
    """Evaluate an AST that must denote a plain integer (exponents etc.)."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "neg":
        return -ast_as_int(node[1])
    if kind == "bin":
        op, l, r = node[1], ast_as_int(node[2]), ast_as_int(node[3])
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "/":
            if r == 0 or l % r:
                raise ExprError("non-integer exponent")
            return l // r
    if kind == "pow":
        b, e = ast_as_int(node[1]), ast_as_int(node[2])
        if e < 0 and abs(b) != 1:
            raise ExprError("non-integer exponent")
        return b ** abs(e)  # b = 1/b for b = +-1
    raise ExprError("expected an integer expression")


# ----------------------------------------------------------------------
# integer evaluation
#
# A polynomial over Q(sqrt d) is an integer triple (a, b, l), lists constant
# first, standing for (a + b*sqrt(d))/l with l > 0.  A rational function is a
# pair (num, den) of them, never reduced: n1/d1 + n2/d2 is
# (n1*d2 + n2*d1)/(d1*d2), n1/d1 * n2/d2 is (n1*n2)/(d1*d2), a quotient
# multiplies by the swapped pair, and a power raises both.  So each numerator
# and denominator depends only on the text.  ONE is the polynomial 1, kept by
# identity through division-free subexpressions.

ONE, _ZERO = ((1,), (), 1), ((), (), 1)


def _p_neg(x):
    a, b, l = x
    return [-c for c in a], [-c for c in b], l


def _p_add(x, y):
    (a, b, l), (a2, b2, l2) = x, y
    if l != l2:
        a, b = [c * l2 for c in a], [c * l2 for c in b]
        a2, b2, l = [c * l for c in a2], [c * l for c in b2], l * l2
    return poly_add(a, a2), poly_add(b, b2), l


def _p_mul(x, y, d: int):
    if x is ONE:
        return y
    if y is ONE:
        return x
    return (*surd_mul(x[:2], y[:2], d), x[2] * y[2])


def _p_pow(x, n: int, d: int):
    out = ONE
    while n:
        if n & 1:
            out = _p_mul(out, x, d)
        n >>= 1
        if n:
            x = _p_mul(x, x, d)
    return out


def _p_trim(x):
    """x with both lists padded to one length and trailing zero coefficients dropped."""
    a, b, l = x
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    while n and not (a[n - 1] or b[n - 1]):
        n -= 1
    return a[:n], b[:n], l


def _p_div_const(x, c, d: int):
    """x / c for a nonzero constant c, by c's conjugate."""
    (ca,), (cb,), cl = _p_trim(c)
    norm = ca * ca - d * cb * cb
    a, b = surd_mul(x[:2], ([ca], [-cb]), d)
    s = cl if norm > 0 else -cl
    return [v * s for v in a], [v * s for v in b], x[2] * abs(norm)


def _is_zero(x) -> bool:
    return not (any(x[0]) or any(x[1]))


def lowest_terms(x) -> tuple[list, list, int]:
    """x as ``(a, b, l)`` over the least l: the lists of equal length without
    trailing zero coefficients, and ``gcd(l, *a, *b) == 1``."""
    a, b, l = _p_trim(x)
    g = math.gcd(l, *a, *b)
    return [c // g for c in a], [c // g for c in b], l // g


class IntegerEval:
    """An AST as ``{atom: (num, den)}``, None the unit atom, zero coefficients dropped.

    ``var`` is the polynomial variable (None for a scalar) and ``where``
    names the field in error texts; ``d`` is the one radicand met, 1 if
    none.  A product of two terms multiplies their atoms by
    :meth:`atom_product`, and a quotient multiplies by the divisor's one
    term with its atom replaced by :meth:`atom_inverse`.  Here both allow
    only the unit atom, so atoms are linear and a divisor is atom-free, and
    no name but ``var`` and no function makes an atom.  A subclass that
    reads one overrides :meth:`name` or :meth:`call`, and
    :meth:`atom_product` and :meth:`atom_inverse` where atoms multiply and
    divide.
    """

    def __init__(self, var: Optional[str], where: str):
        self.var, self.where, self.d = var, where, 1

    def eval(self, node) -> dict:
        kind = node[0]
        if kind == "num":
            return {None: (([node[1]], [], 1), ONE)} if node[1] else {}
        if kind == "name":
            return self.name(node[1])
        if kind == "neg":
            return self.neg(self.eval(node[1]))
        if kind == "call":
            return self.call(node[1], node[2])
        if kind == "pow":
            return self.power(self.eval(node[1]), ast_as_int(node[2]))
        if kind != "bin":
            raise ExprError(f"bad AST node {node!r}")
        op, x, y = node[1], self.eval(node[2]), self.eval(node[3])
        if op == "+":
            return self.add(x, y)
        if op == "-":
            return self.add(x, self.neg(y))
        if op == "*":
            return self.mul(x, y)
        return self.mul(x, self.reciprocal(y))

    def name(self, name: str) -> dict:
        if name != self.var:
            raise ExprError(f"unknown name {name!r} in {self.where}")
        return {None: (([0, 1], [], 1), ONE)}

    @staticmethod
    def atom_product(a, b):
        """The atom of the product of an a-term and a b-term."""
        if a is not None and b is not None:
            raise ExprError("weights must be linear in harmonic atoms")
        return b if a is None else a

    @staticmethod
    def atom_inverse(b):
        """The atom of the reciprocal of a b-term."""
        if b is not None:
            raise ExprError("cannot divide by a harmonic atom")
        return None

    @staticmethod
    def unit(x: dict):
        """``(num, den)`` of x's unit atom: zero over one when x has none."""
        return x.get(None, (_ZERO, ONE))

    @staticmethod
    def neg(x: dict) -> dict:
        return {a: (_p_neg(n), den) for a, (n, den) in x.items()}

    def add(self, x: dict, y: dict) -> dict:
        out, d = dict(x), self.d
        for a, (n2, d2) in y.items():
            if a in out:
                n1, d1 = out[a]
                n2, d2 = _p_add(_p_mul(n1, d2, d), _p_mul(n2, d1, d)), _p_mul(d1, d2, d)
                if _is_zero(n2):
                    del out[a]
                    continue
            out[a] = n2, d2
        return out

    def mul(self, x: dict, y: dict) -> dict:
        out, d = {}, self.d
        for a, (n1, d1) in x.items():
            for b, (n2, d2) in y.items():
                term = {self.atom_product(a, b): (_p_mul(n1, n2, d), _p_mul(d1, d2, d))}
                out = self.add(out, term)
        return out

    def reciprocal(self, x: dict) -> dict:
        """1/x for x of one term, its atom replaced by :meth:`atom_inverse`."""
        if not x:
            raise ZeroDivisionError(f"division by zero in {self.where}")
        inverse = {self.atom_inverse(b): (den, num) for b, (num, den) in x.items()}
        if len(inverse) > 1:
            raise ExprError(f"cannot divide by a sum of atoms in {self.where}")
        return inverse

    def power(self, x: dict, n: int) -> dict:
        """x^n; a negative n raises :meth:`reciprocal` of x to -n."""
        if n < 0:
            x, n = self.reciprocal(x), -n
        if not set(x) <= {None}:
            out = {None: (ONE, ONE)}
            for _ in range(n):
                out = self.mul(out, x)
            return out
        num, den = self.unit(x)
        if n and _is_zero(num):
            return {}
        return {None: (_p_pow(num, n, self.d), _p_pow(den, n, self.d))}

    def fold(self, num, den):
        """``(num/c, ONE)`` when den is a constant c, else ``(num, den)``."""
        return (_p_div_const(num, den, self.d), ONE) if len(_p_trim(den)[0]) == 1 else (num, den)

    def polynomial(self, x: dict, degree: int):
        """x's unit coefficient as one trimmed ``(a, b, l)``, if its denominator is a
        constant and its degree at most ``degree``; else None."""
        if not set(x) <= {None}:
            return None
        num, den = self.fold(*self.unit(x))
        p = _p_trim(num)
        return p if den is ONE and len(p[0]) <= degree + 1 else None

    def linear(self, x: dict, what: str, refusal: str = "") -> tuple[int, int]:
        """``(c0, c1)`` with ``x = c0 + c1*var`` for integers c0 and c1; ``what`` names x in
        the errors, and ``refusal``, if given, is the error for coefficients that are not
        integers."""
        p = self.polynomial(x, 1)
        if p is None:
            raise ExprError(f"{what} must be linear in {self.var} in {self.where}")
        a, b, l = p
        if any(b) or any(c % l for c in a):
            raise ExprError(refusal or f"{what} must have integer coefficients in {self.where}")
        c0, c1 = (a + [0, 0])[:2]
        return c0 // l, c1 // l

    def call(self, name: str, args: tuple) -> dict:
        if name == "sqrt" and len(args) == 1:
            p = self.polynomial(self.eval(args[0]), 0)
            if p is None or any(p[1]):
                raise ExprError(f"sqrt of a non-rational argument in {self.where}")
            n, m = p[0][0] if p[0] else 0, p[2]
            if n < 0:
                raise ValueError("sqrt of a negative rational")
            s, r = squarefree_split(n * m) if n else (0, 1)
            if r == 1:
                return {None: (([s], [], m), ONE)} if s else {}
            if self.d not in (1, r):
                raise ValueError(f"incompatible radicands sqrt({self.d}) and sqrt({r})")
            self.d = r
            return {None: (([0], [s], m), ONE)}
        if name == "H":
            raise ExprError(f"harmonic atoms not allowed in {self.where}")
        raise ExprError(f"function {name!r} not allowed in {self.where}")


def eval_quad(node) -> QuadElem:
    """A scalar AST (numbers, +, -, *, /, integer powers, sqrt of a rational) as a QuadElem."""
    ev = IntegerEval(None, "scalar expressions")
    a, b, l = ev.polynomial(ev.eval(node), 0)
    return QuadElem(Fraction(a[0], l) if a else 0, Fraction(b[0], l) if b else 0, ev.d)
