"""A small arithmetic-expression front end shared by every textual field.

One tokenizer (a compiled pattern over ASCII text) and one
recursive-descent parser produce a plain-tuple AST:

    ('num', 17) | ('name', 'k') | ('neg', x)
    | ('sum', x, (('+' | '-', y), ...)) | ('prod', x, (('*' | '/', y), ...))
    | ('pow', base, exponent_ast) | ('call', 'sqrt', (arg, ...))

A sum or a product of several operands is one flat node, its operands
combined left to right, so a long flat sum nests no deeper than one term.

The same syntax serves quadratic surds, harmonic-weight expressions, linear
denominator factors, closed forms and certificate polynomials.
:class:`IntegerEval` is the one interpreter of an AST into polynomials: it
walks it straight into integer polynomials over Q(sqrt d) with the rules of
rational-function arithmetic, one coefficient per atom, each a numerator
and a denominator that are never reduced.  A subtree of numbers alone, such
as ``1/4096`` or ``-5/9``, is a pair of ints under the same rules, and a
value of the unit atom alone is its bare ``(num, den)``: neither goes
through a dict of atoms, and the unreduced-pair rule still fixes every
numerator and denominator by the text alone.  A product
multiplies atoms by :meth:`IntegerEval.atom_product`, and a quotient or a
negative power by the reciprocal atom, :meth:`IntegerEval.atom_inverse`; by
default only the unit atom has one.  :meth:`IntegerEval.linear` reads an
integer-linear form in the variable, such as an index or an exponent.  It
reads scalars (:func:`eval_quad`), denominator factors and the rational
functions of t in derivative certificates; with the harmonic atoms
:mod:`bseries.seriesmodel` adds, weights; and with the atoms
``x^(a*n + e) * prod binom(p*n, q*n)^s``, which multiply and divide, both
text fields of a telescoping certificate in :mod:`bseries.telescope`, the
weight in k and the closed form in n.  :mod:`bseries.closedform` folds its
ASTs into one dict of terms, its numbers-only subtrees into int pairs too.

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
_OPS = frozenset("-+*/^(),")

# one token per match: a number, a name, or one other character (operators,
# and the characters no token allows, which _BAD finds first)
_TOKEN = re.compile(r"\d+|[^\W\d]\w*|\S", re.ASCII)
_BAD = re.compile(r"[^\w\s()*+,/^-]", re.ASCII)


def _shown(tok: str):
    """A token as error texts show it: a number as an int, the end as None."""
    return int(tok) if tok.isdigit() else tok or None


class _Parser:
    """Recursive descent over the tokens of s; the empty string ends the input."""

    def __init__(self, s: str):
        bad = _BAD.search(s)
        if bad:
            raise ExprError(f"unexpected character {bad.group()!r} in {s!r}")
        self.toks, self.pos, self.src = _TOKEN.findall(s) + [""], 0, s

    def expect(self, op: str):
        tok = self.toks[self.pos]
        self.pos += 1
        if tok != op:
            raise ExprError(f"expected {op!r} in {self.src!r}, got {_shown(tok)!r}")

    # expr := term (('+'|'-') term)*
    # term := unary (('*'|'/'|implicit) unary)*
    def expr(self):
        toks, terms, op = self.toks, [], None
        while True:
            factors, mulop = [], None
            while True:
                factors.append((mulop, self.unary()))
                tok = toks[self.pos]
                if tok == "*" or tok == "/":
                    mulop = tok
                    self.pos += 1
                elif tok == "(" or tok and tok not in _OPS:
                    mulop = "*"  # implicit multiplication: 2k, 22k(k+1), (a)(b)
                else:
                    break
            terms.append((op, _chain("prod", factors)))
            if tok != "+" and tok != "-":
                return _chain("sum", terms)
            op = tok
            self.pos += 1

    # unary := '-' unary | '+' unary | primary ('^' exponent)?    (right associative)
    # exponent := '-' exponent | primary ('^' exponent)?
    # primary := number | name | name '(' expr (',' expr)* ')' | '(' expr ')'
    def unary(self, plus: bool = True):
        toks = self.toks
        tok = toks[self.pos]
        self.pos += 1
        if tok == "-" or plus and tok == "+":
            node = self.unary(plus)
            return ("neg", node) if tok == "-" else node
        if tok.isdigit():
            node = ("num", int(tok))
        elif tok == "(":
            node = self.expr()
            self.expect(")")
        elif tok and tok not in _OPS:
            node = ("name", tok)
            if toks[self.pos] == "(" and tok in FUNCTION_NAMES:
                self.pos += 1
                args = [self.expr()]
                while toks[self.pos] == ",":
                    self.pos += 1
                    args.append(self.expr())
                self.expect(")")
                node = ("call", tok, tuple(args))
        else:
            raise ExprError(f"unexpected token {_shown(tok)!r} in {self.src!r}")
        if toks[self.pos] == "^":
            self.pos += 1
            return ("pow", node, self.unary(False))
        return node


def _chain(kind: str, items: list):
    """The operand of a one-item chain, else ``(kind, first, ((op, operand), ...))``."""
    return items[0][1] if len(items) == 1 else (kind, items[0][1], tuple(items[1:]))


def parse_expr(s: str):
    p = _Parser(s)
    node = p.expr()
    if p.toks[p.pos]:
        raise ExprError(f"trailing input at {_shown(p.toks[p.pos])!r} in {s!r}")
    return node


def ast_as_int(node) -> int:
    """Evaluate an AST that must denote a plain integer (exponents etc.)."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "neg":
        return -ast_as_int(node[1])
    if kind == "sum" or kind == "prod":
        out = ast_as_int(node[1])
        for op, y in node[2]:
            y = ast_as_int(y)
            if op == "+":
                out += y
            elif op == "-":
                out -= y
            elif op == "*":
                out *= y
            elif y == 0 or out % y:
                raise ExprError("non-integer exponent")
            else:
                out //= y
        return out
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
# multiplies by the swapped pair, a power raises both, and a zero sum drops
# out.  So each numerator and denominator depends only on the text.  ONE is
# the polynomial 1, kept by identity through division-free subexpressions.
# A subtree of integers alone is a pair (n, d) of ints under the same rules,
# zero _NIL = (0, 1); where it meets a triple, n and d scale it, so every num
# and den is the one the triples alone give.

ONE, _ZERO, _NIL, _MINUS = ((1,), (), 1), ((), (), 1), (0, 1), (-1, 1)


def _p_add(x, y):
    (a, b, l), (a2, b2, l2) = x, y
    if l != l2:
        a, b = [c * l2 for c in a], [c * l2 for c in b]
        a2, b2, l = [c * l for c in a2], [c * l for c in b2], l * l2
    return poly_add(a, a2), poly_add(b, b2), l


def _p_mul(x, y, d: int):
    """x*y for a triple x and a triple or int y."""
    if type(y) is int:
        return x if y == 1 else ([v * y for v in x[0]], [v * y for v in x[1]] if x[1] else [], x[2])
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
    return (a, b, l) if g == 1 else ([c // g for c in a], [c // g for c in b], l // g)


class IntegerEval:
    """An AST as ``{atom: (num, den)}``, None the unit atom and zero coefficients dropped.

    A value with the unit atom alone is carried as its ``(num, den)``, and
    one of integers alone as an int pair ``(n, d)``, zero ``(0, 1)``;
    :meth:`terms` makes either a dict.  ``var`` is the polynomial variable
    (None for a scalar) and ``where`` names the field in error texts; ``d``
    is the one radicand met, 1 if none.  A product of two terms multiplies
    their atoms by :meth:`atom_product`, and a quotient multiplies by the
    divisor's one term with its atom replaced by :meth:`atom_inverse`.  Here
    both allow only the unit atom, so atoms are linear and a divisor is
    atom-free, and no name but ``var`` and no function makes an atom.  A
    subclass that reads one overrides :meth:`name` or :meth:`call`, and
    :meth:`atom_product` and :meth:`atom_inverse` where atoms multiply and
    divide.  Every dict :meth:`eval` returns is a new one, so :meth:`add`
    adds into its first.
    """

    def __init__(self, var: Optional[str], where: str):
        self.var, self.where, self.d = var, where, 1

    def eval(self, node):
        kind = node[0]
        if kind == "num":
            return node[1], 1
        if kind == "sum" or kind == "prod":
            x = node[1]
            x = (x[1], 1) if x[0] == "num" else self.eval(x)
            for op, y in node[2]:
                y = (y[1], 1) if y[0] == "num" else self.eval(y)
                if op == "+":
                    x = self.add(x, y)
                elif op == "-":
                    x = self.add(x, self.mul(y, _MINUS))
                else:
                    x = self.mul(x, y if op == "*" else self.reciprocal(y))
            return x
        if kind == "name":
            return self.name(node[1])
        if kind == "neg":
            return self.mul(self.eval(node[1]), _MINUS)
        if kind == "call":
            return self.call(node[1], node[2])
        if kind == "pow":
            return self.power(self.eval(node[1]), ast_as_int(node[2]))
        raise ExprError(f"bad AST node {node!r}")

    def name(self, name: str):
        if name != self.var:
            raise ExprError(f"unknown name {name!r} in {self.where}")
        return ([0, 1], [], 1), ONE

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
    def terms(x) -> dict:
        """x as ``{atom: (num, den)}``."""
        if type(x) is dict:
            return x
        n, d = x
        if type(n) is not int:
            return {None: x}
        return {None: (([n], [], 1), ONE if d == 1 else ([d], [], 1))} if n else {}

    @staticmethod
    def unit(x: dict):
        """``(num, den)`` of x's unit atom: zero over one when x has none."""
        return x.get(None, (_ZERO, ONE))

    def _plus(self, n1, d1, n2, d2):
        """``n1/d1 + n2/d2`` for triples n1, d1 and triples or ints n2, d2; None if zero."""
        num = _p_add(_p_mul(n1, d2, self.d), _p_mul(d1, n2, self.d))
        return None if _is_zero(num) else (num, _p_mul(d1, d2, self.d))

    def add(self, x, y):
        if type(x) is not dict:
            if type(y) is not dict:
                (n1, d1), (n2, d2) = x, y
                if type(n1) is int:
                    if type(n2) is int:
                        n = n1 * d2 + n2 * d1
                        return (n, d1 * d2) if n else _NIL
                    n1, d1, n2, d2 = n2, d2, n1, d1
                return self._plus(n1, d1, n2, d2) or _NIL
            x, y = y, x
        for a, (n2, d2) in y.items() if type(y) is dict else ((None, y),) if y != _NIL else ():
            self._merge(x, a, n2, d2)
        return x

    def _merge(self, out: dict, a, n2, d2) -> None:
        """Add the term n2/d2 of atom a into out."""
        if a not in out:
            out[a] = (n2, d2) if type(n2) is not int else self.terms((n2, d2))[None]
        elif not (sum_ := self._plus(*out[a], n2, d2)):
            del out[a]
        else:
            out[a] = sum_

    def mul(self, x, y):
        d = self.d
        if type(x) is not dict:
            if type(y) is not dict:
                (n1, d1), (n2, d2) = x, y
                if type(n1) is int:
                    if type(n2) is int:
                        return (n1 * n2, d1 * d2) if n1 and n2 else _NIL
                    n1, d1, n2, d2 = n2, d2, n1, d1
                return (_p_mul(n1, n2, d), _p_mul(d1, d2, d)) if n2 != 0 else _NIL
            x, y = y, x
        if type(y) is not dict:
            n, m = y
            return {a: (_p_mul(num, n, d), _p_mul(den, m, d)) for a, (num, den) in x.items()} if n != 0 else _NIL
        out = {}
        for a, (n1, d1) in x.items():
            for b, (n2, d2) in y.items():
                self._merge(out, self.atom_product(a, b), _p_mul(n1, n2, d), _p_mul(d1, d2, d))
        return out

    def reciprocal(self, x):
        """1/x for x of one term, its atom replaced by :meth:`atom_inverse`."""
        if not x or x == _NIL:
            raise ZeroDivisionError(f"division by zero in {self.where}")
        if type(x) is not dict:
            return x[1], x[0]
        inverse = {self.atom_inverse(b): (den, num) for b, (num, den) in x.items()}
        if len(inverse) > 1:
            raise ExprError(f"cannot divide by a sum of atoms in {self.where}")
        return inverse

    def power(self, x, n: int):
        """x^n; a negative n raises :meth:`reciprocal` of x to -n."""
        if n < 0:
            x, n = self.reciprocal(x), -n
        if type(x) is dict:
            out = {None: (ONE, ONE)}
            for _ in range(n):
                out = self.mul(out, x)
            return out
        num, den = x
        if type(num) is int:
            return (num**n, den**n) if num or not n else _NIL
        return _p_pow(num, n, self.d), _p_pow(den, n, self.d)

    def fold(self, num, den):
        """``(num/c, ONE)`` when den is a constant c, else ``(num, den)``."""
        if den is ONE or len(_p_trim(den)[0]) > 1:
            return num, den
        return _p_div_const(num, den, self.d), ONE

    def polynomial(self, x, degree: int):
        """x's unit coefficient as one trimmed ``(a, b, l)``, if its denominator is a
        constant and its degree at most ``degree``; else None."""
        if type(x) is dict:
            if not set(x) <= {None}:
                return None
            x = self.unit(x)
        num, den = x
        if type(num) is int:
            num, den = (num, den) if den > 0 else (-num, -den)
            return ([num], [0], den) if num else ([], [], den)
        num, den = self.fold(num, den)
        p = _p_trim(num)
        return p if den is ONE and len(p[0]) <= degree + 1 else None

    def linear(self, x, what: str, refusal: str = "") -> tuple[int, int]:
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

    def call(self, name: str, args: tuple):
        if name == "sqrt" and len(args) == 1:
            p = self.polynomial(self.eval(args[0]), 0)
            if p is None or any(p[1]):
                raise ExprError(f"sqrt of a non-rational argument in {self.where}")
            n, m = p[0][0] if p[0] else 0, p[2]
            if n < 0:
                raise ValueError("sqrt of a negative rational")
            s, r = squarefree_split(n * m) if n else (0, 1)
            if r == 1:
                return (([s], [], m), ONE) if s else _NIL
            if self.d not in (1, r):
                raise ValueError(f"incompatible radicands sqrt({self.d}) and sqrt({r})")
            self.d = r
            return ([0], [s], m), ONE
        if name == "H":
            raise ExprError(f"harmonic atoms not allowed in {self.where}")
        raise ExprError(f"function {name!r} not allowed in {self.where}")


def eval_quad(node) -> QuadElem:
    """A scalar AST (numbers, +, -, *, /, integer powers, sqrt of a rational) as a QuadElem."""
    ev = IntegerEval(None, "scalar expressions")
    a, b, l = ev.polynomial(ev.eval(node), 0)
    return QuadElem(Fraction(a[0], l) if a else 0, Fraction(b[0], l) if b else 0, ev.d)
