"""A small arithmetic-expression front end shared by every textual field.

One tokenizer and one recursive-descent parser produce a plain-tuple AST:

    ('num', 17) | ('name', 'k') | ('neg', x) | ('bin', '+', l, r)
    | ('pow', base, exponent_ast) | ('call', 'sqrt', (arg, ...))

Interpretation is delegated to a context object, so the same syntax serves
quadratic surds, harmonic-weight expressions, linear denominator factors,
closed forms and certificate polynomials.  Contexts implement ``number``,
``name``, ``call`` and optionally ``power``; binary operators are applied
through the Python operators of whatever values the context returns.

Implicit multiplication (``2k``, ``k(k+1)``, ``(a)(b)``) is supported;
``name(...)`` is a function call only when the name is a registered
function, so ``k(k+1)`` multiplies while ``sqrt(5)`` calls.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["parse_expr", "EvalContext", "eval_ast", "ast_as_int", "ExprError"]


class ExprError(ValueError):
    pass


FUNCTION_NAMES = frozenset({"sqrt", "H", "L", "log", "binom", "zeta"})

_OPS = "+-*/^(),"


def _tokenize(s: str) -> list[tuple[str, object]]:
    toks: list[tuple[str, object]] = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            toks.append(("num", int(s[i:j])))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (s[j].isalnum() or s[j] == "_"):
                j += 1
            toks.append(("name", s[i:j]))
            i = j
        elif c in _OPS:
            toks.append(("op", c))
            i += 1
        else:
            raise ExprError(f"unexpected character {c!r} in {s!r}")
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


class EvalContext:
    """Base interpretation: contexts override number/name/call as needed."""

    def number(self, n: int):
        return Fraction(n)

    def name(self, name: str):
        raise ExprError(f"unknown name {name!r}")

    def call(self, name: str, args: tuple):
        raise ExprError(f"unknown function {name!r}")

    def power(self, base, exp_ast):
        return base ** ast_as_int(exp_ast)


def eval_ast(node, ctx: EvalContext):
    kind = node[0]
    if kind == "num":
        return ctx.number(node[1])
    if kind == "name":
        return ctx.name(node[1])
    if kind == "neg":
        return -eval_ast(node[1], ctx)
    if kind == "call":
        return ctx.call(node[1], node[2])
    if kind == "pow":
        return ctx.power(eval_ast(node[1], ctx), node[2])
    if kind == "bin":
        op = node[1]
        l = eval_ast(node[2], ctx)
        r = eval_ast(node[3], ctx)
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "/":
            return l / r
    raise ExprError(f"bad AST node {node!r}")
