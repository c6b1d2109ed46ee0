"""A seeded corpus of closed-form texts, and one digest of how each one parses.

:func:`texts` builds about 2,000 texts with ``random.Random(SEED)``: sums,
products, quotients by sums, integer powers (negative ones too) and
negations of every atom kind a closed form reads, of the names and
functions it refuses, and of divisors that fold to zero, with about one in
seven texts broken by one character; then every distinct ``rhs``,
``lhs_scale`` and ``endpoint`` field of the two catalogs the repository
ships.  :func:`digest` parses each text and dumps its rendering and terms
(through ``parse_pin.canonical``), ``cf*cf + cf`` and ``1/cf``, or the type
and text of the error each step raised, as canonical JSON, and hashes it.
:data:`PIN` is that digest: a change to the closed-form front end that
moves any value, rendering or error text moves it.  It needs the standard
library alone.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from bseries.closedform import parse_closed_form, render_closed_form
from parse_pin import canonical

SEED, COUNT = 20260622, 2000
PIN = "7a6e6407b561544fe58741e5e3df4acc78c1f8e65f6e7f95904a1d42166dd3ef"
CATALOGS = ("src/bseries/data/catalog.txt", "perfbench/catalog.txt")
FIELDS = ("rhs: ", "lhs_scale: ", "endpoint: ")

# one-atom texts; the refused ones and the zeros come up one time in twenty
_NAMES = ("pi", "G", "K", "zeta(3)", "pi^-1", "1/pi")
_REFUSED = (
    "zeta(5)", "x", "k", "H(k,1)", "binom(4,2)", "foo(2)", "sqrt(2, 3)", "L(-6)", "L(0)", "log(0)",
    "log(-2)", "log(pi)", "log(1 + sqrt(2))", "sqrt(-3)", "sqrt(0)", "sqrt(1 - sqrt(5))", "sqrt(pi)", "2^(1/2)",
)
_DISCRIMINANTS = (-3, -4, -7, -8, -11, -15, -20, -24, 5, 8, 12, 13, 1)
_LOG_ARGS = ("2", "3", "5", "1", "1/2", "4/3", "9/8", "2^3", "sqrt(4)")
_ZEROS = ("(pi - pi)", "(2 - 2)", "0", "log(1)", "(sqrt(2)*sqrt(2) - 2)", "(G - 1*G)", "0^2")
_BREAKS = "()+-*/^,.@ x1"


def _atom(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.03:
        return rng.choice(_REFUSED)
    if r < 0.05:
        return rng.choice(_ZEROS)
    if r < 0.2:
        return str(rng.choice([rng.randint(1, 12), rng.randint(1, 10**6), 10 ** rng.randint(10, 40)]))
    if r < 0.3:
        return f"{rng.randint(-9, 30)}/{rng.randint(1, 40)}"
    if r < 0.45:
        return rng.choice(_NAMES)
    if r < 0.55:
        return f"L({rng.choice(_DISCRIMINANTS)})"
    if r < 0.62:
        return f"log({rng.choice(_LOG_ARGS)})"
    if r < 0.85:
        if rng.random() < 0.7:
            return f"sqrt({rng.randint(1, 40)})"
        return f"sqrt({rng.randint(1, 30)}/{rng.randint(1, 12)})"
    # a nested radical, a few of them negative
    a, b, c = rng.randint(10, 90), rng.randint(-20, 20), rng.choice((2, 3, 5, 6, 4, 7))
    return f"sqrt({a} + {b}*sqrt({c}))"


def _expr(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return _atom(rng)
    r = rng.random()
    if r < 0.35:  # a flat sum
        out = _expr(rng, depth - 1)
        for _ in range(rng.randint(1, 3)):
            out += f" {rng.choice('+-')} {_expr(rng, depth - 1)}"
        return out
    if r < 0.7:  # a product or quotient, the divisor a sum as often as not
        out = _operand(rng, depth - 1)
        for _ in range(rng.randint(1, 3)):
            out += rng.choice(("*", "/", "/", " ")) + _operand(rng, depth - 1)
        return out
    if r < 0.85:
        e = rng.choice((-3, -2, -1, 0, 1, 2, 3, 4))
        return f"{_operand(rng, depth - 1)}^{e if e >= 0 or rng.random() < 0.5 else f'({e})'}"
    return "-" + _operand(rng, depth - 1)


def _operand(rng: random.Random, depth: int) -> str:
    text = _expr(rng, depth)
    return f"({text})" if rng.random() < 0.8 else text


def texts() -> list[str]:
    """The seeded texts, then the catalogs' closed-form fields in sorted order."""
    rng, out = random.Random(SEED), []
    for _ in range(COUNT):
        text = _expr(rng, rng.randint(1, 3))
        if rng.random() < 0.15:  # one character broken: dropped, replaced or added
            i, c = rng.randrange(len(text) + 1), rng.choice(_BREAKS)
            text = rng.choice((text[:i] + text[i + 1:], text[:i] + c + text[i + 1:], text[:i] + c + text[i:]))
        out.append(text)
    root, fields = Path(__file__).resolve().parents[1], set()
    for rel in CATALOGS:
        for line in (root / rel).read_text(encoding="utf-8").splitlines():
            if line.startswith(FIELDS):
                fields.add(line.partition(": ")[2])
    return out + sorted(fields)


def _outcome(step) -> list:
    """``[rendering, terms]`` of the closed form ``step()`` returns, or the error it raised."""
    try:
        cf = step()
    except Exception as e:
        return [type(e).__name__, str(e)]
    return [render_closed_form(cf), canonical(cf)]


def outcomes() -> list:
    """Each text with the outcome of its parse, and where it parses, of ``cf*cf + cf`` and ``1/cf``."""
    out = []
    for text in texts():
        row = [text, _outcome(lambda: parse_closed_form(text))]
        if isinstance(row[1][1], list):
            cf = parse_closed_form(text)
            row += [_outcome(lambda: cf * cf + cf), _outcome(lambda: 1 / cf)]
        out.append(row)
    return out


def digest() -> str:
    """The sha256 of the canonical dump of :func:`outcomes`."""
    return hashlib.sha256(json.dumps(outcomes(), separators=(",", ":")).encode()).hexdigest()
