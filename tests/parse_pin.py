"""A digest of every value a catalog parse produces, pinned per catalog file.

:func:`digest` dumps each record of a parsed catalog -- its series (base
root and exponent, kernel tag, position, ``Weight.parts`` and ``d``, the
denominator triples, ``k_start``), its rhs and ``lhs_scale`` terms, and
every field of its certificate -- as canonical JSON and hashes it.  Ints
stay ints and a ``Fraction`` is written ``"n/d"``, so the dump tells
``3`` from ``Fraction(3)`` and does not depend on the Python version; an
int of more than 14,000 bits, which would be written past ``str``'s
4,300-digit limit, is written in hex, and so is a ``Fraction`` with one.
:data:`PINS` holds the digests of the two catalogs the repository ships;
a parser change that moves any parsed value moves a digest.
"""

from __future__ import annotations

import enum
import hashlib
import json
from fractions import Fraction

from bseries.closedform import ClosedForm
from bseries.exactnum import QuadElem
from bseries.kernels import KernelFamily

# the repository-relative path of each catalog, and the digest of its parse
PINS = {
    "src/bseries/data/catalog.txt": "22541373aa6ee77e26587c9dcf6995f45671b5d5475994034cf9d4914e5f1318",
    "perfbench/catalog.txt": "08e57a6d064c1f13ba3aaeaa1e503eddfa9fe43d4ff3ae4e2fd5b98ceec6f303",
}


def canonical(x):
    """x as plain JSON values: records by their ``__slots__``, tuples and lists as lists."""
    if isinstance(x, int) and x.bit_length() > 14000:  # past str()'s 4,300 digits; hex has no limit
        return ["int", hex(x)]
    if x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        if max(x.numerator.bit_length(), x.denominator.bit_length()) > 14000:
            return ["fraction", hex(x.numerator), hex(x.denominator)]
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, QuadElem):
        return ["quad", canonical(x.a), canonical(x.b), x.d]
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, KernelFamily):
        return x.tag
    if isinstance(x, ClosedForm):
        return canonical(x.terms)
    if isinstance(x, (tuple, list)):
        return [canonical(v) for v in x]
    if hasattr(type(x), "__slots__"):
        return {name: canonical(getattr(x, name)) for name in type(x).__slots__}
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(cat) -> str:
    """The sha256 of the canonical dump of every record of a parsed catalog."""
    dump = [[r.id, r.kind, canonical(r.series), canonical(r.rhs), canonical(r.lhs_scale), canonical(r.cert)]
            for r in cat]
    return hashlib.sha256(json.dumps(dump, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
