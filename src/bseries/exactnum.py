"""Exact arithmetic: rationals, real quadratic surds and polynomials on coefficient lists.

The scalar tower is ``Fraction`` ⊂ ``QuadElem`` where a :class:`QuadElem`
is ``a + b*sqrt(d)`` with rational ``a, b`` and squarefree integer
``d >= 1`` (``d == 1`` degenerates to a plain rational).  All predicates —
sign, comparisons, equality — are decided exactly from the rational parts;
no floating point is consulted anywhere in this module.

A polynomial is a coefficient list, constant first, over any ring whose
elements mix with the integer 0: ints, Fractions or QuadElems.
:func:`poly_add`, :func:`poly_mul` and :func:`poly_shift` are the one
polynomial arithmetic, :func:`horner` evaluates a list, and
:func:`poly_values` tabulates one at consecutive integers, and
:func:`table_values` goes on with a table of its first values.
:func:`surd_mul` multiplies two pairs ``(a, b)`` of such lists, each
standing for ``a + b*sqrt(d)``.  A rational function is a pair of lists
where one is needed; nothing here divides polynomials.

Also here: :class:`IntegerSurdPoly`, integer lists ``A + B*sqrt(d)``
(:meth:`IntegerSurdPoly.from_lists`) with exact signs at integer points
and a dominance bound on the real roots: the smallest integer K at which
a lower bound on the leading coefficient times K^n exceeds the sum of
upper bounds on the other coefficients times K^i.  Beyond K the
polynomial has no root.  Term-ratio envelopes and telescoping horizons are
certified with it.
The coefficient bounds embed sqrt(d) through an integer square root, so
this stays free of floating point too, and so does :func:`embed_dyadic`,
the one integer embedding of a surd over a power of two, through which
series bases and nested radicals are evaluated.

:class:`Frozen` is the base of the package's immutable values, the
quadratic surds and closed forms, and of its records, the kernel, weight,
series, certificate, envelope and catalog classes: plain classes with
``__slots__``, whose methods no code generator writes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, count, repeat, zip_longest
from typing import Optional, Sequence

__all__ = [
    "Frozen",
    "QuadElem",
    "embed_dyadic",
    "embed_surd",
    "squarefree_split",
    "IntegerSurdPoly",
    "coefficient_sign",
    "horner",
    "poly_values",
    "table_values",
    "poly_add",
    "poly_mul",
    "poly_shift",
    "surd_mul",
    "surd_sign",
]


class Frozen:
    """Base of the immutable records: ``_set`` fills the slots once, in ``__slots__`` order,
    and two records of one class are equal when their slots are, unless the class defines
    its own ``__eq__``.  A record is hashable only where its class defines ``__hash__``."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)


def squarefree_split(n: int) -> tuple[int, int]:
    """Write ``n = s*s*m`` with ``m`` squarefree; return ``(s, m)``.  n >= 1."""
    if n < 1:
        raise ValueError("squarefree_split needs a positive integer")
    s = 1
    m = 1
    k = 2
    while k * k <= n:
        if n % k == 0:
            e = 0
            while n % k == 0:
                n //= k
                e += 1
            s *= k ** (e // 2)
            if e & 1:
                m *= k
        k += 1 if k == 2 else 2
    return s, m * n


_ZERO = Fraction(0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x) if x else _ZERO
    raise TypeError(f"expected a rational, got {type(x).__name__}")


class QuadElem(Frozen):
    """An element ``a + b*sqrt(d)`` of a real quadratic field (or Q when d=1)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d: int = 1):
        a = _as_fraction(a)
        b = _as_fraction(b)
        if not isinstance(d, int) or d < 1:
            raise ValueError("radicand must be a positive integer")
        if b and d > 1:
            s, d = squarefree_split(d)
            b = b * s if s != 1 else b
        if d == 1 or not b:
            a, b, d = a + b if b else a, _ZERO, 1
        self._set(a, b, d)

    # -- construction helpers -----------------------------------------

    @staticmethod
    def of(x) -> "QuadElem":
        if isinstance(x, QuadElem):
            return x
        return QuadElem(_as_fraction(x))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- ring/field structure ------------------------------------------

    def _match(self, other) -> tuple["QuadElem", "QuadElem"]:
        """Coerce to a common radicand; raises on genuinely mixed fields."""
        if not isinstance(other, QuadElem):
            other = QuadElem(_as_fraction(other))
        if self.d == other.d or self.b == 0 or other.b == 0:
            return self, other
        raise ValueError(f"incompatible radicands sqrt({self.d}) and sqrt({other.d})")

    def __add__(self, other):
        try:
            x, y = self._match(other)
        except TypeError:
            return NotImplemented
        d = x.d if x.d != 1 else y.d
        return QuadElem(x.a + y.a, x.b + y.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.d)

    def __sub__(self, other):
        try:
            x, y = self._match(other)
        except TypeError:
            return NotImplemented
        d = x.d if x.d != 1 else y.d
        return QuadElem(x.a - y.a, x.b - y.b, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return QuadElem(self.a * q, self.b * q, self.d)
        if not isinstance(other, QuadElem):
            return NotImplemented
        x, y = self._match(other)
        d = x.d if x.d != 1 else y.d
        return QuadElem(x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero quadratic element")
        return QuadElem(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return QuadElem(self.a / q, self.b / q, self.d)
        if not isinstance(other, QuadElem):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if n == 1:
            return self
        # (x + y*sqrt(d))^n / c^n by squaring on integers, c a common denominator
        (p, q), (r, t) = self.a.as_integer_ratio(), self.b.as_integer_ratio()
        c = q * t // math.gcd(q, t)
        x, y, d, cn = p * (c // q), r * (c // t), self.d, c**n
        big_x, big_y = 1, 0
        while n:
            if n & 1:
                big_x, big_y = big_x * x + big_y * y * d, big_x * y + big_y * x
            n >>= 1
            if n:
                x, y = x * x + y * y * d, 2 * x * y
        return QuadElem(Fraction(big_x, cn), Fraction(big_y, cn), d)

    # -- Galois action and exact predicates -----------------------------

    def conjugate(self) -> "QuadElem":
        """The Galois conjugate a - b*sqrt(d)."""
        return QuadElem(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """a^2 - d*b^2 (multiplicative; nonzero for nonzero elements)."""
        return self.a * self.a - self.b * self.b * self.d

    def sign(self) -> int:
        """Exact sign of the real embedding with sqrt(d) > 0."""
        return surd_sign(self.a, self.b, self.d)

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadElem):
            if self.d == other.d:
                return self.a == other.a and self.b == other.b
            return self.b == 0 and other.b == 0 and self.a == other.a
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _cmp(self, other) -> int:
        diff = self - other
        return diff.sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self):
        if self.b == 0:
            return f"QuadElem({self.a})"
        return f"QuadElem({self.a}, {self.b}, d={self.d})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"


def embed_dyadic(beta: QuadElem, bits: int) -> tuple[int, int, int]:
    """``(Bn, Bd, eb)`` with ``Bd > 0`` and ``|beta - Bn/Bd| <= eb/Bd``.

    A rational beta is exact: ``(num, den, 0)``.  Otherwise, with
    ``beta = (x + y*sqrt(d)) / c`` over integers, ``Bd = 2^E`` and
    ``Bn = floor(x*2^E/c) +- isqrt(d*y^2*4^E // c^2)``, each part within one
    unit of its real value, so eb = 2.  Since ``|beta| = |N(beta)| / |sigma(beta)|``
    with ``|N| = |x^2 - d*y^2| / c^2`` and ``|sigma| <= (|x| + |y|*(isqrt(d) + 1)) / c``,
    the E below gives ``|beta| * 2^E > 2^(bits+2)`` and so ``|Bn| >= 2^bits``,
    however large the conjugate.
    """
    if beta.is_rational:
        return beta.a.numerator, beta.a.denominator, 0
    c = math.lcm(beta.a.denominator, beta.b.denominator)
    return embed_surd(int(beta.a * c), int(beta.b * c), c, beta.d, bits)


def embed_surd(x: int, y: int, c: int, d: int, bits: int) -> tuple[int, int, int]:
    """:func:`embed_dyadic` of ``(x + y*sqrt(d)) / c`` for integers with ``y != 0`` and
    ``c > 0``, read off those integers as they are."""
    norm = abs(x * x - d * y * y)
    conj = abs(x) + abs(y) * (math.isqrt(d) + 1)
    e = max(0, bits + 3 + c.bit_length() + conj.bit_length() - norm.bit_length())
    root = math.isqrt((d * y * y << 2 * e) // (c * c))
    return (x << e) // c + (root if y > 0 else -root), 1 << e, 2


# ----------------------------------------------------------------------
# polynomial arithmetic on coefficient lists


def horner(coeffs: Sequence, x):
    """The polynomial with coefficients ``coeffs`` (constant first) at x."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def poly_values(coeffs: Sequence, start: int):
    """The values at start, start + 1, ... of the polynomial ``coeffs`` (constant first), without
    end, tabulated by forward differences (Knuth, TAOCP vol. 2, 4.6.4).  Degree 0 is a ``repeat``
    and degree 1 a ``count``; degree d nests d - 1 ``accumulate`` over the ``count`` of its last
    two differences, each started from one difference at ``start``.  Each value is the one
    ``horner`` gives, at d additions in C."""
    if len(coeffs) < 2:
        return repeat(coeffs[0] if coeffs else 0)
    return table_values([horner(coeffs, start + j) for j in range(len(coeffs))])


def table_values(table: Sequence[int]):
    """The values at start, start + 1, ... of the polynomial of degree below ``len(table)``
    whose values there begin with ``table``, without end, as :func:`poly_values` makes them:
    a polynomial is fixed by that many values, and its differences are read off them."""
    heads = []  # heads[i] is the i-th difference at start
    while table:
        heads.append(table[0])
        table = [y - x for x, y in zip(table, table[1:])]
    while len(heads) > 1 and not heads[-1]:
        heads.pop()
    if len(heads) < 2:
        return repeat(heads[0] if heads else 0)
    values = count(heads[-2], heads.pop())
    for head in reversed(heads[:-1]):
        values = accumulate(values, initial=head)
    return values


def poly_add(a: Sequence, b: Sequence) -> list:
    """The sum of two polynomials (coefficient lists, constant first)."""
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def poly_mul(a: Sequence, b: Sequence) -> list:
    """The product of two polynomials (coefficient lists, constant first)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_shift(a: Sequence, c) -> list:
    """The polynomial ``a(x + c)``, by Horner's rule in ``x + c`` done in place: pass i
    divides the rest by ``x - c`` synthetically and leaves the remainder as coefficient i."""
    out = list(a)
    if c:
        for i in range(len(out) - 1):
            for j in range(len(out) - 2, i - 1, -1):
                out[j] += c * out[j + 1]
    return out


def surd_mul(x: tuple, y: tuple, d: int) -> tuple[list, list]:
    """``(a + b*sqrt(d)) * (a' + b'*sqrt(d))`` on pairs ``(a, b)`` of coefficient lists."""
    (a, b), (a2, b2) = x, y
    rational = poly_mul(a, a2)
    if b and b2:
        rational = poly_add(rational, [d * c for c in poly_mul(b, b2)])
    return rational, poly_add(poly_mul(a, b2), poly_mul(b, a2))


# ----------------------------------------------------------------------
# exact signs and a positive-root bound at integer points


def surd_sign(a, b, d: int) -> int:
    """Exact sign of ``a + b*sqrt(d)`` for rational a, b (sqrt(d) irrational if b != 0)."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == 0:
        return sb
    if sb == 0 or sa == sb:
        return sa
    # Opposite signs: |a| vs |b|sqrt(d) decided by a^2 vs d b^2.
    return sa if a * a > d * b * b else sb


def coefficient_sign(a: Sequence[int], b: Sequence[int], d: int) -> int:
    """The sign that every nonzero coefficient of ``A + B*sqrt(d)`` shares, or 0 when two differ
    or none is nonzero.

    Applied to the lists of ``p(x + start)``: a sign s leaves ``p(x + start)``
    no sign change, so every nonzero term has the sign s, ``p`` takes the sign
    s at every ``x > start`` (Descartes' rule with no root), and ``p(start)``
    is s or 0.
    """
    signs = {surd_sign(x, y, d) for x, y in zip_longest(a, b, fillvalue=0)} - {0}
    return signs.pop() if len(signs) == 1 else 0


class IntegerSurdPoly:
    """A polynomial ``A(x) + B(x)*sqrt(d)`` on integer coefficient lists.

    A polynomial over Q(sqrt d) enters with its denominators cleared: a
    positive integer multiple changes neither signs nor roots, so exact
    signs at integer points and the root bound below run on integers.
    """

    __slots__ = ("a", "b", "d")

    @classmethod
    def from_lists(cls, a: Sequence[int], b: Sequence[int], d: int) -> "IntegerSurdPoly":
        """``A + B*sqrt(d)`` from integer lists, constant first.

        ``d`` is 1, which folds B into A, or squarefree, so a coefficient is
        zero only where both lists are; trailing zero coefficients are dropped.
        """
        a, b = (poly_add(a, b), []) if d == 1 else (list(a), list(b))
        n = max(len(a), len(b))
        a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
        while n and not (a[n - 1] or b[n - 1]):
            n -= 1
        if not n:
            raise ValueError("zero polynomial")
        self = cls.__new__(cls)
        self.a, self.b, self.d = a[:n], b[:n], d
        return self

    def sign_at(self, k: int) -> int:
        """Exact sign of the polynomial at the integer k."""
        b = horner(self.b, k) if self.d > 1 else 0
        return surd_sign(horner(self.a, k), b, self.d)

    def integer_root(self, start: int = 0) -> Optional[int]:
        """Smallest integer ``k >= start`` at which the polynomial vanishes, or None."""
        return next((k for k in range(start, self.root_bound(start)) if not self.sign_at(k)), None)

    def _magnitudes(self) -> tuple[int, list[int]]:
        """``lead_lo <= |lead|`` and ``U_i >= |c_i|`` (i < n), all scaled by 2**bits.

        sqrt(d) is enclosed in ``[r, r + 1] / 2**bits`` with ``r`` from
        ``isqrt``, so each embedded coefficient lies in an integer interval
        of width ``|B_i|``.  The precision doubles until ``lead_lo`` exceeds
        1024 times every width: a cancelling coefficient such as
        ``x - y*sqrt(d)`` with huge x, y then gains at most |lead|/1024 in
        its bound, where ``|x| + |y|*sqrt(d)`` would swamp the leading term.
        When d = 1 the coefficients are exact integers and are read as they
        are, unscaled: the embedding would only scale them all by 2**bits,
        so :meth:`root_bound` finds the same K.
        """
        if self.d == 1:
            return abs(self.a[-1] + self.b[-1]), [abs(x + y) for x, y in zip(self.a[:-1], self.b)]
        width = max(abs(y) for y in self.b)
        bits = 64
        while True:
            r = math.isqrt(self.d << (2 * bits))
            bounds = []
            for x, y in zip(self.a, self.b):
                lo, hi = (x << bits) + y * r, (x << bits) + y * (r + 1)
                bounds.append((min(lo, hi), max(lo, hi)))
            lo, hi = bounds[-1]
            lead_lo = lo if lo > 0 else -hi
            if lead_lo > width << 10:
                return lead_lo, [max(-u, v) for u, v in bounds[:-1]]
            bits *= 2

    def root_bound(self, start: int = 0) -> int:
        """Smallest integer ``K >= max(1, start)`` with ``lead_lo*K^n > sum_i U_i*K^i``.

        Then ``|p(x)| >= lead_lo*x^n - sum_{i<n} U_i*x^i > 0`` for every real
        ``x >= K``, because the bound divided by ``x^n`` increases for x > 0:
        the polynomial has no real root in ``[K, +inf)`` and there takes the
        sign of its leading coefficient.  By the same monotonicity the test is
        monotone in K, so doubling and then bisection find the smallest one.
        """
        lead_lo, upper = self._magnitudes()
        n = len(upper)

        def dominates(x: int) -> bool:
            return lead_lo * x**n > horner(upper, x)

        lo = max(1, start)
        if dominates(lo):
            return lo
        hi = 2 * lo
        while not dominates(hi):
            lo, hi = hi, 2 * hi
        while lo + 1 < hi:  # dominates(hi) and not dominates(lo)
            mid = (lo + hi) // 2
            if dominates(mid):
                hi = mid
            else:
                lo = mid
        return hi
