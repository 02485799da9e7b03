"""Exact coefficient fields, univariate polynomials in T, and 2x2 matrices.

This is the arithmetic kernel: rationals are arbitrary-precision
``fractions.Fraction`` values kept reduced, prime fields store canonical
residues in [0, p).  Elements of different fields never mix.  All operations
are exact; nothing here ever rounds.

There is one polynomial kernel.  :class:`UniPoly` keeps its coefficients as
plain numbers (over F_p ints in [0, p), over Q ints while integral and
Fractions otherwise) and computes on them; :class:`FieldElem`s appear only at
its accessors.  :class:`Mat2Poly` forms each entry of a product as one sum of
two polynomial products, reduced once.  It takes small powers by binary
powering and large ones by the Cayley-Hamilton recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Union

from .errors import (
    InvalidParameter,
    NonConstantDeterminant,
    SingularMatrix,
    ZeroModulus,
)
from .parsing import render_terms

#: Degree of the zero polynomial.  float("-inf") keeps deg comparisons and the
#: identity deg(pq) = deg p + deg q total.
NEG_INF = float("-inf")

MAX_MODULUS = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """The coefficient field K: the rationals (p=0) or F_p for a prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int = 0):
        if p == 0:
            self.p = 0
            return
        if p > MAX_MODULUS:
            raise InvalidParameter(f"modulus {p} exceeds the configured bound {MAX_MODULUS}")
        if not _is_prime(p):
            raise InvalidParameter(f"modulus {p} is not prime")
        self.p = p

    @property
    def is_finite(self) -> bool:
        return self.p != 0

    @property
    def order(self) -> int:
        if self.p == 0:
            raise InvalidParameter("the rational field is infinite")
        return self.p

    def __call__(self, value) -> "FieldElem":
        """Coerce an int, Fraction, or FieldElem of this field into the field."""
        if isinstance(value, FieldElem):
            if value.field != self:
                raise InvalidParameter("cannot mix elements of different fields")
            return value
        # int before Fraction: an isinstance check against Fraction goes
        # through the numbers ABCs and is several times slower.
        if isinstance(value, int):
            return FieldElem(self, Fraction(value) if self.p == 0 else value % self.p)
        if isinstance(value, Fraction):
            return self.from_fraction(value.numerator, value.denominator)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def from_fraction(self, num: int, den: int) -> "FieldElem":
        if self.p == 0:
            return FieldElem(self, Fraction(num, den))
        den %= self.p
        if den == 0:
            raise ZeroModulus(f"denominator {den} vanishes in F_{self.p}")
        return FieldElem(self, num * pow(den, -1, self.p) % self.p)

    @property
    def zero(self) -> "FieldElem":
        return self(0)

    @property
    def one(self) -> "FieldElem":
        return self(1)

    def elements(self) -> Iterator["FieldElem"]:
        if self.p == 0:
            raise InvalidParameter("cannot enumerate the rational field")
        for v in range(self.p):
            yield FieldElem(self, v)

    def random(self, rng) -> "FieldElem":
        if self.p == 0:
            return FieldElem(self, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        return FieldElem(self, rng.randrange(self.p))

    def random_nonzero(self, rng) -> "FieldElem":
        while True:
            x = self.random(rng)
            if not x.is_zero:
                return x

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def __repr__(self) -> str:
        return "Q" if self.p == 0 else f"F{self.p}"


class FieldElem:
    """An exact element of a :class:`Field`."""

    __slots__ = ("field", "v")

    def __init__(self, field: Field, v):
        self.field = field
        self.v = v

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise InvalidParameter("cannot mix elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = self.v + o.v
        return FieldElem(self.field, v if self.field.p == 0 else v % self.field.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = self.v - o.v
        return FieldElem(self.field, v if self.field.p == 0 else v % self.field.p)

    def __rsub__(self, other):
        return self.field(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = self.v * o.v
        return FieldElem(self.field, v if self.field.p == 0 else v % self.field.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.field(other) / self

    def __neg__(self):
        return FieldElem(self.field, -self.v if self.field.p == 0 else (-self.v) % self.field.p)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        v = pow(self.v, n) if self.field.p == 0 else pow(self.v, n, self.field.p)
        return FieldElem(self.field, v)

    def inverse(self) -> "FieldElem":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        if self.field.p == 0:
            return FieldElem(self.field, 1 / self.v)
        return FieldElem(self.field, pow(self.v, -1, self.field.p))

    @property
    def is_zero(self) -> bool:
        return self.v == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        """Elements of one field compare by value.  Over Q an element also
        equals the int or Fraction of the same value, and hashes like it.
        Over F_p it equals no raw number: 3 and 8 would both have to equal
        3 in F5, and no hash can agree with both."""
        if isinstance(other, FieldElem):
            return other.field == self.field and other.v == self.v
        if isinstance(other, (int, Fraction)):
            return self.field.p == 0 and self.v == other
        return False

    def __hash__(self) -> int:
        return hash(self.v) if self.field.p == 0 else hash((self.field.p, self.v))

    def __str__(self) -> str:
        return str(self.v)

    def __repr__(self) -> str:
        return f"{self.v}:{self.field!r}"


Coeff = Union[FieldElem, int, Fraction]


def _reduce(p: int, cs) -> list:
    """Plain numbers in canonical form: reduced mod p, or over Q (p = 0)
    with integral Fractions demoted to int."""
    if p:
        return [c % p for c in cs]
    return [c.numerator if type(c) is Fraction and c.denominator == 1 else c for c in cs]


def _canonical(p: int, cs) -> tuple:
    """Canonical plain coefficients with no trailing zeros."""
    cs = _reduce(p, cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def binary_power(base, n: int, one):
    """base^n for n >= 0 by repeated squaring; ``one()`` when n = 0."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one() if result is None else result


def _plain_elem(field: Field, v) -> FieldElem:
    """The field element of a canonical plain number (a Fraction over Q)."""
    return FieldElem(field, v if field.p or type(v) is Fraction else Fraction(v))


class UniPoly:
    """A univariate polynomial in T over a fixed field.

    Coefficients are kept by ascending degree with no trailing zeros, as plain
    numbers in the private slot ``_c``: over F_p ints in [0, p), over Q ints
    while integral and ``Fraction``s otherwise, so integral polynomials never
    pay for Fraction arithmetic.  The zero polynomial has no coefficients and
    degree ``NEG_INF``.  The accessors hand out :class:`FieldElem`s.
    """

    __slots__ = ("field", "_c")

    def __init__(self, field: Field, coeffs: Iterable[Coeff] = ()):
        self.field = field
        self._c = _canonical(field.p, [field(c).v for c in coeffs])

    @classmethod
    def _new(cls, field: Field, cs) -> "UniPoly":
        """Build from plain numbers, skipping the coercion of ``__init__``."""
        f = object.__new__(cls)
        f.field = field
        f._c = _canonical(field.p, cs)
        return f

    @classmethod
    def _sum_of_products(cls, field: Field, pairs) -> "UniPoly":
        """The sum of f*g over the (f, g) pairs, reduced once: the one
        polynomial product, shared by ``*`` and the 2x2 matrix product."""
        out = [0] * max(len(f._c) + len(g._c) - 1 for f, g in pairs)
        for f, g in pairs:
            g = g._c
            n = len(g)
            for i, a in enumerate(f._c):
                if a:
                    out[i : i + n] = [o + a * b for o, b in zip(out[i : i + n], g)]
        return cls._new(field, out)

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls._new(field, ())

    @classmethod
    def one(cls, field: Field) -> "UniPoly":
        return cls._new(field, (1,))

    @classmethod
    def T(cls, field: Field) -> "UniPoly":
        return cls._new(field, (0, 1))

    @classmethod
    def monomial(cls, field: Field, k: int, c: Coeff = 1) -> "UniPoly":
        return cls(field, (0,) * k + (c,))

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        return tuple(_plain_elem(self.field, c) for c in self._c)

    @property
    def degree(self):
        return len(self._c) - 1 if self._c else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, k: int) -> FieldElem:
        return _plain_elem(self.field, self._c[k] if 0 <= k < len(self._c) else 0)

    @property
    def constant_term(self) -> FieldElem:
        return self.coeff(0)

    @property
    def leading(self) -> FieldElem:
        if self.is_zero:
            raise ZeroDivisionError("the zero polynomial has no leading coefficient")
        return _plain_elem(self.field, self._c[-1])

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            if other.field != self.field:
                raise InvalidParameter("cannot mix polynomials over different fields")
            return other
        if isinstance(other, (FieldElem, int, Fraction)):
            return UniPoly(self.field, (other,))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        f, g = (self._c, o._c) if len(self._c) >= len(o._c) else (o._c, self._c)
        out = list(f)
        for i, c in enumerate(g):
            out[i] += c
        return UniPoly._new(self.field, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return UniPoly._new(self.field, [-c for c in self._c])

    def __mul__(self, other):
        if isinstance(other, (FieldElem, int, Fraction)):
            c = self.field(other).v
            if not self.field.p and c.denominator == 1:
                c = c.numerator  # integral coefficients stay ints over Q
            return UniPoly._new(self.field, [a * c for a in self._c])
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return UniPoly._sum_of_products(self.field, ((self, o),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise InvalidParameter("polynomial powers must be nonnegative")
        return binary_power(self, n, lambda: UniPoly.one(self.field))

    def shift(self, k: int) -> "UniPoly":
        """Multiply by T^k; a negative k drops the terms below T^-k first."""
        if self.is_zero:
            return self
        return UniPoly._new(self.field, (0,) * k + self._c if k >= 0 else self._c[-k:])

    def __call__(self, x: Coeff) -> FieldElem:
        x = self.field(x).v
        p = self.field.p
        acc = 0
        for c in reversed(self._c):
            acc = (acc * x + c) % p if p else acc * x + c
        return _plain_elem(self.field, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and other.field == self.field
            and other._c == self._c
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self._c))

    def __str__(self) -> str:
        terms = ((k, c) for k, c in reversed(list(enumerate(self._c))) if c)
        return render_terms(("" if k == 0 else "T" if k == 1 else f"T^{k}", c) for k, c in terms)

    def __repr__(self) -> str:
        return f"UniPoly({self})"

    @classmethod
    def parse(cls, text: str, field: Field) -> "UniPoly":
        """Parse ``c*T^k`` sums such as ``T^2 - 3*T + 1/2``."""
        from .parsing import parse_unipoly

        return parse_unipoly(text, field)


ScalarMat = tuple[tuple[FieldElem, FieldElem], tuple[FieldElem, FieldElem]]


def scalar_mat(field: Field, rows) -> ScalarMat:
    (a, b), (c, d) = rows
    return ((field(a), field(b)), (field(c), field(d)))


def scalar_mat_is_zero(m: ScalarMat) -> bool:
    return all(e.is_zero for row in m for e in row)


def render_scalar_mat(m: ScalarMat) -> list[list[str]]:
    return [[str(e) for e in row] for row in m]


#: The least exponent that Mat2Poly.__pow__ takes by Cayley-Hamilton.  On
#: u, v, u^-1 and v^-1 of the three shipped unit pairs, over Q and over F5
#: (Python 3.11.7), the recurrence took 1.42-1.47 times the binary-power
#: time at n = 2, where binary powering is one product, and 0.85-0.87 times
#: it at n = 3 and 4; from n = 5 to 16 it took 0.45-0.75 times.
POWER_CROSSOVER = 3


class Mat2Poly:
    """A 2x2 matrix over K[T], the ambient ring of the representation."""

    __slots__ = ("field", "e")

    def __init__(self, field: Field, entries):
        rows = []
        for row in entries:
            rows.append(tuple(v if isinstance(v, UniPoly) else UniPoly(field, (v,)) for v in row))
            for v in rows[-1]:
                if v.field != field:
                    raise InvalidParameter("matrix entries must share the matrix field")
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise InvalidParameter("Mat2Poly requires a 2x2 entry grid")
        self.field = field
        self.e = (rows[0], rows[1])

    @classmethod
    def _new(cls, field: Field, a: UniPoly, b: UniPoly, c: UniPoly, d: UniPoly) -> "Mat2Poly":
        """[[a, b], [c, d]] from entries over the field, unchecked."""
        m = object.__new__(cls)
        m.field = field
        m.e = ((a, b), (c, d))
        return m

    @classmethod
    def zero(cls, field: Field) -> "Mat2Poly":
        z = UniPoly.zero(field)
        return cls._new(field, z, z, z, z)

    @classmethod
    def identity(cls, field: Field) -> "Mat2Poly":
        o, z = UniPoly.one(field), UniPoly.zero(field)
        return cls._new(field, o, z, z, o)

    @classmethod
    def from_scalars(cls, field: Field, rows) -> "Mat2Poly":
        return cls(field, tuple(tuple(UniPoly(field, (field(v),)) for v in row) for row in rows))

    def entry(self, i: int, j: int) -> UniPoly:
        return self.e[i][j]

    def __add__(self, other: "Mat2Poly") -> "Mat2Poly":
        (a, b), (c, d) = self.e
        (e, f), (g, h) = other.e
        return Mat2Poly._new(self.field, a + e, b + f, c + g, d + h)

    def __sub__(self, other: "Mat2Poly") -> "Mat2Poly":
        return self + -other

    def __neg__(self) -> "Mat2Poly":
        (a, b), (c, d) = self.e
        return Mat2Poly._new(self.field, -a, -b, -c, -d)

    def __mul__(self, other):
        if isinstance(other, Mat2Poly):
            if other.field != self.field:
                raise InvalidParameter("cannot mix matrices over different fields")
            # Each entry is a sum of two products, reduced once.
            (a, b), (c, d) = self.e
            (e, f), (g, h) = other.e
            field, dot = self.field, UniPoly._sum_of_products
            return Mat2Poly._new(
                field,
                dot(field, ((a, e), (b, g))),
                dot(field, ((a, f), (b, h))),
                dot(field, ((c, e), (d, g))),
                dot(field, ((c, f), (d, h))),
            )
        if isinstance(other, (UniPoly, FieldElem, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (UniPoly, FieldElem, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s) -> "Mat2Poly":
        """Multiply every entry by a polynomial or a scalar."""
        (a, b), (c, d) = self.e
        return Mat2Poly._new(self.field, a * s, b * s, c * s, d * s)

    def __pow__(self, n: int) -> "Mat2Poly":
        """M^n; a negative power inverts first.

        Below POWER_CROSSOVER by binary powering.  From there on by
        Cayley-Hamilton (C. M. Fiduccia, SIAM J. Comput. 14, 1985), which holds
        for every 2x2 matrix over a commutative ring: M^n = s_n*M -
        det*s_(n-1)*I, where s_0 = 0, s_1 = 1 and s_(k+1) = tr*s_k -
        det*s_(k-1).  Each step multiplies the long s_k by the short tr and
        det only.
        """
        if n < 0:
            return self.inv() ** (-n)
        if n < POWER_CROSSOVER:
            return binary_power(self, n, lambda: Mat2Poly.identity(self.field))
        (a, b), (c, d) = self.e
        field, dot = self.field, UniPoly._sum_of_products
        tr = a + d
        neg_det = dot(field, ((b, c), (-a, d)))
        prev, s = UniPoly.zero(field), UniPoly.one(field)
        for _ in range(n - 1):
            prev, s = s, dot(field, ((tr, s), (neg_det, prev)))
        return Mat2Poly._new(
            field,
            dot(field, ((a, s), (neg_det, prev))),
            dot(field, ((b, s),)),
            dot(field, ((c, s),)),
            dot(field, ((d, s), (neg_det, prev))),
        )

    def det(self) -> UniPoly:
        (a, b), (c, d) = self.e
        return a * d - b * c

    @property
    def degree(self):
        return max(p.degree for row in self.e for p in row)

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for row in self.e for p in row)

    def coeff_at(self, d: int) -> ScalarMat:
        """The coefficient of T^d in each entry (all zero if deg < d everywhere)."""
        return tuple(tuple(p.coeff(d) for p in row) for row in self.e)

    def inv(self) -> "Mat2Poly":
        """Inverse by adjugate over a constant determinant.

        Only matrices with det in K \\ {0} are invertible inside M2(K[T]).
        """
        det = self.det()
        if det.is_zero:
            raise SingularMatrix("matrix determinant is zero")
        if det.degree >= 1:
            raise NonConstantDeterminant(f"determinant {det} has degree {det.degree}")
        s = det.constant_term.inverse()
        (a, b), (c, d) = self.e
        return Mat2Poly._new(self.field, d * s, b * -s, c * -s, a * s)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat2Poly)
            and other.field == self.field
            and other.e == self.e
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.e))

    def __str__(self) -> str:
        (a, b), (c, d) = self.e
        return f"[[{a}, {b}], [{c}, {d}]]"

    def __repr__(self) -> str:
        return f"Mat2Poly({self})"

    def render(self) -> list[list[str]]:
        return [[str(p) for p in row] for row in self.e]
