"""Exact coefficient fields, univariate polynomials in T, and 2x2 matrices.

This is the arithmetic kernel: rationals are arbitrary-precision
``fractions.Fraction`` values kept reduced, prime fields store canonical
residues in [0, p).  Elements of different fields never mix.  All operations
are exact; nothing here ever rounds.
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

#: Degree of the zero polynomial.  float("-inf") keeps deg comparisons and the
#: identity deg(pq) = deg p + deg q total.
NEG_INF = float("-inf")

DEFAULT_MAX_MODULUS = 2**31


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

    def __init__(self, p: int = 0, max_modulus: int = DEFAULT_MAX_MODULUS):
        if p == 0:
            self.p = 0
            return
        if p > max_modulus:
            raise InvalidParameter(f"modulus {p} exceeds the configured bound {max_modulus}")
        if not _is_prime(p):
            raise InvalidParameter(f"modulus {p} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

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
        if isinstance(other, (int, Fraction)):
            other = self.field(other)
        return (
            isinstance(other, FieldElem)
            and other.field == self.field
            and other.v == self.v
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.v))

    def __str__(self) -> str:
        return str(self.v)

    def __repr__(self) -> str:
        return f"{self.v}:{self.field!r}"


Coeff = Union[FieldElem, int, Fraction]


class UniPoly:
    """A univariate polynomial in T over a fixed field.

    Coefficients are stored by ascending degree with no trailing zeros; the
    zero polynomial has an empty coefficient tuple and degree ``NEG_INF``.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[Coeff] = ()):
        cs = [field(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls(field)

    @classmethod
    def one(cls, field: Field) -> "UniPoly":
        return cls(field, (1,))

    @classmethod
    def T(cls, field: Field) -> "UniPoly":
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field: Field, k: int, c: Coeff = 1) -> "UniPoly":
        return cls(field, (0,) * k + (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> FieldElem:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    @property
    def constant_term(self) -> FieldElem:
        return self.coeff(0)

    @property
    def leading(self) -> FieldElem:
        if self.is_zero:
            raise ZeroDivisionError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            if other.field != self.field:
                raise InvalidParameter("cannot mix polynomials over different fields")
            return other
        if isinstance(other, (FieldElem, int, Fraction)):
            return UniPoly(self.field, (self.field(other),))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPoly(self.field, (self.coeff(k) + o.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPoly(self.field, (self.coeff(k) - o.coeff(k) for k in range(n)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return UniPoly(self.field, (-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (FieldElem, int, Fraction)):
            c = self.field(other)
            return UniPoly(self.field, (a * c for a in self.coeffs))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return UniPoly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise InvalidParameter("polynomial powers must be nonnegative")
        result = UniPoly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "UniPoly":
        """Multiply by T^k."""
        if self.is_zero:
            return self
        return UniPoly(self.field, (0,) * k + tuple(self.coeffs))

    def __call__(self, x: Coeff) -> FieldElem:
        x = self.field(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, (FieldElem, int, Fraction)):
            other = UniPoly(self.field, (other,))
        return (
            isinstance(other, UniPoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero:
                continue
            if k == 0:
                body = str(c)
            else:
                t = "T" if k == 1 else f"T^{k}"
                body = t if c == 1 else (f"-{t}" if c == -1 and self.field.p == 0 else f"{c}*{t}")
            parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

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


def scalar_mat_zero(field: Field) -> ScalarMat:
    z = field.zero
    return ((z, z), (z, z))


def scalar_mat_is_zero(m: ScalarMat) -> bool:
    return all(e.is_zero for row in m for e in row)


def scalar_mat_add(m1: ScalarMat, m2: ScalarMat) -> ScalarMat:
    return tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2))


def scalar_mat_scale(c: FieldElem, m: ScalarMat) -> ScalarMat:
    return tuple(tuple(c * e for e in row) for row in m)


def render_scalar_mat(m: ScalarMat) -> list[list[str]]:
    return [[str(e) for e in row] for row in m]


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
    def zero(cls, field: Field) -> "Mat2Poly":
        z = UniPoly.zero(field)
        return cls(field, ((z, z), (z, z)))

    @classmethod
    def identity(cls, field: Field) -> "Mat2Poly":
        o, z = UniPoly.one(field), UniPoly.zero(field)
        return cls(field, ((o, z), (z, o)))

    @classmethod
    def from_scalars(cls, field: Field, rows) -> "Mat2Poly":
        return cls(field, tuple(tuple(UniPoly(field, (field(v),)) for v in row) for row in rows))

    def entry(self, i: int, j: int) -> UniPoly:
        return self.e[i][j]

    def __add__(self, other: "Mat2Poly") -> "Mat2Poly":
        return Mat2Poly(
            self.field,
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.e, other.e)),
        )

    def __sub__(self, other: "Mat2Poly") -> "Mat2Poly":
        return Mat2Poly(
            self.field,
            tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.e, other.e)),
        )

    def __neg__(self) -> "Mat2Poly":
        return Mat2Poly(self.field, tuple(tuple(-a for a in row) for row in self.e))

    def __mul__(self, other):
        if isinstance(other, Mat2Poly):
            (a, b), (c, d) = self.e
            (e, f), (g, h) = other.e
            return Mat2Poly(
                self.field,
                ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)),
            )
        if isinstance(other, (UniPoly, FieldElem, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (UniPoly, FieldElem, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s) -> "Mat2Poly":
        if not isinstance(s, UniPoly):
            s = UniPoly(self.field, (self.field(s),))
        return Mat2Poly(self.field, tuple(tuple(s * a for a in row) for row in self.e))

    def __pow__(self, n: int) -> "Mat2Poly":
        if n < 0:
            return self.inv() ** (-n)
        result = Mat2Poly.identity(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        return Mat2Poly(self.field, ((d * s, -b * s), (-c * s, a * s)))

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


# -- raw-coefficient 2x2 kernel ---------------------------------------------
#
# Word images are computed on plain Python numbers and converted to Mat2Poly
# once, at the end.  A raw polynomial is a tuple of coefficients by ascending
# degree with no trailing zeros; a raw matrix is the row-major 4-tuple of its
# entries.  ``p`` is the characteristic: over F_p every coefficient is an int
# in [0, p), over Q (p = 0) an int when integral and a Fraction otherwise, so
# integral images never pay for Fraction arithmetic.

RawPoly = tuple
RawMat = tuple[RawPoly, RawPoly, RawPoly, RawPoly]

RAW_IDENTITY: RawMat = ((1,), (), (), (1,))


def _raw_norm(cs: list, p: int) -> RawPoly:
    """Reduce mod p (or demote integral Fractions to int) and strip zeros."""
    if p:
        cs = [c % p for c in cs]
    else:
        cs = [c.numerator if type(c) is Fraction and c.denominator == 1 else c for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _raw_add(f: RawPoly, g: RawPoly, p: int) -> RawPoly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _raw_norm(out, p)


def _raw_conv(out: list, f: RawPoly, g: RawPoly) -> None:
    """Accumulate the product f*g into the coefficient list ``out``."""
    n = len(g)
    for i, a in enumerate(f):
        if a:
            out[i : i + n] = [o + a * b for o, b in zip(out[i : i + n], g)]


def _raw_mul(f: RawPoly, g: RawPoly, p: int) -> RawPoly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    _raw_conv(out, f, g)
    return _raw_norm(out, p)


def _raw_dot(f1: RawPoly, g1: RawPoly, f2: RawPoly, g2: RawPoly, p: int) -> RawPoly:
    """f1*g1 + f2*g2, reduced once."""
    out = [0] * (max(len(f1) + len(g1), len(f2) + len(g2)) - 1)
    _raw_conv(out, f1, g1)
    _raw_conv(out, f2, g2)
    return _raw_norm(out, p)


def _raw_mat_mul(m: RawMat, n: RawMat, p: int) -> RawMat:
    a, b, c, d = m
    e, f, g, h = n
    return (
        _raw_dot(a, e, b, g, p),
        _raw_dot(a, f, b, h, p),
        _raw_dot(c, e, d, g, p),
        _raw_dot(c, f, d, h, p),
    )


def _raw_mat_pow(m: RawMat, k: int, p: int) -> RawMat:
    """m^k for k >= 0 by binary powering."""
    result = None
    while k:
        if k & 1:
            result = m if result is None else _raw_mat_mul(result, m, p)
        k >>= 1
        if k:
            m = _raw_mat_mul(m, m, p)
    return RAW_IDENTITY if result is None else result


def _raw_from_mat(m: Mat2Poly) -> RawMat:
    return tuple(_raw_norm([c.v for c in poly.coeffs], m.field.p) for row in m.e for poly in row)


def _raw_to_mat(field: Field, m: RawMat) -> Mat2Poly:
    a, b, c, d = (UniPoly(field, cs) for cs in m)
    return Mat2Poly(field, ((a, b), (c, d)))
