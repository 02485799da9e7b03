"""Laurent polynomials over K in noncommuting group variables.

A Laurent polynomial is a finite K-linear combination of free-group words;
the support is the set of words with nonzero coefficient.  For two-variable
polynomials this module computes the maximal cumulus over the support and the
2x2 obstruction matrix whose nonvanishing certifies that the polynomial is
not an identity for the units of the square-zero relative free algebra.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping

from .errors import InvalidParameter, ParseError, ZeroPolynomial
from .exactalg import Field, FieldElem, ScalarMat
from .parsing import TokenStream, parse_terms, read_exponent, sparse_sum
from .words import (
    Letter,
    Word,
    X_GEN,
    Y_GEN,
    word_invariants,
)

Coeff = FieldElem | int | Fraction


class LaurentPoly:
    """A finite map Word -> K with no zero values stored."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: Mapping[Word, Coeff] | Iterable[tuple[Word, Coeff]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.field = field
        self.terms = sparse_sum((word, field(coeff)) for word, coeff in items)

    @classmethod
    def zero(cls, field: Field) -> "LaurentPoly":
        return cls(field)

    @classmethod
    def _from_sum(cls, field: Field, terms: dict[Word, FieldElem]) -> "LaurentPoly":
        """Wrap a :func:`sparse_sum` of this field's elements without
        coercing and summing them again."""
        f = cls.__new__(cls)
        f.field = field
        f.terms = terms
        return f

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def nvars(self) -> int:
        return max((w.rank for w in self.terms), default=0)

    def support(self) -> list[Word]:
        return sorted(self.terms, key=Word.sort_key)

    def coeff(self, w: Word) -> FieldElem:
        return self.terms.get(w, self.field.zero)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if other.terms and other.field != self.field:
            raise InvalidParameter("cannot mix elements of different fields")
        terms = sparse_sum(chain(self.terms.items(), other.terms.items()))
        return LaurentPoly._from_sum(self.field, terms)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.field, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (FieldElem, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._from_sum(self.field, sparse_sum(
            (w1 * w2, c1 * c2) for w1, c1 in self.terms.items() for w2, c2 in other.terms.items()
        ))

    def __rmul__(self, other):
        if isinstance(other, (FieldElem, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Coeff) -> "LaurentPoly":
        c = self.field(c)
        return LaurentPoly(self.field, {w: v * c for w, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and other.field == self.field
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.field.p, tuple(sorted(((w, c.v) for w, c in self.terms.items()), key=lambda t: t[0].sort_key()))))

    def render(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for w in self.support():
            c = self.terms[w]
            if w.is_identity:
                body = str(c)
            elif c == 1:
                body = w.render()
            elif c == -1 and self.field.p == 0:
                body = f"-{w.render()}"
            else:
                body = f"{c}*{w.render()}"
            parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()!r} over {self.field!r})"

    # -- transforms that preserve identity status -------------------------

    def swap_xy(self) -> "LaurentPoly":
        """Substitute X -> Y, Y -> X (two-variable polynomials only)."""
        if self.nvars > 2:
            raise InvalidParameter("swapXY is defined for two-variable polynomials")
        swap = {X_GEN: Y_GEN, Y_GEN: X_GEN}
        return LaurentPoly(
            self.field,
            {Word(tuple((swap[g], e) for g, e in w.blocks)): c for w, c in self.terms.items()},
        )

    def invert_x(self) -> "LaurentPoly":
        """Substitute X -> X^-1 (negate every X-block exponent in place)."""
        return LaurentPoly(
            self.field,
            {
                Word(tuple((g, -e if g == X_GEN else e) for g, e in w.blocks)): c
                for w, c in self.terms.items()
            },
        )

    def left_mul(self, w: Word) -> "LaurentPoly":
        return LaurentPoly(self.field, {w * v: c for v, c in self.terms.items()})

    def right_mul(self, w: Word) -> "LaurentPoly":
        return LaurentPoly(self.field, {v * w: c for v, c in self.terms.items()})


def _read_xy(ts: TokenStream) -> tuple[tuple[int, int]]:
    tok = ts.next()
    if tok.text not in ("X", "Y"):
        raise ParseError(f"unknown variable {tok.text!r}", tok.offset)
    return ((X_GEN if tok.text == "X" else Y_GEN, read_exponent(ts)),)


def parse_laurent(text: str, field: Field) -> LaurentPoly:
    """Parse signed ``coeff*word`` terms, e.g. ``X*Y - Y*X`` or ``1 + 2*X^-1*Y``.

    Coefficients are integer or ``a/b`` literals (reduced modulo p over a
    finite field); ``1`` inside a term is the scalar one / identity word.
    """
    terms = parse_terms(text, field, _read_xy)
    return LaurentPoly(field, ((Word.from_blocks(atoms), c) for atoms, c in terms))


def max_cumulus(f: LaurentPoly) -> int:
    """The maximum cumulus over the support of a nonzero polynomial."""
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no maximal cumulus")
    return max(word_invariants(w).C for w in f.terms)


_LETTERS = (Letter.X, Letter.XINV, Letter.Y, Letter.YINV)


def partial_sums(f: LaurentPoly) -> dict[tuple[Letter, Letter], FieldElem]:
    """The sixteen signed partial sums over max-cumulus support words, keyed
    by (beginning, end).  Constant polynomials give all-zero sums (the
    identity word carries no beginning/end letter)."""
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no partial sums")
    c = max_cumulus(f)
    sums = {(b, e): f.field.zero for b in _LETTERS for e in _LETTERS}
    for w, coeff in f.terms.items():
        invs = word_invariants(w)
        if invs.C != c or w.is_identity:
            continue
        key = (invs.B, invs.E)
        sums[key] = sums[key] + f.field(invs.sgn) * coeff
    return sums


def obstruction_matrix(f: LaurentPoly) -> ScalarMat:
    """The 2x2 obstruction matrix assembled from the sixteen partial sums.

    A nonzero result certifies that f is not an identity for the units of
    the square-zero relative free algebra; a zero result is inconclusive.
    """
    if f.nvars > 2:
        raise InvalidParameter("the obstruction matrix is defined for two-variable polynomials")
    s = partial_sums(f)
    L = Letter
    f1 = s[L.X, L.X] + s[L.X, L.Y] + s[L.Y, L.X] + s[L.Y, L.Y] - s[L.YINV, L.X] - s[L.YINV, L.Y]
    f2 = (
        s[L.X, L.XINV]
        + s[L.X, L.Y]
        + s[L.X, L.YINV]
        + s[L.Y, L.XINV]
        + s[L.Y, L.Y]
        + s[L.Y, L.YINV]
        - s[L.YINV, L.XINV]
        - s[L.YINV, L.Y]
        - s[L.YINV, L.YINV]
    )
    f3 = s[L.XINV, L.X] + s[L.XINV, L.Y] + s[L.YINV, L.X] + s[L.YINV, L.Y]
    f4 = (
        s[L.XINV, L.XINV]
        + s[L.XINV, L.Y]
        + s[L.XINV, L.YINV]
        + s[L.YINV, L.XINV]
        + s[L.YINV, L.Y]
        + s[L.YINV, L.YINV]
    )
    return ((f1, f2), (f3, f4))


def transform(f: LaurentPoly, kind: str, w: Word | None = None) -> LaurentPoly:
    """Apply an identity-status-preserving transform.

    ``kind`` is one of ``swapXY``, ``invertX``, ``leftMul``, ``rightMul``;
    the latter two require the word argument.
    """
    if kind == "swapXY":
        return f.swap_xy()
    if kind == "invertX":
        return f.invert_x()
    if kind == "leftMul":
        if w is None:
            raise InvalidParameter("leftMul requires a word")
        return f.left_mul(w)
    if kind == "rightMul":
        if w is None:
            raise InvalidParameter("rightMul requires a word")
        return f.right_mul(w)
    raise InvalidParameter(f"unknown transform kind {kind!r}")


def reduce_to_two_vars(f: LaurentPoly, nvars: int | None = None) -> LaurentPoly:
    """Embed an n-variable polynomial into two variables via the free family
    x_i -> X^i Y X^-i (1-based variable numbering).

    The substitution is an injective group homomorphism on the free group, so
    the result is nonzero exactly when f is, and identity status carries over.
    """
    n = f.nvars if nvars is None else nvars
    if n < 1:
        n = 1
    images = {
        g: Word.generator(X_GEN, g + 1) * Word.generator(Y_GEN) * Word.generator(X_GEN, -(g + 1))
        for g in range(n)
    }
    def image(w: Word) -> Word:
        img = Word.identity()
        for g, e in w.blocks:
            img = img * images[g] ** e
        return img

    return LaurentPoly._from_sum(f.field, sparse_sum((image(w), c) for w, c in f.terms.items()))
