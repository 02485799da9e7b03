"""Laurent polynomials over K in noncommuting group variables.

A Laurent polynomial is a finite K-linear combination of free-group words;
the support is the set of words with nonzero coefficient.  For two-variable
polynomials this module computes the maximal cumulus over the support and the
2x2 obstruction matrix whose nonvanishing certifies that the polynomial is
not an identity for the units of the square-zero relative free algebra.

It holds the one integer leading-term table, keyed by the beginning and end
letters of a word: a word w of cumulus C has a primary-pair image of degree
2C with leading coefficient sgn(w) * table(B(w), E(w)).  The obstruction
matrix sums those coefficients on plain numbers, and the table sweep in
:mod:`lpifc.search` checks them against the evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping

from .errors import InvalidLetter, InvalidParameter, ParseError, ZeroPolynomial
from .exactalg import Coeff, Field, FieldElem, ScalarMat, scalar_mat
from .parsing import TokenStream, parse_terms, read_exponent, render_terms, sparse_sum
from .words import (
    Letter,
    Word,
    WordImages,
    X_GEN,
    Y_GEN,
    variable_names,
    word_invariants,
)


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
        names = variable_names(self.nvars)
        return render_terms(
            ("" if w.is_identity else w.render(names), self.terms[w].v) for w in self.support()
        )

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()!r} over {self.field!r})"

    def map_words(self, fn) -> "LaurentPoly":
        """Replace each word w by fn(w), summing the coefficients of words
        that fn sends to one word."""
        return LaurentPoly._from_sum(self.field, sparse_sum((fn(w), c) for w, c in self.terms.items()))


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


# The leading-term table: the sign-stripped T^(2C) coefficient of the
# primary-pair image of a word of cumulus C >= 1, keyed by its beginning and
# end letters (B, E).  Each entry is the rank-one integer matrix u(B) v(E)^T.
_BEGIN_ROW = {Letter.X: (1, 0), Letter.Y: (1, 0), Letter.XINV: (0, 1), Letter.YINV: (-1, 1)}
_END_COL = {Letter.X: (1, 0), Letter.XINV: (0, 1), Letter.YINV: (0, 1), Letter.Y: (1, 1)}
_LEADING_TABLE = {
    (b, e): ((u0 * v0, u0 * v1), (u1 * v0, u1 * v1))
    for b, (u0, u1) in _BEGIN_ROW.items()
    for e, (v0, v1) in _END_COL.items()
}


def table_leading_term(b: Letter, e: Letter, field: Field) -> ScalarMat:
    """The sign-stripped leading coefficient of the primary-pair image of a
    word, keyed by its beginning and end letters.

    The full leading term of a word w of cumulus c is
    T^{2c} * sgn(w) * table_leading_term(B(w), E(w)).
    """
    if b == Letter.ONE or e == Letter.ONE:
        raise InvalidLetter("the identity marker has no table row")
    return scalar_mat(field, _LEADING_TABLE[b, e])


def obstruction_matrix(f: LaurentPoly) -> ScalarMat:
    """The 2x2 obstruction matrix: the sum of sgn(w) * c * table(B(w), E(w))
    over the terms c*w of f whose word w has the maximal cumulus.

    For C >= 1 it is the T^(2C) coefficient of f evaluated at the primary
    unit pair.  A nonzero result certifies that f is not an identity for the
    units of the square-zero relative free algebra; a zero result is
    inconclusive.  A constant polynomial gives the zero matrix (the identity
    word has no table entry).
    """
    if f.nvars > 2:
        raise InvalidParameter("the obstruction matrix is defined for two-variable polynomials")
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no obstruction matrix")
    top = 0
    s11 = s12 = s21 = s22 = 0
    for w, coeff in f.terms.items():
        invs = word_invariants(w)
        # The identity word is the only word of cumulus 0.
        if invs.C < top or invs.C == 0:
            continue
        if invs.C > top:
            top = invs.C
            s11 = s12 = s21 = s22 = 0
        (a, b), (c, d) = _LEADING_TABLE[invs.B, invs.E]
        v = invs.sgn * coeff.v
        s11 += a * v
        s12 += b * v
        s21 += c * v
        s22 += d * v
    return scalar_mat(f.field, ((s11, s12), (s21, s22)))


def reduce_to_two_vars(f: LaurentPoly, nvars: int | None = None) -> LaurentPoly:
    """Embed an n-variable polynomial into two variables via the free family
    x_i -> X^i Y X^-i (1-based variable numbering).

    The substitution is an injective group homomorphism on the free group, so
    the result is nonzero exactly when f is, and identity status carries over.
    """
    n = f.nvars if nvars is None else nvars
    if n < 1:
        n = 1
    image = WordImages(
        Word.generator(X_GEN, g + 1) * Word.generator(Y_GEN) * Word.generator(X_GEN, -(g + 1))
        for g in range(n)
    )
    return f.map_words(image)
