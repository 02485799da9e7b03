"""The expression grammars: a shared tokenizer, the signed-term grammar read
and printed, and the sparse sum that every parsed or computed polynomial is
built through.

Laurent polynomials, expressions in the square-zero generators and
one-variable polynomials are all sums of signed terms; a term is a product of
coefficient literals (``3`` or ``3/4``) and named factors, joined by ``*`` or
by juxtaposition.  :func:`parse_terms` owns that grammar once.  The three
inputs differ only in the factor alphabet, which the caller passes as a
reader: ``X``/``Y`` with integer exponents, the letters ``a``/``b``, or ``T``
with non-negative exponents.  :func:`render_terms` prints such a sum back.
Words (:func:`lpifc.words.parse_word`) have a grammar of their own, with no
coefficients and no signs.

Tokens: integers in the ASCII digits 0-9, single-letter names, and the
punctuation ``* ^ + - /``.
Whitespace separates tokens and is otherwise ignored.  Every token carries the
byte offset of its first character so parse errors can point at the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from .errors import ParseError


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "name" | "*" | "^" | "+" | "-" | "/" | "end"
    text: str
    offset: int

    @property
    def value(self) -> int:
        return int(self.text)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "0123456789":
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            tokens.append(Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            tokens.append(Token("name", ch, i))
            i += 1
            continue
        if ch in "*^+-/":
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


def is_digits(text: str) -> bool:
    """Whether ``text`` is a non-empty run of the ASCII digits 0-9, the
    natural-number literal of the file formats and the CLI, as
    :func:`tokenize` reads it in expressions.  ``str.isdigit`` also takes
    ``²`` and ``٣``; ``int`` also takes ``1_0``, ``١`` and spaces."""
    return text.isascii() and text.isdigit()


def parse_int(text: str) -> int:
    """An integer literal: ASCII digits after an optional ``-``.  Anything
    else raises ValueError."""
    if not is_digits(text.removeprefix("-")):
        raise ValueError(f"invalid integer literal {text!r}")
    return int(text)


class TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.offset)
        return self.next()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().offset)


def read_exponent(ts: TokenStream) -> int:
    """The optional ``^k`` after a name, with k a signed integer; 1 when absent."""
    if ts.peek().kind != "^":
        return 1
    ts.next()
    if ts.peek().kind == "-":
        ts.next()
        return -ts.expect("int").value
    return ts.expect("int").value


def _read_coefficient(ts: TokenStream, field):
    """An ``a`` or ``a/b`` literal coerced into the field."""
    num = ts.expect("int").value
    if ts.peek().kind == "/":
        ts.next()
        den = ts.expect("int").value
        if den == 0:
            raise ParseError("zero denominator", ts.tokens[ts.pos - 1].offset)
        return field.from_fraction(num, den)
    return field(num)


def parse_terms(
    text: str, field, read_name: Callable[[TokenStream], Sequence]
) -> list[tuple[list, object]]:
    """Split a sum of signed terms, e.g. ``2*X^-1*Y - 1/2 X + 3``, into
    ``(atoms, coefficient)`` pairs in input order.

    ``read_name`` consumes the name token at the head of the stream, with
    whatever follows it that it owns (such as ``^k``), and returns that
    factor's atoms; a term's atoms are those of its named factors in order.
    Its coefficient is the product of its sign and its literals in the field.
    """
    ts = TokenStream(text)
    if ts.peek().kind == "end":
        raise ts.error("empty expression")
    if ts.peek().kind == "+":
        raise ts.error("expression cannot start with '+'")
    terms: list[tuple[list, object]] = []
    while ts.peek().kind != "end":
        sign = ts.peek()
        if sign.kind in ("+", "-"):
            ts.next()
        elif terms:
            raise ts.error("expected '+' or '-' between terms")
        coeff = field(-1 if sign.kind == "-" else 1)
        atoms: list = []
        start = ts.pos
        while ts.peek().kind in ("int", "name"):
            if ts.peek().kind == "int":
                coeff = coeff * _read_coefficient(ts, field)
            else:
                atoms.extend(read_name(ts))
            if ts.peek().kind == "*":
                ts.next()
                if ts.peek().kind not in ("int", "name"):
                    raise ts.error("expected a factor after '*'")
        if ts.pos == start:
            at_star = ts.peek().kind == "*"
            raise ts.error("term cannot start with '*'" if at_star else "expected a term")
        terms.append((atoms, coeff))
    return terms


def render_terms(terms: Iterable[tuple[str, object]]) -> str:
    """Print ``(body, coefficient)`` pairs in order as a signed sum, the
    inverse of :func:`parse_terms`.  The constant term's body is ``""``; a
    coefficient is a nonzero plain number, so -1 occurs only over Q."""
    out = ""
    for body, c in terms:
        part = (body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}") if body else str(c)
        if out:
            part = f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        out += part
    return out or "0"


def sparse_sum(pairs: Iterable[tuple[Hashable, object]]) -> dict:
    """Sum the values of repeated keys and drop every key whose sum is zero.

    Values need ``+`` and ``.is_zero``: field elements, or the polynomial
    components of a series.
    """
    out: dict = {}
    for key, value in pairs:
        prev = out.get(key)
        if prev is not None:
            value = prev + value
        if value.is_zero:
            out.pop(key, None)
        else:
            out[key] = value
    return out


def _read_t(ts: TokenStream) -> tuple[int]:
    tok = ts.next()
    if tok.text != "T":
        raise ParseError(f"unknown indeterminate {tok.text!r}; expected T", tok.offset)
    deg = read_exponent(ts)
    if deg < 0:
        raise ParseError("negative exponent in a polynomial", tok.offset)
    return (deg,)


def parse_unipoly(text: str, field):
    """Parse ``c*T^k`` sums such as ``T^2 - 3*T + 1/2`` into a UniPoly."""
    from .exactalg import UniPoly

    coeffs = sparse_sum((sum(atoms), c) for atoms, c in parse_terms(text, field, _read_t))
    return UniPoly(field, [coeffs.get(k, field.zero) for k in range(max(coeffs, default=-1) + 1)])
