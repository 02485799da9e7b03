"""Free-group words in X, Y in normal form, with their combinatorial
invariants.

A word is an alternating sequence of blocks ``X^n`` / ``Y^m`` with nonzero
exponents; the empty sequence is the identity.  The invariants attached to a
nontrivial word w with blocks b_1 ... b_k are

* ``B``/``E``: the beginning and end letter (generator with the sign of its
  exponent), with B(1) = E(1) = 1;
* ``N``: the number of adjacent block pairs pairing X^n (n > 0) with Y^m
  (m < 0), in either order;
* ``M``: the number of adjacent block pairs whose first exponent is negative
  and whose second exponent is positive (order-sensitive);
* ``Cprime``: the total exponent weight sum |n_i| + sum |m_i|;
* ``C`` (the cumulus): Cprime - M;
* ``sgn``: (-1)^N.

The cumulus counts the factors in the unique factorization of w into the six
cumulus-1 words X, X^-1, Y, Y^-1, X^-1*Y, Y^-1*X; see
:func:`factor_cumulus_one`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import IdentityWord, InternalError, InvalidParameter, ParseError
from .exactalg import binary_power
from .parsing import TokenStream, read_exponent

X_GEN = 0
Y_GEN = 1


def variable_names(n: int) -> tuple[str, ...]:
    """The names of n variables: X, Y up to two variables and X1..Xn above."""
    return ("X", "Y") if n <= 2 else tuple(f"X{i + 1}" for i in range(n))


class Letter(enum.Enum):
    """A signed generator, or the marker for the identity word."""

    X = "X"
    XINV = "X^-1"
    Y = "Y"
    YINV = "Y^-1"
    ONE = "1"

    def __str__(self) -> str:
        return self.value


def _letter(gen: int, positive: bool) -> Letter:
    if gen == X_GEN:
        return Letter.X if positive else Letter.XINV
    if gen == Y_GEN:
        return Letter.Y if positive else Letter.YINV
    raise InvalidParameter("letters are defined only for the two generators X, Y")


@dataclass(frozen=True)
class Word:
    """A free-group word as a normalized tuple of (generator, exponent) blocks.

    Generators are integers; 0 renders as X and 1 as Y.  Indices >= 2 occur
    only for multi-variable Laurent polynomials and render as X1, X2, ...
    """

    blocks: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        prev = None
        for gen, exp in self.blocks:
            if gen < 0:
                raise InvalidParameter("generator indices must be nonnegative")
            if exp == 0:
                raise InvalidParameter("blocks must have nonzero exponents")
            if prev is not None and prev == gen:
                raise InvalidParameter("adjacent blocks must use distinct generators")
            prev = gen

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    @classmethod
    def generator(cls, gen: int, exp: int = 1) -> "Word":
        if exp == 0:
            return cls(())
        return cls(((gen, exp),))

    @classmethod
    def from_blocks(cls, blocks: Iterable[tuple[int, int]]) -> "Word":
        """Build a word from an arbitrary block list, merging and cancelling."""
        out: list[list[int]] = []
        for gen, exp in blocks:
            if exp == 0:
                continue
            if out and out[-1][0] == gen:
                out[-1][1] += exp
                if out[-1][1] == 0:
                    out.pop()
            else:
                out.append([gen, exp])
        return cls(tuple((g, e) for g, e in out))

    @property
    def is_identity(self) -> bool:
        return not self.blocks

    @property
    def rank(self) -> int:
        """Number of distinct generators needed: max index + 1."""
        return max((g for g, _ in self.blocks), default=-1) + 1

    @property
    def weight(self) -> int:
        """Total exponent weight (the invariant written C')."""
        return sum(abs(e) for _, e in self.blocks)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word.from_blocks(self.blocks + other.blocks)

    def inv(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.blocks)))

    def __pow__(self, n: int) -> "Word":
        return binary_power(self if n >= 0 else self.inv(), abs(n), Word.identity)

    def sort_key(self):
        return self.blocks

    def render(self, names: Sequence[str] = ()) -> str:
        """The word in ``names``, by default :func:`variable_names` of its
        rank; a polynomial passes the names of its own rank."""
        if not self.blocks:
            return "1"
        names = names or variable_names(self.rank)
        parts = []
        for gen, exp in self.blocks:
            name = names[gen]
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.render()


class WordImages:
    """The homomorphism from the free group that sends generator g to
    ``images[g]``, in any ring whose elements multiply with ``*`` and take
    integer powers with ``**`` (``Mat2Poly``, ``AlgebraElem``, ``Word``).

    Each block of a word is a power ``**`` of a generator image, or of its
    inverse ``images[g] ** -1``, which is computed once, when a negative
    exponent first needs it.  ``Mat2Poly`` takes small powers by binary
    powering and large ones by Cayley-Hamilton.  The identity word maps to ``images[0] ** 0``.
    The image of every block-boundary prefix of an evaluated word is cached
    for the object's lifetime, so words that share a prefix share its product.
    """

    __slots__ = ("_images", "_inverses", "_cache")

    def __init__(self, images):
        self._images = tuple(images)
        self._inverses = [None] * len(self._images)
        self._cache = {}

    def __call__(self, w: Word):
        """The image of w: start from the longest cached block prefix and
        extend it block by block."""
        cache = self._cache
        img = cache.get(w)
        if img is not None:
            return img
        blocks = w.blocks
        if not blocks:
            return self._images[0] ** 0
        start = 0
        for k in range(len(blocks) - 1, 0, -1):
            hit = cache.get(Word(blocks[:k]))
            if hit is not None:
                start, img = k, hit
                break
        for k in range(start, len(blocks)):
            gen, exp = blocks[k]
            if gen >= len(self._images):
                raise InvalidParameter(f"the word {w} has a generator with no image")
            base = self._images[gen]
            if exp < 0:
                base = self._inverses[gen]
                if base is None:
                    base = self._inverses[gen] = self._images[gen] ** -1
            step = base ** abs(exp)
            img = step if k == 0 else img * step
            cache[w if k == len(blocks) - 1 else Word(blocks[: k + 1])] = img
        return img

    def evaluate(self, terms: Iterable[tuple[Word, object]]):
        """The linear combination: the sum of ``self(w).scale(c)`` over the
        (w, c) pairs, in order; the ring's zero when there are none."""
        scaled = (self(w).scale(c) for w, c in terms)
        first = next(scaled, None)
        return self(Word.identity()).scale(0) if first is None else sum(scaled, first)


@dataclass(frozen=True, slots=True)
class WordInvariants:
    B: Letter
    E: Letter
    N: int
    M: int
    sgn: int
    C: int
    Cprime: int

    def to_dict(self) -> dict:
        return {
            "B": str(self.B),
            "E": str(self.E),
            "N": self.N,
            "M": self.M,
            "sgn": self.sgn,
            "C": self.C,
            "Cprime": self.Cprime,
        }


def parse_word(text: str) -> Word:
    """Parse the grammar ``(X|Y)(^-?[0-9]+)?`` with ``*`` or juxtaposition,
    where ``1`` denotes the identity.  Zero exponents contribute nothing.
    """
    ts = TokenStream(text)
    blocks: list[tuple[int, int]] = []
    saw_anything = False
    while True:
        tok = ts.peek()
        if tok.kind == "end":
            break
        if tok.kind == "*":
            if not saw_anything:
                raise ts.error("word cannot start with '*'")
            ts.next()
            tok = ts.peek()
            if tok.kind not in ("name", "int"):
                raise ts.error("expected a letter after '*'")
        if tok.kind == "int":
            if tok.text != "1":
                raise ParseError("only '1' denotes the identity word", tok.offset)
            ts.next()
            saw_anything = True
            continue
        if tok.kind != "name" or tok.text not in ("X", "Y"):
            raise ParseError(
                f"expected X, Y, or 1, found {tok.text or 'end of input'!r}", tok.offset
            )
        ts.next()
        blocks.append((X_GEN if tok.text == "X" else Y_GEN, read_exponent(ts)))
        saw_anything = True
    if not saw_anything:
        raise ParseError("empty word expression", 0)
    return Word.from_blocks(blocks)


def _require_rank2(w: Word) -> None:
    if w.rank > 2:
        raise InvalidParameter(
            "word invariants are defined for two generators; reduce to two variables first"
        )


def beginning(w: Word) -> Letter:
    _require_rank2(w)
    if w.is_identity:
        return Letter.ONE
    gen, exp = w.blocks[0]
    return _letter(gen, exp > 0)


def end(w: Word) -> Letter:
    _require_rank2(w)
    if w.is_identity:
        return Letter.ONE
    gen, exp = w.blocks[-1]
    return _letter(gen, exp > 0)


# The bound of the word_invariants memo, in entries.  It holds every word of
# the cumulus <= 6 sweep (8,190 words).  An entry takes about 0.35 KB plus 64
# bytes per block (tracemalloc, Python 3.11.7), so a full memo of words of
# at most 12 blocks stays under 18 MiB.
INVARIANTS_MEMO_SIZE = 2**14


def word_invariants(w: Word) -> WordInvariants:
    """All the integer invariants of a word, counted once per distinct word
    while it stays among the last INVARIANTS_MEMO_SIZE words asked for.  The
    result is a frozen value shared by every caller that asks for w."""
    return _count_invariants(w)


@functools.lru_cache(maxsize=INVARIANTS_MEMO_SIZE)
def _count_invariants(w: Word) -> WordInvariants:
    """The invariants of w by direct count over its adjacent block pairs."""
    _require_rank2(w)
    n_count = 0
    m_count = 0
    for (g1, e1), (g2, e2) in zip(w.blocks, w.blocks[1:]):
        x_exp = e1 if g1 == X_GEN else e2
        y_exp = e1 if g1 == Y_GEN else e2
        if x_exp > 0 and y_exp < 0:
            n_count += 1
        if e1 < 0 and e2 > 0:
            m_count += 1
    cprime = w.weight
    return WordInvariants(
        B=beginning(w),
        E=end(w),
        N=n_count,
        M=m_count,
        sgn=-1 if n_count % 2 else 1,
        C=cprime - m_count,
        Cprime=cprime,
    )


W_X = Word.generator(X_GEN)
W_XINV = Word.generator(X_GEN, -1)
W_Y = Word.generator(Y_GEN)
W_YINV = Word.generator(Y_GEN, -1)
W_XINV_Y = W_XINV * W_Y
W_YINV_X = W_YINV * W_X

#: The six words of cumulus 1, in canonical order.
CUMULUS_ONE = (W_X, W_XINV, W_Y, W_YINV, W_XINV_Y, W_YINV_X)

# Signs of the cumulus-1 words: only Y^-1*X contains an X^n Y^m pair with
# n > 0, m < 0, so it alone has sign -1.
_BASE_SGN = {W_X: 1, W_XINV: 1, W_Y: 1, W_YINV: 1, W_XINV_Y: 1, W_YINV_X: -1}


def _head_factor(w: Word) -> Word:
    """The unique cumulus-1 left factor of w determined by B(w) and, for
    inverse beginnings, the beginning after peeling one letter."""
    b = beginning(w)
    if b == Letter.X:
        return W_X
    if b == Letter.Y:
        return W_Y
    if b == Letter.YINV:
        return W_YINV_X if beginning(W_Y * w) == Letter.X else W_YINV
    if b == Letter.XINV:
        return W_XINV_Y if beginning(W_X * w) == Letter.Y else W_XINV
    raise IdentityWord("the identity word has no cumulus-1 factorization")


def factor_cumulus_one(w: Word) -> list[Word]:
    """The unique factorization of w into cumulus-1 words.

    The factor count equals the cumulus of w, and no shorter cumulus-1
    product recomposes w.
    """
    if w.is_identity:
        raise IdentityWord("the identity word has no cumulus-1 factorization")
    factors: list[Word] = []
    cur = w
    budget = 2 * w.weight + 1  # hard stop; the factor count is at most C'(w)
    while not cur.is_identity:
        if budget == 0:
            raise InternalError(f"factorization did not terminate on {w}")
        budget -= 1
        w1 = _head_factor(cur)
        factors.append(w1)
        cur = w1.inv() * cur
    return factors


def sgn_recursive(w: Word) -> int:
    """The sign computed by peeling cumulus-1 head factors, flipping exactly
    when the head ends in X and the remainder begins with Y^-1."""
    if w.is_identity:
        return 1
    if w in _BASE_SGN:
        return _BASE_SGN[w]
    w1 = _head_factor(w)
    rest = w1.inv() * w
    flip = end(w1) == Letter.X and beginning(rest) == Letter.YINV
    s = _BASE_SGN[w1] * sgn_recursive(rest)
    return -s if flip else s


def words_of_weight_at_most(max_weight: int) -> Iterator[Word]:
    """Every normal-form word with total exponent weight <= max_weight,
    identity included, in a deterministic order.

    This enumerates block shapes directly and is independent of the
    cumulus-graded generator in the search module.
    """
    yield Word.identity()

    def extend(blocks: tuple[tuple[int, int], ...], remaining: int) -> Iterator[Word]:
        last_gen = blocks[-1][0] if blocks else None
        for gen in (X_GEN, Y_GEN):
            if gen == last_gen:
                continue
            for mag in range(1, remaining + 1):
                for exp in (mag, -mag):
                    new = blocks + ((gen, exp),)
                    yield Word(new)
                    yield from extend(new, remaining - mag)

    yield from extend((), max_weight)
