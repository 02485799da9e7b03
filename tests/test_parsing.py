"""The signed-term grammar of Laurent, a/b and T inputs, and the sparse sum
that every polynomial type builds through.

The corpus pins the parsed value, or the error and its offset, of each
input.  It was recorded with one signed-term loop per grammar (commit
71d13b0); the rows marked ``CHANGED`` are the T inputs whose result changed
when the three grammars became one, and hold the new result.  The property
tests, over Q and F3, parse rendered values back and check the ring laws of
the classes built through ``parsing.sparse_sum``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpifc import parsing
from lpifc.errors import InvalidParameter, ParseError, ZeroModulus
from lpifc.exactalg import Field, UniPoly
from lpifc.expand import expand, render_component
from lpifc.fcrep import parse_fc_expr
from lpifc.laurent import LaurentPoly, parse_laurent
from lpifc.words import Word

Q, F3 = Field(0), Field(3)


def render_ab(p: LaurentPoly) -> str:
    """Signed ``c*a*b`` terms in graded order; the a/b parser reads it back."""
    spelled = {w: "".join("ab"[g] * e for g, e in w.blocks) for w in p.terms}
    parts = []
    for w in sorted(spelled, key=lambda w: (len(spelled[w]), spelled[w])):
        parts.append("*".join([str(p.terms[w]), *spelled[w]]))
    text = parts[0] if parts else "0"
    for part in parts[1:]:
        text += " - " + part[1:] if part.startswith("-") else " + " + part
    return text


PARSE = {
    "laurent": lambda text, field: parse_laurent(text, field).render(),
    "ab": lambda text, field: render_ab(parse_fc_expr(text, field)),
    "T": lambda text, field: str(UniPoly.parse(text, field)),
}


def Err(offset, message):
    return (ParseError, offset, message)


CHANGED = "changed"

CORPUS = [
    ("laurent", "X*Y - Y*X", 0, "X*Y - Y*X"),
    ("laurent", "1 + 2*X^-1*Y", 0, "1 + 2*X^-1*Y"),
    ("laurent", "3/2*X^-2*Y - 1/3*Y^3*X + 2", 0, "2 + 3/2*X^-2*Y - 1/3*Y^3*X"),
    ("laurent", "-X^2 Y^-1 X", 0, "-X^2*Y^-1*X"),
    ("laurent", "X*X^-1 + 2 - 2", 0, "1"),
    ("laurent", "2*X 3*Y", 3, "0"),
    ("laurent", "X^0*Y - 4/2", 0, "-2 + Y"),
    ("laurent", "1/2*X + 1/2*X", 3, "X"),
    ("laurent", "", 0, Err(0, "empty expression")),
    ("laurent", "+X", 0, Err(0, "expression cannot start with '+'")),
    ("laurent", "X + + Y", 0, Err(4, "expected a term")),
    ("laurent", "X*", 0, Err(2, "expected a factor after '*'")),
    ("laurent", "*X", 0, Err(0, "term cannot start with '*'")),
    ("laurent", "X Z", 0, Err(2, "unknown variable 'Z'")),
    ("laurent", "X 2/0", 0, Err(4, "zero denominator")),
    ("laurent", "X^-", 0, Err(3, "expected 'int', found 'end of input'")),
    ("laurent", "X / 2", 0, Err(2, "expected '+' or '-' between terms")),
    ("laurent", "1/3*X", 3, (ZeroModulus, None, "denominator 0 vanishes in F_3")),
    ("ab", "a*b - b*a", 0, "1*a*b - 1*b*a"),
    ("ab", "1 + a*b - 2*b*a*b", 0, "1 + 1*a*b - 2*b*a*b"),
    ("ab", "1/2*a*b*a - 3 b + b*a 2", 0, "-3*b + 2*b*a + 1/2*a*b*a"),
    ("ab", "a*a + 4*b + b", 5, "1*a*a"),
    ("ab", "-a b a", 0, "-1*a*b*a"),
    ("ab", "a - a", 0, "0"),
    ("ab", "2*a*3*b", 0, "6*a*b"),
    ("ab", "1", 5, "1"),
    ("ab", "", 0, Err(0, "empty expression")),
    ("ab", "+a", 0, Err(0, "expression cannot start with '+'")),
    ("ab", "a*c", 0, Err(2, "unknown generator 'c'; expected a or b")),
    ("ab", "a -", 0, Err(3, "expected a term")),
    ("ab", "a*", 0, Err(2, "expected a factor after '*'")),
    ("ab", "a^2", 0, Err(1, "expected '+' or '-' between terms")),
    ("ab", "a + *b", 0, Err(4, "term cannot start with '*'")),
    ("ab", "X", 0, Err(0, "unknown generator 'X'; expected a or b")),
    ("T", "T^2 - 3*T + 1/2", 0, "T^2 - 3*T + 1/2"),
    ("T", "2*T + 2", 3, "2*T + 2"),
    ("T", "T^2+T", 3, "T^2 + T"),
    ("T", "-T", 0, "-T"),
    ("T", "3", 0, "3"),
    ("T", "T^0 + T^0", 0, "2"),
    ("T", "T - T", 0, "0"),
    ("T", "1/2 T", 3, "2*T"),
    ("T", "T^-1", 0, Err(0, "negative exponent in a polynomial")),
    ("T", "T + ", 0, Err(4, "expected a term")),
    ("T", "X", 0, Err(0, "unknown indeterminate 'X'; expected T")),
    # Was: expected '+' or '-' between terms (at 2).
    ("T", "T T", 0, "T^2", CHANGED),
    # Was: expected T after '*' (at 2).
    ("T", "2*", 0, Err(2, "expected a factor after '*'"), CHANGED),
    # Was: expected a term (at 0).
    ("T", "*T", 0, Err(0, "term cannot start with '*'"), CHANGED),
    # Was: expected '+' or '-' between terms (at 3).
    ("T", "2*T*T", 0, "2*T^2", CHANGED),
    # Was: expected '+' or '-' between terms (at 2).
    ("T", "-T*2", 0, "-2*T", CHANGED),
    # Was: expected T after '*' (at 4).
    ("T", "-11*12", 0, "-132", CHANGED),
    # Was: empty polynomial expression (at 0).
    ("T", "", 0, Err(0, "empty expression"), CHANGED),
    # Was: polynomial cannot start with '+' (at 0).
    ("T", "+T", 0, Err(0, "expression cannot start with '+'"), CHANGED),
    # Was: expected '+' or '-' between terms (at 1).
    ("T", "T1 XT", 0, Err(3, "unknown indeterminate 'X'; expected T"), CHANGED),
]


@pytest.mark.parametrize(
    "grammar, text, p, expected",
    [row[:4] for row in CORPUS],
    ids=[":".join([row[0], repr(row[1]), f"F{row[2]}", *row[4:]]) for row in CORPUS],
)
def test_parse_corpus(grammar, text, p, expected):
    parse = PARSE[grammar]
    if isinstance(expected, str):
        assert parse(text, Field(p)) == expected
        return
    exc_type, offset, message = expected
    with pytest.raises(exc_type) as info:
        parse(text, Field(p))
    assert str(info.value) == (message if offset is None else f"{message} (at offset {offset})")
    if offset is not None:
        assert info.value.offset == offset


# -- properties over Q and F3 -------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

fields = st.sampled_from([Q, F3])


def coefficients(field):
    if field.p == 0:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(0, field.p - 1)


words = st.lists(
    st.tuples(st.sampled_from([0, 1]), st.integers(-3, 3).filter(bool)), max_size=3
).map(Word.from_blocks)


def laurent_polys(field):
    return st.lists(st.tuples(words, coefficients(field)), max_size=4).map(
        lambda pairs: LaurentPoly(field, pairs)
    )


def positive_polys(field, nvars=2):
    """Sums of positive words in ``nvars`` variables."""
    positive_words = st.lists(st.integers(0, nvars - 1), max_size=3).map(
        lambda letters: Word.from_blocks((v, 1) for v in letters)
    )
    return st.lists(st.tuples(positive_words, coefficients(field)), max_size=4).map(
        lambda pairs: LaurentPoly(field, pairs)
    )


def unipolys(field):
    return st.lists(coefficients(field), max_size=5).map(lambda cs: UniPoly(field, cs))


def _with_field(make):
    return fields.flatmap(lambda f: st.tuples(st.just(f), make(f)))


def _triples(make):
    return fields.flatmap(lambda f: st.tuples(make(f), make(f), make(f)))


@PROPERTY_SETTINGS
@given(fields.flatmap(laurent_polys))
def test_laurent_render_parses_back(f):
    assert parse_laurent(f.render(), f.field) == f


@PROPERTY_SETTINGS
@given(fields.flatmap(unipolys))
def test_unipoly_render_parses_back(p):
    assert UniPoly.parse(str(p), p.field) == p


def components_in_laurent_names(field):
    """A variable count of one or two, whose names X, Y parse as Laurent, and
    a sum of positive words in that many variables."""
    return st.integers(1, 2).flatmap(lambda n: st.tuples(st.just(n), positive_polys(field, n)))


@PROPERTY_SETTINGS
@given(fields.flatmap(components_in_laurent_names))
def test_component_render_parses_back_as_laurent(case):
    nvars, p = case
    assert parse_laurent(render_component(p, nvars), p.field) == p


@PROPERTY_SETTINGS
@given(fields.flatmap(positive_polys))
def test_ab_render_parses_back(p):
    assert parse_fc_expr(render_ab(p), p.field) == p


def _check_ring_laws(f, g, h):
    for lhs, rhs in (
        ((f * g) * h, f * (g * h)),
        (f * (g + h), f * g + f * h),
        ((f + g) * h, f * h + g * h),
        (f + g, g + f),
    ):
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)
    assert (f - f).is_zero
    for p in (f, f + g, f * g, f - g, f * (g + h)):
        assert all(not c.is_zero for c in p.terms.values())


@PROPERTY_SETTINGS
@given(_triples(laurent_polys))
def test_laurent_ring_laws(polys):
    _check_ring_laws(*polys)


@PROPERTY_SETTINGS
@given(_with_field(lambda f: st.lists(st.tuples(words, coefficients(f)), max_size=6)))
def test_laurent_constructor_is_the_sum_of_its_terms(case):
    field, pairs = case
    total = LaurentPoly.zero(field)
    for w, c in pairs:
        total = total + LaurentPoly(field, {w: c})
    assert LaurentPoly(field, pairs) == total


# -- render_terms ---------------------------------------------------------------

# (field, {degree of the one variable: coefficient}, rendered with V for it)
RENDERED = [
    (Q, {1: -1}, "-V"),
    (Q, {1: Fraction(-1, 2)}, "-1/2*V"),
    (Q, {1: Fraction(1, 2)}, "1/2*V"),
    (Q, {0: -3}, "-3"),
    (Q, {}, "0"),
    (Field(5), {1: 4}, "4*V"),
    (Field(5), {1: -1}, "4*V"),
]

# Each printer with its variable name and its term order: UniPoly by degree
# descending, LaurentPoly and the component sums of expansions constant first.
PRINTERS = {
    "UniPoly": ("T", lambda field, d: str(UniPoly(field, [d.get(k, 0) for k in range(3)]))),
    "LaurentPoly": (
        "X",
        lambda field, d: LaurentPoly(field, {Word.generator(0, k): c for k, c in d.items()}).render(),
    ),
    "render_component": (
        "X",
        lambda field, d: render_component(LaurentPoly(field, {Word.generator(0, k): c for k, c in d.items()}), 1),
    ),
}


@pytest.mark.parametrize("printer", PRINTERS)
@pytest.mark.parametrize("field, coeffs, expected", RENDERED)
def test_printers_share_the_signed_sum_form(printer, field, coeffs, expected):
    name, render = PRINTERS[printer]
    assert render(field, coeffs) == expected.replace("V", name)


def test_printers_keep_their_term_order():
    coeffs = {0: 1, 1: 1, 2: -3}
    assert PRINTERS["UniPoly"][1](Q, coeffs) == "-3*T^2 + T + 1"
    assert PRINTERS["LaurentPoly"][1](Q, coeffs) == "1 + X - 3*X^2"
    assert PRINTERS["render_component"][1](Q, coeffs) == "1 + X - 3*X*X"


def test_render_terms_joins_on_the_sign_of_each_term():
    terms = [("X", -1), ("", Fraction(-1, 2)), ("Y", 1), ("Y^2", 3), ("X*Y", Fraction(-2, 3))]
    assert parsing.render_terms(terms) == "-X - 1/2 + Y + 3*Y^2 - 2/3*X*Y"
    assert parsing.render_terms([]) == "0"
    assert parsing.render_terms([("", 5)]) == "5"


# -- sparse_sum ----------------------------------------------------------------


def test_sparse_sum_sums_repeated_keys_and_drops_zeros():
    pairs = [("x", Q(1)), ("y", Q(2)), ("x", Q(-1)), ("z", Q(0)), ("y", Q(Fraction(1, 2)))]
    assert parsing.sparse_sum(pairs) == {"y": Q(Fraction(5, 2))}
    summed = parsing.sparse_sum([("b", F3(1)), ("a", F3(1)), ("b", F3(2)), ("b", F3(1))])
    assert list(summed) == ["a", "b"] and summed["b"] == F3(1)


def test_sparse_sum_of_polynomial_values():
    p = parse_laurent("X*Y", Q)
    summed = parsing.sparse_sum([((1, 1), p), ((1, 1), p.scale(-1)), ((2, 0), p)])
    assert summed == {(2, 0): p}


def test_sums_without_the_constructor_still_reject_mixed_rings():
    with pytest.raises(InvalidParameter):
        parse_laurent("X", Q) + parse_laurent("Y", F3)
    with pytest.raises(InvalidParameter):
        expand(parse_laurent("X", Q), 2, nvars=2) + expand(parse_laurent("Y", F3), 2)
    with pytest.raises(InvalidParameter):
        expand(parse_laurent("X", Q), 2, nvars=1) + expand(parse_laurent("Y", Q), 2)
    with pytest.raises(InvalidParameter):
        expand(parse_laurent("X", Q), 2, nvars=1) * expand(parse_laurent("Y", Q), 2)
