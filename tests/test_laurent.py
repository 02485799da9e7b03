"""Laurent polynomials: parsing, support, cumulus, obstruction matrix,
word maps, and the many-to-two variable reduction."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpifc.errors import InvalidParameter, ParseError, ZeroPolynomial
from lpifc.exactalg import Field, scalar_mat, scalar_mat_is_zero
from lpifc.fcrep import eval_laurent, unit_pair
from lpifc.laurent import (
    LaurentPoly,
    max_cumulus,
    obstruction_matrix,
    parse_laurent,
    reduce_to_two_vars,
    table_leading_term,
)
from lpifc import search
from lpifc.search import enum_words
from lpifc.words import (
    W_X,
    W_XINV,
    W_Y,
    X_GEN,
    Y_GEN,
    Letter,
    Word,
    WordImages,
    parse_word,
    word_invariants,
)

Q = Field(0)
F2 = Field(2)
F3 = Field(3)
F5 = Field(5)


# -- parsing -------------------------------------------------------------------


def test_parse_commutator():
    f = parse_laurent("X*Y - Y*X", Q)
    assert f.terms == {parse_word("X*Y"): Q(1), parse_word("Y*X"): Q(-1)}


def test_parse_modular_reduction_drops_term():
    f = parse_laurent("1 + 2*X^-1*Y", F2)
    assert f.terms == {Word.identity(): F2(1)}


def test_parse_cancelling_terms():
    assert parse_laurent("X - X", Q).is_zero


def test_parse_rational_coefficients():
    f = parse_laurent("3/2*X - 1", Q)
    assert f.coeff(parse_word("X")) == Q.from_fraction(3, 2)
    assert f.coeff(Word.identity()) == Q(-1)


def test_parse_error_offset():
    with pytest.raises(ParseError):
        parse_laurent("X + ", Q)


def test_render_parse_cycle():
    for text in ("X*Y - Y*X", "1 + 2*X^-1*Y", "X^2*Y^-3 + 5", "-X + Y"):
        f = parse_laurent(text, Q)
        assert parse_laurent(f.render(), Q) == f


# -- cumulus ----------------------------------------------------------------------


def test_max_cumulus_examples():
    assert max_cumulus(parse_laurent("X*Y - Y*X", Q)) == 2
    assert max_cumulus(parse_laurent("1", Q)) == 0
    assert max_cumulus(parse_laurent("1 + X^-1*Y", Q)) == 1


def test_max_cumulus_zero_poly_rejected():
    with pytest.raises(ZeroPolynomial):
        max_cumulus(LaurentPoly.zero(Q))


# -- obstruction matrix -------------------------------------------------------------


def test_obstruction_commutator():
    assert obstruction_matrix(parse_laurent("X*Y - Y*X", Q)) == scalar_mat(Q, ((0, 1), (0, 0)))


def test_obstruction_constant_is_zero_matrix():
    assert scalar_mat_is_zero(obstruction_matrix(parse_laurent("5", Q)))


def test_obstruction_single_generator():
    assert obstruction_matrix(parse_laurent("X", Q)) == scalar_mat(Q, ((1, 0), (0, 0)))


def test_obstruction_linearity_on_shared_cumulus():
    rng = random.Random(5)
    words = [w for w in _cumulus_pool(2) if word_invariants(w).C == 2]
    for _ in range(40):
        support = rng.sample(words, 3)
        f = LaurentPoly(Q, {support[0]: 1, support[1]: 2})
        g = LaurentPoly(Q, {support[1]: 1, support[2]: -1})
        a, b = Q(3), Q.from_fraction(1, 2)
        combo = f.scale(a) + g.scale(b)
        if combo.is_zero or max_cumulus(combo) != 2:
            continue
        lhs = obstruction_matrix(combo)
        fo, go = obstruction_matrix(f), obstruction_matrix(g)
        rhs = tuple(
            tuple(a * fo[i][j] + b * go[i][j] for j in range(2)) for i in range(2)
        )
        assert lhs == rhs


def _cumulus_pool(c_max):
    return list(enum_words(c_max))


def test_single_max_cumulus_word_forces_nonzero_obstruction():
    # the decision rule: a unique maximal-cumulus support word certifies non-identity
    rng = random.Random(9)
    pool = _cumulus_pool(3)
    for w in pool:
        f = LaurentPoly(Q, {w: Q(rng.randint(1, 5)), Word.identity(): Q(1)})
        assert not scalar_mat_is_zero(obstruction_matrix(f))


# -- the paper's formula as an independent route -------------------------------------

_LETTERS = (Letter.X, Letter.XINV, Letter.Y, Letter.YINV)


def _obstruction_by_partial_sums(f):
    """The paper's route: sixteen signed partial sums over the words of
    maximal cumulus, keyed by (beginning, end), combined into f1..f4."""
    top = max_cumulus(f)
    s = {(b, e): f.field.zero for b in _LETTERS for e in _LETTERS}
    for w, coeff in f.terms.items():
        invs = word_invariants(w)
        if invs.C == top and not w.is_identity:
            s[invs.B, invs.E] += f.field(invs.sgn) * coeff
    X, XI, Y, YI = Letter.X, Letter.XINV, Letter.Y, Letter.YINV
    f1 = s[X, X] + s[X, Y] + s[Y, X] + s[Y, Y] - s[YI, X] - s[YI, Y]
    f2 = (
        s[X, XI] + s[X, Y] + s[X, YI] + s[Y, XI] + s[Y, Y] + s[Y, YI]
        - s[YI, XI] - s[YI, Y] - s[YI, YI]
    )
    f3 = s[XI, X] + s[XI, Y] + s[YI, X] + s[YI, Y]
    f4 = s[XI, XI] + s[XI, Y] + s[XI, YI] + s[YI, XI] + s[YI, Y] + s[YI, YI]
    return ((f1, f2), (f3, f4))


_WORDS4 = [Word.identity(), *enum_words(4)]
_PRIMARY = {field: unit_pair("primary", field) for field in (Q, F2, F3, F5)}


def _coefficients(field):
    if field.p == 0:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(0, field.p - 1)


def _polys(field):
    terms = st.lists(st.tuples(st.sampled_from(_WORDS4), _coefficients(field)), min_size=1, max_size=6)
    return st.tuples(st.just(field), terms.map(lambda ts: LaurentPoly(field, ts)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([Q, F2, F3, F5]).flatmap(_polys))
def test_obstruction_matches_partial_sums_and_evaluation(args):
    field, f = args
    assume(not f.is_zero)
    got = obstruction_matrix(f)
    assert got == _obstruction_by_partial_sums(f)
    top = max_cumulus(f)
    if top == 0:
        assert scalar_mat_is_zero(got)
    else:
        assert got == eval_laurent(f, _PRIMARY[field]).coeff_at(2 * top)


# (B, E) -> the leading coefficient of a word of sign +1, written out per cell.
_LITERAL_TABLE = {
    ("X", "X"): ((1, 0), (0, 0)),
    ("X", "X^-1"): ((0, 1), (0, 0)),
    ("X", "Y"): ((1, 1), (0, 0)),
    ("X", "Y^-1"): ((0, 1), (0, 0)),
    ("Y", "X"): ((1, 0), (0, 0)),
    ("Y", "X^-1"): ((0, 1), (0, 0)),
    ("Y", "Y"): ((1, 1), (0, 0)),
    ("Y", "Y^-1"): ((0, 1), (0, 0)),
    ("X^-1", "X"): ((0, 0), (1, 0)),
    ("X^-1", "X^-1"): ((0, 0), (0, 1)),
    ("X^-1", "Y"): ((0, 0), (1, 1)),
    ("X^-1", "Y^-1"): ((0, 0), (0, 1)),
    ("Y^-1", "X"): ((-1, 0), (1, 0)),
    ("Y^-1", "X^-1"): ((0, -1), (0, 1)),
    ("Y^-1", "Y"): ((-1, -1), (1, 1)),
    ("Y^-1", "Y^-1"): ((0, -1), (0, 1)),
}


@pytest.mark.parametrize("cell", sorted(_LITERAL_TABLE), ids="/".join)
def test_single_word_obstruction_per_cell(cell):
    b, e = Letter(cell[0]), Letter(cell[1])
    grid = _LITERAL_TABLE[cell]
    assert table_leading_term(b, e, Q) == scalar_mat(Q, grid)
    words = [w for w in enum_words(3) if (word_invariants(w).B, word_invariants(w).E) == (b, e)]
    assert words
    for w in words:
        sgn = word_invariants(w).sgn
        f = LaurentPoly(Q, {w: 3, Word.identity(): 1})
        expected = scalar_mat(Q, tuple(tuple(3 * sgn * x for x in row) for row in grid))
        assert obstruction_matrix(f) == expected


# -- word maps -------------------------------------------------------------------------


def test_transform_swap():
    swap = WordImages((W_Y, W_X))
    assert parse_laurent("X*Y - Y*X", Q).map_words(swap) == parse_laurent("Y*X - X*Y", Q)


def test_transform_left_mul():
    f = parse_laurent("X + X*Y", Q)
    assert f.map_words(lambda w: parse_word("X^-1") * w) == parse_laurent("1 + Y", Q)


def test_transform_invert_x():
    invert = WordImages((W_XINV, W_Y))
    assert parse_laurent("X - 1", Q).map_words(invert) == parse_laurent("X^-1 - 1", Q)


def test_map_words_sums_the_coefficients_of_merged_words():
    f = parse_laurent("2*X + 3*Y^-1 - 5*X*Y", Q)
    assert f.map_words(lambda w: Word.identity()).is_zero
    assert f.map_words(lambda w: W_X if w.weight == 1 else w) == parse_laurent("5*X - 5*X*Y", Q)


def _rewrite(f, blocks):
    """f with the block list of each word rewritten by ``blocks``."""
    return LaurentPoly(f.field, [(Word.from_blocks(blocks(list(w.blocks))), c) for w, c in f.terms.items()])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([Q, F2, F3, F5]).flatmap(_polys), st.sampled_from(_WORDS4))
def test_falsifier_word_maps_match_block_rewrites(args, w1):
    # The maps of the support-3 falsifier chain: translations concatenate the
    # blocks of w1^-1, X <-> Y swaps the generator indices and X -> X^-1
    # negates the X exponents; the last two are involutions.
    field, f = args
    maps = dict(search._transforms(w1))
    inv = [(g, -e) for g, e in reversed(w1.blocks)]
    rewrites = {
        "obstruction(w1^-1*f)": lambda blocks: inv + blocks,
        "obstruction(f*w1^-1)": lambda blocks: blocks + inv,
        "obstruction(swapXY)": lambda blocks: [(Y_GEN - g, e) for g, e in blocks],
        "obstruction(invertX)": lambda blocks: [(g, -e if g == X_GEN else e) for g, e in blocks],
    }
    assert list(maps) == list(rewrites)
    for name, rewrite in rewrites.items():
        assert f.map_words(maps[name]) == _rewrite(f, rewrite)
    for name in ("obstruction(swapXY)", "obstruction(invertX)"):
        assert f.map_words(maps[name]).map_words(maps[name]) == f


# -- variable reduction ----------------------------------------------------------------


def test_reduce_one_variable():
    f = LaurentPoly(Q, {Word.generator(0): 1, Word.identity(): -1})
    reduced = reduce_to_two_vars(f, nvars=1)
    assert reduced == parse_laurent("X*Y*X^-1 - 1", Q)


def test_reduce_two_variable_product():
    f = LaurentPoly(Q, {Word.generator(0) * Word.generator(1): 1})
    reduced = reduce_to_two_vars(f, nvars=2)
    assert reduced == parse_laurent("X*Y*X*Y*X^-2", Q)


def test_reduce_zero():
    assert reduce_to_two_vars(LaurentPoly.zero(Q)).is_zero


def test_reduce_preserves_nonzeroness_random():
    rng = random.Random(17)
    for _ in range(100):
        nvars = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            blocks = []
            gen = rng.randrange(nvars)
            for _ in range(rng.randint(1, 3)):
                exp = rng.choice([-2, -1, 1, 2])
                blocks.append((gen, exp))
                gen = (gen + rng.randint(1, max(nvars - 1, 1))) % nvars if nvars > 1 else gen
            w = Word.from_blocks(blocks)
            terms[w] = Q(rng.choice([-2, -1, 1, 2, 3]))
        f = LaurentPoly(Q, terms)
        assert reduce_to_two_vars(f, nvars=nvars).is_zero == f.is_zero


def test_reduce_matches_letterwise_substitution():
    # x_g^e -> X^(g+1) * Y^e * X^-(g+1), substituted block by block and
    # multiplied left to right, against the word evaluation of reduce.
    rng = random.Random(19)
    for _ in range(200):
        nvars = rng.randint(1, 4)
        terms = [
            (Word.from_blocks((rng.randrange(nvars), rng.choice([-3, -2, -1, 1, 2, 3]))
                              for _ in range(rng.randint(0, 4))), Q(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        expected = []
        for w, c in terms:
            img = Word.identity()
            for g, e in w.blocks:
                img = img * Word(((X_GEN, g + 1), (Y_GEN, e), (X_GEN, -(g + 1))))
            expected.append((img, c))
        assert reduce_to_two_vars(LaurentPoly(Q, terms), nvars=nvars) == LaurentPoly(Q, expected)


def test_reduce_rejects_fewer_variables_than_used():
    with pytest.raises(InvalidParameter):
        reduce_to_two_vars(parse_laurent("X*Y - Y*X", Q), nvars=1)


def test_parse_zero_denominator_over_finite_field():
    from lpifc.errors import ZeroModulus

    with pytest.raises(ZeroModulus):
        parse_laurent("1/2*X", F2)


def test_parse_rejects_malformed_inputs():
    bad = ["", "+X", "X ++ Y", "2*", "X^", "X^-", "*X", "X//2", "Z"]
    for text in bad:
        with pytest.raises(ParseError):
            parse_laurent(text, Q)


def test_parse_offsets_point_into_input():
    for text, offset in [("X + $", 4), ("X*Y - @", 6)]:
        with pytest.raises(ParseError) as exc:
            parse_laurent(text, Q)
        assert exc.value.offset == offset
