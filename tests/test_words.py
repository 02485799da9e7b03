"""Free-group words: parsing, invariants, factorization, sign recursion."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpifc import words
from lpifc.errors import IdentityWord, InternalError, InvalidParameter, ParseError
from lpifc.exactalg import Field, Mat2Poly
from lpifc.fcrep import unit_pair
from lpifc.search import enum_words, verify_tables
from lpifc.words import (
    CUMULUS_ONE,
    X_GEN,
    Y_GEN,
    Letter,
    W_X,
    W_XINV,
    W_XINV_Y,
    W_Y,
    W_YINV,
    W_YINV_X,
    Word,
    WordImages,
    WordInvariants,
    factor_cumulus_one,
    parse_word,
    sgn_recursive,
    word_invariants,
    words_of_weight_at_most,
)


def C(w):
    return word_invariants(w).C


# -- parsing -------------------------------------------------------------------


def test_parse_direct_transcription():
    w = parse_word("X*Y^-1*X^2")
    assert w.blocks == ((0, 1), (1, -1), (0, 2))


def test_parse_cancellation():
    assert parse_word("X*X^-1").is_identity


def test_parse_block_merge():
    assert parse_word("X^2*X^3*Y").blocks == ((0, 5), (1, 1))


def test_parse_identity_and_juxtaposition():
    assert parse_word("1").is_identity
    assert parse_word("XY^-1X") == parse_word("X*Y^-1*X")
    assert parse_word("X^0*Y") == parse_word("Y")


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as exc:
        parse_word("X*Z")
    assert exc.value.offset == 2


def test_parse_render_roundtrip_random():
    rng = random.Random(3)
    for _ in range(1000):
        blocks = []
        gen = rng.randint(0, 1)
        for _ in range(rng.randint(0, 5)):
            exp = rng.choice([e for e in range(-4, 5) if e != 0])
            blocks.append((gen, exp))
            gen = 1 - gen
        w = Word(tuple(blocks))
        assert parse_word(w.render()) == w


def test_words_of_rank_three_render_with_numbered_names():
    assert Word(((0, 1), (2, -2))).render() == "X1*X3^-2"
    assert Word(((1, 3), (2, 1), (0, -1))).render() == "X2^3*X3*X1^-1"


# -- invariants ------------------------------------------------------------------


def test_identity_invariants():
    invs = word_invariants(Word.identity())
    assert invs.C == 0 and invs.Cprime == 0
    assert invs.B == Letter.ONE and invs.E == Letter.ONE


def test_xinv_y_is_cumulus_one():
    invs = word_invariants(parse_word("X^-1*Y"))
    assert (invs.C, invs.M, invs.N, invs.sgn) == (1, 1, 0, 1)
    assert invs.B == Letter.XINV and invs.E == Letter.Y


def test_x_yinv_has_cumulus_two():
    invs = word_invariants(parse_word("X*Y^-1"))
    assert (invs.C, invs.N, invs.sgn) == (2, 1, -1)


def test_yinv_x_invariants():
    invs = word_invariants(parse_word("Y^-1*X"))
    assert (invs.C, invs.N, invs.sgn) == (1, 1, -1)


def test_mul_inv_examples():
    assert (W_X * W_XINV).is_identity
    assert parse_word("X*Y^-1").inv() == parse_word("Y*X^-1")
    w = parse_word("X^2*Y^-1*X")
    assert C(w.inv()) == C(w)
    assert (w * w.inv()).is_identity


# -- cumulus-1 classification -----------------------------------------------------


def test_cumulus_one_words_exactly_six():
    expected = {W_X, W_XINV, W_Y, W_YINV, W_XINV_Y, W_YINV_X}
    found = {w for w in words_of_weight_at_most(3) if not w.is_identity and C(w) == 1}
    assert found == expected


# -- factorization ------------------------------------------------------------------


def test_factor_single_letter():
    assert factor_cumulus_one(W_X) == [W_X]


def test_factor_x_yinv():
    factors = factor_cumulus_one(parse_word("X*Y^-1"))
    assert factors == [W_X, W_YINV]


def test_factor_case_rule_for_xinv_y_head():
    # beginning X^-1 with B(Xw) = Y selects the two-letter head factor
    factors = factor_cumulus_one(parse_word("X^-1*Y*X"))
    assert factors == [W_XINV_Y, W_X]


def test_factor_identity_rejected():
    with pytest.raises(IdentityWord):
        factor_cumulus_one(Word.identity())


def test_factor_termination_guard_signals_a_bug(monkeypatch):
    # A wrong head factor never reaches the identity; the guard reports it
    # as an InternalError, the error class that signals a bug.
    monkeypatch.setattr(words, "_head_factor", lambda w: W_X)
    with pytest.raises(InternalError):
        factor_cumulus_one(W_Y)


def enum_words_upto(c_max):
    """All words of cumulus <= c_max via right extension of cumulus-1 words."""
    level = list(CUMULUS_ONE)
    out = list(level)
    for c in range(2, c_max + 1):
        nxt = {w * u for w in level for u in CUMULUS_ONE}
        level = sorted({w for w in nxt if C(w) == c}, key=Word.sort_key)
        out.extend(level)
    return out


def test_factorization_recomposes_with_cumulus_count():
    for w in enum_words_upto(5):
        factors = factor_cumulus_one(w)
        assert len(factors) == C(w)
        prod = Word.identity()
        for f in factors:
            assert C(f) == 1
            prod = prod * f
        assert prod == w


def test_factorization_minimality_brute_force():
    # no product of fewer than C(w) cumulus-1 words recomposes w, for C <= 3
    for w in enum_words_upto(3):
        c = C(w)
        for length in range(1, c):
            for seq in itertools.product(CUMULUS_ONE, repeat=length):
                prod = Word.identity()
                for f in seq:
                    prod = prod * f
                assert prod != w


def test_inverse_preserves_cumulus():
    for w in enum_words_upto(4):
        assert C(w.inv()) == C(w)


# -- sign recursion ------------------------------------------------------------------


def test_sgn_recursive_base_and_flip():
    assert sgn_recursive(W_X) == 1
    # head X, rest Y^-1: the flip branch
    assert sgn_recursive(parse_word("X*Y^-1")) == -1
    assert sgn_recursive(parse_word("Y*X")) == 1


def test_sgn_recursive_matches_direct_count():
    for w in enum_words_upto(4):
        assert sgn_recursive(w) == word_invariants(w).sgn


def test_weight_enumeration_counts():
    # 4*3^(k-1) words of weight exactly k, plus the identity
    words = list(words_of_weight_at_most(3))
    assert len(words) == len(set(words))
    by_weight = {}
    for w in words:
        by_weight.setdefault(w.weight, []).append(w)
    assert len(by_weight[0]) == 1
    assert len(by_weight[1]) == 4
    assert len(by_weight[2]) == 12
    assert len(by_weight[3]) == 36


def test_invariants_need_two_generators():
    # asked twice: the memo keeps no failure, so the second call raises too
    for _ in range(2):
        with pytest.raises(InvalidParameter):
            word_invariants(Word.generator(2))


def test_word_group_laws_random():
    rng = random.Random(59)

    def rand_word():
        blocks = []
        gen = rng.randint(0, 1)
        for _ in range(rng.randint(0, 4)):
            blocks.append((gen, rng.choice([-3, -2, -1, 1, 2, 3])))
            gen = 1 - gen
        return Word.from_blocks(blocks)

    for _ in range(200):
        u, v, w = rand_word(), rand_word(), rand_word()
        assert (u * v) * w == u * (v * w)
        assert (u * v).inv() == v.inv() * u.inv()
        assert (u * u.inv()).is_identity


# -- group laws and the word homomorphism, as properties -----------------------

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def words_over(ngens):
    """Words from arbitrary block lists, so that products cancel and merge."""
    block = st.tuples(st.integers(0, ngens - 1), st.integers(-3, 3))
    return st.lists(block, max_size=6).map(Word.from_blocks)


@PROPERTY_SETTINGS
@given(words_over(3), words_over(3), words_over(3))
def test_word_group_laws(u, v, w):
    one = Word.identity()
    assert (u * v) * w == u * (v * w)
    assert one * w == w == w * one
    assert w * w.inv() == one == w.inv() * w
    assert (u * v).inv() == v.inv() * u.inv()


@PROPERTY_SETTINGS
@given(st.sampled_from([Field(0), Field(3)]), words_over(2), words_over(2))
def test_word_images_is_a_homomorphism_at_the_primary_pair(field, u, v):
    up = unit_pair("primary", field)
    # separate evaluators, so no image is read from a cache the other filled
    product, factors = WordImages((up.u, up.v)), WordImages((up.u, up.v))
    assert product(u * v) == factors(u) * factors(v)
    assert product(Word.identity()) == Mat2Poly.identity(field)


@PROPERTY_SETTINGS
@given(words_over(3), st.integers(-6, 6))
def test_word_power_matches_the_repeated_product(w, n):
    base = w if n >= 0 else w.inv()
    expected = Word.identity()
    for _ in range(abs(n)):
        expected = expected * base
    assert w**n == expected


# -- the word_invariants memo ----------------------------------------------------

_LETTERS = {(X_GEN, True): Letter.X, (X_GEN, False): Letter.XINV,
            (Y_GEN, True): Letter.Y, (Y_GEN, False): Letter.YINV}


def recount_invariants(w):
    """The invariants from their definitions, with no memo."""
    blocks = w.blocks
    b = _LETTERS[blocks[0][0], blocks[0][1] > 0] if blocks else Letter.ONE
    e = _LETTERS[blocks[-1][0], blocks[-1][1] > 0] if blocks else Letter.ONE
    pairs = list(zip(blocks, blocks[1:]))
    x_pos_y_neg = {(X_GEN, True), (Y_GEN, False)}
    n = sum({(g1, e1 > 0), (g2, e2 > 0)} == x_pos_y_neg for (g1, e1), (g2, e2) in pairs)
    m = sum(e1 < 0 < e2 for (_, e1), (_, e2) in pairs)
    cprime = sum(abs(exp) for _, exp in blocks)
    return WordInvariants(B=b, E=e, N=n, M=m, sgn=(-1) ** n, C=cprime - m, Cprime=cprime)


def xy_words_of_weight_at_most_40():
    block = st.tuples(st.integers(0, 1), st.integers(-5, 5))
    return st.lists(block, max_size=8).map(Word.from_blocks)


@PROPERTY_SETTINGS
@given(xy_words_of_weight_at_most_40())
def test_memoised_invariants_match_a_recount(w):
    first = word_invariants(w)
    assert first == recount_invariants(w)
    assert word_invariants(w) == first


def test_memoised_invariants_match_a_recount_up_to_cumulus_five():
    for w in enum_words(5):
        assert word_invariants(w) == recount_invariants(w)


def test_memoised_invariants_have_no_instance_dict():
    # a slotted value: each memo entry carries no per-instance __dict__
    inv = word_invariants(parse_word("X*Y^-1"))
    assert not hasattr(inv, "__dict__")
    with pytest.raises(AttributeError):
        inv.N = 5
    assert inv.to_dict()["N"] == 1


def test_memo_stays_at_its_bound_when_overfilled():
    memo = words._count_invariants
    memo.cache_clear()
    sample = list(itertools.islice(words_of_weight_at_most(9), words.INVARIANTS_MEMO_SIZE + 100))
    assert len(sample) == words.INVARIANTS_MEMO_SIZE + 100
    for w in sample:
        assert word_invariants(w) == recount_invariants(w)
    info = memo.cache_info()
    assert info.maxsize == info.currsize == words.INVARIANTS_MEMO_SIZE
    # the earliest words were evicted and are counted again, still right
    for w in sample[:100]:
        assert word_invariants(w) == recount_invariants(w)
    assert memo.cache_info().currsize == words.INVARIANTS_MEMO_SIZE


def test_verify_tables_counts_each_word_once(monkeypatch):
    memo = words._count_invariants
    asked = []
    monkeypatch.setattr(words, "_count_invariants", lambda w: asked.append(w) or memo(w))
    memo.cache_clear()
    assert verify_tables(5, Field(0)).failed == 0
    info = memo.cache_info()
    assert info.hits + info.misses == len(asked)
    assert info.misses == len(set(asked)) == 2047
