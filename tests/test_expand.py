"""Truncated power-series expansion: components, minimal degree, minimal
component sums, and evaluation in finite-dimensional algebras."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpifc.errors import AllZero, UsageError
from lpifc.exactalg import Field
from lpifc.expand import (
    default_truncation,
    expand,
    minimal_component_sum,
    minimal_degree,
    render_component,
)
from lpifc.grpalg import matrix2_algebra, square_zero_algebra
from lpifc.laurent import LaurentPoly, parse_laurent
from lpifc.words import Word, WordImages, words_of_weight_at_most

Q = Field(0)
F2 = Field(2)
F3 = Field(3)


def positive(field, terms) -> LaurentPoly:
    """The sum of positive words given as sequences of variable indices."""
    return LaurentPoly(field, {Word.from_blocks((v, 1) for v in mon): c for mon, c in terms.items()})


def is_homogeneous_of(p: LaurentPoly, multidegree: tuple[int, ...]) -> bool:
    def letter_counts(w):
        return tuple(sum(e for g, e in w.blocks if g == v) for v in range(len(multidegree)))

    return all(w.rank <= len(multidegree) and letter_counts(w) == multidegree for w in p.terms)


class DimensionMismatch(UsageError):
    """Fewer assigned elements than variables."""


def eval_positive(p: LaurentPoly, assignment):
    """Substitute algebra elements for the variables and evaluate."""
    if len(assignment) < p.nvars:
        raise DimensionMismatch(
            f"assignment of length {len(assignment)} for {p.nvars} variables"
        )
    if not assignment:
        raise DimensionMismatch("evaluation needs at least one variable")
    return WordImages(assignment).evaluate(p.terms.items())


def test_expand_x_minus_one():
    ts = expand(parse_laurent("X - 1", Q), 2)
    assert ts.component((1,)) == positive(Q, {(0,): 1})
    m, mds = minimal_degree(ts)
    assert m == 1 and mds == [(1,)]


def test_expand_group_commutator():
    ts = expand(parse_laurent("X*Y*X^-1*Y^-1 - 1", Q), 4)
    xy_minus_yx = positive(Q, {(0, 1): 1, (1, 0): -1})
    assert ts.component((1, 1)) == xy_minus_yx
    m, mds = minimal_degree(ts)
    assert m == 2 and mds == [(1, 1)]
    assert minimal_component_sum(ts) == xy_minus_yx


def test_expand_constant_one():
    ts = expand(parse_laurent("1", Q), 3)
    assert set(ts.comps) == {(0,)}
    m, mds = minimal_degree(ts)
    assert m == 0


def test_expand_x_squared_minus_one():
    # (1+XT)^2 - 1 = 2XT + X^2 T^2
    ts = expand(parse_laurent("X^2 - 1", Q), 3)
    assert ts.component((1,)) == positive(Q, {(0,): 2})
    assert ts.component((2,)) == positive(Q, {(0, 0): 1})
    m, _ = minimal_degree(ts)
    assert m == 1
    assert minimal_component_sum(ts) == positive(Q, {(0,): 2})


def test_zero_component_is_value_at_all_ones():
    from lpifc.search import enum_words, random_laurent

    rng = random.Random(31)
    pool = list(enum_words(2))
    for _ in range(100):
        f = random_laurent(rng, Q, pool)
        ts = expand(f, 2)
        total = Q.zero
        for c in f.terms.values():
            total = total + c
        comp = ts.component((0,) * ts.nvars)
        if total.is_zero:
            assert comp.is_zero
        else:
            assert comp == LaurentPoly(Q, {Word.identity(): total})


def test_truncation_coherence():
    f = parse_laurent("X*Y^-2 + X^-1 - 2", Q)
    lo, hi = expand(f, 3), expand(f, 6)
    for md, comp in lo.comps.items():
        assert hi.component(md) == comp
    for md, comp in hi.comps.items():
        if sum(md) <= 3:
            assert lo.component(md) == comp


def test_components_are_homogeneous():
    f = parse_laurent("X*Y*X^-1*Y^-1 - 1", Q)
    ts = expand(f, 4)
    for md, comp in ts.comps.items():
        assert is_homogeneous_of(comp, md)


def test_default_truncation_bound():
    f = parse_laurent("X*Y^-2", Q)
    assert default_truncation(f) == 2 * 3 + 2


def test_injectivity_desk_scale():
    from lpifc.words import words_of_weight_at_most

    rng = random.Random(37)
    pool = [w for w in words_of_weight_at_most(3) if not w.is_identity]
    for _ in range(100):
        support = rng.sample(pool, rng.randint(1, 3))
        f = LaurentPoly(Q, {w: Q(rng.choice([-2, -1, 1, 2, 3])) for w in support})
        if f.is_zero:
            continue
        weight = max(w.weight for w in f.terms)
        assert not expand(f, 2 * weight + 2).is_zero


def test_all_zero_within_truncation():
    # the commutator's components start at total degree 2
    ts = expand(parse_laurent("X*Y*X^-1*Y^-1 - 1", Q), 1)
    with pytest.raises(AllZero):
        minimal_degree(ts)


def test_three_variable_text():
    # Components of a rank-3 expansion name the variables X1, X2, X3 and list
    # their terms in graded-lexicographic order of variable indices.
    f = LaurentPoly(Q, {Word(((0, 1), (2, -1))): 1, Word(((2, 1), (1, 1))): -2, Word(()): 1})
    ts = expand(f, 3, nvars=3)
    assert list(ts.to_dict().items()) == [
        ("0,0,1", "-3*X3"),
        ("0,1,0", "-2*X2"),
        ("1,0,0", "X1"),
        ("0,0,2", "X3*X3"),
        ("0,1,1", "-2*X3*X2"),
        ("1,0,1", "-X1*X3"),
        ("0,0,3", "-X3*X3*X3"),
        ("1,0,2", "X1*X3*X3"),
    ]
    assert minimal_degree(ts) == (1, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    assert render_component(minimal_component_sum(ts), 3) == "X1 - 2*X2 - 3*X3"
    commutator = LaurentPoly(Q, {Word(((0, 1), (2, 1), (0, -1), (2, -1))): 1, Word(()): -1})
    ts = expand(commutator, 3, nvars=3)
    assert ts.to_dict() == {
        "1,0,1": "X1*X3 - X3*X1",
        "1,0,2": "-X1*X3*X3 + X3*X1*X3",
        "2,0,1": "-X1*X3*X1 + X3*X1*X1",
    }
    assert render_component(minimal_component_sum(ts), 3) == "X1*X3 - X3*X1"


def test_polynomial_text_names_its_variables_by_its_rank():
    # Every word of a rank-3 polynomial prints in X1, X2, X3, also a word of
    # rank 1 or 2; a polynomial of rank 2 or less prints in X, Y.
    f = LaurentPoly(Q, {Word(((0, 1), (2, -1))): 1, Word(((2, 1), (1, 1))): -2, Word(()): 1})
    assert minimal_component_sum(expand(f, 3, nvars=3)).render() == "X1 - 2*X2 - 3*X3"
    g = LaurentPoly(Q, {Word(((0, 1), (2, -1))): 1, Word(((1, 2),)): 5})
    assert g.render() == "X1*X3^-1 + 5*X2^2"
    assert str(Word(((1, 2),))) == "Y^2"
    assert LaurentPoly(Q, {Word(((0, 1),)): 1, Word(((1, 1),)): -2}).render() == "X - 2*Y"


# -- evaluation in algebras ----------------------------------------------------


def test_eval_positive_words_commuting_elements():
    A = square_zero_algebra(Q, 2)
    p = positive(Q, {(0, 1): 1, (1, 0): -1})
    x, y = A.basis(1), A.basis(2)
    assert eval_positive(p, [x, y]).is_zero  # commutative algebra


def test_eval_positive_words_at_zero():
    A = square_zero_algebra(Q, 1)
    p = positive(Q, {(0,): 1})
    assert eval_positive(p, [A.zero()]).is_zero


def test_eval_positive_words_matrix_units_char2():
    A = matrix2_algebra(F2)
    p = positive(F2, {(0, 1): 1, (1, 0): -1})
    e12, e21 = A.basis(1), A.basis(2)
    value = eval_positive(p, [e12, e21])
    assert value == A.one()  # e11 + e22 in characteristic 2


def test_eval_positive_words_arity_checked():
    p = positive(Q, {(0, 1): 1})
    A = square_zero_algebra(Q, 2)
    with pytest.raises(DimensionMismatch):
        eval_positive(p, [A.basis(1)])


def test_nilpotent_ideal_vanishing():
    """In F2[x,y]/(x^2,y^2) the ideal (x,y) cubes to zero: components of the
    commutator expansion above total degree 2 vanish on it, and the minimal
    component sum evaluated on ideal elements equals the full evaluation of f
    at the corresponding units 1 + a."""
    A = square_zero_algebra(F2, 2)
    f = parse_laurent("X*Y*X^-1*Y^-1 - 1", F2)
    ts = expand(f, 6)
    ideal = []
    for c1 in range(2):
        for c2 in range(2):
            for c3 in range(2):
                ideal.append(A.elem((0, c1, c2, c3)))
    rng = random.Random(41)
    for _ in range(25):
        a1, a2 = rng.choice(ideal), rng.choice(ideal)
        # high components vanish on the ideal
        for md, comp in ts.comps.items():
            if sum(md) > 2:
                assert eval_positive(comp, [a1, a2]).is_zero
        # sum of total-degree-2 components equals f(1+a1, 1+a2)
        deg2 = LaurentPoly.zero(F2)
        for md, comp in ts.comps.items():
            if sum(md) == 2:
                deg2 = deg2 + comp
        u1, u2 = A.one() + a1, A.one() + a2
        assert eval_positive(deg2, [a1, a2]) == WordImages([u1, u2]).evaluate(f.terms.items())


def test_expansion_is_multiplicative():
    # expand(f*g) and expand(f)*expand(g) go through different arithmetic
    # (free-group products vs truncated series convolution) and must agree
    from random import Random

    from lpifc.words import words_of_weight_at_most

    rng = Random(53)
    pool = [w for w in words_of_weight_at_most(2)]
    for _ in range(40):
        def rand_poly():
            support = rng.sample(pool, rng.randint(1, 3))
            return LaurentPoly(Q, {w: Q(rng.choice([-2, -1, 1, 2])) for w in support})

        f, g = rand_poly(), rand_poly()
        bound = 5
        lhs = expand(f * g, bound, nvars=2)
        rhs = expand(f, bound, nvars=2) * expand(g, bound, nvars=2)
        assert lhs.comps == rhs.comps


def test_expand_negative_exponent_series():
    ts = expand(parse_laurent("X^-1 - 1", Q), 3)
    assert ts.component((1,)) == positive(Q, {(0,): -1})
    assert ts.component((2,)) == positive(Q, {(0, 0): 1})
    assert ts.component((3,)) == positive(Q, {(0, 0, 0): -1})


def test_positive_exponents_expand_in_memory_independent_of_the_bound():
    f = parse_laurent("X*Y^3", Q)
    small = expand(f, bound=8)
    tracemalloc.start()
    try:
        large = expand(f, bound=10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert large.comps == small.comps
    assert peak < 2**20


def test_expansion_is_additive():
    f = parse_laurent("X*Y - 1", Q)
    g = parse_laurent("Y^-1 + 2", Q)
    lhs = expand(f + g, 4, nvars=2)
    rhs = expand(f, 4, nvars=2) + expand(g, 4, nvars=2)
    assert lhs.comps == rhs.comps


# -- differential against a block-by-block route -------------------------------


def _blockwise_comps(f: LaurentPoly, bound: int, nvars: int) -> dict:
    """The multidegree -> LaurentPoly map of f's expansion, term by term: each
    block X_g^e becomes the truncated series sum_k C(e, k)*X_g^k T_g^k, and
    the blocks multiply as maps keyed by multidegree."""
    field = f.field
    zero = LaurentPoly.zero(field)

    def add_into(acc, md, poly):
        acc[md] = acc.get(md, zero) + poly

    total: dict = {}
    for w, coeff in f.terms.items():
        term = {(0,) * nvars: LaurentPoly(field, {Word.identity(): 1})}
        for gen, exp in w.blocks:
            block = {}
            for k in range(bound + 1):
                c = math.prod(range(exp, exp - k, -1)) // math.factorial(k)
                md = tuple(k if i == gen else 0 for i in range(nvars))
                block[md] = LaurentPoly(field, {Word.generator(gen, k): c})
            product: dict = {}
            for md1, p1 in term.items():
                for md2, p2 in block.items():
                    if sum(md1) + sum(md2) <= bound:
                        add_into(product, tuple(a + b for a, b in zip(md1, md2)), p1 * p2)
            term = product
        for md, poly in term.items():
            add_into(total, md, poly.scale(coeff))
    return {md: poly for md, poly in total.items() if not poly.is_zero}


WORDS_UP_TO_3 = list(words_of_weight_at_most(3))


def _coefficients(field):
    if field.p == 0:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(0, field.p - 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([Q, F2, F3]), st.sampled_from([1, 2]), st.integers(0, 6), st.data())
def test_expand_matches_blockwise_route(field, nvars, bound, data):
    pool = [w for w in WORDS_UP_TO_3 if w.rank <= nvars]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(pool), _coefficients(field)), max_size=4))
    f = LaurentPoly(field, pairs)
    ts = expand(f, bound, nvars=nvars)
    expected = _blockwise_comps(f, bound, nvars)
    assert ts.comps == expected
    assert (ts * ts).comps == _blockwise_comps(f * f, bound, nvars)
    assert (ts.field, ts.nvars, ts.bound, ts.is_zero) == (field, nvars, bound, not expected)
    if expected:
        m = min(sum(md) for md in expected)
        mds = sorted(md for md in expected if sum(md) == m)
        assert minimal_degree(ts) == (m, mds)
        minimal = LaurentPoly.zero(field)
        for md in mds:
            minimal = minimal + expected[md]
        assert minimal_component_sum(ts) == minimal
