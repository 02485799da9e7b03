"""The incremental echelon form and solve, against the FieldElem reference
row reduction in ``linalg_reference``."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linalg_reference import nullspace as ref_nullspace
from linalg_reference import rref as ref_rref
from linalg_reference import solve as ref_solve
from lpifc.errors import InvalidParameter
from lpifc.exactalg import Field
from lpifc.linalg import Echelon, solve

Q, F2, F3, F5 = Field(0), Field(2), Field(3), Field(5)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _entries(field):
    if field.p == 0:
        return st.one_of(st.integers(-4, 4),
                         st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
    return st.integers(-field.p, 2 * field.p)


@st.composite
def systems(draw):
    """A field, a column count, a matrix of plain numbers (not yet reduced
    mod p), a right-hand side, a vector x0 and the cut points of a staged
    addition."""
    field = draw(st.sampled_from([Q, F2, F3, F5]))
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(0, 7))
    row = st.lists(_entries(field), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    b = draw(st.lists(_entries(field), min_size=nrows, max_size=nrows))
    x0 = draw(row)
    cuts = sorted(draw(st.lists(st.integers(0, nrows), max_size=3)))
    return field, ncols, rows, b, x0, cuts


def _elems(field, rows):
    return [[field(c) for c in row] for row in rows]


def _check_canonical(field, vecs):
    for vec in vecs:
        for c in vec:
            if field.p:
                assert type(c) is int and 0 <= c < field.p
            else:
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _check_against_reference(field, ech, rows):
    ncols = ech.ncols
    reduced, pivots = ref_rref(field, _elems(field, rows))
    assert ech.pivots == pivots
    assert ech.rank == len(pivots)
    assert _elems(field, ech.rows) == reduced[: len(pivots)]
    null = ech.nullspace()
    assert _elems(field, null) == ref_nullspace(field, _elems(field, rows), ncols)
    _check_canonical(field, ech.rows)
    _check_canonical(field, null)


# Integer matrices that are singular mod p but not over Q, and a system
# that is consistent over Q but not over F2.
SINGULAR_MOD_P = [
    (F2, 2, [[1, 1], [1, 3]], [0, 1], [1, 1], [1]),
    (F3, 2, [[2, 1], [1, 2]], [1, 0], [2, 1], []),
    (F5, 2, [[1, 2], [3, 1]], [1, 3], [4, 1], [1]),
    (Q, 2, [[1, 1], [1, 3]], [0, 1], [1, 1], [1]),
]


def with_examples(test):
    for case in SINGULAR_MOD_P:
        test = example(case)(test)
    return test


@PROPERTY_SETTINGS
@given(systems())
@with_examples
def test_echelon_matches_reference_all_at_once_and_in_stages(system):
    field, ncols, rows, _, _, cuts = system
    whole = Echelon(field, ncols)
    whole.add(rows)
    _check_against_reference(field, whole, rows)

    staged = Echelon(field, ncols)
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        staged.add(rows[lo:hi])
        _check_against_reference(field, staged, rows[:hi])
    assert (staged.rows, staged.pivots) == (whole.rows, whole.pivots)


@PROPERTY_SETTINGS
@given(systems())
@with_examples
def test_solve_matches_reference(system):
    field, ncols, rows, b, x0, _ = system
    # b as drawn, consistent or not, and A x0, which is always consistent
    image = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    for rhs in (b, image):
        x = solve(field, rows, rhs)
        expected = ref_solve(field, _elems(field, rows), [field(c) for c in rhs])
        if expected is None:
            assert x is None
            continue
        assert x is not None and [field(c) for c in x] == expected
        _check_canonical(field, [x])
        for row, c in zip(_elems(field, rows), rhs):
            assert sum((a * field(xi) for a, xi in zip(row, x)), field.zero) == field(c)
    assert solve(field, rows, image) is not None


@pytest.mark.parametrize(
    "field, rows, rank",
    [
        (F2, [[1, 1], [1, 3]], 1),
        (Q, [[1, 1], [1, 3]], 2),
        (F3, [[2, 1], [1, 2]], 1),
        (Q, [[2, 1], [1, 2]], 2),
        (F5, [[1, 2], [3, 1]], 1),
        (Q, [[1, 2], [3, 1]], 2),
    ],
    ids=repr,
)
def test_rank_of_integer_matrices_singular_mod_p(field, rows, rank):
    ech = Echelon(field, 2)
    ech.add(rows)
    assert ech.rank == rank
    assert len(ech.nullspace()) == 2 - rank


def test_inconsistent_mod_p_consistent_over_q():
    # x + y = 0, x + 3y = 1: y = 1/2 over Q, and 0 = 1 over F2
    assert solve(F2, [[1, 1], [1, 3]], [0, 1]) is None
    assert solve(Q, [[1, 1], [1, 3]], [0, 1]) == [Fraction(-1, 2), Fraction(1, 2)]


def test_add_does_not_mutate_its_rows_and_rejects_a_wrong_width():
    rows = [[2, 4], [1, 3]]
    ech = Echelon(Q, 2)
    ech.add(rows)
    assert rows == [[2, 4], [1, 3]]
    assert (ech.rows, ech.pivots) == ([[1, 0], [0, 1]], [0, 1])
    with pytest.raises(InvalidParameter):
        ech.add([[1, 2, 3]])


def test_empty_system():
    ech = Echelon(F3, 3)
    assert ech.rank == 0
    assert ech.nullspace() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert solve(F3, [], []) == []
