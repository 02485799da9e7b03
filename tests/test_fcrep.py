"""The 2x2 polynomial-matrix representation: images, unit pairs, evaluation,
the leading-term table, L-membership, the conjugation system, and witness
extraction."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcrep_reference import (
    alternating_monomials,
    g_at_alphabeta,
    p1_fails_on_fc,
    phi_images_independent,
    to_mat2,
)
import lpifc
from lpifc.errors import InvalidLetter, StillInL, ZeroPolynomial
from lpifc.exactalg import POWER_CROSSOVER, Field, Mat2Poly, UniPoly, scalar_mat
from lpifc.fcrep import (
    FCMat,
    eval_laurent,
    eval_word,
    extract_g,
    phi_beta,
    phi_eval,
    phi_monomial,
    thekey_solve,
    unit_pair,
)
from lpifc.laurent import LaurentPoly, parse_laurent, table_leading_term
from lpifc.words import W_X, W_Y, Letter, Word, WordImages, parse_word, word_invariants

Q = Field(0)
F2 = Field(2)
F3 = Field(3)


# -- the representation ---------------------------------------------------------


def test_phi_alpha_decomposition():
    m = phi_eval("a", Q)
    assert (str(m.x), str(m.A), str(m.B), str(m.C), str(m.D)) == ("0", "0", "1", "0", "0")


def test_phi_alphabeta_is_T_e11():
    m = phi_eval("a*b", Q)
    assert to_mat2(m) == Mat2Poly(Q, ((UniPoly.T(Q), UniPoly.zero(Q)), (UniPoly.zero(Q), UniPoly.zero(Q))))
    assert (str(m.x), str(m.A)) == ("0", "1")


def test_phi_kills_squares():
    assert phi_eval("a*a", Q).is_zero
    assert phi_eval("b*b", Q).is_zero


def test_phi_image_closed_under_ring_ops():
    rng = random.Random(23)
    for _ in range(200):
        def rand_fc():
            return FCMat(
                Q,
                x=Q(rng.randint(-3, 3)),
                A=UniPoly(Q, [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]),
                B=UniPoly(Q, [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]),
                C=UniPoly(Q, [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]),
                D=UniPoly(Q, [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]),
            )

        m1, m2 = rand_fc(), rand_fc()
        FCMat.decompose(to_mat2(m1) * to_mat2(m2))
        FCMat.decompose(to_mat2(m1) + to_mat2(m2))


def test_faithfulness_desk_scale():
    assert phi_images_independent(Q, 8)
    assert phi_images_independent(F2, 8)
    assert len(alternating_monomials(8)) == 17


# -- unit pairs ---------------------------------------------------------------------


def test_primary_pair_displays():
    up = unit_pair("primary", Q)
    one, T = UniPoly.one(Q), UniPoly.T(Q)
    t2 = UniPoly.monomial(Q, 2)
    assert up.u == Mat2Poly(Q, ((one + t2, T), (T, one)))
    assert up.v == Mat2Poly(Q, ((one - T + t2, t2), (T, one + T)))
    assert up.u.det() == one and up.v.det() == one


def test_alternate_pair_units():
    up = unit_pair("alternate", Q)
    assert up.u.det().degree == 0
    assert up.v.det().degree == 0
    assert up.u * up.u_inv == Mat2Poly.identity(Q)


def test_unit_inverse_agrees_with_factorwise_series():
    # (1+n)^-1 = 1 - n for the square-zero factors; the primary unit
    # u = (1+aba)(1+b) then inverts factorwise as (1-b)(1-aba)
    one = Mat2Poly.identity(Q)
    aba = phi_monomial((0, 1, 0), Q)
    b = phi_beta(Q)
    up = unit_pair("primary", Q)
    assert up.u_inv == (one - b) * (one - aba)


def test_swapped_pair_swaps():
    primary = unit_pair("primary", Q)
    swapped = unit_pair("swapped", Q)
    assert swapped.u == primary.v and swapped.v == primary.u


# -- evaluation --------------------------------------------------------------------


def test_eval_identity_word():
    up = unit_pair("primary", Q)
    assert eval_word(Word.identity(), up) == Mat2Poly.identity(Q)


def test_eval_single_x():
    up = unit_pair("primary", Q)
    assert eval_word(parse_word("X"), up) == up.u


def test_eval_yinv_x_hand_checked():
    up = unit_pair("primary", Q)
    m = eval_word(parse_word("Y^-1*X"), up)
    expected = Mat2Poly(
        Q,
        (
            (UniPoly(Q, (1, 1, 1)), UniPoly.T(Q)),
            (UniPoly(Q, (0, 0, -1)), UniPoly(Q, (1, -1))),
        ),
    )
    assert m == expected
    # T^2 coefficient e11 - e21 = sgn * (e21 - e11) with sgn = -1
    assert m.coeff_at(2) == scalar_mat(Q, ((1, 0), (-1, 0)))


def test_eval_word_inverse_is_matrix_inverse():
    from lpifc.search import enum_words

    up = unit_pair("primary", Q)
    for w in enum_words(3):
        assert eval_word(w.inv(), up) == eval_word(w, up).inv()


# -- the cached word images against a schoolbook route ----------------------------

F5 = Field(5)
PAIR_KINDS = ("primary", "alternate", "swapped")

# The reference route multiplies FieldElem coefficient lists itself, so it
# shares no arithmetic with UniPoly/Mat2Poly; a matrix is the row-major list
# of its four entries.


def _poly_mul(field, f, g):
    out = [field.zero] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    while out and out[-1].is_zero:
        out.pop()
    return out


def _poly_add(field, f, g):
    n = max(len(f), len(g))
    out = [(f[k] if k < len(f) else field.zero) + (g[k] if k < len(g) else field.zero) for k in range(n)]
    while out and out[-1].is_zero:
        out.pop()
    return out


def _mat_mul(field, m, n):
    return [
        _poly_add(field, _poly_mul(field, m[2 * i], n[j]), _poly_mul(field, m[2 * i + 1], n[2 + j]))
        for i in (0, 1)
        for j in (0, 1)
    ]


def _mat_pow(field, m, k):
    """m^k by repeated squaring; a negative k inverts by the adjugate."""
    if k < 0:
        a, b, c, d = m
        det = _poly_add(field, _poly_mul(field, a, d), [-x for x in _poly_mul(field, b, c)])
        assert len(det) == 1, "unit determinant must be a nonzero constant"
        s = det[0].inverse()
        m = [[x * s for x in d], [-x * s for x in b], [-x * s for x in c], [x * s for x in a]]
        k = -k
    out = [[field.one], [], [], [field.one]]
    while k:
        if k & 1:
            out = _mat_mul(field, out, m)
        k >>= 1
        if k:
            m = _mat_mul(field, m, m)
    return out


def _word_route(w, up):
    """A left-to-right schoolbook product of generator powers."""
    field = up.u.field
    gens = [[list(p.coeffs) for row in m.e for p in row] for m in (up.u, up.v)]
    out = [[field.one], [], [], [field.one]]
    for gen, exp in w.blocks:
        out = _mat_mul(field, out, _mat_pow(field, gens[gen], exp))
    return out


def _as_mat2poly(field, m):
    a, b, c, d = (UniPoly(field, cs) for cs in m)
    return Mat2Poly(field, ((a, b), (c, d)))


def _mat2poly_route(w, up):
    return _as_mat2poly(up.u.field, _word_route(w, up))


def _laurent_route(f, up):
    """The sum of the coefficient-scaled word routes."""
    field = up.u.field
    out = [[], [], [], []]
    for w, c in f.terms.items():
        out = [_poly_add(field, o, [x * c for x in e]) for o, e in zip(out, _word_route(w, up))]
    return _as_mat2poly(field, out)


def _assert_fraction_coeffs(m):
    assert all(isinstance(c.v, Fraction) for row in m.e for p in row for c in p.coeffs)


def test_integral_scalar_multiplies_as_int_over_q(monkeypatch):
    f = UniPoly(Q, (1, -2, 0, 5))
    scaled = f * Q(Fraction(3))
    assert [type(c) for c in scaled._c] == [int] * 4
    assert scaled.coeffs == tuple(c * Q(3) for c in f.coeffs)
    half = f * Q(Fraction(3, 2))
    assert [type(c) for c in half._c] == [Fraction, int, int, Fraction]
    assert half.coeffs == tuple(c * Q(Fraction(3, 2)) for c in f.coeffs)
    # The integral scalar is demoted once, so no coefficient meets a Fraction.
    scalars = (Q(3), Fraction(3), 3, Q(-1))
    expected = [UniPoly(Q, [c * Q(s) for c in f.coeffs]) for s in scalars]
    products = []
    for name in ("__mul__", "__rmul__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda a, b, op=op: products.append(b) or op(a, b))
    got = [f * s for s in scalars]
    monkeypatch.undo()
    assert products == []
    assert got == expected
    m = unit_pair("primary", Q).u
    for s in (Q(3), Fraction(-1), 2, Q(Fraction(3, 2))):
        _assert_fraction_coeffs(m.scale(s))


def test_scalar_product_over_fp_is_unchanged():
    f = UniPoly(F5, (1, 4, 0, 3))
    for s in (F5(3), 3, 8, Fraction(3, 2)):
        scaled = f * s
        assert scaled._c == tuple(c.v * F5(s).v % 5 for c in f.coeffs)
        assert scaled.coeffs == tuple(c * F5(s) for c in f.coeffs)
        assert all(type(c) is int and 0 <= c < 5 for c in scaled._c)


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=repr)
@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_eval_word_matches_mat2poly_route(field, kind):
    from lpifc.search import enum_words

    words = list(enum_words(3))
    expected = {w: _mat2poly_route(w, unit_pair(kind, field)) for w in words}
    # Ascending order hits the cached prefixes; descending order fills the
    # cache from the longest words first.
    for order in (words, words[::-1]):
        up = unit_pair(kind, field)
        for w in order:
            img = eval_word(w, up)
            assert img == expected[w], w.render()
            if field == Q:
                _assert_fraction_coeffs(img)


def test_eval_matches_mat2poly_route_on_rational_pair():
    from lpifc.fcrep import UnitPair
    from lpifc.search import enum_words

    def mat(rows):
        return Mat2Poly(Q, tuple(tuple(UniPoly(Q, [Fraction(c) for c in e]) for e in r) for r in rows))

    u = mat(((("1",), ("0", "1/2")), ((), ("1",))))
    u_inv = mat(((("1",), ("0", "-1/2")), ((), ("1",))))
    v = mat(((("2",), ()), (("0", "1/3"), ("1/2",))))
    v_inv = mat(((("1/2",), ()), (("0", "-1/3"), ("2",))))
    up = UnitPair("rational", u, v, u_inv, v_inv)
    saw_fraction = False
    for w in enum_words(3):
        img = eval_word(w, up)
        assert img == _mat2poly_route(w, up), w.render()
        _assert_fraction_coeffs(img)
        saw_fraction |= any(c.v.denominator > 1 for row in img.e for p in row for c in p.coeffs)
    assert saw_fraction
    f = parse_laurent("3/2*X*Y^-1 - 1/5*Y^2*X + 7", Q)
    assert eval_laurent(f, up) == _laurent_route(f, up)


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_eval_large_powers_over_f5(kind):
    up = unit_pair(kind, F5)
    for text in ("X^64", "Y^-40"):
        w = parse_word(text)
        assert eval_word(w, up) == _mat2poly_route(w, unit_pair(kind, F5)), text


# -- the Cayley-Hamilton power against repeated squaring -------------------------

# Every n up to 40, and the exponents around the crossover from binary powering.
POWER_EXPONENTS = sorted(set(range(41)) | {POWER_CROSSOVER - 1, POWER_CROSSOVER, POWER_CROSSOVER + 1})


def _coefficients(field):
    if field.p == 0:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(0, field.p - 1)


def _random_mats(field):
    entries = st.lists(_coefficients(field), max_size=2)
    return st.lists(entries, min_size=4, max_size=4).map(lambda e: _as_mat2poly(field, e))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([Q, F2, F3, F5]).flatmap(_random_mats))
@example(_as_mat2poly(Q, [(0, 1), (1,), (1,), (0, 1)]))  # det T^2 - 1
@example(_as_mat2poly(F3, [(1, 1), (0, 1), (), (2,)]))  # det 2 + 2T
@example(_as_mat2poly(Q, [(Fraction(1, 2),), (0, 1), (0, 1), ()]))  # det -T^2
@example(_as_mat2poly(F2, [(1,), (1,), (1,), (1,)]))  # singular: det 0
def test_power_matches_repeated_squaring(m):
    field = m.field
    entries = [list(p.coeffs) for row in m.e for p in row]
    for n in POWER_EXPONENTS:
        assert m ** n == _as_mat2poly(field, _mat_pow(field, entries, n)), n


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=repr)
@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_negative_powers_of_shipped_pairs(field, kind):
    up = unit_pair(kind, field)
    for m in (up.u, up.v, up.u_inv, up.v_inv):
        entries = [list(p.coeffs) for row in m.e for p in row]
        for n in (-1, -2, -POWER_CROSSOVER, -POWER_CROSSOVER - 1, -9, -25):
            assert m ** n == _as_mat2poly(field, _mat_pow(field, entries, n)), n
            if field == Q:
                _assert_fraction_coeffs(m ** n)


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=repr)
def test_eval_laurent_matches_mat2poly_route(field):
    from lpifc.search import enum_words, random_laurent

    rng = random.Random(7)
    pool = list(enum_words(3))
    for kind in PAIR_KINDS:
        up = unit_pair(kind, field)
        for _ in range(20):
            f = random_laurent(rng, field, pool)
            img = eval_laurent(f, up)
            assert img == _laurent_route(f, up), f.render()
            if field == Q:
                _assert_fraction_coeffs(img)


def test_unit_pair_checks_survive_optimize_flag():
    # The inverse check is an explicit exception, so python -O keeps it.
    code = (
        "import sys\n"
        "from lpifc.errors import InvalidParameter\n"
        "from lpifc.exactalg import Field\n"
        "from lpifc.fcrep import UnitPair, unit_pair\n"
        "assert sys.flags.optimize, 'not running under -O'\n"
        "up = unit_pair('primary', Field(0))\n"
        "try:\n"
        "    UnitPair('broken', up.u, up.v, up.u, up.v_inv)\n"
        "except InvalidParameter as exc:\n"
        "    print('raised:', exc)\n"
        "else:\n"
        "    sys.exit(1)\n"
    )
    src = str(Path(lpifc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: u_inv is not the inverse of u\n"


def test_eval_laurent_commutator():
    up = unit_pair("primary", Q)
    img = eval_laurent(parse_laurent("X*Y - Y*X", Q), up)
    assert not img.is_zero
    assert img.coeff_at(4) == scalar_mat(Q, ((0, 1), (0, 0)))


def test_eval_laurent_zero_and_xminus1():
    up = unit_pair("primary", Q)
    assert eval_laurent(LaurentPoly.zero(Q), up).is_zero
    img = eval_laurent(parse_laurent("X - 1", Q), up)
    T, t2 = UniPoly.T(Q), UniPoly.monomial(Q, 2)
    assert img == Mat2Poly(Q, ((t2, T), (T, UniPoly.zero(Q))))


def test_single_word_consistency_with_table():
    # a single-word polynomial c*w has obstruction sgn(w)*c*table(B,E), and
    # the evaluation coefficient agrees
    from lpifc.laurent import obstruction_matrix

    up = unit_pair("primary", Q)
    for text, c in (("X*Y^-1", 3), ("X^-1*Y*X", -2)):
        w = parse_word(text)
        f = LaurentPoly(Q, {w: c})
        invs = word_invariants(w)
        expected = table_leading_term(invs.B, invs.E, Q)
        expected = tuple(tuple(Q(invs.sgn * c) * e for e in row) for row in expected)
        assert obstruction_matrix(f) == expected
        assert eval_laurent(f, up).coeff_at(2 * invs.C) == expected


def test_cancelling_cells_consistent():
    # X^2 and X*Y^-1*X share (B, E, sgn, C): both routes vanish together
    from lpifc.exactalg import scalar_mat_is_zero
    from lpifc.laurent import obstruction_matrix

    f = parse_laurent("X^2 - X*Y^-1*X", Q)
    up = unit_pair("primary", Q)
    assert scalar_mat_is_zero(obstruction_matrix(f))
    assert scalar_mat_is_zero(eval_laurent(f, up).coeff_at(4))


def test_degree_equals_twice_cumulus_small():
    from lpifc.search import enum_words

    up = unit_pair("primary", Q)
    for w in enum_words(3):
        invs = word_invariants(w)
        img = eval_word(w, up)
        assert img.degree == 2 * invs.C
        expected = table_leading_term(invs.B, invs.E, Q)
        expected = tuple(tuple(Q(invs.sgn) * e for e in row) for row in expected)
        assert img.coeff_at(2 * invs.C) == expected


def test_alternate_pair_degree_bound_small():
    from lpifc.words import words_of_weight_at_most

    up = unit_pair("alternate", Q)
    for w in words_of_weight_at_most(4):
        assert eval_word(w, up).degree <= 2 * w.weight


# -- the leading-term table ------------------------------------------------------------


def test_table_entries():
    assert table_leading_term(Letter.X, Letter.X, Q) == scalar_mat(Q, ((1, 0), (0, 0)))
    assert table_leading_term(Letter.XINV, Letter.Y, Q) == scalar_mat(Q, ((0, 0), (1, 1)))
    assert table_leading_term(Letter.YINV, Letter.XINV, Q) == scalar_mat(Q, ((0, -1), (0, 1)))


def test_table_rejects_identity_marker():
    with pytest.raises(InvalidLetter):
        table_leading_term(Letter.ONE, Letter.X, Q)


# -- L membership ------------------------------------------------------------------------


def test_in_l_zero():
    assert FCMat.decompose(Mat2Poly.zero(Q)).in_l()


def test_in_l_unit_minus_one():
    up = unit_pair("primary", Q)
    m = FCMat.decompose(up.u - Mat2Poly.identity(Q))
    assert (str(m.A), str(m.B), str(m.C), str(m.D)) == ("T", "T", "1", "0")
    assert not m.in_l()  # T*T + T + 1 = T^2 + T + 1 != 0


def test_in_l_cancelling_sum():
    m = FCMat(Q, x=Q(0), A=UniPoly.zero(Q), B=UniPoly.one(Q), C=UniPoly(Q, (-1,)), D=UniPoly.zero(Q))
    assert m.in_l()


# -- the conjugation system ---------------------------------------------------------------


def test_thekey_zero_space_char_zero_and_three():
    for field in (Q, F3):
        report = thekey_solve(field, degree_bound=4)
        assert report.zero_space
        assert all(holds for _, holds in report.relations)
        # the four displayed memberships suffice, no extended conjugators
        assert len(report.stages) == 4


def test_thekey_char2_needs_extended_conjugators():
    report = thekey_solve(F2, degree_bound=4)
    assert report.zero_space
    assert len(report.stages) > 4
    # the displayed elimination relations genuinely fail in characteristic 2
    assert not all(holds for _, holds in report.relations)


def test_thekey_char2_without_extension_reports_residual():
    from lpifc.fcrep import default_conjugators

    report = thekey_solve(F2, degree_bound=4, conjugators=default_conjugators(F2))
    assert not report.zero_space
    assert report.final_dim > 0
    assert report.residual_basis


def test_thekey_degree_cap_independence():
    for d in (2, 3, 6):
        assert thekey_solve(Q, degree_bound=d).zero_space


def test_thekey_empty_conjugator_list_is_the_whole_space():
    # no membership conditions: every s = [[x+T*A, B], [T*C, x+T*D]] with
    # deg A, B, C, D <= 2 is a solution, so C = 0 fails on the space
    report = thekey_solve(F3, degree_bound=2, conjugators=[])
    assert report.stages == []
    assert report.final_dim == 1 + 4 * 3
    assert not report.zero_space
    assert len(report.residual_basis) == report.final_dim
    assert [holds for _, holds in report.relations] == [False, False, False]


def test_thekey_one_rref_per_stage(monkeypatch):
    # One echelon form across the stages, and one Echelon.add per stage that
    # receives exactly that stage's rows: the rows a solve with that
    # conjugator alone receives, never the earlier stages' rows again.
    from lpifc.linalg import Echelon

    calls = []
    add = Echelon.add

    def recording_add(self, rows):
        rows = list(rows)
        calls.append((self, rows))
        add(self, rows)

    monkeypatch.setattr(Echelon, "add", recording_add)
    report = thekey_solve(F2, degree_bound=4)
    assert len(report.stages) == 6
    assert len(calls) == 6
    assert len({id(system) for system, _ in calls}) == 1
    assert [len(rows) for _, rows in calls] == [s.equations for s in report.stages]
    stage_rows = [rows for _, rows in calls]
    for (label, u), rows in zip(_all_conjugators(F2), stage_rows):
        calls.clear()
        thekey_solve(F2, degree_bound=4, conjugators=[(label, u)])
        assert [r for _, r in calls] == [rows], label


def test_thekey_rejects_a_conjugator_outside_the_image():
    from lpifc.errors import DecompositionFailure

    shear = Mat2Poly.from_scalars(Q, ((1, 0), (1, 1)))  # lower-left constant 1
    with pytest.raises(DecompositionFailure):
        thekey_solve(Q, degree_bound=1, conjugators=[("shear", shear)])


def _all_conjugators(field):
    from lpifc.fcrep import default_conjugators, extended_conjugators

    return default_conjugators(field) + extended_conjugators(field)


def test_thekey_single_conjugator_dims_match_enumeration_f2():
    # independent route: over F2 at degree bound 1 there are 2^9 elements
    # s; count those whose conjugate lies in L, one conjugator at a time
    import itertools

    d, n = 1, 9
    elems = []
    for vec in itertools.product((0, 1), repeat=n):
        polys = [UniPoly(F2, vec[1 + k * (d + 1) : 1 + (k + 1) * (d + 1)]) for k in range(4)]
        elems.append(to_mat2(FCMat(F2, F2(vec[0]), *polys)))
    conjugators = _all_conjugators(F2)
    assert len(conjugators) == 11
    for label, u in conjugators:
        u_inv = u.inv()
        count = sum(FCMat.decompose(u * s * u_inv).in_l() for s in elems)
        report = thekey_solve(F2, degree_bound=d, conjugators=[(label, u)])
        assert count == 2**report.final_dim, label


@pytest.mark.parametrize("field", [Q, F3, Field(5)], ids=repr)
def test_thekey_dims_match_rank_of_conjugated_basis(field):
    # independent route: conjugate each basis element of the generic s as a
    # whole matrix and take the rank of its membership conditions by the
    # FieldElem reference row reduction
    from linalg_reference import rank

    d = 2
    n = 1 + 4 * (d + 1)
    basis = []
    for k in range(n):
        vec = [field.zero] * n
        vec[k] = field.one
        polys = [UniPoly(field, vec[1 + j * (d + 1) : 1 + (j + 1) * (d + 1)]) for j in range(4)]
        basis.append(to_mat2(FCMat(field, vec[0], *polys)))

    def rows_for(u):
        conds = [FCMat.decompose(u * s * u.inv()) for s in basis]
        polys = [c.A.shift(1) + c.B + c.C + c.D for c in conds]
        top = max(len(p.coeffs) for p in polys)
        return [[c.x for c in conds]] + [[p.coeff(j) for p in polys] for j in range(top)]

    conjugators = _all_conjugators(field)
    for label, u in conjugators:
        report = thekey_solve(field, degree_bound=d, conjugators=[(label, u)])
        assert report.final_dim == n - rank(field, rows_for(u)), label
    cumulative = []
    for k, (label, u) in enumerate(conjugators[:4]):
        cumulative += rows_for(u)
        report = thekey_solve(field, degree_bound=d, conjugators=conjugators[: k + 1])
        assert report.stages[-1].nullspace_dim == n - rank(field, cumulative), label


# -- witness extraction ---------------------------------------------------------------------


def test_extract_g_x_minus_one():
    up = unit_pair("primary", Q)
    witness = extract_g(parse_laurent("X - 1", Q), up)
    assert witness.g == UniPoly.monomial(Q, 2)  # T^2
    assert (witness.sigma, witness.tau) == ("a", "ab")  # (a, b) gives zero first


def test_extract_g_rejects_zero():
    up = unit_pair("primary", Q)
    with pytest.raises(ZeroPolynomial):
        extract_g(LaurentPoly.zero(Q), up)


def test_extract_g_commutator_nonzero():
    up = unit_pair("primary", Q)
    witness = extract_g(parse_laurent("X*Y - Y*X", Q), up)
    assert not witness.g.is_zero
    assert witness.g.constant_term.is_zero


def test_extract_g_random_inputs():
    from lpifc.search import enum_words, random_laurent

    rng = random.Random(29)
    up = unit_pair("primary", Q)
    pool = list(enum_words(2))
    produced = 0
    while produced < 50:
        f = random_laurent(rng, Q, pool)
        if eval_laurent(f, up).is_zero:
            continue
        witness = extract_g(f, up)
        assert not witness.g.is_zero
        assert witness.g.constant_term.is_zero
        produced += 1


def test_extract_g_skips_conjugation_outside_l():
    f = parse_laurent("X - 1", Q)
    witness = extract_g(f, up := unit_pair("primary", Q), conj_bound=0)
    assert witness.conjugator == "1"  # not in L, no conjugation needed


def test_extract_g_conjugation_rescue():
    # this input evaluates to a nonzero element *inside* L; a single
    # elementary conjugation rescues it (g frozen as a regression value)
    up = unit_pair("primary", Q)
    f = parse_laurent("X^-1*Y^-1*X - 2*X^-1*Y*X^-1 + Y", Q)
    r = eval_laurent(f, up)
    assert not r.is_zero
    assert FCMat.decompose(r).in_l()
    witness = extract_g(f, up)
    assert witness.conjugator == "(1+a)"
    assert str(witness.g) == "-T^5 - 2*T^4 - 2*T^3 - 4*T^2"
    assert witness.g.constant_term.is_zero


def test_extract_g_still_in_l_when_bound_zero():
    up = unit_pair("primary", Q)
    f = parse_laurent("X^-1*Y^-1*X - 2*X^-1*Y*X^-1 + Y", Q)
    with pytest.raises(StillInL):
        extract_g(f, up, conj_bound=0)


# -- the failing-property exhibit -------------------------------------------------------------


def test_p1_fails_examples():
    assert p1_fails_on_fc(UniPoly.T(Q))
    assert p1_fails_on_fc(UniPoly.one(Q))
    assert p1_fails_on_fc(UniPoly.parse("T^2 - T", Q))
    with pytest.raises(ZeroPolynomial):
        p1_fails_on_fc(UniPoly.zero(Q))


def test_g_at_alphabeta_shape():
    g = UniPoly.parse("T^2 - T + 3", Q)
    m = g_at_alphabeta(g)
    assert m.entry(0, 0) == g
    assert m.entry(1, 1) == UniPoly(Q, (3,))
    assert m.entry(0, 1).is_zero and m.entry(1, 0).is_zero
    # matches the honest evaluation of g at the image of ab
    ab = phi_monomial((0, 1), Q)
    direct = Mat2Poly.identity(Q).scale(Q(3)) + ab * ab - ab
    assert m == direct


def test_thekey_char2_residual_structure():
    # without the extended conjugators the char-2 residual space is exactly
    # x = 0, D = T*A, B = C = T*(1+T)*A (hand-derived from the membership
    # equations); every reported basis vector satisfies these relations
    from lpifc.fcrep import default_conjugators

    report = thekey_solve(F2, degree_bound=5, conjugators=default_conjugators(F2))
    assert report.final_dim > 0
    T = UniPoly.T(F2)
    t_one_plus_t = UniPoly(F2, (0, 1, 1))  # T + T^2
    for entry in report.residual_basis:
        x = entry["x"]
        A = UniPoly.parse(entry["A"], F2) if entry["A"] != "0" else UniPoly.zero(F2)
        B = UniPoly.parse(entry["B"], F2) if entry["B"] != "0" else UniPoly.zero(F2)
        C = UniPoly.parse(entry["C"], F2) if entry["C"] != "0" else UniPoly.zero(F2)
        D = UniPoly.parse(entry["D"], F2) if entry["D"] != "0" else UniPoly.zero(F2)
        assert x == "0"
        assert D == T * A
        assert B == t_one_plus_t * A
        assert C == t_one_plus_t * A


def test_thekey_char2_closes_with_1_plus_aba():
    for bound in (2, 4, 6):
        report = thekey_solve(F2, degree_bound=bound)
        assert report.zero_space
        assert report.stages[-1].conjugator == "1+aba"


def test_swapped_pair_evaluates_swapped_polynomial():
    # evaluating f at the swapped pair equals evaluating f(Y,X) at the
    # primary pair
    primary = unit_pair("primary", Q)
    swapped = unit_pair("swapped", Q)
    swap = WordImages((W_Y, W_X))
    for text in ("X*Y - Y*X", "1 + X + Y^-1", "X^2*Y^-1 - 3*X"):
        f = parse_laurent(text, Q)
        assert eval_laurent(f, swapped) == eval_laurent(f.map_words(swap), primary)


def test_eval_laurent_rejects_many_variables():
    from lpifc.errors import InvalidParameter
    from lpifc.laurent import reduce_to_two_vars

    f = LaurentPoly(Q, {Word.generator(2): 1, Word.identity(): -1})
    up = unit_pair("primary", Q)
    with pytest.raises(InvalidParameter):
        eval_laurent(f, up)
    # the documented route: reduce first, then evaluate
    reduced = reduce_to_two_vars(f, nvars=3)
    assert not eval_laurent(reduced, up).is_zero
