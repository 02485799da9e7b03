"""Arithmetic kernel: fields, polynomials, 2x2 polynomial matrices."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpifc.errors import InvalidParameter, NonConstantDeterminant, ParseError, SingularMatrix, ZeroModulus
from lpifc.exactalg import (
    NEG_INF,
    Field,
    FieldElem,
    Mat2Poly,
    UniPoly,
    scalar_mat,
)

Q = Field(0)
F2 = Field(2)
F3 = Field(3)
F7 = Field(7)


def rand_poly(rng, field, max_deg=4):
    return UniPoly(field, [field.random(rng) for _ in range(rng.randint(0, max_deg + 1))])


def rand_mat(rng, field, max_deg=3):
    return Mat2Poly(field, [[rand_poly(rng, field, max_deg) for _ in range(2)] for _ in range(2)])


# -- fields -------------------------------------------------------------------


def test_field_validation():
    with pytest.raises(InvalidParameter):
        Field(4)
    with pytest.raises(InvalidParameter):
        Field(2**31 + 11)
    assert Field(2147483647).order == 2147483647  # largest default prime


def test_modulus_bound_is_read_at_call_time(monkeypatch):
    import lpifc.exactalg as exactalg_mod

    monkeypatch.setattr(exactalg_mod, "MAX_MODULUS", 5)
    assert Field(5).order == 5
    with pytest.raises(InvalidParameter, match="^modulus 7 exceeds the configured bound 5$"):
        Field(7)


def test_rationals_stay_reduced():
    x = Q(Fraction(2, 4))
    assert x == Q.from_fraction(1, 2)
    assert str(x) == "1/2"
    assert (x + x) == 1


def test_prime_field_canonical_residues():
    assert F3(5).v == 2
    assert (F3(2) * F3(2)).v == 1
    assert F3(2).inverse().v == 2
    assert str(F7.from_fraction(1, 3)) == "5"  # 3*5 = 15 = 1 mod 7


def test_zero_denominator_mod_p():
    with pytest.raises(ZeroModulus):
        F2.from_fraction(1, 2)


def test_fields_never_mix():
    with pytest.raises(InvalidParameter):
        F2(1) + F3(1)


def test_raw_number_equality_only_over_q():
    assert Q(1) == 1 and hash(Q(1)) == hash(1)
    assert Q.from_fraction(3, 2) == Fraction(3, 2) and hash(Q.from_fraction(3, 2)) == hash(Fraction(3, 2))
    assert Q(1) in {1} and 1 in {Q(1)}
    F5 = Field(5)
    for raw in (3, 8, -2, Fraction(3)):
        assert F5(3) != raw and raw != F5(3)
    assert F5(3) == F5(8)


# -- polynomials ----------------------------------------------------------------


def test_zero_poly_degree_sentinel():
    z = UniPoly.zero(Q)
    assert z.degree == NEG_INF
    assert z.degree < 0
    # deg(pq) = deg p + deg q stays total with the sentinel
    assert z.degree + 5 == NEG_INF


def test_poly_normalization_strips_trailing_zeros():
    p = UniPoly(Q, (1, 2, 0, 0))
    assert p.degree == 1
    assert p.coeffs == (Q(1), Q(2))


def test_poly_roundtrip_and_degree_additivity():
    rng = random.Random(7)
    for field in (Q, F3, F7):
        for _ in range(60):
            p, q = rand_poly(rng, field), rand_poly(rng, field)
            assert (p + q) - q == p
            if not p.is_zero and not q.is_zero:
                assert (p * q).degree == p.degree + q.degree


def test_poly_eval_horner():
    p = UniPoly.parse("T^2 - 3*T + 1/2", Q)
    assert p(Q(2)) == Q(Fraction(-3, 2))  # 4 - 6 + 1/2


def test_poly_parse_render_cycle():
    for text in ("T^2 + 3*T + 1", "T", "0", "2", "T^3 - T"):
        p = UniPoly.parse(text, Q)
        assert UniPoly.parse(str(p), Q) == p


def test_poly_parse_mod_p():
    assert UniPoly.parse("2*T + 2", F2).is_zero
    assert UniPoly.parse("T^2+T", F3) == UniPoly(F3, (0, 1, 1))


# -- matrices -------------------------------------------------------------------


def phi_x(field):
    # 1 + (e12+e21)T + e11 T^2
    one, T = UniPoly.one(field), UniPoly.T(field)
    t2 = UniPoly.monomial(field, 2)
    return Mat2Poly(field, ((one + t2, T), (T, one)))


def test_mat_identity_inverse():
    ident = Mat2Poly.identity(Q)
    assert ident.inv() == ident


def test_mat_inv_of_unit_image():
    m = phi_x(Q)
    # det = (1+T^2)*1 - T*T = 1: expanded by the adjugate oracle
    assert m.det() == UniPoly.one(Q)
    inv = m.inv()
    assert inv * m == Mat2Poly.identity(Q)
    assert m * inv == Mat2Poly.identity(Q)


def test_mat_inv_nonconstant_determinant():
    m = Mat2Poly(Q, ((UniPoly.T(Q), UniPoly.zero(Q)), (UniPoly.zero(Q), UniPoly.one(Q))))
    with pytest.raises(NonConstantDeterminant):
        m.inv()


def test_mat_inv_singular():
    with pytest.raises(SingularMatrix):
        Mat2Poly.zero(Q).inv()


def test_leading_coeff_at_examples():
    m = phi_x(Q)
    assert m.coeff_at(2) == scalar_mat(Q, ((1, 0), (0, 0)))  # e11
    assert Mat2Poly.zero(Q).coeff_at(5) == scalar_mat(Q, ((0, 0), (0, 0)))
    # the second unit image has T^2 coefficient e11+e12
    one, T = UniPoly.one(Q), UniPoly.T(Q)
    t2 = UniPoly.monomial(Q, 2)
    phi_y = Mat2Poly(Q, ((one - T + t2, t2), (T, one + T)))
    assert phi_y.coeff_at(2) == scalar_mat(Q, ((1, 1), (0, 0)))


def test_matrix_ring_axioms_random():
    rng = random.Random(11)
    for field in (Q, F3):
        for _ in range(100):
            a, b, c = (rand_mat(rng, field, 2) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert (a * b).det() == a.det() * b.det()


def test_mat_inv_roundtrip_random():
    rng = random.Random(13)
    ident = Mat2Poly.identity(Q)
    count = 0
    while count < 25:
        # unipotent-style random units: I + strictly-upper/lower polynomial parts
        p, q = rand_poly(rng, Q, 2), rand_poly(rng, Q, 2)
        m = Mat2Poly(Q, ((UniPoly.one(Q), p), (UniPoly.zero(Q), UniPoly.one(Q))))
        n = Mat2Poly(Q, ((UniPoly.one(Q), UniPoly.zero(Q)), (q, UniPoly.one(Q))))
        u = m * n
        assert u.det().degree == 0
        assert u.inv() * u == ident
        assert u * u.inv() == ident
        count += 1


def test_unipoly_parse_rejects_negative_degree():
    with pytest.raises(ParseError):
        UniPoly.parse("T^-1", Q)
    with pytest.raises(ParseError):
        UniPoly.parse("T + ", Q)


def test_scalar_mat_helpers():
    from lpifc.exactalg import render_scalar_mat, scalar_mat_is_zero

    m = scalar_mat(Q, ((2, 0), (0, -2)))
    assert not scalar_mat_is_zero(m)
    assert scalar_mat_is_zero(scalar_mat(Q, ((0, 0), (0, 0))))
    assert render_scalar_mat(m) == [["2", "0"], ["0", "-2"]]


# -- properties over Q, F2, F3 and F5 -------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

fields = st.sampled_from([Q, F2, F3, Field(5)])


def coefficients(field):
    if field.p == 0:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(-field.p, 2 * field.p)


def unipolys(field, max_size=4):
    return st.lists(coefficients(field), max_size=max_size).map(lambda cs: UniPoly(field, cs))


def mats(field):
    return st.lists(unipolys(field, 3), min_size=4, max_size=4).map(
        lambda e: Mat2Poly(field, ((e[0], e[1]), (e[2], e[3])))
    )


def _triples(make):
    return fields.flatmap(lambda f: st.tuples(make(f), make(f), make(f)))


def _assert_canonical(p):
    """Coefficients are field elements (Fractions over Q) with no trailing zero."""
    cs = p.coeffs
    assert len(cs) == (0 if p.is_zero else p.degree + 1)
    assert not cs or not cs[-1].is_zero
    for c in cs + (p.coeff(len(cs)), p.constant_term):
        assert isinstance(c, FieldElem) and c.field == p.field
        assert isinstance(c.v, Fraction) if p.field.p == 0 else 0 <= c.v < p.field.p
    if not p.is_zero:
        assert p.leading == cs[-1]
    assert UniPoly(p.field, cs) == p


@PROPERTY_SETTINGS
@given(_triples(unipolys))
def test_unipoly_ring_laws(polys):
    f, g, h = polys
    for lhs, rhs in (
        ((f * g) * h, f * (g * h)),
        (f * (g + h), f * g + f * h),
        ((f + g) * h, f * h + g * h),
        (f + g, g + f),
        (f * g, g * f),
        (f - g, -(g - f)),
        (f ** 3, f * f * f),
    ):
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)
    assert (f - f).is_zero and (f - f).coeffs == ()
    for p in (f, f + g, f - g, f * g, -f, f * (g + h), f - f, f.shift(2), f.shift(-1)):
        _assert_canonical(p)


@PROPERTY_SETTINGS
@given(fields.flatmap(lambda f: st.tuples(st.just(f), coefficients(f), coefficients(f))))
def test_field_elem_eq_implies_equal_hash(case):
    field, a, b = case
    x = field(a)
    for other in (a, b, Fraction(a), x.v, field(b), field(a) + field(b) - field(b)):
        assert (x == other) == (other == x)
        if x == other:
            assert hash(x) == hash(other)
    # over Q an element equals its own value; over F_p it equals no raw number
    assert (x == x.v) == (field.p == 0)


# Raw numbers, Fractions whose denominator vanishes in F3 or F5, and field
# elements of every field the polynomials are drawn over.
scalars = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5])),
    st.builds(lambda field, v: field(v), fields, st.integers(-6, 6)),
)


@PROPERTY_SETTINGS
@given(fields.flatmap(lambda f: unipolys(f, max_size=2)), scalars)
@example(UniPoly.one(Q), 1)
@example(UniPoly.one(Field(5)), 6)
@example(UniPoly.one(Field(5)), Fraction(1, 5))
@example(UniPoly.one(Q), Field(5)(1))
def test_unipoly_eq_with_a_scalar_never_raises_and_respects_hash(p, other):
    equal = p == other
    assert equal == (other == p)
    if equal:
        assert hash(p) == hash(other)


@PROPERTY_SETTINGS
@given(fields.flatmap(lambda f: st.tuples(unipolys(f), coefficients(f), st.integers(0, 4))))
def test_unipoly_scalars_and_values(case):
    f, c, x = case
    field = f.field
    cpoly = UniPoly(field, (c,))
    assert f * c == c * f == f * cpoly
    assert f + c == f + cpoly and f - c == f - cpoly
    assert (f * c)(x) == f(x) * field(c)
    assert f.shift(1).shift(-1) == f
    # equal polynomials built from other spellings of their coefficients hash alike
    respelled = UniPoly(field, [field(v) for v in f.coeffs] + [0, field.zero])
    assert respelled == f and hash(respelled) == hash(f)
    value = f(x)
    assert isinstance(value, FieldElem) and (field.p != 0 or isinstance(value.v, Fraction))


@PROPERTY_SETTINGS
@given(_triples(mats))
def test_mat2poly_ring_laws(triple):
    a, b, c = triple
    for lhs, rhs in (
        ((a * b) * c, a * (b * c)),
        (a * (b + c), a * b + a * c),
        ((a + b) * c, a * c + b * c),
        (a + b, b + a),
        (a ** 3, a * a * a),
        (a - b, -(b - a)),
    ):
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)
    assert (a - a).is_zero
    assert (a * b).det() == a.det() * b.det()
    for m in (a * b, a + b, a - a, a.scale(b.entry(0, 1))):
        for row in m.e:
            for p in row:
                _assert_canonical(p)
        for row in m.coeff_at(1):
            assert all(isinstance(x, FieldElem) for x in row)


def _unit_products(field):
    from lpifc.fcrep import unit_pair

    def product(kind_and_picks):
        kind, picks = kind_and_picks
        up = unit_pair(kind, field)
        gens = (up.u, up.v, up.u_inv, up.v_inv)
        out = Mat2Poly.identity(field)
        for k in picks:
            out = out * gens[k]
        return out

    kinds = st.sampled_from(["primary", "alternate", "swapped"])
    return st.tuples(kinds, st.lists(st.integers(0, 3), max_size=4)).map(product)


@PROPERTY_SETTINGS
@given(fields.flatmap(lambda f: st.tuples(_unit_products(f), _unit_products(f))))
def test_mat2poly_inverse_of_unit_products(pair):
    u, v = pair
    assert (u * v).inv() == v.inv() * u.inv()
    assert u * u.inv() == Mat2Poly.identity(u.field)
    assert u ** -2 == u.inv() * u.inv()

