"""Groups, group algebras, structure-constant algebras, unit arithmetic,
falsification, standard polynomials, and the vanishing checks."""

import functools
import hashlib
import itertools
import json
import random
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_reference import solve as ref_solve
from lpifc.errors import (
    ArityMismatch,
    InvalidParameter,
    NonInvertibleOrder,
    NotAUnit,
    ParseError,
    TooLargeForExhaustive,
    ZeroPolynomial,
)
import lpifc.grpalg as grpalg_mod
from lpifc.exactalg import Field, UniPoly, _plain_elem
from lpifc.grpalg import (
    ElementTable,
    FinAlgebra,
    FiniteGroup,
    bac_check,
    build_group,
    cyclic_group,
    dihedral_group,
    falsify_lpi,
    finitecondi_witness,
    group_algebra,
    hat,
    load_algebra,
    load_group,
    matrix2_algebra,
    p1_check,
    poly_at,
    product_group,
    quaternion_group,
    square_zero_algebra,
    standard_poly,
    standard_poly_exhaustive,
    standard_poly_sampled,
    structural_predicates,
    symmetric_group,
)
from lpifc.laurent import parse_laurent
from lpifc.words import Word, WordImages, words_of_weight_at_most

Q = Field(0)
F2 = Field(2)
F3 = Field(3)


def is_abelian(g: FiniteGroup) -> bool:
    return all(g.table[i][j] == g.table[j][i] for i in range(g.order) for j in range(g.order))


def mul_vec(algebra: FinAlgebra, u, v) -> tuple:
    """The product of two coefficient vectors on the plain-number kernel."""
    return tuple(_plain_elem(algebra.field, c)
                 for c in algebra._mul_raw(algebra._plain(u), algebra._plain(v)))


# -- groups -------------------------------------------------------------------


def test_cyclic_three():
    g = cyclic_group(3)
    assert g.order == 3
    assert g.table == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert is_abelian(g)


def test_sym3_nonabelian_order_six():
    g = symmetric_group(3)
    assert g.order == 6
    assert not is_abelian(g)


def test_sym_bound():
    with pytest.raises(InvalidParameter):
        symmetric_group(5)


def test_quaternion_every_subgroup_normal():
    g = quaternion_group()
    assert g.order == 8
    for x in range(g.order):
        subgroup = set(g.cyclic_subgroup(x))
        for h in range(g.order):
            hinv = g.inverses[h]
            conj = {g.table[g.table[h][s]][hinv] for s in subgroup}
            assert conj == subgroup


def test_dihedral_and_products():
    d4 = dihedral_group(4)
    assert d4.order == 8 and not is_abelian(d4)
    v4 = product_group(cyclic_group(2), cyclic_group(2))
    assert v4.order == 4 and is_abelian(v4)
    assert build_group("cyclic:2xcyclic:3").order == 6


def test_bad_group_spec():
    with pytest.raises(InvalidParameter):
        build_group("cyclic:x")
    with pytest.raises(InvalidParameter):
        build_group("frobnicate:3")


def test_group_table_validation():
    with pytest.raises(InvalidParameter):
        FiniteGroup([[0, 1], [1, 1]])  # not a group


# sha256 of repr((table, labels, name, identity, inverses)) for each spec,
# recorded at commit e01384c, where each group builder wrote its own table
# loop; the element orders follow from the tables.
GROUP_DIGESTS = {
    "cyclic:1": "802a9452de73d9d14c0167de2804a8855ee6b4ecca50033b92009beb552e7aca",
    "cyclic:2": "a90564044dee8d01c406423a63d33cb8abb5d3a02ed359a0fdfe2ddb16fae6c1",
    "cyclic:3": "f63ca9f2f257341adeef8fe5d9fe403bb92008dbb12702cab19821f7a6266b4f",
    "cyclic:4": "d6f1b06b626f0a1eea44e4cd22edda7b3255e9ffb7a1d3800bc011619680eb50",
    "cyclic:5": "c78e9f3bc6a94979acd3b8d0f367f21d00418a9d3bf845483310689cc887e87e",
    "cyclic:6": "00f07703eb807ed27ccc2295487f1d5b40c244ca5168cc8ce2ff91f2270c8320",
    "cyclic:7": "271810b5ede69fe22372b13b0d02fc705bc252c547e406525ccb359fa649c476",
    "cyclic:8": "1ea2f1ed6332f05ff12fccd6451a9bfa9c645b8ac991b82f3a4e7703805da2d2",
    "sym:1": "32ece922f0c059bd9d5d4d505883a739cae7bfd29314b4a98fba9a311d5dcc35",
    "sym:2": "6b59df65994569625e4931b1229695d1cf426585b6f2e7693898961516f197df",
    "sym:3": "5e52e234740eef3087b22a2c12bca13444cf22eeba68f33bc49c7858e2ea7bc2",
    "sym:4": "d29cee5eef0ac10ce0834b525f34bb2c3b870ea51b264364ac5a030a03db87f6",
    "dihedral:1": "3cd4fa733d14d31b17f4f30e636d80dd54f3b797e82a540f05baf749f4aa0d0d",
    "dihedral:2": "28c6862793ad1aafdf37d9f6421c74a016e640c1e09f79b628cfe141766772f2",
    "dihedral:3": "fcbc5bf8dafb1100ac21f3a66d26e565c0453664e2709ceade29d37c14cc2af6",
    "dihedral:4": "62dc52f5fb0b9ffd22caff1def42bc575fbeae49b696e0107278ee88dfe78b71",
    "dihedral:5": "380d57b1b272ce2960531b941fd8b6d9834f7e30628bf0f5de3a519e3626442e",
    "dihedral:6": "d2bb8f07bad754b795e1e26589c4deaea0211596b626ffdfb5700033b22fd593",
    "dihedral:7": "ddaac1ad7bd143d86c657078a1ed520c5a18094a449d4ae9cd4af0a406b0d897",
    "dihedral:8": "0f8bc1b949f3b0f6e82cbacaea318d9281616780ff3f627b848d81c15142b54c",
    "quaternion8": "1fe5361697e930122308645a07d0165160896bf22136d4a2d904adeb2228e78e",
    "cyclic:2xsym:3": "fef2d2511bb549a7dd502a60f5341e79a129fde828c3a5bdfdfb469e441e79c6",
    "quaternion8xcyclic:2": "09cecd7b208c10856fd482d79bb587db4a2a35d3220a10dbb5e378087dec0650",
    "dihedral:3xcyclic:2xcyclic:2": "e76e794112c8caa0fdc617b039ffc954ec520f17b22195d8b7d24965ee162a0b",
}
# A dihedral group of order 8 from a rotation and a reflection of a square.
SQUARE_GROUP = "perm-group\ndegree 4\ngen 1 2 3 0\ngen 3 2 1 0\n"


def _group_digest(g: FiniteGroup) -> str:
    return hashlib.sha256(repr((g.table, g.labels, g.name, g.identity, g.inverses)).encode()).hexdigest()


@pytest.mark.parametrize("spec", GROUP_DIGESTS)
def test_group_builders_are_pinned(spec):
    assert _group_digest(build_group(spec)) == GROUP_DIGESTS[spec]


def test_group_file_is_pinned(tmp_path):
    path = tmp_path / "square.grp"
    path.write_text(SQUARE_GROUP)
    assert _group_digest(load_group(str(path))) == (
        "75dab5ab76809312515a5ab2218a2bf51f55e6b4e8e5767ca62979bb186826f6"
    )


# -- algebras ------------------------------------------------------------------


def test_group_algebra_of_cyclic():
    A = group_algebra(cyclic_group(3), Q)
    g = A.basis(1)
    assert g * g == A.basis(2)
    assert g * g * g == A.one()


def test_hat_examples():
    A = group_algebra(cyclic_group(3), Q)
    e = hat(A, 1, normalized=True)  # (1+g+g^2)/3
    assert e * e == e
    assert hat(A, A.group.identity) == A.one()
    B = group_algebra(cyclic_group(2), F2)
    with pytest.raises(NonInvertibleOrder):
        hat(B, 1, normalized=True)


def test_unit_inverse_examples():
    A = square_zero_algebra(F2, 1)  # F2[x]/(x^2)
    one_plus_x = A.one() + A.basis(1)
    assert one_plus_x.inverse() == one_plus_x  # (1+x)^2 = 1 in char 2
    with pytest.raises(NotAUnit):
        A.basis(1).inverse()  # x is nilpotent
    assert A.one().inverse() == A.one()


def test_regular_representation_inverse_random():
    rng = random.Random(43)
    algebras = [
        group_algebra(symmetric_group(3), F3),
        group_algebra(cyclic_group(5), Q),
        matrix2_algebra(F3),
    ]
    for A in algebras:
        found = 0
        while found < 100:
            a = A.random_element(rng)
            try:
                inv = a.inverse()
            except NotAUnit:
                continue
            assert a * inv == A.one() and inv * a == A.one()
            found += 1


def _repeated_power(a, n):
    """a^n as |n| products, through the inverse for negative n."""
    base = a if n >= 0 else a.inverse()
    out = a.algebra.one()
    for _ in range(abs(n)):
        out = out * base
    return out


def test_power_matches_repeated_product():
    rng = random.Random(47)
    for A in (
        group_algebra(symmetric_group(3), F2),
        matrix2_algebra(F3),
        square_zero_algebra(Field(5), 2),
        matrix2_algebra(Q),
    ):
        unit = next(a for a in iter(lambda: A.random_element(rng), None) if a.is_unit())
        other = A.random_element(rng)
        for n in range(-5, 41):
            assert unit ** n == _repeated_power(unit, n), (A, n)
            if n >= 0:
                assert other ** n == _repeated_power(other, n), (A, n)
        assert unit ** 0 == A.one() == other ** 0


def test_eval_laurent_matches_repeated_products():
    A = group_algebra(symmetric_group(3), F3)
    rng = random.Random(48)
    u, v = (next(a for a in iter(lambda: A.random_element(rng), None) if a.is_unit())
            for _ in range(2))
    f = parse_laurent("2*X^7*Y^-5*X^-3 - Y^12 + 1", F3)
    expected = (_repeated_power(u, 7) * _repeated_power(v, -5) * _repeated_power(u, -3)).scale(2)
    expected = expected - _repeated_power(v, 12) + A.one()
    assert WordImages([u, v]).evaluate(f.terms.items()) == expected


def _letter_product(units, w):
    """The image of w as one product per letter, through each unit's inverse."""
    out = units[0].algebra.one()
    for gen, exp in w.blocks:
        out = out * _repeated_power(units[gen], exp)
    return out


@pytest.mark.parametrize("name", ["F3[S3]", "M2(F3)"])
def test_word_images_match_letter_products(name):
    rng = random.Random(62)
    if name == "F3[S3]":
        A = group_algebra(symmetric_group(3), F3)
        units = [A.basis(i) for i in rng.sample(range(1, A.dim), 3)]  # group elements
    else:
        A = matrix2_algebra(F3)
        units = [next(a for a in iter(lambda: A.random_element(rng), None) if a.is_unit())
                 for _ in range(3)]
    words = set(words_of_weight_at_most(4))
    while len(words) < 200:
        words.add(Word.from_blocks((rng.randrange(3), rng.choice([-3, -2, -1, 1, 2, 3]))
                                   for _ in range(rng.randint(1, 4))))
    # Sorted by blocks, a word's block prefixes come before it: ascending
    # order extends cached prefixes, descending order starts each evaluation
    # cold and then finds shorter words already cached.
    ordered = sorted(words, key=Word.sort_key)
    expected = {w: _letter_product(units, w) for w in ordered}
    for order in (ordered, ordered[::-1]):
        images = WordImages(units)
        for w in order:
            assert images(w) == expected[w], (name, str(w))
    # The homomorphism laws, on the warm cache of the last pass.
    for _ in range(300):
        u, v = rng.choice(ordered), rng.choice(ordered)
        assert images(u * v) == images(u) * images(v), (name, str(u), str(v))
        assert images(u.inv()) * images(u) == A.one(), (name, str(u))
    terms = [(rng.choice(ordered), F3(rng.randint(1, 2))) for _ in range(20)]
    total = A.zero()
    for w, c in terms:
        total = total + expected[w].scale(c)
    assert WordImages(units).evaluate(terms) == total
    assert WordImages(units).evaluate([]) == A.zero()


# K[x]/(x^2) as a structure-constant file
DUAL_NUMBERS = """# dual numbers
algebra
dim 2
label 0 1
label 1 x
unity 1 0
sc 0 0 0 1
sc 0 1 1 1
sc 1 0 1 1
"""


def test_structure_file_roundtrip(tmp_path):
    path = tmp_path / "dual_numbers.alg"
    path.write_text(DUAL_NUMBERS)
    A = load_algebra(str(path), F3)
    assert A.dim == 2
    x = A.basis(1)
    assert (x * x).is_zero
    assert (A.one() + x) * (A.one() - x) == A.one()


def test_group_file_roundtrip(tmp_path):
    path = tmp_path / "s3.grp"
    path.write_text("perm-group\ndegree 3\ngen 1 0 2\ngen 1 2 0\n")
    g = load_group(str(path))
    assert g.order == 6
    assert not is_abelian(g)


# Malformed structure-constant and group files, with the line at fault; a
# bytes entry is written as it is.
MALFORMED_FILES = [
    ("alg", "algebra\ndim x\nunity 1\n", 2),
    ("alg", "algebra\ndim -1\nunity\n", 2),
    ("alg", "algebra\ndim 2\nunity 1 0\nsc 0 0 5 1\n", 4),
    ("alg", "algebra\ndim 2\nunity 1 0\nsc 0 0 0\n", 4),
    ("alg", "algebra\ndim 2\nunity 1 0\nsc -1 0 0 1\n", 4),
    ("alg", "algebra\nsc 0 0 2 1\ndim 2\nunity 1 0\n", 2),
    ("alg", "algebra\ndim 2\nlabel 2 x\nunity 1 0\n", 3),
    ("alg", "algebra\ndim 2\nlabel 0\nunity 1 0\n", 3),
    ("grp", "perm-group\ndegree\ngen 1 0\n", 2),
    ("grp", "perm-group\ndegree 2\ngen 1 x\n", 3),
    ("alg", b"algebra\ndim 2\nlabel 0 \xff\nunity 1 0\n", 3),
]


@pytest.mark.parametrize("kind, text, lineno", MALFORMED_FILES)
def test_malformed_file_names_its_line(tmp_path, capsys, kind, text, lineno):
    from lpifc.cli import main

    path = tmp_path / f"bad.{kind}"
    path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    with pytest.raises(ParseError, match=rf"\(at line {lineno}\)$"):
        load_algebra(str(path), F3) if kind == "alg" else load_group(str(path))
    flag = "--algebra-file" if kind == "alg" else "--group-file"
    assert main(["grpalg", flag, str(path), "--field", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"(at line {lineno})\n")


@pytest.mark.parametrize("kind, text", [("alg", "algebra\ndim 2\n"), ("grp", "perm-group\ndegree 2\n")])
def test_whole_file_error_names_no_position(tmp_path, kind, text):
    path = tmp_path / f"short.{kind}"
    path.write_text(text)
    with pytest.raises(ParseError, match=r" lines?$") as info:
        load_algebra(str(path), F3) if kind == "alg" else load_group(str(path))
    assert (info.value.offset, info.value.line) == (None, None)


def test_invalid_structure_constants_rejected():
    # basis 1, u, v with u*u = v, u*v = 1, v*u = 0: then (uu)u = 0 != u = u(uv)
    e0, e1, e2, z = ((0, 1),), ((1, 1),), ((2, 1),), ()
    bad_rows = [
        [e0, e1, e2],
        [e1, e2, e0],
        [e2, z, z],
    ]
    with pytest.raises(InvalidParameter):
        FinAlgebra(Q, bad_rows, (1, 0, 0))


# -- falsification ----------------------------------------------------------------


def test_falsify_commutator_on_abelian_group_finds_nothing():
    A = group_algebra(cyclic_group(6), F2)
    result = falsify_lpi(parse_laurent("X*Y - Y*X", F2), A, trials=80, seed=2)
    assert not result.found


def test_falsify_commutator_on_sym3():
    A = group_algebra(symmetric_group(3), F2)
    result = falsify_lpi(parse_laurent("X*Y - Y*X", F2), A, trials=80, seed=2)
    assert result.found
    assert result.value is not None


def test_falsify_zero_polynomial():
    A = group_algebra(cyclic_group(2), Q)
    from lpifc.laurent import LaurentPoly

    assert not falsify_lpi(LaurentPoly.zero(Q), A, trials=5).found


def test_falsify_deterministic_with_seed():
    A = group_algebra(symmetric_group(3), F3)
    f = parse_laurent("X*Y - Y*X", F3)
    r1 = falsify_lpi(f, A, trials=50, seed=7)
    r2 = falsify_lpi(f, A, trials=50, seed=7)
    assert asdict(r1) == asdict(r2)


# -- standard polynomials -----------------------------------------------------------


def test_s2_is_the_commutator():
    A = group_algebra(cyclic_group(4), Q)
    a, b = A.basis(1), A.basis(2)
    assert standard_poly(2, [a, b]).is_zero  # commuting elements


def test_s2_on_matrix_units():
    A = matrix2_algebra(F2)
    assert standard_poly(2, [A.basis(0), A.basis(1)]) == A.basis(1)  # e12


def test_s4_vanishes_exhaustively_on_m2_f2():
    result = standard_poly_exhaustive(matrix2_algebra(F2), 4)
    assert result.holds
    assert result.checked == 16**4


def test_s4_sampled_on_m2_f3():
    result = standard_poly_sampled(matrix2_algebra(F3), 4, samples=100000, seed=5)
    assert result.holds
    assert result.checked == 100000


def test_s3_does_not_vanish_on_m2():
    result = standard_poly_sampled(matrix2_algebra(F2), 3, samples=200, seed=1)
    assert not result.holds


def test_standard_poly_arity():
    A = matrix2_algebra(F2)
    with pytest.raises(ArityMismatch):
        standard_poly(3, [A.one()])


def test_standard_poly_permutation_bound(monkeypatch):
    A = matrix2_algebra(F3)
    with pytest.raises(TooLargeForExhaustive, match=r"^9! permutation products exceed the bound 40320$"):
        standard_poly(9, [A.basis(i % 4) for i in range(9)])
    with pytest.raises(ArityMismatch):  # the arity is checked first
        standard_poly(9, [A.one()])
    monkeypatch.setattr(grpalg_mod, "PERMUTATION_LIMIT", 6)
    assert standard_poly(3, [A.basis(0), A.basis(1), A.basis(2)]) is not None
    with pytest.raises(TooLargeForExhaustive):
        standard_poly(4, [A.basis(i) for i in range(4)])


def test_exhaustive_guard():
    with pytest.raises(TooLargeForExhaustive):
        standard_poly_exhaustive(group_algebra(symmetric_group(4), F3), 4)


# -- vanishing checks ----------------------------------------------------------------


def test_p1_holds_on_square_zero_algebra():
    result = p1_check(square_zero_algebra(F2, 2), UniPoly.parse("T^2", F2))
    assert result.holds
    assert result.checked == 8 * 8  # eight square-zero elements


def test_p1_fails_on_matrix_algebra():
    result = p1_check(matrix2_algebra(F2), UniPoly.parse("T", F2))
    assert not result.holds
    assert result.witness is not None


def test_p1_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        p1_check(square_zero_algebra(F2, 2), UniPoly.zero(F2))


def test_p1_sampled_mode():
    result = p1_check(square_zero_algebra(F2, 2), UniPoly.parse("T^2", F2),
                      mode="sampled", samples=200, seed=3)
    assert result.holds


def test_sampled_checks_that_examine_nothing_are_inconclusive():
    # Over Q almost no random element squares to zero, so these sampled runs
    # keep no pair: no verdict, not a vacuous "holds".
    result = p1_check(matrix2_algebra(Q), UniPoly.T(Q), mode="sampled", samples=50)
    assert (result.holds, result.checked) == (None, 0)
    assert asdict(result)["holds"] is None
    # an inconclusive precondition makes the chain check inconclusive
    result = bac_check(square_zero_algebra(Q, 2), UniPoly.parse("T^2", Q),
                       mode="sampled", samples=20, seed=3)
    assert (result.holds, result.checked) == (None, 0)
    # the precondition kept one pair, the chain loop none
    A, g = square_zero_algebra(F2, 1), UniPoly.parse("T^2", F2)
    assert p1_check(A, g, mode="sampled", samples=1, seed=1).checked == 1
    result = bac_check(A, g, mode="sampled", samples=1, seed=1)
    assert (result.holds, result.checked) == (None, 0)


def test_sampled_check_verdict_in_cli(capsys):
    from lpifc.cli import main

    argv = ["p1", "--algebra", "m2", "--field", "0", "--g", "T", "--mode", "sampled", "--samples", "50"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "square-zero vanishing of g = T on M2(Q): inconclusive\n"
    assert main(argv + ["--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["holds"], record["checked"]) == (None, 0)


def test_bac_holds_after_p1():
    A = square_zero_algebra(F2, 2)
    g = UniPoly.parse("T^2", F2)
    assert p1_check(A, g).holds
    result = bac_check(A, g)
    assert result.holds
    # quadruple count: sum over bc = 0 pairs of |square-zero| * |algebra|
    table_pairs = 0
    elems = [A.elem((a, b, c, d)) for a in range(2) for b in range(2) for c in range(2) for d in range(2)]
    for b in elems:
        for c in elems:
            if (b * c).is_zero:
                table_pairs += 1
    assert result.checked == table_pairs * 8 * 16


def test_bac_trivial_on_zero_a():
    # a = 0 always satisfies the chain; exercised inside the exhaustive scan
    A = square_zero_algebra(F2, 1)
    assert bac_check(A, UniPoly.parse("T", F2)).holds


def test_bac_precondition_rejected():
    # M2(F2) fails the square-zero vanishing for g = T, so the chain check
    # refuses to run
    with pytest.raises(InvalidParameter):
        bac_check(matrix2_algebra(F2), UniPoly.parse("T", F2))


def test_finitecondi_witness_q2():
    w = finitecondi_witness(2, UniPoly.parse("T", F2))
    assert str(w.r) == "1"
    assert w.g_of_ab == w.a.algebra.basis(0)  # e11


def test_finitecondi_witness_q3():
    w = finitecondi_witness(3, UniPoly.parse("T^2+T", F3))
    assert not w.g_of_r.is_zero
    assert not w.g_of_ab.is_zero


def test_finitecondi_degree_precondition():
    with pytest.raises(InvalidParameter):
        finitecondi_witness(2, UniPoly.parse("T^2+T", F2))


# -- structural predicates --------------------------------------------------------------


def test_abelian_group_algebra_all_idempotents_central():
    report = structural_predicates(group_algebra(cyclic_group(4), F3))
    assert report.idempotent_mode == "exhaustive"
    assert report.all_idempotents_central
    assert report.normalizer_criterion_holds


def test_qs3_noncentral_idempotent_found():
    report = structural_predicates(group_algebra(symmetric_group(3), Q))
    assert report.idempotent_mode == "averaging"
    assert not report.all_idempotents_central
    assert report.normalizer_criterion_holds
    assert report.normalizer_pairs_checked == 36


def test_idempotent_enumeration_bound(monkeypatch):
    # F2[S3] has 2^6 = 64 elements: enumerated at the default bound, averaged
    # below it.
    A = group_algebra(symmetric_group(3), F2)
    assert structural_predicates(A).idempotent_mode == "exhaustive"
    monkeypatch.setattr(grpalg_mod, "IDEMPOTENT_ENUM_LIMIT", 63)
    assert structural_predicates(A).idempotent_mode == "averaging"


def test_normalizer_criterion_small_groups():
    groups = [
        cyclic_group(12),
        symmetric_group(3),
        quaternion_group(),
        dihedral_group(5),
        dihedral_group(6),
        product_group(cyclic_group(2), cyclic_group(2)),
    ]
    for g in groups:
        for field in (F2, Q):
            report = structural_predicates(group_algebra(g, field))
            assert report.normalizer_criterion_holds, (g.name, field)


def test_poly_at_constant_term_uses_unity():
    A = matrix2_algebra(Q)
    g = UniPoly.parse("T + 2", Q)
    assert poly_at(g, A.zero()) == A.one().scale(Q(2))


def test_p1_exhaustive_falls_back_without_index_tables():
    # 12-dim group algebra over F2: 4096 elements, within the enumeration
    # guard but past the index-table bound; the direct scan takes over
    A = group_algebra(cyclic_group(12), F2)
    g = UniPoly.parse("T", F2)
    result = p1_check(A, g, mode="exhaustive")
    # commutative algebra in char 2: (a+b)^2 = a^2 + b^2, so square-zero
    # elements are closed under sums and products of two of them can be
    # nonzero: T does not vanish
    assert result.checked > 0


# -- the plain-number product against FieldElem sums over sc ---------------------


def _sc_product(algebra, u, v):
    """e_i * e_j = sum of s * e_k over the (k, s) of _rows[i][j], extended
    bilinearly with FieldElem arithmetic."""
    field = algebra.field
    out = [field.zero] * algebra.dim
    for i, ui in enumerate(map(field, u)):
        for j, vj in enumerate(map(field, v)):
            if ui and vj:
                for k, s in algebra._rows[i][j]:
                    out[k] = out[k] + ui * vj * field(s)
    return tuple(out)


F5 = Field(5)

TABLE_ALGEBRAS = {
    "F2[S3]": lambda: group_algebra(symmetric_group(3), F2),
    "F3[C4]": lambda: group_algebra(cyclic_group(4), F3),
    "F3[C5]": lambda: group_algebra(cyclic_group(5), F3),
    "M2(F2)": lambda: matrix2_algebra(F2),
    "M2(F3)": lambda: matrix2_algebra(F3),
    "sqzero1/F5": lambda: square_zero_algebra(F5, 1),
    "sqzero2/F3": lambda: square_zero_algebra(F3, 2),
    "F2[Q8]": lambda: group_algebra(quaternion_group(), F2),
    "F2[D3]": lambda: group_algebra(dihedral_group(3), F2),
    "F3[C2xC2]": lambda: group_algebra(build_group("cyclic:2xcyclic:2"), F3),
}


@pytest.mark.parametrize("name", sorted(TABLE_ALGEBRAS))
def test_element_table_matches_sc_sums(name):
    A = TABLE_ALGEBRAS[name]()
    table = ElementTable(A)
    p, d = A.field.p, A.dim
    assert table.vectors == list(itertools.product(range(p), repeat=d))
    assert table.elem(table.zero_idx) == A.zero() and table.elem(table.one_idx) == A.one()
    coeffs = [table.elem(i).coeffs for i in range(table.n)]
    for i in range(table.n):
        assert coeffs[table.neg[i]] == tuple(-c for c in coeffs[i])
    # every pair among the basis, the unity and 40 seeded elements (all of
    # them in the small tables)
    rng = random.Random(name)
    sample = set(rng.sample(range(table.n), min(table.n, 40)))
    sample |= {table.index[A._basis_raw(k)] for k in range(d)} | {table.one_idx}
    for i, j in itertools.product(sorted(sample), repeat=2):
        u, v = coeffs[i], coeffs[j]
        assert coeffs[table.mul[i, j]] == _sc_product(A, u, v), (i, j)
        assert coeffs[table.add[i, j]] == tuple(a + b for a, b in zip(u, v)), (i, j)


def _fraction_algebra_file(tmp_path):
    """K[x]/(x^3 - 3/4*x^2 + 2/3*x - 1/2) with the basis 1, x, x^2: every
    power x^(i+j) reduces with fractional structure constants."""
    rel = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4))  # x^3 = rel . (1, x, x^2)
    powers = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    while len(powers) < 5:
        a, b, c = powers[-1]
        powers.append((c * rel[0], a + c * rel[1], b + c * rel[2]))
    lines = ["algebra", "dim 3", "label 0 1", "label 1 x", "label 2 x^2", "unity 1 0 0"]
    for i in range(3):
        for j in range(3):
            for k, s in enumerate(powers[i + j]):
                if s:
                    s = Fraction(s)
                    lines.append(f"sc {i} {j} {k} {s.numerator}/{s.denominator}")
    path = tmp_path / "cubic.alg"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
def test_mul_vec_matches_sc_sums_on_fractional_constants(tmp_path, field):
    A = load_algebra(str(_fraction_algebra_file(tmp_path)), field)
    assert any(type(s) is Fraction for row in A._rows for pairs in row for _, s in pairs) or field.p
    rng = random.Random(7)
    units = 0
    for _ in range(60):
        u = [field.random(rng) for _ in range(3)]
        v = [field.random(rng) for _ in range(3)]
        product = mul_vec(A, u, v)
        assert product == _sc_product(A, u, v)
        assert all(isinstance(c.v, Fraction) for c in product) or field.p
        assert (A.elem(u) * A.elem(v)).coeffs == product
        # inverse() is two-sided and equals the reference solve of u * x = 1,
        # whose column j is u * e_j; A is commutative, so a unit is exactly
        # a u with a solution
        cols = [_sc_product(A, u, A.basis(j).coeffs) for j in range(3)]
        x = ref_solve(field, [list(row) for row in zip(*cols)], list(A.one().coeffs))
        elem = A.elem(u)
        if x is None:
            assert not elem.is_unit()
            continue
        units += 1
        inv = elem.inverse()
        assert inv * elem == A.one() == elem * inv
        assert inv.coeffs == tuple(x)
    assert units


# -- the builders against the definitions of their algebras -------------------


def _group_case(g, field):
    """e_i * e_j = e_(g_i g_j) from the group's multiplication table."""
    return group_algebra(g, field), lambda i, j: {g.table[i][j]: 1}, {g.identity: 1}


def _matrix_unit_product(i, j):
    """e_ab * e_cd as the integer product of the 2x2 matrix units, with e_ab
    at index 2a + b."""
    units = []
    for n in (i, j):
        m = [[0, 0], [0, 0]]
        m[n // 2][n % 2] = 1
        units.append(m)
    x, y = units
    return {2 * r + c: sum(x[r][t] * y[t][c] for t in range(2))
            for r in range(2) for c in range(2)}


def _monomial_product(i, j):
    """x^a y^b * x^c y^d on the square-free monomials, x^a y^b at index
    a + 2b: zero once an exponent reaches 2."""
    exps = [(i >> v & 1) + (j >> v & 1) for v in range(2)]
    return {} if max(exps) > 1 else {exps[0] + 2 * exps[1]: 1}


def _cubic_case(tmp_path, field):
    """The products summed from the 'sc i j k c' lines of the cubic file."""
    path = _fraction_algebra_file(tmp_path)
    products = {}
    for line in path.read_text().splitlines():
        if line.startswith("sc "):
            i, j, k, c = line.split()[1:]
            vec = products.setdefault((int(i), int(j)), {})
            vec[int(k)] = vec.get(int(k), 0) + Fraction(c)
    return load_algebra(str(path), field), lambda i, j: products.get((i, j), {}), {0: 1}


REFERENCE_CASES = {
    "F3[C5]": lambda tmp: _group_case(cyclic_group(5), F3),
    "F2[S3]": lambda tmp: _group_case(symmetric_group(3), F2),
    "F2[Q8]": lambda tmp: _group_case(quaternion_group(), F2),
    "F2[D3]": lambda tmp: _group_case(dihedral_group(3), F2),
    "F3[C2xC2]": lambda tmp: _group_case(build_group("cyclic:2xcyclic:2"), F3),
    "M2(F2)": lambda tmp: (matrix2_algebra(F2), _matrix_unit_product, {0: 1, 3: 1}),
    "M2(F3)": lambda tmp: (matrix2_algebra(F3), _matrix_unit_product, {0: 1, 3: 1}),
    "sqzero1/F5": lambda tmp: (square_zero_algebra(F5, 1), _monomial_product, {0: 1}),
    "sqzero2/F3": lambda tmp: (square_zero_algebra(F3, 2), _monomial_product, {0: 1}),
    "cubic/Q": lambda tmp: _cubic_case(tmp, Q),
    "cubic/F5": lambda tmp: _cubic_case(tmp, F5),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_builders_match_their_definitions(tmp_path, name):
    A, product, unity = REFERENCE_CASES[name](tmp_path)
    field = A.field

    def vector(coeffs):
        return tuple(field(coeffs.get(k, 0)) for k in range(A.dim))

    assert A.one().coeffs == vector(unity)
    for i, j in itertools.product(range(A.dim), repeat=2):
        got = A._mul_raw(A._basis_raw(i), A._basis_raw(j))
        assert tuple(map(field, got)) == vector(product(i, j)), (i, j)


def _c3_rows(i=None, j=None, pairs=()):
    """The sparse rows of F[C3], with entry (i, j) replaced by ``pairs``."""
    rows = [[(((a + b) % 3, 1),) for b in range(3)] for a in range(3)]
    if i is not None:
        rows[i][j] = pairs
    return rows


MALFORMED_ALGEBRAS = {
    "row count": lambda: (_c3_rows()[:2], (1, 0, 0), None),
    "row length": lambda: ([row[:2] if a == 1 else row for a, row in enumerate(_c3_rows())],
                           (1, 0, 0), None),
    "index above dim": lambda: (_c3_rows(0, 1, ((3, 1),)), (1, 0, 0), None),
    "negative index": lambda: (_c3_rows(2, 2, ((-1, 1),)), (1, 0, 0), None),
    "unity length": lambda: (_c3_rows(), (1, 0), None),
    "label length": lambda: (_c3_rows(), (1, 0, 0), ("1", "g")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ALGEBRAS))
def test_malformed_structure_constants_rejected(case):
    assert FinAlgebra(F3, _c3_rows(), (1, 0, 0)).dim == 3
    rows, unity, labels = MALFORMED_ALGEBRAS[case]()
    with pytest.raises(InvalidParameter):
        FinAlgebra(F3, rows, unity, labels=labels, validate=False)


@pytest.mark.parametrize("field", [Q, F3], ids=repr)
def test_sparse_rows_sum_per_index(field):
    # each product e_a * e_b given as two halves, out of order, next to a
    # pair of terms on another index that cancel
    half = Fraction(1, 2)
    rows = [[(((a + b + 1) % 3, 1), ((a + b) % 3, half), ((a + b + 1) % 3, -1), ((a + b) % 3, half))
             for b in range(3)]
            for a in range(3)]
    A = FinAlgebra(field, rows, (1, 0, 0))
    assert A._rows == group_algebra(cyclic_group(3), field)._rows
    assert all(pairs == (((a + b) % 3, 1),) and type(pairs[0][1]) is int
               for a, row in enumerate(A._rows) for b, pairs in enumerate(row))


def test_bac_check_builds_one_table(monkeypatch):
    builds = []

    class CountingTable(ElementTable):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(grpalg_mod, "ElementTable", CountingTable)
    assert bac_check(square_zero_algebra(F2, 2), UniPoly.parse("T^2", F2)).holds
    assert len(builds) == 1


def test_negative_counts_are_rejected():
    A, g = square_zero_algebra(F2, 1), UniPoly.parse("T^2", F2)
    for check in (p1_check, bac_check):
        with pytest.raises(InvalidParameter, match="samples must be non-negative, got -1"):
            check(A, g, mode="sampled", samples=-1)
    with pytest.raises(InvalidParameter, match="got -2"):
        standard_poly_sampled(A, 2, samples=-2)
    with pytest.raises(InvalidParameter, match="seed must be non-negative, got -1"):
        standard_poly_sampled(A, 2, samples=5, seed=-1)  # numpy's default_rng needs >= 0
    with pytest.raises(InvalidParameter, match="trials must be non-negative, got -3"):
        falsify_lpi(parse_laurent("X - 1", F2), A, trials=-3)
    with pytest.raises(InvalidParameter, match="k >= 1"):
        standard_poly_exhaustive(A, k=0)


def test_standard_poly_with_no_samples_is_inconclusive():
    result = standard_poly_sampled(matrix2_algebra(F2), 2, samples=0)
    assert (result.holds, result.checked, result.witness) == (None, 0, None)


# -- the chunked tuple scan against an unchunked route ----------------------------


def _unchunked_standard_poly(table, k, grids):
    """S_k over the columns of ``grids`` in one numpy pass per permutation."""
    acc = np.full(grids.shape[1], table.zero_idx, dtype=np.int32)
    for perm in itertools.permutations(range(k)):
        prod = grids[perm[0]]
        for t in perm[1:]:
            prod = table.mul[prod, grids[t]]
        if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2:
            prod = table.neg[prod]
        acc = table.add[acc, prod]
    bad = np.nonzero(acc != table.zero_idx)[0]
    if bad.size == 0:
        return (True, grids.shape[1], None)
    first = int(bad[0])
    witness = {
        "elements": [table.elem(int(grids[t][first])).render() for t in range(k)],
        "value": table.elem(int(acc[first])).render(),
    }
    return (False, grids.shape[1], witness)


def _unchunked_p1(table, g):
    sq0 = table.square_zero_indices()
    vals = table.poly_values(g)[table.mul[np.ix_(sq0, sq0)]]
    bad = np.argwhere(vals != table.zero_idx)
    if bad.size == 0:
        return (True, sq0.size**2, None)
    i, j = int(bad[0][0]), int(bad[0][1])
    witness = {
        "a": table.elem(int(sq0[i])).render(),
        "b": table.elem(int(sq0[j])).render(),
        "value": table.elem(int(vals[i, j])).render(),
    }
    return (False, sq0.size**2, witness)


SCAN_ALGEBRAS = {
    "F2[S3]": lambda: group_algebra(symmetric_group(3), F2),
    "M2(F2)": lambda: matrix2_algebra(F2),
    "M2(F3)": lambda: matrix2_algebra(F3),
    "sqzero1/F3": lambda: square_zero_algebra(F3, 1),
    "sqzero2/F3": lambda: square_zero_algebra(F3, 2),
}
SCAN_CASES = [
    # (algebra, check, k or g, samples); samples None means exhaustive.
    ("F2[S3]", "S_k", 2, None),
    ("F2[S3]", "S_k", 3, None),
    ("M2(F2)", "S_k", 3, None),
    ("M2(F2)", "S_k", 4, None),
    ("M2(F3)", "S_k", 2, None),
    ("M2(F3)", "S_k", 3, None),
    ("sqzero1/F3", "S_k", 2, None),
    ("sqzero1/F3", "S_k", 3, None),
    # 10001 = 2 * 4096 + 1809 = 1428 * 7 + 5 sampled tuples.
    ("M2(F3)", "S_k", 4, 10001),
    ("F2[S3]", "S_k", 3, 10001),
    ("M2(F2)", "p1", "T", None),
    ("M2(F3)", "p1", "T", None),
    ("M2(F3)", "p1", "T^2", None),
    ("sqzero2/F3", "p1", "T^2", None),
    ("sqzero2/F3", "p1", "T + 1", None),
]


@functools.cache
def _scan_reference(name, check, arg, samples):
    algebra = SCAN_ALGEBRAS[name]()
    table = ElementTable(algebra)
    if check == "p1":
        return _unchunked_p1(table, UniPoly.parse(arg, algebra.field))
    if samples is None:
        grids = np.indices((table.n,) * arg).reshape(arg, -1).astype(np.int32)
    else:
        rng = np.random.default_rng(11)
        grids = rng.integers(0, table.n, size=(arg, samples), dtype=np.int32)
    return _unchunked_standard_poly(table, arg, grids)


def _scan_result(name, check, arg, samples):
    algebra = SCAN_ALGEBRAS[name]()
    if check == "p1":
        result = p1_check(algebra, UniPoly.parse(arg, algebra.field))
    elif samples is None:
        result = standard_poly_exhaustive(algebra, arg)
    else:
        result = standard_poly_sampled(algebra, arg, samples, seed=11)
    return (result.holds, result.checked, result.witness)


def _scan_params():
    """Each case with chunks of 1, 7, 1000 and SCAN_CHUNK tuples, where the
    scan takes at most 2^12 numpy steps.  Chunks of 1000 split every
    exhaustive case into several leading index tuples per chunk over a tail
    of one or more axes, with a ragged last chunk."""
    for case in SCAN_CASES:
        name, check, arg, samples = case
        algebra = SCAN_ALGEBRAS[name]()
        count = 0  # the p1 scans here have at most 81 pairs
        if check == "S_k":
            count = samples or (algebra.field.order ** algebra.dim) ** arg
        for chunk in (1, 7, 1000, grpalg_mod.SCAN_CHUNK):
            if count <= 2**12 * chunk:
                yield pytest.param(case, chunk, id=f"{' '.join(map(str, case))} chunk{chunk}")


@pytest.mark.parametrize("case, chunk", _scan_params())
def test_chunked_scan_matches_unchunked_route(monkeypatch, case, chunk):
    expected = _scan_reference(*case)
    monkeypatch.setattr(grpalg_mod, "SCAN_CHUNK", chunk)
    assert _scan_result(*case) == expected


def test_scan_cases_both_hold_and_fail():
    verdicts = {_scan_reference(*case)[0] for case in SCAN_CASES}
    assert verdicts == {True, False}


# -- the exhaustive p1 routes agree ------------------------------------------------


@pytest.mark.parametrize("algebra, g, holds, pairs", [
    (square_zero_algebra(F2, 2), "T", False, 64),
    (matrix2_algebra(F2), "T", False, 16),
    (square_zero_algebra(F2, 2), "T^2", True, 64),
    (matrix2_algebra(F3), "T", False, 81),
    (group_algebra(symmetric_group(3), F2), "T^2", False, 64),
], ids=lambda v: getattr(v, "name", v))
def test_p1_direct_route_matches_table_route(monkeypatch, algebra, g, holds, pairs):
    # Every algebra has 16 to 81 elements: TABLE_LIMIT = 8 sends p1 to the
    # direct route, which stops at the first witness and reports every pair
    # as checked.
    g = UniPoly.parse(g, algebra.field)
    table_route = asdict(p1_check(algebra, g))
    monkeypatch.setattr(grpalg_mod, "TABLE_LIMIT", 8)
    direct_route = asdict(p1_check(algebra, g))
    assert direct_route == table_route
    assert (direct_route["holds"], direct_route["checked"]) == (holds, pairs)


# -- the exhaustive bac scan against a per-(b, c) loop ----------------------------


def _bac_loop(table, h):
    """h(bacr) over a in sq0 and every r, one numpy block per pair (b, c)
    with bc = 0, b and c in row-major order; stops at the first nonzero
    value."""
    sq0 = table.square_zero_indices()
    hvals = table.poly_values(h)
    all_idx = np.arange(table.n, dtype=np.int32)
    checked = 0
    for b in range(table.n):
        ba = table.mul[b, sq0]
        for c in np.nonzero(table.mul[b] == table.zero_idx)[0]:
            vals = hvals[table.mul[table.mul[ba, c][:, None], all_idx[None, :]]]
            checked += int(vals.size)
            bad = np.argwhere(vals != table.zero_idx)
            if bad.size:
                i, j = int(bad[0][0]), int(bad[0][1])
                return False, checked, {
                    "a": table.elem(int(sq0[i])).render(),
                    "b": table.elem(b).render(),
                    "c": table.elem(int(c)).render(),
                    "r": table.elem(j).render(),
                    "value": table.elem(int(vals[i, j])).render(),
                }
    return True, checked, None


def _bac_algebra(name, tmp_path):
    kind, _, p = name.partition("/F")
    field = Field(int(p))
    if kind == "dual":
        path = tmp_path / "dual_numbers.alg"
        path.write_text(DUAL_NUMBERS)
        return load_algebra(str(path), field)
    if kind == "C5":
        return group_algebra(cyclic_group(5), field)
    return square_zero_algebra(field, int(kind.removeprefix("sqzero")))


BAC_CASES = [
    # T fails the square-zero vanishing on sqzero2, so bac_check refuses it.
    *((f"sqzero{nvars}/F{p}", g) for p in (2, 3, 5) for nvars in (1, 2)
      for g in ("T", "T^2") if nvars == 1 or g == "T^2"),
    ("C5/F3", "T"),
    ("dual/F3", "T"),
    ("dual/F5", "T^2 + 2*T"),
]


@pytest.mark.parametrize("name, g", BAC_CASES, ids=[" ".join(case) for case in BAC_CASES])
def test_bac_scan_matches_per_pair_loop(monkeypatch, tmp_path, name, g):
    algebra = _bac_algebra(name, tmp_path)
    g = UniPoly.parse(g, algebra.field)
    # One table for both sides; sqzero2/F5 takes seconds to build.
    table = ElementTable(algebra)
    monkeypatch.setattr(grpalg_mod, "ElementTable", lambda _: table)
    result = bac_check(algebra, g)
    expected = _bac_loop(table, UniPoly.T(algebra.field) * g)
    assert (result.holds, result.checked, result.witness) == expected
    assert result.holds


def test_bac_scan_witness_matches_per_pair_loop():
    # M2(F2) fails p1 for g = T, so bac_check refuses it; the scan itself
    # finds a witness, the same as the loop's, and reports its whole domain
    # as checked.
    table = ElementTable(matrix2_algebra(F2))
    h = UniPoly.parse("T^2", F2)
    result = grpalg_mod._bac_on_table(table, h)
    holds, _, witness = _bac_loop(table, h)
    assert holds is False
    assert (result.holds, result.witness) == (False, witness)
    assert list(witness) == ["a", "b", "c", "r", "value"]
    zero_pairs = int((table.mul == table.zero_idx).sum())
    assert result.checked == zero_pairs * table.square_zero_indices().size * table.n


# -- the numpy scan against a loop over every tuple --------------------------------


def _every_tuple(table, shape, value, witness):
    """(holds, checked, witness, position of the witness) by a plain loop
    that evaluates every index tuple of ``shape`` in row-major order;
    ``value(t)`` is an element index and the first nonzero one is the
    witness."""
    checked, first = 0, None
    for t in itertools.product(*map(range, shape)):
        v = value(t)
        if first is None and v != table.zero_idx:
            first = t, v, checked
        checked += 1
    if first is None:
        return True, checked, None, None
    where, v, at = first
    return False, checked, {**witness(where), "value": table.elem(v).render()}, at


def _loop_standard_poly(table, k):
    mul, add, neg = table.mul.tolist(), table.add.tolist(), table.neg.tolist()
    odd = {perm: sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
           for perm in itertools.permutations(range(k))}

    def value(t):
        acc = table.zero_idx
        for perm, sign in odd.items():
            prod = t[perm[0]]
            for i in perm[1:]:
                prod = mul[prod][t[i]]
            acc = add[acc][neg[prod] if sign else prod]
        return acc

    return _every_tuple(table, (table.n,) * k, value, lambda t: {
        "elements": [table.elem(i).render() for i in t]})


def _loop_p1(table, g):
    sq0, mul = table.square_zero_indices().tolist(), table.mul.tolist()
    gvals = table.poly_values(g).tolist()
    return _every_tuple(table, (len(sq0),) * 2, lambda t: gvals[mul[sq0[t[0]]][sq0[t[1]]]],
                        lambda t: {"a": table.elem(sq0[t[0]]).render(),
                                   "b": table.elem(sq0[t[1]]).render()})


def _loop_bac(table, h):
    sq0, mul = table.square_zero_indices().tolist(), table.mul.tolist()
    hvals = table.poly_values(h).tolist()
    pairs = [(b, c) for b in range(table.n) for c in range(table.n)
             if mul[b][c] == table.zero_idx]

    def value(t):
        b, c = pairs[t[0]]
        return hvals[mul[mul[mul[b][sq0[t[1]]]][c]][t[2]]]

    return _every_tuple(table, (len(pairs), len(sq0), table.n), value, lambda t: {
        "a": table.elem(sq0[t[1]]).render(), "b": table.elem(pairs[t[0]][0]).render(),
        "c": table.elem(pairs[t[0]][1]).render(), "r": table.elem(t[2]).render()})


LOOP_CASES = [
    # (algebra, check, k or the polynomial, holds); each check holds once and
    # fails once, with its witness past the first chunk of 7 tuples.
    ("M2(F2)", "S_k", 2, False),
    ("M2(F2)", "S_k", 3, False),
    ("sqzero1/F3", "S_k", 2, True),
    ("M2(F3)", "p1", "T^2", False),
    ("sqzero2/F3", "p1", "T^2", True),
    # M2(F2) fails p1 for g = T, so bac_check refuses it; its chain scan
    # still runs on its own.
    ("M2(F2)", "bac", "T^2", False),
    ("sqzero1/F3", "bac", "T", True),
]


def _loop_result(name, check, arg):
    table = ElementTable(SCAN_ALGEBRAS[name]())
    if check == "S_k":
        return table, _loop_standard_poly(table, arg)
    poly = UniPoly.parse(arg, table.algebra.field)
    return table, (_loop_p1 if check == "p1" else _loop_bac)(table, poly)


@pytest.mark.parametrize("name, check, arg", [case[:3] for case in LOOP_CASES],
                         ids=[" ".join(map(str, case[:3])) for case in LOOP_CASES])
def test_scan_matches_a_loop_over_every_tuple(monkeypatch, name, check, arg):
    table, expected = _loop_result(name, check, arg)
    monkeypatch.setattr(grpalg_mod, "SCAN_CHUNK", 7)
    if check == "S_k":
        result = grpalg_mod._standard_poly_scan(table, arg, (table.n,) * arg, lambda grid: grid)
    else:
        scan = grpalg_mod._p1_on_table if check == "p1" else grpalg_mod._bac_on_table
        result = scan(table, UniPoly.parse(arg, table.algebra.field))
    assert (result.holds, result.checked, result.witness) == expected[:3]


def test_loop_cases_hold_and_fail_past_the_first_chunk():
    assert {(check, holds) for _, check, _, holds in LOOP_CASES} == {
        (check, holds) for check in ("S_k", "p1", "bac") for holds in (True, False)}
    for name, check, arg, holds in LOOP_CASES:
        loop_holds, _, _, at = _loop_result(name, check, arg)[1]
        assert loop_holds is holds
        assert holds or at >= 7


FAILING_LOOP_CASES = [case[:3] for case in LOOP_CASES if not case[3]]


@pytest.mark.parametrize("name, check, arg", FAILING_LOOP_CASES,
                         ids=[" ".join(map(str, case)) for case in FAILING_LOOP_CASES])
def test_failing_scan_stops_at_the_chunk_of_its_witness(monkeypatch, name, check, arg):
    table, (_, domain, witness, at) = _loop_result(name, check, arg)
    chunks, scan = [], grpalg_mod._scan

    def counting_scan(table, shape, evaluate, witness):
        def counted(grid):
            chunks.append(grid.shape[1])
            return evaluate(grid)
        return scan(table, shape, counted, witness)

    monkeypatch.setattr(grpalg_mod, "SCAN_CHUNK", 7)
    monkeypatch.setattr(grpalg_mod, "_scan", counting_scan)
    monkeypatch.setattr(grpalg_mod, "ElementTable", lambda _: table)
    algebra = table.algebra
    if check == "S_k":
        result = standard_poly_exhaustive(algebra, arg)
    elif check == "p1":
        result = p1_check(algebra, UniPoly.parse(arg, algebra.field))
    else:
        result = grpalg_mod._bac_on_table(table, UniPoly.parse(arg, algebra.field))
    # Every axis of these scans is longer than 7, so each chunk holds 7 tuples.
    assert chunks == [7] * (at // 7 + 1)
    assert (result.holds, result.checked, result.witness) == (False, domain, witness)


def test_exhaustive_p1_without_tables_stops_at_its_witness(monkeypatch):
    # F2[S3 x C2] has 4,096 elements, past TABLE_LIMIT, and 224 square-zero
    # ones: the exact route evaluates its pairs in order up to the witness.
    algebra = group_algebra(build_group("sym:3xcyclic:2"), F2)
    g = UniPoly.parse("T", F2)
    calls, poly = [], grpalg_mod.poly_at
    monkeypatch.setattr(grpalg_mod, "poly_at", lambda *a: calls.append(a) or poly(*a))
    result = p1_check(algebra, g)
    elements = (algebra.elem(v) for v in itertools.product(range(2), repeat=algebra.dim))
    square_zero = [a.render() for a in elements if (a * a).is_zero]
    position = (square_zero.index(result.witness["a"]) * len(square_zero)
                + square_zero.index(result.witness["b"]) + 1)
    assert (result.holds, result.checked) == (False, 224**2)
    assert len(calls) == position < 224**2


def test_exhaustive_standard_poly_allocates_no_tuple_grid():
    algebra = group_algebra(symmetric_group(3), F2)
    standard_poly_exhaustive(algebra, 3)  # first call: imports and caches
    tracemalloc.start()
    try:
        result = standard_poly_exhaustive(algebra, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # All 64^3 tuples as int32 rows alone would take 3 MB.
    assert (result.holds, result.checked) == (False, 64**3)
    assert peak < 2**20


def _counting_tables(monkeypatch):
    builds = []

    class CountingTable(ElementTable):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(grpalg_mod, "ElementTable", CountingTable)
    return builds


def test_exhaustive_bounds_are_checked_before_the_table_is_built(monkeypatch):
    builds = _counting_tables(monkeypatch)
    with pytest.raises(TooLargeForExhaustive, match=r"^729\^3 tuples exceed the bound 16777216$"):
        standard_poly_exhaustive(group_algebra(cyclic_group(6), F3), 3)
    # The element bounds come first, in the order the table checks them.
    with pytest.raises(TooLargeForExhaustive, match="^exhaustive enumeration needs a finite field$"):
        standard_poly_exhaustive(matrix2_algebra(Q), 9)
    with pytest.raises(TooLargeForExhaustive,
                       match=r"^1594323 elements exceed the exhaustive bound 1048576$"):
        standard_poly_exhaustive(group_algebra(cyclic_group(13), F3), 9)
    with pytest.raises(TooLargeForExhaustive,
                       match=r"^2187 elements exceed the index-table bound 2048$"):
        standard_poly_exhaustive(group_algebra(cyclic_group(7), F3), 9)
    assert builds == []


def test_table_and_pair_bounds_are_read_at_call_time(monkeypatch):
    # sqzero2 over F2 has 16 elements, 8 of them square-zero.
    A = square_zero_algebra(F2, 2)
    g = UniPoly.parse("T^2", F2)
    monkeypatch.setattr(grpalg_mod, "TABLE_LIMIT", 8)
    with pytest.raises(TooLargeForExhaustive, match=r"^16 elements exceed the index-table bound 8$"):
        ElementTable(A)
    assert p1_check(A, g).holds  # the direct scan takes over
    monkeypatch.setattr(grpalg_mod, "PAIR_LIMIT", 4)
    with pytest.raises(TooLargeForExhaustive,
                       match=r"^8\^2 square-zero pairs exceed the pair bound 2\^2$"):
        p1_check(A, g)


def test_sampled_standard_poly_is_bounded(monkeypatch):
    builds = _counting_tables(monkeypatch)
    with pytest.raises(InvalidParameter, match=r"^16777217 samples exceed the bound 16777216$"):
        standard_poly_sampled(matrix2_algebra(F2), 4, samples=2**24 + 1)
    assert builds == []


# -- ring laws of AlgebraElem over Q and F_p -------------------------------------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

RING_ALGEBRAS = [
    build(field)
    for field in (Q, F2, F3, F5)
    for build in (
        lambda f: group_algebra(symmetric_group(3), f),
        lambda f: group_algebra(cyclic_group(4), f),
        matrix2_algebra,
        lambda f: square_zero_algebra(f, 2),
    )
]


def _elements(algebra):
    p = algebra.field.p
    coeff = (st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)) if p == 0
             else st.integers(-p, 2 * p))
    return st.lists(coeff, min_size=algebra.dim, max_size=algebra.dim).map(algebra.elem)


@PROPERTY_SETTINGS
@given(st.sampled_from(RING_ALGEBRAS).flatmap(
    lambda A: st.tuples(_elements(A), _elements(A), _elements(A))))
def test_algebra_elem_ring_laws(triple):
    a, b, c = triple
    A = a.algebra
    one = A.one()
    for lhs, rhs in (
        ((a * b) * c, a * (b * c)),
        (a * (b + c), a * b + a * c),
        ((a + b) * c, a * c + b * c),
        (one * a, a),
        (a * one, a),
        (a + b, b + a),
        (a - b, -(b - a)),
        (a ** 3, a * a * a),
    ):
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)
    assert (a - a).is_zero and a - a == A.zero()
    if a.is_unit():
        inv = a.inverse()
        assert a * inv == one == inv * a
    # coefficients are field elements (Fractions over Q) and respell to equals
    for x in (a, a * b, a - a, a.scale(3)):
        assert all(c.field == A.field for c in x.coeffs)
        assert all(isinstance(c.v, Fraction) for c in x.coeffs) or A.field.p
        respelled = A.elem([c.v + A.field.p for c in x.coeffs])
        assert respelled == x and hash(respelled) == hash(x)
        assert hash(x) == hash((id(A), tuple(c.v for c in x.coeffs)))
