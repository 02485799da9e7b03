"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

All equality assertions are exact; runtime limits are asserted where stated.
"""

import itertools
import json
import time

import numpy as np

from fcrep_reference import phi_images_independent
from lpifc.exactalg import Field, UniPoly, scalar_mat, scalar_mat_is_zero
from lpifc.expand import expand, minimal_degree
from lpifc.fcrep import (
    eval_laurent,
    extract_g,
    thekey_solve,
    unit_pair,
)
from lpifc.grpalg import (
    ElementTable,
    bac_check,
    finitecondi_witness,
    matrix2_algebra,
    p1_check,
    square_zero_algebra,
    standard_poly,
    standard_poly_exhaustive,
)
from lpifc.laurent import LaurentPoly, obstruction_matrix, parse_laurent
from lpifc.search import (
    enum_words,
    random_laurent,
    support3_campaign,
    verify_obstruction_consistency,
    verify_tables,
)
from lpifc.words import (
    CUMULUS_ONE,
    Word,
    factor_cumulus_one,
    sgn_recursive,
    word_invariants,
    words_of_weight_at_most,
)

Q = Field(0)
F2 = Field(2)
F3 = Field(3)
F5 = Field(5)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(number: int, description: str, elapsed: float, limit: float | None = None):
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"
    bound = f" [limit {limit:.0f}s]" if limit else ""
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s){bound}: {description}")


def test_criterion_01_cumulus_one_classification():
    with _Timer() as t:
        found = {
            w
            for w in words_of_weight_at_most(3)
            if not w.is_identity and word_invariants(w).C == 1
        }
        assert found == set(CUMULUS_ONE)
    _report(1, "cumulus 1 exactly for the six words, exhaustive over weight <= 3", t.elapsed, 1.0)


def test_criterion_02_factorization():
    with _Timer() as t:
        words4 = list(enum_words(4))
        for w in words4:
            c = word_invariants(w).C
            factors = factor_cumulus_one(w)
            assert len(factors) == c
            prod = Word.identity()
            for f in factors:
                assert word_invariants(f).C == 1
                prod = prod * f
            assert prod == w
        for w in words4:
            c = word_invariants(w).C
            if c > 3:
                continue
            for length in range(1, c):
                for seq in itertools.product(CUMULUS_ONE, repeat=length):
                    prod = Word.identity()
                    for f in seq:
                        prod = prod * f
                    assert prod != w
    _report(2, "factorization recomposes, count = cumulus (C<=4), minimal (C<=3)", t.elapsed, 10.0)


def test_criterion_03_sign_recursion():
    with _Timer() as t:
        for w in enum_words(5):
            assert sgn_recursive(w) == word_invariants(w).sgn
    _report(3, "recursive sign equals (-1)^N for all words with C <= 5", t.elapsed, 10.0)


def test_criterion_04_inverse_invariance():
    with _Timer() as t:
        for w in enum_words(5):
            assert word_invariants(w.inv()).C == word_invariants(w).C
    _report(4, "C(w) = C(w^-1) for all words with C <= 5", t.elapsed)


def test_criterion_05_leading_term_tables():
    with _Timer() as t:
        total = 0
        for field in (Q, F3, F5):
            report = verify_tables(4, field)
            assert report.failed == 0, report.failures[:3]
            total += report.checked
        assert total == 3 * 510
    _report(5, "leading-term table sweep, C <= 4 over Q, F3, F5, 0 failures", t.elapsed, 60.0)


def test_criterion_06_obstruction_consistency():
    with _Timer() as t:
        report = verify_obstruction_consistency(100, 3, Q, seed=2024)
        assert report.checked >= 100
        assert report.failed == 0, report.failures[:3]
    _report(6, "obstruction matrix = T^(2C) coefficient on 100 seeded inputs", t.elapsed)


def test_criterion_07_commutator_certificate():
    with _Timer() as t:
        mat = obstruction_matrix(parse_laurent("X*Y - Y*X", Q))
        assert mat == scalar_mat(Q, ((0, 1), (0, 0)))
        assert not scalar_mat_is_zero(mat)
    _report(7, "obstruction of the commutator is [[0,1],[0,0]] != 0", t.elapsed)


def test_criterion_08_three_term_support_campaign():
    with _Timer() as t:
        report = support3_campaign(c_max=2, fields=[F2, F3, Q], coeff_samples=5, seed=0)
        assert report.failed == 0, report.failures[:3]
        assert report.checked > 0
    _report(8, f"three-term campaign, c<=2, no survivors over {report.checked} candidates",
            t.elapsed, 300.0)


def test_criterion_09_conjugation_system():
    with _Timer() as t:
        for field in (Q, F3):
            report = thekey_solve(field, degree_bound=4)
            assert report.zero_space
            relations = dict(report.relations)
            assert relations == {"C = 0": True, "A = D": True, "B = -(1+T)*A": True}
    _report(9, "conjugation system: zero space and elimination relations over Q, F3", t.elapsed)


def test_criterion_10_witness_extraction():
    with _Timer() as t:
        up = unit_pair("primary", Q)
        witness = extract_g(parse_laurent("X - 1", Q), up)
        assert witness.g == UniPoly.monomial(Q, 2)
        from random import Random

        rng = Random(77)
        pool = list(enum_words(2))
        produced = 0
        while produced < 50:
            f = random_laurent(rng, Q, pool)
            if eval_laurent(f, up).is_zero:
                continue
            w = extract_g(f, up)
            assert not w.g.is_zero
            assert w.g.constant_term.is_zero
            produced += 1
    _report(10, "extract_g(X-1) = T^2; g != 0 and g(0) = 0 on 50 falsified inputs", t.elapsed)


def test_criterion_11_expansion():
    with _Timer() as t:
        from random import Random

        rng = Random(88)
        pool = list(enum_words(2))
        for _ in range(100):
            f = random_laurent(rng, Q, pool)
            ts = expand(f, 2)
            total = Q.zero
            for c in f.terms.values():
                total = total + c
            assert ts.component((0,) * ts.nvars) == LaurentPoly(Q, {Word.identity(): total})
        commutator = parse_laurent("X*Y*X^-1*Y^-1 - 1", Q)
        ts = expand(commutator, 4)
        assert ts.component((1, 1)) == parse_laurent("X*Y - Y*X", Q)
        m, _ = minimal_degree(ts)
        assert m == 2
        wide = expand(commutator, 7)
        for md, comp in ts.comps.items():
            assert wide.component(md) == comp
        for md, comp in wide.comps.items():
            if sum(md) <= 4:
                assert ts.component(md) == comp
    _report(11, "zero component = f(1,..,1); commutator minimal component; coherence", t.elapsed)


def test_criterion_12_standard_polynomial_desk_check():
    with _Timer() as t:
        algebra = matrix2_algebra(F2)
        result = standard_poly_exhaustive(algebra, 4)
        assert result.holds
        assert result.checked == 16**4
        s2 = standard_poly(2, [algebra.basis(0), algebra.basis(1)])
        assert s2 == algebra.basis(1)
        assert not s2.is_zero
    _report(12, "S4 = 0 on all 16^4 tuples of M2(F2); S2(e11,e12) = e12 != 0", t.elapsed)


def test_criterion_13_matrix_witnesses():
    with _Timer() as t:
        for q in (2, 3, 5):
            field = Field(q)
            for deg in range(0, q):
                lower = itertools.product(range(q), repeat=deg)
                for tail in lower:
                    coeffs = list(tail) + [1]  # monic of this degree
                    g = UniPoly(field, coeffs)
                    if g.degree != deg:
                        continue
                    w = finitecondi_witness(q, g)
                    algebra = w.a.algebra
                    e11 = algebra.basis(0)
                    assert not w.g_of_r.is_zero
                    assert not w.g_of_ab.is_zero
                    # the e11 entry of g(ab) is always g(r)
                    assert w.g_of_ab.coeffs[0] == w.g_of_r
                    if g.constant_term.is_zero:
                        # within the vanishing property's scope (g(0) = 0 is
                        # forced by it), the full matrix identity holds
                        assert w.g_of_ab == e11.scale(w.g_of_r)
                    else:
                        # the constant term lands on the diagonal
                        assert w.g_of_ab == e11.scale(w.g_of_r - g.constant_term) + \
                            algebra.one().scale(g.constant_term)
    _report(13, "matrix witnesses g(ab) with g(r) != 0 for all monic g, deg g < q, q in {2,3,5}",
            t.elapsed)


def test_criterion_14_square_zero_chain():
    with _Timer() as t:
        algebra = square_zero_algebra(F2, 2)
        g = UniPoly.parse("T^2", F2)
        p1 = p1_check(algebra, g, mode="exhaustive")
        assert p1.holds
        bac = bac_check(algebra, g, mode="exhaustive")
        assert bac.holds
        # literal sweep over all 16^4 quadruples with the side conditions
        table = ElementTable(algebra)
        n = table.n
        h_vals = table.poly_values(UniPoly.parse("T^3", F2))
        sq_zero = table.mul[np.arange(n), np.arange(n)] == table.zero_idx
        quadruples = 0
        for a in range(n):
            if not sq_zero[a]:
                continue
            ba = table.mul[:, a]  # b*a for every b
            for b in range(n):
                cs = np.nonzero(table.mul[b] == table.zero_idx)[0]
                if cs.size == 0:
                    continue
                bac_row = table.mul[ba[b], cs]
                bacr = table.mul[bac_row[:, None], np.arange(n, dtype=np.int32)[None, :]]
                assert np.all(h_vals[bacr] == table.zero_idx)
                quadruples += int(bacr.size)
        assert quadruples == bac.checked
    _report(14, "square-zero vanishing for T^2 and chain for T^3, all 16^4 quadruples", t.elapsed)


def test_criterion_15_faithfulness():
    with _Timer() as t:
        assert phi_images_independent(Q, 8)
        assert phi_images_independent(F2, 8)
    _report(15, "alternating-basis images up to length 8 independent over Q and F2", t.elapsed)


def test_criterion_16_determinism(capsys):
    with _Timer() as t:
        from lpifc.cli import main

        outputs = []
        for _ in range(2):
            main(["support3", "--cmax", "1", "--field", "3", "--seed", "4", "--json"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # well-formed canonical JSON
        reports = [
            json.dumps(verify_obstruction_consistency(20, 2, F3, seed=6).to_dict(),
                       sort_keys=True, indent=2)
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
    with capsys.disabled():
        _report(16, "campaign re-runs with the same seed are byte-identical JSON", t.elapsed)
