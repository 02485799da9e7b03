"""Campaigns: enumeration, table sweep, obstruction consistency, the
three-term-support campaign, degree bounds, and report determinism."""

import json
from collections import Counter
from pathlib import Path

import pytest

from lpifc import search
from lpifc.errors import InternalError, InvalidParameter, TooLargeForExhaustive
from lpifc.exactalg import Field
from lpifc.fcrep import eval_word, unit_pair
from lpifc.search import (
    CampaignReport,
    check_cumulus,
    cprime_bound_campaign,
    enum_words,
    falsify_three_term,
    support3_campaign,
    verify_obstruction_consistency,
    verify_tables,
)
from lpifc.words import (
    CUMULUS_ONE,
    Word,
    factor_cumulus_one,
    parse_word,
    word_invariants,
    words_of_weight_at_most,
)

Q = Field(0)
F2 = Field(2)
F3 = Field(3)
F5 = Field(5)


# -- enumeration ----------------------------------------------------------------


def test_enum_c1_is_the_six_words():
    assert set(enum_words(1)) == set(CUMULUS_ONE)


def test_enum_c2_contents():
    words = list(enum_words(2))
    assert parse_word("X*Y^-1") in words
    assert parse_word("X^2") in words
    assert Word.identity() not in words


def test_enum_yields_cumulus_equal_to_factor_count():
    from lpifc.words import factor_cumulus_one

    for w in enum_words(3):
        assert len(factor_cumulus_one(w)) == word_invariants(w).C


def test_enum_no_duplicates_and_graded():
    words = list(enum_words(4))
    assert len(words) == len(set(words))
    grades = [word_invariants(w).C for w in words]
    assert grades == sorted(grades)


def enum_words_oracle(c_max):
    """Independent enumeration route: all normal-form words of weight at most
    2*c_max (a superset, by subadditivity of the weight under products of
    cumulus-1 words) filtered by cumulus."""
    return {
        w
        for w in words_of_weight_at_most(2 * c_max)
        if not w.is_identity and word_invariants(w).C <= c_max
    }


def test_enum_matches_weight_oracle():
    for c in (1, 2, 3):
        assert set(enum_words(c)) == enum_words_oracle(c)


def test_enum_rejects_zero():
    with pytest.raises(InvalidParameter):
        list(enum_words(0))


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=repr)
def test_cumulus_levels_match_block_evaluation_and_factorization(field):
    # The sweep multiplies each parent's image by one factor image; the block
    # powers of eval_word (WordImages) are the independent route.
    up = unit_pair("primary", field)
    levels = list(search._cumulus_levels(4))
    images = list(search._cumulus_images(4, up))
    triples = [t for level in levels for t in level]
    assert [w for w, _ in images] == [w for w, _, _ in triples] == list(enum_words(4))
    assert [len(level) for level in levels] == [6, 24, 96, 384]
    for (w, parent, factor), (_, image) in zip(triples, images):
        assert image == eval_word(w, up)
        assert parent * factor == w
        assert factor == factor_cumulus_one(w)[-1]
        assert word_invariants(parent).C == word_invariants(w).C - 1


def test_a_word_reached_twice_is_an_internal_error(monkeypatch):
    # With X^2 posing as a cumulus-1 word, X*Y is both X * Y and X^2 * X^-1*Y.
    monkeypatch.setattr(search, "CUMULUS_ONE", CUMULUS_ONE + (parse_word("X^2"),))
    with pytest.raises(InternalError, match=r"^X\*Y of cumulus 2 is both X \* Y and X\^2 \* X\^-1\*Y$"):
        list(enum_words(2))


def test_word_bound_admits_cumulus_seven():
    check_cumulus(7)
    for c_max in (8, 40, 10**12):
        with pytest.raises(TooLargeForExhaustive, match=f"words of cumulus <= {c_max} exceed "
                           "the bound WORD_LIMIT = 32768"):
            check_cumulus(c_max)


def test_word_bound_is_checked_before_any_word_is_built(monkeypatch):
    def no_levels(c_max):
        raise AssertionError("a word was built")

    runs = {
        "enum_words": lambda c: list(enum_words(c)),
        "verify_tables": lambda c: verify_tables(c, Q),
        "consistency": lambda c: verify_obstruction_consistency(4, c, Q),
        "support3": lambda c: support3_campaign(c, [F2], coeff_samples=1),
    }
    # Cumulus <= 2 has 30 words.
    monkeypatch.setattr(search, "WORD_LIMIT", 29)
    monkeypatch.setattr(search, "_cumulus_levels", no_levels)
    for run in runs.values():
        with pytest.raises(TooLargeForExhaustive, match="WORD_LIMIT = 29"):
            run(2)
    monkeypatch.undo()
    monkeypatch.setattr(search, "WORD_LIMIT", 30)
    assert len(runs.pop("enum_words")(2)) == 30
    for run in runs.values():
        assert run(2).failed == 0


# -- table campaign ----------------------------------------------------------------


def test_verify_tables_small_fields():
    for field in (Q, F3):
        report = verify_tables(2, field)
        assert report.failed == 0
        assert report.checked == len(list(enum_words(2)))


def test_verify_tables_mutation_self_test():
    """Counting the order-sensitive pair statistic symmetrically corrupts the
    cumulus and must produce leading-term mismatches by grade 2."""
    from lpifc.fcrep import eval_word, unit_pair

    def corrupted_cumulus(w):
        m = 0
        for (g1, e1), (g2, e2) in zip(w.blocks, w.blocks[1:]):
            # symmetric misreading: any adjacent pair with one negative and
            # one positive exponent
            if (e1 < 0 < e2) or (e2 < 0 < e1):
                m += 1
        return w.weight - m

    up = unit_pair("primary", Q)
    mismatches = 0
    for w in enum_words(2):
        c_bad = corrupted_cumulus(w)
        img = eval_word(w, up)
        if img.degree != 2 * c_bad:
            mismatches += 1
    assert mismatches > 0


# -- obstruction consistency ----------------------------------------------------------


def test_obstruction_consistency_seeded():
    report = verify_obstruction_consistency(60, 2, Q, seed=11)
    assert report.failed == 0
    assert report.checked == 60


def test_obstruction_consistency_finite_field():
    report = verify_obstruction_consistency(40, 2, F3, seed=12)
    assert report.failed == 0


@pytest.mark.parametrize("sample_count", [-1, -5])
def test_obstruction_consistency_rejects_negative_count(sample_count):
    with pytest.raises(InvalidParameter, match="sample_count"):
        verify_obstruction_consistency(sample_count, 2, F2)


# -- three-term-support campaign --------------------------------------------------------


def test_support3_no_survivors_c1():
    report = support3_campaign(c_max=1, fields=[F2, F3, Q], coeff_samples=5, seed=0)
    assert report.failed == 0
    assert report.checked > 0


@pytest.mark.parametrize("run, expected", [
    (lambda: support3_campaign(3, [F2]),
     {"obstruction": 7389, "obstruction(w1^-1*f)": 468, "obstruction(f*w1^-1)": 18}),
    (lambda: support3_campaign(2, [F3]),
     {"obstruction": 1698, "obstruction(w1^-1*f)": 42}),
    (lambda: support3_campaign(2, [Q], coeff_samples=5, seed=0),
     {"obstruction": 2157, "obstruction(w1^-1*f)": 18}),
], ids=["F2-c3", "F3-c2", "Q-c2"])
def test_falsifier_chain_counts(monkeypatch, run, expected):
    # How often each falsifier of the chain decides a candidate.
    counts = Counter()

    def counted(f, w1, units):
        name = falsify_three_term(f, w1, units)
        counts[name] += 1
        return name

    monkeypatch.setattr(search, "falsify_three_term", counted)
    assert run().failed == 0
    assert counts == expected


@pytest.mark.parametrize("w1, name", [
    ("X", "obstruction(w1^-1*f)"),
    ("Y^-1*X", "obstruction(f*w1^-1)"),
    ("Y^-1", "obstruction(invertX)"),
])
def test_falsifier_chain_names_the_deciding_transform(w1, name):
    # Neither f nor its X<->Y swap has an obstruction; which of the other
    # maps decides depends on w1.
    from lpifc.laurent import parse_laurent

    f = parse_laurent("X*Y^-1*X - X^2 - Y^-1", Q)
    assert falsify_three_term(f, parse_word(w1), {}) == name


def test_support3_example_candidates():
    from lpifc.exactalg import scalar_mat_is_zero
    from lpifc.fcrep import eval_laurent, unit_pair
    from lpifc.laurent import obstruction_matrix, parse_laurent

    # 1 + X + Y is falsified over F2 and over Q
    for field in (F2, Q):
        f = parse_laurent("1 + X + Y", field)
        obstruction_nonzero = not scalar_mat_is_zero(obstruction_matrix(f))
        eval_nonzero = not eval_laurent(f, unit_pair("primary", field)).is_zero
        assert obstruction_nonzero or eval_nonzero
    # 1 + X + X^-1 is falsified by direct evaluation
    f = parse_laurent("1 + X + X^-1", Q)
    assert not eval_laurent(f, unit_pair("primary", Q)).is_zero


# -- degree bound campaign ----------------------------------------------------------------


def test_cprime_bound_campaign():
    report = cprime_bound_campaign(2, Q, samples=20, seed=3)
    assert report.failed == 0


def test_cprime_bound_campaign_char2():
    report = cprime_bound_campaign(2, F2, samples=20, seed=3)
    assert report.failed == 0


def test_cprime_bound_counts_its_words():
    for c_max in range(1, 8):
        assert len(list(words_of_weight_at_most(c_max))) == 2 * 3**c_max - 1


def test_cprime_bound_admits_weight_eight(monkeypatch):
    # The bound is checked before the first word of weight <= c_max is built.
    def no_words(c_max):
        raise AssertionError("a word was built")

    monkeypatch.setattr(search, "words_of_weight_at_most", no_words)
    for c_max in (9, 40, 10**12):
        with pytest.raises(TooLargeForExhaustive, match=rf"^2\*3\^{c_max} - 1 words of weight <= "
                           rf"{c_max} exceed the bound WORD_LIMIT = 32768$"):
            cprime_bound_campaign(c_max, Q)
    with pytest.raises(AssertionError, match="a word was built"):
        cprime_bound_campaign(8, Q)


# -- report shape and determinism ------------------------------------------------------------


def test_report_json_deterministic():
    r1 = support3_campaign(c_max=1, fields=[F2], coeff_samples=3, seed=5)
    r2 = support3_campaign(c_max=1, fields=[F2], coeff_samples=3, seed=5)
    assert r1 == r2
    j1, j2 = (json.dumps(r.to_dict(), sort_keys=True, indent=2) for r in (r1, r2))
    assert j1 == j2


def test_failures_reported():
    report = CampaignReport(campaign="demo", params={}, checked=2, failures=[{"case": "x"}])
    assert report.failed == 1
    assert report.passed == 1


# -- the failure path ------------------------------------------------------------------------
#
# No correct campaign fails, so each one is driven into failures by replacing
# a name it looks up in lpifc.search.  The records, counts and the CLI text of
# a failing verify-tables run were recorded with one hand-written loop per
# campaign (commit 2bcba82), before the campaigns shared one driver.

FAILURE_RECORDS = json.loads(
    (Path(__file__).parent / "golden_campaign_failures.json").read_text()
)


def _wrong_routes() -> dict:
    """For each campaign, the names in lpifc.search to replace and their wrong
    routes, each failing some checks and passing others."""
    from lpifc.exactalg import Mat2Poly
    from lpifc.fcrep import eval_laurent
    from lpifc.laurent import obstruction_matrix

    x3 = Word.generator(0, 3)

    def word_image(w, up):
        if w == parse_word("X^2"):
            return Mat2Poly.zero(up.u.field)  # a failure with no degree
        if w.blocks and w.blocks[0][0] == 1:
            return eval_word(w.inv(), up)  # wrong leading term or degree
        if w.weight % 2 == 0:
            return eval_word(w * x3, up)  # past the C' degree bound
        return eval_word(w, up)

    return {
        # The sweep reads each word's image through _cumulus_images.
        "verify-tables": {
            "_cumulus_images": lambda c_max, up: ((w, word_image(w, up)) for w in enum_words(c_max))
        },
        "verify-obstruction-consistency": {
            "obstruction_matrix": lambda f: obstruction_matrix(f.scale(1 + len(f.terms) % 2))
        },
        "support3": {
            "falsify_three_term": lambda f, w1, units: (
                None if w1 == parse_word("X") else falsify_three_term(f, w1, units)
            )
        },
        "cprime-bound": {
            "eval_word": word_image,
            "eval_laurent": lambda f, up: eval_laurent(f.map_words(lambda w: w * x3), up),
        },
    }


FAILING_RUNS = {
    "verify-tables": lambda: verify_tables(2, Q),
    "verify-obstruction-consistency": lambda: verify_obstruction_consistency(8, 2, Q, seed=3),
    "support3": lambda: support3_campaign(c_max=1, fields=[F3, Q], coeff_samples=2, seed=4),
    "cprime-bound": lambda: cprime_bound_campaign(2, Q, samples=6, seed=5),
}


def _break(monkeypatch, campaign: str) -> None:
    from lpifc import search

    for name, route in _wrong_routes()[campaign].items():
        monkeypatch.setattr(search, name, route)


@pytest.mark.parametrize("campaign", FAILING_RUNS)
def test_campaign_failures_carry_their_inputs(monkeypatch, campaign):
    _break(monkeypatch, campaign)
    report = FAILING_RUNS[campaign]()
    assert 0 < report.failed < report.checked
    assert report.passed + report.failed == report.checked
    assert report.to_dict() == FAILURE_RECORDS[campaign]


def test_failing_verify_tables_cli_text(monkeypatch, capsys):
    from lpifc.cli import main

    _break(monkeypatch, "verify-tables")
    assert main(["verify-tables", "--cmax", "2"]) == 1
    assert capsys.readouterr().out == FAILURE_RECORDS["cli verify-tables --cmax 2"]
