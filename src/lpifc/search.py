"""Exhaustive verification campaigns over enumerated words and sampled
polynomials: cumulus-graded word enumeration, the leading-term table sweep,
obstruction-vs-evaluation consistency, the three-term-support falsification
campaign, and the alternate-pair degree bound.

Campaigns are deterministic: all randomness flows from a single seed recorded
in the report, enumeration is graded by cumulus then lexicographic, and two
runs with the same arguments give equal reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from random import Random
from typing import Iterable, Iterator, Sequence

from .errors import InternalError, InvalidParameter, TooLargeForExhaustive, check_count
from .exactalg import Field, Mat2Poly, render_scalar_mat, scalar_mat_is_zero
from .fcrep import UnitPair, eval_laurent, eval_word, unit_pair
from .laurent import LaurentPoly, max_cumulus, obstruction_matrix, table_leading_term
from .words import CUMULUS_ONE, W_X, W_XINV, W_Y, Word, WordImages, word_invariants, words_of_weight_at_most


@dataclass
class CampaignReport:
    """Uniform result record for every campaign.

    ``failed`` always equals ``len(failures)`` and ``passed`` equals
    ``checked - failed``; each failure carries enough input data to reproduce
    the check.
    """

    campaign: str
    params: dict
    checked: int
    failures: list[dict] = dc_field(default_factory=list)
    seed: int | None = None

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def passed(self) -> int:
        return self.checked - self.failed

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "params": self.params,
            "checked": self.checked,
            "passed": self.passed,
            "failed": self.failed,
            "failures": self.failures,
            "seed": self.seed,
        }


def _campaign(
    name: str, params: dict, seed: int | None, outcomes: Iterable[dict | None]
) -> CampaignReport:
    """Run a campaign's checks, one per item of ``outcomes``: None when the
    check passed, else the failure record with the inputs that reproduce it."""
    checked, failures = 0, []
    for outcome in outcomes:
        checked += 1
        if outcome is not None:
            failures.append(outcome)
    return CampaignReport(name, params, checked, failures, seed)


# The most words that a run may enumerate: 2*(4^c_max - 1) words of cumulus
# <= c_max admit c_max 7 (32,766 words), and 2*3^c_max - 1 words of weight
# <= c_max admit c_max 8 (13,121 words).
WORD_LIMIT = 2**15


def _check_words(c_max: int, count, words: str) -> None:
    """c_max must be at least 1, and count(c_max), the number of ``words``,
    at most WORD_LIMIT; checked before any word is built."""
    if c_max < 1:
        raise InvalidParameter("c_max must be at least 1")
    # Each count exceeds 2^c_max, so a c_max of WORD_LIMIT's bit length or
    # more is over the bound without forming the count.
    if c_max >= WORD_LIMIT.bit_length() or count(c_max) > WORD_LIMIT:
        raise TooLargeForExhaustive(f"{words} exceed the bound WORD_LIMIT = {WORD_LIMIT}")


def check_cumulus(c_max: int) -> None:
    """The 2*(4^c_max - 1) words of cumulus <= c_max within the bound."""
    _check_words(c_max, lambda c: 2 * (4**c - 1), f"2*(4^{c_max} - 1) words of cumulus <= {c_max}")


def _cumulus_levels(c_max: int) -> Iterator[list[tuple[Word, Word, Word]]]:
    """The words of cumulus 1..c_max, one list per cumulus, each sorted
    lexicographically, as (word, parent, factor) with word = parent * factor:
    factor is the last cumulus-1 factor of word, and parent, of cumulus one
    less, the product of the others (the identity on level 1).

    Level c right-extends level c-1 with the six cumulus-1 words and keeps
    the products of cumulus exactly c.  By the unique cumulus-1
    factorization this reaches every word of cumulus c, each from one
    (parent, factor) pair; a word reached twice raises InternalError.
    """
    level = [(u, Word.identity(), u) for u in sorted(CUMULUS_ONE, key=Word.sort_key)]
    yield level
    for c in range(2, c_max + 1):
        routes = {}
        for parent, _, _ in level:
            for u in CUMULUS_ONE:
                w = parent * u
                if word_invariants(w).C != c:
                    continue
                if w in routes:
                    first = routes[w]
                    raise InternalError(
                        f"{w} of cumulus {c} is both {first[0]} * {first[1]} and {parent} * {u}"
                    )
                routes[w] = (parent, u)
        level = [(w, *routes[w]) for w in sorted(routes, key=Word.sort_key)]
        yield level


def enum_words(c_max: int) -> Iterator[Word]:
    """Every word of cumulus 1..c_max exactly once, graded by cumulus and
    lexicographic within each grade (see :func:`_cumulus_levels`)."""
    check_cumulus(c_max)
    for level in _cumulus_levels(c_max):
        for w, _, _ in level:
            yield w


def _cumulus_images(c_max: int, up: UnitPair) -> Iterator[tuple[Word, Mat2Poly]]:
    """Every word of enum_words(c_max) with its image under up.  A word's
    image is its parent's image times the image of its last cumulus-1
    factor, one product with a degree-2 right factor; only the previous
    level's images are kept."""
    factor_images = {u: eval_word(u, up) for u in CUMULUS_ONE}
    images = {Word.identity(): Mat2Poly.identity(up.u.field)}
    for level in _cumulus_levels(c_max):
        images = {w: images[parent] * factor_images[u] for w, parent, u in level}
        yield from images.items()


def verify_tables(c_max: int, field: Field) -> CampaignReport:
    """For every enumerated word: the primary-pair image has degree exactly
    twice the cumulus, and its leading coefficient is the sign times the
    (beginning, end) table entry."""
    check_cumulus(c_max)

    def outcomes():
        for w, img in _cumulus_images(c_max, unit_pair("primary", field)):
            invs = word_invariants(w)
            expected = table_leading_term(invs.B, invs.E, field)
            expected = tuple(tuple(field(invs.sgn) * e for e in row) for row in expected)
            ok = img.degree == 2 * invs.C and img.coeff_at(2 * invs.C) == expected
            yield None if ok else {
                "word": w.render(),
                "cumulus": invs.C,
                "degree": None if img.is_zero else int(img.degree),
                "expected_leading": render_scalar_mat(expected),
                "actual_leading": render_scalar_mat(img.coeff_at(2 * invs.C)),
            }

    params = {"c_max": c_max, "field": repr(field)}
    return _campaign("verify-tables", params, None, outcomes())


# The most pool words a random_laurent draw takes.
RANDOM_MAX_SUPPORT = 4


def random_laurent(rng: Random, field: Field, pool: Sequence[Word]) -> LaurentPoly:
    """A random polynomial with support drawn from the pool (never zero, and
    always containing at least one non-identity word)."""
    size = rng.randint(1, RANDOM_MAX_SUPPORT)
    support = rng.sample(list(pool), min(size, len(pool)))
    terms = {w: field.random_nonzero(rng) for w in support}
    if rng.random() < 0.4:
        terms[Word.identity()] = field.random_nonzero(rng)
    return LaurentPoly(field, terms)


def verify_obstruction_consistency(
    sample_count: int, c_max: int, field: Field, seed: int = 0
) -> CampaignReport:
    """Random polynomials: the obstruction matrix equals the coefficient of
    T^(2*cumulus) of the primary-pair evaluation, exactly."""
    check_count("sample_count", sample_count)
    check_cumulus(c_max)

    def outcomes():
        rng = Random(seed)
        pool = list(enum_words(c_max))
        up = unit_pair("primary", field)
        for _ in range(sample_count):
            f = random_laurent(rng, field, pool)
            c = max_cumulus(f)
            lhs = eval_laurent(f, up).coeff_at(2 * c)
            rhs = obstruction_matrix(f)
            yield None if lhs == rhs else {
                "input": f.render(),
                "cumulus": c,
                "evaluation_coeff": render_scalar_mat(lhs),
                "obstruction": render_scalar_mat(rhs),
            }

    params = {"sample_count": sample_count, "c_max": c_max, "field": repr(field)}
    return _campaign("verify-obstruction-consistency", params, seed, outcomes())


def _coefficient_pairs(field: Field, coeff_samples: int, rng: Random):
    """Nonzero coefficient pairs: exhaustive over small finite fields,
    seeded samples otherwise."""
    if field.is_finite and (field.order - 1) ** 2 <= max(coeff_samples, 16):
        nonzero = [field(v) for v in range(1, field.order)]
        return [(a, b) for a in nonzero for b in nonzero]
    pairs = []
    for _ in range(coeff_samples):
        a = Fraction(rng.choice([1, -1, 2, -2, 3, 5]), rng.choice([1, 1, 2, 3]))
        b = Fraction(rng.choice([1, -1, 2, -2, 3, 5]), rng.choice([1, 1, 2, 3]))
        pairs.append((field(a), field(b)))
    return pairs


def _transforms(w1: Word) -> tuple:
    """The word maps of the falsifier chain, each keeping identity status:
    both translations by w1^-1, X <-> Y and X -> X^-1."""
    inv = w1.inv()
    return (
        ("obstruction(w1^-1*f)", lambda w: inv * w),
        ("obstruction(f*w1^-1)", lambda w: w * inv),
        ("obstruction(swapXY)", WordImages((W_Y, W_X))),
        ("obstruction(invertX)", WordImages((W_XINV, W_Y))),
    )


def falsify_three_term(f: LaurentPoly, w1: Word, units: dict[str, UnitPair]) -> str | None:
    """Try the falsifier chain on f = 1 + a1*w1 + a2*w2; the name of the
    first successful falsifier, or None for a survivor."""
    if not scalar_mat_is_zero(obstruction_matrix(f)):
        return "obstruction"
    for name, fn in _transforms(w1):
        if not scalar_mat_is_zero(obstruction_matrix(f.map_words(fn))):
            return name
    for name, up in units.items():
        if not eval_laurent(f, up).is_zero:
            return f"eval({name})"
    return None


def support3_campaign(
    c_max: int = 2,
    fields: Sequence[Field] | None = None,
    coeff_samples: int = 5,
    seed: int = 0,
) -> CampaignReport:
    """Every candidate f = 1 + a1*w1 + a2*w2 (distinct nontrivial words of
    cumulus <= c_max, nonzero coefficients) must be falsified by the chain of
    obstruction matrices, transforms, and direct evaluations.  Survivors are
    reported as failures; none are expected."""
    check_count("coeff_samples", coeff_samples)
    check_cumulus(c_max)
    if fields is None:
        fields = [Field(2), Field(3), Field(0)]

    def outcomes():
        rng = Random(seed)
        one = Word.identity()
        words = list(enum_words(c_max))
        for field in fields:
            pairs = _coefficient_pairs(field, coeff_samples, rng)
            units = {kind: unit_pair(kind, field) for kind in ("primary", "alternate", "swapped")}
            for i, w1 in enumerate(words):
                for w2 in words[i + 1 :]:
                    for a1, a2 in pairs:
                        f = LaurentPoly(field, {one: field.one, w1: a1, w2: a2})
                        falsified = falsify_three_term(f, w1, units) is not None
                        yield None if falsified else {
                            "field": repr(field),
                            "input": f.render(),
                            "w1": w1.render(),
                            "w2": w2.render(),
                        }

    params = {"c_max": c_max, "fields": [repr(f) for f in fields], "coeff_samples": coeff_samples}
    return _campaign("support3", params, seed, outcomes())


def cprime_bound_campaign(
    c_max: int, field: Field | None = None, samples: int = 50, seed: int = 0
) -> CampaignReport:
    """Alternate-pair degree bound: deg of the image is at most twice the
    total exponent weight, for every word of weight <= c_max and for sampled
    polynomials supported on them."""
    check_count("samples", samples)
    _check_words(c_max, lambda c: 2 * 3**c - 1, f"2*3^{c_max} - 1 words of weight <= {c_max}")
    if field is None:
        field = Field(0)

    def outcomes():
        up = unit_pair("alternate", field)
        rng = Random(seed)
        pool = list(words_of_weight_at_most(c_max))
        for w in pool:
            img = eval_word(w, up)
            yield None if img.degree <= 2 * w.weight else {
                "word": w.render(), "weight": w.weight, "degree": int(img.degree)
            }
        nontrivial = [w for w in pool if not w.is_identity]
        for _ in range(samples):
            f = random_laurent(rng, field, nontrivial)
            bound = 2 * max(w.weight for w in f.terms)
            img = eval_laurent(f, up)
            yield None if img.degree <= bound else {
                "input": f.render(), "weight_bound": bound, "degree": int(img.degree)
            }

    params = {"c_max": c_max, "field": repr(field), "samples": samples}
    return _campaign("cprime-bound", params, seed, outcomes())
