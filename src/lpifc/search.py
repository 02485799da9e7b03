"""Exhaustive verification campaigns over enumerated words and sampled
polynomials: cumulus-graded word enumeration, the leading-term table sweep,
obstruction-vs-evaluation consistency, the three-term-support falsification
campaign, and the alternate-pair degree bound.

Campaigns are deterministic: all randomness flows from a single seed recorded
in the report, enumeration is graded by cumulus then lexicographic, and the
JSON serialization is canonical (timings are opt-in so re-runs are
byte-identical).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from random import Random
from typing import Iterable, Iterator, Sequence

from .errors import InternalError, InvalidParameter, TooLargeForExhaustive, check_count
from .exactalg import Field, Mat2Poly, render_scalar_mat, scalar_mat_is_zero
from .fcrep import UnitPair, eval_laurent, eval_word, unit_pair
from .laurent import LaurentPoly, max_cumulus, obstruction_matrix, table_leading_term
from .words import CUMULUS_ONE, Word, word_invariants, words_of_weight_at_most


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
    duration_ms: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def passed(self) -> int:
        return self.checked - self.failed

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "campaign": self.campaign,
            "params": self.params,
            "checked": self.checked,
            "passed": self.passed,
            "failed": self.failed,
            "failures": self.failures,
            "seed": self.seed,
        }
        if include_timing:
            out["duration_ms"] = self.duration_ms
        return out


def _campaign(
    name: str, params: dict, seed: int | None, outcomes: Iterable[dict | None]
) -> CampaignReport:
    """Run a campaign's checks, one per item of ``outcomes``: None when the
    check passed, else the failure record with the inputs that reproduce it.
    The duration is the time taken to exhaust ``outcomes``."""
    start = time.perf_counter()
    checked, failures = 0, []
    for outcome in outcomes:
        checked += 1
        if outcome is not None:
            failures.append(outcome)
    duration_ms = (time.perf_counter() - start) * 1000
    return CampaignReport(name, params, checked, failures, seed, duration_ms)


# The most words of cumulus <= c_max that a run may enumerate: 2*(4^c_max - 1)
# words, so c_max 7 (32,766 words) is the largest cumulus it admits.
WORD_LIMIT = 2**15


def check_cumulus(c_max: int) -> None:
    """c_max must be at least 1, and its 2*(4^c_max - 1) words of cumulus
    <= c_max at most WORD_LIMIT; checked before any word is built."""
    if c_max < 1:
        raise InvalidParameter("c_max must be at least 1")
    # 2*(4^c_max - 1) exceeds 2^c_max, so a c_max of WORD_LIMIT's bit length
    # or more is over the bound without forming 4^c_max.
    if c_max >= WORD_LIMIT.bit_length() or 2 * (4**c_max - 1) > WORD_LIMIT:
        raise TooLargeForExhaustive(
            f"2*(4^{c_max} - 1) words of cumulus <= {c_max} exceed the bound"
            f" WORD_LIMIT = {WORD_LIMIT}"
        )


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


def falsify_three_term(f: LaurentPoly, w1: Word, units: dict[str, UnitPair]) -> str | None:
    """Try the falsifier chain on f = 1 + a1*w1 + a2*w2; the name of the
    first successful falsifier, or None for a survivor."""
    if not scalar_mat_is_zero(obstruction_matrix(f)):
        return "obstruction"
    transforms = [
        ("obstruction(w1^-1*f)", f.left_mul(w1.inv())),
        ("obstruction(f*w1^-1)", f.right_mul(w1.inv())),
        ("obstruction(swapXY)", f.swap_xy()),
        ("obstruction(invertX)", f.invert_x()),
    ]
    for name, g in transforms:
        if not scalar_mat_is_zero(obstruction_matrix(g)):
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
        for field in fields:
            words = list(enum_words(c_max))
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
    if c_max < 1:
        raise InvalidParameter("c_max must be at least 1")
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
