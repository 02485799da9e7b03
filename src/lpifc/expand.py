"""Truncated power-series expansion of Laurent polynomials.

Substituting X_i -> 1 + X_i*T_i (and inverses by the alternating geometric
series) turns a Laurent polynomial into a series whose coefficient at the
commuting monomial T_1^{i_1}...T_n^{i_n} is a homogeneous noncommutative
polynomial of degree i_j in X_j, held as a LaurentPoly on positive words.
The component at multidegree zero is the scalar f(1,...,1); the minimal
total degree m carrying a nonzero component, and the sum of the components
at that degree, drive the nilpotent-ideal vanishing check.
"""

from __future__ import annotations

import math

from .errors import AllZero, InvalidParameter
from .exactalg import Field
from .laurent import LaurentPoly
from .parsing import render_terms, sparse_sum
from .words import Word, variable_names


def _multidegree(w: Word, nvars: int) -> tuple[int, ...]:
    """The letter count of each variable in a positive word: the sums of its
    block exponents by generator."""
    counts = [0] * nvars
    for gen, exp in w.blocks:
        counts[gen] += exp
    return tuple(counts)


def render_component(p: LaurentPoly, nvars: int) -> str:
    """A sum of positive words with each word spelled out letter by letter,
    ``X*X*Y``, in graded-lexicographic order of the letter sequences, in the
    :func:`~lpifc.words.variable_names` of ``nvars``."""
    names = variable_names(nvars)
    spelled = {w: tuple(gen for gen, exp in w.blocks for _ in range(exp)) for w in p.terms}
    order = sorted(spelled, key=lambda w: (len(spelled[w]), spelled[w]))
    return render_terms(("*".join(names[v] for v in spelled[w]), p.terms[w].v) for w in order)


class TruncSeries:
    """A series truncated at a total-degree bound: one LaurentPoly on positive
    words in ``nvars`` variables, none of weight above ``bound``.  The
    component at a multidegree is the sum of the terms of that multidegree,
    so it is homogeneous by construction."""

    __slots__ = ("bound", "nvars", "poly")

    def __init__(self, bound: int, nvars: int, poly: LaurentPoly):
        self.bound = bound
        self.nvars = nvars
        self.poly = poly

    @property
    def field(self) -> Field:
        return self.poly.field

    @property
    def comps(self) -> dict[tuple[int, ...], LaurentPoly]:
        """The nonzero components, keyed by multidegree."""
        groups: dict[tuple[int, ...], dict] = {}
        for w, c in self.poly.terms.items():
            groups.setdefault(_multidegree(w, self.nvars), {})[w] = c
        return {md: LaurentPoly._from_sum(self.field, terms) for md, terms in groups.items()}

    def component(self, md: tuple[int, ...]) -> LaurentPoly:
        return self.comps.get(md, LaurentPoly.zero(self.field))

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def _bound_with(self, other: "TruncSeries") -> int:
        """The bound of a sum or product with a series in as many variables."""
        if other.nvars != self.nvars:
            raise InvalidParameter("cannot mix series in different numbers of variables")
        return min(self.bound, other.bound)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        bound = self._bound_with(other)
        total = self.poly + other.poly
        kept = {w: c for w, c in total.terms.items() if w.weight <= bound}
        return TruncSeries(bound, self.nvars, LaurentPoly._from_sum(self.field, kept))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        bound = self._bound_with(other)
        pairs = ((w1 * w2, c1 * c2) for w1, c1 in self.poly.terms.items()
                 for w2, c2 in other.poly.terms.items() if w1.weight + w2.weight <= bound)
        return TruncSeries(bound, self.nvars, LaurentPoly._from_sum(self.field, sparse_sum(pairs)))

    def scale(self, c) -> "TruncSeries":
        return TruncSeries(self.bound, self.nvars, self.poly.scale(c))

    def to_dict(self) -> dict:
        comps = self.comps
        return {
            ",".join(map(str, md)): render_component(comps[md], self.nvars)
            for md in sorted(comps, key=lambda m: (sum(m), m))
        }


def _binomial(e: int, k: int) -> int:
    """Generalized binomial coefficient C(e, k) for integer e (k >= 0)."""
    if e >= 0:
        return math.comb(e, k) if k <= e else 0
    return (-1) ** k * math.comb(-e + k - 1, k)


def default_truncation(f: LaurentPoly) -> int:
    """Default total-degree bound: twice the maximal weight plus two."""
    weight = max((w.weight for w in f.terms), default=0)
    return 2 * weight + 2


def expand(f: LaurentPoly, bound: int | None = None, nvars: int | None = None) -> TruncSeries:
    """Expand f through X_i -> 1 + X_i*T_i, truncated at the total bound:
    each block X_g^e becomes sum_k C(e, k)*X_g^k with k <= bound."""
    if bound is None:
        bound = default_truncation(f)
    if bound < 0:
        raise InvalidParameter("truncation bound must be nonnegative")
    n = f.nvars if nvars is None else nvars
    if n < f.nvars:
        raise InvalidParameter("declared variable count below the polynomial's rank")
    if n == 0:
        n = 1
    total = TruncSeries(bound, n, LaurentPoly.zero(f.field))
    for w, coeff in f.terms.items():
        term = TruncSeries(bound, n, LaurentPoly(f.field, {Word.identity(): 1}))
        for gen, exp in w.blocks:
            # C(e, k) = 0 for k > e >= 0, so a positive block stops at e.
            top = bound if exp < 0 else min(exp, bound)
            block = {Word.generator(gen, k): _binomial(exp, k) for k in range(top + 1)}
            term = term * TruncSeries(bound, n, LaurentPoly(f.field, block))
        total = total + term.scale(coeff)
    return total


def minimal_degree(ts: TruncSeries) -> tuple[int, list[tuple[int, ...]]]:
    """The smallest total degree carrying a nonzero component, with the list
    of such multidegrees.  AllZero means the truncation bound must be raised.
    """
    if ts.is_zero:
        raise AllZero("every component vanished within the truncation bound")
    m = min(w.weight for w in ts.poly.terms)
    mds = sorted({_multidegree(w, ts.nvars) for w in ts.poly.terms if w.weight == m})
    return m, mds


def minimal_component_sum(ts: TruncSeries) -> LaurentPoly:
    """The sum of all components at the minimal total degree: the terms of
    minimal weight."""
    m, _ = minimal_degree(ts)
    return LaurentPoly._from_sum(ts.field, {w: c for w, c in ts.poly.terms.items() if w.weight == m})
