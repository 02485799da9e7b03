"""Truncated power-series expansion of Laurent polynomials.

Substituting X_i -> 1 + X_i*T_i (and inverses by the alternating geometric
series) turns a Laurent polynomial into a series whose coefficient at the
commuting monomial T_1^{i_1}...T_n^{i_n} is a homogeneous noncommutative
polynomial of degree i_j in X_j.  The component at multidegree zero is the
scalar f(1,...,1); the minimal total degree m carrying a nonzero component,
and the sum of the components at that degree, drive the nilpotent-ideal
vanishing check.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Mapping

from .errors import AllZero, InvalidParameter
from .exactalg import Field, FieldElem
from .laurent import LaurentPoly
from .parsing import render_terms, sparse_sum

Monomial = tuple[int, ...]


def _check_monomials(nvars: int, mons: Iterable[Monomial]) -> None:
    if any(v < 0 or v >= nvars for mon in mons for v in mon):
        raise InvalidParameter("monomial variable index out of range")


def _var_names(nvars: int) -> tuple[str, ...]:
    if nvars <= 2:
        return ("X", "Y")[:max(nvars, 1)] if nvars else ()
    return tuple(f"X{i + 1}" for i in range(nvars))


class NCPoly:
    """A polynomial in noncommuting variables X_1..X_n: a finite map from
    variable-index sequences to nonzero coefficients."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: Mapping[Monomial, object] = ()):
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        _check_monomials(nvars, (mon for mon, _ in items))
        self.field = field
        self.nvars = nvars
        self.terms = sparse_sum((mon, field(coeff)) for mon, coeff in items)

    def _sum(self, other: "NCPoly", pairs: Iterable[tuple[Monomial, FieldElem]]) -> "NCPoly":
        """The :func:`sparse_sum` of ``pairs``, built from this and ``other``'s
        terms, with the constructor's index check if ``other`` has more
        variables."""
        out = NCPoly.__new__(NCPoly)
        out.field, out.nvars, out.terms = self.field, self.nvars, sparse_sum(pairs)
        if other.nvars > self.nvars:
            _check_monomials(self.nvars, out.terms)
        return out

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "NCPoly":
        return cls(field, nvars)

    @classmethod
    def one(cls, field: Field, nvars: int) -> "NCPoly":
        return cls(field, nvars, {(): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "NCPoly") -> "NCPoly":
        if other.terms and other.field != self.field:
            raise InvalidParameter("cannot mix elements of different fields")
        return self._sum(other, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + other.scale(self.field(-1))

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        pairs = ((m1 + m2, c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in other.terms.items())
        return self._sum(other, pairs)

    def scale(self, c) -> "NCPoly":
        c = self.field(c)
        return NCPoly(self.field, self.nvars, {m: v * c for m, v in self.terms.items()})

    def multidegree_of(self, mon: Monomial) -> tuple[int, ...]:
        counts = [0] * self.nvars
        for v in mon:
            counts[v] += 1
        return tuple(counts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCPoly)
            and other.field == self.field
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.nvars, frozenset((m, c.v) for m, c in self.terms.items())))

    def render(self) -> str:
        names = _var_names(self.nvars)
        # Graded-lexicographic monomial order for deterministic output.
        mons = sorted(self.terms, key=lambda m: (len(m), m))
        return render_terms(("*".join(names[v] for v in mon), self.terms[mon].v) for mon in mons)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"NCPoly({self.render()!r})"


class TruncSeries:
    """A series truncated at a total-degree bound: one NCPoly with no monomial
    longer than ``bound``.  The component at a multidegree is the sum of the
    terms of that multidegree, so it is homogeneous by construction."""

    __slots__ = ("bound", "poly")

    def __init__(self, bound: int, poly: NCPoly):
        self.bound = bound
        self.poly = poly

    @property
    def field(self) -> Field:
        return self.poly.field

    @property
    def nvars(self) -> int:
        return self.poly.nvars

    @property
    def comps(self) -> dict[tuple[int, ...], NCPoly]:
        """The nonzero components, keyed by multidegree."""
        groups: dict[tuple[int, ...], dict[Monomial, FieldElem]] = {}
        for mon, c in self.poly.terms.items():
            groups.setdefault(self.poly.multidegree_of(mon), {})[mon] = c
        return {md: NCPoly(self.field, self.nvars, terms) for md, terms in groups.items()}

    def component(self, md: tuple[int, ...]) -> NCPoly:
        return self.comps.get(md, NCPoly.zero(self.field, self.nvars))

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        bound = min(self.bound, other.bound)
        total = self.poly + other.poly
        kept = {mon: c for mon, c in total.terms.items() if len(mon) <= bound}
        return TruncSeries(bound, NCPoly(self.field, self.nvars, kept))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        bound = min(self.bound, other.bound)
        pairs = ((m1 + m2, c1 * c2) for m1, c1 in self.poly.terms.items()
                 for m2, c2 in other.poly.terms.items() if len(m1) + len(m2) <= bound)
        return TruncSeries(bound, self.poly._sum(other.poly, pairs))

    def scale(self, c) -> "TruncSeries":
        return TruncSeries(self.bound, self.poly.scale(c))

    def to_dict(self) -> dict:
        comps = self.comps
        return {
            ",".join(map(str, md)): comps[md].render()
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
    total = TruncSeries(bound, NCPoly.zero(f.field, n))
    for w, coeff in f.terms.items():
        term = TruncSeries(bound, NCPoly.one(f.field, n))
        for gen, exp in w.blocks:
            # C(e, k) = 0 for k > e >= 0, so a positive block stops at e.
            top = bound if exp < 0 else min(exp, bound)
            block = {(gen,) * k: _binomial(exp, k) for k in range(top + 1)}
            term = term * TruncSeries(bound, NCPoly(f.field, n, block))
        total = total + term.scale(coeff)
    return total


def minimal_degree(ts: TruncSeries) -> tuple[int, list[tuple[int, ...]]]:
    """The smallest total degree carrying a nonzero component, with the list
    of such multidegrees.  AllZero means the truncation bound must be raised.
    """
    if ts.is_zero:
        raise AllZero("every component vanished within the truncation bound")
    m = min(len(mon) for mon in ts.poly.terms)
    mds = sorted({ts.poly.multidegree_of(mon) for mon in ts.poly.terms if len(mon) == m})
    return m, mds


def minimal_component_sum(ts: TruncSeries) -> NCPoly:
    """The sum of all components at the minimal total degree: the terms of
    minimal length."""
    m, _ = minimal_degree(ts)
    return NCPoly(ts.field, ts.nvars, {mon: c for mon, c in ts.poly.terms.items() if len(mon) == m})
