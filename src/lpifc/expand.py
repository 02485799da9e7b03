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
from typing import Iterable, Mapping, Sequence

from .errors import AllZero, DimensionMismatch, InvalidParameter
from .exactalg import Field, FieldElem
from .laurent import LaurentPoly
from .parsing import sparse_sum

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

    def is_homogeneous_of(self, multidegree: tuple[int, ...]) -> bool:
        return all(self.multidegree_of(m) == multidegree for m in self.terms)

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
        if self.is_zero:
            return "0"
        names = _var_names(self.nvars)
        # Graded-lexicographic monomial order for deterministic output.
        mons = sorted(self.terms, key=lambda m: (len(m), m))
        parts = []
        for mon in mons:
            c = self.terms[mon]
            body = "*".join(names[v] for v in mon) if mon else "1"
            if mon and c.v == 1:
                text = body
            elif mon and c.v == -1 and self.field.p == 0:
                text = f"-{body}"
            elif mon:
                text = f"{c}*{body}"
            else:
                text = str(c)
            parts.append(text)
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"NCPoly({self.render()!r})"


class TruncSeries:
    """Homogeneous components indexed by multidegree, truncated at a total
    degree bound.  Components are validated to be homogeneous of their index.
    """

    __slots__ = ("field", "nvars", "bound", "comps")

    def __init__(self, field: Field, nvars: int, bound: int, comps: Mapping[tuple[int, ...], NCPoly] = ()):
        items = comps.items() if isinstance(comps, Mapping) else comps
        acc: dict[tuple[int, ...], NCPoly] = {}
        for md, poly in items:
            if len(md) != nvars:
                raise InvalidParameter("multidegree length must equal the variable count")
            if sum(md) > bound:
                continue
            if poly.is_zero:
                continue
            if not poly.is_homogeneous_of(md):
                raise InvalidParameter(f"component at {md} is not homogeneous of that multidegree")
            acc[md] = poly
        self.field = field
        self.nvars = nvars
        self.bound = bound
        self.comps = acc

    @classmethod
    def one(cls, field: Field, nvars: int, bound: int) -> "TruncSeries":
        zero_md = (0,) * nvars
        return cls(field, nvars, bound, {zero_md: NCPoly.one(field, nvars)})

    def component(self, md: tuple[int, ...]) -> NCPoly:
        return self.comps.get(md, NCPoly.zero(self.field, self.nvars))

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        comps = sparse_sum(chain(self.comps.items(), other.comps.items()))
        return TruncSeries(self.field, self.nvars, min(self.bound, other.bound), comps)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        bound = min(self.bound, other.bound)
        comps = sparse_sum(
            (tuple(a + b for a, b in zip(md1, md2)), p1 * p2)
            for md1, p1 in self.comps.items()
            for md2, p2 in other.comps.items()
            if sum(md1) + sum(md2) <= bound
        )
        return TruncSeries(self.field, self.nvars, bound, comps)

    def scale(self, c) -> "TruncSeries":
        return TruncSeries(
            self.field, self.nvars, self.bound, {md: p.scale(c) for md, p in self.comps.items()}
        )

    def to_dict(self) -> dict:
        return {
            ",".join(map(str, md)): self.comps[md].render()
            for md in sorted(self.comps, key=lambda m: (sum(m), m))
        }


def _binomial(e: int, k: int) -> int:
    """Generalized binomial coefficient C(e, k) for integer e (k >= 0)."""
    if e >= 0:
        return math.comb(e, k) if k <= e else 0
    return (-1) ** k * math.comb(-e + k - 1, k)


def _block_series(field: Field, nvars: int, gen: int, exp: int, bound: int) -> TruncSeries:
    """(1 + X_gen*T_gen)^exp truncated at the total-degree bound."""
    comps = {}
    for k in range(bound + 1):
        c = _binomial(exp, k)
        if c == 0:
            continue
        md = tuple(k if i == gen else 0 for i in range(nvars))
        comps[md] = NCPoly(field, nvars, {(gen,) * k: c})
    return TruncSeries(field, nvars, bound, comps)


def default_truncation(f: LaurentPoly) -> int:
    """Default total-degree bound: twice the maximal weight plus two."""
    weight = max((w.weight for w in f.terms), default=0)
    return 2 * weight + 2


def expand(f: LaurentPoly, bound: int | None = None, nvars: int | None = None) -> TruncSeries:
    """Expand f through X_i -> 1 + X_i*T_i, truncated at the total bound."""
    if bound is None:
        bound = default_truncation(f)
    if bound < 0:
        raise InvalidParameter("truncation bound must be nonnegative")
    n = f.nvars if nvars is None else nvars
    if n < f.nvars:
        raise InvalidParameter("declared variable count below the polynomial's rank")
    if n == 0:
        n = 1
    total = TruncSeries(f.field, n, bound)
    for w, coeff in f.terms.items():
        term = TruncSeries.one(f.field, n, bound)
        for gen, exp in w.blocks:
            term = term * _block_series(f.field, n, gen, exp, bound)
        total = total + term.scale(coeff)
    return total


def minimal_degree(ts: TruncSeries) -> tuple[int, list[tuple[int, ...]]]:
    """The smallest total degree carrying a nonzero component, with the list
    of such multidegrees.  AllZero means the truncation bound must be raised.
    """
    if ts.is_zero:
        raise AllZero("every component vanished within the truncation bound")
    m = min(sum(md) for md in ts.comps)
    mds = sorted((md for md in ts.comps if sum(md) == m))
    return m, mds


def minimal_component_sum(ts: TruncSeries) -> NCPoly:
    """The sum of all components at the minimal total degree."""
    m, mds = minimal_degree(ts)
    out = NCPoly.zero(ts.field, ts.nvars)
    for md in mds:
        out = out + ts.comps[md]
    return out


def eval_ncpoly(p: NCPoly, assignment: Sequence) -> object:
    """Substitute algebra elements for the variables and evaluate."""
    if len(assignment) != p.nvars:
        raise DimensionMismatch(
            f"assignment of length {len(assignment)} for {p.nvars} variables"
        )
    if not assignment:
        raise DimensionMismatch("evaluation needs at least one variable")
    algebra = assignment[0].algebra
    out = algebra.zero()
    for mon, coeff in p.terms.items():
        term = algebra.one()
        for v in mon:
            term = term * assignment[v]
        out = out + term.scale(coeff)
    return out
