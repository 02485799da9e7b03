"""Finite groups by multiplication table and finite-dimensional algebras by
structure constants: group algebras, matrix algebras, square-zero quotient
algebras, unit arithmetic through the left-regular representation, identity
falsification by unit sampling, standard polynomials, and the square-zero /
zero-product vanishing checks.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    InternalError,
    InvalidParameter,
    NonInvertibleOrder,
    NotAUnit,
    ParseError,
    TooLargeForExhaustive,
    ZeroPolynomial,
    check_count,
)
from .exactalg import Field, FieldElem, UniPoly, _plain_elem, _reduce, binary_power
from .laurent import LaurentPoly
from .linalg import solve
from .parsing import is_digits, parse_int
from .words import Word, WordImages

# -- finite groups -----------------------------------------------------------


class FiniteGroup:
    """A finite group as an order-n multiplication table over element labels.

    The table is validated on construction: closure, identity, inverses, and
    associativity all hold or the constructor raises.
    """

    __slots__ = ("order", "table", "identity", "inverses", "labels", "name")

    def __init__(self, table: Sequence[Sequence[int]], labels: Sequence[str] | None = None,
                 name: str = "group"):
        n = len(table)
        self.order = n
        self.table = tuple(tuple(row) for row in table)
        self.labels = tuple(labels) if labels is not None else tuple(f"g{i}" for i in range(n))
        self.name = name
        if len(self.labels) != n:
            raise InvalidParameter("label count must equal the group order")
        self._validate()
        self.identity = self._find_identity()
        self.inverses = self._find_inverses()

    def _validate(self):
        n = self.order
        for i, row in enumerate(self.table):
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise InvalidParameter(f"row {i} of the multiplication table is malformed")
        t = self.table
        for i in range(n):
            for j in range(n):
                tij = t[i][j]
                for k in range(n):
                    if t[tij][k] != t[i][t[j][k]]:
                        raise InvalidParameter("multiplication table is not associative")

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][i] == i and self.table[i][e] == i for i in range(self.order)):
                return e
        raise InvalidParameter("multiplication table has no identity")

    def _find_inverses(self) -> tuple[int, ...]:
        inv = []
        for i in range(self.order):
            j = next((j for j in range(self.order)
                      if self.table[i][j] == self.identity and self.table[j][i] == self.identity), None)
            if j is None:
                raise InvalidParameter(f"element {i} has no inverse")
            inv.append(j)
        return tuple(inv)

    def cyclic_subgroup(self, i: int) -> list[int]:
        out, cur = [self.identity], i
        while cur != self.identity:
            out.append(cur)
            cur = self.table[cur][i]
        return out

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def _tabulate(elements: Sequence, mul, labels: Sequence[str], name: str) -> FiniteGroup:
    """The group of ``elements`` under ``mul``, indexed in the order given."""
    index = {x: i for i, x in enumerate(elements)}
    return FiniteGroup([[index[mul(x, y)] for y in elements] for x in elements], labels, name)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p*q)(i) = p(q(i)) on permutations given as image tuples."""
    return tuple(p[i] for i in q)


def _permutation_group(perms: Iterable[tuple[int, ...]], name: str) -> FiniteGroup:
    """The group of the given permutations in lexicographic order."""
    perms = sorted(perms)
    return _tabulate(perms, _compose, ["".join(map(str, p)) for p in perms], name)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidParameter("cyclic group order must be positive")
    labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return _tabulate(range(n), lambda i, j: (i + j) % n, labels, f"cyclic({n})")


def symmetric_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 4:
        raise InvalidParameter("symmetric groups are supported for n <= 4")
    return _permutation_group(itertools.permutations(range(n)), f"sym({n})")


def dihedral_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidParameter("dihedral parameter must be positive")
    # r^i s^a as (i, a), rotations first.
    def mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        (i, a), (j, b) = x, y
        return (i + (-1) ** a * j) % n, (a + b) % 2

    elements = [(i, a) for a in range(2) for i in range(n)]
    rotations = ["1" if i == 0 else "r" if i == 1 else f"r^{i}" for i in range(n)]
    labels = rotations + ["s"] + [f"{r}*s" for r in rotations[1:]]
    return _tabulate(elements, mul, labels, f"dihedral({n})")


def quaternion_group() -> FiniteGroup:
    # 1, -1, i, -i, j, -j, k, -k as (sign, unit); i*j = k, j*k = i, k*i = j
    # and x*x = -1 give every product of units.
    def mul(x: tuple[int, str], y: tuple[int, str]) -> tuple[int, str]:
        (s, u), (t, v) = x, y
        if u == "1" or v == "1":
            return s * t, u if v == "1" else v
        if u == v:
            return -s * t, "1"
        sign = 1 if u + v in "ijki" else -1  # i*j, j*k, k*i
        return sign * s * t, next(w for w in "ijk" if w not in u + v)

    elements = [(s, u) for u in "1ijk" for s in (1, -1)]
    return _tabulate(elements, mul, [u if s > 0 else f"-{u}" for s, u in elements], "quaternion8")


def product_group(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    elements = list(itertools.product(range(g.order), range(h.order)))
    labels = [f"({g.labels[i]},{h.labels[j]})" for i, j in elements]
    return _tabulate(elements, lambda x, y: (g.table[x[0]][y[0]], h.table[x[1]][y[1]]),
                     labels, f"{g.name}x{h.name}")


def build_group(spec: str) -> FiniteGroup:
    """Build a group from a spec string: ``cyclic:N``, ``sym:N``,
    ``dihedral:N``, ``quaternion8``, or products joined with ``x`` such as
    ``cyclic:2xcyclic:3``."""
    parts = spec.split("x")
    groups = []
    for part in parts:
        name, _, arg = part.partition(":")
        if name == "cyclic":
            groups.append(cyclic_group(_int_arg(arg, part)))
        elif name == "sym":
            groups.append(symmetric_group(_int_arg(arg, part)))
        elif name == "dihedral":
            groups.append(dihedral_group(_int_arg(arg, part)))
        elif name == "quaternion8":
            groups.append(quaternion_group())
        else:
            raise InvalidParameter(f"unknown group kind {name!r}")
    out = groups[0]
    for g in groups[1:]:
        out = product_group(out, g)
    return out


def _int_arg(arg: str, part: str) -> int:
    if not is_digits(arg):
        raise InvalidParameter(f"group spec {part!r} needs an integer parameter")
    return int(arg)


# -- finite-dimensional algebras ---------------------------------------------


class AlgebraElem:
    """An element of a FinAlgebra as a coefficient vector over the basis.

    The coefficients are kept as plain numbers in the private slot ``_c``
    (over F_p ints in [0, p), over Q ints while integral and ``Fraction``s
    otherwise), as in :class:`UniPoly`; ``coeffs`` hands out
    :class:`FieldElem`s.
    """

    __slots__ = ("algebra", "_c")

    def __init__(self, algebra: "FinAlgebra", coeffs: Sequence):
        if len(coeffs) != algebra.dim:
            raise InvalidParameter("coefficient vector length must equal the dimension")
        self.algebra = algebra
        self._c = algebra._plain(coeffs)

    @classmethod
    def _new(cls, algebra: "FinAlgebra", c: tuple) -> "AlgebraElem":
        """Wrap a canonical plain vector, skipping the coercion of ``__init__``."""
        e = object.__new__(cls)
        e.algebra = algebra
        e._c = c
        return e

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        field = self.algebra.field
        return tuple(_plain_elem(field, c) for c in self._c)

    def _check(self, other: "AlgebraElem"):
        if other.algebra is not self.algebra:
            raise InvalidParameter("elements belong to different algebras")

    def _combine(self, cs) -> "AlgebraElem":
        return AlgebraElem._new(self.algebra, self.algebra._reduce(cs))

    def __add__(self, other: "AlgebraElem") -> "AlgebraElem":
        self._check(other)
        return self._combine([a + b for a, b in zip(self._c, other._c)])

    def __sub__(self, other: "AlgebraElem") -> "AlgebraElem":
        self._check(other)
        return self._combine([a - b for a, b in zip(self._c, other._c)])

    def __neg__(self) -> "AlgebraElem":
        return self._combine([-a for a in self._c])

    def __mul__(self, other):
        if isinstance(other, AlgebraElem):
            self._check(other)
            return AlgebraElem._new(self.algebra, self.algebra._mul_raw(self._c, other._c))
        if isinstance(other, (FieldElem, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (FieldElem, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "AlgebraElem":
        (c,) = self.algebra._plain((c,))
        return self._combine([a * c for a in self._c])

    def __pow__(self, n: int) -> "AlgebraElem":
        """Binary power; a negative n raises the inverse."""
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(self, n, self.algebra.one)

    @property
    def is_zero(self) -> bool:
        return not any(self._c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElem)
            and other.algebra is self.algebra
            and other._c == self._c
        )

    def __hash__(self) -> int:
        return hash((id(self.algebra), self._c))

    def is_unit(self) -> bool:
        try:
            self.inverse()
            return True
        except NotAUnit:
            return False

    def inverse(self) -> "AlgebraElem":
        """Inverse through the left-regular representation."""
        alg = self.algebra
        # Column j of the left-multiplication matrix is self * e_j.
        cols = [alg._mul_raw(self._c, alg._basis_raw(j)) for j in range(alg.dim)]
        x = solve(alg.field, list(zip(*cols)), alg._unity)
        if x is None:
            raise NotAUnit(f"{self} is not a unit")
        cand = AlgebraElem._new(alg, tuple(x))
        if not (self * cand == alg.one() and cand * self == alg.one()):
            raise NotAUnit(f"{self} has no two-sided inverse")
        return cand

    def render(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for label, c in zip(self.algebra.labels, self._c):
            if not c:
                continue
            if label == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(label)
            else:
                parts.append(f"{c}*{label}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"AlgebraElem({self.render()!r})"


class FinAlgebra:
    """A unital associative algebra of finite dimension given by structure
    constants as sparse rows: ``rows[i][j]`` is an iterable of (k, s) pairs
    meaning e_i * e_j = sum of s * e_k.

    The constants are kept once, as plain numbers: ``_rows[i][j]`` holds the
    (k, s) pairs with s != 0, summed per k in increasing k.
    :meth:`_mul_raw` multiplies plain vectors over them; it is the one
    algebra product.
    """

    __slots__ = ("field", "dim", "labels", "name", "group", "_rows", "_unity")

    def __init__(self, field: Field, rows, unity: Sequence, labels: Sequence[str] | None = None,
                 name: str = "algebra", group: FiniteGroup | None = None, validate: bool = True):
        d = len(rows)
        self.field = field
        self.dim = d
        self.labels = tuple(labels) if labels is not None else tuple(f"e{i}" for i in range(d))
        self.name = name
        self.group = group
        if len(unity) != d or len(self.labels) != d:
            raise InvalidParameter("unity/label length must equal the dimension")
        if any(len(row) != d for row in rows):
            raise InvalidParameter("structure constants need dim rows of dim entries")
        self._rows = tuple(tuple(self._sparse(pairs) for pairs in row) for row in rows)
        self._unity = self._plain(unity)
        if validate:
            self._validate()

    def _sparse(self, pairs) -> tuple:
        """The (k, s) pairs summed per k as canonical plain numbers, zeros dropped."""
        sums = {}
        for k, s in pairs:
            if not 0 <= k < self.dim:
                raise InvalidParameter(f"basis index {k} outside [0, {self.dim})")
            sums[k] = sums.get(k, 0) + self.field(s).v
        ks = sorted(sums)
        return tuple((k, s) for k, s in zip(ks, self._reduce(sums[k] for k in ks)) if s)

    def _reduce(self, cs) -> tuple:
        return tuple(_reduce(self.field.p, cs))

    def _plain(self, coeffs: Sequence) -> tuple:
        """Coerce coefficients into a canonical plain vector."""
        field = self.field
        return self._reduce([field(c).v for c in coeffs])

    def _basis_raw(self, i: int) -> tuple:
        return tuple(int(k == i) for k in range(self.dim))

    def _mul_raw(self, u: tuple, v: tuple) -> tuple:
        """The product of two plain vectors, reduced once at the end."""
        out = [0] * self.dim
        v_support = [(j, b) for j, b in enumerate(v) if b]
        for row, a in zip(self._rows, u):
            if a:
                for j, b in v_support:
                    c = a * b
                    for k, s in row[j]:
                        out[k] += c * s
        return self._reduce(out)

    def _poly_raw(self, g: UniPoly, u: tuple) -> tuple:
        """g(u) on a plain vector; the constant term multiplies the unity."""
        if g.field != self.field:
            raise InvalidParameter("cannot mix elements of different fields")
        cs = g._c or (0,)
        out = [cs[0] * x for x in self._unity]
        power = self._unity
        for c in cs[1:]:
            power = self._mul_raw(power, u)
            if c:
                out = [o + c * x for o, x in zip(out, power)]
        return self._reduce(out)

    def _validate(self):
        mul, one = self._mul_raw, self._unity
        basis = [self._basis_raw(i) for i in range(self.dim)]
        for e in basis:
            if mul(one, e) != e or mul(e, one) != e:
                raise InvalidParameter("unity vector does not act as a two-sided identity")
        for ei in basis:
            for ej in basis:
                eij = mul(ei, ej)
                for ek in basis:
                    if mul(eij, ek) != mul(ei, mul(ej, ek)):
                        raise InvalidParameter("structure constants are not associative")

    def elem(self, coeffs: Sequence) -> AlgebraElem:
        return AlgebraElem(self, coeffs)

    def zero(self) -> AlgebraElem:
        return AlgebraElem._new(self, (0,) * self.dim)

    def one(self) -> AlgebraElem:
        return AlgebraElem._new(self, self._unity)

    def basis(self, i: int) -> AlgebraElem:
        return AlgebraElem._new(self, self._basis_raw(i))

    def random_element(self, rng) -> AlgebraElem:
        return AlgebraElem(self, tuple(self.field.random(rng) for _ in range(self.dim)))

    def __repr__(self) -> str:
        return f"FinAlgebra({self.name}, dim={self.dim}, over {self.field!r})"


def group_algebra(g: FiniteGroup, field: Field) -> FinAlgebra:
    rows = [[((k, 1),) for k in row] for row in g.table]
    unity = [int(k == g.identity) for k in range(g.order)]
    # Associativity is inherited from the validated group table.
    return FinAlgebra(field, rows, unity, labels=g.labels, name=f"{repr(field)}[{g.name}]",
                      group=g, validate=False)


def matrix2_algebra(field: Field) -> FinAlgebra:
    # e_ab has index 2a + b; e_ab * e_cd = e_ad when b = c, else 0.
    rows = [[((2 * (i // 2) + j % 2, 1),) if i % 2 == j // 2 else () for j in range(4)]
            for i in range(4)]
    return FinAlgebra(field, rows, (1, 0, 0, 1), labels=("e11", "e12", "e21", "e22"),
                      name=f"M2({field!r})", validate=False)


def square_zero_algebra(field: Field, nvars: int = 2) -> FinAlgebra:
    """The commutative quotient on square-zero generators: K[x]/(x^2) for one
    variable, K[x,y]/(x^2,y^2) for two.  Basis = square-free monomials."""
    if nvars not in (1, 2):
        raise InvalidParameter("square-zero algebras are shipped for 1 or 2 variables")
    masks = range(1 << nvars)
    names = {0: "1", 1: "x", 2: "y", 3: "x*y"}
    rows = [[((m1 | m2, 1),) if m1 & m2 == 0 else () for m2 in masks] for m1 in masks]
    unity = [int(m == 0) for m in masks]
    labels = tuple(names[m] for m in masks)
    return FinAlgebra(field, rows, unity, labels=labels,
                      name=f"{field!r}[{'x' if nvars == 1 else 'x,y'}]/sq", validate=False)


# -- import format ------------------------------------------------------------


def load_algebra(path: str, field: Field) -> FinAlgebra:
    """Read the structure-constant text format::

        algebra
        dim 4
        label 0 one        # optional
        unity 1 0 0 0
        sc i j k coeff     # e_i * e_j has coefficient coeff at e_k

    Unlisted structure entries are zero; coefficients are ints or a/b.
    """
    dim = None
    labels: dict[int, str] = {}
    unity = None
    triples: list[tuple[int, int, int, FieldElem]] = []
    # (line, index, ...) of the sc and label lines, checked against dim below.
    indexed: list[tuple[int, ...]] = []
    for lineno, parts in _directive_lines(path, "algebra"):
        if parts[0] == "dim":
            (dim,) = _int_fields(parts, lineno, 1)
        elif parts[0] == "label":
            i, name = _int_fields(parts, lineno, 1, 1)
            labels[i] = name
            indexed.append((lineno, i))
        elif parts[0] == "unity":
            unity = [_parse_scalar(tok, field, lineno) for tok in parts[1:]]
        elif parts[0] == "sc":
            i, j, k, c = _int_fields(parts, lineno, 3, 1)
            triples.append((i, j, k, _parse_scalar(c, field, lineno)))
            indexed.append((lineno, i, j, k))
        else:
            raise ParseError(f"unknown directive {parts[0]!r} in algebra file", line=lineno)
    if dim is None or unity is None:
        raise ParseError("algebra file needs 'dim' and 'unity' lines")
    for lineno, *indices in indexed:
        if max(indices) >= dim:
            raise ParseError(f"basis index outside [0, {dim})", line=lineno)
    rows = [[[] for _ in range(dim)] for _ in range(dim)]
    for i, j, k, c in triples:
        rows[i][j].append((k, c))
    label_list = [labels.get(i, f"e{i}") for i in range(dim)]
    return FinAlgebra(field, rows, unity, labels=label_list, name="file-algebra", validate=True)


def load_group(path: str) -> FiniteGroup:
    """Read a permutation-generator group file::

        perm-group
        degree 3
        gen 1 2 0
        gen 1 0 2

    Generators are image lists; the group is their closure, with elements
    ordered lexicographically for a deterministic table.
    """
    degree = None
    gens: list[tuple[int, ...]] = []
    for lineno, parts in _directive_lines(path, "perm-group"):
        if parts[0] == "degree":
            (degree,) = _int_fields(parts, lineno, 1)
        elif parts[0] == "gen":
            gens.append(tuple(_int_fields(parts, lineno, len(parts) - 1)))
        else:
            raise ParseError(f"unknown directive {parts[0]!r} in group file", line=lineno)
    if degree is None or not gens:
        raise ParseError("group file needs 'degree' and at least one 'gen' line")
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise InvalidParameter(f"generator {g} is not a permutation of degree {degree}")
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    while frontier:
        frontier = {q for p in frontier for g in gens if (q := _compose(p, g)) not in elements}
        elements.update(frontier)
    return _permutation_group(elements, "file-group")


def _directive_lines(path: str, header: str) -> list[tuple[int, list[str]]]:
    """The line number and fields of each directive line of an input file;
    comments, blank lines and the header line are left out.  A line that is
    not UTF-8 text names its number."""
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()
    lines = []
    for lineno, raw in enumerate(raw_lines, 1):
        try:
            parts = raw.decode("utf-8").split("#", 1)[0].split()
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte 0x{raw[exc.start]:02x} is not UTF-8 text", line=lineno) from None
        if parts and parts[0] != header:
            lines.append((lineno, parts))
    return lines


def _int_fields(parts: list[str], lineno: int, ints: int, rest: int = 0) -> list:
    """The fields after a directive: ``ints`` non-negative integers, then
    ``rest`` tokens as they are.  A missing or bad field names the line."""
    fields = parts[1:]
    if len(fields) < ints + rest:
        raise ParseError(f"too few fields for {parts[0]!r}: expected {ints + rest}", line=lineno)
    bad = [tok for tok in fields[:ints] if not is_digits(tok)]
    if bad:
        raise ParseError(f"{parts[0]!r} takes non-negative integers, got {bad[0]!r}", line=lineno)
    return [int(tok) for tok in fields[:ints]] + fields[ints : ints + rest]


def _parse_scalar(tok: str, field: Field, lineno: int) -> FieldElem:
    try:
        num, slash, den = tok.partition("/")
        if slash:
            return field.from_fraction(parse_int(num), parse_int(den))
        return field(parse_int(num))
    except ValueError as exc:
        raise ParseError(f"bad scalar {tok!r}: {exc}", line=lineno) from exc


# -- group algebra specifics ---------------------------------------------------


def hat(algebra: FinAlgebra, g: int, normalized: bool = False) -> AlgebraElem:
    """The sum over the cyclic subgroup generated by g; the normalized variant
    divides by the subgroup order and squares to itself."""
    if algebra.group is None:
        raise InvalidParameter("hat requires a group algebra")
    subgroup = algebra.group.cyclic_subgroup(g)
    vec = [0] * algebra.dim
    for h in subgroup:
        vec[h] = 1
    elem = AlgebraElem(algebra, vec)
    if not normalized:
        return elem
    m = len(subgroup)
    p = algebra.field.p
    if p and m % p == 0:
        raise NonInvertibleOrder(f"order {m} is not invertible in characteristic {p}")
    return elem.scale(algebra.field.from_fraction(1, m))


def poly_at(g: UniPoly, a: AlgebraElem) -> AlgebraElem:
    """Evaluate a one-variable polynomial at an algebra element (the constant
    term multiplies the unity)."""
    return AlgebraElem._new(a.algebra, a.algebra._poly_raw(g, a._c))


# -- identity falsification on unit groups ------------------------------------


@dataclass
class FalsifyResult:
    found: bool
    trials: int
    trial: int | None = None
    units: list[str] = dc_field(default_factory=list)
    value: str | None = None


def _sample_unit(algebra: FinAlgebra, rng: random.Random, strategy: int) -> AlgebraElem:
    if strategy == 0 and algebra.group is not None:
        return algebra.basis(rng.randrange(algebra.dim))
    if strategy == 1:
        # 1 + nilpotent, when a sampled element happens to be nilpotent
        for _ in range(4):
            a = algebra.random_element(rng)
            power = a
            for _ in range(algebra.dim + 1):
                if power.is_zero:
                    return algebra.one() + a
                power = power * a
    for _ in range(12):
        a = algebra.random_element(rng)
        if a.is_unit():
            return a
    return algebra.one()


def falsify_lpi(f: LaurentPoly, algebra: FinAlgebra, trials: int = 200, seed: int = 0) -> FalsifyResult:
    """Sample unit tuples and evaluate f; the first nonzero evaluation is a
    counterexample witness.  Sampling mixes uniform group elements,
    1 + nilpotent constructions, and rejection-sampled invertibles."""
    check_count("trials", trials)
    if f.is_zero:
        return FalsifyResult(found=False, trials=trials)
    rng = random.Random(seed)
    k = max(f.nvars, 1)
    for t in range(trials):
        units = tuple(_sample_unit(algebra, rng, (t + i) % 3) for i in range(k))
        value = WordImages(units).evaluate(f.terms.items())
        if not value.is_zero:
            return FalsifyResult(
                found=True,
                trials=trials,
                trial=t,
                units=[u.render() for u in units],
                value=value.render(),
            )
    return FalsifyResult(found=False, trials=trials)


# -- standard polynomials ------------------------------------------------------


def _permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def standard_poly(k: int, elements: Sequence[AlgebraElem]) -> AlgebraElem:
    """S_k: the signed sum of all k! permutation products."""
    _check_arity(k)
    if len(elements) != k:
        raise ArityMismatch(f"S_{k} needs exactly {k} elements, got {len(elements)}")
    if math.factorial(k) > PERMUTATION_LIMIT:
        raise TooLargeForExhaustive(f"{k}! permutation products exceed the bound {PERMUTATION_LIMIT}")
    return WordImages(elements).evaluate(
        (Word(tuple((i, 1) for i in perm)), _permutation_sign(perm))
        for perm in itertools.permutations(range(k))
    )


# -- exhaustive element tables -------------------------------------------------

# Module bounds, read at call time.
ENUM_LIMIT = 2**20
TABLE_LIMIT = 2048
# Tuples an S_k check may examine, exhaustive or sampled.
TUPLE_LIMIT = 2**24
# Permutation products S_k of given elements may sum: 8!.
PERMUTATION_LIMIT = 40320
# Square-zero pairs the exhaustive p1 scan without index tables may examine.
PAIR_LIMIT = 2**22
# Elements structural_predicates enumerates for its idempotents; above it,
# it falls back to the averaging idempotents.
IDEMPOTENT_ENUM_LIMIT = 2**16


def _element_count(algebra: FinAlgebra, tables: bool = True) -> int:
    """p^dim, checked against the enumeration bound, and the index-table
    bound if ``tables``, before anything is built."""
    field = algebra.field
    if not field.is_finite:
        raise TooLargeForExhaustive("exhaustive enumeration needs a finite field")
    count = field.order ** algebra.dim
    if count > ENUM_LIMIT:
        raise TooLargeForExhaustive(f"{count} elements exceed the exhaustive bound {ENUM_LIMIT}")
    if tables and count > TABLE_LIMIT:
        raise TooLargeForExhaustive(f"{count} elements exceed the index-table bound {TABLE_LIMIT}")
    return count


class ElementTable:
    """All elements of a small algebra over a finite field, with integer
    index tables for multiplication, addition, and negation (numpy int32)."""

    def __init__(self, algebra: FinAlgebra):
        self.n = n = _element_count(algebra)
        self.algebra = algebra
        p = algebra.field.order
        # Plain vectors in [0, p): already canonical for the raw product.
        self.vectors = list(itertools.product(range(p), repeat=algebra.dim))
        index = self.index = {v: i for i, v in enumerate(self.vectors)}
        self.zero_idx = index[(0,) * algebra.dim]
        self.one_idx = index[algebra._unity]
        self.add = np.zeros((n, n), dtype=np.int32)
        self.mul = np.zeros((n, n), dtype=np.int32)
        self.neg = np.zeros(n, dtype=np.int32)
        mul = algebra._mul_raw
        for i, u in enumerate(self.vectors):
            self.neg[i] = index[tuple(-x % p for x in u)]
            self.add[i] = [index[tuple([(a + b) % p for a, b in zip(u, v)])] for v in self.vectors]
            self.mul[i] = [index[mul(u, v)] for v in self.vectors]

    def elem(self, i: int) -> AlgebraElem:
        return AlgebraElem._new(self.algebra, self.vectors[i])

    def poly_values(self, g: UniPoly) -> np.ndarray:
        """Index of g(element) for every element, computed exactly once each."""
        poly = self.algebra._poly_raw
        return np.array([self.index[poly(g, v)] for v in self.vectors], dtype=np.int32)

    def square_zero_indices(self) -> np.ndarray:
        diag = self.mul[np.arange(self.n), np.arange(self.n)]
        return np.nonzero(diag == self.zero_idx)[0].astype(np.int32)


@dataclass
class CheckResult:
    """``holds`` is None (inconclusive) when a sampled check examined
    nothing."""

    holds: bool | None
    checked: int
    witness: dict | None = None


def standard_poly_exhaustive(algebra: FinAlgebra, k: int = 4) -> CheckResult:
    """Check S_k = 0 over every k-tuple of algebra elements."""
    _check_arity(k)
    n = _element_count(algebra)
    if n**k > TUPLE_LIMIT:
        raise TooLargeForExhaustive(f"{n}^{k} tuples exceed the bound {TUPLE_LIMIT}")
    return _standard_poly_scan(ElementTable(algebra), k, (n,) * k, lambda grid: grid)


def standard_poly_sampled(algebra: FinAlgebra, k: int, samples: int, seed: int = 0) -> CheckResult:
    """Check S_k = 0 over seeded random k-tuples; inconclusive with no
    samples."""
    _check_arity(k)
    check_count("samples", samples)
    check_count("seed", seed)
    if samples > TUPLE_LIMIT:
        raise InvalidParameter(f"{samples} samples exceed the bound {TUPLE_LIMIT}")
    table = ElementTable(algebra)
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, table.n, size=(k, samples), dtype=np.int32)
    return _standard_poly_scan(table, k, (samples,), lambda grid: draws[:, grid[0]])


def _check_arity(k: int) -> None:
    if k < 1:
        raise InvalidParameter(f"the standard polynomial S_k needs k >= 1, got {k}")


# Tuples per numpy step of a scan; no array of a scan grows with the tuple count.
SCAN_CHUNK = 4096


def _scan(table: ElementTable, shape: tuple[int, ...], evaluate, witness) -> CheckResult:
    """Evaluate the index tuples of ``shape`` in row-major order, at most
    SCAN_CHUNK tuples per ``evaluate`` call (an int32 grid (len(shape), m) to
    m element indices), up to the first chunk with a nonzero value.  Its
    first such tuple is the witness, ``witness(tuple)`` plus the value.
    ``checked`` is the size of the domain, prod(shape)."""
    cut = len(shape)  # the axes from cut on fit in one chunk
    while cut > 1 and math.prod(shape[cut - 1:]) <= SCAN_CHUNK:
        cut -= 1
    tail = math.prod(shape[cut:])
    per = max(SCAN_CHUNK // tail, 1)  # leading index tuples per chunk
    block = np.empty((len(shape), per, tail), dtype=np.int32)
    block[cut:] = np.indices(shape[cut:], dtype=np.int32).reshape(-1, 1, tail)
    heads, checked = math.prod(shape[:cut]), math.prod(shape)
    for start in range(0, heads, per):
        m = min(per, heads - start)
        lead = np.unravel_index(np.arange(start, start + m), shape[:cut])
        block[:cut, :m] = np.stack(lead)[:, :, None]
        grid = block[:, :m].reshape(len(shape), -1)
        values = evaluate(grid)
        if (bad := np.flatnonzero(values != table.zero_idx)).size:
            where, value = tuple(int(i) for i in grid[:, bad[0]]), int(values[bad[0]])
            return CheckResult(holds=False, checked=checked,
                               witness={**witness(where), "value": table.elem(value).render()})
    return CheckResult(holds=True if checked else None, checked=checked)


def _standard_poly_scan(table: ElementTable, k: int, shape: tuple[int, ...], pick) -> CheckResult:
    """S_k over the tuples ``pick`` selects from each chunk of ``shape``."""
    sub = table.add.take(table.neg, axis=1)  # sub[x, y] is the index of x - y
    # In lexicographic order each permutation shares a prefix with the one
    # before it, and so does its product.
    perms = list(itertools.permutations(range(k)))
    steps = [(perm, next((i for i, (x, y) in enumerate(zip(perm, prev)) if x != y), 0),
              table.add if _permutation_sign(perm) > 0 else sub)
             for perm, prev in zip(perms, [()] + perms)]

    def evaluate(grid: np.ndarray) -> np.ndarray:
        tuples = pick(grid)
        acc, prods = None, []  # prods[i]: the product of the first i + 1 factors
        for perm, shared, add in steps:
            del prods[shared:]
            for t in perm[len(prods):]:
                prods.append(table.mul[prods[-1], tuples[t]] if prods else tuples[t])
            # The first permutation is the identity, an even one.
            acc = prods[-1] if acc is None else add[acc, prods[-1]]
        return acc

    return _scan(table, shape, evaluate, lambda where: {"elements": [
        table.elem(int(i)).render() for i in pick(np.array(where)[:, None])[:, 0]]})


# -- square-zero and zero-product vanishing checks -----------------------------


def _check_poly(algebra: FinAlgebra, g: UniPoly, mode: str) -> None:
    if g.is_zero:
        raise ZeroPolynomial("the vanishing property is stated for nonzero polynomials")
    if g.field != algebra.field:
        raise InvalidParameter("polynomial and algebra must share the field")
    if mode not in ("exhaustive", "sampled"):
        raise InvalidParameter(f"unknown mode {mode!r}")


def _exact_scan(tuples: Iterable[tuple[AlgebraElem, ...]], value, names: str) -> CheckResult:
    """Evaluate ``value(*t)`` on each tuple of elements in order, with exact
    arithmetic, up to the first tuple with a nonzero value.  That tuple is
    the witness: its elements under ``names``, one letter per position, then
    the value.  ``checked`` counts the tuples evaluated."""
    checked = 0
    for t in tuples:
        checked += 1
        val = value(*t)
        if not val.is_zero:
            return CheckResult(holds=False, checked=checked, witness={
                **{name: x.render() for name, x in zip(names, t)}, "value": val.render()})
    return CheckResult(holds=True if checked else None, checked=checked)


def p1_check(algebra: FinAlgebra, g: UniPoly, mode: str = "exhaustive",
             samples: int = 2000, seed: int = 0) -> CheckResult:
    """Does g(ab) = 0 for all a, b with a^2 = b^2 = 0?

    Exhaustive mode scans the square-zero pairs, on an element table when
    p^dim fits TABLE_LIMIT and else over the enumerated elements, and counts
    all of them as checked; sampled mode draws random elements, keeps the
    square-zero ones and counts the pairs it evaluates.  Both stop at the
    first failing pair; sampled mode is inconclusive when it keeps none.
    """
    _check_poly(algebra, g, mode)
    check_count("samples", samples)
    if mode == "sampled":
        rng = random.Random(seed)
        elements = (algebra.random_element(rng) for _ in range(samples))
    else:
        try:
            return _p1_on_table(ElementTable(algebra), g)
        except TooLargeForExhaustive:
            _element_count(algebra, tables=False)
        elements = (AlgebraElem._new(algebra, v) for v in
                    itertools.product(range(algebra.field.order), repeat=algebra.dim))
    square_zero = [a for a in elements if (a * a).is_zero]
    if mode == "exhaustive" and len(square_zero) ** 2 > PAIR_LIMIT:
        raise TooLargeForExhaustive(f"{len(square_zero)}^2 square-zero pairs exceed the pair "
                                    f"bound 2^{PAIR_LIMIT.bit_length() - 1}")
    result = _exact_scan(itertools.product(square_zero, repeat=2),
                         lambda a, b: poly_at(g, a * b), "ab")
    if mode == "exhaustive":
        result.checked = len(square_zero) ** 2
    return result


def _p1_on_table(table: ElementTable, g: UniPoly) -> CheckResult:
    """The exhaustive square-zero vanishing scan on an element table."""
    sq0 = table.square_zero_indices()
    gvals = table.poly_values(g)
    return _scan(table, (sq0.size,) * 2, lambda ij: gvals[table.mul[sq0[ij[0]], sq0[ij[1]]]],
                 lambda ij: {"a": table.elem(int(sq0[ij[0]])).render(),
                             "b": table.elem(int(sq0[ij[1]])).render()})


def _bac_on_table(table: ElementTable, h: UniPoly) -> CheckResult:
    """The exhaustive zero-product chain scan h(bacr) = 0 on an element
    table, over the pairs bc = 0 in row-major order, then a^2 = 0, then r."""
    sq0 = table.square_zero_indices()
    hvals = table.poly_values(h)
    # x*y is mul[x*n + y]; x*n + y < n^2 <= TABLE_LIMIT^2 fits in int32.
    n, mul = table.n, table.mul.ravel()
    b, c = (idx.astype(np.int32) for idx in np.nonzero(table.mul == table.zero_idx))

    def evaluate(grid: np.ndarray) -> np.ndarray:
        pair, a, r = grid
        ba = mul.take(b.take(pair) * n + sq0.take(a))
        return hvals.take(mul.take(mul.take(ba * n + c.take(pair)) * n + r))

    return _scan(table, (b.size, sq0.size, n), evaluate,
                 lambda where: {"a": table.elem(int(sq0[where[1]])).render(),
                                "b": table.elem(int(b[where[0]])).render(),
                                "c": table.elem(int(c[where[0]])).render(),
                                "r": table.elem(where[2]).render()})


def _bac_draws(algebra: FinAlgebra, samples: int, seed: int):
    """Seeded tuples (a, b, c, r) with a^2 = 0 and bc = 0: each of ``samples``
    draws takes a, then b and c when a^2 = 0, then r when bc = 0."""
    rng = random.Random(seed)
    for _ in range(samples):
        a = algebra.random_element(rng)
        if (a * a).is_zero:
            b, c = algebra.random_element(rng), algebra.random_element(rng)
            if (b * c).is_zero:
                yield a, b, c, algebra.random_element(rng)


def bac_check(algebra: FinAlgebra, g: UniPoly, mode: str = "exhaustive",
              samples: int = 2000, seed: int = 0) -> CheckResult:
    """With h = T*g(T): does h(bacr) = 0 for all a^2 = 0, bc = 0, and all r?

    Precondition: the algebra passes the square-zero vanishing check for g;
    an inconclusive precondition makes the check inconclusive too, as does a
    sampled run that keeps no tuple.  Exhaustive mode builds one element
    table for the precondition and the chain scan.
    """
    _check_poly(algebra, g, mode)
    check_count("samples", samples)
    table = ElementTable(algebra) if mode == "exhaustive" else None
    p1 = (p1_check(algebra, g, mode=mode, samples=samples, seed=seed) if table is None
          else _p1_on_table(table, g))
    if p1.holds is None:
        return CheckResult(holds=None, checked=0)
    if not p1.holds:
        raise InvalidParameter(
            "precondition violated: the algebra fails the square-zero vanishing "
            f"property for g (witness {p1.witness})"
        )
    h = UniPoly.T(algebra.field) * g
    if table is not None:
        return _bac_on_table(table, h)
    return _exact_scan(_bac_draws(algebra, samples, seed),
                       lambda a, b, c, r: poly_at(h, b * a * c * r), "abcr")


# -- the matrix-algebra witness -------------------------------------------------


@dataclass
class FinitecondiWitness:
    q: int
    r: FieldElem
    a: AlgebraElem
    b: AlgebraElem
    g_of_r: FieldElem
    g_of_ab: AlgebraElem

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "r": str(self.r),
            "a": self.a.render(),
            "b": self.b.render(),
            "g_of_r": str(self.g_of_r),
            "g_of_ab": self.g_of_ab.render(),
        }


def finitecondi_witness(q: int, g: UniPoly) -> FinitecondiWitness:
    """A 2x2 matrix witness that g does not vanish on all square-zero pairs
    of M2(F_q): r with g(r) != 0, a = r*e12, b = e21.

    Requires 0 <= deg g < q (a nonzero polynomial with fewer roots than field
    elements); the scan cannot fail under that precondition.
    """
    field = Field(q)
    if g.is_zero:
        raise ZeroPolynomial("the witness is stated for nonzero polynomials")
    if g.field != field:
        raise InvalidParameter(f"polynomial must live over F_{q}")
    if g.degree >= q:
        raise InvalidParameter(f"precondition deg g < q violated: deg g = {g.degree}, q = {q}")
    algebra = matrix2_algebra(field)
    for r in field.elements():
        if not g(r).is_zero:
            a = algebra.elem((0, 1, 0, 0)).scale(r)  # r*e12
            b = algebra.elem((0, 0, 1, 0))  # e21
            return FinitecondiWitness(
                q=q, r=r, a=a, b=b, g_of_r=g(r), g_of_ab=poly_at(g, a * b)
            )
    raise InternalError("every field element is a root despite deg g < q; arithmetic bug")


# -- structural predicates on group algebras ------------------------------------


@dataclass
class StructuralReport:
    algebra: str
    idempotent_mode: str
    idempotents_checked: int
    all_idempotents_central: bool
    noncentral_idempotent: str | None
    normalizer_pairs_checked: int
    normalizer_criterion_holds: bool
    normalizer_counterexample: dict | None


def _is_central(algebra: FinAlgebra, e: AlgebraElem) -> bool:
    return all(e * algebra.basis(i) == algebra.basis(i) * e for i in range(algebra.dim))


def _averaging_idempotents(algebra: FinAlgebra) -> list[AlgebraElem]:
    group = algebra.group
    field = algebra.field
    out = [algebra.zero(), algebra.one()]
    p = field.p
    for g in range(group.order):
        m = len(group.cyclic_subgroup(g))
        if p and m % p == 0:
            continue
        out.append(hat(algebra, g, normalized=True))
    if not (p and group.order % p == 0):
        total = algebra.elem([1] * algebra.dim).scale(field.from_fraction(1, group.order))
        out.append(total)
    out.extend([algebra.one() - e for e in list(out)])
    unique: dict[tuple, AlgebraElem] = {}
    for e in out:
        if (e * e == e) and e._c not in unique:
            unique[e._c] = e
    return list(unique.values())


def structural_predicates(algebra: FinAlgebra) -> StructuralReport:
    """Centrality of idempotents and the normalizer criterion
    (g-1)h*hat(g) = 0  <=>  h normalizes the cyclic subgroup of g,
    checked over every pair (g, h)."""
    group = algebra.group
    if group is None:
        raise InvalidParameter("structural predicates require a group algebra")
    field = algebra.field

    idempotents: list[AlgebraElem]
    if field.is_finite and field.order ** algebra.dim <= IDEMPOTENT_ENUM_LIMIT:
        mode = "exhaustive"
        idempotents = [
            AlgebraElem._new(algebra, v)
            for v in itertools.product(range(field.order), repeat=algebra.dim)
            if algebra._mul_raw(v, v) == v
        ]
    else:
        mode = "averaging"
        idempotents = _averaging_idempotents(algebra)

    noncentral = next((e for e in idempotents if not _is_central(algebra, e)), None)

    pairs_checked = 0
    counterexample = None
    for g in range(group.order):
        hat_g = hat(algebra, g)
        subgroup = set(group.cyclic_subgroup(g))
        g_minus_1 = algebra.basis(g) - algebra.one()
        for h in range(group.order):
            pairs_checked += 1
            lhs_zero = (g_minus_1 * algebra.basis(h) * hat_g).is_zero
            hinv = group.inverses[h]
            conj = {group.table[group.table[h][x]][hinv] for x in subgroup}
            normalizes = conj == subgroup
            if lhs_zero != normalizes:
                counterexample = {
                    "g": group.labels[g],
                    "h": group.labels[h],
                    "criterion_zero": lhs_zero,
                    "normalizes": normalizes,
                }
                break
        if counterexample:
            break

    return StructuralReport(
        algebra=algebra.name,
        idempotent_mode=mode,
        idempotents_checked=len(idempotents),
        all_idempotents_central=noncentral is None,
        noncentral_idempotent=noncentral.render() if noncentral is not None else None,
        normalizer_pairs_checked=pairs_checked,
        normalizer_criterion_holds=counterexample is None,
        normalizer_counterexample=counterexample,
    )
