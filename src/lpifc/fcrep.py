"""The faithful representation of the square-zero relative free algebra
K[alpha, beta : alpha^2 = beta^2 = 0] into 2x2 polynomial matrices, and
everything built on top of it: unit pairs, word/Laurent evaluation, the
L-ideal membership test, the conjugation linear system, and
witness-polynomial extraction.  The leading-term table that the evaluation
of a word obeys lives in :mod:`lpifc.laurent`.

The representation sends alpha to e12 and beta to T*e21.  Its image is
exactly the set of matrices [[x+T*A, B], [T*C, x+T*D]] with x in K and
A, B, C, D in K[T]; :class:`FCMat` stores that decomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

from .errors import (
    DecompositionFailure,
    InternalError,
    InvalidParameter,
    ParseError,
    StillInL,
    ZeroPolynomial,
    check_count,
)
from .exactalg import Field, FieldElem, Mat2Poly, UniPoly, _plain_elem
from .laurent import LaurentPoly
from .linalg import Echelon
from .parsing import TokenStream, parse_terms
from .words import Word, WordImages

# -- the representation ----------------------------------------------------


def phi_alpha(field: Field) -> Mat2Poly:
    return Mat2Poly.from_scalars(field, ((0, 1), (0, 0)))


def phi_beta(field: Field) -> Mat2Poly:
    z = UniPoly.zero(field)
    return Mat2Poly(field, ((z, z), (UniPoly.T(field), z)))


def _word_of(mon: Sequence[int]) -> Word:
    return Word.from_blocks((letter, 1) for letter in mon)


def phi_monomial(mon: Sequence[int], field: Field) -> Mat2Poly:
    """Image of an alternating-letter monomial; 0 = alpha, 1 = beta.

    Repeated letters are allowed and map to zero, matching the relations
    alpha^2 = beta^2 = 0 (e12 and T*e21 square to zero).
    """
    return WordImages((phi_alpha(field), phi_beta(field)))(_word_of(mon))


def _read_ab(ts: TokenStream) -> tuple[tuple[int, int]]:
    tok = ts.next()
    if tok.text not in ("a", "b"):
        raise ParseError(f"unknown generator {tok.text!r}; expected a or b", tok.offset)
    return ((0 if tok.text == "a" else 1, 1),)


def parse_fc_expr(text: str, field: Field) -> LaurentPoly:
    """Parse expressions in the square-zero generators, e.g. ``1 + a*b - b*a*b``,
    into the LaurentPoly of their words, with a as generator 0 and b as 1.

    Letters are ``a`` and ``b``; coefficients are integer or ``a/b`` literals.
    """
    terms = parse_terms(text, field, _read_ab)
    return LaurentPoly(field, ((Word.from_blocks(atoms), c) for atoms, c in terms))


def phi_eval(text: str, field: Field) -> "FCMat":
    """Evaluate an expression in the square-zero generators through the
    representation and decompose the result."""
    images = WordImages((phi_alpha(field), phi_beta(field)))
    return FCMat.decompose(images.evaluate(parse_fc_expr(text, field).terms.items()))


@dataclass(frozen=True)
class FCMat:
    """An element of the represented algebra as [[x+T*A, B], [T*C, x+T*D]]."""

    field: Field
    x: FieldElem
    A: UniPoly
    B: UniPoly
    C: UniPoly
    D: UniPoly

    @classmethod
    def decompose(cls, m: Mat2Poly) -> "FCMat":
        field = m.field
        m11, m12, m21, m22 = m.entry(0, 0), m.entry(0, 1), m.entry(1, 0), m.entry(1, 1)
        if not m21.constant_term.is_zero:
            raise DecompositionFailure("lower-left entry has a nonzero constant term")
        x = m11.constant_term
        if m22.constant_term != x:
            raise DecompositionFailure("diagonal constant terms differ")
        return cls(
            field,
            x=x,
            A=m11.shift(-1),
            B=m12,
            C=m21.shift(-1),
            D=m22.shift(-1),
        )

    @property
    def is_zero(self) -> bool:
        return self.x.is_zero and all(p.is_zero for p in (self.A, self.B, self.C, self.D))

    def in_l(self) -> bool:
        """Membership in L: x = 0 and T*A + B + C + D = 0."""
        return self.x.is_zero and (self.A.shift(1) + self.B + self.C + self.D).is_zero

    def to_dict(self) -> dict:
        return {"x": str(self.x), "A": str(self.A), "B": str(self.B), "C": str(self.C), "D": str(self.D)}

    def __str__(self) -> str:
        return f"(x={self.x}, A={self.A}, B={self.B}, C={self.C}, D={self.D})"


# -- unit pairs and evaluation ----------------------------------------------


@dataclass(frozen=True)
class UnitPair:
    """Images of a pair of units together with their exact inverses.

    The pair holds the word evaluation X -> u, Y -> v, whose prefix cache
    lives exactly as long as the pair.
    """

    kind: str
    u: Mat2Poly
    v: Mat2Poly
    u_inv: Mat2Poly
    v_inv: Mat2Poly
    _images: WordImages = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        field = self.u.field
        if any(m.field != field for m in (self.v, self.u_inv, self.v_inv)):
            raise InvalidParameter("unit images and inverses must share one field")
        for m in (self.u, self.v):
            det = m.det()
            if det.degree != 0:
                raise InvalidParameter("unit images must have constant nonzero determinant")
        one = Mat2Poly.identity(field)
        if self.u * self.u_inv != one:
            raise InvalidParameter("u_inv is not the inverse of u")
        if self.v * self.v_inv != one:
            raise InvalidParameter("v_inv is not the inverse of v")
        # The inverses checked above are the unique ones, so the evaluation
        # may compute its own.
        object.__setattr__(self, "_images", WordImages((self.u, self.v)))


def _one_plus(field: Field, mon: tuple[int, ...], sign: int = 1) -> Mat2Poly:
    return Mat2Poly.identity(field) + phi_monomial(mon, field).scale(field(sign))


def unit_pair(kind: str, field: Field) -> UnitPair:
    """The shipped unit pairs.

    ``primary``: u = (1+aba)(1+b), v = (1+aba)(1+(1-a)b(1+a));
    ``alternate``: u = (1+b)(1+aba), v = (1+(1-a)b(1+a))(1+(1+a)b(1-a));
    ``swapped``: the primary pair with u and v exchanged.
    """
    one = Mat2Poly.identity(field)
    a = phi_alpha(field)
    b = phi_beta(field)
    inner = (one - a) * b * (one + a)  # (1-a) b (1+a)
    if kind in ("primary", "swapped"):
        u = _one_plus(field, (0, 1, 0)) * (one + b)
        v = _one_plus(field, (0, 1, 0)) * (one + inner)
        # Fixed displays of the primary pair, checked at construction.
        T = UniPoly.T(field)
        t2 = UniPoly.monomial(field, 2)
        if u != Mat2Poly(field, ((UniPoly.one(field) + t2, T), (T, UniPoly.one(field)))):
            raise InternalError(f"primary u = {u} differs from its fixed display")
        if v != Mat2Poly(field, ((UniPoly.one(field) - T + t2, t2), (T, UniPoly.one(field) + T))):
            raise InternalError(f"primary v = {v} differs from its fixed display")
        if kind == "swapped":
            u, v = v, u
    elif kind == "alternate":
        u = (one + b) * _one_plus(field, (0, 1, 0))
        inner2 = (one + a) * b * (one - a)
        v = (one + inner) * (one + inner2)
    else:
        raise InvalidParameter(f"unknown unit pair kind {kind!r}")
    return UnitPair(kind=kind, u=u, v=v, u_inv=u.inv(), v_inv=v.inv())


def eval_word(w: Word, up: UnitPair) -> Mat2Poly:
    """The image of a word: the block product of unit powers and inverses."""
    return up._images(w)


def eval_laurent(f: LaurentPoly, up: UnitPair) -> Mat2Poly:
    """The falsifier: a nonzero value certifies f is not an identity of the
    unit group.  A zero value is inconclusive."""
    if f.nvars > 2:
        raise InvalidParameter(
            "evaluation needs a two-variable polynomial; apply reduce_to_two_vars first"
        )
    return up._images.evaluate(f.terms.items())


# -- the conjugation linear system ------------------------------------------
#
# The generic element s = [[x+T*A, B], [T*C, x+T*D]] is linear in the unknown
# coefficients of x, A, B, C, D, and conjugation is K[T]-linear:
#   u s u^-1 = x*1 + T*A*P11 + B*P12 + T*C*P21 + T*D*P22,  P_ij = u e_ij u^-1.
# So the column of an unknown is a T-shift of one conjugated matrix unit, and
# requiring u s u^-1 to lie in L for each conjugating unit u is a linear
# system over K.  Polynomials are capped at a configurable degree; every
# T-coefficient of every membership condition becomes one equation row.


@dataclass
class ThekeyStage:
    conjugator: str
    equations: int
    nullspace_dim: int


@dataclass
class ThekeyReport:
    """Outcome of the conjugation linear system.

    ``relations`` records whether the three elimination relations
    C = 0, A = D, B = -(1+T)*A hold on the solution space after the two
    elementary a-conjugations; ``zero_space`` reports whether the final
    space is trivial.
    """

    field: Field
    degree_bound: int
    stages: list[ThekeyStage]
    relations: list[tuple[str, bool]]
    final_dim: int
    residual_basis: list[dict]

    @property
    def zero_space(self) -> bool:
        return self.final_dim == 0

    def to_dict(self) -> dict:
        return {
            "field": repr(self.field),
            "degree_bound": self.degree_bound,
            "stages": [
                {"conjugator": s.conjugator, "equations": s.equations, "nullspace_dim": s.nullspace_dim}
                for s in self.stages
            ],
            "relations": [{"relation": r, "holds": h} for r, h in self.relations],
            "zero_space": self.zero_space,
            "final_dim": self.final_dim,
            "residual_basis": self.residual_basis,
        }


def default_conjugators(field: Field) -> list[tuple[str, Mat2Poly]]:
    """The conjugating units used by the displayed elimination."""
    return [
        ("1", Mat2Poly.identity(field)),
        ("1+a", _one_plus(field, (0,))),
        ("1-a", _one_plus(field, (0,), -1)),
        ("1+b", _one_plus(field, (1,))),
    ]


def extended_conjugators(field: Field) -> list[tuple[str, Mat2Poly]]:
    """Further unit conjugators, appended only while the space is nonzero."""
    a_plus = _one_plus(field, (0,))
    b_plus = _one_plus(field, (1,))
    return [
        ("1-b", _one_plus(field, (1,), -1)),
        ("1+aba", _one_plus(field, (0, 1, 0))),
        ("1-aba", _one_plus(field, (0, 1, 0), -1)),
        ("1+bab", _one_plus(field, (1, 0, 1))),
        ("1-bab", _one_plus(field, (1, 0, 1), -1)),
        ("(1+a)(1+b)", a_plus * b_plus),
        ("(1+b)(1+a)", b_plus * a_plus),
    ]


def thekey_solve(
    field: Field,
    degree_bound: int = 4,
    conjugators: list[tuple[str, Mat2Poly]] | None = None,
) -> ThekeyReport:
    """Solve the membership system: which s lie in L together with all their
    conjugates under the given unit list?

    Unknowns are x and the coefficients of A, B, C, D up to the degree bound.
    Over characteristic != 2 the four displayed memberships already force the
    zero space; over characteristic 2 the extended conjugator list is
    consumed until the space collapses or the list is exhausted.  An explicit
    conjugator list is used as given, without extension.
    """
    d = degree_bound
    if d < 1:
        raise InvalidParameter("degree bound must be at least 1")
    n = 1 + 4 * (d + 1)  # x plus four polynomials

    def membership_rows(u: Mat2Poly) -> list[tuple]:
        ue, ve = u.e, u.inv().e
        columns = [Mat2Poly.identity(field)]  # x*1 is fixed by conjugation
        # Unknown A_k multiplies T^(k+1)*P11, B_k T^k*P12, C_k T^(k+1)*P21,
        # D_k T^(k+1)*P22.
        for (i, j), offset in zip(((0, 0), (0, 1), (1, 0), (1, 1)), (1, 0, 1, 1)):
            # u e_ij u^-1 is column i of u times row j of u^-1.
            conj = [[ue[r][i] * ve[j][c] for c in (0, 1)] for r in (0, 1)]
            for k in range(offset, d + 1 + offset):
                columns.append(Mat2Poly(field, [[p.shift(k) for p in row] for row in conj]))
        # Membership in L: x = 0 and T*A' + B' + C' + D' = 0, coefficient by
        # coefficient; decompose rejects a conjugate outside the image.
        conds = []
        for col in columns:
            m = FCMat.decompose(col)
            conds.append((m.x, m.A.shift(1) + m.B + m.C + m.D))
        top = max(len(poly._c) for _, poly in conds)
        rows = [tuple(x.v for x, _ in conds)]
        rows.extend(zip(*(poly._c + (0,) * (top - len(poly._c)) for _, poly in conds)))
        return [r for r in rows if any(r)]

    def basis_to_fcmat(vec: list) -> FCMat:
        # vec is x, then the d + 1 coefficients of each of A, B, C, D.
        polys = (UniPoly._new(field, vec[i : i + d + 1]) for i in range(1, n, d + 1))
        return FCMat(field, _plain_elem(field, vec[0]), *polys)

    def check_relations() -> list[tuple[str, bool]]:
        mats = [basis_to_fcmat(v) for v in system.nullspace()]
        one_plus_t = UniPoly(field, (1, 1))
        return [
            ("C = 0", all(m.C.is_zero for m in mats)),
            ("A = D", all(m.A == m.D for m in mats)),
            ("B = -(1+T)*A", all(m.B == -(one_plus_t * m.A) for m in mats)),
        ]

    # One echelon form across the stages: each stage reduces only its new rows.
    system = Echelon(field, n)
    stages: list[ThekeyStage] = []

    def add_stage(label: str, u: Mat2Poly) -> None:
        new = membership_rows(u)
        system.add(new)
        stages.append(ThekeyStage(label, len(new), n - system.rank))

    conj_list = default_conjugators(field) if conjugators is None else list(conjugators)
    for label, u in conj_list[:3]:
        add_stage(label, u)
    # After s itself and the two elementary a-conjugations: the displayed
    # elimination relations.
    relations = check_relations()
    for label, u in conj_list[3:]:
        add_stage(label, u)

    if conjugators is None and system.rank < n:
        for label, u in extended_conjugators(field):
            add_stage(label, u)
            if system.rank == n:
                break

    basis = system.nullspace()
    return ThekeyReport(
        field=field,
        degree_bound=d,
        stages=stages,
        relations=relations,
        final_dim=len(basis),
        residual_basis=[basis_to_fcmat(v).to_dict() for v in basis],
    )


# -- witness-polynomial extraction ------------------------------------------


@dataclass(frozen=True)
class ExtractedWitness:
    """The one-variable polynomial read off a nonvanishing evaluation,
    together with the route that produced it."""

    g: UniPoly
    sigma: str
    tau: str
    conjugator: str


def _conjugator_words(field: Field, bound: int) -> Iterable[tuple[str, Mat2Poly]]:
    """Products of the elementary units (1 +- a), (1 +- b) up to the bound,
    in deterministic order: length ascending, then factor-index lex."""
    labels = ("(1+a)", "(1-a)", "(1+b)", "(1-b)")
    units = WordImages(_one_plus(field, (letter,), sign) for letter in (0, 1) for sign in (1, -1))
    for length in range(1, bound + 1):
        for factors in itertools.product(range(4), repeat=length):
            yield "".join(labels[i] for i in factors), units(_word_of(factors))


def extract_g(f: LaurentPoly, up: UnitPair, conj_bound: int = 3) -> ExtractedWitness:
    """Extract the witness polynomial g with sigma*r*tau = g(ab) from a
    nonvanishing evaluation r of f at the unit pair.

    If r lies in L, conjugates by products of elementary units are tried up
    to the bound; an exhausted search raises StillInL (inconclusive).  The
    (sigma, tau) tie-break order is (a,b), (a,ab), (ab,b), (ab,ab).
    """
    check_count("conj_bound", conj_bound)
    field = up.u.field
    r = eval_laurent(f, up)
    if r.is_zero:
        raise ZeroPolynomial(
            "precondition violated: f evaluates to zero at this unit pair (nothing to extract)"
        )
    fc = FCMat.decompose(r)
    conj_label = "1"
    if fc.in_l():
        for label, u in _conjugator_words(field, conj_bound):
            cand = u * r * u.inv()
            if not FCMat.decompose(cand).in_l():
                r = cand
                conj_label = label
                break
        else:
            raise StillInL(
                f"every conjugate within bound {conj_bound} stayed in L; inconclusive"
            )

    a = phi_alpha(field)
    ab = phi_monomial((0, 1), field)  # T*e11
    b = phi_beta(field)
    routes = [("a", a, "b", b), ("a", a, "ab", ab), ("ab", ab, "b", b), ("ab", ab, "ab", ab)]
    for sig_name, sig, tau_name, tau in routes:
        prod = sig * r * tau
        if prod.is_zero:
            continue
        # sigma*r*tau lies in the span of (ab)^k, k >= 1, so the product is
        # g(T)*e11 with g(0) = 0; anything else signals an arithmetic bug.
        if not (
            prod.entry(0, 1).is_zero
            and prod.entry(1, 0).is_zero
            and prod.entry(1, 1).is_zero
            and prod.entry(0, 0).constant_term.is_zero
        ):
            raise InternalError(f"product for ({sig_name},{tau_name}) is not of the form g(T)*e11")
        return ExtractedWitness(g=prod.entry(0, 0), sigma=sig_name, tau=tau_name, conjugator=conj_label)
    raise InternalError("no sigma, tau gave a nonzero product despite r not in L")
