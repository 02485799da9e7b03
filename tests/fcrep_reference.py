"""Test-only routes around :mod:`lpifc.fcrep`: the faithfulness check at
desk scale, the one-variable vanishing exhibit, the image of g(ab), and the
matrix of an :class:`FCMat`.  Only tests call them; the library never does.
"""

from __future__ import annotations

from lpifc.errors import InternalError, ZeroPolynomial
from lpifc.exactalg import Field, Mat2Poly, UniPoly
from lpifc.fcrep import FCMat, phi_monomial
from lpifc.linalg import Echelon


def to_mat2(m: FCMat) -> Mat2Poly:
    """The matrix [[x+T*A, B], [T*C, x+T*D]] that ``FCMat.decompose`` splits."""
    xpoly = UniPoly(m.field, (m.x,))
    return Mat2Poly(m.field, ((xpoly + m.A.shift(1), m.B), (m.C.shift(1), xpoly + m.D.shift(1))))


def g_at_alphabeta(g: UniPoly) -> Mat2Poly:
    """The image of g(ab): g(0) on the diagonal plus (g(T) - g(0)) at e11."""
    field = g.field
    out = Mat2Poly.identity(field).scale(g.constant_term)
    z = UniPoly.zero(field)
    return out + Mat2Poly(field, ((g - g.constant_term, z), (z, z)))


def alternating_monomials(max_len: int) -> list[tuple[int, ...]]:
    """The alternating-word basis monomials of length 0..max_len."""
    out: list[tuple[int, ...]] = [()]
    for length in range(1, max_len + 1):
        for start in (0, 1):
            out.append(tuple((start + i) % 2 for i in range(length)))
    return out


def phi_images_independent(field: Field, max_len: int) -> bool:
    """Exact rank check that the images of the alternating basis up to the
    given length are linearly independent."""
    mats = [phi_monomial(m, field) for m in alternating_monomials(max_len)]
    degs = [m.degree for m in mats if not m.is_zero]
    width = int(max(degs)) + 1 if degs else 1
    rows = [[c for row in m.e for poly in row for c in poly._c + (0,) * (width - len(poly._c))]
            for m in mats]
    ech = Echelon(field, 4 * width)
    ech.add(rows)
    return ech.rank == len(rows)


def p1_fails_on_fc(g: UniPoly) -> bool:
    """The square-zero relative free algebra never has the one-variable
    vanishing property: g(ab) has a transcendental image, exhibited here."""
    if g.is_zero:
        raise ZeroPolynomial("the property is stated for nonzero polynomials")
    if g_at_alphabeta(g).is_zero:
        raise InternalError(f"g(ab) vanished for the nonzero polynomial {g}")
    return True
