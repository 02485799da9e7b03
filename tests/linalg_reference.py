"""Reference route for the tests of :mod:`lpifc.linalg`: a textbook dense
row reduction on lists of FieldElem rows, with rank, nullspace and solve on
top of it.  It shares no code with ``lpifc.linalg.Echelon``; inputs are
never mutated.
"""

from __future__ import annotations

from lpifc.exactalg import Field, FieldElem

Row = list[FieldElem]
Matrix = list[Row]


def _copy(rows: Matrix) -> Matrix:
    return [list(r) for r in rows]


def rref(field: Field, rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    m = _copy(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not m[i][c].is_zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(field: Field, rows: Matrix) -> int:
    if not rows:
        return 0
    return len(rref(field, rows)[1])


def nullspace(field: Field, rows: Matrix, ncols: int) -> list[Row]:
    """A basis of the right kernel of the matrix, one vector per free column."""
    if not rows:
        return [
            [field.one if j == k else field.zero for j in range(ncols)] for k in range(ncols)
        ]
    reduced, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Row] = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def solve(field: Field, a: Matrix, b: Row) -> Row | None:
    """One exact solution of A x = b, or None when the system is inconsistent."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    reduced, pivots = rref(field, aug)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    return x
