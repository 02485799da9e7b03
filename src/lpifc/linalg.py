"""Exact linear algebra over a Field on plain numbers, as in ``UniPoly._c``
(over F_p ints in [0, p), over Q ints while integral and ``Fraction``s
otherwise): one incremental reduced row echelon form, and solving on top of
it.  Inputs are never mutated.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidParameter
from .exactalg import Field, _reduce


class Echelon:
    """The reduced row echelon form of every row added so far: ``rows[i]``
    has a leading 1 in column ``pivots[i]``, the other rows are zero there,
    and the pivots increase.  ``add`` reduces each new row against the pivot
    rows and clears only its new pivot from them, so the earlier rows are
    never reduced again.  The form is unique, whatever the batching.
    """

    __slots__ = ("field", "ncols", "rows", "pivots")

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def add(self, rows: Iterable[Sequence]) -> None:
        """Add rows of ``ncols`` plain numbers."""
        p = self.field.p
        for row in rows:
            r = _reduce(p, row)
            if len(r) != self.ncols:
                raise InvalidParameter(f"a row of {len(r)} entries in a system of {self.ncols} columns")
            for prow, c in zip(self.rows, self.pivots):
                f = r[c]
                if f:
                    r = _reduce(p, [a - f * b for a, b in zip(r, prow)])
            lead = next((c for c, a in enumerate(r) if a), None)
            if lead is None:
                continue
            inv = pow(r[lead], -1, p) if p else Fraction(1) / r[lead]
            r = _reduce(p, [inv * a for a in r])
            for i, prow in enumerate(self.rows):
                f = prow[lead]
                if f:
                    self.rows[i] = _reduce(p, [a - f * b for a, b in zip(prow, r)])
            at = bisect.bisect(self.pivots, lead)
            self.rows.insert(at, r)
            self.pivots.insert(at, lead)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def nullspace(self) -> list[list]:
        """A basis of the right kernel, one vector per free column."""
        p = self.field.p
        basis = []
        for fc in sorted(set(range(self.ncols)) - set(self.pivots)):
            vec = [0] * self.ncols
            vec[fc] = 1
            for row, pc in zip(self.rows, self.pivots):
                vec[pc] = -row[fc] % p if p else -row[fc]
            basis.append(vec)
        return basis


def solve(field: Field, a: Sequence[Sequence], b: Sequence) -> list | None:
    """One exact solution of A x = b, or None when the system is inconsistent."""
    ncols = len(a[0]) if a else 0
    ech = Echelon(field, ncols + 1)
    ech.add([*row, bi] for row, bi in zip(a, b))
    if ncols in ech.pivots:
        return None
    x = [0] * ncols
    for row, pc in zip(ech.rows, ech.pivots):
        x[pc] = row[ncols]
    return x
