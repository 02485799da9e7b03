"""lpifc: exact verification toolkit for Laurent polynomial identities of
unit groups, built around the 2x2 polynomial-matrix representation of the
relative free algebra on two square-zero generators."""

from .exactalg import Field, FieldElem, Mat2Poly, UniPoly
from .laurent import LaurentPoly, max_cumulus, obstruction_matrix, parse_laurent, reduce_to_two_vars
from .words import (
    CUMULUS_ONE,
    Letter,
    Word,
    factor_cumulus_one,
    parse_word,
    sgn_recursive,
    word_invariants,
)

__all__ = [
    "Field",
    "FieldElem",
    "UniPoly",
    "Mat2Poly",
    "Letter",
    "Word",
    "CUMULUS_ONE",
    "parse_word",
    "word_invariants",
    "factor_cumulus_one",
    "sgn_recursive",
    "LaurentPoly",
    "parse_laurent",
    "max_cumulus",
    "obstruction_matrix",
    "reduce_to_two_vars",
]

__version__ = "0.1.0"
