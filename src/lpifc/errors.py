"""Exception types shared across the package, and the one check of a count
parameter.

Every error raised on a violated precondition names the precondition in its
message; the CLI maps these classes onto its exit codes.
"""


class ParseError(ValueError):
    """Malformed expression text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ZeroModulus(ValueError):
    """A rational literal whose denominator vanishes in the target field."""


class InvalidParameter(ValueError):
    """A constructor or operation parameter outside its documented range."""


class NonConstantDeterminant(ValueError):
    """Matrix inversion requires a determinant of degree 0."""


class SingularMatrix(ValueError):
    """Matrix inversion requires a nonzero determinant."""


class IdentityWord(ValueError):
    """Operation undefined on the identity word."""


class ZeroPolynomial(ValueError):
    """Operation undefined on the zero polynomial."""


class InvalidLetter(ValueError):
    """A letter outside the four generators X, X^-1, Y, Y^-1."""


class DecompositionFailure(ArithmeticError):
    """A matrix fell outside the represented subalgebra; signals a bug."""


class InternalError(ArithmeticError):
    """An exact computation contradicted a fixed closed form; signals a bug."""


class StillInL(RuntimeError):
    """Witness extraction inconclusive: no tried conjugate left the L ideal."""


class NoSigmaTau(RuntimeError):
    """No nonzero sigma*r*tau product despite r not in L; signals a bug."""


class NonInvertibleOrder(ValueError):
    """Element order not invertible in the coefficient field."""


class NotAUnit(ValueError):
    """Element has no two-sided inverse in its algebra."""


class ArityMismatch(ValueError):
    """Number of supplied elements differs from the declared arity."""


class TooLargeForExhaustive(ValueError):
    """Exhaustive enumeration would exceed the configured element bound."""


class NoWitness(RuntimeError):
    """Witness scan exhausted the field without success; signals a bug."""


class DimensionMismatch(ValueError):
    """Assignment length differs from the variable count."""


class AllZero(ValueError):
    """Every component within the truncation bound vanished; raise the bound."""


def check_count(name: str, value: int) -> None:
    """A sample or trial count must not be negative (zero is allowed and
    examines nothing)."""
    if value < 0:
        raise InvalidParameter(f"{name} must be non-negative, got {value}")
