"""Exception types shared across the package, and the one check of a count
parameter.

Every error raised on a violated precondition names the precondition in its
message.  The classes that report bad input derive from ``UsageError``, which
the CLI turns into exit code 2.  ``InternalError`` and its subclass signal
bugs; the CLI prints them as ``internal error:`` with exit code 2 too.
"""


class UsageError(ValueError):
    """Bad input from the caller: text, a parameter, or an operand."""


class ParseError(UsageError):
    """Malformed input text: an expression, with the character offset of the
    failure, or an input file, with the line at fault (neither when the whole
    file is at fault)."""

    def __init__(self, message: str, offset: int | None = None, *, line: int | None = None):
        if offset is not None:
            message += f" (at offset {offset})"
        elif line is not None:
            message += f" (at line {line})"
        super().__init__(message)
        self.offset, self.line = offset, line


class ZeroModulus(UsageError):
    """A rational literal whose denominator vanishes in the target field."""


class InvalidParameter(UsageError):
    """A constructor or operation parameter outside its documented range."""


class NonConstantDeterminant(UsageError):
    """Matrix inversion requires a determinant of degree 0."""


class SingularMatrix(UsageError):
    """Matrix inversion requires a nonzero determinant."""


class IdentityWord(UsageError):
    """Operation undefined on the identity word."""


class ZeroPolynomial(UsageError):
    """Operation undefined on the zero polynomial."""


class InvalidLetter(UsageError):
    """A letter outside the four generators X, X^-1, Y, Y^-1."""


class InternalError(ArithmeticError):
    """An exact computation contradicted a fixed closed form or a proven
    bound; signals a bug."""


class DecompositionFailure(InternalError):
    """A matrix fell outside the represented subalgebra; signals a bug."""


class StillInL(RuntimeError):
    """Witness extraction inconclusive: no tried conjugate left the L ideal."""


class NonInvertibleOrder(UsageError):
    """Element order not invertible in the coefficient field."""


class NotAUnit(UsageError):
    """Element has no two-sided inverse in its algebra."""


class ArityMismatch(UsageError):
    """Number of supplied elements differs from the declared arity."""


class TooLargeForExhaustive(UsageError):
    """Exhaustive enumeration would exceed the configured element bound."""


class AllZero(UsageError):
    """Every component within the truncation bound vanished; raise the bound."""


def check_count(name: str, value: int) -> None:
    """A sample or trial count must not be negative (zero is allowed and
    examines nothing); neither may a numpy seed."""
    if value < 0:
        raise InvalidParameter(f"{name} must be non-negative, got {value}")
