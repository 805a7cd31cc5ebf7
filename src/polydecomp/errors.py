"""Exception types shared across the package."""


class PolyDecompError(Exception):
    """Base class for all package-specific errors."""


class ParseError(PolyDecompError):
    """Raised on malformed polynomial or problem-file text.

    Carries the character offset of the offending token in ``position``, and
    the text without it in ``message``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class DocumentError(PolyDecompError):
    """A result document holds an entry that is not what its schema says."""


class DimensionMismatch(PolyDecompError):
    """Operands live in incompatible ambient dimensions or shapes."""


class EmptyInput(PolyDecompError):
    """An operation that needs at least one polynomial received none."""


class SingularMatrix(PolyDecompError):
    """Matrix inversion was requested for a rank-deficient matrix."""


class InternalInvariantViolation(PolyDecompError):
    """A postcondition that is mathematically guaranteed failed; a bug."""


class LiftExhausted(PolyDecompError):
    """A modular lift needed more primes than are pinned: the rationals it
    reconstructs are too large for the product of every kernel prime."""
