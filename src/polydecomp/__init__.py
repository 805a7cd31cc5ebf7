"""Exact direct-sum decomposition of multivariate polynomial sets.

Given polynomials f_1, ..., f_m over the rationals, the package decides
whether a single invertible linear change of variables rewrites all of them
simultaneously as sums of polynomials in disjoint groups of variables, and
constructs the change of variables and the decomposed polynomials when it
does.  The engine computes the center algebra of the set (all matrices X
with H_i * X symmetric for every Hessian H_i), extracts a complete set of
orthogonal idempotents from it, and turns those idempotents into variable
blocks.  All arithmetic is exact.
"""

from .center import CenterBasis, center_basis, membership_check
from .decompose import (
    DecompositionNode,
    DecompositionResult,
    VerificationReport,
    decompose_recursive,
    verify_decomposition,
)
from .errors import (
    DimensionMismatch,
    EmptyInput,
    InternalInvariantViolation,
    ParseError,
    PolyDecompError,
    SingularMatrix,
)
from .idempotent import IdempotentSet, find_idempotents
from .poly import (
    Polynomial,
    parse_polynomial,
    render_canonical,
    substitute_linear,
)
from .ratlinalg import RatMatrix, invert

__version__ = "0.1.0"


# the planted-instance generator is loaded on first use, not with the package
_FROM_INSTANCEGEN = ("PlantedInstance", "generate")


def __getattr__(name):
    if name in _FROM_INSTANCEGEN:
        from . import instancegen

        return getattr(instancegen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_FROM_INSTANCEGEN})


__all__ = [
    "CenterBasis",
    "DecompositionNode",
    "DecompositionResult",
    "DimensionMismatch",
    "EmptyInput",
    "IdempotentSet",
    "InternalInvariantViolation",
    "ParseError",
    "PlantedInstance",
    "PolyDecompError",
    "Polynomial",
    "RatMatrix",
    "SingularMatrix",
    "VerificationReport",
    "center_basis",
    "decompose_recursive",
    "find_idempotents",
    "generate",
    "invert",
    "membership_check",
    "parse_polynomial",
    "render_canonical",
    "substitute_linear",
    "verify_decomposition",
]
