"""Complete orthogonal idempotent sets inside a center algebra.

The search never solves the quadratic system e^2 = e directly.  Instead it
draws a random element g of the algebra, takes the minimal polynomial of g,
splits it into pairwise-coprime factors over the rationals, and assembles
the corresponding spectral projectors as polynomials in g via Bezout
cofactors.  Projectors are then refined recursively inside their own corner
e*Z*e of the algebra until no further rational split shows up.

A center of dimension 1 contains only the trivial idempotents, so {I} is
returned immediately and constitutes a certificate of indecomposability.
For larger centers a failure to split after ``max_tries`` draws is a Monte
Carlo answer, not a proof; callers recover missed splits by recursing on
sub-blocks with fresh centers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from .center import CenterBasis, _all_members
from .errors import InternalInvariantViolation
from .poly import Polynomial
from .ratlinalg import (
    RatMatrix,
    UniPoly,
    extended_gcd,
    minimal_polynomial,
    primary_coprime_factors,
    primitive_integer_matrix,
    row_space_basis,
    unvec,
    vec,
)

COEFF_RANGE = 9  # random combination coefficients are drawn from +-1..9


@dataclass(frozen=True)
class IdempotentSet:
    """Matrices e_1, ..., e_t with e_i^2 = e_i, e_i e_j = 0, sum = identity."""

    n: int
    eps: tuple[RatMatrix, ...]

    def __len__(self) -> int:
        return len(self.eps)


def _random_combination(
    mats: Sequence[RatMatrix], rng: random.Random
) -> RatMatrix:
    acc = RatMatrix.zeros(mats[0].rows, mats[0].cols)
    for m in mats:
        c = rng.randint(1, COEFF_RANGE)
        if rng.randint(0, 1):
            c = -c
        acc = acc + m.scale(c)
    return acc


def _crt_projectors(
    m: UniPoly, factors: Sequence[UniPoly], g: RatMatrix
) -> list[RatMatrix]:
    """Spectral projectors of g, one per pairwise-coprime factor of m.

    For factor M_i with cofactor N_i = m / M_i, the Bezout identity
    u*N_i + v*M_i = 1 makes (u*N_i)(g) act as the identity on the M_i
    component and as zero on the others.
    """
    projectors = []
    for mi in factors:
        ni = m // mi
        gcd_poly, u, _ = extended_gcd(ni, mi)
        if gcd_poly != UniPoly.one():
            raise InternalInvariantViolation("factors are not pairwise coprime")
        projectors.append(((u * ni) % m).of_matrix(g))
    return projectors


def find_idempotents(
    center: CenterBasis, seed: int = 42, max_tries: int = 8
) -> IdempotentSet:
    """Complete orthogonal idempotent set of the center, deterministic in seed.

    Returns {I} immediately when the center is one-dimensional.  Otherwise
    each block found so far is refined by random spectral splitting inside
    its own restricted algebra; a block whose restricted algebra stays
    unsplit for ``max_tries`` draws is kept whole.  All returned sets are
    verified exactly before being handed back.
    """
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    if center.dim < 1:
        raise ValueError("center basis is empty")
    n = center.n
    identity = RatMatrix.identity(n)
    if center.dim == 1:
        return IdempotentSet(n, (identity,))
    width = n * n
    draw_counter = itertools.count()
    final: list[RatMatrix] = []

    def refine(block: RatMatrix) -> None:
        restricted = row_space_basis(
            [vec(block * x * block) for x in center.basis], width
        )
        if len(restricted) == 1:
            # only scalar multiples of the block unit: certified unsplittable
            final.append(block)
            return
        sub_mats = [unvec(v, n, n) for v in restricted]
        for _ in range(max_tries):
            rng = random.Random(f"{seed}:{next(draw_counter)}")
            # Rescale to primitive integers: the projectors are unchanged and
            # the minimal polynomial becomes monic with integer coefficients,
            # so its rational roots are integer divisors of the constant term.
            g = primitive_integer_matrix(_random_combination(sub_mats, rng))
            m = minimal_polynomial(g)
            if m.degree < 1:
                continue
            factors = primary_coprime_factors(m)
            if len(factors) < 2:
                continue
            projectors = _crt_projectors(m, factors, g)
            # Factors avoiding eigenvalue 0 yield projectors that live inside
            # the block (their defining polynomials vanish at 0, so they kill
            # the complement of the block).  Whatever is left of the block
            # after removing them is itself an idempotent.
            children = []
            covered = RatMatrix.zeros(n, n)
            for mi, proj in zip(factors, projectors):
                if mi(0) != 0:
                    children.append(proj)
                    covered = covered + proj
            remainder = block - covered
            if not remainder.is_zero():
                children.append(remainder)
            if len(children) < 2:
                continue
            for child in children:
                refine(child)
            return
        final.append(block)

    refine(identity)
    result = IdempotentSet(n, tuple(final))
    _assert_internally_valid(result, center)
    return result


def _identity_failure(idem: IdempotentSet) -> str | None:
    """First of e^2 = e, e_i e_j = 0 (i != j), sum = I that fails, if any."""
    n = idem.n
    total = RatMatrix.zeros(n, n)
    for i, e in enumerate(idem.eps):
        if e.rows != n or e.cols != n:
            return f"element {i} is not {n}x{n}"
        if e * e != e:
            return f"element {i} is not idempotent"
        for j, f in enumerate(idem.eps):
            if i != j and not (e * f).is_zero():
                return f"elements {i} and {j} are not orthogonal"
        total = total + e
    if not total.is_identity():
        return "idempotents do not sum to the identity"
    return None


def _assert_internally_valid(idem: IdempotentSet, center: CenterBasis) -> None:
    """Postcondition guard; failures indicate a bug, never bad input."""
    failure = _identity_failure(idem)
    if failure is not None:
        raise InternalInvariantViolation(failure)
    for i, e in enumerate(idem.eps):
        if not center.contains(e):
            raise InternalInvariantViolation(f"element {i} left the center span")


def verify_complete(idem: IdempotentSet, polys: Sequence[Polynomial]) -> bool:
    """Check all defining identities exactly, plus center membership.

    True iff every element squares to itself, distinct elements multiply to
    zero, the sum is the identity, and each element passes
    ``membership_check`` against the input polynomials.
    """
    return _identity_failure(idem) is None and _all_members(idem.eps, polys)
