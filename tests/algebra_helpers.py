"""Cross-check helpers the tests use and the library does not need.

``intersect_centers`` computes a joint center by explicit span intersection
of per-group centers, a second route to what ``center_basis`` of the
concatenated groups gives; ``separate_by_full_expansion`` is the second
route to ``separate``, one expansion in all variables whose monomials are
routed to blocks; ``find_idempotents_by_matrices`` is the second route to
``find_idempotents``, the same spectral search on n x n matrices;
``jordan_product`` and ``rank_profile`` state algebraic facts the tests
check; ``in_span``, ``same_span`` and ``center_contains`` compare spans by
echelon forms, and ``at_matrix`` evaluates a polynomial at a matrix.
"""

import itertools
import random
from fractions import Fraction
from typing import Sequence

from polydecomp import (
    CenterBasis,
    DimensionMismatch,
    IdempotentSet,
    InternalInvariantViolation,
    Polynomial,
    RatMatrix,
    UniPoly,
    center_basis,
    extended_gcd,
    substitute_linear,
)
from polydecomp.idempotent import COEFF_RANGE, _identity_failure
from polydecomp.ratlinalg import (
    _cleared,
    _echelon,
    _in_row_space,
    _sparse_rows,
    minimal_polynomial,
    nullspace_basis,
    primary_coprime_factors,
    primitive_integer_matrix,
    row_space_basis,
    unvec,
    vec,
)


def jordan_product(x: RatMatrix, y: RatMatrix) -> RatMatrix:
    """Symmetrized matrix product (x*y + y*x)/2."""
    return (x * y + y * x).scale(Fraction(1, 2))


def rank_profile(idem: IdempotentSet) -> tuple:
    """Idempotent ranks (their traces), ascending; ranks are the block sizes."""
    return tuple(sorted(e.trace() for e in idem.eps))


def in_span(vectors: Sequence[Sequence], target: Sequence, width: int) -> bool:
    base = list(vectors)
    return len(row_space_basis(base + [tuple(target)], width)) == len(
        row_space_basis(base, width)
    )


def same_span(a: Sequence[Sequence], b: Sequence[Sequence], width: int) -> bool:
    joint = len(row_space_basis(list(a) + list(b), width))
    return len(row_space_basis(a, width)) == joint == len(row_space_basis(b, width))


def span_intersection(a: Sequence[Sequence], b: Sequence[Sequence], width: int) -> list:
    """Canonical basis of span(a) intersected with span(b)."""
    a = [tuple(v) for v in a]
    b = [tuple(v) for v in b]
    if not a or not b:
        return []
    ka = len(a)
    cols = ka + len(b)
    stacked = RatMatrix(
        width,
        cols,
        [a[j][r] if j < ka else -b[j - ka][r] for r in range(width) for j in range(cols)],
    )
    meet = [
        tuple(sum(coeffs[j] * a[j][r] for j in range(ka)) for r in range(width))
        for coeffs in nullspace_basis(stacked)
    ]
    return row_space_basis(meet, width)


def intersect_centers(groups: Sequence[Sequence[Polynomial]]) -> CenterBasis:
    """Center basis of the intersection of per-group centers."""
    n = groups[0][0].n
    width = n * n
    current = center_basis(groups[0]).vectors()
    for group in groups[1:]:
        current = span_intersection(current, center_basis(group).vectors(), width)
    current = row_space_basis(current, width)
    return CenterBasis(n, tuple(unvec(v, n, n) for v in current))


def separate_by_full_expansion(
    polys: Sequence[Polynomial], p: RatMatrix, blocks: Sequence[tuple[int, int]]
) -> list[list[Polynomial]]:
    """Expand f(P*y) in all n variables and route each monomial to the one
    block it touches, constants to the first block; ValueError on a
    monomial that touches two blocks."""
    out = []
    for f in polys:
        buckets: list[dict] = [{} for _ in blocks]
        for mono, c in substitute_linear(f, p).terms():
            touched = [b for b, (lo, hi) in enumerate(blocks) if any(mono[lo:hi])]
            if len(touched) > 1:
                raise ValueError(f"monomial {mono} spans blocks {touched}")
            b = touched[0] if touched else 0
            lo, hi = blocks[b]
            buckets[b][mono[lo:hi]] = c
        out.append(
            [Polynomial(hi - lo, bucket) for (lo, hi), bucket in zip(blocks, buckets)]
        )
    return out


def center_contains(center: CenterBasis, x: RatMatrix) -> bool:
    """Exact span membership test, by reduction against the echelon form."""
    width = center.n * center.n
    if x.rows != center.n or x.cols != center.n:
        raise DimensionMismatch("matrix does not match ambient dimension")
    form = _echelon(_sparse_rows(center.vectors()), width)
    return _in_row_space(_sparse_rows([vec(x)]), form, width)


def at_matrix(p: UniPoly, m: RatMatrix) -> RatMatrix:
    """p evaluated at a square matrix (Horner on d * p, divided by d once)."""
    n = m.rows
    coeffs, d = _cleared(p.coefficients())
    acc = RatMatrix.zeros(n, n)
    ident = RatMatrix.identity(n)
    for c in reversed(coeffs):
        acc = acc * m + ident.scale(c)
    return acc if d == 1 else acc.scale(Fraction(1, d))


def find_idempotents_by_matrices(
    center: CenterBasis, seed: int = 42, max_tries: int = 8
) -> IdempotentSet:
    """``find_idempotents`` on n x n matrices: the same draws from the same
    corner bases, corners e*Z*e by matrix products, minimal polynomials of
    the drawn matrices and projectors evaluated at them."""
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
            final.append(block)
            return
        sub_mats = [unvec(v, n, n) for v in restricted]
        for _ in range(max_tries):
            rng = random.Random(f"{seed}:{next(draw_counter)}")
            acc = RatMatrix.zeros(n, n)
            for x in sub_mats:
                c = rng.randint(1, COEFF_RANGE)
                acc = acc + x.scale(-c if rng.randint(0, 1) else c)
            g = primitive_integer_matrix(acc)
            m = minimal_polynomial(g)
            factors = primary_coprime_factors(m)
            if len(factors) < 2:
                continue
            children = []
            covered = RatMatrix.zeros(n, n)
            for mi in factors:
                if mi(0) != 0:
                    ni = m // mi
                    _, u, _ = extended_gcd(ni, mi)
                    proj = at_matrix((u * ni) % m, g)
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
    failure = _identity_failure(result)
    if failure is None and not all(center_contains(center, e) for e in result.eps):
        failure = "an element left the center span"
    if failure is not None:
        raise InternalInvariantViolation(failure)
    return result
