"""Cross-check helpers the tests use and the library does not need.

``intersect_centers`` computes a joint center by explicit span intersection
of per-group centers, a second route to what ``center_basis`` of the
concatenated groups gives; ``separate_by_full_expansion`` is the second
route to ``separate``, one expansion in all variables whose monomials are
routed to blocks; ``jordan_product`` and ``rank_profile`` state
algebraic facts the tests check; ``in_span`` and ``same_span`` compare spans
by the ranks of their echelon forms.
"""

from fractions import Fraction
from typing import Sequence

from polydecomp import (
    CenterBasis,
    IdempotentSet,
    Polynomial,
    RatMatrix,
    center_basis,
    substitute_linear,
)
from polydecomp.ratlinalg import nullspace_basis, row_space_basis, unvec, vec


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
