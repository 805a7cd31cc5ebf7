"""Center algebras of multivariate polynomial sets.

The center of polynomials f_1, ..., f_m in n variables is the space of
n x n rational matrices X such that H_i * X is symmetric for every Hessian
H_i.  It always contains the scalar matrices, is closed under the Jordan
product (X*Y + Y*X)/2, and its idempotents are in bijection with the
simultaneous direct-sum decompositions of the polynomial set.

``center_basis`` assembles one linear equation per (polynomial, strictly
upper entry, monomial) triple: H*X - X^T*H is antisymmetric, so the strictly
upper entries carry the whole condition.  Rows are gcd-normalized, sign
canonicalized, deduplicated, and sorted.  ``nullspace_basis`` solves the
system modulo a 61-bit prime, lifts the kernel by rational reconstruction
(with CRT over more primes when needed) and checks every lifted vector
exactly against every row.  Since the identity always lies in the center,
the elimination stops as soon as the mod-p rank reaches n^2 - 1 and the
identity passes the check; a scalar center then costs a fraction of the
rows.  The mod-p rank is at most the rational rank, so the certified vectors
are the whole kernel, and they are returned in the canonical free-variable
form that exact elimination gives, so the basis is reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, EmptyInput
from .poly import Polynomial, hessian
from .ratlinalg import (
    RatMatrix,
    in_span,
    nullspace_basis,
    row_space_basis,
    signed_primitive_row,
    span_intersection,
    unvec,
    vec,
)


@dataclass(frozen=True)
class CenterBasis:
    """Canonical basis of a center algebra, as n x n matrices."""

    n: int
    basis: tuple[RatMatrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vectors(self) -> list[tuple]:
        return [vec(x) for x in self.basis]

    def contains(self, x: RatMatrix) -> bool:
        """Exact span membership test."""
        if x.rows != self.n or x.cols != self.n:
            raise DimensionMismatch("matrix does not match ambient dimension")
        return in_span(self.vectors(), vec(x), self.n * self.n)


def _check_inputs(polys: Sequence[Polynomial]) -> int:
    if not polys:
        raise EmptyInput("at least one polynomial is required")
    n = polys[0].n
    if any(p.n != n for p in polys):
        raise DimensionMismatch("polynomials have mixed ambient dimensions")
    return n


def _equation_rows(polys: Sequence[Polynomial], n: int) -> list[tuple]:
    """Linear constraints on the n^2 unknown entries of X, row-major order.

    For each Hessian H the matrix H*X - X^T*H is antisymmetric in the
    unknowns, so only strictly upper entries (r, c) contribute; each monomial
    appearing in such an entry yields one equation.
    """
    seen: set[tuple] = set()
    for p in polys:
        h = hessian(p)
        for r in range(n):
            for c in range(r + 1, n):
                # Entry (r, c) is sum_l H[r][l] X[l][c] - H[l][c] X[l][r]; the
                # unknowns l*n + c and l*n + r never coincide since r != c.
                by_monomial: dict[tuple, dict[int, object]] = {}
                for l in range(n):
                    for mono, coeff in h.entry(r, l)._terms.items():
                        by_monomial.setdefault(mono, {})[l * n + c] = coeff
                    for mono, coeff in h.entry(l, c)._terms.items():
                        by_monomial.setdefault(mono, {})[l * n + r] = -coeff
                for entries in by_monomial.values():
                    row = [0] * (n * n)
                    for u, coeff in entries.items():
                        row[u] = coeff
                    canon = signed_primitive_row(row)
                    if any(canon):
                        seen.add(canon)
    return sorted(seen)


def center_basis(polys: Sequence[Polynomial]) -> CenterBasis:
    """Canonical basis of the center of the given polynomial set.

    The dimension is at least 1 (scalar matrices always satisfy the
    symmetry condition).  Inputs of degree <= 1 have zero Hessians and
    contribute no constraints.
    """
    n = _check_inputs(polys)
    rows = _equation_rows(polys, n)
    if not rows:
        rows = [(0,) * (n * n)]
    system = RatMatrix.from_rows(rows)
    kernel = nullspace_basis(system)
    return CenterBasis(n, tuple(unvec(v, n, n) for v in kernel))


def jordan_product(x: RatMatrix, y: RatMatrix) -> RatMatrix:
    """Symmetrized matrix product (x*y + y*x)/2."""
    if x.rows != x.cols or y.rows != y.cols or x.rows != y.rows:
        raise DimensionMismatch("jordan product needs equal square matrices")
    return (x * y + y * x).scale(Fraction(1, 2))


def membership_check(x: RatMatrix, polys: Sequence[Polynomial]) -> bool:
    """Direct verification that H_i * x is symmetric for every input.

    This is the defining condition of the center, checked entry by entry
    with no shortcut; it serves as the independent oracle for
    ``center_basis``.
    """
    n = _check_inputs(polys)
    if x.rows != n or x.cols != n:
        raise DimensionMismatch("matrix does not match ambient dimension")
    for p in polys:
        product = hessian(p).times_matrix(x)
        if not product.is_symmetric():
            return False
    return True


def intersect_centers(groups: Sequence[Sequence[Polynomial]]) -> CenterBasis:
    """Center basis of the intersection of per-group centers.

    Spans the same space as ``center_basis`` of the concatenated groups;
    computing it by explicit span intersection provides a cross-validation
    path.
    """
    if not groups:
        raise EmptyInput("at least one polynomial group is required")
    n = _check_inputs(groups[0])
    for group in groups[1:]:
        if _check_inputs(group) != n:
            raise DimensionMismatch("groups have mixed ambient dimensions")
    width = n * n
    current = [vec(x) for x in center_basis(groups[0]).basis]
    for group in groups[1:]:
        other = [vec(x) for x in center_basis(group).basis]
        current = span_intersection(current, other, width)
    current = row_space_basis(current, width)
    return CenterBasis(n, tuple(unvec(v, n, n) for v in current))
