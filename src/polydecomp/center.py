"""Center algebras of multivariate polynomial sets.

The center of polynomials f_1, ..., f_m in n variables is the space of
n x n rational matrices X such that H_i * X is symmetric for every Hessian
H_i.  It always contains the scalar matrices, is closed under the Jordan
product (X*Y + Y*X)/2, and its idempotents are in bijection with the
simultaneous direct-sum decompositions of the polynomial set.

The condition has one representation here.  Each Hessian is a sum
H(x) = sum_m x^m S_m of constant symmetric coefficient matrices S_m, read
straight off the terms, so "H * X symmetric for all x" is "S_m * X symmetric
for every m".  ``membership_check`` tests exactly that, and ``center_basis``
assembles one linear equation per (coefficient matrix, strictly upper entry)
pair: S*X - X^T*S is antisymmetric, so the strictly upper entries carry the
whole condition.  The rows are built sparse, pair by pair, as primitive
integer rows with a positive first entry, deduplicated as they come, and
only as fast as ``nullspace_basis`` reads them.  Rows of one pair touch only
columns r and c of X, so the fill of the elimination stays local.

``nullspace_basis`` eliminates the rows in that order modulo a 61-bit prime.
The equation of (r, c) takes the value S[r][c] - S[c][r] at X = I, so one
exact pass that finds every S symmetric certifies that the identity lies in
the kernel.  The mod-p rank never exceeds the rational rank, so once it
reaches n^2 - 1 the kernel is exactly the span of the identity: a scalar
center is certified by the symmetry of the S, with no further row built or
checked.  Any other center is tried at the end of a pair whose rows add no
mod-p rank, after a pair that did: the kernel reconstructed from the one
prime is returned if every vector in it passes the membership test against
every S.  Those vectors lie in the center and number at least its
dimension, so they span it, and no further row is built.  A center that no
try certifies (one whose entries need more than one prime) reads every row;
its kernel is lifted by rational reconstruction, with CRT over more primes,
and every lifted vector is checked exactly against every row.  The basis is
returned in the canonical free-variable form that exact elimination gives,
which depends on the row space only, not on the row order: it is
reproducible across runs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import gcd, lcm

from ._rat import Record
from .errors import DimensionMismatch, EmptyInput, InternalInvariantViolation
from .poly import Polynomial
from .ratlinalg import (
    RatMatrix,
    _primitive_int_row,
    _SparseSystem,
    nullspace_basis,
    unvec,
    vec,
)


class CenterBasis(Record):
    """Canonical basis of a center algebra, as n x n matrices."""

    __slots__ = ("n", "basis")
    n: int
    basis: tuple[RatMatrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vectors(self) -> list[tuple]:
        return [vec(x) for x in self.basis]


def _check_inputs(polys: Sequence[Polynomial]) -> int:
    if not polys:
        raise EmptyInput("at least one polynomial is required")
    n = polys[0].n
    if any(p.n != n for p in polys):
        raise DimensionMismatch("polynomials have mixed ambient dimensions")
    return n


def _coefficient_matrices(polys: Sequence[Polynomial]) -> list[dict]:
    """Hessian coefficient matrices S_m of every input, H = sum_m x^m S_m.

    The second derivative of c*x^a by x_r and x_l is
    c*a_r*(a_l - [r = l])*x^(a - e_r - e_l), so a term fills entries (r, l)
    and (l, r) of one S_m per pair of its variables, and no two terms meet in
    the same entry.  Each S_m is stored sparsely as {row: {column: value}};
    it is symmetric, so its rows are also its columns.  The matrices are
    those of p times the lcm of its coefficient denominators: a nonzero
    scale changes no symmetry condition and keeps the entries integers.
    """
    mats = []
    for p in polys:
        scale = lcm(*(c.denominator for c in p._terms.values() if type(c) is Fraction))
        by_monomial: dict[tuple, dict] = {}
        for mono, coeff in p._terms.items():
            coeff = int(coeff * scale)
            support = [i for i, e in enumerate(mono) if e]
            for k, r in enumerate(support):
                for l in support[k:]:
                    value = coeff * mono[r] * (mono[l] - (r == l))
                    if not value:
                        continue
                    lowered = list(mono)
                    lowered[r] -= 1
                    lowered[l] -= 1
                    s = by_monomial.setdefault(tuple(lowered), {})
                    s.setdefault(r, {})[l] = value
                    s.setdefault(l, {})[r] = value
        mats.extend(by_monomial.values())
    return mats


def _equation_rows(mats: list[dict], n: int) -> Iterator[tuple | None]:
    """Linear constraints on the n^2 unknown entries of X, row-major order,
    from the coefficient matrices ``mats``.

    For each coefficient matrix S the matrix S*X - X^T*S is antisymmetric in
    the unknowns, so each strictly upper entry (r, c) yields one equation,
    nonzero when row r or row c of S is.  The equations come pair by pair,
    (r, c) ascending, and for each pair in coefficient matrix order: those
    of one pair touch only columns r and c of X, and None follows them.
    Each is a sparse primitive integer row of (column, value) pairs, columns
    ascending, its first value positive; repeats are dropped where they
    first reappear.  The rows are built as they are read.

    Before the first row, one exact pass checks that every S is symmetric.
    The equation of (r, c) takes the value S[r][c] - S[c][r] at X = I, so
    this certifies that every row vanishes at the identity.
    """
    for s in mats:
        for r, row in s.items():
            for l, v in row.items():
                if l not in s or s[l].get(r) != v:
                    raise InternalInvariantViolation("coefficient matrix is not symmetric")
    seen: set = set()
    for r in range(n):
        for c in range(r + 1, n):
            for s in mats:
                upper, lower = s.get(r), s.get(c)
                if upper is None and lower is None:
                    continue
                # Entry (r, c) is sum_l S[r][l] X[l][c] - S[c][l] X[l][r]; the
                # unknowns l*n + c and l*n + r never coincide since r != c.
                row = [(l * n + c, v) for l, v in upper.items()] if upper else []
                if lower:
                    row += [(l * n + r, -v) for l, v in lower.items()]
                row.sort()
                g = gcd(*(v for _, v in row))
                if row[0][1] < 0:
                    g = -g
                row = tuple(row) if g == 1 else tuple((j, v // g) for j, v in row)
                before = len(seen)
                seen.add(row)
                if len(seen) > before:
                    yield row
            yield None


def center_basis(polys: Sequence[Polynomial]) -> CenterBasis:
    """Canonical basis of the center of the given polynomial set.

    The dimension is at least 1 (scalar matrices always satisfy the
    symmetry condition).  Inputs of degree <= 1 have zero Hessians and
    contribute no constraints.
    """
    n = _check_inputs(polys)
    mats = _coefficient_matrices(polys)

    def members(kernel):
        return _all_members([unvec(v, n, n) for v in kernel], polys, mats)

    identity = vec(RatMatrix.identity(n))
    kernel = nullspace_basis(_SparseSystem(n * n, _equation_rows(mats, n), identity, members))
    return CenterBasis(n, tuple(unvec(v, n, n) for v in kernel))


def membership_check(x: RatMatrix, polys: Sequence[Polynomial]) -> bool:
    """Whether S * x is symmetric for every Hessian coefficient matrix S.

    H_i * x is symmetric at every point exactly when S * x is symmetric for
    every coefficient matrix S of H_i, so this is the defining condition of
    the center, on the representation ``center_basis`` draws its equations
    from.  The independent oracle is ``brute_force_center_dim`` in
    ``tests/algebra_helpers.py``.
    """
    return _all_members([x], polys)


def _all_members(
    xs: Sequence[RatMatrix], polys: Sequence[Polynomial], mats: list[dict] | None = None
) -> bool:
    """``membership_check`` of every x in xs, on the coefficient matrices of
    polys: ``mats`` when the caller has built them, else built here once."""
    n = _check_inputs(polys)
    if mats is None:
        mats = _coefficient_matrices(polys)
    for x in xs:
        if x.rows != n or x.cols != n:
            raise DimensionMismatch("matrix does not match ambient dimension")
        # a nonzero scale of x changes no symmetry; integers keep the sums fast
        ints = _primitive_int_row(vec(x))
        columns = [ints[c::n] for c in range(n)]
        for s in mats:
            # rows of S * x outside the support of S are zero
            product = {
                r: [sum(v * col[l] for l, v in row.items()) for col in columns]
                for r, row in s.items()
            }
            for r, values in product.items():
                for c, value in enumerate(values):
                    if c != r and value != (product[c][r] if c in product else 0):
                        return False
    return True
