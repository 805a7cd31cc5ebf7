"""Center algebras of multivariate polynomial sets.

The center of polynomials f_1, ..., f_m in n variables is the space of
n x n rational matrices X such that H_i * X is symmetric for every Hessian
H_i.  It always contains the scalar matrices, is closed under the Jordan
product (X*Y + Y*X)/2, and its idempotents are in bijection with the
simultaneous direct-sum decompositions of the polynomial set.

The condition has one representation here.  Each Hessian is a sum
H(x) = sum_m x^m S_m of constant symmetric coefficient matrices S_m, read
straight off the terms as their upper-triangle entries, so "H * X symmetric
for all x" is "S_m * X symmetric for every m".  ``membership_check`` tests
exactly that, for every m in one integer product with the packed sum of the
S_m * 2^(k*m), whose k-bit digits hold the symmetry defects of the S_m one
each.  One exact pass that finds every entry list an upper triangle puts
the identity in the center.

``center_basis`` first tries a pencil.  M1, M2, M3 are fixed random integer
combinations of the S, summed in one packed pass, and C = M1^-1 M2.  Every X in the center makes M1 X
and M2 X symmetric, so it commutes with C (Harrison's center theory).  When
C is cyclic, with Krylov basis z_j = C^j w, the matrices that commute with
it are the polynomials q(C) of degree < n (Gantmacher, ch. VIII), and
"M3 q(C) symmetric" is the n(n-1)/2 equations
sum_k q_k (z_i^T M3 z_{k+j} - z_j^T M3 z_{k+i}) = 0 for i < j, all built in
O(n^3) modulo a prime p.  Every X in the kernel of the equation
rows below, reduced modulo p, is such a q(C) with q a solution, and that
kernel is at least as large as the center, so the dimension r of the
solutions bounds the center's.  r = 1 certifies the scalar center with no
equation row built.  A degenerate pencil (M1 singular, the z_j dependent,
free columns that move between primes, a candidate rejected twice) falls
back to the equation rows, and so does a wide center whose coefficient
matrices are so sparse that the rows are cheaper to read than the
r * n^3 products of the members (see ``_pencil_members``).

Those rows are one linear equation per (coefficient matrix, strictly upper
entry) pair: S*X - X^T*S is antisymmetric, so the strictly upper entries
carry the whole condition.  They are built sparse, pair by pair, as
primitive integer rows with a positive first entry, deduplicated as they
come, and handed to ``nullspace_basis``, which eliminates them modulo a
prime; further primes eliminate only the rows that raised the rank there.
The mod-p rank never exceeds the rational rank, so the dimension r of the
kernel modulo p bounds the center's too.

Both sources meet in one lift (``_lift``).  Its primes are the pinned
Mersenne primes 2^61 - 1, 2^127 - 1, 2^521 - 1, 2^607 - 1, 2^1279 - 1, ...
(``ratlinalg._kernel_prime``), so the modulus grows about geometrically:
entries of a few thousand digits take a dozen rounds, not hundreds, and a
lift that runs past the last pinned prime raises LiftExhausted.  At each
prime the basis modulo p is put in the canonical free-variable form that
exact elimination gives, combined with the earlier primes' by CRT and
lifted by rational reconstruction; a candidate is returned only once it
passes the exact membership test, the one certificate: r independent
members against a bound of r span the center.  An unlucky prime costs a
retry (the pencil gives way to the rows, the rows start again at the next
prime), never a different answer, as the form depends on the center only,
not on the primes, the pencil or the row order: it is reproducible across
runs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import combinations, count
from math import gcd, lcm
from operator import mul
from random import Random

from ._rat import Record
from .errors import DimensionMismatch, EmptyInput, InternalInvariantViolation
from .poly import Polynomial
from .ratlinalg import (
    RatMatrix,
    _crt,
    _insert_mod,
    _kernel,
    _kernel_prime,
    _primitive_int_row,
    _reconstruct,
    _solve_mod,
    _SparseSystem,
    nullspace_basis,
    vec,
)


class CenterBasis(Record):
    """A basis of a center algebra, as n x n matrices.  Only ``center_basis``
    promises the canonical one; a block's center that the pipeline carries
    from its parent's Peirce corner is any basis of the same span."""

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


def _coefficient_matrices(polys: Sequence[Polynomial]) -> list[list]:
    """Hessian coefficient matrices S_m of every input, H = sum_m x^m S_m.

    The second derivative of c*x^a by x_r and x_l is
    c*a_r*(a_l - [r = l])*x^(a - e_r - e_l), so a term fills entries (r, l)
    and (l, r) of one S_m per pair of its variables, and no two terms meet in
    the same entry.  S_m is symmetric, so it is stored as the flat list of
    its nonzero upper-triangle entries (r, l, value), r <= l; the matrices
    come in the order their monomials x^m first appear.  A monomial is
    grouped by its exponents packed into an int in base B, one past the
    largest exponent, so that x^(a - e_r - e_l) is key - B^r - B^l.  The
    matrices are those of p times the lcm of its coefficient denominators:
    a nonzero scale changes no symmetry condition and keeps the entries
    integers.
    """
    mats = []
    for p in polys:
        if not p._terms:
            continue
        scale = lcm(*(c.denominator for c in p._terms.values() if type(c) is Fraction))
        base = max(map(max, p._terms)) + 1
        powers = [base**i for i in range(p.n)]
        by_monomial: dict = {}
        for mono, coeff in p._terms.items():
            if scale != 1:
                coeff = int(coeff * scale)
            key = sum(map(mul, mono, powers))
            support = [i for i, e in enumerate(mono) if e]
            for k, r in enumerate(support):
                a = mono[r]
                row_key, row_coeff = key - powers[r], coeff * a
                # the diagonal entry, zero for a linear exponent
                if a > 1:
                    lowered = row_key - powers[r]
                    s = by_monomial.get(lowered)
                    if s is None:
                        s = by_monomial[lowered] = []
                    s.append((r, r, row_coeff * (a - 1)))
                for l in support[k + 1 :]:
                    lowered = row_key - powers[l]
                    s = by_monomial.get(lowered)
                    if s is None:
                        s = by_monomial[lowered] = []
                    s.append((r, l, row_coeff * mono[l]))
        mats.extend(by_monomial.values())
    return mats


def _equation_rows(mats: list[list], n: int) -> Iterator[tuple]:
    """Linear constraints on the n^2 unknown entries of X, row-major order,
    from the coefficient matrices ``mats``.

    For each coefficient matrix S the matrix S*X - X^T*S is antisymmetric in
    the unknowns, so each strictly upper entry (r, c) yields one equation,
    nonzero when row r or row c of S is.  The equations come pair by pair,
    (r, c) ascending, and for each pair in coefficient matrix order: those
    of one pair touch only columns r and c of X.  Each is a sparse primitive
    integer row of (column, value) pairs, columns ascending, its first value
    positive; repeats are dropped where they first reappear.  The rows are
    built as they are read, from the S_m spread into {row: {column: value}}.
    """
    spread = []
    for entries in mats:
        s: dict = {}
        for r, l, v in entries:
            s.setdefault(r, {})[l] = v
            s.setdefault(l, {})[r] = v
        spread.append(s)
    seen: set = set()
    for r in range(n):
        for c in range(r + 1, n):
            for s in spread:
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


def center_basis(polys: Sequence[Polynomial]) -> CenterBasis:
    """Canonical basis of the center of the given polynomial set.

    The dimension is at least 1 (scalar matrices always satisfy the
    symmetry condition).  Inputs of degree <= 1 have zero Hessians and
    contribute no constraints.  The basis is lifted from a cyclic pencil
    of the Hessian coefficient matrices, with no equation row built, when
    the inputs give one, and otherwise from the kernel of every equation
    row (see the module docstring).
    """
    n = _check_inputs(polys)
    mats = _coefficient_matrices(polys)
    basis = _pencil_basis(mats, polys, n)
    primes = map(_kernel_prime, count())
    while basis is None:
        basis = _lift(_row_kernels(mats, n), primes, polys, mats, n)
    return CenterBasis(n, basis)


def _row_kernels(mats: list[list], n: int):
    """The kernel basis of the equation rows modulo each prime it is called
    with: the first call reads every row, each later one only the rows that
    raised the rank in the first."""
    pivot_rows = None

    def kernel(p: int) -> list:
        nonlocal pivot_rows
        rows = _equation_rows(mats, n) if pivot_rows is None else pivot_rows
        basis, independent = nullspace_basis(_SparseSystem(n * n, rows), p)
        if pivot_rows is None:
            pivot_rows = independent
        return basis

    return kernel


def _pencil_basis(mats: list[list], polys: Sequence[Polynomial], n: int) -> tuple | None:
    """The center's canonical basis lifted from a cyclic pencil, as the
    module docstring describes, or None when the pencil is degenerate or its
    members cost more than the rows.  The combinations M1, M2, M3 are formed
    once, exactly; each prime reduces them."""
    rng = Random(0)
    combos = _pencil_combinations(mats, n, rng)
    start = [rng.getrandbits(61) for _ in range(n)]

    def members(p: int) -> list | None:
        return _pencil_members(combos, start, n, p, mats)

    return _lift(members, map(_kernel_prime, count()), polys, mats, n)


def _pencil_combinations(mats: list[list], n: int, rng: Random) -> list:
    """M1, M2, M3 = sum_m a_m S_m, sum_m b_m S_m, sum_m c_m S_m as n x n
    integer matrices, for weights a_m, b_m, c_m of 61 random bits drawn from
    ``rng`` in that order, S_m by S_m.

    The three sums are formed in one pass over the entries, packed K bits
    apart: each entry adds v * (a + b 2^K + c 2^2K), one multiply-add.  A
    sum's entry is below 2^61 * (number of S_m) * max |v| < 2^(K-1) in
    absolute value, so the packed total holds the three as signed K-bit
    digits, read off exactly.
    """
    top = max((abs(v) for s in mats for _, _, v in s), default=0)
    k = 62 + len(mats).bit_length() + top.bit_length()
    half, mask = 1 << (k - 1), (1 << k) - 1
    packed = [[0] * n for _ in range(n)]
    for s in mats:
        w = rng.getrandbits(61) | rng.getrandbits(61) << k | rng.getrandbits(61) << 2 * k
        for r, l, v in s:
            packed[r][l] += v * w
    combos = [[[0] * n for _ in range(n)] for _ in range(3)]
    for r, row in enumerate(packed):
        # S*X - X^T*S vanishes at X = I exactly when S is symmetric: this
        # puts the identity in the center, as the pencil needs, and an
        # entry below the diagonal is no upper triangle of a symmetric S
        if any(row[:r]):
            raise InternalInvariantViolation("coefficient matrix is not symmetric")
        for l in range(r, n):
            x = row[l]
            for m in combos:
                digit = ((x + half) & mask) - half
                m[r][l] = m[l][r] = digit
                x = (x - digit) >> k
    return combos


def _lift(kernel, primes: Iterator[int], polys, mats: list[list], n: int) -> tuple | None:
    """The center's canonical basis from ``kernel(p)``, a basis modulo p of
    a space that holds the center, at each prime p drawn from ``primes``;
    None when ``kernel`` gives None, its free columns move between primes
    or the same candidate is rejected twice.

    A basis of one vector bounds the center to the scalars, which it holds:
    the identity is returned with no lift.  Otherwise each basis is put in
    reduced echelon form with the columns reversed: each pivot is a
    vector's last nonzero coordinate, a free column of the canonical form,
    and its row is that kernel vector.  The forms are combined by CRT and
    reconstructed, and a candidate is returned once it passes the exact
    membership test (``_accepts``).
    """
    last = n * n - 1
    residues = previous = None
    modulus = 1
    for p in primes:
        vectors = kernel(p)
        if vectors is None:
            return None
        if len(vectors) == 1:
            return (RatMatrix.identity(n),)
        form: dict = {}
        for v in vectors:
            _insert_mod(form, [(last - j, x) for j, x in enumerate(v) if x], p)
        if residues is None:
            residues = form
        elif form.keys() != residues.keys():
            return None
        else:
            residues = _crt(residues, modulus, form, p)
        modulus *= p
        candidate = _reconstruct(residues, modulus)
        if candidate is None:
            continue
        basis = []
        for f in sorted(candidate, reverse=True):
            v = [0] * (last + 1)
            v[last - f] = 1
            for j, x in candidate[f].items():
                v[last - j] = x
            basis.append(tuple(v))
        if _accepts(basis, polys, mats, n):
            return tuple(RatMatrix._raw(n, n, v) for v in basis)
        if candidate == previous:
            return None
        previous = candidate


def _pencil_members(combos: list, start: list, n: int, p: int, mats: list[list]) -> list | None:
    """Row-major vectors of a basis of the members X = q(C) of the pencil
    modulo p, or None when M1 is singular, z_0 ... z_{n-1} are dependent, or
    r > 1 members would cost r * n^3 products past 2n * N, for N nonzeros
    in the coefficient matrices ``mats`` (a diagonal entry once, any other
    entry twice).

    C = M1^-1 M2, z_j = C^j start for j < 2n - 1, and q solves the equations
    sum_k q_k (z_i^T M3 z_{k+j} - z_j^T M3 z_{k+i}) = 0 for i < j, which say
    that M3 X is symmetric.  A single solution (the identity, q = 1) is
    returned without building X.

    The equation rows hold about n * N nonzeros, and reading them costs
    more than that, so the bound keeps the members where they are the
    cheaper way: a sum of powers in separate variables, say, has rows too
    sparse to beat.  N is counted only when r > 1.
    """
    m1, m2, m3 = combos
    c = _solve_mod([a + b for a, b in zip(m1, m2)], n, p)
    if c is None:
        return None
    z = [[x % p for x in start]]
    for _ in range(2 * n - 2):
        z.append([sum(map(mul, row, z[-1])) % p for row in c])
    u = [[sum(map(mul, row, v)) % p for row in m3] for v in z[:n]]
    g = [[sum(map(mul, a, v)) % p for v in z] for a in u]
    pivots: dict = {}
    for i, j in combinations(range(n), 2):
        # q_0 has coefficient 0, as M3 is symmetric: the rank stops at n - 1
        if len(pivots) == n - 1:
            break
        _insert_mod(pivots, [(k, g[i][k + j] - g[j][k + i]) for k in range(n)], p)
    qs = _kernel(pivots, n)[1:]
    if qs and (len(qs) + 1) * n * n > 2 * sum(2 - (r == l) for s in mats for r, l, _ in s):
        return None
    # W = Z^-1 for Z with columns z_j (only checked to exist when q = 1 is
    # the one solution); X e_b = sum_j W[j][b] X z_j, and X z_j is
    # y_j = sum_k q_k z_{k+j}
    unit = [[int(j == b) for b in range(n)] for j in range(n)] if qs else [[]] * n
    wt = _solve_mod([a + b for a, b in zip(z, unit)], n, p)
    if wt is None:
        return None
    members = [[int(a == b) for a in range(n) for b in range(n)]]
    zt = list(zip(*z))
    for q in qs:
        ys = [[sum(map(mul, q, t[j : j + n])) % p for j in range(n)] for t in zt]
        members.append([sum(map(mul, y, w)) % p for y in ys for w in wt])
    return members


def _accepts(kernel: list, polys, mats, n: int) -> bool:
    """Whether every vector of ``kernel``, in free-variable form, passes the
    exact membership test.  If the identity is exactly the sum of those
    whose free column (last nonzero coordinate) is diagonal, the last of
    them is the identity minus the others: it is not tested."""
    identity = vec(RatMatrix.identity(n))
    diagonal = [v for v in kernel if identity[max(j for j, x in enumerate(v) if x)]]
    tested = list(kernel)
    if diagonal and [sum(column) for column in zip(*diagonal)] == list(identity):
        tested.remove(diagonal[-1])
    return _all_members(tested, polys, mats)


def membership_check(x: RatMatrix, polys: Sequence[Polynomial]) -> bool:
    """Whether S * x is symmetric for every Hessian coefficient matrix S.

    H_i * x is symmetric at every point exactly when S * x is symmetric for
    every coefficient matrix S of H_i, so this is the defining condition of
    the center, on the representation ``center_basis`` draws its equations
    from, all S in one packed product (``_all_members``).  The independent
    oracle is ``brute_force_center_dim`` in ``tests/algebra_helpers.py``.
    """
    n = _check_inputs(polys)
    if x.rows != n or x.cols != n:
        raise DimensionMismatch("matrix does not match ambient dimension")
    return _all_members([vec(x)], polys)


def _all_members(
    xs: Sequence[Sequence], polys: Sequence[Polynomial], mats: list[list] | None = None
) -> bool:
    """``membership_check`` of every x in xs, each given as its row-major
    vector of n^2 rationals, on the coefficient matrices of polys: ``mats``
    when the caller has built them, else built here once.

    With x scaled to integers and k two bits past the bit lengths of the
    largest row sum of |S_m| and the largest |x|, entries (r, c) and (c, r)
    of P * x for P = sum_m S_m * 2^(k*m) differ by sum_m 2^(k*m) * d_m, where
    |d_m| < 2^(k-1) is their difference in S_m * x: 0 only if every d_m is.
    P is built once, sparse, and each x costs one product, formed only on
    the columns where x is nonzero.
    """
    n = _check_inputs(polys)
    if mats is None:
        mats = _coefficient_matrices(polys)
    if any(len(x) != n * n for x in xs):
        raise DimensionMismatch("matrix does not match ambient dimension")
    # a nonzero scale of x changes no symmetry; integers keep the sums fast
    ints = [_primitive_int_row(x) for x in xs]
    if not mats or not ints:
        return True
    row_sum = 0
    for s in mats:
        sums = [0] * n
        for r, l, v in s:
            sums[r] += abs(v)
            if l != r:
                sums[l] += abs(v)
        row_sum = max(row_sum, *sums)
    k = row_sum.bit_length() + max(max(map(abs, v)) for v in ints).bit_length() + 2
    packed: dict = {}
    for m, s in enumerate(mats):
        for r, l, v in s:
            v <<= k * m
            target = packed.setdefault(r, {})
            target[l] = target.get(l, 0) + v
            if l != r:
                target = packed.setdefault(l, {})
                target[r] = target.get(r, 0) + v
    # rows of P * x outside the support of P are zero
    support = [(r, list(row), list(row.values())) for r, row in packed.items()]
    for v in ints:
        # columns of P * x are zero where those of x are
        live = [c for c in range(n) if any(v[c::n])]
        x_rows = [[v[i + c] for c in live] for i in range(0, n * n, n)]
        product = [[0] * n for _ in range(n)]
        for r, cols, values in support:
            row = product[r]
            for c, column in zip(live, zip(*[x_rows[l] for l in cols])):
                row[c] = sum(map(mul, values, column))
        if product != [list(column) for column in zip(*product)]:
            return False
    return True
