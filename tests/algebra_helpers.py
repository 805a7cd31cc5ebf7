"""Cross-check helpers the tests use and the library does not need.

``intersect_centers`` computes a joint center by explicit span intersection
of per-group centers, a second route to what ``center_basis`` of the
concatenated groups gives; ``separate_by_full_expansion`` is the second
route to ``separate``, one expansion in all variables whose monomials are
routed to blocks; ``hessian_coefficient_matrices`` reads the Hessian
coefficient matrices off second derivatives taken by sympy, the reference
for those the center solve reads off the terms, and
``dense_equation_rows`` is the center's equation system assembled densely
from them, the reference for the sparse rows the center solve builds;
``reconstruction_by_full_expansion`` is the forward form of the identity
``verify_decomposition`` checks, f_i(P*y) expanded in all variables
against the embedded leaves; ``substitute_one`` expands one polynomial
with no packed digits and no blocks, the reference for the packed
expansion of several polynomials and blocks in ``substitute_linear``;
``find_idempotents_by_matrices`` is the second route to
``find_idempotents``, the same spectral search on n x n matrices;
``jordan_product`` and ``rank_profile`` state algebraic facts the tests
check; ``row_space_basis`` is a span's reduced echelon
basis and ``kernel_basis`` the canonical basis of a kernel, both from
sympy, the references for the fraction-free elimination
``ratlinalg._bareiss`` and the center's lifted kernels, and
``scaled_rows`` puts a basis over its least denominator as the idempotent
search does; ``in_span``, ``same_span`` and ``center_contains`` compare
spans by echelon forms, ``at_matrix`` evaluates a polynomial at a matrix,
``matrix_rows`` lists a matrix's rows and ``unvec`` builds a matrix from
its row-major entries; ``sympy_poly`` and ``unipoly`` carry a polynomial
between the library's integer ``UniPoly`` and sympy, which does every
polynomial operation the tests need.  Five are the plain kernels
behind faster library ones: ``members_by_matrix`` tests membership
with one product per coefficient matrix, the reference for the packed
product of ``_all_members``; ``wang_reconstruct`` runs Wang's Euclid on every
entry, the reference for ``_reconstruct``; ``bezout_projector`` takes the
projector polynomial from sympy's extended Euclid (``extended_gcd``), the
reference for the Taylor projectors and the complement of ``_projectors``;
``krylov_minimal_polynomial`` stacks the Fraction Krylov powers and takes
sympy's kernel of them, the reference for the fraction-free
``minimal_polynomial``; ``jordan_table_by_products`` forms every Jordan
product of the basis by full n x n products, the reference for the packed
table of ``_jordan_table``.  ``verify_complete`` checks an idempotent
set's defining identities by full products and ``membership_check`` of
every element, what a passing split of ``verify_decomposition`` proves
without them.  ``parse_by_tokens`` is
the second route to ``parse_polynomial``: a token-at-a-time tokenizer and
recursive-descent parser with the same results and the same ``ParseError``
messages and positions.

``brute_force_center_dim`` is the independent oracle for the center: it
multiplies the symbolic Hessian (``hessian``, from the oracle's own
``partial_derivative``) by the unknown matrix, writes out the full symmetry
condition densely, with no deduplication and no antisymmetry shortcut, and
ranks the system with a plain row-at-a-time elimination.  It shares neither
the coefficient matrices the center solve and ``membership_check`` read off
the terms nor the main linear algebra path, nor any derivative code.
"""

import itertools
import random
import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

import sympy

from polydecomp import (
    CenterBasis,
    DecompositionResult,
    DimensionMismatch,
    IdempotentSet,
    InternalInvariantViolation,
    ParseError,
    Polynomial,
    RatMatrix,
    center_basis,
    membership_check,
    substitute_linear,
)
from polydecomp._rat import Rat, normalize
from polydecomp.idempotent import COEFF_RANGE, MAX_TRIES
from polydecomp.poly import embed, validate_variable_names
from polydecomp.ratlinalg import (
    UniPoly,
    _cleared,
    _primitive_int_row,
    primary_coprime_factors,
    vec,
)


def jordan_product(x: RatMatrix, y: RatMatrix) -> RatMatrix:
    """Symmetrized matrix product (x*y + y*x)/2."""
    return (x * y + y * x).scale(Fraction(1, 2))


def matrix_rows(m: RatMatrix) -> list[list]:
    """The rows of m as lists of entries."""
    return [list(m.row(r)) for r in range(m.rows)]


def unvec(v: Sequence, rows: int, cols: int) -> RatMatrix:
    """The matrix whose row-major entries are v, the inverse of ``vec``."""
    return RatMatrix(rows, cols, list(v))


def rank_profile(idem: IdempotentSet) -> tuple:
    """Idempotent ranks (their traces), ascending; ranks are the block sizes."""
    return tuple(sorted(sum(e.entry(i, i) for i in range(e.rows)) for e in idem.eps))


def _to_sympy(rows: Sequence[Sequence], width: int) -> sympy.Matrix:
    entries = [Fraction(x) for row in rows for x in row]
    rationals = [sympy.Rational(x.numerator, x.denominator) for x in entries]
    return sympy.Matrix(len(rows), width, rationals)


def _from_sympy(x) -> Rat:
    """A sympy rational as a library scalar: int when integral, else Fraction."""
    return int(x.p) if x.q == 1 else Fraction(int(x.p), int(x.q))


def row_space_basis(vectors: Sequence[Sequence], width: int) -> list[tuple]:
    """Canonical (reduced echelon) basis of the span of the given vectors,
    from sympy's rref."""
    vectors = list(vectors)
    if not vectors:
        return []
    reduced, pivots = _to_sympy(vectors, width).rref()
    return [tuple(map(_from_sympy, reduced.row(i))) for i in range(len(pivots))]


def kernel_basis(rows: Sequence[Sequence], width: int) -> list[tuple]:
    """Canonical basis of the right kernel of rational rows, from sympy's
    nullspace: one vector per free column, ascending, 1 at it and 0 at the
    other free columns."""
    return [tuple(map(_from_sympy, v)) for v in _to_sympy(rows, width).nullspace()]


def scaled_rows(basis: Sequence[Sequence]) -> tuple[list, int]:
    """Rational rows as the integer rows d * rows over their least
    denominator d."""
    denom = lcm(*(Fraction(x).denominator for row in basis for x in row))
    return [[int(x * denom) for x in row] for row in basis], denom


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
    stacked = [[*(v[r] for v in a), *(-v[r] for v in b)] for r in range(width)]
    meet = [
        tuple(sum(coeffs[j] * a[j][r] for j in range(ka)) for r in range(width))
        for coeffs in kernel_basis(stacked, ka + len(b))
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


def substitute_one(p: Polynomial, m: RatMatrix) -> Polynomial:
    """p(M y) for one polynomial by sum factorization with no packed
    digits: partial terms keyed by the x-factors they have left and their
    packed y-monomial, int coefficients over one common denominator."""
    if m.rows != p.n:
        raise DimensionMismatch(
            f"substitution matrix is {m.rows}x{m.cols}, ambient dimension is {p.n}"
        )
    k = m.cols
    if not p._terms:
        return Polynomial.zero(k)
    degree = p.total_degree()
    base = degree + 1
    width = degree.bit_length()
    dens = []
    forms = []
    for i in range(p.n):
        row, d = _cleared(m.row(i))
        dens.append(d)
        forms.append([(base**j, v) for j, v in enumerate(row) if v])
    terms = []  # (x-factors left, numerator, denominator) per term of p
    for mono, c in p._terms.items():
        num, d = (c.numerator, c.denominator) if type(c) is Fraction else (c, 1)
        left = 0
        for i, e in enumerate(mono):
            if e:
                left |= e << (width * i)
                d *= dens[i] ** e
        terms.append((left, num, d))
    common = lcm(*(d for _, _, d in terms))
    # x-factors left -> {packed y-monomial: int}
    level = {left: {0: num * (common // d)} for left, num, d in terms}
    done = level.pop(0, {})
    while level:
        following = {0: done}
        for left, ys in level.items():
            i = (left.bit_length() - 1) // width
            acc = following.setdefault(left - (1 << (width * i)), {})
            for ky, vy in ys.items():
                for kf, vf in forms[i]:
                    key = ky + kf
                    acc[key] = acc.get(key, 0) + vy * vf
        done = following.pop(0)
        level = following
    out = {}
    for key, v in done.items():
        if not v:
            continue
        mono = []
        for _ in range(k):
            key, e = divmod(key, base)
            mono.append(e)
        out[tuple(mono)] = v // common if v % common == 0 else Fraction(v, common)
    return Polynomial._raw(k, out)


def reconstruction_by_full_expansion(
    polys: Sequence[Polynomial], result: DecompositionResult
) -> bool:
    """Whether f_i(P*y) equals the sum of the leaf polynomials, each placed at
    its variable indices, for every input f_i; False when a leaf does not
    carry one polynomial per input."""
    n = polys[0].n
    leaves = list(result.tree.leaves())
    if any(len(leaf.polys) != len(polys) for leaf in leaves):
        return False
    for i, f in enumerate(polys):
        total = Polynomial.zero(n)
        for leaf in leaves:
            total = total + embed(leaf.polys[i], leaf.variable_indices, n)
        if total != substitute_linear(f, result.P):
            return False
    return True


def hessian_coefficient_matrices(polys: Sequence[Polynomial]) -> list[list[list[int]]]:
    """The Hessian coefficient matrices S_m of each input, H = sum_m x^m S_m,
    read off the Hessian that sympy's sparse polynomial ring differentiates:
    entry (r, l) of S_m is the coefficient of x^m in d^2 f / dx_r dx_l.  Each
    is a dense n x n list of integer rows, the S_m of one input scaled by
    the lcm of their denominators (a nonzero scale changes no symmetry
    condition); inputs of degree <= 1 give none."""
    mats = []
    for p in polys:
        n = p.n
        _, *xs = sympy.polys.rings.ring([f"x{i}" for i in range(n)], sympy.QQ)
        f = sum((c * sympy.prod(x**e for x, e in zip(xs, m)) for m, c in p.terms()), 0 * xs[0])
        by_monomial: dict = {}
        for r, l in itertools.product(range(n), repeat=2):
            for mono, coeff in f.diff(xs[r]).diff(xs[l]).terms():
                s = by_monomial.setdefault(mono, [[0] * n for _ in range(n)])
                s[r][l] = Fraction(int(coeff.numerator), int(coeff.denominator))
        scale = lcm(*(x.denominator for s in by_monomial.values() for row in s for x in row))
        mats.extend([[int(x * scale) for x in row] for row in s] for s in by_monomial.values())
    return mats


def dense_equation_rows(polys: Sequence[Polynomial], n: int) -> list[tuple]:
    """The center's equations assembled densely from sympy's Hessian, the
    reference for the sparse rows ``center_basis`` builds: for each
    coefficient matrix S and each strictly upper entry (r, c) that row r or
    row c of S reaches, the n^2-wide row of S*X - X^T*S at (r, c), scaled to
    a primitive integer row with its first nonzero entry positive;
    deduplicated and sorted."""
    seen = set()
    for s in hessian_coefficient_matrices(polys):
        for r in range(n):
            for c in range(r + 1, n):
                if not any(s[r]) and not any(s[c]):
                    continue
                row = [0] * (n * n)
                for l, v in enumerate(s[r]):
                    row[l * n + c] = v
                for l, v in enumerate(s[c]):
                    row[l * n + r] = -v
                g = gcd(*row)
                if next(v for v in row if v) < 0:
                    g = -g
                seen.add(tuple(v // g for v in row))
    return sorted(seen)


def center_contains(center: CenterBasis, x: RatMatrix) -> bool:
    """Exact span membership test, by comparing echelon forms."""
    if x.rows != center.n or x.cols != center.n:
        raise DimensionMismatch("matrix does not match ambient dimension")
    return in_span(center.vectors(), vec(x), center.n * center.n)


T = sympy.Symbol("t")


def sympy_poly(p: UniPoly) -> sympy.Poly:
    """p as a sympy polynomial in T over the rationals."""
    return sympy.Poly(list(reversed(p.coefficients())), T, domain="QQ")


def unipoly(expr) -> UniPoly:
    """A sympy polynomial or expression in T with integer coefficients."""
    coeffs = sympy.Poly(expr, T).all_coeffs()
    if not all(c.is_integer for c in coeffs):
        raise ValueError(f"{expr} has a coefficient that is not an integer")
    return UniPoly([int(c) for c in reversed(coeffs)])


def at_matrix(p: sympy.Poly, m: RatMatrix) -> RatMatrix:
    """The sympy polynomial p evaluated at a square matrix (Horner on d * p,
    divided by d once)."""
    n = m.rows
    coeffs, d = _cleared([Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])
    acc = RatMatrix.zeros(n, n)
    ident = RatMatrix.identity(n)
    for c in reversed(coeffs):
        acc = acc * m + ident.scale(c)
    return acc if d == 1 else acc.scale(Fraction(1, d))


def members_by_matrix(xs: Sequence[RatMatrix], mats: Sequence[Sequence[Sequence]]) -> bool:
    """Whether S * x is symmetric for every x in xs and every coefficient
    matrix S in mats, each a dense list of rows, as
    ``hessian_coefficient_matrices`` gives them."""
    for x in xs:
        n = x.rows
        for s in mats:
            product = [
                [sum(v * x.entry(l, c) for l, v in enumerate(s[r])) for c in range(n)]
                for r in range(n)
            ]
            if any(product[r][c] != product[c][r] for r in range(n) for c in range(r)):
                return False
    return True


def wang_reconstruct(residues: dict, modulus: int) -> dict | None:
    """Rationals a/b = u mod modulus with |a|, b <= sqrt(modulus/2), by one
    Wang Euclid per entry of an echelon form of residues; None as soon as an
    entry has no such preimage."""
    bound = isqrt(modulus // 2)
    form = {}
    for c in sorted(residues):
        out = {}
        for j, u in residues[c].items():
            r0, r1, s0, s1 = modulus, u, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound or gcd(r1, s1) != 1:
                return None
            out[j] = normalize(Fraction(r1, s1)) if s1 != 1 else r1
        form[c] = out
    return form


def extended_gcd(a: sympy.Poly, b: sympy.Poly) -> tuple[sympy.Poly, sympy.Poly, sympy.Poly]:
    """Monic gcd g of two sympy polynomials over the rationals with cofactors
    (g, u, v) satisfying u*a + v*b = g, by sympy's extended Euclid."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials")
    if b.is_zero:
        v, u, g = sympy.gcdex(b, a)
    else:
        u, v, g = sympy.gcdex(a, b)
    return g, u, v


def bezout_projector(m: UniPoly, mi: UniPoly) -> sympy.Poly:
    """(u * N) mod m for N = m / mi and the Bezout identity u*N + v*mi = 1,
    a sympy polynomial over the rationals."""
    m, mi = sympy_poly(m), sympy_poly(mi)
    ni = m.exquo(mi)
    g, u, _ = extended_gcd(ni, mi)
    if not g.is_one:
        raise InternalInvariantViolation("factors are not pairwise coprime")
    return (u * ni).rem(m)


def krylov_minimal_polynomial(m: RatMatrix, start: RatMatrix | None = None) -> UniPoly:
    """Least-degree monic p with p(m) * start = 0 (start defaults to the
    identity): the powers start, m*start, ... are flattened and stacked as
    columns until the stack has a kernel, whose one vector, with 1 at the
    last power, holds the coefficients."""
    if m.rows != m.cols:
        raise DimensionMismatch("minimal polynomial needs a square matrix")
    power = RatMatrix.identity(m.rows) if start is None else start
    if power.rows != m.cols:
        raise DimensionMismatch("start does not match the matrix")
    columns = []
    while True:
        columns.append(vec(power))
        kernel = kernel_basis(list(zip(*columns)), len(columns))
        if kernel:
            return UniPoly(kernel[0])
        power = m * power


def jordan_table_by_products(rows: Sequence[Sequence[int]], n: int) -> dict:
    """{(i, j): B_i*B_j + B_j*B_i as a row-major list} for i <= j, by full
    n x n products of the integer rows."""
    mats = [RatMatrix(n, n, row) for row in rows]
    return {
        (i, j): list(vec(mats[i] * mats[j] + mats[j] * mats[i]))
        for i, j in itertools.combinations_with_replacement(range(len(rows)), 2)
    }


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


def verify_complete(idem: IdempotentSet, polys: Sequence[Polynomial]) -> bool:
    """Whether idem is a complete orthogonal idempotent set inside the
    center of polys: every identity holds and every element passes
    ``membership_check``."""
    return _identity_failure(idem) is None and all(
        membership_check(e, polys) for e in idem.eps
    )


def find_idempotents_by_matrices(center: CenterBasis, seed: int = 42) -> IdempotentSet:
    """``find_idempotents`` on n x n matrices: the same draws from the same
    corner bases, corners e*Z*e by matrix products, minimal polynomials of
    the drawn matrices and projectors evaluated at them; each block comes
    with its corner's reduced echelon basis over its least denominator, or
    None when the corner is one-dimensional."""
    n = center.n
    identity = RatMatrix.identity(n)
    if center.dim == 1:
        return IdempotentSet(n, (identity,), (None,))
    width = n * n
    draw_counter = itertools.count()
    final: list[RatMatrix] = []
    corners: list = []

    def refine(block: RatMatrix) -> None:
        restricted = row_space_basis(
            [vec(block * x * block) for x in center.basis], width
        )
        if len(restricted) == 1:
            final.append(block)
            corners.append(None)
            return
        sub_mats = [unvec(v, n, n) for v in restricted]
        for _ in range(MAX_TRIES):
            rng = random.Random(f"{seed}:{next(draw_counter)}")
            acc = RatMatrix.zeros(n, n)
            for x in sub_mats:
                c = rng.randint(1, COEFF_RANGE)
                acc = acc + x.scale(-c if rng.randint(0, 1) else c)
            g = RatMatrix(n, n, _primitive_int_row(vec(acc)))
            m = krylov_minimal_polynomial(g)
            factors = primary_coprime_factors(m)
            if len(factors) < 2:
                continue
            children = []
            covered = RatMatrix.zeros(n, n)
            for mi in factors:
                if mi(0) != 0:
                    proj = at_matrix(bezout_projector(m, mi), g)
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
        corners.append(tuple(map(tuple, scaled_rows(restricted)[0])))

    refine(identity)
    result = IdempotentSet(n, tuple(final), tuple(corners))
    failure = _identity_failure(result)
    if failure is None and not all(center_contains(center, e) for e in result.eps):
        failure = "an element left the center span"
    if failure is not None:
        raise InternalInvariantViolation(failure)
    return result


MAX_ORACLE_DIM = 6  # brute-force oracle scale guard


def partial_derivative(p: Polynomial, index: int) -> Polynomial:
    """Formal derivative of p by variable ``index``, term by term."""
    if not 0 <= index < p.n:
        raise IndexError(f"variable index {index} out of range for n={p.n}")
    out = {}
    for mono, c in p.terms():
        e = mono[index]
        if e:
            out[mono[:index] + (e - 1,) + mono[index + 1 :]] = c * e
    return Polynomial(p.n, out)


def hessian(p: Polynomial) -> tuple[tuple[Polynomial, ...], ...]:
    """Symmetric matrix of second partial derivatives, as n row tuples."""
    firsts = [partial_derivative(p, i) for i in range(p.n)]
    return tuple(
        tuple(partial_derivative(first, c) for c in range(p.n)) for first in firsts
    )


def _oracle_rank(rows: list[list[Fraction]]) -> int:
    """Row-at-a-time integer echelon rank over the rationals, independent of
    the library's modular elimination."""
    echelon: list[tuple[int, list[int]]] = []  # (lead index, primitive row)
    for row in rows:
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        work = [int(x * denom) for x in row]
        while True:
            lead = next((i for i, v in enumerate(work) if v), None)
            if lead is None:
                break
            hit = next((r for l, r in echelon if l == lead), None)
            if hit is None:
                g = 0
                for v in work:
                    g = gcd(g, v)
                work = [v // g for v in work]
                echelon.append((lead, work))
                echelon.sort(key=lambda t: t[0])
                break
            a, b = hit[lead], work[lead]
            work = [u * a - v * b for u, v in zip(work, hit)]
            g = 0
            for v in work:
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                work = [v // g for v in work]
    return len(echelon)


def brute_force_center_dim(fs: Sequence[Polynomial]) -> int:
    """Center dimension via the dense definition, with no shortcuts.

    Emits one equation per (polynomial, matrix entry, monomial) for every
    entry of H*X - (H*X)^T, duplicates and identically-zero diagonal rows
    included, then ranks the system.  Guarded to ambient dimension <= 6.
    """
    if not fs:
        raise ValueError("need at least one polynomial")
    n = fs[0].n
    if n > MAX_ORACLE_DIM:
        raise ValueError(f"oracle limited to dimension <= {MAX_ORACLE_DIM}")
    rows: list[list[Fraction]] = []
    for f in fs:
        h = hessian(f)
        for r in range(n):
            for c in range(n):
                # (H*X)[r][c] - (H*X)[c][r] as a polynomial-linear form in X
                coeffs: dict[int, Polynomial] = {}
                for l in range(n):
                    top = h[r][l]
                    if not top.is_zero():
                        u = l * n + c
                        coeffs[u] = coeffs.get(u, Polynomial.zero(n)) + top
                    bot = h[c][l]
                    if not bot.is_zero():
                        u = l * n + r
                        coeffs[u] = coeffs.get(u, Polynomial.zero(n)) - bot
                monomials = set()
                for poly in coeffs.values():
                    monomials.update(poly._terms)
                for mono in sorted(monomials):
                    row = [Fraction(0)] * (n * n)
                    for u, poly in coeffs.items():
                        row[u] = Fraction(poly.coefficient(mono))
                    rows.append(row)
    return n * n - _oracle_rank(rows)


# The parser the library had before its split-and-lookup scanner, kept as
# the differential oracle for ``parse_polynomial``: same results, same
# ParseError messages and positions.

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[+\-*/^])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def _int_literal(digits: str, pos: int) -> int:
    """The value of a literal of decimal digits, or a ParseError at ``pos``
    when it is longer than the interpreter converts (sys.get_int_max_str_digits)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long", pos) from None


def parse_by_tokens(text: str, variables: Sequence[str]) -> Polynomial:
    """``parse_polynomial`` as a tokenizer and a recursive-descent parser.

    Grammar: terms joined by '+'/'-'; a term is '*'-separated factors, each
    an integer, an 'a/b' rational, or a variable with an optional '^exp'
    where exp is a non-negative integer literal.  An omitted coefficient
    means 1 and an omitted exponent means 1; whitespace is insignificant.
    """
    names = validate_variable_names(variables)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text", 0)
    k = 0

    def peek():
        return tokens[k] if k < len(tokens) else (None, None, len(text))

    def parse_factor(coeff: Rat, exps: list[int]) -> Rat:
        nonlocal k
        kind, value, pos = peek()
        if kind == "int":
            k += 1
            num = _int_literal(value, pos)
            nkind, nvalue, npos = peek()
            if nkind == "op" and nvalue == "/":
                k += 1
                dkind, dvalue, dpos = peek()
                if dkind != "int":
                    raise ParseError("expected integer denominator", dpos)
                k += 1
                den = _int_literal(dvalue, dpos)
                if den == 0:
                    raise ParseError("zero denominator", dpos)
                return normalize(coeff * Fraction(num, den))
            if nkind == "op" and nvalue == "^":
                raise ParseError("exponents apply to variables, not coefficients", npos)
            return coeff * num
        if kind == "name":
            k += 1
            if value not in index:
                raise ParseError(f"unknown variable {value!r}", pos)
            exp = 1
            nkind, nvalue, npos = peek()
            if nkind == "op" and nvalue == "^":
                k += 1
                ekind, evalue, epos = peek()
                if ekind != "int":
                    raise ParseError(
                        "exponent must be a non-negative integer literal", epos
                    )
                k += 1
                exp = _int_literal(evalue, epos)
            exps[index[value]] += exp
            return coeff
        raise ParseError("expected a coefficient or variable", pos)

    terms: dict = {}
    sign = 1
    kind, value, _ = peek()
    if kind == "op" and value in "+-":
        sign = -1 if value == "-" else 1
        k += 1
    while True:
        coeff: Rat = sign
        exps = [0] * n
        coeff = parse_factor(coeff, exps)
        while True:
            kind, value, pos = peek()
            if kind == "op" and value == "*":
                k += 1
                coeff = parse_factor(coeff, exps)
            else:
                break
        mono = tuple(exps)
        s = terms.get(mono, 0) + coeff
        if s:
            terms[mono] = normalize(s) if isinstance(s, Fraction) else s
        else:
            terms.pop(mono, None)
        kind, value, pos = peek()
        if kind is None:
            break
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            k += 1
            continue
        raise ParseError("expected '+' or '-' between terms", pos)
    return Polynomial._raw(n, terms)
