"""Complete orthogonal idempotent sets inside a center algebra.

A center is a Jordan algebra under x o y = (x*y + y*x)/2, not always an
associative one, and the search runs inside it, on coordinate vectors of
length r = dim Z.  In the center's reduced echelon basis over the n^2 matrix
entries an element's coordinates are its entries at the r pivots, read
without a solve.  That basis comes from one fraction-free elimination of
the given basis (``ratlinalg._bareiss``), as integer rows over their least
denominator, whether or not the given rows are independent.  A basis of
rank 1 must be vec(I): the scalars hold only the trivial idempotents, so
{I} is returned at once, a certificate of indecomposability, and nothing
else is built.  A larger one gets certified structure constants from the
r(r+1)/2 products (B_i*B_j + B_j*B_i)/2 on packed rows (``_jordan_table``):
elements are integer vectors over one denominator and each product
operator L_x an integer r x r matrix.

The search never solves e^2 = e directly.  It draws a random element g of a
corner of dimension k and forms its powers 1, g, g^2, ... as the Krylov
vectors of the unit under L_g (Jordan algebras are power associative, so
these are the matrix powers), in integers, k + 2 at most: 1 and the corner
span at most k + 1 dimensions.  Their first dependency is the minimal
polynomial, monic with integer coefficients (``ratlinalg.minimal_polynomial``),
so its rational roots are integers.  It is split into pairwise-coprime
factors over the rationals, and their spectral projectors are integer
polynomials in g over one denominator, of degree below the minimal
polynomial's (``_projectors``), so their values at g are combinations of the
powers already formed.  Each projector e its draw did not certify (below)
is refined the same way inside its Peirce corner U_e(Z) = e*Z*e,
U_e = 2 L_e^2 - L_e, until no rational split shows up.  The corner's
dimension is the trace of U_e, or 1 outright when e has trace 1; a
one-dimensional corner holds only multiples of e, which is then final,
and no basis of it is built (``_Coordinates.corner``).  Draws
combine a corner's reduced echelon basis over the n^2 entries, not one over
the coordinates, whose pivots lie elsewhere: so the draws, and the results,
are those of the same search on n x n matrices.  Only the returned
idempotents become matrices, and their identities are proved by the
caller's change of variables (``find_idempotents``).

A draw also certifies its corner.  Let q be g's minimal polynomial on the
block of e: the factors whose projectors fall inside the block, and the
power of t when some of the block is left over (the minimal polynomial
itself at the root).  Q[g]e is isomorphic to Q[t]/(q), so deg q = k proves
that the corner is Q[g]e, and then each factor's corner is Q[t]/(factor): a
local algebra for (t - c)^j and a field for a rootless factor of degree at
most 3, neither of which holds an idempotent but its unit.  Such a corner
is final, with the factor's degree as its dimension, and no operator is
built and no draw made in it; a corner whose own draw proves it one such
algebra stops drawing.  A draw skipped there would have found a single
factor, so its seed is spent unused and every later draw takes the seed it
would take in a search that drew in every corner.

An uncertified corner (a rootless factor of degree 4 or more, which can be
a product of fields such as Q(sqrt 2) x Q(sqrt 3), or a non-commutative
corner) that stays unsplit after ``MAX_TRIES`` draws is a Monte Carlo
answer, not a proof.  A caller that recurses on its block gets no larger
algebra, since the block's own center is the corner e*Z*e; what can
recover a missed split there is the block's own draws under its own seed.
The returned set carries each idempotent's corner, None when certified and
otherwise the basis its draws came from, and the corner's dimension, so the
caller makes each certified block a leaf and derives each other block's
center from its corner, solving none.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence
from math import gcd, lcm
from operator import lshift, mul

from ._rat import Record
from .center import CenterBasis
from .errors import DimensionMismatch, InternalInvariantViolation
from .ratlinalg import (
    RatMatrix,
    UniPoly,
    _bareiss,
    _primitive_int_row,
    _ratio,
    minimal_polynomial,
    primary_coprime_factors,
)

COEFF_RANGE = 9  # random combination coefficients are drawn from +-1..9
MAX_TRIES = 8  # draws per block before it is kept whole


class IdempotentSet(Record):
    """Matrices e_1, ..., e_t with e_i^2 = e_i, e_i e_j = 0, sum = identity.

    For a set ``find_idempotents`` returns, ``corners`` holds the Peirce
    corner e_i*Z*e_i of each e_i, the center of its block: None when the
    search certified that the corner holds no idempotent but e_i (it is
    Q e_i, a field or a local algebra), else integer row-major vectors
    spanning it.  ``dims`` holds the corners' dimensions.  Both are None
    for a set assembled by hand.
    """

    __slots__ = ("n", "eps", "corners", "dims")
    _defaults = (None, None)
    n: int
    eps: tuple[RatMatrix, ...]
    corners: tuple[tuple[tuple[int, ...], ...] | None, ...] | None
    dims: tuple[int, ...] | None

    def __len__(self) -> int:
        return len(self.eps)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _apply(a: list, v: Sequence[int]) -> list[int]:
    return [_dot(row, v) for row in a]


def _echelon_basis(vectors: Sequence[Sequence[int]]) -> tuple[list, list, int]:
    """The pivot columns of the span of integer vectors and its reduced
    echelon basis E, as the integer rows d * E over the least d > 0."""
    pivots, rows, t = _bareiss(vectors, len(vectors[0]))
    rows = rows[: len(pivots)]
    g = gcd(t, *(x for row in rows for x in row))
    if t < 0:
        g = -g
    return pivots, [[x // g for x in row] for row in rows], t // g


def _reduced(v: Sequence[int], d: int) -> tuple[list[int], int]:
    """The element v / d with the common factor of v and d cancelled."""
    g = gcd(d, *v)
    return [x // g for x in v], d // g


def _jordan_table(rows: list, n: int, pivots: list, denom: int) -> dict:
    """Coordinates of T = B_i*B_j + B_j*B_i, for every i <= j, on the integer
    rows of the basis; each is certified by the exact check that the basis
    combination with its coordinates is denom * T.

    The entries are packed k bits each: a matrix row is the integer
    sum_b X[l][b] * 2^(k*b), so row a of B_i*B_j is one dot product of row a
    of B_i with the packed rows of B_j, and a matrix is its rows packed in
    turn.  With M the largest |entry| of the rows, |T[q]| <= 2n M^2 and the
    combination, with r coordinates each at most 2n M^2, has entries at most
    2r n M^3.  k is chosen so that 2^(k-1) > 2n M^2 (denom + r M): every
    entry of T is a signed k-bit digit, read off exactly, and every
    difference between denom * T and the combination is below 2^k, so the
    two packed integers are equal only if they agree in every entry.
    """
    r = len(rows)
    top = max(abs(x) for row in rows for x in row)
    k = (2 * n * top * top * (denom + r * top)).bit_length() + 1
    shifts = range(0, k * n * n, k)
    half, mask = 1 << (k - 1), (1 << k) - 1
    # adding ``offset`` makes every signed digit nonnegative
    offset = sum(half << s for s in shifts)
    mats = [[row[a : a + n] for a in range(0, n * n, n)] for row in rows]
    packed = [[sum(map(lshift, line, shifts)) for line in mat] for mat in mats]
    whole = [sum(map(lshift, row, shifts)) for row in rows]
    at = [k * p for p in pivots]
    coords = {}
    for i, j in itertools.combinations_with_replacement(range(r), 2):
        pi, pj = packed[i], packed[j]
        lines = [_dot(a, pj) + _dot(b, pi) for a, b in zip(mats[i], mats[j])]
        t = sum(map(lshift, lines, shifts[::n]))
        digits = t + offset
        c = [(digits >> s & mask) - half for s in at]
        if denom * t != _dot(c, whole):
            raise InternalInvariantViolation("center is not closed under the Jordan product")
        coords[i, j] = coords[j, i] = c
    return coords


class _Coordinates:
    """The center in coordinates, with certified Jordan structure constants.

    An element is a pair (v, d) of an integer vector and a positive
    denominator, the element sum_k v_k B_k / d of the reduced echelon basis
    B.  ``operator(v)`` is the integer matrix of d * scale * L_x, where
    ``scale`` is the common denominator of the structure constants.
    """

    def __init__(self, center: CenterBasis) -> None:
        n = center.n
        self.pivots, self.rows, self.denom = _echelon_basis(
            [_primitive_int_row(v) for v in center.vectors()]
        )
        self.n, self.r = n, len(self.rows)
        identity = [1 if q % (n + 1) == 0 else 0 for q in range(n * n)]
        if self.r < 2:
            # a center of rank 1 is the scalars, whose reduced echelon row is
            # vec(I): no structure is built for it
            if self.rows != [identity]:
                raise InternalInvariantViolation("identity is not in the center span")
            return
        # entry q of every basis element, for combinations of the basis
        self.columns = list(zip(*self.rows))
        self.traces = [sum(row[:: n + 1]) for row in self.rows]
        coords = _jordan_table(self.rows, n, self.pivots, self.denom)
        scale = 2 * self.denom * self.denom
        common = gcd(scale, *(x for c in coords.values() for x in c))
        self.scale = scale // common
        # operator(v)[i][j] = sum_k v_k * (coordinate i of B_k o B_j) * scale
        self._entries = [
            [tuple(coords[k, j][i] // common for k in range(self.r)) for j in range(self.r)]
            for i in range(self.r)
        ]
        self.one = [1 if p % (n + 1) == 0 else 0 for p in self.pivots]
        if self.combine(self.one) != [self.denom * x for x in identity]:
            raise InternalInvariantViolation("identity is not in the center span")

    def corner(self, v: Sequence[int], d: int) -> list | None:
        """Reduced echelon basis of the Peirce corner U_e(Z) of the
        idempotent e = v / d over the n^2 entries, as integer rows over its
        least denominator, or None when the corner is one-dimensional.

        An e of trace 1 has rank 1 as a matrix, so e*Z*e lies in e*M_n*e,
        the multiples of e: its trace is one dot product of v with the
        traces of the basis rows, O(r), and no operator is built for it.
        Otherwise U_e = 2 L_e^2 - L_e projects onto the corner, so the
        corner's dimension is the rank of U_e, which is its trace: with
        a = s * L_e, s^2 * trace(U_e) = 2 * trace(a^2) - s * trace(a), read
        off the diagonal of a^2 in O(r^2).  Only a larger corner is built,
        from the independent columns of U_e alone, the pivot columns of its
        r x r elimination, each combined over the n^2 entries.
        """
        if _dot(v, self.traces) == d * self.denom:
            return None
        a = self.operator(v)
        s = d * self.scale
        columns = list(zip(*a))
        trace = 2 * sum(map(_dot, a, columns)) - s * sum(row[i] for i, row in enumerate(a))
        if trace == s * s:
            return None
        # U_e times s^2; column k is U_e(B_k), and the pivot columns of U_e
        # are independent columns that span the corner
        u = [[2 * _dot(row, col) - s * x for col, x in zip(columns, row)] for row in a]
        images = list(zip(*u))
        spanning = [images[k] for k in _bareiss(u, self.r)[0]]
        return _echelon_basis([self.combine(col) for col in spanning])[1]

    def combine(self, v: Sequence[int]) -> list[int]:
        """Entries of sum_k v_k B_k times the basis denominator."""
        return [_dot(v, col) for col in self.columns]

    def operator(self, v: Sequence[int]) -> list[list[int]]:
        return [[_dot(v, e) for e in row] for row in self._entries]

    def matrix(self, v: Sequence[int], d: int) -> RatMatrix:
        den = d * self.denom
        return RatMatrix._raw(self.n, self.n, [_ratio(x, den) for x in self.combine(v)])


def find_idempotents(center: CenterBasis, seed: int = 42) -> IdempotentSet:
    """Complete orthogonal idempotent set of the center, deterministic in seed.

    Returns {I}, with a certified corner and no draw, when the basis spans a
    one-dimensional center, its elements independent or not.  Otherwise each
    block found so far is refined by random spectral splitting inside its
    own Peirce corner.  A corner that a draw certifies to be a field or a
    local algebra is final and draws no more; any other block whose corner
    stays unsplit for ``MAX_TRIES`` draws is kept whole.  Each idempotent
    comes with its corner (None when certified) and the corner's dimension.
    The identities e^2 = e, e_i e_j = 0 and sum = I hold by construction
    and are not checked again here: the caller
    ``decompose.change_of_variables`` proves e_j P = P D_j exactly for every
    block, which implies all three, and the verifier proves the split once
    more.
    """
    if center.dim < 1:
        raise ValueError("center basis is empty")
    n = center.n
    if any(x.rows != n or x.cols != n for x in center.basis):
        raise DimensionMismatch("basis matrix does not match ambient dimension")
    z = _Coordinates(center)
    if z.r == 1:
        return IdempotentSet(n, (RatMatrix.identity(n),), (None,), (1,))
    drawn = 0  # the draws made or skipped, each of which takes one seed
    final: list[tuple[list[int], int]] = []
    corners: list = []  # final[i]'s corner, None when certified
    dims: list[int] = []  # final[i]'s corner dimension

    def keep(idempotent: tuple[list[int], int], corner: list | None, dim: int) -> None:
        final.append(idempotent)
        corners.append(None if corner is None else tuple(map(tuple, corner)))
        dims.append(dim)

    def refine(v: list[int], d: int, corner: list | None) -> None:
        nonlocal drawn
        if corner is None:
            # only scalar multiples of the block unit: certified unsplittable
            keep((v, d), None, 1)
            return
        k = len(corner)
        for tries in range(MAX_TRIES):
            rng = random.Random(f"{seed}:{drawn}")
            drawn += 1
            coeffs = []
            for _ in corner:
                c = rng.randint(1, COEFF_RANGE)
                coeffs.append(-c if rng.randint(0, 1) else c)
            # Rescale to primitive integers: the projectors are unchanged and
            # the minimal polynomial becomes monic with integer coefficients,
            # so its rational roots are integer divisors of the constant term.
            g = _primitive_int_row([_dot(coeffs, col) for col in zip(*corner)])
            # the operator is scale * L_g; g and its powers have integer
            # coordinates, their entries at the pivots, so each power is
            # the operator applied to the one before, divided exactly by
            # the scale.  g lies in a corner of dimension k, so 1, g, g^2,
            # ... span at most k + 1 dimensions and deg m <= k + 1: the
            # minimal polynomial and every projector are read off the first
            # min(r, k + 1) + 1 powers
            a = z.operator([g[p] for p in z.pivots])
            powers = [z.one]
            for _ in range(min(z.r, k + 1)):
                powers.append([x // z.scale for x in _apply(a, powers[-1])])
            m = minimal_polynomial(powers)
            parts = _block_parts(m, primary_coprime_factors(m), powers, v, d)
            # the parts' factors multiply to q, g's minimal polynomial on the
            # block: deg q = k proves the corner is Q[t]/(q), and a part's
            # corner Q[t]/(its factor).  The draws a certified corner skips
            # spend their seeds (see the module docstring).
            certified = sum(f.degree for f, _ in parts) == k
            if len(parts) < 2:
                if certified and _indecomposable(parts[0][0]):
                    drawn += MAX_TRIES - tries - 1
                    keep((v, d), None, k)
                    return
                continue
            for f, child in parts:
                if certified and _indecomposable(f):
                    drawn += MAX_TRIES if f.degree > 1 else 0
                    keep(child, None, f.degree)
                else:
                    refine(*child, z.corner(*child))
            return
        keep((v, d), corner, k)

    refine(z.one, 1, z.rows)  # the corner of the unit is the whole center
    eps = tuple(z.matrix(v, d) for v, d in final)
    return IdempotentSet(n, eps, tuple(corners), tuple(dims))


def _indecomposable(f: UniPoly) -> bool:
    """Whether Q[t]/(f) holds no idempotent but 0 and 1, for a factor f
    that ``primary_coprime_factors`` returns: (t - c)^j is local, and a
    rootless f of degree at most 3 is irreducible, so a field.  A rootless
    f of degree 4 or more may be a product, as (t^2 - 2)(t^2 - 3) is."""
    j = f.degree
    return j <= 3 or f(-f.coefficients()[j - 1] // j) == 0


def _block_parts(
    m: UniPoly, factors: Sequence[UniPoly], powers: list, v: list[int], d: int
) -> list[tuple[UniPoly, tuple[list[int], int]]]:
    """The factors of g's minimal polynomial on the block of e = v / d, each
    with the idempotent it cuts from e, for a draw g in e's corner whose
    powers from the unit are ``powers`` and whose minimal polynomial m has
    the primary factors ``factors``.

    A factor that avoids 0 has a projector inside the block, as its
    polynomial vanishes at 0 and g is 0 off the block.  What is left of e
    after removing those projectors is g's generalized 0-eigenspace in the
    block; when it is nonzero, the power of t in m is g's on the block, as
    g is 0 off the block.  A single factor of m is all of g's minimal
    polynomial on the block, and cuts e itself: at the root it is m, and
    anywhere else, where t divides m, it is a power of t.
    """
    if len(factors) < 2:
        return [(factors[0], (v, d))]
    parts = []
    at_zero = None
    for mi, (poly, dp) in zip(factors, _projectors(m, factors)):
        if mi(0) != 0:
            parts.append((mi, _reduced([_dot(poly, x) for x in zip(*powers)], dp)))
        else:
            at_zero = mi
    common = lcm(d, *(dc for _, (_, dc) in parts))
    remainder = [x * (common // d) for x in v]
    for _, (w, dc) in parts:
        remainder = [x - y * (common // dc) for x, y in zip(remainder, w)]
    if any(remainder):
        parts.append((at_zero, _reduced(remainder, common)))
    return parts


def _projectors(m: UniPoly, factors: Sequence[UniPoly]) -> list[tuple[list[int], int]]:
    """u_i*N_i of degree < deg m for each factor M_i of the monic integer m
    that ``primary_coprime_factors`` returns, N_i = m / M_i and u_i*N_i +
    v_i*M_i = 1, as integer coefficients over a positive denominator: its
    value at g is the projector of M_i.

    These are the CRT idempotents of degree < deg m, unique, so they sum to
    exactly 1.  A rational root c of m is an integer, so for M_i = (t - c)^k
    synthetic division gives N_i and its Taylor coefficients b_j at c in
    integers.  u_i is 1/N_i to order k in t - c: b_0^k u_i = sum_(j<k) a_j
    (t - c)^j for a_0 = b_0^(k-1) and a_j = -(b_1 a_(j-1) + ... + b_j a_0)
    / b_0, each division exact, so the projector is b_0^k u_i N_i over b_0^k
    (for k = 1 the Lagrange polynomial N_i / N_i(c)).  The rootless factor,
    at most one and always last, takes 1 minus the others' projectors, so
    no Euclid runs.
    """
    out: list[tuple[list[int], int]] = []
    for mi in factors:
        k = mi.degree
        c = -mi.coefficients()[k - 1] // k
        if mi(c) != 0:
            den = lcm(*(dp for _, dp in out))
            rest = [den] + [0] * (m.degree - 1)
            for poly, dp in out:
                rest = [x - y * (den // dp) for x, y in zip(rest, poly)]
            out.append((rest, den))
            continue
        # 2k synthetic divisions by t - c: the first k leave N_i, the next
        # k have its Taylor coefficients as remainders
        quotients, b = [list(m.coefficients())], []
        for _ in range(2 * k):
            acc, quotient = 0, []
            for x in reversed(quotients[-1]):
                acc = acc * c + x
                quotient.append(acc)
            b.append(quotient.pop() if quotient else 0)
            quotients.append(quotient[::-1])
        ni, b = quotients[k] + [0] * (k - 1), b[k:]
        if b[0] == 0:
            raise InternalInvariantViolation("factors are not pairwise coprime")
        a = [b[0] ** (k - 1)]
        for j in range(1, k):
            a.append(-sum(b[i] * a[j - i] for i in range(1, j + 1)) // b[0])
        # sum_j a_j (t - c)^j N_i by Horner steps, on deg m coefficients
        poly = [a[-1] * y for y in ni]
        for x in reversed(a[:-1]):
            poly = [x * y - c * w + v for y, w, v in zip(ni, poly, [0, *poly])]
        den = b[0] ** k
        out.append((poly, den) if den > 0 else ([-x for x in poly], -den))
    return out
