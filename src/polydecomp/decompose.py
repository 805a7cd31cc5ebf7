"""End-to-end simultaneous direct-sum decomposition.

Per node: compute the center of the node's polynomials, extract a complete
orthogonal idempotent set, build the change of variables whose columns are
bases of the idempotents' column spaces, expand each input on each block's
columns alone (one expansion for all of them), and recurse into each block
with fresh variables.  Only the root center is solved.  A child whose
corner the idempotent search certified (a field or a local algebra) is a
leaf at once.  Any other child's center is derived: it is the parent's
Peirce corner e*Z*e, which the search returns, carried into the block's
coordinates.  After the split the
Hessians are block diagonal, so the block's part of a parent center
element lies in the child center, and a child center element padded with
zeros lies in the parent center.  A split an unlucky draw missed at the
parent is recovered, if at all, by the child's own draws under its own
seed.  The root center is carried on the result for callers that report
it.  The column spaces and inverses here are dense echelon forms, read off
one fraction-free elimination (``ratlinalg``); only the center's kernels
are found modulo primes, and lifted and certified by the center itself.

Constant terms are invisible to Hessians, so they are assigned to the first
(lowest-index) block by convention; linear terms follow their variable's
block.  With that convention the reconstruction identity
f_i(P*y) = sum of the leaf polynomials holds exactly, for P the product of
the tree's transforms.  The tree is the result: P and the t = n flag are
read off it.  ``verify_decomposition`` checks each split as
f(x) = sum_b g_b((T^-1)_b x), the sum of the children on the node's
inverse transform, one expansion per node, and those checks chain to the
identity for the leaves.  A split that passes also proves its idempotents
central, complete and orthogonal, so they get no check of their own, and a
failed verification reports the first check that fails.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate, count
from operator import mul

from ._rat import Record, normalize
from .center import CenterBasis, center_basis
from .errors import InternalInvariantViolation, SingularMatrix
from .idempotent import IdempotentSet, find_idempotents
from .poly import Polynomial, embed, substitute_linear
from .ratlinalg import RatMatrix, _cleared, column_space_basis, invert


class DecompositionNode(Record):
    """One variable block in the decomposition tree.

    ``variable_indices`` are the positions of this block's variables in the
    transformed coordinates (contiguous for pipeline output).  ``polys`` are
    the input polynomials restricted to the block, in block-local variables.
    Internal nodes carry the idempotent set and the local change of
    variables that produced their children; leaves carry neither.
    """

    __slots__ = (
        "variable_indices", "polys", "children", "center_dim", "idempotents", "transform"
    )
    _defaults = (None, None)
    variable_indices: tuple[int, ...]
    polys: tuple[Polynomial, ...]
    children: tuple["DecompositionNode", ...]
    center_dim: int
    idempotents: tuple[RatMatrix, ...] | None
    transform: RatMatrix | None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> Iterator["DecompositionNode"]:
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()


class DecompositionResult(Record):
    """The block tree and the root center it was split from.

    ``center`` is the root center the pipeline started from (None for a
    result assembled by hand); verification never reads it.  The overall
    change of variables and the t = n flag are read off the tree.
    """

    __slots__ = ("tree", "center")
    _defaults = (None,)
    tree: DecompositionNode
    center: CenterBasis | None

    @property
    def P(self) -> RatMatrix:
        """x = P*y: each node's transform times the block diagonal of its
        children's products, I at a leaf."""
        return _tree_product(self.tree)

    @property
    def diagonalizable(self) -> bool:
        """Whether every leaf has one variable (t = n)."""
        return all(len(l.variable_indices) == 1 for l in self.tree.leaves())

    def leaf_block_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(l.variable_indices) for l in self.tree.leaves()))


class VerificationReport(Record):
    __slots__ = ("ok", "reason")
    _defaults = ("",)
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def block_ranges(sizes: Sequence[int]) -> list[tuple[int, int]]:
    """Contiguous (start, stop) ranges for the given block sizes."""
    stops = list(accumulate(sizes))
    return list(zip([0, *stops], stops))


def block_diagonal(blocks: Sequence[RatMatrix]) -> RatMatrix:
    n = sum(b.rows for b in blocks)
    entries = [0] * (n * n)
    offset = 0
    for b in blocks:
        for r in range(b.rows):
            for c in range(b.cols):
                entries[(offset + r) * n + (offset + c)] = b.entry(r, c)
        offset += b.rows
    return RatMatrix(n, n, entries)


def _tree_product(node: DecompositionNode) -> RatMatrix:
    """T * block_diagonal(the children's products) of a node, I for a leaf:
    the overall change of variables of the tree below it."""
    if node.is_leaf:
        return RatMatrix.identity(len(node.variable_indices))
    return node.transform * block_diagonal([_tree_product(c) for c in node.children])


def change_of_variables(
    idem: IdempotentSet,
) -> tuple[RatMatrix, RatMatrix, list[tuple[int, int]]]:
    """Invertible P whose columns are column-space bases of each idempotent,
    P^-1, and each idempotent's contiguous range of columns.

    Conjugation by P sends the j-th idempotent to the 0/1 diagonal matrix
    supported on the j-th range; both properties are verified exactly
    before returning.  The check is e_j P = P D_j for every j, with no
    inverse: it also proves P invertible, as e_j keeps block j's
    independent columns and kills every other column, so a vanishing
    combination of P's columns vanishes block by block.  P^-1 stacks the
    reduced echelon rows E_j of each e_j, which the same elimination forms:
    e_j = C_j E_j for its columns C_j, both of full rank, so e_j^2 = e_j
    and e_j e_i = 0 give E_j C_j = I and E_j C_i = 0.
    """
    n = idem.n
    bases = [column_space_basis(e) for e in idem.eps]
    columns = [c for cols, _ in bases for c in cols]
    if len(columns) != n:
        raise InternalInvariantViolation(
            f"idempotent column spaces total {len(columns)} columns, expected {n}"
        )
    p = RatMatrix.from_columns(columns)
    ranges = block_ranges([len(cols) for cols, _ in bases])
    if diagonal_idempotent_supports(p, idem.eps) != [tuple(range(*r)) for r in ranges]:
        raise InternalInvariantViolation(
            "conjugated idempotent is not the expected diagonal block"
        )
    p_inv = [x for _, rows in bases for row in rows for x in row]
    return p, RatMatrix._raw(n, n, p_inv), ranges


def _block_center(
    corner: tuple, p: RatMatrix, p_inv: RatMatrix, start: int, stop: int
) -> CenterBasis:
    """The center of block start:stop of the split by P, carried from a
    basis of the Peirce corner e*Z*e of its idempotent e.

    The center of f(P*y) is P^-1 Z P, and its block part is the block's
    center: L X C for X in Z, with L the block's rows of P^-1 and C its
    columns of P.  As L = L e and C = e C it reads only e X e, and on the
    corner X = C (L X C) L, so a basis of the corner maps to a basis.
    """
    size, k = stop - start, p.rows
    left = RatMatrix._raw(size, k, [x for r in range(start, stop) for x in p_inv.row(r)])
    right = RatMatrix._raw(k, size, [x for r in range(k) for x in p.row(r)[start:stop]])
    return CenterBasis(size, tuple(left * RatMatrix._raw(k, k, x) * right for x in corner))


def diagonal_idempotent_supports(
    p: RatMatrix, idems: Sequence[RatMatrix]
) -> list[tuple[int, ...]] | None:
    """Index supports of P^-1 e P when every conjugate is diagonal 0/1.

    P must be invertible.  Then P^-1 e P is the 0/1 diagonal D iff
    e P = P D, that is iff each column of e P is P's column (an index of
    the support) or zero: one product per idempotent and no inverse.  It is
    taken in integers: with row r of e cleared to a_r / d_r and column c of
    P to b_c over its lcm, (e P)_rc = P_rc iff a_r . b_c = d_r b_c[r], and
    (e P)_rc = 0 iff a_r . b_c = 0.  Accepts non-contiguous supports;
    returns None if any conjugate is not a 0/1 diagonal matrix or the
    supports fail to partition the coordinates.
    """
    n = p.rows
    columns = [_cleared(p.column(c))[0] for c in range(n)]
    supports = []
    seen: set[int] = set()
    for e in idems:
        rows, dens = zip(*(_cleared(e.row(r)) for r in range(n)))
        support = []
        for c, b in enumerate(columns):
            dots = [sum(map(mul, a, b)) for a in rows]
            if dots == [d * x for d, x in zip(dens, b)]:
                support.append(c)
            elif any(dots):
                return None
        if seen.intersection(support):
            return None
        seen.update(support)
        supports.append(tuple(support))
    if len(seen) != n:
        return None
    return supports


def separate(
    polys: Sequence[Polynomial],
    p: RatMatrix,
    blocks: Sequence[tuple[int, int]],
) -> list[list[Polynomial]]:
    """Block polynomials g_B(y_B) of each f(P*y), from one expansion of
    every input and every block.

    Returns one list per input polynomial with one block-local polynomial
    per block.  When P comes from a verified complete orthogonal idempotent
    set, f(P*y) = sum_B g_B(y_B) (the paper's bijection), so setting every y
    outside block B to zero leaves g_B plus the other blocks' constants:
    g_B(y_B) = f(P_B*y_B) - f(0), where P_B is the n x k_B matrix of block
    B's columns of P, expanded in block B's k_B variables alone.  f(0) goes
    to the first block.  No cross term is ever formed, so none is detected
    here; ``verify_decomposition`` expands the blocks on rows of P^-1 and
    checks that they sum to f.
    """
    if not polys:
        return []
    n = polys[0].n
    ranges = list(blocks)
    covered = [i for start, stop in ranges for i in range(start, stop)]
    if covered != list(range(n)):
        raise ValueError("blocks must be contiguous and partition the coordinates")
    return substitute_linear(polys, p, ranges)


def decompose_recursive(polys: Sequence[Polynomial], seed: int = 42) -> DecompositionResult:
    """Full recursive pipeline; deterministic in ``seed``.

    Terminates because block sizes strictly decrease.  The result's P, the
    product of the tree's transforms, substituted into the inputs
    reproduces the leaf polynomials exactly.  A child whose corner the
    search certified (a field or a local algebra, which holds no idempotent
    but its unit) is a leaf at once, its center dimension the corner's;
    only an uncertified child has its center carried from the corner and
    searched again under a seed of its own.  Every child takes one node
    seed, searched or not, so each search keeps its seed.
    """
    polys = tuple(polys)
    root_center = center_basis(polys)
    node_counter = count()

    def rec(
        fs: tuple[Polynomial, ...], indices: tuple[int, ...], z: CenterBasis
    ) -> DecompositionNode:
        node_seed = seed * 1_000_003 + next(node_counter)
        idem = find_idempotents(z, node_seed)
        if len(idem) == 1:
            return DecompositionNode(indices, fs, (), z.dim)
        p_node, p_inv, ranges = change_of_variables(idem)
        parts = separate(fs, p_node, ranges)
        children = []
        for b, (start, stop) in enumerate(ranges):
            child_fs = tuple(g[b] for g in parts)
            child_indices = indices[start:stop]
            corner = idem.corners[b]
            if corner is None:
                next(node_counter)
                children.append(DecompositionNode(child_indices, child_fs, (), idem.dims[b]))
            else:
                z_child = _block_center(corner, p_node, p_inv, start, stop)
                children.append(rec(child_fs, child_indices, z_child))
        return DecompositionNode(indices, fs, tuple(children), z.dim, idem.eps, p_node)

    root = rec(polys, tuple(range(root_center.n)), root_center)
    return DecompositionResult(root, root_center)


def _sum_on_inverse_rows(
    blocks: Sequence[tuple[Sequence[Polynomial], Sequence[int]]], q: RatMatrix
) -> list[Polynomial]:
    """Sum over the blocks of g_i(Q_B x) for each i: a block pairs its g_i
    with its positions B, and Q_B, the rows of Q at B, has k_B rows.

    Each i's blocks are merged into one polynomial in Q's rows,
    sum_B g_i(y_B), whose terms are added, as blocks may share the constant
    monomial, and all of them are expanded on Q at once."""
    k = q.rows
    merged: list[dict] = [{} for _ in blocks[0][0]]
    for polys, positions in blocks:
        for terms, g in zip(merged, polys):
            for mono, c in embed(g, positions, k)._terms.items():
                s = terms.get(mono, 0) + c
                if s:
                    terms[mono] = normalize(s)
                else:
                    del terms[mono]
    return substitute_linear([Polynomial._raw(k, terms) for terms in merged], q)


def _verify_node(
    node: DecompositionNode, reason_prefix: str, count: int
) -> VerificationReport:
    """Check a node's witnesses (a leaf carries none) and, at an internal
    node, its split; the report names the first check that fails.

    A passing split needs no other check of its idempotents.  The supports
    give e_b T = T D_b for the 0/1 diagonal D_b of child b's range, T
    invertible, so e_b = T D_b T^-1 are complete orthogonal idempotents.
    The reconstruction gives f_i(T*y) = sum_b g_b(y_b), whose Hessians are
    block diagonal, so D_b lies in Z(f(T*y)) = T^-1 Z(f) T and e_b in Z(f).
    """
    k = len(node.variable_indices)
    if len(node.polys) != count or any(f.n != k for f in node.polys):
        return VerificationReport(
            False, f"{reason_prefix}: polynomials do not fit the block"
        )
    if node.is_leaf:
        if node.idempotents is not None or node.transform is not None:
            return VerificationReport(
                False, f"{reason_prefix}: leaf carries splitting witnesses"
            )
        return VerificationReport(True)
    child_indices = [i for child in node.children for i in child.variable_indices]
    if list(node.variable_indices) != child_indices:
        return VerificationReport(
            False, f"{reason_prefix}: children do not partition the variables"
        )
    if node.idempotents is None or node.transform is None:
        return VerificationReport(
            False, f"{reason_prefix}: missing splitting witnesses"
        )
    if any(m.rows != k or m.cols != k for m in (node.transform, *node.idempotents)):
        return VerificationReport(
            False, f"{reason_prefix}: splitting witnesses have wrong shape"
        )
    ranges = block_ranges([len(child.variable_indices) for child in node.children])
    try:
        t_inv = invert(node.transform)
    except SingularMatrix:
        return VerificationReport(False, f"{reason_prefix}: transform is singular")
    supports = diagonal_idempotent_supports(node.transform, node.idempotents)
    if [tuple(range(start, stop)) for start, stop in ranges] != supports:
        return VerificationReport(
            False, f"{reason_prefix}: conjugated idempotent not block diagonal"
        )
    for b, child in enumerate(node.children):
        sub = _verify_node(child, f"{reason_prefix}.{b}", count)
        if not sub.ok:
            return sub
    # f_i(x) = sum_b g_b((T^-1)_b x) says f_i(T*y) has no cross term and the
    # children hold its block parts; with f_i(0) in the first block, as
    # ``separate`` puts it, those parts are unique.
    if any(g.constant_term() for child in node.children[1:] for g in child.polys):
        return VerificationReport(
            False, f"{reason_prefix}: constant term outside the first block"
        )
    blocks = [(c.polys, range(*r)) for c, r in zip(node.children, ranges)]
    if _sum_on_inverse_rows(blocks, t_inv) != list(node.polys):
        return VerificationReport(False, f"{reason_prefix}: reconstruction mismatch")
    return VerificationReport(True)


def verify_decomposition(
    polys: Sequence[Polynomial], result: DecompositionResult
) -> VerificationReport:
    """Independent end-to-end certificate check of the tree, recomputed
    from scratch; a failing report names the first check that fails.

    A node's transform T must be invertible with e_b T = T D_b, D_b the 0/1
    diagonal of child b's range, and its polynomials must be the sum of its
    children's expanded on rows of T^-1: f(x) = sum_b g_b((T^-1)_b x), that
    is f(T*y) = sum_b g_b(y_b).  The first implies the idempotent
    identities, as e_b = T D_b T^-1; the second implies membership, as
    f(T*y) has block-diagonal Hessians, so D_b lies in
    Z(f(T*y)) = T^-1 Z(f) T.  Neither is checked apart.

    The node checks chain to the leaves.  P, the tree's product, is
    T * diag(C) at the root, C the children's products (I at a leaf), so it
    is invertible, and each child's identity g_b(C_b*z_b) = sum of its leaves
    turns the root's into f_i(P*y) = sum of the leaves.  Neither P nor the
    flag is checked apart, as both are read off the tree, and the
    pipeline's ``separate`` is not called.
    """
    polys = tuple(polys)
    if not polys:
        return VerificationReport(False, "no input polynomials")
    n = polys[0].n
    root = result.tree
    if tuple(root.polys) != polys:
        return VerificationReport(False, "root polynomials do not match inputs")
    if tuple(root.variable_indices) != tuple(range(n)):
        return VerificationReport(False, "root variable indices malformed")
    return _verify_node(root, "root", len(polys))
