"""Change of variables, block separation, recursion, and verification."""

import importlib
import importlib.util
import inspect
import json
import os
import random
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algebra_helpers import (
    hessian,
    matrix_rows,
    reconstruction_by_full_expansion,
    same_span,
    separate_by_full_expansion,
    substitute_one,
)
from conftest import (
    BIN_CUBIC_EPS,
    BIN_CUBIC_P,
    FOURVAR_1,
    FOURVAR_2,
    FOURVAR_EPS,
    FOURVAR_P,
    FOURVAR_VARS,
    TRIO_3_EPS,
    TRIO_3_P,
    bench_workloads,
    mat,
    mixed_by_big_entry,
    planted_suite,
    replaced,
)
import polydecomp
import polydecomp.center
import polydecomp.decompose
import polydecomp.idempotent
from polydecomp import (
    DecompositionNode,
    DecompositionResult,
    IdempotentSet,
    Polynomial,
    RatMatrix,
    SingularMatrix,
    center_basis,
    decompose_recursive,
    find_idempotents,
    membership_check,
    parse_polynomial,
    substitute_linear,
    verify_decomposition,
)
from polydecomp.decompose import (
    _sum_on_inverse_rows,
    block_diagonal,
    block_ranges,
    change_of_variables,
    diagonal_idempotent_supports,
    separate,
)
from polydecomp.poly import embed
from polydecomp.ratlinalg import _SparseSystem, column_space_basis, invert, vec


def coefficient_types(parts):
    return [[{m: type(c) for m, c in g.terms()} for g in pieces] for pieces in parts]


def internal_nodes(node):
    if not node.is_leaf:
        yield node
        for child in node.children:
            yield from internal_nodes(child)


class TestChangeOfVariables:
    def test_trivial_set_gives_identity(self):
        idem = IdempotentSet(3, (RatMatrix.identity(3),))
        identity = RatMatrix.identity(3)
        assert change_of_variables(idem) == (identity, identity, [(0, 3)])

    def test_binary_cubic_pair(self, bin_cubics):
        idem = find_idempotents(center_basis(bin_cubics), seed=42)
        p, p_inv, ranges = change_of_variables(idem)
        supports = diagonal_idempotent_supports(p, idem.eps)
        assert supports == [(0,), (1,)]
        assert ranges == [(0, 1), (1, 2)]
        assert p_inv == invert(p)

    def test_inverse_stacks_the_echelon_rows(self, monkeypatch):
        # the stacked reduced echelon rows of the idempotents are P^-1
        # exactly, on every split of the planted suite
        splits = []

        def checked(idem):
            p, p_inv, ranges = change_of_variables(idem)
            assert p_inv == invert(p)
            assert [stop - start for start, stop in ranges] == [
                len(column_space_basis(e)[0]) for e in idem.eps
            ]
            splits.append(len(idem))
            return p, p_inv, ranges

        monkeypatch.setattr(polydecomp.decompose, "change_of_variables", checked)
        for seed, instance in planted_suite():
            decompose_recursive(instance.fs, seed=seed)
        assert len(splits) >= 20

    def test_external_witness_binary_cubic(self):
        # the hand-constructed transform also diagonalizes the pair
        eps = [mat(rows) for rows in BIN_CUBIC_EPS]
        supports = diagonal_idempotent_supports(mat(BIN_CUBIC_P), eps)
        assert supports == [(0,), (1,)]

    def test_external_witness_noncontiguous(self, trio):
        # a valid external transform may interleave the block coordinates
        eps = [mat(rows) for rows in TRIO_3_EPS]
        supports = diagonal_idempotent_supports(mat(TRIO_3_P), eps)
        assert supports == [(0, 2), (1,)]

    def test_witness_rejects_singular(self):
        eps = [mat(rows) for rows in BIN_CUBIC_EPS]
        assert diagonal_idempotent_supports(mat([[1, 2], [2, 4]]), eps) is None

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_supports_from_one_sided_products(self, data):
        # e = P D P^-1 for a 0/1 partition D: e P = P D gives D back; a
        # perturbed entry moves some column of e P off both P's and zero
        n = data.draw(st.integers(1, 5))
        entries = st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)
        p = RatMatrix(n, n, data.draw(entries))
        try:
            p_inv = invert(p)
        except SingularMatrix:
            assume(False)
        labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        blocks = [tuple(i for i in range(n) if labels[i] == b) for b in sorted(set(labels))]
        diagonals = [
            RatMatrix(n, n, [int(r == c and r in block) for r in range(n) for c in range(n)])
            for block in blocks
        ]
        eps = [p * d * p_inv for d in diagonals]
        assert diagonal_idempotent_supports(p, eps) == blocks
        b = data.draw(st.integers(0, len(eps) - 1))
        k = data.draw(st.integers(0, n * n - 1))
        delta = data.draw(st.sampled_from([-1, 1, Fraction(1, 2)]))
        perturbed = [x + delta * (i == k) for i, x in enumerate(vec(eps[b]))]
        eps[b] = RatMatrix(n, n, perturbed)
        assert diagonal_idempotent_supports(p, eps) is None


class TestSeparate:
    def test_single_block_unchanged(self, bin_cubics):
        parts = separate(bin_cubics, RatMatrix.identity(2), [(0, 2)])
        for f, pieces in zip(bin_cubics, parts):
            assert len(pieces) == 1
            assert pieces[0] == f

    def test_binary_cubic_split_with_constant_convention(self, bin_cubics):
        parts = separate(bin_cubics, mat(BIN_CUBIC_P), [(0, 1), (1, 2)])
        f1_blocks = parts[0]
        assert f1_blocks[0] == parse_polynomial("2*x1^2 - 3*x1 + 1", ["x1"])
        assert f1_blocks[1] == parse_polynomial("2*x2^3 - 2*x2", ["x2"])

    def test_fourvar_split(self, fourvar_pair):
        parts = separate(fourvar_pair, mat(FOURVAR_P), [(0, 1), (1, 2), (2, 4)])
        f2_blocks = parts[1]
        assert f2_blocks[0] == parse_polynomial("2*y1^3", ["y1"])
        assert f2_blocks[1] == parse_polynomial("3*y2^3", ["y2"])
        assert f2_blocks[2] == parse_polynomial("y3*y4^2 + 3*y4", ["y3", "y4"])
        f1_blocks = parts[0]
        assert f1_blocks[0] == parse_polynomial("y1^3 + 1", ["y1"])
        assert f1_blocks[2] == parse_polynomial("y3^2*y4 + y4^2 + 2*y3", ["y3", "y4"])

    @pytest.mark.parametrize("sizes", [[1, 2], [2, 1, 2], [3, 1], [1, 1, 1, 1]])
    def test_matches_full_expansion_route(self, sizes):
        # block polynomials with constants and linear terms, moved by a
        # fractional P: expanding each block on its own columns gives the
        # pieces that routing the monomials of one full expansion gives
        rng = random.Random(f"separate-{sizes}")
        n = sum(sizes)
        ranges = block_ranges(sizes)
        while True:
            entries = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n * n)]
            p = RatMatrix(n, n, entries)
            try:
                p_inv = invert(p)
                break
            except SingularMatrix:
                continue
        fs = []
        for _ in range(2):
            terms = {(0,) * n: Fraction(rng.randint(-9, 9), rng.randint(1, 3))}
            for lo, hi in ranges:
                for degree in (1, 1, 2, 3, 3):
                    mono = [0] * n
                    for _ in range(degree):
                        mono[rng.randrange(lo, hi)] += 1
                    terms[tuple(mono)] = rng.randint(-5, 5)
            fs.append(substitute_linear(Polynomial(n, terms), p_inv))
        got = separate(fs, p, ranges)
        expected = separate_by_full_expansion(fs, p, ranges)
        assert got == expected
        assert coefficient_types(got) == coefficient_types(expected)

    def test_matches_full_expansion_route_on_pipeline_nodes(
        self, fourvar_pair, quartic_squares, bin_cubics
    ):
        for fs in (fourvar_pair, [quartic_squares], bin_cubics):
            result = decompose_recursive(fs, seed=42)
            for node in internal_nodes(result.tree):
                sizes = [len(child.variable_indices) for child in node.children]
                ranges = block_ranges(sizes)
                got = separate(node.polys, node.transform, ranges)
                expected = separate_by_full_expansion(node.polys, node.transform, ranges)
                assert got == expected
                assert coefficient_types(got) == coefficient_types(expected)

    def test_bad_blocks_rejected(self, bin_cubics):
        with pytest.raises(ValueError):
            separate(bin_cubics, RatMatrix.identity(2), [(0, 1)])

    def test_no_polynomial_products(self, fourvar_pair, monkeypatch):
        # substitution expands on packed integer monomials; the term-by-term
        # Polynomial product it replaced was the bulk of a decomposition
        calls = []
        product = Polynomial.__mul__

        def counting(self, other):
            calls.append(1)
            return product(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counting)
        substitute_linear(fourvar_pair[0] + 3, mat(FOURVAR_P))
        separate(fourvar_pair, mat(FOURVAR_P), [(0, 1), (1, 2), (2, 4)])
        assert calls == []
        fourvar_pair[0] * fourvar_pair[1]
        assert calls == [1]


class TestDecomposeRecursive:
    def test_binary_cubic_pair_diagonalizes(self, bin_cubics):
        result = decompose_recursive(bin_cubics, seed=42)
        assert result.diagonalizable
        assert result.leaf_block_sizes() == (1, 1)
        assert verify_decomposition(bin_cubics, result)

    def test_fourvar_pair_blocks(self, fourvar_pair):
        result = decompose_recursive(fourvar_pair, seed=42)
        assert result.leaf_block_sizes() == (1, 1, 2)
        assert not result.diagonalizable
        assert verify_decomposition(fourvar_pair, result)

    def test_trio_is_indecomposable_with_certificate(self, trio):
        result = decompose_recursive(trio, seed=42)
        assert result.tree.is_leaf
        assert result.tree.center_dim == 1
        assert not result.diagonalizable
        assert result.P == RatMatrix.identity(3)
        assert verify_decomposition(trio, result)

    def test_trio_members_decompose_individually(self, trio):
        # the third member's decomposed form has no term in its last
        # variable, so its two-variable block refines further to (1, 1, 1)
        for f, expected_blocks in zip(trio, [(1, 2), (1, 2), (1, 1, 1)]):
            result = decompose_recursive([f], seed=42)
            assert result.leaf_block_sizes() == expected_blocks
            assert verify_decomposition([f], result)

    def test_single_variable_short_circuits(self):
        f = parse_polynomial("x^3 + x", ["x"])
        result = decompose_recursive([f], seed=42)
        assert result.tree.is_leaf
        assert result.P == RatMatrix.identity(1)

    def test_affine_input_is_legal(self):
        # zero Hessian: the center is the full matrix space; whatever the
        # random search returns must verify
        f = parse_polynomial("3*x - y + 7", ["x", "y"])
        result = decompose_recursive([f], seed=0)
        assert result.tree.center_dim == 4
        assert result.leaf_block_sizes() == (1, 1)
        assert verify_decomposition([f], result)

    def test_zero_polynomial_is_legal(self):
        z = Polynomial.zero(2)
        result = decompose_recursive([z], seed=42)
        assert verify_decomposition([z], result)

    def test_affine_plus_cubic_mix(self):
        fs = [
            parse_polynomial("3*x - y + 7", ["x", "y"]),
            parse_polynomial("x^3 + y^3", ["x", "y"]),
        ]
        result = decompose_recursive(fs, seed=42)
        assert result.leaf_block_sizes() == (1, 1)
        assert verify_decomposition(fs, result)

    def test_generic_cubic_single_leaf(self):
        rng = random.Random("generic-one")
        terms = {}
        import itertools

        for total in range(0, 4):
            for combo in itertools.combinations_with_replacement(range(3), total):
                mono = [0, 0, 0]
                for i in combo:
                    mono[i] += 1
                c = 0
                while c == 0:
                    c = rng.randint(-20, 20)
                terms[tuple(mono)] = c
        f = Polynomial(3, terms)
        result = decompose_recursive([f], seed=42)
        assert result.tree.is_leaf and result.tree.center_dim == 1

    def test_eight_dense_mixed_singletons(self):
        # f = sum_i c_i (q_i . x)^3 for the rows q_i of a dense integer Q:
        # every draw's minimal polynomial has eight integer roots of about a
        # hundred bits, whose product has too many divisors to sweep.
        rng = random.Random("eight-singletons")
        n = 8
        while True:
            q = RatMatrix(n, n, [rng.randint(-3, 3) for _ in range(n * n)])
            if sympy.Matrix(matrix_rows(q)).rank() == n:
                break
        cubes = Polynomial(
            n,
            {
                tuple(3 * (j == i) for j in range(n)): rng.choice([-2, -1, 1, 2, 3])
                for i in range(n)
            },
        )
        f = substitute_linear(cubes, q)
        start = time.perf_counter()
        result = decompose_recursive([f], seed=42)
        elapsed = time.perf_counter() - start
        assert result.center.dim == n
        assert result.leaf_block_sizes() == (1,) * n
        assert verify_decomposition([f], result)
        assert elapsed < 10.0, f"took {elapsed:.2f} s (about 0.5 s expected)"

    def test_reconstruction_identity(self, fourvar_pair):
        result = decompose_recursive(fourvar_pair, seed=42)
        assert reconstruction_by_full_expansion(fourvar_pair, result)

    def test_degree_preservation(self, fourvar_pair):
        result = decompose_recursive(fourvar_pair, seed=42)
        for i, f in enumerate(fourvar_pair):
            leaf_max = max(
                leaf.polys[i].total_degree() for leaf in result.tree.leaves()
            )
            assert leaf_max == f.total_degree()

    def test_deterministic(self, fourvar_pair):
        a = decompose_recursive(fourvar_pair, seed=9)
        b = decompose_recursive(fourvar_pair, seed=9)
        assert a.P == b.P
        assert a.leaf_block_sizes() == b.leaf_block_sizes()

    def test_block_diagonal_hessians_after_separation(self, fourvar_pair):
        result = decompose_recursive(fourvar_pair, seed=42)
        ranges = []
        start = 0
        for leaf in result.tree.leaves():
            size = len(leaf.variable_indices)
            ranges.append((start, start + size))
            start += size
        block_of = {}
        for b, (lo, hi) in enumerate(ranges):
            for i in range(lo, hi):
                block_of[i] = b
        for f in fourvar_pair:
            h = hessian(substitute_linear(f, result.P))
            for r in range(4):
                for c in range(4):
                    if block_of[r] != block_of[c]:
                        assert h[r][c].is_zero()


def preorder(node: DecompositionNode):
    yield node
    for child in node.children:
        yield from preorder(child)


class TestCarriedCenters:
    # Only the root center is solved.  A child whose corner the search
    # certified is a leaf whose center dimension is the corner's; any other
    # child's center is its parent's Peirce corner carried into the child's
    # coordinates, and is searched again.  A fresh solve of each child's own
    # center is the oracle both must match.

    @staticmethod
    def check(polys, monkeypatch) -> tuple[int, int, int]:
        """Decompose, check that the center is solved once, that every
        certified child is a leaf of its fresh center's dimension and is not
        searched, and that every other child's carried center spans its
        solved one; return how many children have a center wider than the
        scalars, how many split and how many are searched."""
        solved, searches = [], []
        solve, search = polydecomp.decompose.center_basis, polydecomp.decompose.find_idempotents

        def counting(fs):
            solved.append(fs)
            return solve(fs)

        def recording(center, seed):
            searches.append((center, search(center, seed)))
            return searches[-1][1]

        monkeypatch.setattr(polydecomp.decompose, "center_basis", counting)
        monkeypatch.setattr(polydecomp.decompose, "find_idempotents", recording)
        result = decompose_recursive(polys)
        monkeypatch.undo()
        assert solved == [tuple(polys)]
        # each searched node searches once, in preorder, before its children
        pending = iter(searches)
        searched_children = 0

        def walk(node, certified):
            nonlocal searched_children
            k = len(node.variable_indices)
            fresh = center_basis(node.polys) if node is not result.tree else result.center
            assert node.center_dim == fresh.dim
            if certified is not None:
                assert node.is_leaf and node.center_dim == certified
                return
            center, idem = next(pending)
            assert center.n == k and center.dim == fresh.dim
            assert same_span(center.vectors(), fresh.vectors(), k * k)
            if node is result.tree:
                assert center is result.center
            else:
                searched_children += 1
            if node.is_leaf:
                assert len(idem) == 1
            for b, child in enumerate(node.children):
                walk(child, idem.dims[b] if idem.corners[b] is None else None)

        walk(result.tree, None)
        assert next(pending, None) is None
        assert verify_decomposition(polys, result)
        children = list(preorder(result.tree))[1:]
        return (
            sum(c.center_dim > 1 for c in children),
            sum(not c.is_leaf for c in children),
            searched_children,
        )

    def test_goldens(self, bin_cubics, fourvar_pair, trio, quartic_squares, norm_cubic, monkeypatch):
        for polys in (bin_cubics, fourvar_pair, trio, *[[f] for f in trio]):
            assert self.check(list(polys), monkeypatch)[2] == 0
        # a wide certified leaf child, the field Q(sqrt d); and a wide child,
        # a non-commutative corner, that is searched and splits again
        assert self.check([norm_cubic], monkeypatch) == (1, 0, 0)
        assert self.check([quartic_squares], monkeypatch) == (1, 1, 1)

    def test_planted_suite(self, monkeypatch):
        searched = 0
        for _, instance in planted_suite():
            searched += self.check(list(instance.fs), monkeypatch)[2]
        assert searched == 0

    @pytest.mark.parametrize("workload", ["few_blocks", "many_blocks"])
    def test_bench_problems(self, workload, monkeypatch):
        workloads = bench_workloads()
        wide, nested, searched = set(), set(), set()
        for pid in range(30):
            problem = workloads.make_problem(workload, 1, pid)
            polys = [parse_polynomial(text, problem.var_names) for text in problem.sources]
            wider, split, research = self.check(polys, monkeypatch)
            if wider:
                wide.add(pid)
            if split:
                nested.add(pid)
            if research:
                searched.add(pid)
        if workload == "many_blocks":
            assert {2, 4, 11, 14, 22, 24} <= wide and 12 in nested
            # only the Q(sqrt 2) x Q(sqrt 3) corners, of rootless quartics,
            # are searched again
            assert searched == {2, 12, 22}
        else:
            assert searched == set()


class TestVerifyDecomposition:
    def test_scaled_idempotent_fails_its_supports(self, quartic_squares):
        # 2e breaks e^2 = e, and the supports catch it: 2e*T is twice T's
        # columns, neither a column of T nor zero, so the verdict is the
        # split's own first failing check
        result = decompose_recursive([quartic_squares], seed=42)
        assert len(list(internal_nodes(result.tree))) >= 2
        assert verify_decomposition([quartic_squares], result)
        root = result.tree
        e = root.idempotents[0]
        assert e * e == e and (2 * e) * (2 * e) != 2 * e
        tampered = replaced(root, idempotents=(2 * e, *root.idempotents[1:]))
        report = verify_decomposition([quartic_squares], replaced(result, tree=tampered))
        assert report.reason == "root: conjugated idempotent not block diagonal"

    def test_only_the_verifier_expands_in_all_variables(
        self, fourvar_pair, quartic_squares, monkeypatch
    ):
        # the pipeline makes one expansion per internal node: the node's
        # polynomials on its transform, every block narrower than the node;
        # the verifier makes one per internal node too: the sums of the
        # children's polynomials on the inverse transform, in all the node's
        # variables, so it never expands an input and never runs the
        # pipeline's separate; the P the pipeline built is the tree's
        # product, so the leaves are not expanded again on P^-1
        calls, separations = [], []
        substitute = polydecomp.decompose.substitute_linear
        separate = polydecomp.decompose.separate

        def recording(fs, m, blocks=None):
            calls.append((list(fs), m, blocks))
            return substitute(fs, m, blocks)

        def counting(*args):
            separations.append(1)
            return separate(*args)

        monkeypatch.setattr(polydecomp.decompose, "substitute_linear", recording)
        monkeypatch.setattr(polydecomp.decompose, "separate", counting)
        for fs in (fourvar_pair, [quartic_squares]):
            calls.clear()
            separations.clear()
            result = decompose_recursive(fs, seed=42)
            nodes = list(internal_nodes(result.tree))
            assert len(nodes) == (1 if fs is fourvar_pair else 2)
            assert len(separations) == len(calls) == len(nodes)
            for node in nodes:
                k = len(node.variable_indices)
                sizes = [len(child.variable_indices) for child in node.children]
                call = (list(node.polys), node.transform, block_ranges(sizes))
                assert call in calls
                assert all(size < k for size in sizes)
            calls.clear()
            separations.clear()
            assert verify_decomposition(fs, result)
            assert separations == []
            assert len(calls) == len(nodes)
            for polys, m, _ in calls:
                # a sum equals an input only where the transform is I (the
                # quartic's root), and it is still the children's sum
                assert not any(f is g for f in polys for g in fs)
                assert m.is_identity() or not any(f == g for f in polys for g in fs)
            for node in nodes:
                k = len(node.variable_indices)
                ranges = block_ranges([len(child.variable_indices) for child in node.children])
                placed = list(zip(node.children, ranges))
                sums = [
                    sum((embed(c.polys[i], range(*r), k) for c, r in placed), Polynomial.zero(k))
                    for i in range(len(fs))
                ]
                assert (sums, invert(node.transform), None) in calls

    def test_constant_outside_the_first_child_fails(self):
        # f(0) belongs to the first child; a later child that carries it, or
        # part of it, is refused before the sum, which would still hold
        f = parse_polynomial("x^3 + y^3 + 1", ["x", "y"])
        eps = (mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]]))
        p = RatMatrix.identity(2)
        for first, second in (("t^3", "t^3 + 1"), ("t^3 + 1/2", "t^3 + 1/2")):
            leaves = tuple(
                DecompositionNode((b,), (parse_polynomial(text, ["t"]),), (), center_dim=1)
                for b, text in enumerate((first, second))
            )
            root = DecompositionNode((0, 1), (f,), leaves, 2, eps, p)
            assert _sum_on_inverse_rows([(c.polys, (b,)) for b, c in enumerate(leaves)], p) == [f]
            report = verify_decomposition([f], DecompositionResult(p, root, True))
            assert report.reason == "root: constant term outside the first block"

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sums_on_inverse_rows_add_every_block(self, data):
        # each block's g_i on its rows of Q, summed over the blocks, against
        # one expansion per block and polynomial; blocks take any positions
        # and may all carry constants, which the merged sum adds
        rows = data.draw(st.integers(1, 6))
        cols = data.draw(st.integers(1, 6))
        fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
        entries = st.one_of(st.integers(-3, 3), fractions)
        q = RatMatrix.from_rows(
            [data.draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
        )
        positions = data.draw(st.permutations(range(rows)))
        cuts = sorted(data.draw(st.sets(st.integers(1, rows - 1), max_size=3))) if rows > 1 else []
        count = data.draw(st.integers(1, 3))
        coeff = st.one_of(st.integers(-(1 << 100), 1 << 100), fractions)
        blocks = []
        for start, stop in zip([0, *cuts], [*cuts, rows]):
            k = stop - start
            monomial = st.tuples(*[st.integers(0, 3)] * k)
            polys = []
            for _ in range(count):
                terms = data.draw(st.dictionaries(monomial, coeff, max_size=6))
                polys.append(Polynomial(k, {(0,) * k: data.draw(coeff), **terms}))
            blocks.append((polys, positions[start:stop]))
        expected = []
        for i in range(count):
            total = Polynomial.zero(cols)
            for polys, at in blocks:
                q_b = RatMatrix.from_rows([q.row(r) for r in at])
                total = total + substitute_one(polys[i], q_b)
            expected.append(total)
        assert _sum_on_inverse_rows(blocks, q) == expected

    def test_cross_term_fails_reconstruction(self):
        # separate never forms a cross term, so for idempotents that do not
        # split f it drops x*y unnoticed; the idempotents are not central,
        # and the reconstruction is the check that finds it
        f = parse_polynomial("x*y + x^3 + y^3", ["x", "y"])
        eps = (mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]]))
        assert not any(membership_check(e, [f]) for e in eps)
        p = RatMatrix.identity(2)
        parts = separate([f], p, [(0, 1), (1, 2)])
        assert parts == [
            [parse_polynomial("x^3", ["x"]), parse_polynomial("y^3", ["y"])]
        ]
        leaves = tuple(
            DecompositionNode((b,), (parts[0][b],), (), center_dim=1) for b in range(2)
        )
        root = DecompositionNode((0, 1), (f,), leaves, 2, eps, p)
        report = verify_decomposition([f], DecompositionResult(p, root, True))
        assert not report.ok
        assert "reconstruction mismatch" in report.reason

    def test_cross_term_fails_at_the_inner_node(self, quartic_squares):
        # plant z1*z2, a cross term in the inner node's split coordinates,
        # in that node's polynomial and carry it up to the input; separate
        # drops it, so the children stay as they are, and the inner node's
        # reconstruction finds that they no longer sum to its polynomial
        result = decompose_recursive([quartic_squares], seed=42)
        root = result.tree
        inner = root.children[1]
        assert [len(c.variable_indices) for c in inner.children] == [1, 1]
        cross = substitute_linear(
            parse_polynomial("z1*z2", ["z1", "z2"]), invert(inner.transform)
        )
        rows = matrix_rows(invert(root.transform))[1:]
        f = quartic_squares + substitute_linear(cross, mat(rows))
        planted = replaced(inner, polys=(inner.polys[0] + cross,))
        assert separate(planted.polys, inner.transform, [(0, 1), (1, 2)]) == [
            [child.polys[0] for child in inner.children]
        ]
        tree = replaced(root, polys=(f,), children=(root.children[0], planted))
        report = verify_decomposition(
            [f], DecompositionResult(result.P, tree, result.diagonalizable)
        )
        assert not report.ok
        assert report.reason == "root.1: reconstruction mismatch"

    def test_other_p_is_expanded(self, quartic_squares, monkeypatch):
        # scaling P's first column keeps every conjugated idempotent
        # diagonal, so only the leaves' expansion on rows of P^-1, which a P
        # other than the tree's product gets, finds the mismatch
        result = decompose_recursive([quartic_squares], seed=42)
        n = result.P.rows
        diagonal = [[(2 if r == 0 else 1) * (r == c) for c in range(n)] for r in range(n)]
        scaled = replaced(result, P=result.P * mat(diagonal))
        expanded = []
        expand = polydecomp.decompose._sum_on_inverse_rows

        def recording(blocks, q):
            expanded.append(q)
            return expand(blocks, q)

        monkeypatch.setattr(polydecomp.decompose, "_sum_on_inverse_rows", recording)
        assert verify_decomposition([quartic_squares], result)
        assert expanded and invert(result.P) not in expanded
        report = verify_decomposition([quartic_squares], scaled)
        assert report.reason == "reconstruction mismatch for polynomial 0"
        assert expanded[-1] == invert(scaled.P)

    def test_fresh_result_verifies(self, bin_cubics):
        result = decompose_recursive(bin_cubics, seed=42)
        report = verify_decomposition(bin_cubics, result)
        assert report.ok and report.reason == ""

    def test_singular_transform_rejected(self, bin_cubics):
        result = decompose_recursive(bin_cubics, seed=42)
        broken = DecompositionResult(
            P=mat([[1, 2], [2, 4]]),
            tree=result.tree,
            diagonalizable=result.diagonalizable,
        )
        report = verify_decomposition(bin_cubics, broken)
        assert not report.ok
        assert "singular" in report.reason

    def test_tampered_transform_breaks_conjugation(self, bin_cubics):
        result = decompose_recursive(bin_cubics, seed=42)
        rows = matrix_rows(result.P)
        rows[0][0] = rows[0][0] + 1
        broken = DecompositionResult(
            P=mat(rows), tree=result.tree, diagonalizable=result.diagonalizable
        )
        report = verify_decomposition(bin_cubics, broken)
        assert not report.ok
        assert "block diagonal" in report.reason

    def test_wrong_flag_rejected(self, bin_cubics):
        result = decompose_recursive(bin_cubics, seed=42)
        flipped = DecompositionResult(
            P=result.P, tree=result.tree, diagonalizable=False
        )
        report = verify_decomposition(bin_cubics, flipped)
        assert not report.ok
        assert "flag" in report.reason

    def test_hand_packaged_fourvar_result(self, fourvar_pair):
        # package the known transform, idempotents, and block outputs by hand
        p = mat(FOURVAR_P)
        eps = tuple(mat(rows) for rows in FOURVAR_EPS)
        ranges = [(0, 1), (1, 2), (2, 4)]
        parts = separate(fourvar_pair, p, ranges)
        children = []
        for b, (lo, hi) in enumerate(ranges):
            child_polys = tuple(parts[i][b] for i in range(2))
            sub_center = center_basis(child_polys)
            children.append(
                DecompositionNode(
                    variable_indices=tuple(range(lo, hi)),
                    polys=child_polys,
                    children=(),
                    center_dim=sub_center.dim,
                )
            )
        root = DecompositionNode(
            variable_indices=(0, 1, 2, 3),
            polys=tuple(fourvar_pair),
            children=tuple(children),
            center_dim=3,
            idempotents=eps,
            transform=p,
        )
        packaged = DecompositionResult(P=p, tree=root, diagonalizable=False)
        report = verify_decomposition(fourvar_pair, packaged)
        assert report.ok, report.reason

    def test_mismatched_inputs_rejected(self, bin_cubics, trio):
        result = decompose_recursive(bin_cubics, seed=42)
        report = verify_decomposition([bin_cubics[0], bin_cubics[0]], result)
        assert not report.ok


class TestHelpers:
    def test_block_ranges(self):
        assert block_ranges([1, 1, 2]) == [(0, 1), (1, 2), (2, 4)]

    def test_block_diagonal(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[5]])
        combined = block_diagonal([a, b])
        assert combined == mat([[1, 2, 0], [3, 4, 0], [0, 0, 5]])


class TestPublicSurface:
    PUBLIC = {
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
    }

    # stage internals: not re-exported, but still bound in the modules the
    # pipeline (and the bench's tracer) reaches them through; the names in
    # GONE left the library and are bound in neither module of their row
    INTERNAL = [
        ("ratlinalg", "UniPoly"),
        ("ratlinalg", "column_space_basis"),
        ("decompose", "column_space_basis"),
        ("ratlinalg", "extended_gcd"),
        ("idempotent", "extended_gcd"),
        ("ratlinalg", "minimal_polynomial"),
        ("idempotent", "minimal_polynomial"),
        ("ratlinalg", "nullspace_basis"),
        ("center", "nullspace_basis"),
        ("ratlinalg", "squarefree_part"),
        ("ratlinalg", "unipoly_gcd"),
        ("decompose", "separate"),
        ("decompose", "change_of_variables"),
        ("idempotent", "_assert_internally_valid"),
    ]
    # projectors need no Euclid; the extended Euclid is a test oracle in
    # tests/algebra_helpers.py, and the squarefree part takes its gcd from
    # a Sylvester elimination.  The search's own check of its identities
    # repeated change_of_variables' e_j P = P D_j.
    GONE = {"extended_gcd", "unipoly_gcd", "_assert_internally_valid"}

    def test_all_is_pinned(self):
        assert sorted(polydecomp.__all__) == sorted(self.PUBLIC)
        assert len(self.PUBLIC) == 24
        assert all(hasattr(polydecomp, name) for name in self.PUBLIC)

    @pytest.mark.parametrize("module, name", INTERNAL)
    def test_internal_name_stays_in_its_module(self, module, name):
        assert not hasattr(polydecomp, name)
        bound = getattr(importlib.import_module(f"polydecomp.{module}"), name, None)
        if name in self.GONE:
            assert bound is None
        else:
            assert bound is not None


class TestTracedBindings:
    # perfbench/spans.py times these by wrapping the module attributes; a
    # renamed or removed one would read 0 there without an error
    @pytest.mark.parametrize(
        "module, name",
        [
            ("decompose", "substitute_linear"),
            ("decompose", "separate"),
            ("idempotent", "minimal_polynomial"),
        ],
    )
    def test_binding_is_a_function(self, module, name):
        binding = getattr(importlib.import_module(f"polydecomp.{module}"), name)
        assert inspect.isfunction(binding)

    # Functions a "time:" rule of the bench names that no traced module
    # defines any more, so their metrics read 0 on every workload.  rref:
    # the Fraction rref is gone (the CHANGES.md FOUND line on the bench's
    # ratlinalg.rref_calls, rref_s and rref_cells).  verify_complete: a
    # passing split certifies its idempotents, so the library's second
    # check of them is gone (idempotent.verify_complete_s).
    DEAD_TIMED = {"rref", "verify_complete"}

    # Bindings a "count:" rule or an observer of the bench names that no
    # module holds any more, so they read 0 on every workload: the rref
    # above, and the symbolic Hessian the center solve stopped calling.
    DEAD_BINDINGS = {"ratlinalg.rref", "center.hessian", "idempotent.hessian"}

    @staticmethod
    def bench_spans():
        # perfbench/spans.py is read, not changed
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        return spans

    def test_every_counted_and_observed_binding_is_a_function(self):
        # a "count:B" rule counts the spans of binding B and an observer
        # reads the calls of its binding: both exist only while the module
        # binds a function there (dropping center.nullspace_basis would set
        # center.rows to 0 without an error)
        spans = self.bench_spans()
        named = set(spans.OBSERVERS)
        for _, rule in spans.PER_LAYER.values():
            kind, _, names = rule.partition(":")
            if kind == "count":
                named.update(names.split(","))
        missing = set()
        for binding in named:
            modname, name = binding.split(".")
            obj = getattr(importlib.import_module(f"polydecomp.{modname}"), name, None)
            if not inspect.isfunction(obj):
                missing.add(binding)
        assert missing == self.DEAD_BINDINGS
        assert "center.nullspace_basis" in named

    def test_every_timed_function_is_traced(self):
        # each "time:F" rule sums the spans of F, which exist only while a
        # traced module binds F
        spans = self.bench_spans()
        timed = set()
        for _, rule in spans.PER_LAYER.values():
            kind, _, names = rule.partition(":")
            if kind == "time":
                timed.update(names.split(","))
        traced = set()  # what Tracer.install wraps
        for modname in spans.MODULES:
            for name, obj in vars(importlib.import_module(f"polydecomp.{modname}")).items():
                if not inspect.isfunction(obj):
                    continue
                if name.startswith("_") and f"{modname}.{name}" not in spans.EXTRA:
                    continue
                home = obj.__module__.rsplit(".", 1)[-1]
                if home in spans.MODULES and f"{home}.{obj.__name__}" not in spans.SKIP:
                    traced.add(name)
        assert timed - traced == self.DEAD_TIMED
        assert {"read_problem", "parse_polynomial", "result_to_document", "_emit"} <= timed

    def test_row_path_feeds_the_bench_observer(self, monkeypatch):
        # the observer of center.nullspace_basis reads args[0].rows: every
        # elimination of the rows hands it a system, at the CRT primes that
        # eliminate only the pivot rows too
        observe = self.bench_spans().OBSERVERS["center.nullspace_basis"]
        nullspace = polydecomp.center.nullspace_basis
        calls = []

        def recording(*args):
            result = nullspace(*args)
            calls.append((args, result))
            return result

        monkeypatch.setattr(polydecomp.center, "nullspace_basis", recording)
        monkeypatch.setattr(polydecomp.center, "_pencil_basis", lambda mats, polys, n: None)
        polys = mixed_by_big_entry()
        assert center_basis(polys).dim == 2
        assert len(calls) >= 2
        tracer = self.bench_spans().Tracer()
        for args, result in calls:
            assert type(args[0]) is _SparseSystem
            observe(tracer, args, result)
        rows = polydecomp.center._equation_rows(
            polydecomp.center._coefficient_matrices(polys), polys[0].n
        )
        pivot_rows = polys[0].n ** 2 - 2
        expected = sum(1 for _ in rows) + pivot_rows * (len(calls) - 1)
        assert tracer.counters["center.rows"] == expected

    def test_bindings_see_every_draw(self, fourvar_pair, monkeypatch):
        # the test above only checks that the bindings exist; a search that
        # stopped calling them would pass it and read 0 draws in the bench
        draws, minpolys, factorings, systems, solves = [], [], [], [], []

        class CountingRandom(random.Random):
            def __init__(self, x):
                draws.append(x)
                super().__init__(x)

        monkeypatch.setattr(
            polydecomp.idempotent, "random", types.SimpleNamespace(Random=CountingRandom)
        )

        def record(module, name, log):
            fn = getattr(module, name)

            def wrapper(*args):
                result = fn(*args)
                log.append((args, result))
                return result

            monkeypatch.setattr(module, name, wrapper)

        record(polydecomp.idempotent, "minimal_polynomial", minpolys)
        record(polydecomp.idempotent, "primary_coprime_factors", factorings)
        record(polydecomp.center, "nullspace_basis", systems)
        record(polydecomp.decompose, "center_basis", solves)
        result = decompose_recursive(fourvar_pair, seed=42)
        assert result.leaf_block_sizes() == (1, 1, 2)
        assert draws
        assert len(minpolys) == len(draws)
        assert len(factorings) == sum(m.degree >= 1 for _, m in minpolys)
        # the bench reads the equation count off the system's rows: a center
        # the pencil certifies hands ``nullspace_basis`` none, so every solve
        # here reads 0 rows; a degenerate pencil hands it one system of every
        # row, and these small centers lift from that one prime
        assert solves and systems == []
        monkeypatch.setattr(polydecomp.center, "_pencil_basis", lambda mats, polys, n: None)
        solves.clear()
        assert decompose_recursive(fourvar_pair, seed=42).leaf_block_sizes() == (1, 1, 2)
        assert solves and len(systems) == len(solves)
        for (system_args, _), (solve_args, center) in zip(systems, solves):
            system, polys = system_args[0], solve_args[0]
            n = polys[0].n
            rows = polydecomp.center._equation_rows(
                polydecomp.center._coefficient_matrices(polys), n
            )
            assert system.rows == sum(1 for _ in rows)
            assert system.cols == n * n

    def test_traced_run_reads_the_search(self, tmp_path):
        # the bench wraps the library from outside, in a process of its own:
        # an observer that cannot read a changed signature or result would
        # show only as failed traced runs there
        problem = tmp_path / "fourvar.txt"
        problem.write_text(f"vars: {' '.join(FOURVAR_VARS)}\n{FOURVAR_1}\n{FOURVAR_2}\n")
        spans = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
        src = os.path.dirname(os.path.dirname(os.path.abspath(polydecomp.__file__)))
        script = (
            "import importlib.util, json, sys\n"
            "import polydecomp.cli as cli\n"
            "spec = importlib.util.spec_from_file_location('spans', sys.argv[1])\n"
            "spans = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(spans)\n"
            "tracer = spans.Tracer()\n"
            "tracer.install()\n"
            "rc = cli.main(['decompose', '--input', sys.argv[2], '--json', '--output', sys.argv[3]])\n"
            "print(json.dumps([rc, spans.layer_metrics(tracer.export())]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, spans, str(problem), str(tmp_path / "out.json")],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        rc, metrics = json.loads(proc.stdout)
        assert rc == 0
        assert metrics["idempotent.draws"] >= 1
        assert metrics["idempotent.split_draws"] >= 1
        assert metrics["idempotent.minpoly_degree_max"] >= 2
        assert metrics["ratlinalg.minpoly_s"] > 0
