"""Idempotent extraction: spectral splitting, verification, rank profiles."""

import random
import types
from fractions import Fraction
from math import lcm
from operator import mul

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import algebra_helpers
import polydecomp.decompose
import polydecomp.idempotent
from algebra_helpers import (
    T,
    bezout_projector,
    find_idempotents_by_matrices,
    in_span,
    jordan_product,
    jordan_table_by_products,
    rank_profile,
    row_space_basis,
    scaled_rows,
    unipoly,
    verify_complete,
)
from conftest import BIN_CUBIC_EPS, FOURVAR_EPS, TRIO_3_EPS, bench_workloads, mat, planted_suite
from polydecomp import (
    CenterBasis,
    DimensionMismatch,
    IdempotentSet,
    InternalInvariantViolation,
    Polynomial,
    RatMatrix,
    center_basis,
    decompose_recursive,
    find_idempotents,
    generate,
    membership_check,
    parse_polynomial,
)
from polydecomp.idempotent import (
    _apply,
    _Coordinates,
    _indecomposable,
    _jordan_table,
    _projectors,
)
from polydecomp.ratlinalg import UniPoly, _bareiss, primary_coprime_factors, vec

QUADRATIC_FORMS = ["x^2 + 4*x*y + y^2 + 3*y*z + z^2", "x^2 + 2*y^2 + 3*z^2 + x*y"]


class TestFindIdempotents:
    def test_scalar_center_returns_identity(self, trio):
        center = center_basis(trio)
        assert center.dim == 1
        idem = find_idempotents(center, seed=42)
        assert len(idem) == 1
        assert idem.eps[0] == RatMatrix.identity(center.n)

    def test_dependent_basis_of_the_scalars_returns_identity(self, monkeypatch):
        # I and 2I span only the scalars: rank 1 after elimination, so {I}
        # at once, with no draw and no corner
        calls = []
        monkeypatch.setattr(
            polydecomp.idempotent, "minimal_polynomial", lambda *args: calls.append(args)
        )
        identity = RatMatrix.identity(2)
        idem = find_idempotents(CenterBasis(2, (identity, mat([[2, 0], [0, 2]]))))
        assert idem.eps == (identity,)
        assert idem.corners == (None,)
        assert calls == []

    def test_binary_cubic_pair_is_unique(self, bin_cubics):
        center = center_basis(bin_cubics)
        idem = find_idempotents(center, seed=42)
        assert len(idem) == 2
        expected = {tuple(vec(mat(rows))) for rows in BIN_CUBIC_EPS}
        assert {tuple(vec(e)) for e in idem.eps} == expected

    def test_binary_cubic_pair_seed_independent(self, bin_cubics):
        # a 2-dimensional center admits exactly one nontrivial complete set
        center = center_basis(bin_cubics)
        expected = {tuple(vec(mat(rows))) for rows in BIN_CUBIC_EPS}
        for seed in (0, 1, 7, 1234):
            idem = find_idempotents(center, seed=seed)
            assert {tuple(vec(e)) for e in idem.eps} == expected

    def test_fourvar_triple(self, fourvar_pair):
        center = center_basis(fourvar_pair)
        idem = find_idempotents(center, seed=42)
        assert len(idem) == 3
        assert rank_profile(idem) == (1, 1, 2)
        assert verify_complete(idem, fourvar_pair)

    def test_elements_stay_in_center_span(self, fourvar_pair):
        center = center_basis(fourvar_pair)
        idem = find_idempotents(center, seed=42)
        width = center.n * center.n
        span = center.vectors()
        for e in idem.eps:
            assert in_span(span, vec(e), width)

    def test_deterministic(self, fourvar_pair):
        center = center_basis(fourvar_pair)
        a = find_idempotents(center, seed=5)
        b = find_idempotents(center, seed=5)
        assert a.eps == b.eps

    def test_quadratic_form_splits_fully(self):
        f = parse_polynomial(QUADRATIC_FORMS[0], ["x", "y", "z"])
        center = center_basis([f])
        idem = find_idempotents(center, seed=42)
        assert verify_complete(idem, [f])

    def test_basis_not_closed_under_the_jordan_product(self):
        # span{I, A} does not hold A^2 = diag(1, 4, 9): the structure
        # constants fail their certificate
        a = mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        with pytest.raises(InternalInvariantViolation, match="not closed"):
            find_idempotents(CenterBasis(3, (RatMatrix.identity(3), a)))

    @pytest.mark.parametrize(
        "basis",
        [
            (RatMatrix.identity(3),),  # dimension 1, answered before any solve
            (RatMatrix.identity(3), mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])),
            (RatMatrix.identity(2), mat([[1, 0, 0], [0, 0, 0]])),
        ],
    )
    def test_basis_of_another_size_is_refused(self, basis):
        with pytest.raises(DimensionMismatch, match="ambient dimension"):
            find_idempotents(CenterBasis(2, basis))

    @pytest.mark.parametrize(
        "basis",
        [
            (mat([[0, 0], [0, 0]]),),  # spans {0}
            (mat([[1, 0], [0, 2]]),),  # rank 1, but not the scalars
        ],
    )
    def test_rank_one_basis_without_the_identity_is_refused(self, basis):
        with pytest.raises(InternalInvariantViolation, match="identity is not in the center span"):
            find_idempotents(CenterBasis(2, basis))

    def test_rank_one_node_builds_no_table(self, trio, bin_cubics, monkeypatch):
        # a center of rank 1 is decided on the eliminated basis alone
        tables = []
        table = polydecomp.idempotent._jordan_table

        def recording(*args):
            tables.append(args)
            return table(*args)

        monkeypatch.setattr(polydecomp.idempotent, "_jordan_table", recording)
        identity = RatMatrix.identity(2)
        for center in (center_basis(trio), CenterBasis(2, (identity, mat([[2, 0], [0, 2]])))):
            assert find_idempotents(center).eps == (RatMatrix.identity(center.n),)
        assert tables == []
        find_idempotents(center_basis(bin_cubics))
        assert len(tables) == 1

    def test_every_returned_set_passes_the_oracle(
        self, bin_cubics, fourvar_pair, trio, quartic_squares, monkeypatch
    ):
        # no identity is checked inside the search: every set it returns to
        # the pipeline, at every node, is complete, orthogonal and central
        # for the node's polynomials
        returned = []

        def recording(center, seed):
            returned.append(find_idempotents(center, seed))
            return returned[-1]

        def preorder(node):
            yield node
            for child in node.children:
                yield from preorder(child)

        monkeypatch.setattr(polydecomp.decompose, "find_idempotents", recording)
        goldens = [bin_cubics, fourvar_pair, [quartic_squares], *([f] for f in trio)]
        runs = [(polys, 42) for polys in goldens]
        runs += [(instance.fs, seed) for seed, instance in planted_suite()]
        runs += [(polys, 1) for polys in many_blocks(range(30))]
        split = certified = 0
        for polys, seed in runs:
            returned.clear()
            tree = decompose_recursive(polys, seed=seed).tree
            searched = list(searched_nodes(tree, iter(returned)))
            assert len(searched) == len(returned)
            for node, idem in searched:
                assert verify_complete(idem, node.polys)
                if not node.is_leaf:
                    assert node.idempotents == idem.eps
                    split += 1
                    certified += idem.corners.count(None)
        assert split >= 70 and certified >= 240


def searched_nodes(node, results):
    """The nodes the pipeline searched, each with the set its search
    returned, taken from ``results`` in call order: the root and, in
    preorder, every child whose corner its parent's search did not
    certify."""
    idem = next(results)
    yield node, idem
    for b, child in enumerate(node.children):
        if idem.corners[b] is not None:
            yield from searched_nodes(child, results)


def many_blocks(pids, seed=1):
    """The inputs of the bench's ``many_blocks`` problems ``pids``."""
    workloads = bench_workloads()
    for pid in pids:
        problem = workloads.make_problem("many_blocks", seed, pid)
        yield [parse_polynomial(text, problem.var_names) for text in problem.sources]


def assert_matches_matrix_search(result, center, seed):
    """``result`` is what the n x n search returns: the same idempotents,
    the same basis for each uncertified corner, and for a certified one the
    dimension of the corner the n x n search drew in and left unsplit,
    which is commutative, as Q[g]e is."""
    expected = find_idempotents_by_matrices(center, seed)
    assert result.n == expected.n and result.eps == expected.eps
    assert len(result.corners) == len(result.dims) == len(expected.eps)
    n = center.n
    for corner, dim, theirs in zip(result.corners, result.dims, expected.corners):
        if corner is not None:
            assert corner == theirs and dim == len(corner)
        elif theirs is None:
            assert dim == 1
        else:
            assert dim == len(theirs)
            mats = [RatMatrix(n, n, row) for row in theirs]
            assert all(x * y == y * x for x in mats for y in mats)
    return result


class TestMatchesMatrixSearch:
    """The coordinate search returns what the n x n search returns."""

    def test_goldens(self, bin_cubics, fourvar_pair, trio, quartic_squares, norm_cubic):
        certified = 0
        for polys in (
            bin_cubics, fourvar_pair, [quartic_squares], [norm_cubic], *([f] for f in trio)
        ):
            center = center_basis(polys)
            for seed in (42, 1, 2):
                result = find_idempotents(center, seed=seed)
                assert_matches_matrix_search(result, center, seed)
                certified += sum(c is None and d > 1 for c, d in zip(result.corners, result.dims))
        assert certified >= 3  # the field Q(sqrt d) of the norm cubic

    def test_every_node_of_the_planted_suite(self, monkeypatch):
        dims, certified = [], []

        def checked(center, seed):
            result = find_idempotents(center, seed)
            assert_matches_matrix_search(result, center, seed)
            dims.append(center.dim)
            certified.extend(d for c, d in zip(result.corners, result.dims) if c is None)
            return result

        monkeypatch.setattr(polydecomp.decompose, "find_idempotents", checked)
        for seed, instance in planted_suite():
            decompose_recursive(instance.fs, seed=seed)
        for polys in many_blocks(range(30)):
            decompose_recursive(polys, seed=1)
        # 72 searches that can split, 250 certified corners, 12 of them wide
        assert sum(d > 1 for d in dims) >= 70 and len(certified) >= 240
        assert sum(d > 1 for d in certified) >= 10

    @pytest.mark.parametrize("form", QUADRATIC_FORMS)
    def test_non_associative_quadratic_form_centers(self, form):
        center = center_basis([parse_polynomial(form, ["x", "y", "z"])])
        assert center.dim == 6
        assert any(x * y != y * x for x in center.basis for y in center.basis)
        for seed in range(6):
            assert_matches_matrix_search(find_idempotents(center, seed=seed), center, seed)


def _quadratic_plus_cubic(quadratic, n):
    """x1^3 plus the quadratic terms c*x_i*x_j: centers that need not be
    associative."""
    terms = {(3,) + (0,) * (n - 1): 1}
    for i, j, c in quadratic:
        mono = [0] * n
        mono[i % n] += 1
        mono[j % n] += 1
        terms[tuple(mono)] = c
    return Polynomial(n, terms)


centers = st.one_of(
    st.builds(
        lambda seed, blocks: center_basis(generate(seed, sum(blocks), 1 + seed % 2, blocks, 3).fs),
        st.integers(0, 10**6),
        st.lists(st.integers(1, 2), min_size=1, max_size=3),
    ),
    st.builds(
        lambda n, terms: center_basis([_quadratic_plus_cubic(terms, n)]),
        st.integers(2, 4),
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3).filter(bool)),
            max_size=6,
        ),
    ),
)


class TestSearchInCoordinates:
    def test_matrix_products_only_for_structure_constants(
        self, fourvar_pair, monkeypatch
    ):
        # the search runs on coordinate vectors: n x n products are left for
        # the structure constants, at most one per pair of basis elements
        calls = []
        product = RatMatrix.__mul__

        def counting(self, other):
            if isinstance(other, RatMatrix) and self.rows == self.cols == other.cols:
                calls.append(self.rows)
            return product(self, other)

        monkeypatch.setattr(RatMatrix, "__mul__", counting)
        quadratic = parse_polynomial(QUADRATIC_FORMS[0], ["x", "y", "z"])
        for polys in (fourvar_pair, [quadratic]):
            center = center_basis(polys)
            n, r = center.n, center.dim
            calls.clear()
            find_idempotents(center, seed=42)
            assert calls.count(n) <= r * (r + 1) // 2
            calls.clear()
            find_idempotents_by_matrices(center, seed=42)
            assert calls.count(n) > r * (r + 1) // 2
        # matrix polynomials and span membership are test-only
        assert not hasattr(UniPoly, "of_matrix")
        assert not hasattr(CenterBasis, "contains")


def draws_and_tree(polys, seed=42, monkeypatch=None):
    """The number of draws ``decompose_recursive`` makes on polys, and its
    tree."""
    draws = []
    minimal_polynomial = polydecomp.idempotent.minimal_polynomial

    def counting(powers):
        draws.append(powers)
        return minimal_polynomial(powers)

    monkeypatch.setattr(polydecomp.idempotent, "minimal_polynomial", counting)
    tree = decompose_recursive(polys, seed=seed).tree
    monkeypatch.undo()
    return len(draws), tree


def depth(node):
    return 0 if node.is_leaf else 1 + max(depth(child) for child in node.children)


class TestCertifiedCorners:
    # A draw whose minimal polynomial on its block has the corner's degree
    # proves the corner is Q[t]/(q): a part from (t - c)^j is local, one
    # from a rootless factor of degree <= 3 a field, and neither is drawn
    # in again, by its parent's search or by its block's.

    @pytest.mark.parametrize(
        "text, names, sizes",
        [
            # a center Q x Q x Q(sqrt 2), the field a leaf of dimension 2
            ("a^3 + 6*a*b^2 + c^3 + d^3", "abcd", (1, 1, 2)),
            # a center Q x Q(sqrt 5)
            ("a^3 + 3*a*b^2 + b^3 + c^3", "abc", (1, 2)),
        ],
    )
    def test_one_draw_certifies_every_corner(self, text, names, sizes, monkeypatch):
        polys = [parse_polynomial(text, list(names))]
        draws, tree = draws_and_tree(polys, monkeypatch=monkeypatch)
        # 17 draws before: 8 in the wide child's corner, 8 in its block
        assert draws == 1
        assert tuple(sorted(len(l.variable_indices) for l in tree.leaves())) == sizes
        assert all(l.center_dim == center_basis(l.polys).dim for l in tree.leaves())

    def test_uncertified_corners_keep_their_draws(self, quartic_squares, monkeypatch):
        # Q(sqrt 2) x Q(sqrt 3), a rootless quartic, and two non-commutative
        # centers draw as often as ever; the quartic's corner is searched
        # again, and splits there
        for polys, expected in [
            ([parse_polynomial("y1^3 + 6*y1*y2^2 + y3^3 + 9*y3*y4^2", ["y1", "y2", "y3", "y4"])], 8),
            ([parse_polynomial(QUADRATIC_FORMS[1], ["x", "y", "z"])], 8),
            ([quartic_squares], 11),
        ]:
            assert draws_and_tree(polys, monkeypatch=monkeypatch)[0] == expected

    def test_rootless_quartic_corners_are_searched_again(self, monkeypatch):
        # the Q(sqrt 2) x Q(sqrt 3) corners of the bench's many_blocks
        # problems 12 and 32 split only when their blocks are searched
        # again: certifying a rootless quartic would cut these trees to depth 1
        for polys in many_blocks((12, 32)):
            tree = draws_and_tree(polys, monkeypatch=monkeypatch)[1]
            assert depth(tree) == 2
            assert sorted(len(l.variable_indices) for l in tree.leaves()) == [1, 2, 2]

    def test_draws_take_the_seeds_of_the_full_search(self, monkeypatch):
        # the draws a certified corner skips spend their seeds: every draw
        # the search makes takes the seed the n x n search, which draws in
        # every corner, gives it there, and finds the same minimal
        # polynomial.  In these inputs a block is drawn in after a certified
        # sibling's or its own skipped draws: a^2*b has a local center of
        # dimension 2, the rest Q(sqrt 2) x Q(sqrt 3).
        ours, theirs = [], []

        def recording(log):
            class Recording(random.Random):
                def __init__(self, x):
                    log.append([x])
                    super().__init__(x)

            return types.SimpleNamespace(Random=Recording)

        def noting(log, minimal_polynomial):
            def wrapper(x):
                log[-1].append(minimal_polynomial(x))
                return log[-1][-1]

            return wrapper

        monkeypatch.setattr(polydecomp.idempotent, "random", recording(ours))
        monkeypatch.setattr(algebra_helpers, "random", recording(theirs))
        monkeypatch.setattr(
            polydecomp.idempotent,
            "minimal_polynomial",
            noting(ours, polydecomp.idempotent.minimal_polynomial),
        )
        monkeypatch.setattr(
            algebra_helpers,
            "krylov_minimal_polynomial",
            noting(theirs, algebra_helpers.krylov_minimal_polynomial),
        )
        search = polydecomp.decompose.find_idempotents
        skipped = []

        def both(center, seed):
            ours.clear()
            theirs.clear()
            result = search(center, seed)
            find_idempotents_by_matrices(center, seed)
            drawn = dict(map(tuple, theirs))
            assert all(drawn[x] == m for x, m in ours)
            skipped.append(len(theirs) - len(ours))
            return result

        monkeypatch.setattr(polydecomp.decompose, "find_idempotents", both)
        local = parse_polynomial("a^2*b + c^3 + 6*c*d^2 + e^3 + 9*e*f^2", list("abcdef"))
        for polys in [*many_blocks((12, 32, 52)), [local]]:
            decompose_recursive(polys)
        assert sum(skipped) >= 40

    def test_indecomposable_factors(self):
        assert all(
            _indecomposable(unipoly(f)) for f in (T - 3, (T + 2) ** 4, T**2 - 2, T**3 - 2)
        )
        # rootless of degree 4: (t^2 - 2)(t^2 - 3) splits, t^4 - 2 does not,
        # and neither is certified
        assert not _indecomposable(unipoly((T**2 - 2) * (T**2 - 3)))
        assert not _indecomposable(unipoly(T**4 - 2))


def corner_trace(z, v, d):
    """s^2 * trace(U_e) and s, for U_e = 2 L_e^2 - L_e of e = v / d in
    coordinates and s = d * scale, with the columns of s^2 * U_e."""
    a = z.operator(v)
    s = d * z.scale
    u = [[2 * sum(map(mul, row, col)) - s * x for col, x in zip(zip(*a), row)] for row in a]
    return sum(u[i][i] for i in range(z.r)), s, list(zip(*u))


class TestPeirceCorners:
    def test_trace_is_the_corner_dimension(
        self, bin_cubics, fourvar_pair, trio, quartic_squares, monkeypatch
    ):
        # U_e = 2 L_e^2 - L_e projects onto the corner e*Z*e, so its trace is
        # the corner's dimension; a one-dimensional corner gets no basis, an
        # e of matrix rank 1 not even an operator, and a corner the search
        # certified neither: its dimension, the degree of its factor, is
        # the trace all the same
        corner, operator = _Coordinates.corner, _Coordinates.operator
        met, calls, operators, searches = [], [], [], []
        search = polydecomp.decompose.find_idempotents

        def recording(z, v, d):
            before, built = len(calls), len(operators)
            basis = corner(z, v, d)
            met.append((z, v, d, basis, len(calls) - before, len(operators) - built))
            return basis

        def counting(rows, width):
            calls.append(width)
            return _bareiss(rows, width)

        def counting_operators(z, v):
            operators.append(v)
            return operator(z, v)

        def searching(center, seed):
            searches.append((center, search(center, seed)))
            return searches[-1][1]

        monkeypatch.setattr(_Coordinates, "corner", recording)
        monkeypatch.setattr(_Coordinates, "operator", counting_operators)
        monkeypatch.setattr(polydecomp.idempotent, "_bareiss", counting)
        monkeypatch.setattr(polydecomp.decompose, "find_idempotents", searching)
        goldens = [bin_cubics, fourvar_pair, [quartic_squares], *([f] for f in trio)]
        for polys in goldens:
            decompose_recursive(polys, seed=42)
        for seed, instance in planted_suite():
            decompose_recursive(instance.fs, seed=seed)
        for polys in many_blocks(range(60)):
            decompose_recursive(polys, seed=1)
        # every returned idempotent's corner, certified or not, is met too:
        # a certified one's dimension, its factor's degree, is the trace
        certified = []
        for center, idem in searches:
            z = _Coordinates(center)
            if z.r == 1:
                continue
            for e, corner_basis, dim in zip(idem.eps, idem.corners, idem.dims):
                at_pivots = [vec(e)[p] for p in z.pivots]
                d = lcm(*(Fraction(x).denominator for x in at_pivots))
                recording(z, [int(x * d) for x in at_pivots], d)
                assert (met[-1][3] is None) == (dim == 1)
                if corner_basis is None:
                    certified.append((met[-1], dim))
        monkeypatch.undo()
        dims, rank_one = [], 0
        for z, v, d, basis, built, operated in met:
            trace, s, columns = corner_trace(z, v, d)
            # the corner's basis, built from the columns of U_e
            full = row_space_basis([z.combine(col) for col in columns], z.n * z.n)
            assert trace == s * s * len(full)
            e = z.matrix(v, d)
            if sum(e.entry(i, i) for i in range(z.n)) == 1:
                assert basis is None and built == operated == 0
                rank_one += 1
            elif len(full) == 1:
                assert basis is None and built == 0 and operated == 1
            else:
                # one r x r elimination picks the independent columns of
                # U_e, one more reduces them over the n^2 entries
                assert basis == scaled_rows(full)[0] and built == 2 and operated == 1
            dims.append(len(full))
        # 462 corners: 339 of rank 1, 72 more of dimension 1, 51 wider
        assert dims.count(1) >= 400 and len(dims) - dims.count(1) >= 50
        assert rank_one >= 300 and dims.count(1) - rank_one >= 60
        for (z, v, d, *_), dim in certified:
            trace, s, _ = corner_trace(z, v, d)
            assert trace == s * s * dim
        # 410 certified corners, 21 of them wider than 1
        assert len(certified) >= 400 and sum(dim > 1 for _, dim in certified) >= 20


# the minimal polynomials of the search are monic with integer coefficients,
# so their rational roots are integers
roots = st.integers(-40, 40)


class TestProjectors:
    """Every factor's integer projector, the rootless one's complement
    included, against the extended Euclid's."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(roots, min_size=2, max_size=6, unique=True),
        st.lists(st.tuples(roots, st.integers(1, 3)), max_size=2),
        st.sampled_from([None, T**2 + 2, T**2 + T - 3]),
    )
    # the root 0's projector is part of the rootless factor's complement
    @example([0, 1], [], T**2 + 2)
    @example([-3, 4], [(0, 2)], T**2 + T - 3)
    @example([5, -3], [(7, 1)], T**2 + 2)
    # N(c) < 0 at an odd multiplicity: the denominator is made positive
    @example([1, 2], [(3, 2)], None)
    def test_match_the_extended_euclid(self, simple, repeated, rootless):
        m = sympy.Integer(1)
        for c in simple:
            m *= T - c
        for c, k in repeated:
            if c not in simple:
                m *= (T - c) ** (k + 1)
        if rootless is not None:
            m *= rootless
        m = unipoly(m)
        factors = primary_coprime_factors(m)
        projectors = _projectors(m, factors)
        assert len(projectors) == len(factors)
        values = []
        for mi, (poly, den) in zip(factors, projectors):
            assert den > 0 and all(type(x) is int for x in [den, *poly])
            assert len(poly) == m.degree
            values.append(_over(poly, den))
            assert values[-1] == bezout_projector(m, mi)
        assert sum(values).is_one

    def test_common_root_is_refused(self):
        m = unipoly((T - 2) ** 2 * (T - 5))
        assert bezout_projector(m, unipoly(T - 5)) == _projector_of(m, 1)
        with pytest.raises(InternalInvariantViolation):
            bezout_projector(m, unipoly(T - 2))
        with pytest.raises(InternalInvariantViolation):
            _projectors(m, [unipoly(T - 2), unipoly(T - 5)])


def _over(poly, den):
    """Integer coefficients, lowest degree first, over den, as a sympy
    polynomial over the rationals."""
    return sympy.Poly([sympy.Rational(x, den) for x in reversed(poly)], T, domain="QQ")


def _projector_of(m, i):
    """The i-th of m's integer projectors, as a polynomial."""
    return _over(*_projectors(m, primary_coprime_factors(m))[i])


class TestStructureConstants:
    @settings(max_examples=60, deadline=None)
    @given(centers, st.data())
    def test_reproduce_the_jordan_product(self, center, data):
        z = _Coordinates(center)
        assume(z.r > 1)  # a center of rank 1 is the scalars, with no table
        coords = st.lists(st.integers(-5, 5), min_size=z.r, max_size=z.r)
        v, w = data.draw(coords), data.draw(coords)
        product = z.matrix(_apply(z.operator(v), w), z.scale)
        assert product == jordan_product(z.matrix(v, 1), z.matrix(w, 1))
        assert z.matrix(z.one, 1) == RatMatrix.identity(center.n)


def closed_by_products(rows, n, pivots, denom):
    """Whether every Jordan product of the integer rows, formed by full
    products, is the basis combination of its entries at the pivots."""
    columns = list(zip(*rows))
    for t in jordan_table_by_products(rows, n).values():
        combined = [sum(t[p] * x for p, x in zip(pivots, col)) for col in columns]
        if combined != [denom * x for x in t]:
            return False
    return True


class TestPackedJordanTable:
    """The packed structure table against full n x n products."""

    @settings(max_examples=60, deadline=None)
    @given(centers)
    def test_matches_the_full_products(self, center):
        # both pencil and row-fallback centers: the quadratic-plus-cubic
        # family has dense coefficient matrices and sparse ones
        z = _Coordinates(center)
        table = _jordan_table(z.rows, z.n, z.pivots, z.denom)
        full = jordan_table_by_products(z.rows, z.n)
        for (i, j), t in full.items():
            assert table[i, j] == table[j, i] == [t[p] for p in z.pivots]
        assert closed_by_products(z.rows, z.n, z.pivots, z.denom)

    @settings(max_examples=60, deadline=None)
    @given(centers, st.data())
    def test_tampered_basis_is_refused_exactly_when_unclosed(self, center, data):
        # one entry of one row moved: the check raises exactly when a full
        # product leaves the span
        z = _Coordinates(center)
        rows = [list(row) for row in z.rows]
        i = data.draw(st.integers(0, z.r - 1))
        q = data.draw(st.sampled_from([q for q in range(z.n * z.n) if q not in z.pivots] or [0]))
        rows[i][q] += data.draw(st.sampled_from([1, -1, 2**70]))
        if closed_by_products(rows, z.n, z.pivots, z.denom):
            _jordan_table(rows, z.n, z.pivots, z.denom)
        else:
            with pytest.raises(InternalInvariantViolation, match="not closed"):
                _jordan_table(rows, z.n, z.pivots, z.denom)

    def test_tampered_center_is_refused(self, fourvar_pair):
        center = center_basis(fourvar_pair)
        x = center.basis[1]
        moved = RatMatrix(4, 4, [e + (k == 1) for k, e in enumerate(vec(x))])
        tampered = CenterBasis(4, (center.basis[0], moved, center.basis[2]))
        z = _Coordinates(center)
        assert closed_by_products(z.rows, 4, z.pivots, z.denom)
        with pytest.raises(InternalInvariantViolation, match="not closed"):
            _Coordinates(tampered)

    def test_dependent_hand_built_basis(self):
        # dependent rows take the general elimination, to the same rows
        a = mat([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
        independent = _Coordinates(CenterBasis(3, (RatMatrix.identity(3), a)))
        twice = mat([[2, 0, 0], [0, 4, 0], [0, 0, 4]])
        dependent = _Coordinates(CenterBasis(3, (RatMatrix.identity(3), a, twice)))
        assert dependent.r == independent.r == 2
        assert (dependent.rows, dependent.denom) == (independent.rows, independent.denom)


class TestVerifyComplete:
    def test_identity_alone(self, bin_cubics):
        idem = IdempotentSet(2, (RatMatrix.identity(2),))
        assert verify_complete(idem, bin_cubics)

    def test_known_pair(self, bin_cubics):
        idem = IdempotentSet(2, tuple(mat(rows) for rows in BIN_CUBIC_EPS))
        assert verify_complete(idem, bin_cubics)

    def test_known_triple(self, fourvar_pair):
        idem = IdempotentSet(4, tuple(mat(rows) for rows in FOURVAR_EPS))
        assert verify_complete(idem, fourvar_pair)

    def test_known_pair_for_third_trio_member(self, trio):
        idem = IdempotentSet(3, tuple(mat(rows) for rows in TRIO_3_EPS))
        assert verify_complete(idem, [trio[2]])

    def test_duplicated_element_fails(self, bin_cubics):
        e1 = mat(BIN_CUBIC_EPS[0])
        idem = IdempotentSet(2, (e1, e1))
        assert not verify_complete(idem, bin_cubics)

    def test_sum_not_identity_fails(self, bin_cubics):
        e1 = mat(BIN_CUBIC_EPS[0])
        idem = IdempotentSet(2, (e1,))
        assert not verify_complete(idem, bin_cubics)

    def test_non_idempotent_fails(self, bin_cubics):
        idem = IdempotentSet(2, (mat([[1, 1], [0, 1]]), mat([[0, -1], [0, 0]])))
        assert not verify_complete(idem, bin_cubics)

    def test_non_member_fails(self, bin_cubics):
        # complete orthogonal pair, but not inside this center
        idem = IdempotentSet(2, (mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]])))
        assert not verify_complete(idem, bin_cubics)

    def test_non_central_first_element_fails(self, bin_cubics):
        # a non-central idempotent and I minus it satisfy every identity
        e = mat([[1, 1], [0, 0]])
        assert e * e == e and not membership_check(e, bin_cubics)
        idem = IdempotentSet(2, (e, mat([[0, -1], [0, 1]])))  # I - e
        assert not verify_complete(idem, bin_cubics)


class TestRankProfile:
    def test_identity_on_three(self):
        idem = IdempotentSet(3, (RatMatrix.identity(3),))
        assert rank_profile(idem) == (3,)

    def test_pair_profile(self):
        idem = IdempotentSet(2, tuple(mat(rows) for rows in BIN_CUBIC_EPS))
        assert rank_profile(idem) == (1, 1)

    def test_triple_profile(self):
        idem = IdempotentSet(4, tuple(mat(rows) for rows in FOURVAR_EPS))
        assert rank_profile(idem) == (1, 1, 2)

    def test_ranks_sum_to_dimension(self, fourvar_pair):
        idem = find_idempotents(center_basis(fourvar_pair), seed=3)
        assert sum(rank_profile(idem)) == 4
