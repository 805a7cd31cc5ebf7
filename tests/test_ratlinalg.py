"""Exact linear algebra: echelon forms, kernels, inverses, minimal polynomials,
squarefree parts and integer roots."""

import math
import random
import time
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polydecomp.idempotent
import polydecomp.ratlinalg
from algebra_helpers import (
    T,
    at_matrix,
    extended_gcd,
    in_span,
    jordan_product,
    kernel_basis,
    krylov_minimal_polynomial,
    matrix_rows,
    row_space_basis,
    same_span,
    scaled_rows,
    span_intersection,
    sympy_poly,
    unipoly,
    wang_reconstruct,
)
from conftest import bench_workloads, mat, mixed_by_big_entry, planted_suite
from polydecomp import (
    RatMatrix,
    SingularMatrix,
    center_basis,
    decompose_recursive,
    invert,
    parse_polynomial,
)
from polydecomp._rat import normalize
from polydecomp.errors import InternalInvariantViolation, LiftExhausted
from polydecomp.idempotent import _Coordinates, _echelon_basis
from polydecomp.ratlinalg import (
    UniPoly,
    _bareiss,
    _cleared,
    _crt,
    _kernel_prime,
    _primitive_int_row,
    _ratio,
    _reconstruct,
    _SparseSystem,
    column_space_basis,
    integer_roots,
    minimal_polynomial,
    nullspace_basis,
    primary_coprime_factors,
    squarefree_part,
    vec,
)


def integral(m):
    """m times the least common denominator of its entries."""
    return RatMatrix(m.rows, m.cols, _cleared(vec(m))[0])


def krylov_vectors(m, start=None):
    """The Krylov vectors x_j = m^j x_0, j = 0 ... n, of an integer n x n
    matrix, flattened: x_0 is the start column, or the identity."""
    power = RatMatrix.identity(m.rows) if start is None else start
    vectors = [vec(power)]
    for _ in range(m.rows):
        power = m * power
        vectors.append(vec(power))
    return vectors


def rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return RatMatrix(rows, cols, [rng.randint(lo, hi) for _ in range(rows * cols)])


def sparse_rows(rows) -> list:
    """Rational rows as primitive integer rows of (column, value) pairs."""
    return [[(c, v) for c, v in enumerate(_primitive_int_row(row)) if v] for row in rows]


def kernel_mod(rows, width, p=None):
    """``nullspace_basis`` of rational rows modulo p (the first kernel prime
    by default), its entries reduced, and the rows that raised the rank."""
    p = p or FIRST_PRIME
    kernel, independent = nullspace_basis(_SparseSystem(width, iter(sparse_rows(rows))), p)
    return [tuple(x % p for x in v) for v in kernel], independent


def residues(vectors, p=None) -> list:
    """Rational vectors reduced modulo p (the first kernel prime by default)."""
    p = p or FIRST_PRIME
    return [
        tuple(Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p for x in v)
        for v in vectors
    ]


class TestNullspace:
    """The canonical kernel basis modulo a prime; the center lifts it."""

    def test_zero_matrix_gives_standard_basis(self):
        assert kernel_mod([[0, 0, 0]] * 3, 3) == ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [])

    def test_full_rank_square_is_trivial(self):
        kernel, independent = kernel_mod(matrix_rows(RatMatrix.identity(4)), 4)
        assert kernel == [] and len(independent) == 4

    def test_vectors_are_annihilated(self):
        rng = random.Random(11)
        for _ in range(15):
            m = rand_matrix(rng, 4, 5)
            kernel, independent = kernel_mod(matrix_rows(m), 5)
            assert len(kernel) + len(independent) == 5
            for v in kernel:
                for row in sparse_rows(matrix_rows(m)):
                    assert sum(a * v[c] for c, a in row) % FIRST_PRIME == 0

    def test_free_coordinate_is_one(self):
        kernel, _ = kernel_mod([[1, 2, 3]], 3)
        assert kernel == [(-2 % FIRST_PRIME, 1, 0), (-3 % FIRST_PRIME, 0, 1)]

    def test_sparse_system_counts_the_rows_read(self):
        # rows orthogonal to (2, 0, 4): all three are read, once, and the
        # third adds no rank
        rows = [[(1, 1)], [(0, 2), (2, -1)], [(0, 4), (2, -2)]]
        system = _SparseSystem(3, iter(rows))
        kernel, independent = nullspace_basis(system, FIRST_PRIME)
        assert [tuple(x % FIRST_PRIME for x in v) for v in kernel] == residues(
            [(Fraction(1, 2), 0, 1)]
        )
        assert system.rows == 3 and independent == rows[:2]

    def test_rows_may_be_a_one_shot_iterator(self):
        # the rank is width - 1 after two of four rows; every row is read all
        # the same, once, so a generator gives what the list gives, and a
        # last row outside the span counts
        rows = [[(0, 1), (2, -1)], [(1, 1)], [(0, 2), (1, 3), (2, -2)], [(1, -5)]]
        p = FIRST_PRIME
        once = nullspace_basis(_SparseSystem(3, (row for row in rows)), p)
        assert once == nullspace_basis(_SparseSystem(3, rows), p)
        assert once[1] == rows[:2] and [tuple(x % p for x in v) for v in once[0]] == [(1, 0, 1)]
        rows.append([(2, 1)])
        kernel, independent = nullspace_basis(_SparseSystem(3, (row for row in rows)), p)
        assert kernel == [] and independent == rows[:2] + [[(2, 1)]]

    def test_sparse_system_matches_the_dense_kernel(self):
        # multiples add no rank: every row is read and the kernel is the
        # dense matrix's, (7, 1, 0) and (0, 0, 1)
        rows = [[(0, 1), (1, -7)], [(0, 2), (1, -14)], [(0, 3), (1, -21)]]
        system = _SparseSystem(3, iter(rows))
        kernel, independent = nullspace_basis(system, FIRST_PRIME)
        dense = [[1, -7, 0], [2, -14, 0], [3, -21, 0]]
        reduced = [tuple(x % FIRST_PRIME for x in v) for v in kernel]
        assert reduced == [(7, 1, 0), (0, 0, 1)] == kernel_basis(dense, 3)
        assert system.rows == 3 and independent == rows[:1]

    def test_sparse_kernel_past_one_prime(self):
        # 2^40 + 1 is past one prime's reconstruction bound: the kernel
        # modulo each prime holds its residue, and the CRT of two primes
        # reconstructs it (the center's lift runs this loop)
        big = 2**40 + 1
        row = [(0, 1), (1, -big)]
        p, q = _kernel_prime(0), _kernel_prime(1)
        forms = []
        for prime in (p, q):
            system = _SparseSystem(3, iter([row]))
            kernel, independent = nullspace_basis(system, prime)
            reduced = [tuple(x % prime for x in v) for v in kernel]
            assert reduced == [(big % prime, 1, 0), (0, 0, 1)]
            assert system.rows == 1 and independent == [row]
            forms.append({1: {0: kernel[0][0] % prime}})
        assert _reconstruct(forms[0], p) != {1: {0: big}}
        assert _reconstruct(_crt(forms[0], p, forms[1], q), p * q) == {1: {0: big}}


def from_sympy(x):
    """A sympy rational as a library scalar: int when integral, else Fraction."""
    return int(x.p) if x.q == 1 else Fraction(int(x.p), int(x.q))


def sympy_nullspace(m):
    """Oracle: sympy's kernel basis, which uses the same free-column form."""
    return [tuple(map(from_sympy, col)) for col in to_sympy(m).nullspace()]


def assert_same_typed(vectors, expected):
    assert vectors == expected
    # integral entries are ints, the rest Fractions, exactly as the oracle
    assert [tuple(map(type, v)) for v in vectors] == [
        tuple(map(type, v)) for v in expected
    ]


def assert_matches_oracle(m, p=None):
    """The kernel modulo p is sympy's canonical kernel reduced modulo p, and
    the rows that raised the rank are as many as the rational rank."""
    kernel, independent = kernel_mod(matrix_rows(m), m.cols, p)
    assert kernel == residues(sympy_nullspace(m), p)
    assert len(independent) == to_sympy(m).rank()


FIRST_PRIME = _kernel_prime(0)

small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def rational_lists(size):
    return st.lists(small_rationals, min_size=size, max_size=size)


@st.composite
def rational_matrices(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return RatMatrix(rows, cols, draw(rational_lists(rows * cols)))
    # rank-deficient: a product through an inner dimension below both sides
    inner = draw(st.integers(0, min(rows, cols) - 1))
    if inner == 0:
        return RatMatrix.zeros(rows, cols)
    left = RatMatrix(rows, inner, draw(rational_lists(rows * inner)))
    right = RatMatrix(inner, cols, draw(rational_lists(inner * cols)))
    return left * right


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(str(x)) for x in vec(m)])


@st.composite
def product_operands(draw):
    rows, inner, cols = (draw(st.integers(1, 5)) for _ in range(3))

    def operand(r, c):
        if draw(st.integers(0, 5)) == 0:
            return RatMatrix.zeros(r, c)
        return RatMatrix(r, c, draw(rational_lists(r * c)))

    return operand(rows, inner), operand(inner, cols)


class TestProductOracle:
    @settings(max_examples=150, deadline=None)
    @given(product_operands())
    def test_random_products(self, operands):
        left, right = operands
        product = left * right
        expected = to_sympy(left) * to_sympy(right)
        assert (product.rows, product.cols) == expected.shape
        assert to_sympy(product) == expected
        # integral entries are ints, the rest Fractions
        assert all(type(x) is int or x.denominator > 1 for x in vec(product))

    @settings(max_examples=100, deadline=None)
    @given(product_operands())
    def test_uncoerced_entries_match_coerced(self, operands):
        # products skip the coercion of their entries; the entries must be
        # exactly what coercing them would give
        left, right = operands
        m = left * right
        coerced = RatMatrix(m.rows, m.cols, list(vec(m)))
        assert coerced == m
        assert list(map(type, vec(m))) == list(map(type, vec(coerced)))


class TestNullspaceOracle:
    @settings(max_examples=150, deadline=None)
    @given(rational_matrices())
    def test_random_matrices(self, m):
        assert_matches_oracle(m)

    def test_tall_rank_deficient(self):
        rng = random.Random(23)
        for _ in range(10):
            left = rand_matrix(rng, 9, 2)
            right = rand_matrix(rng, 2, 5)
            assert_matches_oracle(left * right)

    def test_unlucky_first_prime(self):
        # Modulo the first prime the rows agree on their first two columns,
        # so its pivot columns are {0, 2} instead of {0, 1}: the free column
        # moves, which the center's lift sees as a prime to drop.  The
        # kernel entries carry that prime as a denominator; the next prime
        # gives their residues.
        m = mat([[1 + FIRST_PRIME, 1, 0], [1, 1, 1]])
        assert sympy_nullspace(m) == [
            (Fraction(1, FIRST_PRIME), Fraction(-FIRST_PRIME - 1, FIRST_PRIME), 1)
        ]
        kernel, independent = kernel_mod(matrix_rows(m), 3)
        assert kernel == [(FIRST_PRIME - 1, 1, 0)] and len(independent) == 2
        assert_matches_oracle(m, _kernel_prime(1))

    def test_unlucky_first_prime_trivial_kernel(self):
        # singular modulo the first prime only (determinant FIRST_PRIME):
        # the rank modulo a prime can fall below the rational rank, never
        # rise above it
        m = mat([[1 + FIRST_PRIME, 1], [1, 1]])
        kernel, independent = kernel_mod(matrix_rows(m), 2)
        assert len(kernel) == len(independent) == 1 and sympy_nullspace(m) == []
        assert_matches_oracle(m, _kernel_prime(1))

    def test_kernel_needs_crt(self):
        # -b/a is past one prime's reconstruction bound; the kernels modulo
        # two primes reconstruct it by CRT
        a, b = 3**30, 2**50 + 1
        m = mat([[a, b, 0], [0, 0, 1]])
        assert sympy_nullspace(m) == [(Fraction(-b, a), 1, 0)]
        assert max(a, b) > isqrt(FIRST_PRIME // 2)
        p, q = FIRST_PRIME, _kernel_prime(1)
        assert_matches_oracle(m)
        assert_matches_oracle(m, q)
        first = {1: {0: kernel_mod(matrix_rows(m), 3)[0][0][0]}}
        second = {1: {0: kernel_mod(matrix_rows(m), 3, q)[0][0][0]}}
        assert _reconstruct(first, p) != {1: {0: Fraction(-b, a)}}
        assert _reconstruct(_crt(first, p, second, q), p * q) == {1: {0: Fraction(-b, a)}}

    def test_zero_matrix(self):
        assert_matches_oracle(RatMatrix.zeros(2, 4))

    def test_full_rank(self):
        m = mat([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]])
        assert kernel_mod(matrix_rows(m), 4)[0] == []
        assert_matches_oracle(m)

    @pytest.mark.parametrize("column", [[0, 0, 0], [0, Fraction(3, 7), 0], [5]])
    def test_single_column(self, column):
        assert_matches_oracle(mat([[x] for x in column]))


big_integers = st.integers(-(2**70), 2**70)


def matrix_of_shape(draw, rows, cols):
    """Generic, rank-deficient (a product through a narrower inner dimension)
    or zero; one in four draws has integer entries far above 2^61."""
    entries = small_rationals if draw(st.integers(0, 3)) else big_integers

    def block(r, c):
        return RatMatrix(r, c, draw(st.lists(entries, min_size=r * c, max_size=r * c)))

    inner = draw(st.integers(0, min(rows, cols)))
    if inner == min(rows, cols):
        return block(rows, cols)
    if inner == 0:
        return RatMatrix.zeros(rows, cols)
    return block(rows, inner) * block(inner, cols)


@st.composite
def echelon_inputs(draw):
    """Up to 8 x 7 in any shape, or r x n^2 with r <= n, the shape of the
    corner spans the idempotent search reduces."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 7))
    else:
        n = draw(st.integers(2, 4))
        rows, cols = draw(st.integers(1, n)), n * n
    return matrix_of_shape(draw, rows, cols)


@st.composite
def square_matrices(draw, largest=5):
    n = draw(st.integers(1, largest))
    return matrix_of_shape(draw, n, n)


def sympy_rows(m):
    return [tuple(map(from_sympy, m.row(i))) for i in range(m.rows)]


# Singular modulo the first prime only (determinant FIRST_PRIME).
UNLUCKY = mat([[1 + FIRST_PRIME, 1], [1, 1]])
# Entries above the modulus of one prime; inverse entries need several primes.
BIG = mat([[3**40, 2**64 + 1, 0], [5**20, 7**25, 1], [2**61, 0, 11**19]])


def echelon_rows(rows, width) -> list[tuple]:
    """The reduced echelon basis of the span of rational rows, from the
    library's fraction-free elimination."""
    pivots, reduced, t = _bareiss([_cleared(row)[0] for row in rows], width)
    return [tuple(_ratio(x, t) for x in row) for row in reduced[: len(pivots)]]


class TestEchelonOracle:
    """Row spaces (from the fraction-free elimination), column spaces,
    inverses and minimal polynomials against sympy."""

    def test_identity(self):
        assert echelon_rows(matrix_rows(RatMatrix.identity(3)), 3) == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ]

    def test_rank_one(self):
        assert echelon_rows([[1, 2], [2, 4]], 2) == [(1, 2)]
        assert column_space_basis(mat([[1, 2], [2, 4]])) == ([(1, 2)], [(1, 2)])

    def test_fractional_entries(self):
        assert echelon_rows([[Fraction(1, 2), 1], [1, 3]], 2) == [(1, 0), (0, 1)]

    @settings(max_examples=100, deadline=None)
    @given(echelon_inputs())
    def test_idempotent(self, m):
        basis = echelon_rows(matrix_rows(m), m.cols)
        assert_same_typed(echelon_rows(basis, m.cols), basis)

    @settings(max_examples=100, deadline=None)
    @given(echelon_inputs())
    def test_rank_plus_nullity(self, m):
        rank = len(echelon_rows(matrix_rows(m), m.cols))
        assert rank == to_sympy(m).rank()
        # the rank modulo a prime never exceeds the rational rank: the
        # bound on the center's dimension that its lift rests on
        kernel, independent = kernel_mod(matrix_rows(m), m.cols)
        assert len(kernel) + len(independent) == m.cols and len(independent) <= rank

    @settings(max_examples=150, deadline=None)
    @given(echelon_inputs())
    def test_row_and_column_spaces(self, m):
        reduced, pivots = to_sympy(m).rref()
        assert_same_typed(
            echelon_rows(matrix_rows(m), m.cols), sympy_rows(reduced)[: len(pivots)]
        )
        columns, rows = column_space_basis(m)
        assert columns == [m.column(c) for c in pivots]
        assert_same_typed(rows, sympy_rows(reduced)[: len(pivots)])
        # m is its pivot columns times its reduced echelon rows
        if pivots:
            assert RatMatrix.from_columns(columns) * RatMatrix.from_rows(rows) == m

    @settings(max_examples=150, deadline=None)
    @given(square_matrices())
    def test_invert(self, m):
        oracle = to_sympy(m)
        rank = oracle.rank()
        if rank < m.rows:
            with pytest.raises(SingularMatrix, match=f"rank {rank} < {m.rows}"):
                invert(m)
        else:
            assert_same_typed(
                [tuple(row) for row in matrix_rows(invert(m))], sympy_rows(oracle.inv())
            )

    @settings(max_examples=100, deadline=None)
    @given(square_matrices(largest=4))
    def test_minimal_polynomial(self, m):
        m = integral(m)
        mp = minimal_polynomial(krylov_vectors(m))
        coeffs = mp.coefficients()
        assert coeffs[-1] == 1
        assert all(type(c) is int for c in coeffs)
        oracle = to_sympy(m)
        value = sympy.zeros(m.rows, m.rows)
        for c in reversed(coeffs):
            value = value * oracle + sympy.Rational(str(c)) * sympy.eye(m.rows)
        assert value.is_zero_matrix
        krylov = sympy.Matrix([list(oracle**k) for k in range(m.rows + 1)])
        assert mp.degree == krylov.rank()

    @settings(max_examples=100, deadline=None)
    @given(square_matrices(largest=4), st.data())
    def test_annihilator_of_a_start_column(self, m, data):
        m = integral(m)
        v = integral(RatMatrix(m.rows, 1, data.draw(rational_lists(m.rows))))
        p = minimal_polynomial(krylov_vectors(m, v))
        assert p.coefficients()[-1] == 1
        assert (at_matrix(sympy_poly(p), m) * v).is_zero()
        assert sympy_poly(minimal_polynomial(krylov_vectors(m))).rem(sympy_poly(p)).is_zero
        oracle, column = to_sympy(m), to_sympy(v)
        krylov = sympy.Matrix.hstack(*(oracle**k * column for k in range(m.rows + 1)))
        assert p.degree == krylov.rank()

    @pytest.mark.parametrize("m", [UNLUCKY, BIG], ids=["unlucky_prime", "above_2_61"])
    def test_fixed_cases(self, m):
        oracle = to_sympy(m)
        full = [tuple(int(r == c) for c in range(m.cols)) for r in range(m.rows)]
        assert_same_typed(echelon_rows(matrix_rows(m), m.cols), full)
        assert column_space_basis(m) == ([m.column(c) for c in range(m.cols)], full)
        assert_same_typed(
            [tuple(row) for row in matrix_rows(invert(m))], sympy_rows(oracle.inv())
        )
        assert minimal_polynomial(krylov_vectors(m)) == UniPoly(
            list(map(from_sympy, reversed(oracle.charpoly().all_coeffs())))
        )

    def test_unlucky_prime_rank_one(self):
        # rank 1 modulo the first prime, rank 2 over the rationals
        m = mat([[1 + FIRST_PRIME, 1, 2], [1, 1, 2]])
        reduced, _ = to_sympy(m).rref()
        assert_same_typed(echelon_rows(matrix_rows(m), 3), sympy_rows(reduced))

    @pytest.mark.parametrize(
        "m", [RatMatrix.identity(3), mat([[1, 2, 0], [3, 4, 0], [5, 6, 7]])]
    )
    def test_full_rank_past_width_minus_one(self, m):
        # The first two rows leave one kernel vector; only the last row
        # rules it out.
        assert kernel_mod(matrix_rows(m), 3)[0] == []
        assert echelon_rows(matrix_rows(m), 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert column_space_basis(m)[0] == [m.column(c) for c in range(3)]


def residue_modulus(primes: int) -> int:
    modulus = 1
    for i in range(primes):
        modulus *= _kernel_prime(i)
    return modulus


@st.composite
def residue_forms(draw):
    """An echelon form of residues modulo a product of one to three kernel
    primes.  Each entry is the image of a rational with a small, a
    near-bound or a large numerator and denominator, or an arbitrary
    residue; the rows mix denominators, so some entries reuse the row's
    denominator and others need Wang's Euclid, and some have no preimage."""
    modulus = residue_modulus(draw(st.integers(1, 3)))
    bound = isqrt(modulus // 2)
    near = st.integers(max(1, bound - 2), bound + 2)
    sizes = st.one_of(st.integers(1, 60), near, st.integers(1, modulus - 1))
    small_denominators = st.sampled_from([1, 2, 3, 5, 6, 15, 7, 35, 2**40 + 15])
    denominators = st.one_of(small_denominators, sizes)
    form = {}
    for c in range(draw(st.integers(1, 4))):
        row = {}
        for j in range(c + 1, c + 1 + draw(st.integers(0, 5))):
            if draw(st.integers(0, 9)) == 0:
                row[j] = draw(st.integers(0, modulus - 1))
                continue
            a = draw(sizes) * draw(st.sampled_from([1, -1])) if draw(st.booleans()) else 0
            b = draw(denominators)
            assume(gcd(b, modulus) == 1)
            row[j] = a * pow(b, -1, modulus) % modulus
        form[3 * c] = row
    return form, modulus


class TestReconstruction:
    """``_reconstruct`` along a row's running denominator against one Wang
    Euclid per entry."""

    @settings(max_examples=300, deadline=None)
    @given(residue_forms())
    def test_matches_wang_per_entry(self, case):
        residues, modulus = case
        form = _reconstruct(residues, modulus)
        expected = wang_reconstruct(residues, modulus)
        assert form == expected
        if form is not None:
            # integral entries are ints, the rest Fractions, as Wang's
            assert [[type(x) for x in row.values()] for row in form.values()] == [
                [type(x) for x in row.values()] for row in expected.values()
            ]

    def test_running_denominator_edges(self):
        for primes in (1, 2, 3):
            modulus = residue_modulus(primes)
            bound = isqrt(modulus // 2)

            def image(x):
                x = Fraction(x)
                return x.numerator * pow(x.denominator, -1, modulus) % modulus

            def both(*values):
                residues = {0: {j: image(x) for j, x in enumerate(values, 1)}}
                form = _reconstruct(residues, modulus)
                assert form == wang_reconstruct(residues, modulus)
                return form

            values = [Fraction(1, 3), Fraction(-2, 5), Fraction(7, 15), 4, Fraction(1, 2)]
            values += [-bound, bound, Fraction(bound, 3), Fraction(1, bound)]
            form = both(*values)
            assert form == {0: dict(enumerate(values, 1))}
            assert [type(x) for x in form[0].values()] == [type(normalize(x)) for x in values]
            # a numerator one past the bound has no preimage, whether it
            # opens the row or follows a denominator
            assert both(bound + 1) is None
            assert both(Fraction(1, 3), -bound - 1) is None
            # two denominators in bounds whose lcm is not: 1/(p q) is not
            # a preimage in bounds, although its residue times the lcm is 1
            p, q = bound, bound - 1
            assert both(Fraction(1, p), Fraction(1, q), Fraction(1, p * q)) != {
                0: {1: Fraction(1, p), 2: Fraction(1, q), 3: Fraction(1, p * q)}
            }


class TestInvert:
    def test_identity(self):
        assert invert(RatMatrix.identity(3)) == RatMatrix.identity(3)

    def test_known_two_by_two(self):
        p = mat([[Fraction(-1, 8), Fraction(1, 4)], [Fraction(-3, 8), Fraction(-1, 4)]])
        # oracle: 2x2 determinant and adjugate
        a, b, c, d = p.entry(0, 0), p.entry(0, 1), p.entry(1, 0), p.entry(1, 1)
        det = a * d - b * c
        assert det == Fraction(1, 8)
        expected = mat([[d / det, -b / det], [-c / det, a / det]])
        assert invert(p) == expected

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            invert(mat([[1, 2], [2, 4]]))

    def test_round_trip(self):
        rng = random.Random(17)
        found = 0
        while found < 10:
            m = rand_matrix(rng, 3, 3)
            try:
                m_inv = invert(m)
            except SingularMatrix:
                continue
            found += 1
            assert m * m_inv == RatMatrix.identity(3)
            assert m_inv * m == RatMatrix.identity(3)


class TestColumnSpace:
    def test_identity(self):
        identity = [(1, 0), (0, 1)]
        assert column_space_basis(RatMatrix.identity(2)) == (identity, identity)

    def test_rank_one_idempotent(self):
        e = mat([[Fraction(1, 4), Fraction(1, 4)], [Fraction(3, 4), Fraction(3, 4)]])
        basis, rows = column_space_basis(e)
        assert len(basis) == 1
        x, y = basis[0]
        assert y == 3 * x  # proportional to (1, 3)
        # for an idempotent the echelon rows are a left inverse of the columns
        assert rows == [(1, 1)]
        assert sum(a * b for a, b in zip(rows[0], basis[0])) == 1

    def test_zero_matrix(self):
        assert column_space_basis(RatMatrix.zeros(3, 3)) == ([], [])


class TestMinimalPolynomial:
    def test_identity(self):
        assert minimal_polynomial(krylov_vectors(RatMatrix.identity(3))) == UniPoly([-1, 1])

    def test_nontrivial_idempotent(self):
        e = mat([[3, -1], [6, -2]])
        assert minimal_polynomial(krylov_vectors(e)) == UniPoly([0, -1, 1])  # t^2 - t

    def test_distinct_diagonal(self):
        m = mat([[2, 0], [0, 3]])
        assert minimal_polynomial(krylov_vectors(m)) == UniPoly([6, -5, 1])  # (t-2)(t-3)

    def test_annihilates_and_is_minimal(self):
        rng = random.Random(19)
        for _ in range(10):
            m = rand_matrix(rng, 3, 3, -3, 3)
            mp = minimal_polynomial(krylov_vectors(m))
            assert at_matrix(sympy_poly(mp), m).is_zero()
            # no proper monic divisor annihilates: drop one coprime factor
            for f in primary_coprime_factors(mp):
                quotient = sympy_poly(mp).exquo(sympy_poly(f))
                if quotient.degree() >= 1:
                    assert not at_matrix(quotient, m).is_zero()

    def test_start_column_cases(self):
        m = mat([[2, 0, 0], [0, 3, 0], [0, 0, 3]])
        assert minimal_polynomial(krylov_vectors(m, mat([[1], [0], [0]]))) == UniPoly([-2, 1])
        assert minimal_polynomial(krylov_vectors(m, mat([[1], [1], [0]]))) == UniPoly([6, -5, 1])
        assert minimal_polynomial(krylov_vectors(m, RatMatrix.zeros(3, 1))) == UniPoly([1])
        # the first dependency, even where later vectors are independent
        assert minimal_polynomial([(1, 0), (0, 0), (0, 1)]) == UniPoly([0, 1])
        # vectors with no dependency among them have no such polynomial
        with pytest.raises(ValueError, match="independent"):
            minimal_polynomial([(1, 0, 0), (0, 2, 0), (0, 0, 3)])

    def test_nilpotent(self):
        m = mat([[0, 1], [0, 0]])
        assert minimal_polynomial(krylov_vectors(m)) == UniPoly([0, 0, 1])  # t^2

    def test_dependency_over_the_integers_only(self):
        # x_1 = x_0 / 2 gives t - 1/2, which the Krylov vectors of an
        # integer matrix never do: the coefficients are integers or a bug
        with pytest.raises(InternalInvariantViolation, match="integers"):
            minimal_polynomial([(2, 4), (1, 2)])


class TestMinimalPolynomialKernelCalls:
    """Cases that once needed a second kernel prime or a certified solve:
    the fraction-free elimination needs no prime at all."""

    @pytest.fixture
    def primes(self, monkeypatch):
        # every kernel prime asked for while the test runs
        asked = []
        prime = polydecomp.ratlinalg._kernel_prime

        def recording(i):
            asked.append(i)
            return prime(i)

        monkeypatch.setattr(polydecomp.ratlinalg, "_kernel_prime", recording)
        return asked

    def test_one_certified_solve(self, primes):
        m = mat([[6, 3, 0], [0, 6, 0], [1, 0, 15]])
        assert minimal_polynomial(krylov_vectors(m)) == UniPoly(
            [-540, 216, -27, 1]
        )  # (t-6)^2 (t-15)
        assert primes == []

    def test_dependent_only_modulo_the_first_kernel_prime(self, primes):
        # M = I modulo p, so vec I and vec M are dependent there, not over
        # the rationals
        p = FIRST_PRIME
        m = mat([[1, 0], [0, 1 + p]])
        assert minimal_polynomial(krylov_vectors(m)) == UniPoly([1 + p, -(2 + p), 1])
        assert primes == []

    def test_prime_in_a_denominator(self, primes):
        # diag(1, 1 + 1/p) cleared of its denominator: the powers of
        # diag(p, p + 1), divisible by p in every entry but one
        p = FIRST_PRIME
        m = integral(mat([[1, 0], [0, 1 + Fraction(1, p)]]))
        expected = UniPoly([p * (p + 1), -(2 * p + 1), 1])
        assert minimal_polynomial(krylov_vectors(m)) == expected
        assert primes == []

    def test_dense_echelon_forms_ask_for_no_prime(self, primes, fourvar_pair, bin_cubics):
        # inverses, column spaces, minimal polynomials and the coordinates
        # of a non-scalar center all come from the fraction-free elimination
        m = mat([[1 + FIRST_PRIME, 1, 0], [1, 1, 1], [2**70, 0, Fraction(1, 3)]])
        assert invert(m) * m == RatMatrix.identity(3)
        assert column_space_basis(m)[0] == [m.column(c) for c in range(3)]
        start = mat([[1], [0], [0]])
        assert minimal_polynomial(krylov_vectors(integral(m), start)).degree == 3
        assert invert(BIG) * BIG == RatMatrix.identity(3)
        assert primes == []
        for polys in (fourvar_pair, bin_cubics):
            center = center_basis(polys)
            primes.clear()
            assert _Coordinates(center).r == center.dim > 1
            assert primes == []


def assert_same_poly(p, expected):
    assert p == expected
    assert list(map(type, p.coefficients())) == list(map(type, expected.coefficients()))


@st.composite
def krylov_cases(draw):
    """An integer square matrix and an integer start column (or None, the
    identity)."""
    m = integral(draw(square_matrices(largest=4)))
    start = None
    if draw(st.booleans()):
        entries = st.one_of(small_rationals, big_integers)
        start = RatMatrix(m.rows, 1, draw(st.lists(entries, min_size=m.rows, max_size=m.rows)))
        start = integral(start)
    return m, start


class TestMinimalPolynomialReference:
    """The fraction-free elimination of the Krylov vectors against the
    Fraction Krylov stack."""

    @settings(max_examples=150, deadline=None)
    @given(krylov_cases())
    def test_matches_the_fraction_krylov(self, case):
        m, start = case
        expected = krylov_minimal_polynomial(m, start)
        assert_same_poly(minimal_polynomial(krylov_vectors(m, start)), expected)

    def test_exact_division_by_the_scale(self, monkeypatch):
        # a draw's operator is scale * L_g and its powers have integer
        # coordinates: after the unit, each power the search hands over is
        # g o (the power before), exactly, for g the draw, a primitive
        # integer matrix; without the division by the scale they would be
        # the powers of scale * g.  A draw from a corner of dimension k
        # hands over min(r, k + 1) + 1 powers, enough for the dependency.
        draws = []
        coordinates = []

        class Recording(_Coordinates):
            # the corner of the draws to come: the whole center first, then
            # the corner of each block as it is refined
            def __init__(self, center):
                super().__init__(center)
                self.drawn_from = self.r
                coordinates.append(self)

            def corner(self, v, d):
                basis = super().corner(v, d)
                if basis is not None:
                    self.drawn_from = len(basis)
                return basis

        def recording(powers):
            z = coordinates[-1]
            draws.append((z, z.drawn_from, powers))
            return minimal_polynomial(powers)

        monkeypatch.setattr(polydecomp.idempotent, "_Coordinates", Recording)
        monkeypatch.setattr(polydecomp.idempotent, "minimal_polynomial", recording)
        for seed, instance in planted_suite():
            decompose_recursive(instance.fs, seed=seed)
        # a certified corner takes no draw: the bench's many_blocks problems
        # add draws in corners of every kind
        workloads = bench_workloads()
        for pid in range(30):
            problem = workloads.make_problem("many_blocks", 1, pid)
            polys = [parse_polynomial(text, problem.var_names) for text in problem.sources]
            decompose_recursive(polys, seed=1)
        assert len(draws) >= 120  # 43 draws, then 80
        assert any(k + 1 < z.r for z, k, _ in draws)  # fewer powers than r + 1
        for z, k, powers in draws:
            assert len(powers) == min(z.r, k + 1) + 1
            assert powers[0] == z.one
            g = z.matrix(powers[1], 1)
            assert gcd(*(x.numerator for x in vec(g))) == 1
            assert all(x.denominator == 1 for x in vec(g))
            for before, power in zip(powers, powers[1:]):
                assert z.matrix(power, 1) == jordan_product(g, z.matrix(before, 1))
            m = minimal_polynomial(powers)
            assert m == krylov_minimal_polynomial(g)
            assert all(type(c) is int for c in m.coefficients())

    def test_start_dependent_only_modulo_the_first_kernel_prime(self):
        # x_0 = e_1 and x_1 = (0, p) are dependent modulo p, not over the
        # rationals
        p = FIRST_PRIME
        m, start = mat([[0, 0], [p, 0]]), mat([[1], [0]])
        assert minimal_polynomial(krylov_vectors(m, start)) == UniPoly([0, 0, 1])
        assert krylov_minimal_polynomial(m, start) == UniPoly([0, 0, 1])

    def test_coefficients_past_one_prime(self):
        # (t - a)(t - b) with a*b near 2^200, past four 61-bit primes
        a, b = 2**100 + 7, -(3**63)
        m = mat([[a, 1], [0, b]])
        assert minimal_polynomial(krylov_vectors(m)) == UniPoly([a * b, -(a + b), 1])


def integer_rows(m):
    return [_primitive_int_row(row) for row in matrix_rows(m)]


class TestAdjugateEchelon:
    """The reduced echelon basis E as the integer rows d * E over the least
    d > 0, from the fraction-free elimination (for A the block at the pivot
    columns, adj(A) times the rows up to sign), against sympy's rref."""

    @settings(max_examples=200, deadline=None)
    @given(echelon_inputs())
    def test_matches_sympy_rref(self, m):
        basis = row_space_basis(matrix_rows(m), m.cols)
        pivots, rows, d = _echelon_basis(integer_rows(m))
        assert (rows, d) == scaled_rows(basis)
        assert pivots == [next(c for c, x in enumerate(row) if x) for row in basis]

    def test_center_bases(self, fourvar_pair, bin_cubics):
        for polys in (fourvar_pair, bin_cubics):
            center = center_basis(polys)
            width = center.n**2
            expected = scaled_rows(row_space_basis(center.vectors(), width))
            vectors = [_primitive_int_row(v) for v in center.vectors()]
            assert _echelon_basis(vectors)[1:] == expected

    def test_singular_modulo_the_first_prime(self):
        # independent rows that the first kernel prime makes dependent
        assert _echelon_basis(integer_rows(UNLUCKY)) == ([0, 1], [[1, 0], [0, 1]], 1)

    def test_other_pivots_modulo_the_first_prime(self):
        # modulo p the pivots are {0, 2}, over the rationals {0, 1}
        m = mat([[1 + FIRST_PRIME, 1, 0], [1, 1, 1]])
        basis = row_space_basis(matrix_rows(m), 3)
        assert len(basis) == 2
        assert _echelon_basis(integer_rows(m)) == ([0, 1], *scaled_rows(basis))

    def test_wide_entries(self):
        assert _echelon_basis(integer_rows(BIG))[1:] == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1)
        tall = [[3**40, 2**64 + 1, 0, 5], [5**20, 7**25, 1, Fraction(1, 3**41)]]
        expected = scaled_rows(row_space_basis(tall, 4))
        assert _echelon_basis([_primitive_int_row(v) for v in tall])[1:] == expected


def integer_matrix(entries, rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def bareiss_inputs(draw):
    """Integer rows of any shape up to 8 x 7: generic, rank-deficient, tall,
    wide, 0/1-sparse or with entries far above 2^61."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["generic", "sparse", "big", "product"]))
    small = st.integers(-9, 9)
    if kind == "product":
        # rank at most ``inner``: a product through a narrower dimension
        inner = draw(st.integers(1, min(rows, cols)))
        left = draw(integer_matrix(small, rows, inner))
        right = draw(integer_matrix(small, inner, cols))
        return [[sum(map(mul, row, col)) for col in zip(*right)] for row in left]
    entries = {"generic": small, "sparse": st.sampled_from([0, 0, 0, 1]), "big": big_integers}
    return draw(integer_matrix(entries[kind], rows, cols))


class TestBareissOracle:
    """``_bareiss`` against ``sympy.Matrix.rref``: pivots and reduced rows."""

    @settings(max_examples=300, deadline=None)
    @given(bareiss_inputs())
    def test_matches_rref(self, rows):
        width = len(rows[0])
        pivots, out, t = _bareiss(rows, width)
        reduced, expected = sympy.Matrix(rows).rref()
        assert pivots == list(expected)
        k = len(pivots)
        echelon = [tuple(normalize(Fraction(x, t)) for x in row) for row in out[:k]]
        assert_same_typed(echelon, sympy_rows(reduced)[:k])
        # the other rows vanish, and each pivot row holds t at its pivot
        assert not any(x for row in out[k:] for x in row)
        assert all(row[c] == t for row, c in zip(out, pivots))
        assert (t != 0) if pivots else (t == 1)

    @settings(max_examples=100, deadline=None)
    @given(bareiss_inputs())
    def test_columns_past_the_width_are_carried(self, rows):
        # [A | I] leaves t * A^-1 on the right when A is square and regular
        n = len(rows[0])
        square = (rows * n)[:n]
        augmented = [row + [int(i == j) for j in range(n)] for i, row in enumerate(square)]
        pivots, out, t = _bareiss(augmented, n)
        oracle = sympy.Matrix(square)
        assert len(pivots) == oracle.rank()
        if len(pivots) == n:
            inverse = [tuple(normalize(Fraction(x, t)) for x in row[n:]) for row in out]
            assert_same_typed(inverse, sympy_rows(oracle.inv()))

    def test_input_is_left_unchanged(self):
        rows = [[2, 4], [1, 3]]
        assert _bareiss(rows, 2) == ([0, 1], [[2, 0], [0, 2]], 2)
        assert rows == [[2, 4], [1, 3]]

    def test_no_rows_and_zero_rows(self):
        assert _bareiss([], 3) == ([], [], 1)
        assert _bareiss([[0, 0], [0, 0]], 2) == ([], [[0, 0], [0, 0]], 1)


class TestUniPolyGcd:
    def test_extended_gcd_bezout(self):
        t, t_1 = sympy.Poly(T, T, domain="QQ"), sympy.Poly(T - 1, T, domain="QQ")
        g, u, v = extended_gcd(t, t_1)
        assert g.is_one
        assert (u * t + v * t_1).is_one

    def test_extended_gcd_random(self):
        rng = random.Random(23)
        for _ in range(20):
            a, b = (
                sympy.Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))], T, domain="QQ")
                for _ in range(2)
            )
            if a.is_zero and b.is_zero:
                continue
            g, u, v = extended_gcd(a, b)
            assert u * a + v * b == g
            if not g.is_zero:
                assert g.LC() == 1

    def test_squarefree_part(self):
        assert squarefree_part(UniPoly([0, 0, 1])) == UniPoly([0, 1])  # t^2 -> t
        assert squarefree_part(unipoly((T - 1) ** 3 * T)) == unipoly(T * (T - 1))


class TestCoprimeSplit:
    def test_primary_factors_product_is_input(self):
        m = unipoly((T - 2) ** 3 * (T + 1) ** 2)
        parts = primary_coprime_factors(m)
        assert unipoly(math.prod(map(sympy_poly, parts))) == m
        assert len(parts) == 2


class TestRationalRoots:
    def test_zero_root_and_bigs(self):
        p = UniPoly([0, -1, 0, 1])
        assert integer_roots(p) == [-1, 0, 1]

    def test_no_roots(self):
        assert integer_roots(UniPoly([1, 0, 1])) == []


def oracle_factors(p):
    """sympy's factorization of p over the rationals.

    Returns each rational root with its multiplicity, and the product of the
    non-linear factors with theirs.
    """
    linear, rest = {}, sympy.Integer(1)
    for factor, k in sympy.factor_list(sympy_poly(p).as_expr())[1]:
        poly = sympy.Poly(factor, T)
        if poly.degree() == 1:
            a, b = poly.all_coeffs()
            linear[from_sympy(-b / a)] = k
        else:
            rest *= factor**k
    return linear, rest


def oracle_roots(p):
    """Rational roots from sympy's factorization over the rationals, ascending."""
    return sorted(oracle_factors(p)[0])


@st.composite
def rootless_quadratics(draw):
    """t^2 + b t + c with a discriminant that is not a square, as a sympy
    expression."""
    b = draw(st.integers(-9, 9))
    c = draw(st.integers(-9, 9).filter(bool))
    disc = b * b - 4 * c
    assume(disc < 0 or isqrt(disc) ** 2 != disc)
    return T**2 + b * T + c


integer_roots_with_multiplicity = st.tuples(st.integers(-40, 40), st.integers(1, 3))


@st.composite
def polys_with_roots(draw):
    """A product of planted (t - r)^k, t^k and rootless quadratics.

    Returns the polynomial and its integer roots.
    """
    planted = draw(st.lists(integer_roots_with_multiplicity, max_size=4))
    zero_power = draw(st.integers(0, 2))
    p = T**zero_power
    for r, k in planted:
        p *= (T - r) ** k
    for q in draw(st.lists(rootless_quadratics(), max_size=2)):
        p *= q
    roots = {r for r, _ in planted} | ({0} if zero_power else set())
    return unipoly(p), sorted(roots)


def oracle_primary_factors(p):
    """sympy's factorization of p over the rationals, in primary-factor form.

    (t - r)^k for each rational root r with its multiplicity k, ascending,
    then the monic product of the non-linear factors with theirs.
    """
    linear, rest = oracle_factors(p)
    factors = [unipoly((T - r) ** k) for r, k in sorted(linear.items())]
    rest = sympy.Poly(rest, T).monic()
    if rest.degree() >= 1:
        factors.append(unipoly(rest))
    return factors


@st.composite
def polys_with_primary_factors(draw):
    """A product of (t - r)^k, k = 1..3, and rootless quadratics.

    The roots r are integers and may be 0; each of up to two rootless
    quadratics appears once or squared.
    """
    p = sympy.Integer(1)
    for r, k in draw(st.lists(integer_roots_with_multiplicity, max_size=4)):
        p *= (T - r) ** k
    for q in draw(st.lists(rootless_quadratics(), max_size=2)):
        p *= q ** draw(st.integers(1, 2))
    p = unipoly(p)
    assume(p.degree >= 1)
    return p


def counting_sylvester(monkeypatch) -> list:
    """The calls to ``_bareiss`` from ``ratlinalg``, which only the Sylvester
    gcd of ``squarefree_part`` makes among the polynomial functions."""
    calls = []
    real = polydecomp.ratlinalg._bareiss

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(polydecomp.ratlinalg, "_bareiss", counting)
    return calls


class TestPrimaryFactorsOracle:
    @settings(max_examples=150, deadline=None)
    @given(polys_with_primary_factors())
    def test_matches_sympy_factorization(self, m):
        factors = primary_coprime_factors(m)
        # ascending roots with sympy's multiplicities, then sympy's
        # non-linear part; a single factor is m itself
        assert factors == oracle_primary_factors(m)
        if len(factors) == 1:
            assert factors == [m]
        for i, f in enumerate(factors):
            for g in factors[i + 1 :]:
                assert sympy.gcd(sympy_poly(f), sympy_poly(g)).is_one
        assert unipoly(math.prod(map(sympy_poly, factors))) == m

    def test_single_factor_is_the_monic_input(self):
        quadratic = T**2 + 2
        for m in ((T + 2) ** 3, T**2, quadratic, quadratic**2 * (T**2 + T + 1)):
            m = unipoly(m)
            assert primary_coprime_factors(m) == [m]

    def test_constants_raise(self):
        for m in (UniPoly(), UniPoly([1])):
            with pytest.raises(ValueError):
                primary_coprime_factors(m)

    def test_one_gcd_per_call(self, monkeypatch):
        # the multiplicities come from exact division, not from a gcd per
        # factor: the squarefree part behind the roots is the only gcd, one
        # Sylvester elimination, and a squarefree m certified modulo the
        # kernel prime needs none
        calls = counting_sylvester(monkeypatch)
        cases = [
            ((T - 1) ** 2 * (T + 2) * (T**2 + 1), 1),
            (T**3 * (T - 5) ** 2, 1),
            (T**3 - T, 0),
            # squarefree, with a double root modulo the kernel prime
            ((T - 7) * (T - 7 - FIRST_PRIME), 1),
        ]
        for m, gcds in cases:
            calls.clear()
            assert len(primary_coprime_factors(unipoly(m))) >= 2
            assert len(calls) == gcds


def sympy_squarefree_part(m: UniPoly) -> UniPoly:
    """Oracle: sympy's squarefree part of m, made monic."""
    return unipoly(sympy.sqf_part(sympy_poly(m)).monic())


class TestSquarefreePart:
    @settings(max_examples=150, deadline=None)
    @given(polys_with_primary_factors())
    def test_matches_sympy(self, m):
        assert squarefree_part(m) == sympy_squarefree_part(m)

    def test_double_root_modulo_the_kernel_prime(self, monkeypatch):
        # (t - a)(t - a - p) is squarefree over the integers but a square
        # modulo p: it takes the Sylvester gcd and keeps m, and the same
        # with (t - a) squared divides the square out
        calls = counting_sylvester(monkeypatch)
        p = FIRST_PRIME
        for a in (0, 5, 2**70 + 1):
            m = unipoly((T - a) * (T - a - p))
            calls.clear()
            assert squarefree_part(m) == m == sympy_squarefree_part(m)
            assert squarefree_part(unipoly((T - a) ** 2 * (T - a - p))) == m
            assert calls == [1, 1]

    def test_squarefree_needs_no_gcd(self, monkeypatch):
        monkeypatch.setattr(polydecomp.ratlinalg, "_bareiss", None)
        for m in (UniPoly([-5, 1]), UniPoly([2, 0, 1]), UniPoly([0, -1, 0, 1])):
            assert squarefree_part(m) == m


class TestRationalRootsOracle:
    @settings(max_examples=150, deadline=None)
    @given(polys_with_roots())
    def test_planted_roots(self, case):
        p, planted = case
        roots = integer_roots(p)
        assert roots == planted == oracle_roots(p)
        assert all(type(r) is int for r in roots)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(rootless_quadratics(), min_size=1, max_size=3))
    def test_no_rational_roots(self, quadratics):
        p = unipoly(math.prod(quadratics))
        assert integer_roots(p) == [] == oracle_roots(p)

    def test_irreducible_cubic_times_roots(self):
        p = unipoly((T**3 - 2) * (T + 5) ** 2)
        assert integer_roots(p) == [-5] == oracle_roots(p)

    def test_eight_smooth_hundred_bit_roots(self):
        # Every root is divisible by every prime below 53, so modulo each of
        # them all eight roots collide at 0 and the prime search has to move
        # past them; the constant term has far too many divisors to sweep.
        rng = random.Random(8)
        small = list(sympy.primerange(2, 53))
        roots = set()
        while len(roots) < 8:
            r = 1
            for q in small:
                r *= q
            while r.bit_length() < 96:
                r *= rng.choice(small)
            roots.add(r if rng.randint(0, 1) else -r)
        p = unipoly(math.prod(T - r for r in roots))
        start = time.perf_counter()
        found = integer_roots(p)
        elapsed = time.perf_counter() - start
        assert found == sorted(roots)
        assert elapsed < 2.0, f"took {elapsed:.2f} s"


class TestNumberTheoryHelpers:
    def test_pinned_kernel_primes(self):
        # the kernel primes are Mersenne primes 2^q - 1 with q ascending from
        # 61, each proved prime by Lucas-Lehmer: 2^q - 1 is prime exactly
        # when s_(q-2) = 0 modulo it, s_0 = 4 and s_(i+1) = s_i^2 - 2
        def lucas_lehmer(q):
            m = (1 << q) - 1
            x = 4
            for _ in range(q - 2):
                # x^2 - 2 modulo 2^q - 1, as 2^q = 1 there: fold the high bits
                x = x * x - 2
                x = (x & m) + (x >> q)
                x = (x & m) + (x >> q)
            return x % m == 0

        pinned = polydecomp.ratlinalg._KERNEL_PRIMES
        exponents = [p.bit_length() for p in pinned]
        assert pinned[0] == 2**61 - 1 == _kernel_prime(0)
        assert exponents == sorted(set(exponents)) and exponents[-1] >= 11213
        for i, (q, p) in enumerate(zip(exponents, pinned)):
            assert p == 2**q - 1 == _kernel_prime(i)
            assert lucas_lehmer(q)
        # the test tells a composite 2^q - 1 with q prime from a prime one
        assert not lucas_lehmer(67) and lucas_lehmer(89)

    def test_past_the_last_pinned_prime(self, monkeypatch):
        # a lift that runs out of primes raises the package's typed error,
        # whether it asks the table directly or through the center's lift
        count = len(polydecomp.ratlinalg._KERNEL_PRIMES)
        with pytest.raises(LiftExhausted, match=f"kernel prime {count}"):
            _kernel_prime(count)
        monkeypatch.setattr(polydecomp.ratlinalg, "_KERNEL_PRIMES", (2**61 - 1,))
        assert _kernel_prime(0) == 2**61 - 1
        with pytest.raises(LiftExhausted):
            _kernel_prime(1)
        # entries past one prime's reconstruction bound need a second prime
        with pytest.raises(LiftExhausted):
            center_basis(mixed_by_big_entry())


class TestSpans:
    def test_same_span_under_row_operations(self):
        a = [(1, 0, 1), (0, 1, 1)]
        b = [(1, 1, 2), (1, -1, 0)]
        assert same_span(a, b, 3)
        assert not same_span(a, [(1, 0, 0)], 3)

    def test_intersection(self):
        a = [(1, 0, 0), (0, 1, 0)]
        b = [(0, 1, 0), (0, 0, 1)]
        meet = span_intersection(a, b, 3)
        assert meet == [(0, 1, 0)]

    def test_in_span(self):
        assert in_span([(1, 1)], (2, 2), 2)
        assert not in_span([(1, 1)], (1, 2), 2)

    def test_row_space_basis_canonical(self):
        basis = row_space_basis([(2, 4), (1, 2), (3, 6)], 2)
        assert basis == [(1, 2)]


class TestPrimitiveRescale:
    def test_rescaling_is_positive_and_integral(self):
        m = mat([[Fraction(1, 2), Fraction(-3, 4)], [2, 0]])
        assert _primitive_int_row(vec(m)) == [2, -3, 8, 0]

    def test_eigenvector_structure_preserved(self):
        m = mat([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
        assert _primitive_int_row(vec(m)) == [3, 0, 0, 2]
