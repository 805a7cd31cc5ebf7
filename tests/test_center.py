"""Center algebra computation, the Jordan product, and membership oracles."""

import itertools
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.rings import ring

import polydecomp
import polydecomp.center
import polydecomp.ratlinalg
from algebra_helpers import (
    center_contains,
    dense_equation_rows,
    hessian,
    hessian_coefficient_matrices,
    intersect_centers,
    jordan_product,
    kernel_basis,
    members_by_matrix,
    rat_matrix,
    same_span,
    sympy_matrix,
    sympy_polynomial,
)
from conftest import (
    BIN_CUBIC_CENTER_FAMILY,
    FOURVAR_CENTER_FAMILY,
    QUARTIC_SQUARES_CENTER_FAMILY,
    bench_workloads,
    mat,
    mixed_by_big_entry,
    planted_suite,
)
from polydecomp import (
    DimensionMismatch,
    EmptyInput,
    InternalInvariantViolation,
    Polynomial,
    RatMatrix,
    center_basis,
    membership_check,
    parse_polynomial,
    substitute_linear,
)
from polydecomp.center import (
    _all_members,
    _coefficient_matrices,
    _equation_rows,
    _pencil_combinations,
)
from polydecomp.ratlinalg import _primitive_int_row, _SparseSystem, invert, vec


def spans_family(center, family) -> bool:
    width = center.n * center.n
    return same_span(
        [vec(b) for b in center.basis], [vec(mat(rows)) for rows in family], width
    )


class TestCenterBasis:
    def test_quartic_plus_squares(self, quartic_squares):
        center = center_basis([quartic_squares])
        assert center.dim == 4
        assert spans_family(center, QUARTIC_SQUARES_CENTER_FAMILY)

    def test_binary_cubic_pair(self, bin_cubics):
        center = center_basis(bin_cubics)
        assert center.dim == 2
        assert spans_family(center, BIN_CUBIC_CENTER_FAMILY)

    def test_circle_quadratic_center_is_all_symmetric(self):
        center = center_basis([parse_polynomial("x^2 + y^2", ["x", "y"])])
        assert center.dim == 3
        family = ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]])
        assert spans_family(center, family)

    def test_fourvar_pair(self, fourvar_pair):
        center = center_basis(fourvar_pair)
        assert center.dim == 3
        assert spans_family(center, FOURVAR_CENTER_FAMILY)

    def test_trio_joint_center_is_scalar(self, trio):
        center = center_basis(trio)
        assert center.dim == 1
        assert same_span(
            [vec(center.basis[0])], [vec(RatMatrix.identity(3))], 9
        )

    def test_trio_individual_dims(self, trio):
        assert [center_basis([f]).dim for f in trio] == [2, 3, 5]

    def test_affine_inputs_contribute_nothing(self):
        center = center_basis([parse_polynomial("x - 2*y + 7", ["x", "y"])])
        assert center.dim == 4  # every 2x2 matrix

    def test_identity_always_in_span(self, bin_cubics, trio, quartic_squares):
        for polys in (bin_cubics, trio, [quartic_squares]):
            center = center_basis(polys)
            assert center_contains(center, RatMatrix.identity(center.n))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            center_basis([])

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            center_basis([Polynomial(2), Polynomial(3)])

    def test_basis_elements_pass_membership(self, bin_cubics, fourvar_pair):
        for polys in (bin_cubics, fourvar_pair):
            center = center_basis(polys)
            for b in center.basis:
                assert membership_check(b, polys)

    def test_deterministic(self, bin_cubics):
        a = center_basis(bin_cubics)
        b = center_basis(bin_cubics)
        assert a.basis == b.basis


class TestJordanProduct:
    def test_identity_is_unit(self):
        x = mat([[1, 2], [3, 4]])
        assert jordan_product(x, RatMatrix.identity(2)) == x

    def test_square(self):
        x = mat([[1, 2], [3, 4]])
        assert jordan_product(x, x) == x * x

    def test_orthogonal_idempotent_pair(self):
        e1 = mat([[Fraction(1, 4), Fraction(1, 4)], [Fraction(3, 4), Fraction(3, 4)]])
        e2 = mat([[Fraction(3, 4), Fraction(-1, 4)], [Fraction(-3, 4), Fraction(1, 4)]])
        assert jordan_product(e1, e2) == RatMatrix(2, 2, [0] * 4)

    def test_closure_within_computed_centers(self, bin_cubics, quartic_squares, fourvar_pair):
        for polys in (bin_cubics, [quartic_squares], fourvar_pair):
            center = center_basis(polys)
            for x in center.basis:
                for y in center.basis:
                    assert membership_check(jordan_product(x, y), polys)


class TestMembership:
    def test_identity_member(self, bin_cubics):
        assert membership_check(RatMatrix.identity(2), bin_cubics)

    def test_strict_upper_nilpotent_rejected(self, bin_cubics):
        assert not membership_check(mat([[0, 1], [0, 0]]), bin_cubics)

    def test_dimension_mismatch(self, bin_cubics):
        with pytest.raises(DimensionMismatch):
            membership_check(RatMatrix.identity(3), bin_cubics)


def symbolic_member(x, polys) -> bool:
    """Every hessian(p) * x symmetric, multiplied out in sympy's polynomial
    ring."""
    n = x.rows
    r = ring([f"x{i}" for i in range(n)], QQ)[0]
    entries = [[QQ(v.numerator, v.denominator) for v in x.row(k)] for k in range(n)]
    for p in polys:
        h = [[sympy_polynomial(g, r) for g in row] for row in hessian(p)]
        product = [
            [sum((h[i][k] * entries[k][c] for k in range(n)), r.zero) for c in range(n)]
            for i in range(n)
        ]
        if any(product[i][c] != product[c][i] for i in range(n) for c in range(i + 1, n)):
            return False
    return True


def random_rational_poly(rng, n, degree) -> Polynomial:
    """Random terms of every degree up to ``degree``, rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        mono = [0] * n
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    return Polynomial(n, terms)


def random_rational_matrix(rng, n) -> RatMatrix:
    return RatMatrix(n, n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n * n)])


class TestMembershipMatchesDefinition:
    """membership_check against the symbolic product of the Hessian with X."""

    def test_members_products_and_perturbations(self):
        rng = random.Random(53)
        outcomes = {True: 0, False: 0}
        for _ in range(40):
            n = rng.randint(1, 4)
            polys = [
                random_rational_poly(rng, n, rng.randint(0, 5))
                for _ in range(rng.randint(1, 2))
            ]
            basis = center_basis(polys).basis
            candidates = list(basis)
            candidates += [jordan_product(x, y) for x in basis for y in basis]
            candidates += [
                rat_matrix(sympy_matrix(b) + sympy_matrix(random_rational_matrix(rng, n)))
                for b in basis
            ]
            for x in candidates:
                expected = symbolic_member(x, polys)
                assert membership_check(x, polys) == expected
                outcomes[expected] += 1
            for x in basis:
                assert membership_check(x, polys)
        assert outcomes[True] and outcomes[False]

    def test_degree_at_most_one_accepts_everything(self):
        rng = random.Random(59)
        for _ in range(20):
            n = rng.randint(1, 4)
            polys = [random_rational_poly(rng, n, rng.randint(0, 1)) for _ in range(2)]
            x = random_rational_matrix(rng, n)
            assert symbolic_member(x, polys)
            assert membership_check(x, polys)


def integer_form(x: RatMatrix) -> RatMatrix:
    """The primitive integer multiple of x, the form the packed product uses."""
    return RatMatrix(x.rows, x.cols, _primitive_int_row(vec(x)))


def unit_changes(x: RatMatrix) -> list:
    """x with one entry moved by +1 or -1, for every entry and both signs."""
    entries = list(vec(x))
    changed = []
    for i in range(len(entries)):
        for step in (1, -1):
            moved = entries.copy()
            moved[i] += step
            changed.append(RatMatrix(x.rows, x.cols, moved))
    return changed


WIDE = 1 << 200

packed_coefficients = st.one_of(
    st.integers(-9, 9),
    st.integers(-WIDE, WIDE),
    st.sampled_from([WIDE - 1, 1 - WIDE, WIDE >> 1]),
)


@st.composite
def membership_cases(draw):
    """A polynomial with small or 200-bit coefficients of either sign, and
    integer matrices: its center basis, each with every unit change, and
    matrices whose entries reach a field width of up to 200 bits."""
    n = draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        mono = [0] * n
        for _ in range(draw(st.integers(0, 4))):
            mono[draw(st.integers(0, n - 1))] += 1
        terms[tuple(mono)] = draw(packed_coefficients)
    polys = [Polynomial(n, terms)]
    xs = [integer_form(b) for b in center_basis(polys).basis]
    xs += [y for x in xs for y in unit_changes(x)]
    bits = draw(st.integers(1, 200))
    edge = st.sampled_from([0, 1, -1, (1 << bits) - 1, 1 - (1 << bits)])
    entries = st.one_of(edge, st.integers(1 - (1 << bits), (1 << bits) - 1))
    for _ in range(draw(st.integers(0, 3))):
        xs.append(RatMatrix(n, n, draw(st.lists(entries, min_size=n * n, max_size=n * n))))
    return polys, xs


def spread(entries, n: int) -> list[list]:
    """The dense symmetric matrix of a coefficient matrix's upper-triangle
    entries (r, l, value)."""
    s = [[0] * n for _ in range(n)]
    for r, l, v in entries:
        s[r][l] = s[l][r] = v
    return s


class TestPackedMembership:
    """The one packed product of ``_all_members`` against one product per
    coefficient matrix."""

    @settings(max_examples=60, deadline=None)
    @given(membership_cases())
    def test_matches_one_product_per_matrix(self, case):
        polys, xs = case
        mats, dense = _coefficient_matrices(polys), hessian_coefficient_matrices(polys)
        for x in xs:
            assert _all_members([vec(x)], polys, mats) == members_by_matrix([x], dense)
        assert _all_members(list(map(vec, xs)), polys) == members_by_matrix(xs, dense)

    def test_unit_changes_are_rejected(self):
        # two sums of cubes of u, v, w, linear forms with 200-bit coefficients
        # in x, y, z: the center is spanned by three matrices whose integer
        # forms have entries of up to 602 bits, and no matrix unit is in it
        big = WIDE + 3
        q = mat([[1, big, 0], [1, -big, 1], [0, 1, big]])
        names = ["u", "v", "w"]
        sums = [
            substitute_linear(parse_polynomial(text, names), q)
            for text in ("u^3 + 7*v^3 + w^3", "u^3 - v^3 + 2*w^3")
        ]
        mats = hessian_coefficient_matrices(sums)
        basis = center_basis(sums).basis
        assert len(basis) == 3
        for b in basis:
            x = integer_form(b)
            assert membership_check(x, sums)
            for y in unit_changes(x):
                assert not members_by_matrix([y], mats)
                assert not membership_check(y, sums)

    def test_digits_never_cancel(self):
        # Each case makes entries (0, 1) and (1, 0) differ by d_0 = 2^s in
        # S_0 * x and by d_1 = -1 in S_1 * x, so a packing base of 2^s would
        # cancel them; the base the bounds give is wider than every such s.
        polys = [parse_polynomial("x*y", ["x", "y"])]
        cases = []
        for s in (0, 1, 3, 8, 64, 200):
            # d_0 = 2^s * x01, d_1 = -x01: the row sum's bits are needed
            cases.append(([[(0, 0, 1 << s)], [(0, 0, -1)]], mat([[0, 1], [0, 0]])))
            # d_0 = x01 = 2^s, d_1 = -x10: the entries' bits are needed
            cases.append(([[(0, 0, 1)], [(1, 1, 1)]], mat([[0, 1 << s], [1, 0]])))
        for b in (3, 8, 64, 200):
            # |d_0| = 2^(b+2) reaches its bound 2 * 3 * (2^b - 1) to within
            # a factor 2 while d_1 = -1: both guard bits are needed
            top = (1 << b) - 1
            cases.append(
                ([[(0, 0, 1), (0, 1, 2), (1, 1, 1)], [(0, 0, 1)]], mat([[-top, -1], [-5, top]]))
            )
        for mats, x in cases:
            assert not members_by_matrix([x], [spread(s, 2) for s in mats])
            assert not _all_members([vec(x)], polys, mats)
            assert _all_members([vec(RatMatrix.identity(2))], polys, mats)

    def test_degree_at_most_one_has_no_matrix(self):
        polys = [parse_polynomial("3*x - 7*y + 2", ["x", "y"]), Polynomial(2)]
        assert _coefficient_matrices(polys) == []
        assert _all_members([(1, WIDE, -5, 0), (0, 0, 0, 0)], polys)


class TestIntersect:
    def test_single_group_unchanged(self, bin_cubics):
        direct = center_basis(bin_cubics)
        via = intersect_centers([bin_cubics])
        assert same_span(
            [vec(b) for b in direct.basis], [vec(b) for b in via.basis], 4
        )

    def test_trio_intersection_is_scalar(self, trio):
        meet = intersect_centers([[f] for f in trio])
        assert meet.dim == 1

    def test_identical_groups(self, trio):
        one = intersect_centers([[trio[0]]])
        twice = intersect_centers([[trio[0]], [trio[0]]])
        assert same_span(
            [vec(b) for b in one.basis], [vec(b) for b in twice.basis], 9
        )

    def test_matches_concatenated_center(self, trio):
        meet = intersect_centers([[f] for f in trio])
        joint = center_basis(trio)
        assert same_span(
            [vec(b) for b in meet.basis], [vec(b) for b in joint.basis], 9
        )


class TestConjugationCovariance:
    def test_center_conjugates_with_substitution(self, bin_cubics):
        rng = random.Random(41)
        n = 2
        base = center_basis(bin_cubics)
        for _ in range(5):
            while True:
                p = RatMatrix(n, n, [rng.randint(-3, 3) for _ in range(n * n)])
                try:
                    p_inv = invert(p)
                    break
                except Exception:
                    continue
            moved = center_basis([substitute_linear(f, p) for f in bin_cubics])
            conjugated = [p_inv * x * p for x in base.basis]
            assert same_span(
                [vec(b) for b in moved.basis],
                [vec(c) for c in conjugated],
                n * n,
            )


class TestGenericTriviality:
    def test_dense_random_cubics_have_scalar_center(self):
        # dense degree-3 polynomials in 3 variables, every coefficient nonzero
        import itertools

        monos = [
            m
            for total in range(0, 4)
            for m in itertools.combinations_with_replacement(range(3), total)
        ]
        for trial in range(5):
            rng = random.Random(f"cubic:{trial}")
            terms = {}
            for combo in monos:
                mono = [0, 0, 0]
                for i in combo:
                    mono[i] += 1
                c = 0
                while c == 0:
                    c = rng.randint(-20, 20)
                terms[tuple(mono)] = c
            f = Polynomial(3, terms)
            assert center_basis([f]).dim == 1


def check_equation_rows(polys) -> None:
    """The sparse rows against the dense reference, their invariants, and
    the center basis against the kernel of the dense system."""
    n = polys[0].n
    # the rows come pair by pair, (r, c) ascending, and those of a pair touch
    # only columns r and c of X
    pairs = [{r, c} for r in range(n) for c in range(r + 1, n)]
    at = 0
    dense = []
    for row in _equation_rows(_coefficient_matrices(polys), n):
        touched = {j % n for j, _ in row}
        while at < len(pairs) and not touched <= pairs[at]:
            at += 1
        assert at < len(pairs)
        columns = [c for c, _ in row]
        assert row and columns == sorted(set(columns)) and columns[-1] < n * n
        assert all(v for _, v in row) and row[0][1] > 0
        assert gcd(*(v for _, v in row)) == 1
        full = [0] * (n * n)
        for c, v in row:
            full[c] = v
        dense.append(tuple(full))
    reference = dense_equation_rows(polys, n)
    assert len(set(dense)) == len(dense)
    assert set(dense) == set(reference)
    assert center_basis(polys).basis == oracle_basis(polys)


def oracle_basis(polys) -> tuple:
    """The canonical basis from sympy's kernel of the dense equation rows."""
    n = polys[0].n
    rows = dense_equation_rows(polys, n) or [[0] * (n * n)]
    return tuple(RatMatrix(n, n, v) for v in kernel_basis(rows, n * n))


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def polynomial_sets(draw):
    """One to three polynomials in n <= 4 variables, every degree up to 5,
    rational or integer coefficients."""
    n = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 5))
    monomial = st.tuples(*[st.integers(0, degree)] * n).filter(
        lambda mono: sum(mono) <= degree
    )
    coeff = small_rationals if draw(st.booleans()) else st.integers(-9, 9)
    count = draw(st.integers(1, 3))
    return [
        Polynomial(n, draw(st.dictionaries(monomial, coeff, max_size=8)))
        for _ in range(count)
    ]


class TestEquationRows:
    """The sparse rows the center solve eliminates, against the dense reference."""

    def test_goldens(self, bin_cubics, quartic_squares, fourvar_pair, trio):
        for polys in (bin_cubics, [quartic_squares], fourvar_pair, trio):
            check_equation_rows(polys)
        for f in trio:
            check_equation_rows([f])

    def test_planted_suite(self):
        for _, instance in planted_suite():
            check_equation_rows(list(instance.fs))

    @settings(max_examples=150, deadline=None)
    @given(polynomial_sets())
    def test_random_rational_sets(self, polys):
        check_equation_rows(polys)

    def test_center_path_builds_no_dense_rows(
        self, bin_cubics, trio, fourvar_pair, monkeypatch
    ):
        # the rows go to the elimination as built, sparse, in order: the
        # first system reads every row, later ones only rows it read
        read = []

        class Recording(_SparseSystem):
            __slots__ = ()

            def __iter__(self):
                for row in super().__iter__():
                    read.append(row)
                    yield row

        monkeypatch.setattr(polydecomp.center, "_pencil_basis", lambda mats, polys, n: None)
        monkeypatch.setattr(polydecomp.center, "_SparseSystem", Recording)
        for polys in (bin_cubics, trio, fourvar_pair):
            read.clear()
            rows = list(_equation_rows(_coefficient_matrices(polys), polys[0].n))
            assert center_basis(polys).basis == oracle_basis(polys)
            assert read[: len(rows)] == rows and set(read) <= set(rows)


def separate_sums(mats, n: int, rng) -> list:
    """sum_m a_m S_m, sum_m b_m S_m and sum_m c_m S_m, one at a time, for
    weights drawn a, b, c per S_m in the order of ``mats``."""
    weights = [[rng.getrandbits(61) for _ in range(3)] for _ in mats]
    sums = []
    for j in range(3):
        total = [[0] * n for _ in range(n)]
        for w, entries in zip(weights, mats):
            for r, row in enumerate(spread(entries, n)):
                for c, v in enumerate(row):
                    total[r][c] += w[j] * v
        sums.append(total)
    return sums


class Fixed:
    """A stand-in for the weight generator that repeats ``values``."""

    def __init__(self, values):
        self.values = itertools.cycle(values)

    def getrandbits(self, k):
        return next(self.values)


def primitive(s) -> tuple:
    """A dense matrix over the gcd of its entries, its first nonzero positive."""
    flat = [v for row in s for v in row]
    g = gcd(*flat)
    return tuple(v // (g if next(v for v in flat if v) > 0 else -g) for v in flat)


def check_combinations(polys) -> None:
    """The coefficient matrices as upper-triangle entries, the same up to
    scale as sympy's; the packed M1, M2, M3 against the three separate
    sums, and the weights drawn in the same order: the start vector's draws
    follow."""
    n = polys[0].n
    mats = _coefficient_matrices(polys)
    for entries in mats:
        assert all(r <= l < n and v for r, l, v in entries)
        assert len({(r, l) for r, l, _ in entries}) == len(entries)
    assert sorted(primitive(spread(s, n)) for s in mats) == sorted(
        map(primitive, hessian_coefficient_matrices(polys))
    )
    drawn, again = random.Random(0), random.Random(0)
    assert _pencil_combinations(mats, n, drawn) == separate_sums(mats, n, again)
    assert drawn.getstate() == again.getstate()


class TestPencilCombinations:
    """The pencil's three combinations, summed in one packed pass."""

    def test_goldens(self, bin_cubics, quartic_squares, fourvar_pair, trio):
        for polys in (bin_cubics, [quartic_squares], fourvar_pair, trio):
            check_combinations(polys)

    def test_planted_suite(self):
        for _, instance in planted_suite():
            check_combinations(list(instance.fs))

    @settings(max_examples=150, deadline=None)
    @given(polynomial_sets())
    def test_random_rational_sets(self, polys):
        check_combinations(polys)

    def test_rational_and_negative_coefficients(self):
        polys = [parse_polynomial("-3/4*x^3 + 5/6*x*y^2 - 7*y*z^2 - 1/9*z^4", "xyz")]
        assert any(v < 0 for s in _coefficient_matrices(polys) for _, _, v in s)
        check_combinations(polys)

    def test_degree_at_most_one_has_zero_combinations(self):
        polys = [parse_polynomial("3*x - 7*y + 2", ["x", "y"]), Polynomial(2)]
        zero = [[0, 0], [0, 0]]
        assert _pencil_combinations([], 2, random.Random(0)) == [zero] * 3
        check_combinations(polys)

    @pytest.mark.parametrize("bits, count", [(1, 1), (5, 3), (64, 7), (200, 31)])
    def test_digits_next_to_the_packing_bound(self, bits, count):
        # every weight 2^61 - 1 or 0, every entry +-(2^bits - 1) and count
        # one less than a power of two, so the sums reach
        # (2^61 - 1) * count * (2^bits - 1), just below the digits' bound
        # 2^(K-1) = 2^61 * (count + 1) * 2^bits, with either sign and with a
        # zero digit between two full ones
        top = (1 << bits) - 1
        mats = [[(0, 0, top), (0, 1, -top), (1, 1, -top)] for _ in range(count)]
        for weights in ([(1 << 61) - 1], [(1 << 61) - 1, 0, (1 << 61) - 1], [0, (1 << 61) - 1]):
            combos = _pencil_combinations(mats, 2, Fixed(weights))
            assert combos == separate_sums(mats, 2, Fixed(weights))
            assert min(x for m in combos for row in m for x in row) <= -((1 << 61) - 1) * top


def solve_recording(polys, monkeypatch):
    """center_basis(polys), the number of rows each elimination of equation
    rows read, in order (none when the pencil certified the center), and
    the number of primes the solve drew."""
    reads, primes = [], set()
    nullspace, prime = polydecomp.center.nullspace_basis, polydecomp.center._kernel_prime

    def solving(system, p):
        result = nullspace(system, p)
        reads.append(system.rows)
        return result

    def drawing(i):
        primes.add(i)
        return prime(i)

    monkeypatch.setattr(polydecomp.center, "nullspace_basis", solving)
    monkeypatch.setattr(polydecomp.center, "_kernel_prime", drawing)
    center = center_basis(polys)
    monkeypatch.undo()
    return center, reads, len(primes)


def equation_count(polys) -> int:
    return sum(1 for _ in _equation_rows(_coefficient_matrices(polys), polys[0].n))


class TestScalarShortPath:
    # A cyclic pencil whose one member is the identity certifies a scalar
    # center: no equation row is built and ``nullspace_basis`` is never
    # called.

    def check_scalar(self, polys, monkeypatch) -> None:
        n = polys[0].n
        center, reads, primes = solve_recording(polys, monkeypatch)
        assert center.basis == (RatMatrix.identity(n),) == oracle_basis(polys)
        assert reads == [] and primes == 1

    def test_scalar_golden_reads_fewer_rows(self, trio, monkeypatch):
        self.check_scalar(trio, monkeypatch)
        assert equation_count(trio) > 0

    def test_planted_indecomposable_blocks(self, monkeypatch):
        scalar = [list(i.fs) for _, i in planted_suite() if len(i.planted_blocks) == 1]
        assert scalar
        for polys in scalar:
            self.check_scalar(polys, monkeypatch)

    def test_one_variable(self, monkeypatch):
        # n = 1: the pencil's one member is the identity, with no solve
        for text in ("x^3", "2*x^2 - x + 5", "x^4 + x^3"):
            self.check_scalar([parse_polynomial(text, ["x"])], monkeypatch)

    @pytest.mark.parametrize("golden", ["fourvar_pair", "bin_cubics"])
    def test_non_scalar_center_reads_every_row(self, golden, request, monkeypatch):
        # without a pencil the elimination has no early exit: it reads
        # every row, and one prime lifts the basis the pencil certifies
        polys = request.getfixturevalue(golden)
        certified = center_basis(polys)
        monkeypatch.setattr(polydecomp.center, "_pencil_basis", lambda mats, polys, n: None)
        center, reads, _ = solve_recording(polys, monkeypatch)
        assert center.dim > 1 and center.basis == certified.basis == oracle_basis(polys)
        assert reads == [equation_count(polys)]

    def test_asymmetric_coefficient_matrix_is_caught(self, trio, monkeypatch):
        # the identity lies in the center only because every S is symmetric;
        # an asymmetric S must stop the solve, not certify a scalar center: it
        # is an entry below the diagonal, which no upper triangle holds
        mats = polydecomp.center._coefficient_matrices(trio)
        for tampered in ([(1, 0, 2)], mats[0] + [(2, 1, -3)]):
            monkeypatch.setattr(
                polydecomp.center, "_coefficient_matrices", lambda polys: [tampered] + mats[1:]
            )
            with pytest.raises(InternalInvariantViolation, match="not symmetric"):
                center_basis(trio)


def planted_three_three():
    """The planted suite's seed-4 instance, blocks {3, 3}."""
    return [list(i.fs) for seed, i in planted_suite() if seed == 4][0]


class TestNonScalarCertificate:
    # Any other center is the free-variable form of the pencil's members,
    # reconstructed over as many primes as its entries need and accepted by
    # the exact membership test.

    def test_planted_centers_build_no_row(self, monkeypatch):
        # no instance of the planted suite reaches the fallback
        wide = 0
        for _, instance in planted_suite():
            polys = list(instance.fs)
            center, reads, _ = solve_recording(polys, monkeypatch)
            assert center.basis == oracle_basis(polys) and reads == []
            wide += center.dim > 1
        assert wide

    def test_certified_center_reads_fewer_rows(self, bin_cubics, fourvar_pair, monkeypatch):
        built = []
        rows = polydecomp.center._equation_rows

        def counting(mats, n):
            built.append(1)
            return rows(mats, n)

        for polys in (planted_three_three(), bin_cubics, fourvar_pair):
            monkeypatch.setattr(polydecomp.center, "_equation_rows", counting)
            center = center_basis(polys)
            monkeypatch.undo()
            assert center.dim > 1 and center.basis == oracle_basis(polys)
            assert built == [] and equation_count(polys) > 0

    def test_rejected_candidate_gives_the_same_basis(self, monkeypatch):
        polys = planted_three_three()
        center, _, primes = solve_recording(polys, monkeypatch)
        all_members = polydecomp.center._all_members
        tested = []

        def rejecting_first(xs, polys, mats):
            tested.append(len(xs))
            return len(tested) > 1 and all_members(xs, polys, mats)

        monkeypatch.setattr(polydecomp.center, "_all_members", rejecting_first)
        again, reads, primes_again = solve_recording(polys, monkeypatch)
        # the rejection costs one more prime, whose candidate passes
        assert len(tested) == 2 and again.basis == center.basis
        assert reads == [] and primes_again == primes + 1

    def test_repeated_rejection_falls_back(self, monkeypatch):
        # a pencil candidate rejected a second time is given up for the
        # equation rows, whose candidate the same test accepts
        polys = planted_three_three()
        expected = oracle_basis(polys)
        all_members = polydecomp.center._all_members
        tested = []

        def rejecting_twice(xs, polys, mats):
            tested.append(len(xs))
            return len(tested) > 2 and all_members(xs, polys, mats)

        monkeypatch.setattr(polydecomp.center, "_all_members", rejecting_twice)
        center, reads, primes = solve_recording(polys, monkeypatch)
        assert center.basis == expected and len(tested) == 3
        assert reads == [equation_count(polys)] and primes == 2

    def test_identity_spares_one_vector(self, monkeypatch):
        # the diagonal free columns' vectors sum to vec(I), so the last of
        # them is I minus the others and only dim - 1 vectors are tested
        polys = planted_three_three()
        all_members = polydecomp.center._all_members
        tested = []

        def recording(xs, polys, mats):
            tested.append(list(xs))
            return all_members(xs, polys, mats)

        monkeypatch.setattr(polydecomp.center, "_all_members", recording)
        center, _, _ = solve_recording(polys, monkeypatch)
        assert len(tested) == 1 and len(tested[0]) == center.dim - 1
        assert all(tuple(x) in center.vectors() for x in tested[0])
        n = polys[0].n
        spanned = [tuple(x) for x in tested[0]] + [vec(RatMatrix.identity(n))]
        assert same_span(spanned, center.vectors(), n * n)

    def test_every_vector_tested_unless_the_identity_is_their_sum(self, monkeypatch):
        # E11 + E22 is the identity, so E22 is spared; E11 and 5*E11 + E22
        # sum to another matrix, so both are tested
        tested = []
        monkeypatch.setattr(
            polydecomp.center, "_all_members", lambda xs, polys, mats: tested.append(xs)
        )
        spared = [(1, 0, 0, 0), (0, 0, 0, 1)]
        polydecomp.center._accepts(spared, [], [], 2)
        kept = [(1, 0, 0, 0), (5, 0, 0, 1)]
        polydecomp.center._accepts(kept, [], [], 2)
        assert [[tuple(x) for x in xs] for xs in tested] == [spared[:1], kept]

    def test_center_needing_crt_uses_several_primes(self, monkeypatch):
        polys = mixed_by_big_entry()
        center, reads, primes = solve_recording(polys, monkeypatch)
        assert center.basis == oracle_basis(polys)
        assert center.dim > 1 and reads == [] and primes >= 2
        big = max(abs(Fraction(x).numerator) for b in center.basis for x in vec(b))
        assert big >= 2**40 + 1

    def test_center_needing_crt_reads_every_row(self, monkeypatch):
        # the equation rows, which the pencil spares, lift the same basis
        # through the same CRT loop: the first prime reads every row, each
        # further prime only the n^2 - dim rows that raised the rank
        polys = mixed_by_big_entry()
        certified = center_basis(polys)
        monkeypatch.setattr(polydecomp.center, "_pencil_basis", lambda mats, polys, n: None)
        center, reads, primes = solve_recording(polys, monkeypatch)
        assert center.basis == certified.basis == oracle_basis(polys)
        pivot_rows = polys[0].n ** 2 - center.dim
        assert reads == [equation_count(polys)] + [pivot_rows] * (primes - 1)
        assert primes >= 2

    def test_coefficient_matrices_built_once(self, trio, fourvar_pair, monkeypatch):
        build = polydecomp.center._coefficient_matrices
        calls = []

        def counting(polys):
            calls.append(1)
            return build(polys)

        monkeypatch.setattr(polydecomp.center, "_coefficient_matrices", counting)
        for polys in (trio, fourvar_pair, planted_three_three()):
            calls.clear()
            center_basis(polys)
            assert calls == [1]


class TestFullSolve:
    # No cyclic pencil, or members that would cost more than the rows: the
    # solve falls back to the kernel of every row.

    @pytest.mark.parametrize(
        "text, names, dim",
        [
            # a constant Hessian: C is a scalar, so the pencil is derogatory
            ("x^2 + 2*y^2 + 3*z^2 + x*y", "xyz", 6),
            # z appears in no Hessian: every combination is singular
            ("x^3 + y^3", "xyz", 5),
            ("x - 2*y + 7", "xy", 4),
            # cyclic, but its one-entry coefficient matrices make rows so
            # sparse that reading them beats building r = n members
            ("x^3 + y^3 + z^3 + w^3 + v^3", "xyzwv", 5),
        ],
    )
    def test_falls_back_to_every_row(self, text, names, dim, monkeypatch):
        polys = [parse_polynomial(text, list(names))]
        center, reads, _ = solve_recording(polys, monkeypatch)
        assert center.dim == dim and center.basis == oracle_basis(polys)
        assert reads == [equation_count(polys)]


def first_prime(q, monkeypatch) -> None:
    """Make the prime q the first the center draws, the usual ones next."""
    prime = polydecomp.center._kernel_prime
    monkeypatch.setattr(polydecomp.center, "_kernel_prime", lambda i: prime(i - 1) if i else q)


class TestLiftRetries:
    # Both sources run through one lift: an unlucky prime costs a retry,
    # never a different basis, and no candidate skips the membership test.

    def test_rows_survive_a_prime_that_drops_their_rank(self, monkeypatch):
        polys = mixed_by_big_entry()
        n = polys[0].n
        rows = _equation_rows(_coefficient_matrices(polys), n)
        # modulo 5 the rows have rank n^2 - 3: a third kernel vector
        kernel, _ = polydecomp.center.nullspace_basis(_SparseSystem(n * n, rows), 5)
        assert len(kernel) == 3
        monkeypatch.setattr(polydecomp.center, "_pencil_basis", lambda mats, polys, n: None)
        first_prime(5, monkeypatch)
        center, reads, _ = solve_recording(polys, monkeypatch)
        assert center.dim == 2 and center.basis == oracle_basis(polys)
        # the pivot rows modulo 5 lift a space the membership test rejects,
        # and the rows start again, all of them, at a later prime
        count = equation_count(polys)
        assert reads[0] == count and reads.count(count) >= 2
        assert reads[1] == n * n - 3

    def test_pencil_free_columns_moving_between_primes(self, monkeypatch):
        # modulo 43 the pencil of this input has a third member, so its free
        # columns move at the next prime and the rows take over
        polys = mixed_by_big_entry()
        members = polydecomp.center._pencil_members
        sizes = []

        def recording(combos, start, n, p, budget):
            found = members(combos, start, n, p, budget)
            sizes.append(len(found))
            return found

        monkeypatch.setattr(polydecomp.center, "_pencil_members", recording)
        first_prime(43, monkeypatch)
        center, reads, _ = solve_recording(polys, monkeypatch)
        assert sizes == [3, 2]
        assert center.basis == oracle_basis(polys) and reads[0] == equation_count(polys)

    @pytest.mark.parametrize("source", ["pencil", "rows"])
    def test_failing_candidate_is_never_returned(self, source, monkeypatch):
        # the first reconstruction is spoiled in one entry: the membership
        # test rejects it and a later prime's candidate is returned
        polys = planted_three_three()
        expected = oracle_basis(polys)
        reconstruct = polydecomp.center._reconstruct
        all_members = polydecomp.center._all_members
        verdicts = []

        def spoiling(residues, modulus):
            candidate = reconstruct(residues, modulus)
            if candidate is not None and not verdicts:
                f = next(f for f in candidate if candidate[f])
                j = next(iter(candidate[f]))
                candidate[f][j] += 1
            return candidate

        def judging(xs, polys, mats):
            verdicts.append(all_members(xs, polys, mats))
            return verdicts[-1]

        if source == "rows":
            monkeypatch.setattr(polydecomp.center, "_pencil_basis", lambda mats, polys, n: None)
        monkeypatch.setattr(polydecomp.center, "_reconstruct", spoiling)
        monkeypatch.setattr(polydecomp.center, "_all_members", judging)
        center, reads, primes = solve_recording(polys, monkeypatch)
        assert verdicts == [False, True] and primes == 2
        assert center.basis == expected
        assert (reads == []) == (source == "pencil")


HOSTILE_CUBIC = f"x^3 + {10**3999 + 7}*x*y^2"  # a binary cubic, one 4 000-digit coefficient


class TestMersenneLift:
    # The lift's primes are Mersenne primes of growing size, so its modulus
    # grows about geometrically and a wide entry takes few rounds.

    def test_eight_singletons_take_two_primes(self, monkeypatch):
        # the bench's eight-singleton shape: a center of dimension 8 whose
        # entries need more than one 61-bit prime (three such primes before)
        problem = bench_workloads().make_problem("many_blocks", 1, 0)
        polys = [parse_polynomial(text, problem.var_names) for text in problem.sources]
        center, reads, primes = solve_recording(polys, monkeypatch)
        assert len(problem.var_names) == center.dim == 8
        assert center.basis == oracle_basis(polys)
        assert reads == [] and primes == 2

    def test_hostile_binary_cubic_within_two_seconds(self):
        # 436 rounds of 61-bit primes before, 11 Mersenne primes now.  The
        # solve runs in a subprocess whose own CPU rlimit stops it should it
        # run away; the time is its own CPU time for the center alone.
        script = (
            "import sys, time\n"
            "from polydecomp import center_basis, parse_polynomial\n"
            "f = parse_polynomial(sys.argv[1], ['x', 'y'])\n"
            "start = time.process_time()\n"
            "center = center_basis([f])\n"
            "print(center.dim, time.process_time() - start)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(polydecomp.__file__)))

        def limit_cpu():
            resource.setrlimit(resource.RLIMIT_CPU, (20, 20))

        proc = subprocess.run(
            [sys.executable, "-c", script, HOSTILE_CUBIC],
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=limit_cpu,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        dim, seconds = proc.stdout.split()
        assert dim == "2" and float(seconds) <= 2.0

    def test_hostile_binary_cubic_lifts_in_eleven_rounds(self, monkeypatch):
        f = parse_polynomial(HOSTILE_CUBIC, ["x", "y"])
        center, _, primes = solve_recording([f], monkeypatch)
        assert center.dim == 2 and primes == 11
        assert all(membership_check(x, [f]) for x in center.basis)
