"""Idempotent extraction: spectral splitting, verification, rank profiles."""

import pytest

from algebra_helpers import in_span, rank_profile
from conftest import BIN_CUBIC_EPS, FOURVAR_EPS, TRIO_3_EPS, mat
from polydecomp import (
    IdempotentSet,
    RatMatrix,
    center_basis,
    find_idempotents,
    verify_complete,
)
from polydecomp.ratlinalg import vec


class TestFindIdempotents:
    def test_scalar_center_returns_identity(self, trio):
        center = center_basis(trio)
        assert center.dim == 1
        idem = find_idempotents(center, seed=42)
        assert len(idem) == 1
        assert idem.eps[0].is_identity()

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
        a = find_idempotents(center, seed=5, max_tries=8)
        b = find_idempotents(center, seed=5, max_tries=8)
        assert a.eps == b.eps

    def test_max_tries_validation(self, bin_cubics):
        with pytest.raises(ValueError):
            find_idempotents(center_basis(bin_cubics), seed=1, max_tries=0)

    def test_quadratic_form_splits_fully(self):
        from polydecomp import parse_polynomial

        f = parse_polynomial("x^2 + 4*x*y + y^2 + 3*y*z + z^2", ["x", "y", "z"])
        center = center_basis([f])
        idem = find_idempotents(center, seed=42)
        assert verify_complete(idem, [f])


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
