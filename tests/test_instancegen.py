"""Planted instance generation and the dense brute-force center oracle."""

import hashlib

import pytest

from algebra_helpers import brute_force_center_dim
from conftest import refines
from polydecomp import (
    center_basis,
    decompose_recursive,
    generate,
    render_canonical,
    verify_decomposition,
)
from polydecomp.ratlinalg import invert

# (n, m, block sizes, max degree) for the pinned sweep over seeds 1-20:
# singleton blocks, one to three polynomials, degrees 3 to 5
PINNED_SHAPES = [
    (2, 2, (1, 1), 3),
    (3, 1, (3,), 4),
    (4, 3, (1, 3), 3),
    (5, 2, (2, 1, 2), 5),
    (6, 3, (1, 1, 2, 2), 4),
    (4, 1, (1, 1, 1, 1), 5),
]
# SHA-256 over the sweep's rendered fs, unmixed and Q rows: a change that
# keeps the generated instances keeps it
PINNED_DIGEST = "171e264f2b0d14bd3fc576107e496bc7f2c0e5201c209ea16d061ec7b66a4fc8"


class TestGenerate:
    def test_deterministic(self):
        a = generate(1, 4, 2, [2, 2], 3)
        b = generate(1, 4, 2, [2, 2], 3)
        assert a.fs == b.fs
        assert a.Q == b.Q

    def test_mixing_matrix_invertible(self):
        for seed in range(5):
            inst = generate(seed, 3, 1, [1, 2], 3)
            invert(inst.Q)  # raises if singular

    def test_unmixed_polys_recombine(self):
        from polydecomp import substitute_linear

        inst = generate(3, 4, 2, [1, 3], 4)
        for f, h in zip(inst.fs, inst.unmixed):
            assert substitute_linear(h, inst.Q) == f

    def test_every_block_variable_used(self):
        inst = generate(5, 5, 2, [2, 3], 3)
        for h in inst.unmixed:
            used = set()
            for mono, _ in h.terms():
                for i, e in enumerate(mono):
                    if e:
                        used.add(i)
            assert used == set(range(5))

    def test_output_is_pinned(self):
        digest = hashlib.sha256()
        for seed in range(1, 21):
            for n, m, blocks, degree in PINNED_SHAPES:
                inst = generate(seed, n, m, blocks, degree)
                names = [f"x{i}" for i in range(n)]
                lines = [render_canonical(p, names) for p in inst.fs + inst.unmixed]
                lines += [" ".join(map(str, inst.Q.row(r))) for r in range(n)]
                digest.update("\n".join(lines).encode() + b"\n")
        assert digest.hexdigest() == PINNED_DIGEST

    def test_invalid_blocks(self):
        with pytest.raises(ValueError):
            generate(0, 4, 1, [2, 3], 3)
        with pytest.raises(ValueError):
            generate(0, 4, 1, [], 3)

    def test_invalid_degree_and_count(self):
        with pytest.raises(ValueError):
            generate(0, 4, 1, [2, 2], 2)
        with pytest.raises(ValueError):
            generate(0, 4, 0, [2, 2], 3)

    def test_planted_blocks_sorted(self):
        inst = generate(2, 4, 1, [3, 1], 3)
        assert inst.planted_blocks == (1, 3)

    def test_two_singleton_blocks(self):
        inst = generate(1, 2, 2, [1, 1], 3)
        result = decompose_recursive(inst.fs, seed=1)
        assert verify_decomposition(inst.fs, result)
        assert refines(result.leaf_block_sizes(), inst.planted_blocks)

    def test_single_block_instance(self):
        inst = generate(11, 3, 1, [3], 3)
        result = decompose_recursive(inst.fs, seed=11)
        assert verify_decomposition(inst.fs, result)
        assert refines(result.leaf_block_sizes(), inst.planted_blocks)

    def test_shape_one_one_two(self):
        inst = generate(7, 4, 2, [1, 1, 2], 3)
        result = decompose_recursive(inst.fs, seed=7)
        assert verify_decomposition(inst.fs, result)
        assert refines(result.leaf_block_sizes(), inst.planted_blocks)


class TestBruteForceOracle:
    def test_known_center_dimensions(self, quartic_squares, bin_cubics, fourvar_pair, trio):
        assert brute_force_center_dim([quartic_squares]) == 4
        assert brute_force_center_dim(bin_cubics) == 2
        assert brute_force_center_dim(fourvar_pair) == 3
        assert brute_force_center_dim(trio) == 1

    def test_agrees_with_center_basis_on_planted(self):
        for seed in range(8):
            inst = generate(seed, 4, 2, [2, 2], 3)
            assert brute_force_center_dim(inst.fs) == center_basis(inst.fs).dim

    def test_scale_guard(self):
        inst = generate(0, 7, 1, [7], 3)
        with pytest.raises(ValueError):
            brute_force_center_dim(inst.fs)

    def test_binary_cubic_system_rank(self, bin_cubics):
        # the dense system on 4 unknowns has rank 2, nullity 2
        assert brute_force_center_dim(bin_cubics) == 2
