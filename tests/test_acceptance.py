"""Acceptance suite: every exit criterion checked at zero tolerance.

Each test records one PASS/FAIL line (shown in the terminal summary).  All
comparisons are exact: rational arithmetic end to end, character-exact
renderings for golden outputs, and exact span equality for center algebras.
Idempotent sets produced while the suite runs are collected and re-checked
against the defining identities at the end.
"""

import functools
import random

from algebra_helpers import (
    brute_force_center_dim,
    jordan_product,
    reconstruction_by_full_expansion,
    same_span,
)
from conftest import (
    BIN_CUBIC_CENTER_FAMILY,
    BIN_CUBIC_EPS,
    BIN_CUBIC_G1,
    BIN_CUBIC_G2,
    BIN_CUBIC_P,
    FOURVAR_G1,
    FOURVAR_G2,
    FOURVAR_P,
    TRIO_1_OUT,
    TRIO_1_P,
    TRIO_2_OUT,
    TRIO_2_P,
    TRIO_3_OUT,
    TRIO_3_P,
    mat,
    planted_suite,
    record_acceptance,
    refines,
)
from polydecomp import (
    IdempotentSet,
    Polynomial,
    RatMatrix,
    center_basis,
    decompose_recursive,
    find_idempotents,
    generate,
    membership_check,
    render_canonical,
    substitute_linear,
    verify_decomposition,
)
from polydecomp.ratlinalg import invert, vec

COLLECTED_IDEMPOTENT_SETS: list[tuple[IdempotentSet, tuple]] = []


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_acceptance(f"FAIL  {label}")
                raise
            record_acceptance(f"PASS  {label}")

        return wrapper

    return decorate


def collect_sets_from_result(result, polys):
    def walk(node):
        if node.idempotents is not None:
            COLLECTED_IDEMPOTENT_SETS.append(
                (IdempotentSet(len(node.variable_indices), node.idempotents), tuple(node.polys))
            )
        for child in node.children:
            walk(child)

    walk(result.tree)


@criterion("binary cubic pair: exact center, unique idempotent pair, exact outputs")
def test_binary_cubic_pair_golden(bin_cubics):
    center = center_basis(bin_cubics)
    assert center.dim == 2
    assert same_span(
        [vec(b) for b in center.basis],
        [vec(mat(rows)) for rows in BIN_CUBIC_CENTER_FAMILY],
        4,
    )
    idem = find_idempotents(center, seed=42)
    COLLECTED_IDEMPOTENT_SETS.append((idem, tuple(bin_cubics)))
    expected = {tuple(vec(mat(rows))) for rows in BIN_CUBIC_EPS}
    assert {tuple(vec(e)) for e in idem.eps} == expected
    p = mat(BIN_CUBIC_P)
    assert render_canonical(substitute_linear(bin_cubics[0], p), ["x1", "x2"]) == BIN_CUBIC_G1
    assert render_canonical(substitute_linear(bin_cubics[1], p), ["x1", "x2"]) == BIN_CUBIC_G2
    result = decompose_recursive(bin_cubics, seed=42)
    collect_sets_from_result(result, bin_cubics)
    assert result.diagonalizable is True
    assert verify_decomposition(bin_cubics, result)


@criterion("four-variable pair: center dim 3, blocks {1,1,2}, exact outputs")
def test_fourvar_pair_golden(fourvar_pair):
    center = center_basis(fourvar_pair)
    assert center.dim == 3
    p = mat(FOURVAR_P)
    names = ["y1", "y2", "y3", "y4"]
    assert render_canonical(substitute_linear(fourvar_pair[0], p), names) == FOURVAR_G1
    assert render_canonical(substitute_linear(fourvar_pair[1], p), names) == FOURVAR_G2
    for seed in (42, 1, 2):
        result = decompose_recursive(fourvar_pair, seed=seed)
        collect_sets_from_result(result, fourvar_pair)
        assert result.leaf_block_sizes() == (1, 1, 2)
        assert verify_decomposition(fourvar_pair, result)


@criterion("trio: individual centers 2/3/5, exact outputs, joint scalar certificate")
def test_trio_golden(trio):
    assert [center_basis([f]).dim for f in trio] == [2, 3, 5]
    outputs = [
        (TRIO_1_P, TRIO_1_OUT, ["y1", "y2", "y3"]),
        (TRIO_2_P, TRIO_2_OUT, ["z1", "z2", "z3"]),
        (TRIO_3_P, TRIO_3_OUT, ["u1", "u2", "u3"]),
    ]
    for f, (p_rows, expected, names) in zip(trio, outputs):
        assert render_canonical(substitute_linear(f, mat(p_rows)), names) == expected
        single = decompose_recursive([f], seed=42)
        collect_sets_from_result(single, [f])
        assert len(list(single.tree.leaves())) >= 2
        assert verify_decomposition([f], single)
    joint = center_basis(trio)
    assert joint.dim == 1
    result = decompose_recursive(trio, seed=42)
    assert result.tree.is_leaf
    assert result.tree.center_dim == 1  # scalar-center certificate
    assert not result.diagonalizable
    assert verify_decomposition(trio, result)


@criterion("small centers: dims 4 and 2, membership, Jordan closure")
def test_small_centers_golden(quartic_squares, bin_cubics):
    for polys, expected_dim in (([quartic_squares], 4), (bin_cubics, 2)):
        center = center_basis(polys)
        assert center.dim == expected_dim
        for b in center.basis:
            assert membership_check(b, polys)
        for x in center.basis:
            for y in center.basis:
                assert membership_check(jordan_product(x, y), polys)


@criterion(
    "planted suite: 50/50 verified, 50/50 full-expansion verdicts agree, "
    "50/50 refine planted, 50/50 oracle agree"
)
def test_planted_property_suite():
    verified = reconstructed = refined = agreed = 0
    for seed, instance in planted_suite():
        result = decompose_recursive(instance.fs, seed=seed)
        collect_sets_from_result(result, instance.fs)
        verdict = bool(verify_decomposition(instance.fs, result))
        verified += verdict
        # the forward identity f_i(P*y) = sum of the leaves, expanded in all
        # variables, must give the verifier's verdict
        reconstructed += verdict == reconstruction_by_full_expansion(instance.fs, result)
        if refines(result.leaf_block_sizes(), instance.planted_blocks):
            refined += 1
        if brute_force_center_dim(instance.fs) == center_basis(instance.fs).dim:
            agreed += 1
    assert verified == 50
    assert reconstructed == 50
    assert refined == 50
    assert agreed == 50


@criterion("conjugation covariance: 25/25 exact span equality under substitution")
def test_conjugation_covariance():
    checked = 0
    for seed in range(25):
        rng = random.Random(f"conj:{seed}")
        n = 3
        m = 1 + seed % 2
        instance = generate(seed + 1000, n, m, [1, 2] if seed % 2 else [3], 3)
        base = center_basis(instance.fs)
        while True:
            p = RatMatrix(n, n, [rng.randint(-3, 3) for _ in range(n * n)])
            try:
                p_inv = invert(p)
                break
            except Exception:
                continue
        moved = center_basis([substitute_linear(f, p) for f in instance.fs])
        conjugated = [p_inv * x * p for x in base.basis]
        assert same_span(
            [vec(b) for b in moved.basis], [vec(c) for c in conjugated], n * n
        )
        checked += 1
    assert checked == 25


@criterion("generic triviality: 20/20 dense random cubics have scalar center")
def test_generic_center_triviality():
    import itertools

    monomials = []
    for total in range(0, 4):
        for combo in itertools.combinations_with_replacement(range(3), total):
            mono = [0, 0, 0]
            for i in combo:
                mono[i] += 1
            monomials.append(tuple(mono))
    trivial = 0
    for trial in range(20):
        rng = random.Random(f"dense-cubic:{trial}")
        terms = {}
        for mono in monomials:
            c = 0
            while c == 0:
                c = rng.randint(-20, 20)
            terms[mono] = c
        f = Polynomial(3, terms)
        if center_basis([f]).dim == 1:
            trivial += 1
    assert trivial == 20


@criterion("idempotent identities hold exactly for every set produced in the suite")
def test_collected_idempotent_invariants():
    assert COLLECTED_IDEMPOTENT_SETS, "earlier criteria must have produced sets"
    for idem, polys in COLLECTED_IDEMPOTENT_SETS:
        n = idem.n
        total = RatMatrix.zeros(n, n)
        for i, e in enumerate(idem.eps):
            assert e * e == e
            for j, f in enumerate(idem.eps):
                if i != j:
                    assert (e * f).is_zero()
            total = total + e
            assert membership_check(e, polys)
        assert total.is_identity()
