"""Random problem instances with planted ground-truth decompositions.

``generate`` builds per-block polynomials in disjoint variable groups, then
mixes the variables with a random small-integer invertible matrix.  The
planted block sizes are a ground truth the pipeline must recover exactly or
refine (a block may accidentally admit a finer split; it never admits a
coarser one).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence

from ._rat import Record
from .errors import SingularMatrix
from .poly import Polynomial, embed, substitute_linear
from .ratlinalg import RatMatrix, invert

COEFF_LOW, COEFF_HIGH = -5, 5  # block polynomial coefficients
MIX_LOW, MIX_HIGH = -3, 3  # mixing matrix entries


class PlantedInstance(Record):
    """Mixed polynomials plus the hidden structure that produced them."""

    __slots__ = ("fs", "Q", "planted_blocks", "seed", "unmixed")
    fs: tuple[Polynomial, ...]
    Q: RatMatrix
    planted_blocks: tuple[int, ...]  # block sizes, ascending
    seed: int
    unmixed: tuple[Polynomial, ...]  # fs before mixing, for diagnostics


def _nonzero_coeff(rng: random.Random) -> int:
    c = 0
    while c == 0:
        c = rng.randint(COEFF_LOW, COEFF_HIGH)
    return c


def _monomials_up_to(n_vars: int, max_degree: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_vars), total):
            mono = [0] * n_vars
            for i in combo:
                mono[i] += 1
            out.append(tuple(mono))
    return out


def _block_component(
    rng: random.Random,
    size: int,
    max_degree: int,
    structural: bool,
) -> Polynomial:
    """One polynomial over ``size`` fresh variables.

    The structural component (first input polynomial) gets guaranteed
    degree-3 chain couplings v_t^2 * v_{t+1} across the whole block, which
    keeps the block's own center generically trivial; other components are
    sparse draws patched to depend on every block variable.
    """
    terms: dict = {}
    if structural:
        if size == 1:
            terms[(2,)] = _nonzero_coeff(rng)
            terms[(3,)] = _nonzero_coeff(rng)
        else:
            for t in range(size - 1):
                mono = [0] * size
                mono[t] = 2
                mono[t + 1] = 1
                terms[tuple(mono)] = _nonzero_coeff(rng)
    for mono in _monomials_up_to(size, max_degree):
        if rng.random() < 0.5:
            c = rng.randint(COEFF_LOW, COEFF_HIGH)
            if c:
                s = terms.get(mono, 0) + c
                if s:
                    terms[mono] = s
                else:
                    terms.pop(mono, None)
    p = Polynomial(size, terms)
    # ensure dependence on every block variable
    for v in range(size):
        if all(mono[v] == 0 for mono in p._terms):
            unit = tuple(1 if i == v else 0 for i in range(size))
            p = p + Polynomial(size, {unit: _nonzero_coeff(rng)})
    return p


def generate(
    seed: int,
    n: int,
    m: int,
    block_sizes: Sequence[int],
    max_degree: int,
) -> PlantedInstance:
    """Deterministic planted instance: f_i = h_i(Q x) with h_i block-split.

    ``block_sizes`` must sum to n; ``max_degree`` must be at least 3 so every
    instance carries a degree-3 block polynomial (all-quadratic instances
    are out of scope for the generator).
    """
    block_sizes = list(block_sizes)
    if not block_sizes or sum(block_sizes) != n or any(s < 1 for s in block_sizes):
        raise ValueError(f"block sizes {block_sizes} do not partition {n} variables")
    if m < 1:
        raise ValueError("need at least one polynomial")
    if max_degree < 3:
        raise ValueError("max_degree must be >= 3")
    rng = random.Random(f"planted:{seed}")
    starts = [0]
    for s in block_sizes:
        starts.append(starts[-1] + s)
    unmixed = []
    for i in range(m):
        h = Polynomial.zero(n)
        for b, size in enumerate(block_sizes):
            component = _block_component(rng, size, max_degree, structural=(i == 0))
            h = h + embed(component, range(starts[b], starts[b + 1]), n)
        if rng.random() < 0.5:
            h = h + _nonzero_coeff(rng)
        unmixed.append(h)
    while True:
        q = RatMatrix(
            n, n, [rng.randint(MIX_LOW, MIX_HIGH) for _ in range(n * n)]
        )
        try:
            invert(q)
            break
        except SingularMatrix:
            continue
    fs = tuple(substitute_linear(h, q) for h in unmixed)
    return PlantedInstance(
        fs=fs,
        Q=q,
        planted_blocks=tuple(sorted(block_sizes)),
        seed=seed,
        unmixed=tuple(unmixed),
    )
