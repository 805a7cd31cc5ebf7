"""Seeded workload generator with recorded ground truth.

Every problem is a planted direct sum: block polynomials h_i(u) in disjoint
groups of the variables u, mixed by a random integer matrix Q into the
problem f_i(x) = h_i(Q x).  The truth recorded with each problem is the
planted partition, Q, the unmixed h_i, and a reference center dimension
computed by ``oracle_center_dim`` on the unmixed h_i.  The center of f is
Q^-1 Z(h) Q, so the dimensions agree; the oracle shares no code with the
program under test.

This generator is deliberately separate from the program's own instance
generator, so changes to the program cannot move the workloads.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from sympy import ZZ
from sympy.polys.rings import ring

ORACLE_PRIME = (1 << 61) - 1
MIX = 3  # mixing matrix entries are drawn from -MIX..MIX
NORM_D = (2, 3, 5, 6, 7, 10, 11)  # non-squares: y1^3 + 3d*y1*y2^2 has center Q(sqrt d)


@dataclass(frozen=True)
class Shape:
    """Size parameters of one problem; ``blocks`` lists planted block kinds.

    A block is ("g", size) for a generic block, whose polynomial is
    indecomposable with scalar center, or ("norm", 2) for a binary norm-form
    cubic c*(u1^3 + 3d*u1*u2^2) with center Q(sqrt d).
    """

    m: int
    degree: int
    blocks: tuple
    dense_mix: bool = True

    @property
    def n(self) -> int:
        return sum(size for _, size in self.blocks)


def g(*sizes: int) -> tuple:
    return tuple(("g", s) for s in sizes)


NORM = (("norm", 2),)

# Each run cycles through its workload's schedule in order, so every run sees
# the same mix of shapes and only the random coefficients change with the seed.
# Schedules are ordered by nothing in particular.  What matters is that the
# median solve time falls inside the cluster of times of the shape listed
# three times, one whose times vary little from problem to problem, rather
# than in a gap between two shapes.
WORKLOADS = {
    # One indecomposable block: parse, center solve and render do all the
    # work; idempotent search, separation and verify_complete are bypassed.
    "scalar_center": (
        Shape(1, 3, g(7)),
        Shape(2, 4, g(6)),
        Shape(1, 5, g(6)),
        Shape(1, 5, g(6)),
        Shape(1, 5, g(6)),
        Shape(1, 4, g(7)),
        Shape(1, 3, g(9)),
    ),
    # Two or three blocks of size >= 2: center nullspace, substitution and
    # verification dominate; spectral search is trivial.
    "few_blocks": (
        Shape(2, 3, g(3, 3)),
        Shape(1, 4, g(2, 4)),
        Shape(2, 3, g(2, 2, 3)),
        Shape(3, 3, g(3, 4)),
        Shape(1, 4, g(2, 2, 2)),
        Shape(2, 4, g(3, 3)),
        Shape(1, 5, g(2, 3)),
    ),
    # Four or more blocks, singletons included, plus norm-form cubics whose
    # centers are quadratic fields: the spectral idempotent search dominates.
    # With a dense mixing matrix, eight singletons give a minimal polynomial
    # whose constant term has so many divisors that the rational-root sweep
    # exceeds the memory cap (20 of 20 problems tried).  The other shapes with five or
    # more blocks use determinant-1 mixing, which keeps that sweep small, so
    # the blow-up shows as a steady count of failures instead of heavy-tailed
    # solve times.  Two norm forms share one irrational factor of the minimal
    # polynomial, so their blocks are not separated (a missed split).
    "many_blocks": (
        Shape(1, 3, g(1, 1, 1, 1, 1, 1, 1, 1)),
        Shape(2, 3, g(1, 1, 1, 2)),
        Shape(1, 3, NORM + NORM + g(1), dense_mix=False),
        Shape(2, 4, g(1, 1, 1, 2)),
        Shape(1, 3, NORM + g(1, 1, 1), dense_mix=False),
        Shape(2, 3, g(1, 2, 2, 2), dense_mix=False),
        Shape(1, 3, g(1, 1, 1, 1, 1, 1), dense_mix=False),
        Shape(1, 3, g(1, 1, 1, 1, 1, 1), dense_mix=False),
        Shape(1, 3, g(1, 1, 1, 1, 1, 1), dense_mix=False),
        Shape(1, 4, g(1, 1, 1, 2)),
    ),
}


@dataclass(frozen=True)
class Problem:
    """One problem file's contents plus the truth the checker compares with."""

    pid: int
    shape: Shape
    var_names: tuple
    sources: tuple  # rendered f_i, one line each
    unmixed: tuple  # h_i as {exponent tuple: int}
    Q: tuple  # mixing matrix rows; x-coordinates map to u = Q x
    planted: tuple  # planted partition of the u-coordinates, as index tuples
    center_dim: int  # reference root center dimension

    def text(self) -> str:
        return "vars: " + " ".join(self.var_names) + "\n" + "\n".join(self.sources) + "\n"


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _monomials(size: int, degree: int) -> list:
    out = []
    for combo in itertools.combinations_with_replacement(range(size), degree):
        mono = [0] * size
        for i in combo:
            mono[i] += 1
        out.append(tuple(mono))
    return out


def _generic_block(rng: random.Random, size: int, degree: int, first: bool) -> dict:
    """Random polynomial in ``size`` variables of total degree ``degree``.

    The first polynomial of a problem carries the couplings u_t^2 * u_{t+1}
    along the whole block (u^3 for a singleton), which makes the block's
    center scalar for generic coefficients.
    """
    terms: dict = {}
    if first:
        if size == 1:
            terms[(3,)] = _nonzero(rng, 4)
        for t in range(size - 1):
            mono = [0] * size
            mono[t], mono[t + 1] = 2, 1
            terms[tuple(mono)] = _nonzero(rng, 4)
    for d in range(1, degree + 1):
        monos = _monomials(size, d)
        picks = [mono for mono in monos if rng.random() < 0.35]
        if d == degree and not picks:
            picks = [rng.choice(monos)]
        for mono in picks:
            terms.setdefault(mono, _nonzero(rng, 4))
    return terms


def _norm_block(rng: random.Random, d: int) -> dict:
    c = _nonzero(rng, 3)
    terms = {(3, 0): c, (1, 2): 3 * d * c}
    for mono in ((1, 0), (0, 1)):
        if rng.random() < 0.5:
            terms[mono] = _nonzero(rng, 4)
    return terms


def _embed(terms: dict, offset: int, n: int) -> dict:
    out = {}
    for mono, c in terms.items():
        full = [0] * n
        full[offset : offset + len(mono)] = mono
        out[tuple(full)] = c
    return out


def inverse(rows: list) -> list | None:
    """Exact Gauss-Jordan inverse of a square rational matrix, None if singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        lead = a[col][col]
        a[col] = [x / lead for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _unimodular(rng: random.Random, n: int) -> list:
    """L * U with unit triangular factors: integer entries, determinant 1."""
    lower = [[1 if i == j else rng.randint(-1, 1) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def substitute(terms: dict, forms: list):
    """Expand h(forms): variable i of ``terms`` becomes the ring element forms[i]."""
    R = forms[0].ring
    powers = [[R.one, f] for f in forms]
    acc = R.zero
    for mono, c in terms.items():
        t = R(c)
        for i, e in enumerate(mono):
            if e:
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(cache[-1] * forms[i])
                t = t * cache[e]
        acc += t
    return acc


def render(poly, names) -> str:
    """Problem-file text for a ring element, in the program's input grammar."""
    pieces = []
    for mono, c in sorted(poly.terms(), reverse=True):
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {body}")
    if not pieces:
        return "0"
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _hessian_terms(terms: dict, n: int) -> dict:
    """{(i, j): [(coeff, monomial)]} for the second partials, i <= j."""
    out: dict = {}
    for mono, c in terms.items():
        for i in range(n):
            if not mono[i]:
                continue
            for j in range(i, n):
                e = list(mono)
                k = c * e[i]
                e[i] -= 1
                k *= e[j]
                if not k:
                    continue
                e[j] -= 1
                out.setdefault((i, j), []).append((k, tuple(e)))
    return out


def oracle_center_dim(polys: list, n: int, rng: random.Random) -> int:
    """Dimension of {X : H_i(x) X symmetric for all x, i}, modulo a 61-bit prime.

    Each round evaluates every Hessian at a random point and adds the
    equations (H X)[r][c] = (H X)[c][r] for r < c to an incremental echelon
    basis.  Until the basis holds every constraint, a random point adds a new
    one except with probability below degree / 2^61 (Schwartz-Zippel), so the
    first round that adds nothing ends the search.
    """
    p = ORACLE_PRIME
    hessians = [_hessian_terms(t, n) for t in polys]
    width = n * n
    pivots: dict = {}  # lead column -> row normalised to lead 1
    while True:
        grew = False
        x = [rng.randrange(1, p) for _ in range(n)]
        for hess in hessians:
            h = [[0] * n for _ in range(n)]
            for (i, j), parts in hess.items():
                v = 0
                for k, mono in parts:
                    term = k
                    for var, e in enumerate(mono):
                        if e:
                            term = term * pow(x[var], e, p)
                    v += term
                h[i][j] = h[j][i] = v % p
            for r in range(n):
                for c in range(r + 1, n):
                    row = [0] * width
                    for l in range(n):
                        row[l * n + c] += h[r][l]
                        row[l * n + r] -= h[c][l]
                    if _reduce_insert(row, pivots, p):
                        grew = True
        if not grew or len(pivots) == width - 1:
            return width - len(pivots)


def _reduce_insert(row: list, pivots: dict, p: int) -> bool:
    row = [v % p for v in row]
    for col in range(len(row)):
        v = row[col]
        if not v:
            continue
        piv = pivots.get(col)
        if piv is None:
            inv = pow(v, p - 2, p)
            pivots[col] = [(x * inv) % p for x in row]
            return True
        row = [(a - v * b) % p for a, b in zip(row, piv)]
    return False


def make_problem(workload: str, seed: int, pid: int) -> Problem:
    schedule = WORKLOADS[workload]
    shape = schedule[pid % len(schedule)]
    rng = random.Random(f"{workload}:{seed}:{pid}")
    n = shape.n
    offsets = list(itertools.accumulate([s for _, s in shape.blocks], initial=0))
    norm_ds = rng.sample(NORM_D, sum(1 for kind, _ in shape.blocks if kind == "norm"))
    unmixed = []
    for i in range(shape.m):
        h: dict = {}
        ds = iter(norm_ds)
        for (kind, size), off in zip(shape.blocks, offsets):
            if kind == "norm":
                part = _norm_block(rng, next(ds)) if i == 0 else {}
            else:
                part = _generic_block(rng, size, shape.degree, first=(i == 0))
            h.update(_embed(part, off, n))
        if rng.random() < 0.5:
            h[(0,) * n] = _nonzero(rng, 5)
        unmixed.append(h)
    if shape.dense_mix:
        while True:
            q = [[rng.randint(-MIX, MIX) for _ in range(n)] for _ in range(n)]
            if inverse(q) is not None:
                break
    else:
        q = _unimodular(rng, n)
    names = tuple(f"x{i + 1}" for i in range(n))
    R, *xs = ring(",".join(names), ZZ)
    forms = [sum((c * xv for c, xv in zip(row, xs) if c), R.zero) for row in q]
    sources = tuple(render(substitute(h, forms), names) for h in unmixed)
    planted = tuple(tuple(range(off, off + size)) for (_, size), off in zip(shape.blocks, offsets))
    return Problem(
        pid=pid,
        shape=shape,
        var_names=names,
        sources=sources,
        unmixed=tuple(unmixed),
        Q=tuple(tuple(row) for row in q),
        planted=planted,
        center_dim=oracle_center_dim(unmixed, n, rng),
    )
