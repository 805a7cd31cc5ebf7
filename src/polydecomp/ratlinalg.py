"""Exact linear algebra over the rationals.

Dense matrices with exact rational entries, sized for ambient dimensions in
the single digits.

Dense echelon forms come from one fraction-free elimination, ``_bareiss``:
Gauss-Jordan over integer rows whose every division is exact (Bareiss;
Nakos, Turner and Williams), so the rows it leaves are the reduced echelon
form times the last pivot, with no prime, reconstruction or check.  Column
spaces, inverses (the right half of [m | I]), minimal polynomials (the
first dependency among a draw's integer powers, which the idempotent
search forms) and the search's bases are read off it.

Sparse kernels are found modulo a prime.  ``nullspace_basis`` inserts
sparse integer rows one at a time into a reduced echelon form modulo a
prime, stored as each pivot column with its row's entries outside the
pivot columns (``_insert_mod``), and reads the canonical kernel basis
modulo p off it.  The center lifts that basis, or its pencil's, with the
pieces kept here: the primes (Mersenne primes from 2^61 - 1 up, pinned),
Wang's rational reconstruction and the CRT step; it accepts a lift only
once its own exact membership test passes (see ``center``), so no modular
result here needs a certificate of its own.

The module also provides the integer polynomials the idempotent search
cuts a center algebra with: a draw's minimal polynomial, monic with integer
coefficients, its squarefree part, and its primary factors, (t - c)^k per
integer root c by synthetic division, then one rootless remainder.
Integer roots are found modularly as well, in time polynomial in the size
of the input: the roots of the squarefree part g modulo the smallest prime
that keeps them all simple are lifted by Newton (Hensel) steps past the
bound |y| <= |g(0)| and accepted only when g vanishes at them exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from operator import mul

from ._rat import Rat, normalize, rat_str, to_rat
from .errors import DimensionMismatch, InternalInvariantViolation, LiftExhausted, SingularMatrix

Vector = tuple  # tuple[Rat, ...]; module-internal shorthand


class RatMatrix:
    """Immutable dense matrix of exact rationals, row-major."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._e = tuple(map(to_rat, entries))

    @classmethod
    def _raw(cls, rows: int, cols: int, entries: Sequence) -> "RatMatrix":
        """Matrix on entries that are already ints or reduced non-integral
        Fractions, unchecked and uncoerced."""
        m = object.__new__(cls)
        m.rows, m.cols, m._e = rows, cols, tuple(entries)
        return m

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [1 if r == c else 0 for r in range(n) for c in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "RatMatrix":
        c = len(columns)
        r = len(columns[0])
        if any(len(col) != r for col in columns):
            raise ValueError("ragged columns")
        return cls(r, c, [columns[j][i] for i in range(r) for j in range(c)])

    def entry(self, r: int, c: int) -> Rat:
        return self._e[r * self.cols + c]

    def row(self, r: int) -> Vector:
        return self._e[r * self.cols : (r + 1) * self.cols]

    def column(self, c: int) -> Vector:
        return tuple(self._e[r * self.cols + c] for r in range(self.rows))

    def _check_same_shape(self, other: "RatMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shape {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)]
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, [-a for a in self._e])

    def scale(self, c) -> "RatMatrix":
        c = to_rat(c)
        return RatMatrix(self.rows, self.cols, [c * a for a in self._e])

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            # Inner products run on integer rows of self and integer columns
            # of other, each cleared of its denominator; every entry is then
            # divided once.
            left = [_cleared(self.row(r)) for r in range(self.rows)]
            right = [_cleared(other.column(c)) for c in range(other.cols)]
            out = []
            for a, da in left:
                for b, db in right:
                    out.append(_ratio(sum(map(mul, a, b)), da * db))
            return RatMatrix._raw(self.rows, other.cols, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._e)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == RatMatrix.identity(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(rat_str(x) for x in self.row(r)) for r in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def vec(m: RatMatrix) -> Vector:
    """Row-major flattening of a matrix."""
    return m._e


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


def _cleared(row: Sequence) -> tuple[Sequence, int]:
    """Integer row d * row and the lcm d of the row's denominators."""
    # type() rather than isinstance(): the ABC check would dominate the cost
    denominators = [x.denominator for x in row if type(x) is Fraction]
    if not denominators:
        return row, 1
    denom = lcm(*denominators)
    return [x.numerator * (denom // x.denominator) for x in row], denom


def _primitive_int_row(row: Sequence) -> list:
    """Scale a rational row to a primitive integer row (zero stays zero)."""
    ints = list(_cleared(row)[0])
    g = 0
    for v in ints:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _ratio(x: int, d: int) -> Rat:
    """x / d as an int when it divides, else a reduced Fraction."""
    return x // d if x % d == 0 else Fraction(x, d)


def _bareiss(rows: Sequence[Sequence[int]], width: int) -> tuple[list, list, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows on their first
    ``width`` columns (Bareiss; Nakos, Turner and Williams).

    Returns the pivot columns, ascending, the rows and t, the last pivot (1
    when there is none).  The first len(pivots) rows are t times the rows
    of the reduced echelon form of the span; the others are zero on the
    first ``width`` columns.  Columns past ``width`` are carried along.

    Column by column, the pivot row is the first remaining row nonzero
    there, and every other row becomes (t * row - row[c] * pivot row) / prev
    for the new pivot t and the one before, prev.  Each entry is then a
    minor of the input, up to sign, so every division is exact (Sylvester's
    identity); a rank-deficient input leaves fewer pivots.  A row zero in
    the column is left as it is when t = prev.
    """
    rows = list(rows)
    pivots: list = []
    t = 1
    for c in range(width):
        k = len(pivots)
        if k == len(rows):
            break
        i = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[k], rows[i] = rows[i], rows[k]
        top = rows[k]
        prev, t = t, top[c]
        for j, row in enumerate(rows):
            f = row[c]
            if j != k and (f or t != prev):
                rows[j] = [(t * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
    return pivots, rows, t


# The kernel primes: Mersenne primes 2^q - 1, pinned.  The lift's modulus is
# their product, so it grows about geometrically: the first two make 188
# bits, the first eleven 28 661.  2^89 - 1 and 2^107 - 1 are left out: with
# them the small centers the lift sees most took more rounds, not fewer.
_MERSENNE_EXPONENTS = (61, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213)
_KERNEL_PRIMES = tuple((1 << q) - 1 for q in _MERSENNE_EXPONENTS)


def _kernel_prime(i: int) -> int:
    """The i-th kernel prime, from 2^61 - 1 up; past the last pinned one the
    lift has no modulus left, and LiftExhausted is raised."""
    if i >= len(_KERNEL_PRIMES):
        raise LiftExhausted(
            f"a lift asked for kernel prime {i}, past the {len(_KERNEL_PRIMES)} pinned ones"
        )
    return _KERNEL_PRIMES[i]


def _insert_mod(pivots: dict, row: list, p: int) -> bool:
    """Add a sparse integer row to a reduced echelon basis modulo p.

    ``pivots`` maps each pivot column to its row's entries outside the pivot
    columns (the pivot entry is 1).  Stored rows are zero on every other
    pivot column, so one pass over the new row's pivot columns reduces it.
    Returns whether the rank went up.
    """
    w = {c: v % p for c, v in row if v % p}
    for c in [c for c in w if c in pivots]:
        _axpy(w, -w.pop(c), pivots[c], p)
    if not w:
        return False
    lead = min(w)
    inv = pow(w.pop(lead), -1, p)
    new = {j: v * inv % p for j, v in w.items()}
    for other in pivots.values():
        if lead in other:
            _axpy(other, -other.pop(lead), new, p)
    pivots[lead] = new
    return True


def _axpy(y: dict, a: int, x: dict, p: int) -> None:
    """y += a*x modulo p, for sparse vectors; zero entries are dropped."""
    for j, b in x.items():
        v = (y.get(j, 0) + a * b) % p
        if v:
            y[j] = v
        else:
            y.pop(j, None)


def _solve_mod(rows: list, n: int, p: int) -> list | None:
    """The columns after the first n of dense integer rows modulo p, once
    Gauss-Jordan elimination has turned the first n into the identity; None
    when those are singular.  The rows are reduced in place; an entry is
    reduced modulo p only where it becomes a pivot or a multiplier, and at
    the end."""
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c] % p), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], -1, p)
        top = rows[c] = [x * inv % p for x in rows[c]]
        # the columns before c are zero in ``top``
        tail = top[c:]
        for r, row in enumerate(rows):
            f = row[c] % p
            if f and r != c:
                row[c:] = [x - f * t for x, t in zip(row[c:], tail)]
    return [[x % p for x in row[n:]] for row in rows]


def _reconstruct(residues: dict, modulus: int) -> dict | None:
    """Rationals a/b = u mod modulus with |a|, b <= sqrt(modulus/2) (Wang).

    Entrywise over an echelon form of residues, pivots in ascending order;
    None as soon as one entry has no such preimage.  The preimage is unique,
    so along a row, with D the lcm of the denominators so far (all prime to
    the modulus), an entry whose symmetric residue w of u * D is in bounds,
    as D is, is w / D with no Euclid; any other runs Wang's and joins D.
    """
    half = modulus // 2
    bound = isqrt(half)
    form = {}
    for c in sorted(residues):
        out = {}
        denom = 1
        for j, u in residues[c].items():
            w = u * denom % modulus
            if w > half:
                w -= modulus
            if -bound <= w <= bound and denom <= bound:
                out[j] = w if denom == 1 else normalize(Fraction(w, denom))
                continue
            r0, r1, s0, s1 = modulus, u, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound or gcd(r1, s1) != 1:
                return None
            out[j] = normalize(Fraction(r1, s1)) if s1 != 1 else r1
            denom = lcm(denom, s1)
        form[c] = out
    return form


def _crt(residues: dict, modulus: int, other: dict, q: int) -> dict:
    """The echelon form modulo modulus * q whose entries are those of
    ``residues`` modulo ``modulus`` and those of ``other`` modulo the prime q;
    both forms have the same pivot columns."""
    factor = modulus * pow(modulus, -1, q)
    modulus *= q
    combined = {}
    for c, a in residues.items():
        b = other[c]
        combined[c] = {
            j: (a.get(j, 0) + (b.get(j, 0) - a.get(j, 0)) * factor) % modulus
            for j in a.keys() | b.keys()
        }
    return combined


def _kernel(form: dict, width: int) -> list[Vector]:
    """Kernel vectors of an echelon form, one per free column, ascending.

    The free coordinate is 1, the other free coordinates are 0 and the pivot
    coordinates are the negated form entries in that column.
    """
    basis = []
    for f in range(width):
        if f not in form:
            v = [0] * width
            v[f] = 1
            for c, entries in form.items():
                if f in entries:
                    v[c] = -entries[f]
            basis.append(tuple(v))
    return basis


class _SparseSystem:
    """Integer rows of (column, value) pairs, columns ascending, drawn from
    ``source`` in its order as they are eliminated; ``rows`` counts those
    read so far."""

    __slots__ = ("rows", "cols", "_source")

    def __init__(self, cols: int, source: Iterable):
        self.rows, self.cols, self._source = 0, cols, source

    def __iter__(self):
        for row in self._source:
            self.rows += 1
            yield row


def nullspace_basis(system: _SparseSystem, p: int) -> tuple[list[Vector], list]:
    """Canonical basis of the right kernel of the system's rows modulo the
    prime p, and the rows that raised the rank, which span the row space
    modulo p.

    The rows are read once, in order, and inserted into a reduced echelon
    form modulo p.  One kernel vector per free column, ascending: the free
    coordinate is 1, the other free coordinates are 0 and the pivot
    coordinates are integers congruent to the form's negated entries.
    Lifting the basis to the rationals, and certifying the lift, is the
    caller's (``center``).
    """
    pivots: dict = {}
    independent = [row for row in system if _insert_mod(pivots, row, p)]
    return _kernel(pivots, system.cols), independent


def column_space_basis(m: RatMatrix) -> tuple[list[Vector], list[Vector]]:
    """Columns C of ``m`` at the pivot positions of its echelon form, and
    the nonzero rows R of its reduced echelon form: m = C * R."""
    pivots, rows, t = _bareiss([_cleared(m.row(r))[0] for r in range(m.rows)], m.cols)
    columns = [m.column(c) for c in pivots]
    return columns, [tuple(_ratio(x, t) for x in row) for row in rows[: len(pivots)]]


def invert(m: RatMatrix) -> RatMatrix:
    """Inverse, the right half of the echelon form of [m | I]."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    n = m.rows
    rows = []
    for r in range(n):
        ints, d = _cleared(m.row(r))
        rows.append([*ints, *(d if c == r else 0 for c in range(n))])
    pivots, rows, t = _bareiss(rows, n)
    if len(pivots) < n:
        raise SingularMatrix(f"matrix has rank {len(pivots)} < {n}")
    return RatMatrix._raw(n, n, [_ratio(x, t) for row in rows for x in row[n:]])


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------


def _int_horner(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class UniPoly:
    """Read-only univariate integer polynomial, coefficients lowest degree
    first, no trailing zeros."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Sequence[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    def coefficients(self) -> tuple:
        return self._c

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self._c == other._c

    __hash__ = None

    def __call__(self, x: int) -> int:
        return _int_horner(self._c, x)

    def __repr__(self) -> str:
        parts = []
        for i in reversed(range(len(self._c))):
            c = self._c[i]
            if c == 0:
                continue
            mono = "" if i == 0 else "t" if i == 1 else f"t^{i}"
            if not mono:
                parts.append(str(c))
            elif c in (1, -1):
                parts.append(mono if c == 1 else f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return "UniPoly(" + (" + ".join(parts).replace("+ -", "- ") or "0") + ")"


def squarefree_part(m: UniPoly) -> UniPoly:
    """m divided by gcd(m, m'), for m monic with integer coefficients.

    For p the first kernel prime: if m and m' are coprime modulo p, then
    Res(m, m') is not 0 and m is squarefree, returned as it is.  Otherwise
    h = gcd(m, m') comes from one fraction-free elimination (``_bareiss``)
    of the Sylvester matrix of m and m', columns from the highest degree
    down.  Its rows span the multiples of h of degree below 2 deg m - 1, so
    the last row of their reduced echelon form is the monic h (Laidacker):
    the last pivot row divided by the last pivot.  h is a monic divisor of
    m, so its coefficients are integers (Gauss's lemma) and m is divided by
    it exactly, in integers.
    """
    d = m.degree
    if d < 1:
        raise ValueError("squarefree part needs degree >= 1")
    # highest degree first; m' keeps its degree d - 1 < p modulo p
    top = list(reversed(m.coefficients()))
    slope = [(d - i) * c for i, c in enumerate(top[:-1])]
    p = _kernel_prime(0)
    a, b = [c % p for c in top], [c % p for c in slope]
    while b:
        inv = pow(b[0], -1, p)
        while len(a) >= len(b):
            q = a[0] * inv % p
            a = [(x - q * y) % p for x, y in zip(a[1:], b[1:])] + a[len(b) :]
            while a and not a[0]:
                a.pop(0)
        a, b = b, a
    if len(a) == 1:
        return m
    rows = [[0] * i + top + [0] * (d - 2 - i) for i in range(d - 1)]
    rows += [[0] * i + slope + [0] * (d - 1 - i) for i in range(d)]
    pivots, rows, t = _bareiss(rows, 2 * d - 1)
    k = len(pivots)
    h = [x // t for x in rows[k - 1][k - 1 :]]
    quotient = []
    while len(top) >= len(h):
        q = top[0]
        quotient.append(q)
        top = [x - q * y for x, y in zip(top[1:], h[1:])] + top[len(h) :]
    return UniPoly(quotient[::-1])


def integer_roots(p: UniPoly) -> list[int]:
    """All integer roots of p, monic with integer coefficients, ascending,
    each listed once.

    They are the roots of the squarefree part g of p.  The root 0 (a factor
    t of g, at most once) is stripped first; every other root y divides
    g(0) != 0, so |y| <= |g(0)|.

    The roots come from the smallest prime q modulo which every root of g
    is simple (g' nonzero there), found by trying all residues, the primes
    by trial division.  A squarefree g has a nonzero discriminant, and
    every prime not dividing it qualifies, so the search ends; were g not
    squarefree, a repeated root would stay repeated modulo every prime.
    Each simple root lifts uniquely by Newton steps modulo q^2, q^4, ...
    until the modulus exceeds 2 |g(0)|, when the symmetric representative
    of an integer root is the root itself.  A candidate is kept only if g
    vanishes at it exactly.
    """
    if p.degree < 1:
        return []
    g = list(squarefree_part(p).coefficients())
    roots = []
    if g[0] == 0:
        roots.append(0)
        g.pop(0)
    if len(g) > 1:
        dg = [i * c for i, c in enumerate(g)][1:]
        q = 2
        while True:
            gq = [c % q for c in g]
            residues = [r for r in range(q) if _int_horner(gq, r) % q == 0]
            if all(_int_horner(dg, r) % q for r in residues):
                break
            q += 1
            while any(q % s == 0 for s in range(2, isqrt(q) + 1)):
                q += 1
        bound = 2 * abs(g[0])
        for y in residues:
            modulus = q
            while modulus <= bound:
                modulus *= modulus
                y = (y - _int_horner(g, y) * pow(_int_horner(dg, y), -1, modulus)) % modulus
            if y > modulus // 2:
                y -= modulus
            if _int_horner(g, y) == 0:
                roots.append(y)
    return sorted(roots)


def primary_coprime_factors(m: UniPoly) -> list[UniPoly]:
    """Pairwise-coprime factors of ``m``, monic with integer coefficients,
    multiplicities kept.

    Each integer root c, in ascending order, gives the factor (t - c)^k,
    divided out of m by synthetic division while the remainder is zero;
    whatever is left has no rational root and is the last factor.  The
    factors multiply to m, all monic with integer coefficients.  A single
    returned factor means no rational spectral split exists.
    """
    if m.degree < 1:
        raise ValueError("primary factors need degree >= 1")
    rest = list(m.coefficients())
    factors = []
    for c in integer_roots(m):
        k = 0
        while True:
            acc, quotient = 0, []
            for x in reversed(rest):
                acc = acc * c + x
                quotient.append(acc)
            if quotient.pop():
                break
            rest, k = quotient[::-1], k + 1
        factors.append(UniPoly([comb(k, j) * (-c) ** (k - j) for j in range(k + 1)]))
    if len(rest) > 1:
        factors.append(UniPoly(rest))
    return factors


# ---------------------------------------------------------------------------
# Minimal polynomials
# ---------------------------------------------------------------------------


def minimal_polynomial(powers: Sequence[Sequence[int]]) -> UniPoly:
    """The monic first dependency t^d - sum_(j<d) c_j t^j among integer
    vectors x_0, x_1, ..., with integer c_j: d is least with x_d =
    sum_(j<d) c_j x_j.

    On the Krylov vectors x_j = A^j x_0 of an integer matrix A it is the
    annihilator of x_0 under A, a monic divisor of A's characteristic
    polynomial, so its c_j are integers (Gauss's lemma); the idempotent
    search passes the powers of a draw g, a primitive integer matrix, the
    unit and g o ... o g in coordinates, and gets the minimal polynomial
    of g.  With the vectors as the columns of one fraction-free elimination
    (``_bareiss``), d is the first free column and c_j = E[j][d] / t, E
    being the rows it leaves and t its last pivot.  Independent vectors
    raise ValueError, and a c_j that is not an integer
    InternalInvariantViolation.
    """
    pivots, rows, t = _bareiss(list(zip(*powers)), len(powers))
    d = next((j for j, c in enumerate(pivots) if c != j), len(pivots))
    if d == len(powers):
        raise ValueError("the vectors are independent")
    coeffs = [divmod(-row[d], t) for row in rows[:d]]
    if any(r for _, r in coeffs):
        raise InternalInvariantViolation("the first dependency is not over the integers")
    return UniPoly([c for c, _ in coeffs] + [1])
