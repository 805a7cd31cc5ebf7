"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in ``n`` variables maps exponent tuples of length ``n`` to
nonzero rational coefficients.  Coefficients are plain ``int`` when integral
and ``fractions.Fraction`` otherwise, so arithmetic is exact and equality
tests are reliable.  The module also provides the text surface (parser and
canonical renderer) and linear changes of variables.

The parser is a scanner over C-level string primitives, not a tokenizer: one
regex search rejects a character no token accepts, the text is split at its
signs and each term at its '*'s, and each distinct factor text ('12', 'x3',
'x3^2', '1/2') is resolved once per call through a dict: a bare ASCII
integer by ``int`` alone, anything else by one anchored regex.  A term then
costs a dict lookup per factor and one exponent tuple.  Errors are
positioned from the offending factor's offset.

A linear change of variables p(M y), most of a decomposition's arithmetic,
bypasses ``Polynomial`` products: it multiplies monomials packed into ints
in base deg p + 1, takes one linear factor from every term per round and
sums the partial terms that then agree (sum factorization), all over one
common denominator.  Several polynomials share one such expansion as the
signed digits of one integer, and column blocks of M are expanded each on
its own columns (see ``substitute_linear``).

Term iteration exposed to callers is always graded-lexicographic: higher
total degree first, ties broken by the exponent vector with the first
variable most significant.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import lcm

from ._rat import Rat, normalize, rat_str, to_rat
from .errors import DimensionMismatch, ParseError
from .ratlinalg import RatMatrix, _cleared, _ratio

Monomial = tuple  # tuple[int, ...], one exponent per variable

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping | Iterable | None = None):
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        clean: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for mono, coeff in items:
                mono = tuple(int(e) for e in mono)
                if len(mono) != n:
                    raise DimensionMismatch(
                        f"monomial length {len(mono)} != ambient dimension {n}"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError("negative exponent")
                c = clean.get(mono, 0) + to_rat(coeff)
                if c:
                    clean[mono] = normalize(c) if isinstance(c, Fraction) else c
                else:
                    clean.pop(mono, None)
        self.n = n
        self._terms = clean

    @classmethod
    def _raw(cls, n: int, terms: dict) -> "Polynomial":
        """Internal constructor; ``terms`` must already be clean."""
        p = object.__new__(cls)
        p.n = n
        p._terms = terms
        return p

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls._raw(n, {})

    @classmethod
    def constant(cls, n: int, value) -> "Polynomial":
        c = to_rat(value)
        return cls._raw(n, {(0,) * n: c} if c else {})

    @classmethod
    def variable(cls, n: int, index: int) -> "Polynomial":
        if not 0 <= index < n:
            raise IndexError(f"variable index {index} out of range for n={n}")
        mono = tuple(1 if i == index else 0 for i in range(n))
        return cls._raw(n, {mono: 1})

    def terms(self) -> list[tuple[Monomial, Rat]]:
        """Terms in graded-lexicographic order."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def coefficient(self, mono: Sequence[int]) -> Rat:
        return self._terms.get(tuple(mono), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Largest monomial degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def constant_term(self) -> Rat:
        return self._terms.get((0,) * self.n, 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self._terms == other._terms
        )

    __hash__ = None

    def _check_dim(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"ambient dimensions differ: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        self._check_dim(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = normalize(s) if isinstance(s, Fraction) else s
            else:
                out.pop(mono, None)
        return Polynomial._raw(self.n, out)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return Polynomial._raw(self.n, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Polynomial":
        c = to_rat(c)
        if not c:
            return Polynomial.zero(self.n)
        return Polynomial._raw(
            self.n, {m: normalize(c * v) for m, v in self._terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_dim(other)
        if not self._terms or not other._terms:
            return Polynomial.zero(self.n)
        out: dict = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                s = out.get(mono, 0) + ca * cb
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return Polynomial._raw(
            self.n, {m: normalize(c) for m, c in out.items()}
        )

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.n, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.n)]
        return f"Polynomial({self.n}: {render_canonical(self, names)})"


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------

# A character outside every token; a sign with the blanks after it; and one
# '*'-separated factor: an int, an int/int, a name or a name^int.  Every part
# of a factor after the first is optional, so a factor that does not fit
# still matches up to the token where the grammar fails.  The denominator
# and exponent groups match '' after a '/' or '^' with no literal, at the
# position of the missing literal, and None when there is no '/' or '^'.
_STRAY_RE = re.compile(r"[^\s\dA-Za-z_+\-*/^]")
_SIGN_RE = re.compile(r"([+-]\s*)")
_FACTOR_RE = re.compile(
    r"\s*(?:(\d+)(?:\s*/\s*(\d*))?|([A-Za-z_][A-Za-z0-9_]*)(?:\s*\^\s*(\d*))?)?\s*"
)


def validate_variable_names(names: Sequence[str]) -> list[str]:
    names = list(names)
    if not names:
        raise ValueError("at least one variable name is required")
    if len(set(names)) != len(names):
        raise ValueError("variable names must be distinct")
    for name in names:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid variable name {name!r}")
    return names


def _int_literal(digits: str, pos: int) -> int:
    """The value of a literal of decimal digits, or a ParseError at ``pos``
    when it is longer than the interpreter converts (sys.get_int_max_str_digits)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long", pos) from None


def _factor(text: str, index: Mapping[str, int]) -> tuple[int, Rat]:
    """(variable index, exponent) for a power of a variable, (-1, value) for
    a coefficient; ``text`` is one factor with its blanks.

    A ParseError, positioned within ``text``, names the first token where the
    grammar fails: the factor ends where the text does.
    """
    if text.isdigit() and text.isascii():
        # a bare integer coefficient, the commonest factor, needs no match
        return -1, _int_literal(text, 0)
    m = _FACTOR_RE.match(text)
    num, den, name, exp = m.groups()
    end = m.end()
    if num is not None:
        result = (-1, _int_literal(num, m.start(1)))
        if den is not None:
            where = m.start(2)
            if not den:
                raise ParseError("expected integer denominator", where)
            d = _int_literal(den, where)
            if d == 0:
                raise ParseError("zero denominator", where)
            result = (-1, normalize(Fraction(result[1], d)))
        elif text.startswith("^", end):
            raise ParseError("exponents apply to variables, not coefficients", end)
    elif name is not None:
        if name not in index:
            raise ParseError(f"unknown variable {name!r}", m.start(3))
        if exp == "":
            raise ParseError("exponent must be a non-negative integer literal", m.start(4))
        result = (index[name], 1 if exp is None else _int_literal(exp, m.start(4)))
    else:
        raise ParseError("expected a coefficient or variable", end)
    if end < len(text):
        raise ParseError("expected '+' or '-' between terms", end)
    return result


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse polynomial text over the given ordered variable names.

    Grammar: terms joined by '+'/'-'; a term is '*'-separated factors, each
    an integer, an 'a/b' rational, or a variable with an optional '^exp'
    where exp is a non-negative integer literal.  An omitted coefficient
    means 1 and an omitted exponent means 1; whitespace is insignificant.

    The text is split at its signs and each term at its '*'s; every distinct
    factor text is resolved once per call (``_factor``), so a term costs a
    dict lookup per factor.  Errors carry the offset of the offending token,
    and a character no token accepts is reported before any other error.
    """
    names = validate_variable_names(variables)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    stray = _STRAY_RE.search(text)
    if stray is not None:
        raise ParseError(f"unexpected character {stray.group()!r}", stray.start())
    if not text.strip():
        raise ParseError("empty polynomial text", 0)
    pieces = _SIGN_RE.split(text)  # term, sign, term, ..., sign, term
    seen: dict = {}  # factor text -> _factor's result
    terms: dict = {}
    # a blank first term is a leading sign
    for k in range(0 if pieces[0].strip() else 2, len(pieces), 2):
        coeff: Rat = -1 if k and "-" in pieces[k - 1] else 1
        exps = [0] * n
        factors = pieces[k].split("*")
        for f in factors:
            r = seen.get(f)
            if r is None:
                try:
                    r = seen[f] = _factor(f, index)
                except ParseError as exc:
                    # f is new to this call, so this is its first place in the term
                    j = factors.index(f)
                    at = sum(map(len, pieces[:k])) + j + sum(map(len, factors[:j]))
                    raise ParseError(exc.message, at + exc.position) from None
            i, v = r
            if i < 0:
                coeff *= v
            else:
                exps[i] += v
        mono = tuple(exps)
        s = terms.get(mono, 0) + coeff
        if s:
            terms[mono] = normalize(s) if type(s) is Fraction else s
        else:
            terms.pop(mono, None)
    return Polynomial._raw(n, terms)


def render_canonical(p: Polynomial, variables: Sequence[str]) -> str:
    """Deterministic text form: graded-lex term order, lowest-terms coefficients."""
    names = validate_variable_names(variables)
    if len(names) != p.n:
        raise DimensionMismatch(
            f"{len(names)} variable names for ambient dimension {p.n}"
        )
    if p.is_zero():
        return "0"
    powers: dict = {}  # (i, e) -> variable i to the power e, for the pairs that occur
    pieces = []  # sign, term, sign, term, ...
    for mono, coeff in p.terms():
        factors = []
        for i, e in enumerate(mono):
            if e:
                s = powers.get((i, e))
                if s is None:
                    s = powers[i, e] = names[i] if e == 1 else f"{names[i]}^{e}"
                factors.append(s)
        pieces.append("-" if coeff < 0 else "+")
        coeff = abs(coeff)
        if coeff != 1 or not factors:
            factors.insert(0, rat_str(coeff))
        pieces.append("*".join(factors))
    # the first sign has no blank after it, and a leading '+' is dropped
    return ("-" if pieces[0] == "-" else "") + " ".join(pieces[1:])


def substitute_linear(
    p: Polynomial | Sequence[Polynomial],
    m: RatMatrix,
    blocks: Sequence[tuple[int, int]] | None = None,
):
    """Expand p(M y) for an n x k matrix M, as a polynomial in k variables y.

    ``p`` may also be a sequence of polynomials in the same n variables, for
    a list of results from one expansion.  With ``blocks``, one or more
    column ranges (start, stop) of M, a result is instead one polynomial per
    block in its own variables, p(M_B y_B) - p(0) for block B's columns M_B,
    with p(0) in the first block: no monomial that mixes blocks is formed.

    Each old variable i becomes the linear form row i of M, times the lcm
    d_i of its denominators, as an int form.  A monomial in y is packed into
    the int sum_j e_j * B^j, B = deg + 1: no exponent exceeds deg, so adding
    packed ints multiplies monomials with no carry.  Term c * x^e is a
    partial term keyed by the x-factors it has left, e_i in the s-bit field
    i with 2^s > deg, and by its y-monomial, with an int coefficient over
    the common denominator L of den(c) * prod d_i^e_i in its polynomial.
    Several polynomials share one coefficient as signed digits t bits apart
    (Kronecker substitution), t two bits past the largest sum of
    |numerator| * prod |row i|_1^e_i, which bounds every output numerator.
    Each round multiplies every partial term by the form of its top field's
    variable, and terms whose keys then agree are summed (sum
    factorization), until no factor is left; each output digit is divided
    by its L once (an int when exact).
    """
    single = isinstance(p, Polynomial)
    polys = [p] if single else list(p)
    for f in polys:
        if m.rows != f.n:
            raise DimensionMismatch(
                f"substitution matrix is {m.rows}x{m.cols}, ambient dimension is {f.n}"
            )
    if blocks is not None and not (blocks and all(0 <= a < b <= m.cols for a, b in blocks)):
        raise ValueError(f"blocks must be one or more column ranges 0 <= start < stop <= {m.cols}")
    degree = max((f.total_degree() for f in polys), default=0)
    base = degree + 1
    width = degree.bit_length()
    rows, dens = zip(*(_cleared(m.row(i)) for i in range(m.rows)))
    norms = [sum(map(abs, row)) for row in rows] if len(polys) > 1 else None
    commons, numerators, shift = [], [], 0
    for f in polys:
        terms = []  # (x-factors left, numerator, denominator, prod |row i|_1^e_i)
        for mono, c in f._terms.items():
            num, d = (c.numerator, c.denominator) if type(c) is Fraction else (c, 1)
            left, norm = 0, 1
            for i, e in enumerate(mono):
                if e:
                    left |= e << (width * i)
                    d *= dens[i] ** e
                    if norms:
                        norm *= norms[i] ** e
            terms.append((left, num, d, norm))
        common = lcm(*(d for _, _, d, _ in terms))
        terms = [(left, num * (common // d), norm) for left, num, d, norm in terms]
        if norms:
            shift = max(shift, sum(abs(a) * norm for _, a, norm in terms).bit_length() + 2)
        commons.append(common)
        numerators.append(terms)
    packed: dict = {}  # x-factors left -> the polynomials' numerators as digits
    for t, terms in enumerate(numerators):
        for left, a, _ in terms:
            packed[left] = packed.get(left, 0) + (a << (shift * t))
    constant = packed.pop(0, 0)
    mask, half = (1 << shift) - 1, (1 << shift) >> 1
    results: list[list[Polynomial]] = [[] for _ in polys]
    for b, (start, stop) in enumerate([(0, m.cols)] if blocks is None else blocks):
        forms = [[(base**j, v) for j, v in enumerate(row[start:stop]) if v] for row in rows]
        # x-factors left -> {packed y-monomial: packed numerators}
        level = {left: {0: v} for left, v in packed.items()}
        done = {0: constant} if constant and b == 0 else {}
        while level:
            following = {0: done}
            for left, ys in level.items():
                i = (left.bit_length() - 1) // width
                acc = following.setdefault(left - (1 << (width * i)), {})
                for ky, vy in ys.items():
                    for kf, vf in forms[i]:
                        key = ky + kf
                        acc[key] = acc.get(key, 0) + vy * vf
            done = following.pop(0)
            level = following
        outs: list[dict] = [{} for _ in polys]
        for key, v in done.items():
            mono = []
            for _ in range(stop - start):
                key, e = divmod(key, base)
                mono.append(e)
            mono = tuple(mono)
            for t, common in enumerate(commons):  # signed digits, lowest first
                digit = ((v + half) & mask) - half if t < len(commons) - 1 else v
                v = (v - digit) >> shift
                if digit:
                    outs[t][mono] = _ratio(digit, common)
        for out, result in zip(outs, results):
            result.append(Polynomial._raw(stop - start, out))
    if blocks is None:
        results = [result[0] for result in results]
    return results[0] if single else results


def embed(p: Polynomial, positions: Sequence[int], n: int) -> Polynomial:
    """Place a k-variable polynomial at ``positions`` of n variables."""
    positions = list(positions)
    if len(positions) != p.n:
        raise DimensionMismatch("positions length must equal ambient dimension")
    out: dict = {}
    for mono, c in p._terms.items():
        full = [0] * n
        for i, e in zip(positions, mono):
            full[i] = e
        out[tuple(full)] = c
    return Polynomial._raw(n, out)
