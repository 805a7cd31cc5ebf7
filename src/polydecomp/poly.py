"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in ``n`` variables maps exponent tuples of length ``n`` to
nonzero rational coefficients.  Coefficients are plain ``int`` when integral
and ``fractions.Fraction`` otherwise, so arithmetic is exact and equality
tests are reliable.  The module also provides the text surface (parser and
canonical renderer), formal differentiation, symbolic Hessians (for the
brute-force center oracle), and linear changes of variables.

A linear change of variables p(M y), most of a decomposition's arithmetic,
bypasses ``Polynomial`` products: it multiplies monomials packed into ints
in base deg p + 1, walks the terms of p in lex order with a stack of prefix
products, and sums over one common denominator (see ``substitute_linear``).

Term iteration exposed to callers is always graded-lexicographic: higher
total degree first, ties broken by the exponent vector with the first
variable most significant.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from ._rat import Rat, normalize, rat_str, to_rat
from .errors import DimensionMismatch, ParseError
from .ratlinalg import RatMatrix, _cleared

Monomial = tuple  # tuple[int, ...], one exponent per variable

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def grlex_key(mono: Monomial) -> tuple:
    """Sort key: ascending order under this key is graded-lex descending."""
    return (-sum(mono), tuple(-e for e in mono))


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
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]))

    def coefficient(self, mono: Sequence[int]) -> Rat:
        return self._terms.get(tuple(mono), 0)

    def num_terms(self) -> int:
        return len(self._terms)

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

    def partial_derivative(self, index: int) -> "Polynomial":
        if not 0 <= index < self.n:
            raise IndexError(f"variable index {index} out of range for n={self.n}")
        out: dict = {}
        for mono, c in self._terms.items():
            e = mono[index]
            if e:
                lowered = mono[:index] + (e - 1,) + mono[index + 1 :]
                out[lowered] = c * e
        return Polynomial._raw(self.n, out)

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.n)]
        return f"Polynomial({self.n}: {render_canonical(self, names)})"


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[+\-*/^])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


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


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse polynomial text over the given ordered variable names.

    Grammar: terms joined by '+'/'-'; a term is '*'-separated factors, each
    an integer, an 'a/b' rational, or a variable with an optional '^exp'
    where exp is a non-negative integer literal.  An omitted coefficient
    means 1 and an omitted exponent means 1; whitespace is insignificant.
    """
    names = validate_variable_names(variables)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text", 0)
    k = 0

    def peek():
        return tokens[k] if k < len(tokens) else (None, None, len(text))

    def parse_factor(coeff: Rat, exps: list[int]) -> Rat:
        nonlocal k
        kind, value, pos = peek()
        if kind == "int":
            k += 1
            num = _int_literal(value, pos)
            nkind, nvalue, npos = peek()
            if nkind == "op" and nvalue == "/":
                k += 1
                dkind, dvalue, dpos = peek()
                if dkind != "int":
                    raise ParseError("expected integer denominator", dpos)
                k += 1
                den = _int_literal(dvalue, dpos)
                if den == 0:
                    raise ParseError("zero denominator", dpos)
                return normalize(coeff * Fraction(num, den))
            if nkind == "op" and nvalue == "^":
                raise ParseError("exponents apply to variables, not coefficients", npos)
            return coeff * num
        if kind == "name":
            k += 1
            if value not in index:
                raise ParseError(f"unknown variable {value!r}", pos)
            exp = 1
            nkind, nvalue, npos = peek()
            if nkind == "op" and nvalue == "^":
                k += 1
                ekind, evalue, epos = peek()
                if ekind != "int":
                    raise ParseError(
                        "exponent must be a non-negative integer literal", epos
                    )
                k += 1
                exp = _int_literal(evalue, epos)
            exps[index[value]] += exp
            return coeff
        raise ParseError("expected a coefficient or variable", pos)

    terms: dict = {}
    sign = 1
    kind, value, _ = peek()
    if kind == "op" and value in "+-":
        sign = -1 if value == "-" else 1
        k += 1
    while True:
        coeff: Rat = sign
        exps = [0] * n
        coeff = parse_factor(coeff, exps)
        while True:
            kind, value, pos = peek()
            if kind == "op" and value == "*":
                k += 1
                coeff = parse_factor(coeff, exps)
            else:
                break
        mono = tuple(exps)
        s = terms.get(mono, 0) + coeff
        if s:
            terms[mono] = normalize(s) if isinstance(s, Fraction) else s
        else:
            terms.pop(mono, None)
        kind, value, pos = peek()
        if kind is None:
            break
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            k += 1
            continue
        raise ParseError("expected '+' or '-' between terms", pos)
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
    pieces = []
    for i, (mono, coeff) in enumerate(p.terms()):
        negative = coeff < 0
        mag = -coeff if negative else coeff
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = rat_str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([rat_str(mag)] + factors)
        if i == 0:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


def substitute_linear(p: Polynomial, m: RatMatrix) -> Polynomial:
    """Expand p(M y) for an n x k matrix M, as a polynomial in k variables y.

    Each old variable i becomes the linear form row i of M.  A monomial in y
    is packed into the int sum_j e_j * B^j, B = deg p + 1.
    Every product formed is part of one term's expansion, of degree at most
    deg p, so no exponent reaches B and adding packed ints multiplies
    monomials with no carry.  Row i of M times the lcm d_i of its
    denominators is an integer form {packed: int}; its powers are cached.
    Terms of p are walked in lex order with stack[j] the product of the
    powers for variables 0..j-1: terms sharing a prefix are adjacent, so
    each prefix product is formed once per run.  Term c * x^e is summed as
    an int over the common denominator L of all den(c) * prod d_i^e_i, and
    each output coefficient is divided by L once (int when exact).
    """
    if m.rows != p.n:
        raise DimensionMismatch(
            f"substitution matrix is {m.rows}x{m.cols}, ambient dimension is {p.n}"
        )
    n, k = p.n, m.cols
    if not p._terms:
        return Polynomial.zero(k)
    base = p.total_degree() + 1
    dens = []
    powers = []  # powers[i][e]: integer form of row i to the e-th power
    for i in range(n):
        row, d = _cleared(m.row(i))
        form = {base**j: v for j, v in enumerate(row) if v}
        dens.append(d)
        powers.append([{0: 1}, form])
    terms = sorted(p._terms.items())
    term_dens = []
    for mono, c in terms:
        d = c.denominator if type(c) is Fraction else 1
        for i, e in enumerate(mono):
            if e and dens[i] != 1:
                d *= dens[i] ** e
        term_dens.append(d)
    common = lcm(*term_dens)
    acc: dict = {}
    stack = [{0: 1}] * (n + 1)
    previous: Monomial = ()
    for (mono, c), d in zip(terms, term_dens):
        # entries up to the first exponent that differs from the last term's
        # are still the products this term needs
        j = 0
        while j < len(previous) and mono[j] == previous[j]:
            j += 1
        for i in range(j, n):
            e = mono[i]
            if not e:
                stack[i + 1] = stack[i]
                continue
            cache = powers[i]
            while len(cache) <= e:
                cache.append(_times(cache[-1], cache[1]))
            stack[i + 1] = _times(stack[i], cache[e])
        previous = mono
        scale = (c.numerator if type(c) is Fraction else c) * (common // d)
        for key, v in stack[n].items():
            acc[key] = acc.get(key, 0) + scale * v
    out = {}
    for key, v in acc.items():
        if not v:
            continue
        mono = []
        for _ in range(k):
            key, e = divmod(key, base)
            mono.append(e)
        out[tuple(mono)] = v // common if v % common == 0 else Fraction(v, common)
    return Polynomial._raw(k, out)


def _times(a: dict, b: dict) -> dict:
    """Product of two polynomials held as {packed monomial: int}."""
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + va * vb
    return out


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
