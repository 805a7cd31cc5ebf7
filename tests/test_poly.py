"""Polynomial arithmetic, parsing, rendering, calculus, and substitution."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.rings import ring

from algebra_helpers import hessian, parse_by_tokens, partial_derivative, substitute_one
from conftest import (
    BIN_CUBIC_1,
    BIN_CUBIC_G1,
    BIN_CUBIC_G2,
    BIN_CUBIC_P,
    BIN_CUBIC_VARS,
    FOURVAR_G1,
    FOURVAR_P,
    FOURVAR_VARS,
    mat,
)
from polydecomp import (
    DimensionMismatch,
    ParseError,
    Polynomial,
    RatMatrix,
    parse_polynomial,
    render_canonical,
    substitute_linear,
)
import polydecomp.poly
from polydecomp.poly import embed
from polydecomp.ratlinalg import invert


def rand_poly(rng, n, max_degree=3, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_degree) for _ in range(n))
        if sum(mono) > max_degree:
            continue
        terms[mono] = rng.randint(-9, 9)
    return Polynomial(n, terms)


class TestParse:
    def test_zero(self):
        p = parse_polynomial("0", ["x", "y"])
        assert p.is_zero()
        assert len(p.terms()) == 0

    def test_three_term_quartic(self):
        p = parse_polynomial("x^4 + y^2 + z^2", ["x", "y", "z"])
        assert len(p.terms()) == 3
        assert sorted(sum(m) for m, _ in p.terms()) == [2, 2, 4]

    def test_nine_term_cubic(self):
        p = parse_polynomial(BIN_CUBIC_1, BIN_CUBIC_VARS)
        assert len(p.terms()) == 9
        assert p.total_degree() == 3

    def test_rational_coefficients(self):
        p = parse_polynomial("1/2*x + 3/4", ["x"])
        assert p.coefficient((1,)) == Fraction(1, 2)
        assert p.coefficient((0,)) == Fraction(3, 4)

    def test_implicit_coefficient_and_exponent(self):
        p = parse_polynomial("x*y - y", ["x", "y"])
        assert p.coefficient((1, 1)) == 1
        assert p.coefficient((0, 1)) == -1

    def test_repeated_variable_multiplies(self):
        p = parse_polynomial("x*x*x", ["x"])
        assert p.coefficient((3,)) == 1

    def test_like_terms_collect(self):
        p = parse_polynomial("x + x - 2*x", ["x"])
        assert p.is_zero()

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_polynomial("x + w", ["x", "y"])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError, match="non-negative integer"):
            parse_polynomial("x^-2", ["x"])

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("x + + y", ["x", "y"])
        assert info.value.position == 4

    def test_stray_character(self):
        with pytest.raises(ParseError):
            parse_polynomial("x @ y", ["x", "y"])

    @pytest.mark.parametrize(
        "template, position",
        [("{}*x", 0), ("x + 1/{}", 6), ("x^{}", 2)],
        ids=["coefficient", "denominator", "exponent"],
    )
    def test_overlong_literal_carries_position(self, template, position, int_digit_limit):
        digits = int_digit_limit + 1
        for parse in (parse_polynomial, parse_by_tokens):
            with pytest.raises(ParseError) as info:
                parse(template.format("7" * digits), ["x"])
            assert str(info.value) == (
                f"integer literal of {digits} digits is too long (at position {position})"
            )
            assert info.value.position == position

    def test_exponent_on_coefficient_rejected(self):
        with pytest.raises(ParseError, match="coefficients"):
            parse_polynomial("2^3*x", ["x"])

    def test_bad_variable_names(self):
        with pytest.raises(ValueError):
            parse_polynomial("x", [])
        with pytest.raises(ValueError):
            parse_polynomial("x", ["x", "x"])
        with pytest.raises(ValueError):
            parse_polynomial("x", ["2bad"])


# (text, message, position) over variables x and y.  The positions are
# character offsets of the offending token; a stray character is reported
# before any syntax error, wherever it stands.
PARSE_ERRORS = [
    ("", "empty polynomial text", 0),
    ("   ", "empty polynomial text", 0),
    ("+", "expected a coefficient or variable", 1),
    ("-", "expected a coefficient or variable", 1),
    ("x +", "expected a coefficient or variable", 3),
    ("x*", "expected a coefficient or variable", 2),
    ("x + + y", "expected a coefficient or variable", 4),
    ("x y", "expected '+' or '-' between terms", 2),
    ("2x", "expected '+' or '-' between terms", 1),
    ("x^-2", "exponent must be a non-negative integer literal", 2),
    ("2^3*x", "exponents apply to variables, not coefficients", 1),
    ("1/x", "expected integer denominator", 2),
    ("1/0*x", "zero denominator", 2),
    ("x @ y", "unexpected character '@'", 2),
    ("x + + y @", "unexpected character '@'", 8),
    ("w", "unknown variable 'w'", 0),
    ("--x", "expected a coefficient or variable", 1),
    ("1/2^3", "expected '+' or '-' between terms", 3),
    ("x^2^3", "expected '+' or '-' between terms", 3),
    ("2 ^3", "exponents apply to variables, not coefficients", 2),
    ("x^*y", "exponent must be a non-negative integer literal", 2),
    ("x + 2 3", "expected '+' or '-' between terms", 6),
]


class TestParseErrors:
    @pytest.mark.parametrize("text, message, position", PARSE_ERRORS)
    def test_message_and_position(self, text, message, position):
        for parse in (parse_polynomial, parse_by_tokens):
            with pytest.raises(ParseError) as info:
                parse(text, ["x", "y"])
            assert str(info.value) == f"{message} (at position {position})"
            assert info.value.position == position

    def test_spaced_input(self):
        expected = Polynomial(2, {(3, 0): Fraction(1, 2)})
        assert parse_polynomial("1 / 2 * x ^ 3", ["x", "y"]) == expected
        assert parse_by_tokens("1 / 2 * x ^ 3", ["x", "y"]) == expected

    def test_unicode_digits_are_digits(self):
        # '٣' is ARABIC-INDIC DIGIT THREE; the grammar's digits are \d
        for parse in (parse_polynomial, parse_by_tokens):
            assert parse("٣*x^٣", ["x", "y"]) == Polynomial(2, {(3, 0): 3})

    def test_bare_integer_coefficients_skip_the_factor_pattern(self, monkeypatch):
        # a factor of ASCII digits alone is read by int(); one with blanks,
        # non-ASCII digits, a '/' or a name still takes the pattern
        matched = []

        class Recording:
            def match(self, text):
                matched.append(text)
                return pattern.match(text)

        pattern = polydecomp.poly._FACTOR_RE
        monkeypatch.setattr(polydecomp.poly, "_FACTOR_RE", Recording())
        text = "12*x - 007*y + 3 - ٣*x*y + \u00a05\u00a0*y^2 + ４２ + 1/2*x^2 - 0*x*y"
        expected = parse_by_tokens(text, ["x", "y"])
        assert expected == Polynomial(
            2, {(1, 0): 12, (0, 1): -7, (0, 0): 45, (1, 1): -3, (0, 2): 5, (2, 0): Fraction(1, 2)}
        )
        assert parse_polynomial(text, ["x", "y"]) == expected
        # the signs take the blanks after them; "12", "007" and "0" are bare
        assert sorted(matched) == sorted(
            ["x ", "y ", "3 ", "٣", "x", "5\u00a0", "y^2 ", "４２ ", "1/2", "x^2 ", "y"]
        )

    @pytest.mark.parametrize("text, position", [("x+{}*y", 2), ("x - 2*{}", 6)])
    def test_overlong_bare_coefficient_carries_position(self, text, position, int_digit_limit):
        digits = int_digit_limit + 1
        for parse in (parse_polynomial, parse_by_tokens):
            with pytest.raises(ParseError) as info:
                parse(text.format("9" * digits), ["x", "y"])
            assert str(info.value) == (
                f"integer literal of {digits} digits is too long (at position {position})"
            )


_PIECES = ["0", "1", "2", "12", "007", "٣", "x", "y", "w", "x_1", "+", "-", "*", "/", "^", "@"]
_SPACE = st.sampled_from(["", "", "", " ", "  ", "\t", "\u00a0"])
_FACTORS = ["0", "2", "12", "3/4", "6/3", "x", "y", "x^2", "y^0", "x^3", "٣"]


@st.composite
def token_soup(draw):
    pieces = draw(st.lists(st.sampled_from(_PIECES), max_size=14))
    return "".join(draw(_SPACE) + p for p in pieces) + draw(_SPACE)


@st.composite
def well_formed(draw):
    def spaced(piece):
        return draw(_SPACE) + piece + draw(_SPACE)

    def term():
        factors = draw(st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=4))
        # blanks may also stand around the '/' and '^' inside a factor
        factors = [f.replace("/", spaced("/")).replace("^", spaced("^")) for f in factors]
        return "*".join(spaced(f) for f in factors)

    text = draw(st.sampled_from(["", "-", "+"])) + term()
    for _ in range(draw(st.integers(0, 6))):
        text += draw(st.sampled_from(["+", "-"])) + term()
    return text


def _outcome(parse, text):
    try:
        return parse(text, ["x", "y", "x_1"])
    except ParseError as exc:
        return (str(exc), exc.position)


class TestParseOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(token_soup(), well_formed()))
    def test_matches_token_parser(self, text):
        assert _outcome(parse_polynomial, text) == _outcome(parse_by_tokens, text)

    @settings(max_examples=100, deadline=None)
    @given(well_formed())
    def test_well_formed_text_parses(self, text):
        assert isinstance(_outcome(parse_polynomial, text), Polynomial)


class TestRender:
    def test_zero(self):
        assert render_canonical(Polynomial.zero(2), ["x", "y"]) == "0"

    def test_grlex_ordering(self):
        p = parse_polynomial("y^2 + x^4 + z^2", ["x", "y", "z"])
        assert render_canonical(p, ["x", "y", "z"]) == "x^4 + y^2 + z^2"

    def test_mixed_signs_fixed_point(self):
        text = "2*x2^3 + 2*x1^2 - 3*x1 - 2*x2 + 1"
        p = parse_polynomial(text, ["x1", "x2"])
        assert render_canonical(p, ["x1", "x2"]) == text

    def test_unit_and_negative_unit_coefficients(self):
        p = parse_polynomial("-x^2 + y - 1", ["x", "y"])
        assert render_canonical(p, ["x", "y"]) == "-x^2 + y - 1"

    def test_fraction_rendering(self):
        p = parse_polynomial("1/2*x - 3/2", ["x"])
        assert render_canonical(p, ["x"]) == "1/2*x - 3/2"

    def test_render_parse_render_is_identity(self):
        rng = random.Random(101)
        names = ["a", "b", "c"]
        for _ in range(40):
            p = rand_poly(rng, 3)
            once = render_canonical(p, names)
            again = render_canonical(parse_polynomial(once, names), names)
            assert once == again

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            render_canonical(Polynomial.zero(2), ["x"])

    def test_huge_exponent_renders_per_term(self):
        # the work follows the terms, not the degree: x^(10^9) is one string
        names = ["x", "y"]
        p = Polynomial(2, {(10**9, 0): 1, (2, 5): Fraction(1, 2), (0, 1): -3})
        text = "x^1000000000 + 1/2*x^2*y^5 - 3*y"
        assert render_canonical(p, names) == text
        assert parse_polynomial(text, names) == p
        assert repr(p) == "Polynomial(2: x0^1000000000 + 1/2*x0^2*x1^5 - 3*x1)"

    def test_terms_order_is_the_old_grlex_key(self):
        def grlex_key(mono):
            # ascending order under this key is graded-lex descending
            return (-sum(mono), tuple(-e for e in mono))

        rng = random.Random(202)
        for _ in range(60):
            p = rand_poly(rng, rng.randint(1, 4), max_degree=5, max_terms=12)
            assert p.terms() == sorted(p._terms.items(), key=lambda kv: grlex_key(kv[0]))


class TestArithmetic:
    def test_additive_inverse(self):
        rng = random.Random(7)
        for _ in range(20):
            p = rand_poly(rng, 2)
            assert (p + (-p)).is_zero()

    def test_difference_of_squares(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        assert (x + y) * (x - y) == x * x - y * y

    def test_sum_of_decomposed_outputs(self):
        # adding the two diagonalized outputs collapses their shared terms
        g1 = parse_polynomial(BIN_CUBIC_G1, ["x1", "x2"])
        g2 = parse_polynomial(BIN_CUBIC_G2, ["x1", "x2"])
        expected = parse_polynomial("-4*x1^2 + 6*x1 + x2^3 - x2 - 2", ["x1", "x2"])
        assert g1 + g2 == expected

    def test_ring_axioms_random(self):
        rng = random.Random(13)
        for _ in range(25):
            p, q, r = (rand_poly(rng, 2) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_scalar_operations(self):
        p = parse_polynomial("x + 1", ["x"])
        assert p.scale(Fraction(1, 2)) == parse_polynomial("1/2*x + 1/2", ["x"])
        assert 3 * p == parse_polynomial("3*x + 3", ["x"])
        assert (p + 1) == parse_polynomial("x + 2", ["x"])

    def test_power(self):
        x = Polynomial.variable(1, 0)
        assert (x + 1) ** 3 == parse_polynomial("x^3 + 3*x^2 + 3*x + 1", ["x"])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Polynomial.zero(2) + Polynomial.zero(3)


class TestCalculus:
    def test_power_rule(self):
        p = parse_polynomial("x^4", ["x", "y"])
        assert partial_derivative(p, 0) == parse_polynomial("4*x^3", ["x", "y"])

    def test_constant_derivative(self):
        assert partial_derivative(Polynomial.constant(2, 5), 0).is_zero()

    def test_second_partial_matches_known_hessian_entry(self):
        f1 = parse_polynomial(BIN_CUBIC_1, BIN_CUBIC_VARS)
        twice = partial_derivative(partial_derivative(f1, 0), 0)
        assert twice == parse_polynomial("324*u1 - 108*u2 + 16", BIN_CUBIC_VARS)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            partial_derivative(Polynomial.zero(2), 2)

    def test_hessian_diagonal_quartic(self):
        h = hessian(parse_polynomial("x^4 + y^2 + z^2", ["x", "y", "z"]))
        names = ["x", "y", "z"]
        assert render_canonical(h[0][0], names) == "12*x^2"
        assert h[1][1] == Polynomial.constant(3, 2)
        assert h[2][2] == Polynomial.constant(3, 2)
        assert all(
            h[r][c].is_zero() for r in range(3) for c in range(3) if r != c
        )

    def test_hessian_of_affine_is_zero(self):
        h = hessian(parse_polynomial("3*x - y + 7", ["x", "y"]))
        assert all(entry.is_zero() for row in h for entry in row)

    def test_hessian_full_matrix(self):
        f2 = parse_polynomial(
            "-27*u1^3 + 27*u1^2*u2 - 24*u1^2 - 9*u1*u2^2 - 48*u1*u2 - 15*u1"
            " + u2^3 - 24*u2^2 - 19*u2 - 3",
            BIN_CUBIC_VARS,
        )
        h = hessian(f2)
        expect = [
            ["-162*u1 + 54*u2 - 48", "54*u1 - 18*u2 - 48"],
            ["54*u1 - 18*u2 - 48", "-18*u1 + 6*u2 - 48"],
        ]
        for r in range(2):
            for c in range(2):
                assert render_canonical(h[r][c], BIN_CUBIC_VARS) == expect[r][c]

    def test_mixed_partials_commute(self):
        rng = random.Random(23)
        for _ in range(20):
            p = rand_poly(rng, 3, max_degree=4)
            for i in range(3):
                for j in range(3):
                    a = partial_derivative(partial_derivative(p, i), j)
                    b = partial_derivative(partial_derivative(p, j), i)
                    assert a == b

    def test_hessian_symmetry(self):
        rng = random.Random(29)
        for _ in range(10):
            h = hessian(rand_poly(rng, 3, max_degree=4))
            assert all(h[r][c] == h[c][r] for r in range(3) for c in range(3))


class TestSubstitution:
    def test_identity(self):
        rng = random.Random(31)
        for _ in range(10):
            p = rand_poly(rng, 3)
            assert substitute_linear(p, RatMatrix.identity(3)) == p

    def test_known_diagonalization(self):
        f1 = parse_polynomial(BIN_CUBIC_1, BIN_CUBIC_VARS)
        g1 = substitute_linear(f1, mat(BIN_CUBIC_P))
        assert render_canonical(g1, ["x1", "x2"]) == BIN_CUBIC_G1

    def test_known_fourvar_output(self):
        from conftest import FOURVAR_1

        f1 = parse_polynomial(FOURVAR_1, FOURVAR_VARS)
        g1 = substitute_linear(f1, mat(FOURVAR_P))
        assert render_canonical(g1, ["y1", "y2", "y3", "y4"]) == FOURVAR_G1

    def test_round_trip_with_inverse(self):
        rng = random.Random(37)
        for _ in range(12):
            p = rand_poly(rng, 3)
            while True:
                m = RatMatrix(3, 3, [rng.randint(-3, 3) for _ in range(9)])
                try:
                    m_inv = invert(m)
                    break
                except Exception:
                    continue
            assert substitute_linear(substitute_linear(p, m), m_inv) == p

    def test_degree_preserved_under_invertible_substitution(self):
        f1 = parse_polynomial(BIN_CUBIC_1, BIN_CUBIC_VARS)
        g1 = substitute_linear(f1, mat(BIN_CUBIC_P))
        assert g1.total_degree() == f1.total_degree()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            substitute_linear(Polynomial.zero(3), RatMatrix.identity(2))


def sympy_substitute(p, m):
    """Oracle: p(M y) expanded in sympy's sparse polynomial ring over QQ."""
    R, *ys = ring(sympy.symbols(f"y0:{m.cols}"), QQ)

    def q(x):
        return QQ(x.numerator, x.denominator)

    forms = [
        sum((q(m.entry(i, j)) * y for j, y in enumerate(ys)), R.zero)
        for i in range(p.n)
    ]
    total = R.zero
    for mono, c in p.terms():
        term = R(q(c))
        for form, e in zip(forms, mono):
            if e:  # the ring refuses 0**0
                term *= form**e
        total += term
    out = {}
    for mono, c in dict(total).items():
        r = QQ.to_sympy(c)
        out[mono] = int(r.p) if r.q == 1 else Fraction(int(r.p), int(r.q))
    return out


def assert_matches_sympy(p, m):
    got = substitute_linear(p, m)
    expected = sympy_substitute(p, m)
    assert got == Polynomial(m.cols, expected)
    # integral coefficients are ints, the rest Fractions, as the oracle's
    assert {k: type(v) for k, v in got._terms.items()} == {
        k: type(v) for k, v in expected.items()
    }


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def substitutions(draw):
    """p in n variables and an n x k M, k <= n + 2.

    Up to 24 terms, so partial terms of the expansion merge; k > n as when
    the verifier expands a block on its rows of an inverse."""
    n = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 5))
    monomial = st.tuples(*[st.integers(0, degree)] * n).filter(
        lambda mono: sum(mono) <= degree
    )
    coeff = small_rationals if draw(st.booleans()) else st.integers(-9, 9)
    p = Polynomial(n, draw(st.dictionaries(monomial, coeff, max_size=24)))
    k = draw(st.integers(1, n + 2))
    rows = [draw(st.lists(small_rationals, min_size=k, max_size=k)) for _ in range(n)]
    kind = draw(st.sampled_from(["random", "repeated row", "zero row", "zero column"]))
    if kind == "zero column":
        # a y variable that no old variable uses
        column = draw(st.integers(0, k - 1))
        for row in rows:
            row[column] = 0
    elif kind != "random":
        # a rank-deficient M: one row equal to another or to zero
        target = draw(st.integers(0, n - 1))
        source = draw(st.integers(0, n - 1))
        rows[target] = rows[source] if kind == "repeated row" else [0] * k
    return p, RatMatrix.from_rows(rows)


class TestSubstitutionOracle:
    @settings(max_examples=150, deadline=None)
    @given(substitutions())
    def test_random(self, case):
        assert_matches_sympy(*case)

    def test_fewer_columns(self):
        # a 3 x 2 M: the output is in two variables, with fractions and ints
        m = mat([[1, Fraction(1, 2)], [Fraction(-2, 3), 0], [0, 3]])
        p = parse_polynomial("x^3 + 2*x*y*z - z^2 + 4*y + 1", ["x", "y", "z"])
        got = substitute_linear(p, m)
        assert got.n == 2
        assert_matches_sympy(p, m)

    def test_one_column(self):
        m = mat([[Fraction(3, 2)], [-1], [0]])
        p = parse_polynomial("x^2*y + y^3 - 5*z + 7/2", ["x", "y", "z"])
        got = substitute_linear(p, m)
        assert got == Polynomial(1, {(3,): Fraction(-13, 4), (0,): Fraction(7, 2)})
        assert_matches_sympy(p, m)

    def test_zero_columns(self):
        # columns of zeros: their variables appear in no output monomial
        m = mat([[0, 1, 0], [0, Fraction(1, 3), 0], [0, 2, 0]])
        p = parse_polynomial("x^2 + x*y*z + z - 3", ["x", "y", "z"])
        got = substitute_linear(p, m)
        assert all(mono[0] == mono[2] == 0 for mono, _ in got.terms())
        assert_matches_sympy(p, m)
        zero = RatMatrix.zeros(3, 2)
        assert substitute_linear(p, zero) == Polynomial.constant(2, -3)
        assert_matches_sympy(p, zero)

    def test_zero_polynomial(self):
        m = mat([[Fraction(1, 2), 3], [-1, Fraction(2, 3)]])
        assert substitute_linear(Polynomial.zero(2), m).is_zero()
        assert_matches_sympy(Polynomial.zero(2), m)

    @pytest.mark.parametrize("value", [7, Fraction(-3, 4)])
    def test_constants(self, value):
        for m in (mat([[2, 1], [1, Fraction(1, 3)]]), RatMatrix.zeros(2, 2)):
            assert substitute_linear(Polynomial.constant(2, value), m) == (
                Polynomial.constant(2, value)
            )

    def test_one_variable(self):
        p = Polynomial(1, {(3,): Fraction(2, 5), (1,): -1, (0,): 4})
        for entry in (Fraction(-7, 3), 2, 0):
            assert_matches_sympy(p, mat([[entry]]))

    @pytest.mark.parametrize("degree", range(13))
    def test_pure_powers_at_the_packing_boundary(self, degree):
        # every y-exponent of x_i^D can reach D, the largest digit of base D+1
        rng = random.Random(degree)
        m = RatMatrix(3, 3, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(9)])
        for i in (0, 2):
            mono = tuple(degree if k == i else 0 for k in range(3))
            assert_matches_sympy(Polynomial(3, {mono: 1}), m)
        diagonal = mat([[1, 0, 0], [0, 2, 0], [0, 0, Fraction(1, 3)]])
        got = substitute_linear(Polynomial(3, {(0, 0, degree): 1}), diagonal)
        assert got == Polynomial(3, {(0, 0, degree): Fraction(1, 3**degree)})

    def test_cancels_to_zero(self):
        # rows 0 and 1 of M agree, so x0 - x1 becomes 0 and so does every multiple
        m = mat([[1, Fraction(2, 3), 0], [1, Fraction(2, 3), 0], [0, 1, 5]])
        x0, x1, x2 = (Polynomial.variable(3, i) for i in range(3))
        for p in (x0 - x1, (x0 - x1) * (x2 * x2 + Fraction(1, 2)), x0**3 - x1**3):
            assert substitute_linear(p, m).is_zero()
            assert_matches_sympy(p, m)

    def test_integral_results_are_ints(self):
        # quarters that sum to integers come back as int, not Fraction(k, 1)
        m = mat([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)]])
        p = Polynomial(2, {(2, 0): 2, (0, 2): 2})
        got = substitute_linear(p, m)
        assert got == Polynomial(2, {(2, 0): 1, (0, 2): 1})
        assert all(type(c) is int for _, c in got.terms())
        assert_matches_sympy(p, m)


wide_integers = st.integers(-(1 << 200), 1 << 200)
COEFFICIENTS = {
    "small": st.integers(-9, 9),
    "fraction": st.one_of(
        small_rationals, st.builds(Fraction, wide_integers, st.integers(1, 1 << 64))
    ),
    "wide": wide_integers,
    # every numerator of one sign: with a nonnegative M the outputs can
    # reach the packing bound itself
    "negative": st.integers(-(1 << 200), -1),
}


@st.composite
def packed_cases(draw):
    """1-4 polynomials in n = 1..6 variables of degree <= 5, some zero or
    constant-only, an n x k M and 1-4 column blocks of it."""
    n = draw(st.integers(1, 6))
    degree = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(sorted(COEFFICIENTS)))
    monomial = st.tuples(*[st.integers(0, degree)] * n).filter(lambda mono: sum(mono) <= degree)
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["terms", "terms", "zero", "constant"]))
        if shape == "zero":
            polys.append(Polynomial.zero(n))
        elif shape == "constant":
            polys.append(Polynomial.constant(n, draw(COEFFICIENTS[kind].filter(bool))))
        else:
            terms = draw(st.dictionaries(monomial, COEFFICIENTS[kind], max_size=12))
            polys.append(Polynomial(n, terms))
    k = draw(st.integers(1, 6))
    if kind == "negative":
        entries = st.integers(0, 3)
    else:
        entries = st.one_of(st.integers(-3, 3), small_rationals)
    rows = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(n)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [0] * k
    cuts = draw(st.sets(st.integers(1, k - 1), max_size=3)) if k > 1 else set()
    stops = sorted(cuts) + [k]
    return polys, RatMatrix.from_rows(rows), list(zip([0, *stops], stops))


def term_types(polys):
    return [{mono: type(c) for mono, c in f.terms()} for f in polys]


class TestPackedExpansion:
    @settings(max_examples=200, deadline=None)
    @given(packed_cases())
    def test_matches_one_expansion_per_polynomial_and_block(self, case):
        # the oracle expands each polynomial on its own, and each block on
        # its own columns; the packed kernel does them all in one pass
        polys, m, blocks = case
        expected = [substitute_one(f, m) for f in polys]
        got = substitute_linear(polys, m)
        assert got == expected and term_types(got) == term_types(expected)
        assert substitute_linear(polys[0], m) == expected[0]
        rows = [m.row(r) for r in range(m.rows)]
        by_block = []
        for f in polys:
            pieces = []
            for b, (start, stop) in enumerate(blocks):
                columns = RatMatrix.from_rows([row[start:stop] for row in rows])
                g = substitute_one(f, columns)
                pieces.append(g if b == 0 else g - f.constant_term())
            by_block.append(pieces)
        got = substitute_linear(polys, m, blocks)
        assert got == by_block
        assert list(map(term_types, got)) == list(map(term_types, by_block))
        assert substitute_linear(polys[0], m, blocks) == by_block[0]

    def test_digits_at_the_bound(self):
        # a single-entry M sends each term to one output term of the same
        # size as the bound, so each digit is the bound itself, of either
        # sign, beside a neighbour that borrows from it
        for c in (-(1 << 200) - 1, (1 << 200) + 1, -3, 5):
            polys = [
                Polynomial(2, {(3, 0): c}),
                Polynomial(2, {(0, 2): -c, (0, 0): c}),
                Polynomial(2, {(1, 1): c}),
            ]
            m = mat([[3, 0], [0, 2]])
            assert substitute_linear(polys, m) == [substitute_one(f, m) for f in polys]
            assert substitute_linear(polys, m)[0] == Polynomial(2, {(3, 0): 27 * c})

    @pytest.mark.parametrize(
        "blocks", [[(0, 5)], [(1, 1)], [(2, 1)], [(-1, 2)], [(0, 1), (1, 3)], []]
    )
    def test_blocks_outside_the_columns_are_refused(self, blocks):
        # ranges past the last column, empty, reversed or negative, and no
        # range at all, would name results in the wrong number of variables
        # or drop the polynomial
        f = parse_polynomial("x^2 + x*y + 3", ["x", "y"])
        for p in (f, [f, f]):
            with pytest.raises(ValueError, match="column ranges"):
                substitute_linear(p, RatMatrix.identity(2), blocks)
        assert substitute_linear(f, RatMatrix.identity(2), [(0, 1), (1, 2)]) == [
            parse_polynomial("x^2 + 3", ["x"]),
            Polynomial.zero(1),
        ]


class TestRestrictEmbed:
    def test_round_trip(self):
        # substituting the unit columns at the positions restricts back
        p = parse_polynomial("x1^2*x2 + 3*x1 - 1", ["x1", "x2"])
        e = embed(p, [3, 1], 4)
        units = RatMatrix.from_columns([(0, 0, 0, 1), (0, 1, 0, 0)])
        assert substitute_linear(e, units) == p
