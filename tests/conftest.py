"""Shared fixtures: golden polynomial sets with known decompositions."""

import importlib.util
import os
import random
import sys
from fractions import Fraction

import pytest

from polydecomp import RatMatrix, generate, parse_polynomial, substitute_linear

# One line per acceptance criterion, printed after the run so the verdicts
# are visible even with output capture on.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# Two binary cubics that diagonalize simultaneously; the center, the unique
# nontrivial idempotent pair, the diagonalizing transform, and the exact
# outputs are all known in closed form.
BIN_CUBIC_VARS = ["u1", "u2"]
BIN_CUBIC_1 = (
    "54*u1^3 - 54*u1^2*u2 + 8*u1^2 + 18*u1*u2^2 + 16*u1*u2"
    " - 2*u2^3 + 8*u2^2 + 8*u2 + 1"
)
BIN_CUBIC_2 = (
    "-27*u1^3 + 27*u1^2*u2 - 24*u1^2 - 9*u1*u2^2 - 48*u1*u2 - 15*u1"
    " + u2^3 - 24*u2^2 - 19*u2 - 3"
)
BIN_CUBIC_P = [[Fraction(-1, 8), Fraction(1, 4)], [Fraction(-3, 8), Fraction(-1, 4)]]
BIN_CUBIC_EPS = (
    [[Fraction(1, 4), Fraction(1, 4)], [Fraction(3, 4), Fraction(3, 4)]],
    [[Fraction(3, 4), Fraction(-1, 4)], [Fraction(-3, 4), Fraction(1, 4)]],
)
BIN_CUBIC_G1 = "2*x2^3 + 2*x1^2 - 3*x1 - 2*x2 + 1"
BIN_CUBIC_G2 = "-x2^3 - 6*x1^2 + 9*x1 + x2 - 3"
# center family: [[a, (b-a)/2], [3(b-a)/2, b]]
BIN_CUBIC_CENTER_FAMILY = (
    [[1, Fraction(-1, 2)], [Fraction(-3, 2), 0]],
    [[0, Fraction(1, 2)], [Fraction(3, 2), 1]],
)

# A quartic plus two squares: center is a 1 + 2 block family of dimension 4.
QUARTIC_SQUARES_VARS = ["x", "y", "z"]
QUARTIC_SQUARES = "x^4 + y^2 + z^2"
QUARTIC_SQUARES_CENTER_FAMILY = (
    [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
)

# Two quartic-free cubic-type polynomials in four variables that split into
# blocks {1}, {1}, {2} under a known unimodular transform.
FOURVAR_VARS = ["x1", "x2", "x3", "x4"]
FOURVAR_1 = (
    "x1^3 + 3*x1^2*x2 + 3*x1^2*x3 + 3*x1*x2^2 + 6*x1*x2*x3 + 3*x1*x3^2"
    " + 2*x2^3 + 6*x2*x3^2 + x3^2*x4 + x4^2 + 2*x3 + 1"
)
FOURVAR_2 = (
    "2*x1^3 + 6*x1^2*x2 + 6*x1^2*x3 + 6*x1*x2^2 + 12*x1*x2*x3 + 6*x1*x3^2"
    " + 5*x2^3 - 3*x2^2*x3 + 15*x2*x3^2 - x3^3 + x3*x4^2 + 3*x4"
)
FOURVAR_P = [[1, -1, -2, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
FOURVAR_G1 = "y1^3 + y2^3 + y3^2*y4 + y4^2 + 2*y3 + 1"
FOURVAR_G2 = "2*y1^3 + 3*y2^3 + y3*y4^2 + 3*y4"
# center family: [[a+b+c, a+2c, a, 0], [0, b-c, c, 0], [0, 0, b, 0], [0, 0, 0, b]]
FOURVAR_CENTER_FAMILY = (
    [[1, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],  # a
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],  # b
    [[1, 2, 0, 0], [0, -1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],  # c
)
FOURVAR_EPS = (
    [[1, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0, -1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0, 0, -2, 0], [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
)

# Three polynomials in three variables, each decomposable on its own but
# jointly indecomposable (scalar joint center).
TRIO_VARS = ["x1", "x2", "x3"]
TRIO_1 = (
    "81*x1^4 + 108*x1^3*x3 + 54*x1^2*x3^2 + 12*x1*x3^3 + x3^4"
    " + x2^3 + x3^3 + x2*x3^2 + 2*x2^2 + 5*x3 + 1"
)
TRIO_2 = "x1^3 - 6*x1^2*x2 + 12*x1*x2^2 - 7*x2^3 + 3*x2*x3 + 7*x1 + 5"
TRIO_3 = (
    "27*x2^3 + 36*x2*x3^2 - 54*x2^2*x3 - 8*x3^3"
    " + 5*x1^3 + 2*x1^2 + 7*x1 + 12*x2 - 8*x3 + 5"
)
TRIO_1_P = [[Fraction(1, 3), 0, Fraction(-1, 3)], [0, 1, 0], [0, 0, 1]]
TRIO_2_P = [[1, 2, 0], [0, 1, 0], [0, 0, 1]]
TRIO_3_P = [[1, 0, 0], [0, Fraction(1, 3), Fraction(2, 3)], [0, 0, 1]]
TRIO_1_OUT = "y1^4 + y2^3 + y2*y3^2 + y3^3 + 2*y2^2 + 5*y3 + 1"
TRIO_2_OUT = "z1^3 + z2^3 + 3*z2*z3 + 7*z1 + 14*z2 + 5"
TRIO_3_OUT = "5*u1^3 + u2^3 + 2*u1^2 + 7*u1 + 4*u2 + 5"
TRIO_3_EPS = (
    [[1, 0, 0], [0, 0, Fraction(2, 3)], [0, 0, 1]],
    [[0, 0, 0], [0, 1, Fraction(-2, 3)], [0, 0, 0]],
)

# The norm form u1^3 + 6*u1*u2^2, whose center is Q(sqrt 2), beside the
# cubic u3^3 + u3^2*u4 + 2*u4^3 + u3*u4, whose center is scalar, mixed by
# u = Q x for Q = [[1, 1, 0, 0], [0, 1, -1, 0], [0, 0, 1, 1], [1, 0, 0, 2]]
# (det 3).  The root center has dimension 3 and splits into the two
# blocks; the norm block is a leaf whose center has dimension 2.
NORM_CUBIC_VARS = ["x1", "x2", "x3", "x4"]
NORM_CUBIC = (
    "3*x1^3 + 3*x1^2*x2 + 12*x1^2*x4 + 9*x1*x2^2 - 12*x1*x2*x3 + 7*x1*x3^2"
    " + 2*x1*x3*x4 + x1*x3 + 25*x1*x4^2 + x1*x4 + 7*x2^3 - 12*x2^2*x3"
    " + 6*x2*x3^2 + x3^3 + 5*x3^2*x4 + 7*x3*x4^2 + 2*x3*x4 + 19*x4^3 + 2*x4^2"
)


@pytest.fixture
def int_digit_limit():
    """The interpreter's default limit on str -> int conversion, set for the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts integer strings of any length")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)


@pytest.fixture(scope="session")
def bin_cubics():
    return [
        parse_polynomial(BIN_CUBIC_1, BIN_CUBIC_VARS),
        parse_polynomial(BIN_CUBIC_2, BIN_CUBIC_VARS),
    ]


@pytest.fixture(scope="session")
def quartic_squares():
    return parse_polynomial(QUARTIC_SQUARES, QUARTIC_SQUARES_VARS)


@pytest.fixture(scope="session")
def norm_cubic():
    return parse_polynomial(NORM_CUBIC, NORM_CUBIC_VARS)


@pytest.fixture(scope="session")
def fourvar_pair():
    return [
        parse_polynomial(FOURVAR_1, FOURVAR_VARS),
        parse_polynomial(FOURVAR_2, FOURVAR_VARS),
    ]


@pytest.fixture(scope="session")
def trio():
    return [
        parse_polynomial(TRIO_1, TRIO_VARS),
        parse_polynomial(TRIO_2, TRIO_VARS),
        parse_polynomial(TRIO_3, TRIO_VARS),
    ]


def mat(rows) -> RatMatrix:
    return RatMatrix.from_rows(rows)


def replaced(record, **changes):
    """A copy of an immutable result record with the given fields changed,
    built by its class constructor."""
    fields = {name: getattr(record, name) for name in type(record).__slots__}
    return type(record)(**(fields | changes))


def refines(fine, coarse) -> bool:
    """True iff the ``fine`` size multiset can be grouped into ``coarse``."""
    from itertools import combinations

    fine = sorted(fine)
    coarse = sorted(coarse)
    if sum(fine) != sum(coarse):
        return False

    def backtrack(remaining, targets):
        if not targets:
            return not remaining
        target = targets[0]
        for r in range(1, len(remaining) + 1):
            for combo in combinations(range(len(remaining)), r):
                if sum(remaining[i] for i in combo) == target:
                    rest = [x for i, x in enumerate(remaining) if i not in combo]
                    if backtrack(rest, targets[1:]):
                        return True
        return False

    return backtrack(fine, coarse)


def planted_suite():
    """The 50 planted instances of the acceptance suite, as (seed, instance)."""
    partitions = {
        2: [[2], [1, 1]],
        3: [[3], [2, 1], [1, 1, 1]],
        4: [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]],
        5: [[5], [4, 1], [3, 2], [3, 1, 1], [2, 2, 1], [2, 1, 1, 1]],
        6: [[6], [5, 1], [4, 2], [3, 3], [2, 2, 2], [3, 2, 1], [2, 2, 1, 1]],
    }
    for seed in range(50):
        rng = random.Random(f"sched:{seed}")
        n = 2 + seed % 5
        m = 1 + seed % 3
        blocks = rng.choice(partitions[n])
        max_degree = rng.choice([3, 4])
        yield seed, generate(seed, n, m, blocks, max_degree)


def mixed_by_big_entry():
    """A {2, 2} center mixed by an entry of 2^40 + 1, which puts entries past
    one prime's reconstruction bound into the canonical basis."""
    h = generate(0, 4, 1, [2, 2], 3).unmixed[0]
    mix = mat([[1, 0, 2**40 + 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return [substitute_linear(h, mix)]


def bench_workloads():
    """perfbench/workloads.py, read, not changed: the benchmark's planted
    problems, generated from a seed."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads
