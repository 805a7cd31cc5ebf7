"""Command-line interface.

Problem files are plain text: a ``vars:`` line naming the variables, then one
polynomial per nonempty line; ``#`` starts a comment.  Results are emitted as
human-readable text or as a versioned JSON document whose matrices are
row-major arrays of exact ``a/b`` strings, so serialization is lossless.

The commands and their options are one table, COMMANDS.  A well-formed
command line -- a command, then its options by their full names, each once,
with values that do not start with '-' -- is read straight from that table,
without loading argparse.  Every other line (help, errors, abbreviated,
``--opt=value``, repeated or negative-value forms) goes to the argparse
parser built from the same table, which alone writes help, usage and error
texts.

Exit codes: 0 success (decomposable or not -- that is data), 1 failed
verification verdict, 2 bad input, parse error or malformed result document
(argparse's own exit code for a command line it rejects), 3 internal
invariant violation.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace

from ._rat import Record
from .center import CenterBasis, center_basis
from .decompose import (
    DecompositionNode,
    DecompositionResult,
    decompose_recursive,
    verify_decomposition,
)
from .errors import DocumentError, InternalInvariantViolation, ParseError, PolyDecompError
from .poly import Polynomial, parse_polynomial, render_canonical, validate_variable_names
from .ratlinalg import RatMatrix, invert

# json and instancegen are imported by the commands that use them: a run
# pays for the import of this module, and text-mode decompose needs neither.

SCHEMA_VERSION = 1


class ProblemFile(Record):
    __slots__ = ("vars", "sources")
    vars: tuple[str, ...]
    sources: tuple[str, ...]

    def parse(self) -> list[Polynomial]:
        return [parse_polynomial(s, self.vars) for s in self.sources]


def read_problem(path: str) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        # a leading byte-order mark is not text; dropping it here rather than
        # reading with "utf-8-sig" spares a fresh process loading that codec
        raw_lines = fh.read().removeprefix("\ufeff").splitlines()
    vars_line = None
    sources = []
    for line in raw_lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if vars_line is None:
            if not line.startswith("vars:"):
                raise ParseError("first content line must start with 'vars:'", 0)
            vars_line = line[len("vars:") :].split()
            validate_variable_names(vars_line)
            continue
        sources.append(line)
    if vars_line is None:
        raise ParseError("problem file has no 'vars:' line", 0)
    if not sources:
        raise ParseError("problem file has no polynomials", 0)
    return ProblemFile(tuple(vars_line), tuple(sources))


def write_problem(path: str, vars: Sequence[str], sources: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vars: " + " ".join(vars) + "\n")
        for s in sources:
            fh.write(s + "\n")


# ---------------------------------------------------------------------------
# JSON encoding (matrices as row-major arrays of exact strings)
# ---------------------------------------------------------------------------


def matrix_to_json(m: RatMatrix) -> list[list[str]]:
    return [list(map(str, m.row(r))) for r in range(m.rows)]


def matrix_from_json(rows: list[list[str]], name: str = "matrix") -> RatMatrix:
    """The matrix of a row-major array of exact strings; a malformed entry,
    such as a JSON boolean or float, raises DocumentError naming it as
    ``name[r][c]``, and anything but a nonempty rectangular array of rows one
    naming ``name``."""
    if not isinstance(rows, list) or not rows or any(
        not isinstance(row, list) or not row or len(row) != len(rows[0]) for row in rows
    ):
        raise DocumentError(f"{name}: expected a nonempty rectangular array of rows")
    out = [[] for _ in rows]
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            try:
                if type(x) not in (int, str):  # Fraction(True) is 1, Fraction(0.1) inexact
                    raise TypeError
                out[r].append(Fraction(x))
            except (TypeError, ValueError, ArithmeticError):
                # int() refuses digit runs longer than sys.get_int_max_str_digits()
                digits = max(map(len, re.findall(r"\d+", str(x))), default=0)
                if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < digits:
                    why = f"integer literal of {digits} digits is too long"
                else:
                    why = f"not an exact rational: {x!r}"
                raise DocumentError(f"{name}[{r}][{c}]: {why}") from None
    return RatMatrix.from_rows(out)


def _json_int(literal: str):
    try:
        return int(literal)
    except ValueError:
        return literal


def _matrices_from_json(items: list, name: str) -> tuple[RatMatrix, ...]:
    if not isinstance(items, list):
        raise DocumentError(f"{name}: expected list")
    return tuple(matrix_from_json(m, f"{name}[{k}]") for k, m in enumerate(items))


def _is(value, kind: type) -> bool:
    """isinstance, except that a JSON boolean is not an int."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _field(data, key: str, kind: type, path: str, item: type | None = None):
    """``data[key]``, a ``kind`` whose entries are ``item``s if ``item`` is
    given; anything else raises DocumentError naming the field by its path."""
    where = f"{path}.{key}" if path else key
    if not isinstance(data, dict):
        raise DocumentError(f"{path or 'document'}: expected an object")
    if key not in data:
        raise DocumentError(f"{where}: missing")
    value = data[key]
    if not _is(value, kind) or (item and not all(_is(x, item) for x in value)):
        of = f" of {item.__name__}" if item else ""
        raise DocumentError(f"{where}: expected {kind.__name__}{of}")
    return value


def _parsed(texts: Sequence[str], names: Sequence[str], path: str) -> tuple[Polynomial, ...]:
    """The polynomials of ``texts`` over ``names``; one that does not parse
    raises DocumentError naming it as ``path[k]``."""
    out = []
    for k, text in enumerate(texts):
        try:
            out.append(parse_polynomial(text, names))
        except ParseError as exc:
            raise DocumentError(f"{path}[{k}]: {exc}") from None
    return tuple(out)


def _node_var_names(node_indices: Sequence[int], root_vars: Sequence[str], is_root: bool):
    if is_root:
        return list(root_vars)
    return [f"y{i + 1}" for i in node_indices]


def _node_to_json(node: DecompositionNode, root_vars, is_root: bool = False) -> dict:
    names = _node_var_names(node.variable_indices, root_vars, is_root)
    return {
        "indices": list(node.variable_indices),
        "center_dim": node.center_dim,
        "polys": [render_canonical(p, names) for p in node.polys],
        "idempotents": None
        if node.idempotents is None
        else [matrix_to_json(e) for e in node.idempotents],
        "transform": None
        if node.transform is None
        else matrix_to_json(node.transform),
        "children": [_node_to_json(c, root_vars) for c in node.children],
    }


def _node_from_json(data: dict, root_vars, path: str, is_root: bool = False) -> DecompositionNode:
    indices = tuple(_field(data, "indices", list, path, int))
    if not indices or min(indices) < 0 or len(set(indices)) < len(indices):
        raise DocumentError(f"{path}.indices: expected distinct nonnegative ints, at least one")
    names = _node_var_names(indices, root_vars, is_root)
    polys = _parsed(_field(data, "polys", list, path, str), names, f"{path}.polys")
    idems = _field(data, "idempotents", object, path)
    transform = _field(data, "transform", object, path)
    return DecompositionNode(
        variable_indices=indices,
        polys=polys,
        children=tuple(
            _node_from_json(c, root_vars, f"{path}.children[{k}]")
            for k, c in enumerate(_field(data, "children", list, path))
        ),
        center_dim=_field(data, "center_dim", int, path),
        idempotents=None
        if idems is None
        else _matrices_from_json(idems, f"{path}.idempotents"),
        transform=None if transform is None else matrix_from_json(transform, f"{path}.transform"),
    )


def result_to_document(
    problem: ProblemFile, result: DecompositionResult, seed: int | None
) -> dict:
    """JSON document of a result; the root center is the one it carries."""
    center = result.center
    if center is None:
        raise ValueError("result does not carry its root center")
    tree = _node_to_json(result.tree, problem.vars, is_root=True)
    p = result.P
    return {
        "version": SCHEMA_VERSION,
        "vars": list(problem.vars),
        "inputs": list(problem.sources),
        "seed": seed,
        "center_dim": center.dim,
        "center_basis": [matrix_to_json(b) for b in center.basis],
        "idempotents": tree["idempotents"],  # the root's, rendered once
        "P": matrix_to_json(p),
        "P_inverse": matrix_to_json(invert(p)),
        "diagonalizable": result.diagonalizable,
        "tree": tree,
    }


def result_from_document(doc: dict) -> tuple[ProblemFile, DecompositionResult]:
    """The problem and result of a ``decompose --json`` document; a field off
    the schema raises DocumentError naming the first such field."""
    if _field(doc, "version", int, "") != SCHEMA_VERSION:
        raise DocumentError(f"version: expected {SCHEMA_VERSION}, got {doc['version']}")
    names = tuple(_field(doc, "vars", list, "", str))
    try:
        validate_variable_names(names)
    except ValueError as exc:
        raise DocumentError(f"vars: {exc}") from None
    problem = ProblemFile(names, tuple(_field(doc, "inputs", list, "", str)))
    tree = _node_from_json(_field(doc, "tree", dict, ""), problem.vars, "tree", is_root=True)
    center = CenterBasis(
        len(problem.vars),
        _matrices_from_json(_field(doc, "center_basis", list, ""), "center_basis"),
    )
    return problem, DecompositionResult(tree, center)


def _claims_from_document(doc: dict) -> tuple:
    """(center_dim, idempotents, P, P_inverse, diagonalizable) of a result
    document: the fields that restate what its inputs and tree determine.
    A missing or mistyped one, or a seed that is neither an int nor null,
    raises DocumentError."""
    seed = _field(doc, "seed", object, "")
    if seed is not None and type(seed) is not int:
        raise DocumentError("seed: expected int or null")
    idems = _field(doc, "idempotents", object, "")
    return (
        _field(doc, "center_dim", int, ""),
        None if idems is None else _matrices_from_json(idems, "idempotents"),
        matrix_from_json(_field(doc, "P", list, ""), "P"),
        matrix_from_json(_field(doc, "P_inverse", list, ""), "P_inverse"),
        _field(doc, "diagonalizable", bool, ""),
    )


def _nodes(node: DecompositionNode, path: str):
    """(document path, node) for the node and its descendants, depth first."""
    yield path, node
    for k, child in enumerate(node.children):
        yield from _nodes(child, f"{path}.children[{k}]")


def _claim_failure(polys: Sequence[Polynomial], result: DecompositionResult, claims) -> str:
    """Why a verified result's document claims do not hold, '' if they do:
    the center basis and every node's center dimension are recomputed, and
    the top-level copies must match the tree."""
    center_dim, idempotents, p, p_inverse, diagonalizable = claims
    center = center_basis(polys)
    if result.center != center:
        return "center_basis: not the canonical basis of the inputs' center"
    for path, node in _nodes(result.tree, "tree"):
        dim = center.dim if node is result.tree else center_basis(node.polys).dim
        if node.center_dim != dim:
            return f"{path}.center_dim: {node.center_dim}, but its center has dimension {dim}"
    if center_dim != center.dim:
        return f"center_dim: {center_dim}, but the center has dimension {center.dim}"
    if idempotents != result.tree.idempotents:
        return "idempotents: not the root's idempotents"
    if p != result.P:
        return "P: not the product of the tree's transforms"
    if p_inverse != invert(p):
        return "P_inverse: not the inverse of P"
    if diagonalizable != result.diagonalizable:
        return "diagonalizable: not whether every leaf has one variable"
    return ""


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _emit(content: str | dict, output: str | None) -> None:
    """Write text, or a document as JSON with indent 2, to ``output`` or stdout."""
    if isinstance(content, dict):
        import json

        content = json.dumps(content, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(content if content.endswith("\n") else content + "\n")
    else:
        print(content)


def _format_matrix(m: RatMatrix, indent: str = "  ") -> str:
    cells = matrix_to_json(m)
    width = max(len(x) for row in cells for x in row)
    return "\n".join(
        indent + "[ " + "  ".join(x.rjust(width) for x in row) + " ]" for row in cells
    )


def cmd_center(args) -> int:
    problem = read_problem(args.input)
    polys = problem.parse()
    center = center_basis(polys)
    if args.json:
        doc = {
            "version": SCHEMA_VERSION,
            "vars": list(problem.vars),
            "inputs": list(problem.sources),
            "center_dim": center.dim,
            "center_basis": [matrix_to_json(b) for b in center.basis],
        }
        _emit(doc, args.output)
    else:
        lines = [f"center dimension: {center.dim}"]
        for i, b in enumerate(center.basis):
            lines.append(f"basis element {i + 1}:")
            lines.append(_format_matrix(b))
        _emit("\n".join(lines), args.output)
    return 0


def _decomposition_text(problem: ProblemFile, result: DecompositionResult) -> str:
    root = result.tree
    lines = [f"center dimension: {root.center_dim}"]
    leaves = list(root.leaves())
    if len(leaves) == 1:
        if root.center_dim == 1:
            lines.append("indecomposable (center is scalar)")
        else:
            lines.append(
                f"no decomposition found (center dimension {root.center_dim}, "
                "no nontrivial idempotent located)"
            )
        return "\n".join(lines)
    lines.append("change of variables x = P*y, P =")
    lines.append(_format_matrix(result.P))
    blocks = " ".join(
        "{" + ", ".join(f"y{i + 1}" for i in leaf.variable_indices) + "}"
        for leaf in leaves
    )
    lines.append(f"variable blocks: {blocks}")
    for i in range(len(root.polys)):
        parts = []
        for leaf in leaves:
            names = [f"y{j + 1}" for j in leaf.variable_indices]
            parts.append("(" + render_canonical(leaf.polys[i], names) + ")")
        lines.append(f"f{i + 1}(P*y) = " + " + ".join(parts))
    lines.append(f"diagonalizable: {'yes' if result.diagonalizable else 'no'}")
    return "\n".join(lines)


def cmd_decompose(args) -> int:
    problem = read_problem(args.input)
    polys = problem.parse()
    result = decompose_recursive(polys, seed=args.seed)
    report = verify_decomposition(polys, result)
    if not report.ok:
        raise InternalInvariantViolation(
            f"self-verification failed: {report.reason}"
        )
    if args.json:
        _emit(result_to_document(problem, result, args.seed), args.output)
    else:
        _emit(_decomposition_text(problem, result), args.output)
    return 0


def cmd_verify(args) -> int:
    import json

    problem = read_problem(args.input)
    polys = problem.parse()
    with open(args.result, "r", encoding="utf-8") as fh:
        # a bare number too long for int() stays a string, which
        # matrix_from_json reports as the entry that holds it
        doc = json.loads(fh.read().removeprefix("\ufeff"), parse_int=_json_int)
    stored_problem, result = result_from_document(doc)
    claims = _claims_from_document(doc)
    if stored_problem.vars != problem.vars:
        print("FAIL: variable names differ from the problem file")
        return 1
    if _parsed(stored_problem.sources, stored_problem.vars, "inputs") != tuple(polys):
        print("FAIL: inputs: not the problem file's polynomials")
        return 1
    report = verify_decomposition(polys, result)
    reason = report.reason if not report.ok else _claim_failure(polys, result, claims)
    if not reason:
        print("PASS: decomposition verified")
        return 0
    print(f"FAIL: {reason}")
    return 1


def cmd_generate(args) -> int:
    import json

    from .instancegen import generate

    blocks = [int(b) for b in args.blocks.split(",") if b]
    instance = generate(args.seed, args.n, args.m, blocks, args.max_degree)
    names = [f"x{i + 1}" for i in range(args.n)]
    sources = [render_canonical(f, names) for f in instance.fs]
    write_problem(args.output, names, sources)
    truth = {
        "version": SCHEMA_VERSION,
        "seed": instance.seed,
        "n": args.n,
        "m": args.m,
        "planted_blocks": list(instance.planted_blocks),
        "mixing_matrix": matrix_to_json(instance.Q),
        "unmixed": [render_canonical(h, names) for h in instance.unmixed],
    }
    with open(args.output + ".truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2)
    print(f"wrote {args.output} and {args.output}.truth.json")
    return 0


# Each command: its help line, its function, its options as (flag, type,
# default, required, help), a bool option being a flag that stores True, and
# the options that exclude one another.  Both readers of a command line are
# derived from this table: build_parser and _read_plain.
COMMANDS = {
    "center": ("compute the center algebra basis", cmd_center, (
        ("--input", str, None, True, "problem file path"),
        ("--json", bool, False, False, "emit JSON"),
        ("--output", str, None, False, "write to file instead of stdout"),
    ), ()),
    "decompose": ("run the full decomposition pipeline", cmd_decompose, (
        ("--input", str, None, True, "problem file path"),
        ("--seed", int, 42, False, None),
        ("--json", bool, False, False, "emit JSON"),
        ("--text", bool, False, False, "emit text (default)"),
        ("--output", str, None, False, "write to file instead of stdout"),
    ), ("--json", "--text")),
    "verify": ("re-check a serialized result", cmd_verify, (
        ("--input", str, None, True, "problem file path"),
        ("--result", str, None, True, "result JSON path"),
    ), ()),
    "generate": ("generate a planted instance", cmd_generate, (
        ("--seed", int, 42, False, None),
        ("--n", int, None, True, "variable count"),
        ("--m", int, None, True, "polynomial count"),
        ("--blocks", str, None, True, "comma-separated block sizes summing to n"),
        ("--max-degree", int, 3, False, None),
        ("--output", str, None, True, "problem file to write"),
    ), ()),
}


def build_parser():
    """The argparse parser of COMMANDS: it reads every command line that
    _read_plain declines, and it alone writes help, usage and error texts."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="polydecomp",
        description="Simultaneous direct-sum decomposition of polynomial sets "
        "over the rationals (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, func, options, exclusive) in COMMANDS.items():
        p_cmd = sub.add_parser(command, help=summary)
        group = p_cmd.add_mutually_exclusive_group() if exclusive else None
        for flag, kind, default, required, text in options:
            owner = group if flag in exclusive else p_cmd
            if kind is bool:
                owner.add_argument(flag, action="store_true", help=text)
            else:
                owner.add_argument(flag, type=kind, default=default, required=required, help=text)
        p_cmd.set_defaults(func=func)
    return parser


def _read_plain(argv: Sequence[str]):
    """The namespace argparse makes of a plain command line, read without
    argparse: a command, then its options by their full names, each at most
    once, every value present and not starting with '-', the required
    options given, no two exclusive ones, and every value converting to its
    type.  None for any other line, which is left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options, exclusive = COMMANDS[argv[0]]
    kinds = {option[0]: option[1] for option in options}
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kind = kinds.get(flag)
        if kind is None or flag in given:
            return None
        if kind is bool:
            given[flag] = True
            continue
        value = next(tokens, "-")  # a missing value declines as '-' does
        if value.startswith("-"):
            return None
        try:
            given[flag] = kind(value)
        except (TypeError, ValueError):
            return None
    if sum(flag in given for flag in exclusive) > 1:
        return None
    values = {"command": argv[0], "func": func}
    for flag, _, default, required, _ in options:
        if required and flag not in given:
            return None
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (PolyDecompError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
