"""Command-line surface: subcommands, exit codes, serialization round trips."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import polydecomp
import conftest
from algebra_helpers import reconstruction_by_full_expansion
from conftest import (
    BIN_CUBIC_1,
    BIN_CUBIC_2,
    TRIO_1,
    TRIO_2,
    TRIO_3,
    bench_workloads,
)
from polydecomp import center_basis
from polydecomp.cli import (
    build_parser,
    main,
    matrix_from_json,
    matrix_to_json,
    read_problem,
    result_from_document,
    result_to_document,
)
from polydecomp.ratlinalg import RatMatrix, invert


# (u1 + u2)^3 + u2^3: two blocks of one variable, center dimension 2
SUM_OF_TWO_CUBES = "u1^3 + 3*u1^2*u2 + 3*u1*u2^2 + 2*u2^3"
DROP = object()  # a tampering that deletes the key instead of setting it
BAD_INDICES = "expected distinct nonnegative ints, at least one"
BAD_EXPONENT = "exponent must be a non-negative integer literal"


def _set_entry(doc, path, value):
    """``doc`` with the entry at ``path`` set to ``value``, or deleted for DROP."""
    *parents, key = path
    parent = doc
    for k in parents:
        parent = parent[k]
    if value is DROP:
        del parent[key]
    else:
        parent[key] = value
    return doc


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text(
        "# two binary cubics\n"
        "vars: u1 u2\n"
        f"{BIN_CUBIC_1}\n"
        f"{BIN_CUBIC_2}\n"
    )
    return str(path)


@pytest.fixture
def trio_file(tmp_path):
    path = tmp_path / "trio.txt"
    path.write_text(
        "vars: x1 x2 x3\n" + "\n".join([TRIO_1, TRIO_2, TRIO_3]) + "\n"
    )
    return str(path)


class TestProblemFiles:
    def test_read(self, pair_file):
        problem = read_problem(pair_file)
        assert problem.vars == ("u1", "u2")
        assert len(problem.sources) == 2
        assert len(problem.parse()) == 2

    def test_missing_vars_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x + y\n")
        assert main(["center", "--input", str(path)]) == 2

    def test_missing_file(self):
        assert main(["center", "--input", "/nonexistent/nope.txt"]) == 2

    def test_bad_polynomial_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("vars: x\nx^\n")
        assert main(["center", "--input", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_overlong_literal_is_a_parse_error(self, tmp_path, capsys, int_digit_limit):
        path = tmp_path / "long.txt"
        path.write_text(f"vars: x\nx^3 + {'9' * (int_digit_limit + 1)}*x\n")
        assert main(["center", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "too long (at position 6)" in err and "set_int_max_str_digits" not in err


class TestCenterCommand:
    def test_runs_as_a_module(self, trio_file):
        src = os.path.dirname(os.path.dirname(os.path.abspath(polydecomp.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "polydecomp", "center", "--input", trio_file],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert "center dimension: 1" in proc.stdout

    def test_text_output(self, pair_file, capsys):
        assert main(["center", "--input", pair_file]) == 0
        out = capsys.readouterr().out
        assert "center dimension: 2" in out

    def test_json_output(self, pair_file, capsys):
        assert main(["center", "--input", pair_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["center_dim"] == 2
        assert len(doc["center_basis"]) == 2

    def test_trio_center(self, trio_file, capsys):
        assert main(["center", "--input", trio_file]) == 0
        assert "center dimension: 1" in capsys.readouterr().out

    def test_affine_center_full(self, tmp_path, capsys):
        path = tmp_path / "affine.txt"
        path.write_text("vars: x y\nx - y + 3\n")
        assert main(["center", "--input", path.as_posix()]) == 0
        assert "center dimension: 4" in capsys.readouterr().out


class TestDecomposeCommand:
    def test_text_diagonalizable(self, pair_file, capsys):
        assert main(["decompose", "--input", pair_file]) == 0
        out = capsys.readouterr().out
        assert "diagonalizable: yes" in out
        assert "f1(P*y) =" in out

    def test_indecomposable_is_exit_zero(self, trio_file, capsys):
        assert main(["decompose", "--input", trio_file]) == 0
        out = capsys.readouterr().out
        assert "indecomposable (center is scalar)" in out

    def test_json_document(self, pair_file, tmp_path):
        out_path = tmp_path / "result.json"
        assert (
            main(
                [
                    "decompose",
                    "--input",
                    pair_file,
                    "--json",
                    "--output",
                    str(out_path),
                ]
            )
            == 0
        )
        doc = json.loads(out_path.read_text())
        assert doc["version"] == 1
        assert doc["diagonalizable"] is True
        assert doc["center_dim"] == 2
        assert doc["seed"] == 42
        assert len(doc["tree"]["children"]) == 2

    def test_seed_flag_changes_nothing_structural(self, pair_file, capsys):
        for seed in ("1", "2"):
            assert main(["decompose", "--input", pair_file, "--seed", seed]) == 0
            assert "diagonalizable: yes" in capsys.readouterr().out

    def test_root_center_computed_once(self, trio_file, capsys, monkeypatch):
        import polydecomp.cli as cli_module
        import polydecomp.decompose as decompose_module

        calls = {"cli": 0, "decompose": 0}

        def counting(key, fn):
            def wrapper(polys):
                calls[key] += 1
                return fn(polys)

            return wrapper

        monkeypatch.setattr(
            cli_module, "center_basis", counting("cli", cli_module.center_basis)
        )
        monkeypatch.setattr(
            decompose_module,
            "center_basis",
            counting("decompose", decompose_module.center_basis),
        )
        assert main(["decompose", "--input", trio_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert calls == {"cli": 0, "decompose": 1}
        monkeypatch.undo()
        expected = center_basis(read_problem(trio_file).parse())
        assert expected.dim == 1
        assert doc["center_dim"] == 1
        assert doc["center_basis"] == [matrix_to_json(b) for b in expected.basis]

    def test_fourvar_block_sizes(self, tmp_path, capsys):
        from conftest import FOURVAR_1, FOURVAR_2

        path = tmp_path / "fourvar.txt"
        path.write_text(f"vars: x1 x2 x3 x4\n{FOURVAR_1}\n{FOURVAR_2}\n")
        assert main(["decompose", "--input", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        sizes = sorted(len(c["indices"]) for c in doc["tree"]["children"])
        assert sizes == [1, 1, 2]
        assert doc["diagonalizable"] is False


# SHA-256 of the ``decompose --json --seed 42`` document of each golden set.
# The documents are the tool's reproducible output: a change to any digest
# changes what users get, and needs a CHANGES.md note saying which document
# changed and why.
GOLDEN_DOCUMENTS = {
    "bin_cubics": (
        conftest.BIN_CUBIC_VARS,
        [BIN_CUBIC_1, BIN_CUBIC_2],
        "130f8694e4da2775c98b4f18da3984a30d41610656de9644d5a291408d276951",
    ),
    "quartic_squares": (
        conftest.QUARTIC_SQUARES_VARS,
        [conftest.QUARTIC_SQUARES],
        "1f0749b8b8e6935728950ca32eee17eee9fd61a7cb400823d05c5b7ee7619c43",
    ),
    "fourvar_pair": (
        conftest.FOURVAR_VARS,
        [conftest.FOURVAR_1, conftest.FOURVAR_2],
        "fd29c56bfb58ecda03b0c0779410eb7eb8e79c541131586061d2b12623bf8499",
    ),
    "trio": (
        conftest.TRIO_VARS,
        [TRIO_1, TRIO_2, TRIO_3],
        "2a4eb182f0b3043580ffedc429728e928af41d4008786d04d114c67d0042ea2b",
    ),
    # a split whose norm-form block is a leaf with a two-dimensional center
    "norm_cubic": (
        conftest.NORM_CUBIC_VARS,
        [conftest.NORM_CUBIC],
        "163df829793905ec92eeeb08df855365ae80a49e271c8b19e1388edf522028a6",
    ),
    # planted sets: no names, and the problem is the output of `generate`
    # with these arguments
    "planted_n12_cubic": (
        None,
        ["--seed", "1", "--n", "12", "--m", "2", "--blocks", "3,3,3,3", "--max-degree", "3"],
        "e0661b7b94e10774582ce384b73a32580ba3e71aac75e9a84af467b8138446b1",
    ),
    "planted_n10_quartic": (
        None,
        ["--seed", "1", "--n", "10", "--m", "3", "--blocks", "4,3,3", "--max-degree", "4"],
        "3520a218cca013705a13669b2728b640accbc52d50b7e68757aba5c7e09e6557",
    ),
    # eight singletons: a dim-8 center whose echelon entries reach 79 bits
    "planted_n8_singletons": (
        None,
        ["--seed", "1", "--n", "8", "--m", "1", "--blocks", "1,1,1,1,1,1,1,1", "--max-degree", "3"],
        "02d49cb8ebe1196f38bf9426b7329accf134d0e1076dce54e6d40742646c1bf3",
    ),
}


def _golden_problem(name, tmp_path):
    """Path of a problem file holding the golden set ``name``."""
    names, sources, _ = GOLDEN_DOCUMENTS[name]
    problem = tmp_path / "golden.txt"
    if names is None:
        assert main(["generate", *sources, "--output", str(problem)]) == 0
    else:
        problem.write_text("vars: " + " ".join(names) + "\n" + "\n".join(sources) + "\n")
    return problem


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCUMENTS))
def test_golden_documents_are_pinned(name, tmp_path):
    digest = GOLDEN_DOCUMENTS[name][2]
    problem = _golden_problem(name, tmp_path)
    out = tmp_path / "golden.json"
    argv = ["decompose", "--input", str(problem), "--json", "--seed", "42", "--output", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 over the `decompose --json` documents of seed-1 problems 0-29 of
# each benchmark workload, concatenated in problem order: every change that
# keeps the results keeps these
WORKLOAD_DOCUMENTS = {
    "scalar_center": "c9602c35b721dad9030429833c84e77bfecee699abfd33e24c92067c78fe3dac",
    "few_blocks": "cff7a04fdd4da2be6440bff8e138ddc36164cf7071523f57a6e1638aaf89128a",
    "many_blocks": "86ff7dc6962c923df8ccdcb3ba5c7465c7c2957b67c7549a34d018ad733df105",
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_DOCUMENTS))
def test_workload_documents_are_pinned(workload, tmp_path):
    # the problems as the bench writes them, solved with its worker's argv
    workloads = bench_workloads()
    problem, out = tmp_path / "problem.txt", tmp_path / "result.json"
    digest = hashlib.sha256()
    for pid in range(30):
        problem.write_text(workloads.make_problem(workload, 1, pid).text())
        assert main(["decompose", "--input", str(problem), "--json", "--output", str(out)]) == 0
        digest.update(out.read_bytes())
    assert digest.hexdigest() == WORKLOAD_DOCUMENTS[workload]


@pytest.mark.parametrize("command", ["center", "decompose"])
def test_json_is_encoded_while_emitting(command, pair_file, tmp_path, monkeypatch):
    # the bench times writing a document as the spans of _emit, so the
    # encoding belongs inside it; the document's bytes stay those of
    # json.dumps with indent 2
    import polydecomp.cli as cli

    emit, dumps = cli._emit, json.dumps
    inside, encoded = [], []

    def emitting(*args):
        inside.append(1)
        try:
            return emit(*args)
        finally:
            inside.pop()

    def encoding(obj, **kwargs):
        encoded.append((bool(inside), kwargs))
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli, "_emit", emitting)
    monkeypatch.setattr(json, "dumps", encoding)
    out = tmp_path / "doc.json"
    assert main([command, "--input", pair_file, "--json", "--output", str(out)]) == 0
    assert encoded == [(True, {"indent": 2})]
    assert out.read_text() == dumps(json.loads(out.read_text()), indent=2) + "\n"


def test_byte_order_mark_is_accepted(tmp_path, capsys):
    # a problem file and a result document saved with a UTF-8 byte-order
    # mark read as they do without one
    problem = _golden_problem("fourvar_pair", tmp_path)
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + problem.read_bytes())
    out = tmp_path / "marked.json"
    argv = ["decompose", "--input", str(marked), "--json", "--seed", "42", "--output", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DOCUMENTS["fourvar_pair"][2]
    document = tmp_path / "document.json"
    document.write_bytes(b"\xef\xbb\xbf" + out.read_bytes())
    capsys.readouterr()
    assert main(["verify", "--input", str(marked), "--result", str(document)]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def _drop_child_polynomial(tree):
    tree["children"][1]["polys"].pop()


def _move_constant(tree):
    # f1's constant 1 goes from the first child to the second: the leaves
    # still sum to f1(P*y), but separate puts the constant in the first block
    first, second = tree["children"][0]["polys"], tree["children"][1]["polys"]
    assert first[0].endswith(" + 1")
    first[0] = first[0][: -len(" + 1")]
    second[0] += " + 1"


def _add_leaf_monomial(tree):
    tree["children"][1]["polys"][0] += " + y2^3"


def _drop_root_idempotent(tree):
    tree["idempotents"].pop()


def _empty_root_children(tree):
    tree["children"].clear()


def _make_root_a_leaf(tree):
    # a well-formed leaf, so only the leaves' sum on rows of P^-1 fails
    _empty_root_children(tree)
    tree["idempotents"] = tree["transform"] = None


def _drop_transform_row(tree):
    tree["transform"].pop()


def _shrink_idempotent(tree):
    tree["idempotents"][0] = [row[:-1] for row in tree["idempotents"][0][:-1]]


def _drop_inner_transform_row(tree):
    _drop_transform_row(tree["children"][1])


def _double_inner_idempotent(tree):
    inner = tree["children"][1]["idempotents"][0]
    inner[:] = [[str(2 * Fraction(x)) for x in row] for row in inner]


def _give_leaf_a_transform(tree):
    tree["children"][1]["transform"] = [["0"]]


def _give_leaf_idempotents(tree):
    tree["children"][1]["idempotents"] = [[["5"]], [["3"]]]


# Tampered copies of a golden document: (golden, tamper applied to the
# document's tree, whether f_i(P*y) still equals the sum of the leaves, the
# verdict line of `verify`).
TAMPERED_DOCUMENTS = {
    "child_missing_a_polynomial": (
        "bin_cubics",
        _drop_child_polynomial,
        False,
        "FAIL: root.1: polynomials do not fit the block",
    ),
    "constant_moved_to_a_later_child": (
        "bin_cubics",
        _move_constant,
        True,
        "FAIL: root: constant term outside the first block",
    ),
    "leaf_changed_by_one_monomial": (
        "bin_cubics",
        _add_leaf_monomial,
        False,
        "FAIL: root: reconstruction mismatch",
    ),
    "root_idempotent_dropped": (
        "bin_cubics",
        _drop_root_idempotent,
        True,
        "FAIL: root: conjugated idempotent not block diagonal",
    ),
    "root_children_emptied": (
        "bin_cubics",
        _empty_root_children,
        False,
        "FAIL: root: leaf carries splitting witnesses",
    ),
    "root_made_a_leaf": (
        "bin_cubics",
        _make_root_a_leaf,
        False,
        "FAIL: reconstruction mismatch for polynomial 0",
    ),
    "transform_not_square": (
        "bin_cubics",
        _drop_transform_row,
        True,
        "FAIL: root: splitting witnesses have wrong shape",
    ),
    "idempotent_shrunk": (
        "bin_cubics",
        _shrink_idempotent,
        True,
        "FAIL: root: splitting witnesses have wrong shape",
    ),
    "inner_transform_not_square": (
        "quartic_squares",
        _drop_inner_transform_row,
        True,
        "FAIL: root.1: splitting witnesses have wrong shape",
    ),
    "inner_idempotent_doubled": (
        "quartic_squares",
        _double_inner_idempotent,
        True,
        "FAIL: root.1: conjugated idempotent not block diagonal",
    ),
    "leaf_given_a_transform": (
        "bin_cubics",
        _give_leaf_a_transform,
        True,
        "FAIL: root.1: leaf carries splitting witnesses",
    ),
    "leaf_given_idempotents": (
        "bin_cubics",
        _give_leaf_idempotents,
        True,
        "FAIL: root.1: leaf carries splitting witnesses",
    ),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_DOCUMENTS))
def test_tampered_document_gets_a_verdict(case, tmp_path, capsys):
    golden, tamper, identity_holds, verdict = TAMPERED_DOCUMENTS[case]
    problem = _golden_problem(golden, tmp_path)
    out = tmp_path / "golden.json"
    assert main(["decompose", "--input", str(problem), "--json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    tamper(doc["tree"])
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(problem), "--result", str(out)]) == 1
    assert capsys.readouterr().out == verdict + "\n"
    # the forward identity alone misses the cases where it still holds;
    # the verifier rejects those as well as every case the identity rejects
    _, result = result_from_document(doc)
    polys = read_problem(str(problem)).parse()
    assert reconstruction_by_full_expansion(polys, result) is identity_holds


class TestVerifyCommand:
    def test_fresh_result_passes(self, pair_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        main(["decompose", "--input", pair_file, "--json", "--output", str(out_path)])
        assert (
            main(["verify", "--input", pair_file, "--result", str(out_path)]) == 0
        )
        assert "PASS" in capsys.readouterr().out

    def test_tampered_transform_fails(self, pair_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        main(["decompose", "--input", pair_file, "--json", "--output", str(out_path)])
        doc = json.loads(out_path.read_text())
        doc["P"][0][0] = "5/7"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert (
            main(["verify", "--input", pair_file, "--result", str(tampered)]) == 1
        )
        out = capsys.readouterr().out
        assert "FAIL" in out and "block diagonal" in out

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("P",), "7" * 5000, "P[0][1]: integer literal of 5000 digits is too long"),
            (
                ("center_basis", 1),
                "1/" + "7" * 5000,
                "center_basis[1][0][1]: integer literal of 5000 digits is too long",
            ),
            (("tree", "transform"), "1/0", "tree.transform[0][1]: not an exact rational: '1/0'"),
        ],
        ids=["P", "center_basis", "transform"],
    )
    def test_malformed_matrix_entry_is_named(
        self, pair_file, tmp_path, capsys, int_digit_limit, path, value, message
    ):
        out_path = tmp_path / "result.json"
        main(["decompose", "--input", pair_file, "--json", "--output", str(out_path)])
        doc = json.loads(out_path.read_text())
        matrix = doc
        for key in path:
            matrix = matrix[key]
        matrix[0][1] = value
        out_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--input", pair_file, "--result", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_bare_over_long_number_is_named(self, pair_file, tmp_path, capsys, int_digit_limit):
        # a bare JSON number, not a string: json.load must not convert it
        # before the entry that holds it is known
        out_path = tmp_path / "result.json"
        main(["decompose", "--input", pair_file, "--json", "--output", str(out_path)])
        doc = json.loads(out_path.read_text())
        doc["P"][0][0] = "BARE"
        out_path.write_text(json.dumps(doc).replace('"BARE"', "7" * 5000))
        capsys.readouterr()
        assert main(["verify", "--input", pair_file, "--result", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: P[0][0]: integer literal of 5000 digits is too long\n"

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("tree", "center_dim"), DROP, "tree.center_dim: missing"),
            (("center_basis",), DROP, "center_basis: missing"),
            (("tree", "indices"), DROP, "tree.indices: missing"),
            (("tree", "children", 0, "idempotents"), DROP, "tree.children[0].idempotents: missing"),
            (("tree", "transform"), DROP, "tree.transform: missing"),
            (("tree",), DROP, "tree: missing"),
            (("P",), [], "P: expected a nonempty rectangular array of rows"),
            (("P",), 5, "P: expected list"),
            (("tree", "children"), 3, "tree.children: expected list"),
            (("tree", "children", 0, "polys", 0), 7, "tree.children[0].polys: expected list of str"),
            ((), [1], "document: expected an object"),
            (("version",), 2, "version: expected 1, got 2"),
            (("version",), True, "version: expected int"),
            (("center_dim",), True, "center_dim: expected int"),
            (
                ("tree", "children", 0, "center_dim"),
                True,
                "tree.children[0].center_dim: expected int",
            ),
            (
                ("tree", "children", 1, "indices"),
                [True],
                "tree.children[1].indices: expected list of int",
            ),
            (
                [
                    (("tree", "children", 0, "center_dim"), True),
                    (("tree", "children", 1, "indices"), [True]),
                ],
                None,
                "tree.children[0].center_dim: expected int",
            ),
            (("P", 0, 0), True, "P[0][0]: not an exact rational: True"),
            (("P", 0, 1), 0.1, "P[0][1]: not an exact rational: 0.1"),
            (("vars",), [], "vars: at least one variable name is required"),
            (("vars",), ["u1", "u1", "u3"], "vars: variable names must be distinct"),
            (("vars",), ["1x", "u2"], "vars: invalid variable name '1x'"),
            (("tree", "indices"), [], f"tree.indices: {BAD_INDICES}"),
            (("tree", "children", 0, "indices"), [], f"tree.children[0].indices: {BAD_INDICES}"),
            (("tree", "children", 1, "indices"), [-2], f"tree.children[1].indices: {BAD_INDICES}"),
            (
                ("tree", "children", 0, "polys", 0),
                "y1^^3",
                f"tree.children[0].polys[0]: {BAD_EXPONENT} (at position 3)",
            ),
            (("inputs", 1), "u1^^2", f"inputs[1]: {BAD_EXPONENT} (at position 3)"),
        ],
        ids=[
            "no-center_dim",
            "no-center_basis",
            "no-tree-key",
            "no-leaf-idempotents",
            "no-transform",
            "no-tree",
            "empty-P",
            "scalar-P",
            "scalar-children",
            "non-string-poly",
            "top-level-list",
            "version-2",
            "version-true",
            "center_dim-true",
            "leaf-center_dim-true",
            "leaf-indices-true",
            "leaf-center_dim-and-indices-true",
            "P-entry-true",
            "P-entry-float",
            "no-vars",
            "repeated-var",
            "invalid-var",
            "empty-root-indices",
            "empty-leaf-indices",
            "negative-leaf-index",
            "unparsable-leaf-poly",
            "unparsable-input",
        ],
    )
    def test_malformed_document_is_named(self, pair_file, tmp_path, capsys, path, value, message):
        # a document that does not follow the schema is bad input (exit 2,
        # one error line naming the field), not a FAIL verdict or a crash;
        # an empty path replaces the whole document, a list of (path, value)
        # pairs makes several edits; a JSON boolean is no int, and a boolean
        # or float is no exact matrix entry
        out_path = tmp_path / "result.json"
        main(["decompose", "--input", pair_file, "--json", "--output", str(out_path)])
        doc = json.loads(out_path.read_text())
        for edit_path, edit_value in path if isinstance(path, list) else [(path, value)]:
            doc = _set_entry(doc, edit_path, edit_value) if edit_path else edit_value
        out_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--input", pair_file, "--result", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "path, value, verdict",
        [
            (("center_dim",), 9, "FAIL: center_dim: 9, but the center has dimension 2"),
            (("center_dim",), DROP, "error: center_dim: missing"),
            (
                ("center_basis",),
                [[["1", "0"], ["0", "1"]]],
                "FAIL: center_basis: not the canonical basis of the inputs' center",
            ),
            (("P_inverse",), [["5", "0"], ["0", "7"]], "FAIL: P_inverse: not the inverse of P"),
            (("P_inverse",), DROP, "error: P_inverse: missing"),
            (("idempotents",), None, "FAIL: idempotents: not the root's idempotents"),
            (
                ("tree", "center_dim"),
                7,
                "FAIL: tree.center_dim: 7, but its center has dimension 2",
            ),
            (
                ("tree", "children", 0, "center_dim"),
                5,
                "FAIL: tree.children[0].center_dim: 5, but its center has dimension 1",
            ),
            (("seed",), "x", "error: seed: expected int or null"),
            (("inputs",), ["u1^3"], "FAIL: inputs: not the problem file's polynomials"),
        ],
        ids=[
            "center_dim-9",
            "no-center_dim",
            "center_basis-I",
            "wrong-P_inverse",
            "no-P_inverse",
            "null-idempotents",
            "root-center_dim-7",
            "child-center_dim-5",
            "seed-string",
            "other-inputs",
        ],
    )
    def test_false_claim_is_refused(self, tmp_path, capsys, path, value, verdict):
        # every top-level field restates what the inputs, the tree and P
        # determine; a wrong value is a FAIL verdict (exit 1), a missing or
        # mistyped field bad input (exit 2)
        problem = tmp_path / "cubes.txt"
        problem.write_text("vars: u1 u2\n" + SUM_OF_TWO_CUBES + "\n")
        out_path = tmp_path / "result.json"
        main(["decompose", "--input", str(problem), "--json", "--output", str(out_path)])
        doc = json.loads(out_path.read_text())
        out_path.write_text(json.dumps(_set_entry(doc, path, value)))
        capsys.readouterr()
        code = main(["verify", "--input", str(problem), "--result", str(out_path)])
        assert code == (1 if verdict.startswith("FAIL") else 2)
        captured = capsys.readouterr()
        assert captured.out + captured.err == verdict + "\n"

    def test_hand_packaged_known_result_passes(self, tmp_path, capsys):
        # encode the known transform and outputs for the four-variable pair
        from conftest import FOURVAR_1, FOURVAR_2, FOURVAR_EPS, FOURVAR_P, mat
        from polydecomp import DecompositionNode, DecompositionResult
        from polydecomp.cli import ProblemFile
        from polydecomp.decompose import separate

        vars4 = ("x1", "x2", "x3", "x4")
        problem = ProblemFile(vars4, (FOURVAR_1, FOURVAR_2))
        path = tmp_path / "fourvar.txt"
        path.write_text("vars: " + " ".join(vars4) + "\n" + FOURVAR_1 + "\n" + FOURVAR_2 + "\n")
        polys = problem.parse()
        p = mat(FOURVAR_P)
        ranges = [(0, 1), (1, 2), (2, 4)]
        parts = separate(polys, p, ranges)
        children = []
        for b, (lo, hi) in enumerate(ranges):
            child_polys = tuple(parts[i][b] for i in range(2))
            children.append(
                DecompositionNode(
                    variable_indices=tuple(range(lo, hi)),
                    polys=child_polys,
                    children=(),
                    center_dim=center_basis(child_polys).dim,
                )
            )
        root = DecompositionNode(
            variable_indices=(0, 1, 2, 3),
            polys=tuple(polys),
            children=tuple(children),
            center_dim=3,
            idempotents=tuple(mat(rows) for rows in FOURVAR_EPS),
            transform=p,
        )
        result = DecompositionResult(
            P=p, tree=root, diagonalizable=False, center=center_basis(polys)
        )
        doc = result_to_document(problem, result, None)
        result_path = tmp_path / "hand.json"
        result_path.write_text(json.dumps(doc))
        assert (
            main(["verify", "--input", str(path), "--result", str(result_path)]) == 0
        )
        assert "PASS" in capsys.readouterr().out

    def test_unsplit_document_on_identity_is_not_expanded(
        self, trio_file, tmp_path, capsys, monkeypatch
    ):
        # the trio's joint center is scalar: the root is the one leaf and
        # P = I, so the leaf is the input and nothing needs expanding; any
        # other P gets one expansion, the leaf on P^-1, which does not give
        # back the input
        out_path = tmp_path / "result.json"
        main(["decompose", "--input", trio_file, "--json", "--output", str(out_path)])
        doc = json.loads(out_path.read_text())
        assert doc["tree"]["children"] == []
        assert doc["P"] == matrix_to_json(RatMatrix.identity(3))
        calls = []
        substitute = polydecomp.decompose.substitute_linear

        def recording(fs, m, blocks=None):
            calls.append((list(fs), m, blocks))
            return substitute(fs, m, blocks)

        monkeypatch.setattr(polydecomp.decompose, "substitute_linear", recording)
        capsys.readouterr()
        assert main(["verify", "--input", trio_file, "--result", str(out_path)]) == 0
        assert capsys.readouterr().out.startswith("PASS")
        assert calls == []
        polys = read_problem(trio_file).parse()
        permutation = RatMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        for p in (permutation, RatMatrix.identity(3).scale(2)):
            doc["P"] = matrix_to_json(p)
            out_path.write_text(json.dumps(doc))
            assert main(["verify", "--input", trio_file, "--result", str(out_path)]) == 1
            assert capsys.readouterr().out.startswith("FAIL: reconstruction mismatch")
            assert calls.pop() == (polys, invert(p), None)
            assert calls == []


class TestGenerateCommand:
    def test_generate_and_decompose(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        assert (
            main(
                [
                    "generate",
                    "--seed",
                    "7",
                    "--n",
                    "4",
                    "--m",
                    "2",
                    "--blocks",
                    "1,1,2",
                    "--max-degree",
                    "3",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        truth = json.loads((tmp_path / "gen.txt.truth.json").read_text())
        assert truth["planted_blocks"] == [1, 1, 2]
        assert main(["decompose", "--input", str(out)]) == 0

    def test_bad_blocks_exit_code(self, tmp_path):
        out = tmp_path / "gen.txt"
        code = main(
            [
                "generate",
                "--seed",
                "1",
                "--n",
                "4",
                "--m",
                "1",
                "--blocks",
                "3,3",
                "--output",
                str(out),
            ]
        )
        assert code == 2


class TestSerialization:
    def test_matrix_round_trip(self):
        from fractions import Fraction

        m = RatMatrix.from_rows([[Fraction(1, 3), -2], [0, Fraction(7, 2)]])
        assert matrix_from_json(matrix_to_json(m)) == m

    def test_document_round_trip(self, pair_file):
        from polydecomp import decompose_recursive

        problem = read_problem(pair_file)
        polys = problem.parse()
        result = decompose_recursive(polys, seed=42)
        assert result.center == center_basis(polys)
        doc = result_to_document(problem, result, 42)
        blob = json.dumps(doc)
        _, restored = result_from_document(json.loads(blob))
        assert restored.center == result.center
        doc2 = result_to_document(problem, restored, 42)
        assert json.dumps(doc2) == blob


def _run_without_site(script: str) -> list[str]:
    """Output lines of ``script`` in a fresh interpreter without site
    packages (the tests import sympy and hypothesis), with the package's
    source directory first on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(polydecomp.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys\nsys.path.insert(0, {src!r})\n" + script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


# modules the decompose command has no use for; each costs start-up time
UNUSED_BY_DECOMPOSE = ("dataclasses", "inspect", "typing", "polydecomp.instancegen")


class TestStdlibOnly:
    def test_decompose_loads_only_the_standard_library(self, pair_file, tmp_path):
        # a fresh interpreter runs the command and lists what it loaded
        output = str(tmp_path / "out.json")
        script = (
            "from polydecomp.cli import main\n"
            f"argv = ['decompose', '--input', {pair_file!r}, '--json', '--output', {output!r}]\n"
            "rc = main(argv)\n"
            "loaded = {m.split('.')[0] for m in sys.modules}\n"
            "print(rc, sorted(loaded - set(sys.stdlib_module_names) - {'__main__'}))\n"
            "print(sorted(loaded & {'sympy', 'hypothesis'}))\n"
            f"print(sorted(set({UNUSED_BY_DECOMPOSE!r}) & set(sys.modules)))\n"
        )
        assert _run_without_site(script) == ["0 ['polydecomp']", "[]", "[]"]
        assert json.loads((tmp_path / "out.json").read_text())["diagonalizable"]

    def test_text_decompose_loads_no_json(self, pair_file, tmp_path):
        output = str(tmp_path / "out.txt")
        script = (
            "from polydecomp.cli import main\n"
            f"rc = main(['decompose', '--input', {pair_file!r}, '--output', {output!r}])\n"
            "print(rc, 'json' in sys.modules)\n"
        )
        assert _run_without_site(script) == ["0 False"]
        assert "diagonalizable: yes" in (tmp_path / "out.txt").read_text()

    def test_well_formed_commands_load_no_argparse(self, pair_file, tmp_path):
        # argparse, and the locale module its messages load, are read only
        # for help, errors and the forms the direct reader leaves to it
        result, generated = str(tmp_path / "out.json"), str(tmp_path / "gen.txt")
        script = (
            "import polydecomp.cli\n"
            "print('argparse' in sys.modules)\n"
            "for argv in [\n"
            f"    ['center', '--input', {pair_file!r}, '--json', '--output', {result!r}],\n"
            f"    ['decompose', '--input', {pair_file!r}, '--json', '--output', {result!r}],\n"
            f"    ['verify', '--input', {pair_file!r}, '--result', {result!r}],\n"
            f"    ['generate', '--n', '3', '--m', '1', '--blocks', '1,2', '--output', {generated!r}],\n"
            "]:\n"
            "    rc = polydecomp.cli.main(argv)\n"
            "    print(argv[0], rc, 'argparse' in sys.modules, 'locale' in sys.modules)\n"
        )
        assert _run_without_site(script) == [
            "False",
            "center 0 False False",
            "decompose 0 False False",
            "PASS: decomposition verified",
            "verify 0 False False",
            f"wrote {generated} and {generated}.truth.json",
            "generate 0 False False",
        ]

    def test_help_is_argparses(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps to
        src = os.path.dirname(os.path.dirname(os.path.abspath(polydecomp.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "polydecomp", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == build_parser().format_help()
        assert proc.stdout.startswith("usage: polydecomp [-h] {center,decompose,verify,generate}")

    def test_every_public_name_resolves(self):
        # generate and PlantedInstance load their module on first access
        script = (
            "import polydecomp\n"
            "print('polydecomp.instancegen' in sys.modules)\n"
            "from polydecomp import generate, PlantedInstance\n"
            "print(generate.__module__, PlantedInstance.__module__)\n"
            "names = polydecomp.__all__\n"
            "print(len(names), all(hasattr(polydecomp, n) for n in names))\n"
            "print(set(names) <= set(dir(polydecomp)))\n"
        )
        assert _run_without_site(script) == [
            "False",
            "polydecomp.instancegen polydecomp.instancegen",
            "24 True",
            "True",
        ]
