"""Command-line reading: the option table's two readers against the argparse
parser the table replaced, which is kept here as the reference."""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydecomp.cli import (
    COMMANDS,
    _read_plain,
    build_parser,
    cmd_center,
    cmd_decompose,
    cmd_generate,
    cmd_verify,
    main,
)


def reference_parser() -> argparse.ArgumentParser:
    """The parser written out by hand, as before the option table."""
    parser = argparse.ArgumentParser(
        prog="polydecomp",
        description="Simultaneous direct-sum decomposition of polynomial sets "
        "over the rationals (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_center = sub.add_parser("center", help="compute the center algebra basis")
    p_center.add_argument("--input", required=True, help="problem file path")
    p_center.add_argument("--json", action="store_true", help="emit JSON")
    p_center.add_argument("--output", help="write to file instead of stdout")
    p_center.set_defaults(func=cmd_center)

    p_dec = sub.add_parser("decompose", help="run the full decomposition pipeline")
    p_dec.add_argument("--input", required=True, help="problem file path")
    p_dec.add_argument("--seed", type=int, default=42)
    group = p_dec.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit JSON")
    group.add_argument("--text", action="store_true", help="emit text (default)")
    p_dec.add_argument("--output", help="write to file instead of stdout")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", help="re-check a serialized result")
    p_ver.add_argument("--input", required=True, help="problem file path")
    p_ver.add_argument("--result", required=True, help="result JSON path")
    p_ver.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="generate a planted instance")
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.add_argument("--n", type=int, required=True, help="variable count")
    p_gen.add_argument("--m", type=int, required=True, help="polynomial count")
    p_gen.add_argument(
        "--blocks", required=True, help="comma-separated block sizes summing to n"
    )
    p_gen.add_argument("--max-degree", type=int, default=3)
    p_gen.add_argument("--output", required=True, help="problem file to write")
    p_gen.set_defaults(func=cmd_generate)
    return parser


def outcome(call, argv):
    """(stdout, stderr, exit code or None, vars of the namespace or None)
    of ``call(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    code = parsed = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = vars(call(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code, parsed


HELP_AND_ERRORS = [
    ["--help"],
    ["-h"],
    *([command, "--help"] for command in ("center", "decompose", "verify", "generate")),
    [],
    ["frobnicate"],
    ["decompose"],
    ["decompose", "--input", "p.txt", "--json", "--text"],
    ["decompose", "--input", "p.txt", "--seed", "x"],
    ["decompose", "--input", "p.txt", "--frobnicate"],
    ["decompose", "--input", "p.txt", "stray"],
    ["verify", "--input", "p.txt"],
    ["generate", "--n", "4"],
]


@pytest.mark.parametrize("columns", ["80", "44"])
@pytest.mark.parametrize("argv", HELP_AND_ERRORS, ids=" ".join)
def test_help_and_error_texts_are_the_reference_parsers(argv, columns, monkeypatch):
    # COLUMNS fixes the width argparse wraps its texts to
    monkeypatch.setenv("COLUMNS", columns)
    expected = outcome(reference_parser().parse_args, argv)
    assert expected[2] in (0, 2)
    assert outcome(main, argv) == expected
    assert outcome(build_parser().parse_args, argv) == expected


WELL_FORMED = [
    ["center", "--input", "p.txt"],
    ["center", "--json", "--output", "o.json", "--input", "p.txt"],
    ["decompose", "--input", "p.txt", "--json", "--output", "o.json"],
    ["decompose", "--text", "--seed", "1_0", "--input", ""],
    ["verify", "--result", "r.json", "--input", "p.txt"],
    ["generate", "--n", "4", "--m", "2", "--blocks", "1,1,2", "--output", "g.txt"],
    ["generate", "--seed", " 7", "--n", "4", "--m", "2", "--blocks", "2,2",
     "--max-degree", "4", "--output", "g.txt"],
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_well_formed_lines_are_read_without_argparse(argv):
    plain = _read_plain(argv)
    assert plain is not None
    assert vars(plain) == vars(reference_parser().parse_args(argv))


OPTIONS = sorted({option[0] for _, _, options, _ in COMMANDS.values() for option in options})
ODD_FORMS = ["--inp", "--input=p.txt", "--seed=7", "--js", "-h", "--help", "--", "-x", "bogus"]
VALUES = ["7", "-5", "", "1_0", "x", "p.txt", " 3", "decompose"]
TOKENS = list(COMMANDS) + OPTIONS + ODD_FORMS + VALUES


@st.composite
def command_lines(draw):
    """A well-formed line (required options, some optional ones, in any
    order), then up to three tokens inserted, deleted or replaced."""
    command = draw(st.sampled_from(list(COMMANDS)))
    options = COMMANDS[command][2]
    argv = [command]
    for flag, kind, _, required, _ in draw(st.permutations(options)):
        if required or draw(st.booleans()):
            argv.append(flag)
            if kind is not bool:
                argv.append(draw(st.one_of(st.sampled_from(["7", "1_0"]), st.sampled_from(VALUES))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(TOKENS)))
        elif at < len(argv):
            argv[at : at + 1] = [] if edit == "delete" else [draw(st.sampled_from(TOKENS))]
    return argv


_REFERENCE = reference_parser()
_PARSER = build_parser()


@settings(max_examples=400, deadline=None)
@given(argv=command_lines())
def test_direct_reader_agrees_with_argparse(argv):
    expected = outcome(_REFERENCE.parse_args, argv)
    assert outcome(_PARSER.parse_args, argv) == expected
    plain = _read_plain(argv)
    if plain is not None:
        # argparse reads the line too, to the same namespace
        assert expected[2] is None
        assert vars(plain) == expected[3]

