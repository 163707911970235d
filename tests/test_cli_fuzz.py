"""Fuzz of the read path: ``validate -`` and ``convert -`` on arbitrary stdin,
and of the argument parser: argv drawn from the CLI's own vocabulary.
Each such argv, and a fixed list of edge cases, is parsed by the command's
own parser just as by the full parser.

Whatever the input, the command exits 0, 1 or 2, writes at most one line
to stderr (an ``error:`` line on exit 2) and raises nothing.  Whatever the
argv, every line on stderr is under 200 bytes.  The verdict agrees with a
set-based oracle kept in this file.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinsq.cli import _build_parser, _parse

from cli_cases import in_process

# ---------------------------------------------------------------- oracle


def _oracle_squares(text, exponential):
    """The input's matrices in symbol form, by the documented formats, or
    None when some block is not a square of 1..64 integer rows."""
    if text.lstrip()[:1] in ("{", "["):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError):
            return None
        items = data if isinstance(data, list) else [data]
        blocks = []
        for item in items:
            if not isinstance(item, dict):
                return None
            order, cells = item.get("order"), item.get("cells")
            if type(order) is not int or not isinstance(cells, list) or len(cells) != order:
                return None
            blocks.append(cells)
        exponential = False  # JSON always carries symbols
    else:
        blocks, current = [], []
        for line in text.splitlines() + [""]:
            if line.split():
                current.append(line.split())
            elif current:
                blocks.append(current)
                current = []
        try:
            blocks = [[[int(tok) for tok in row] for row in block] for block in blocks]
        except ValueError:
            return None
    squares = []
    for rows in blocks:
        if not isinstance(rows, list) or not 1 <= len(rows) <= 64:
            return None
        if not all(isinstance(row, list) and len(row) == len(rows) for row in rows):
            return None
        if not all(type(v) is int for row in rows for v in row):
            return None
        if exponential:
            powers = {1 << k: k + 1 for k in range(len(rows))}
            rows = [[powers.get(v, 0) for v in row] for row in rows]
        squares.append(rows)
    return squares or None


def oracle_is_latin(text, exponential):
    """Whether the input parses and every square in it is Latin."""
    squares = _oracle_squares(text, exponential)
    if squares is None:
        return False
    for rows in squares:
        symbols = set(range(1, len(rows) + 1))
        if any(set(line) != symbols for line in rows + [list(col) for col in zip(*rows)]):
            return False
    return True


# ---------------------------------------------------------------- inputs


@st.composite
def grids(draw):
    """Integer rows: often a Latin square in symbol or exponential form,
    often a near miss."""
    n = draw(st.integers(min_value=1, max_value=7))
    shift = draw(st.permutations(range(n)))
    rows = [[(shift[r] + c) % n + 1 for c in range(n)] for r in range(n)]
    if draw(st.booleans()):
        rows = [[1 << (v - 1) for v in row] for row in rows]
    cell = st.integers(min_value=0, max_value=n - 1)
    value = st.sampled_from([0, -1, n + 1, 3, 2**70, rows[0][0]]) | st.integers()
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row, j, k = rows[draw(cell)], draw(cell), draw(cell)
        if draw(st.booleans()):
            row[j] = draw(value)
        else:  # the row stays a permutation, two columns break
            row[j], row[k] = row[k], row[j]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        del rows[draw(cell)][-1]  # ragged
    return rows


def _text(blocks):
    return "\n".join("".join(" ".join(map(str, row)) + "\n" for row in rows) for rows in blocks)


json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=5), kids, max_size=4),
    max_leaves=20,
)

json_squares = st.builds(
    lambda order, cells: {"order": order, "cells": cells},
    st.integers(min_value=-1, max_value=4) | st.booleans(),
    st.lists(st.lists(st.integers(min_value=-1, max_value=5) | json_trees, max_size=4), max_size=4),
)

inputs = st.one_of(
    st.text(),
    st.text(alphabet=" \t\n0123456789-+[]{}\",:.e"),
    grids().map(lambda rows: _text([rows])),
    st.lists(grids(), min_size=1, max_size=3).map(_text),
    grids().map(lambda rows: json.dumps({"order": len(rows), "cells": rows})),
    json_trees.map(json.dumps),
    json_squares.map(json.dumps),
    st.lists(json_squares, max_size=3).map(json.dumps),
)


# ---------------------------------------------------------------- properties


def assert_one_line_at_most(code, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ")
    assert err == "" or err.count("\n") == 1 and err.endswith("\n")


@settings(max_examples=300, deadline=None)
@given(inputs, st.booleans())
def test_validate_fuzz(text, exp):
    code, out, err = in_process(["validate", "-"] + ["--exp"] * exp, text)
    assert_one_line_at_most(code, err)
    assert (code == 0) == oracle_is_latin(text, exp)
    if code != 2:
        assert err == "" and out.count("\n") == 1


@settings(max_examples=300, deadline=None)
@given(inputs, st.sampled_from(["exp", "grid"]))
def test_convert_fuzz(text, to):
    code, out, err = in_process(["convert", "-", "--to", to], text)
    assert_one_line_at_most(code, err)
    # text input is taken to be in the form opposite the target
    assert (code == 0) == oracle_is_latin(text, to == "grid")
    if code != 0:
        assert out == ""
    else:  # the oracle's squares, spelled in the target form
        spell = str if to == "grid" else lambda v: str(1 << (v - 1))
        squares = _oracle_squares(text, to == "grid")
        assert out == _text([[list(map(spell, row)) for row in rows] for rows in squares])


# ---------------------------------------------------------------- argv

COMMANDS = ("generate", "validate", "convert", "count", "bench")
BAD = ("0", "-1", "65", "x", "2.5", "")
# per flag, the values it takes and the values it refuses; a size stays
# at most 3, so every example runs in milliseconds
FLAGS = {
    "--order": (("1", "2", "3"), BAD),
    "-n": (("1", "2", "3"), BAD),
    "--seed": (("0", "3", "65"), BAD),
    "--count": (("1", "2", "3"), ("0", "-1", "x", "2.5", "")),
    "--iterations": (("1", "2", "3"), ("0", "-1", "x", "2.5", "")),
    "--format": (("grid", "exp", "json"), BAD),
    "--to": (("grid", "exp"), BAD + ("json",)),
}
# the flags each command takes, and "-" for its one file argument
USES = {
    "generate": ("--order", "-n", "--seed", "--count", "--format"),
    "validate": ("-", "--exp"),
    "convert": ("-", "--to"),
    "count": ("--order", "-n"),
    "bench": ("--order", "-n", "--seed", "--iterations"),
}


def _join(command, tail):
    return command + [word for part in tail for word in part]


def _fitting(command):
    """The command with each word it takes, present or not, in any order."""
    groups = [
        (st.sampled_from(FLAGS[word][0]) | st.sampled_from(FLAGS[word][1])).map(
            lambda value, flag=word: [flag, value]
        )
        if word in FLAGS
        else st.just([word])
        for word in USES[command]
    ]
    present = st.tuples(*(st.just([]) | group for group in groups))
    return present.flatmap(st.permutations).map(lambda tail: _join([command], tail))


# words that a refusal must neither quote whole nor break across lines
LONG = ("x" * 3000, "x " * 1500, "a\nb", "\n", "x\n" * 1500, "\udcff", "\udcff" * 3000)

anywhere = [[flag, value] for flag, (good, bad) in FLAGS.items() for value in good + bad + LONG]
anywhere += [[word] for word in sorted(FLAGS) + ["--exp", "-", "1", "2"] + list(BAD)]
anywhere += [[prefix + word] for word in LONG for prefix in ("", "--", "--=", "--exp=")]

argvs = st.one_of(
    st.sampled_from(COMMANDS).flatmap(_fitting),  # some of these succeed
    st.builds(
        _join,
        st.sampled_from([[c] for c in COMMANDS] + [[]]),
        st.lists(st.sampled_from(anywhere), max_size=5),
    ),
)


@settings(max_examples=300, deadline=None)
@given(argvs, inputs)
def test_argv_fuzz(argv, text):
    code, out, err = in_process(argv, text)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert all(len(line.encode()) < 200 for line in err.splitlines(keepends=True))


def _parsed(parse, argv):
    """What ``parse(argv)`` gives: its Namespace less ``command``, the
    refusal it raises or the ``SystemExit`` code, each with what it wrote
    to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = vars(parse(argv))
        except ValueError as exc:
            result = ("refused", str(exc))
        except SystemExit as exc:
            result = ("exit", exc.code)
        else:
            args.pop("command", None)
            result = ("args", args)
    return result, out.getvalue(), err.getvalue()


def assert_parsed_as_by_the_full_parser(argv):
    assert _parsed(_parse, argv) == _parsed(_build_parser().parse_args, argv)


EDGE_ARGVS = [
    ["count", "-n5"],
    ["count", "--order=5"],
    ["count", "--ord", "5"],
    ["count", "--order", "5", "x"],
    ["count", "--", "--order", "5"],
    ["count", "--order", "5", "--"],
    ["-h"],
    ["count", "-h"],
    ["coun", "--order", "5"],
    [],
    ["--", "count", "--order", "5"],
    ["validate", "-", "--exp", "extra"],
    ["convert", "--to", "exp", "--", "-"],
    ["bench", "--order", "4", "--iter", "2"],
    ["count", "--order", "9" * 4000],
]


@pytest.mark.parametrize("argv", EDGE_ARGVS, ids=lambda argv: "_".join(argv)[:40] or "empty")
def test_command_parser_agrees_with_the_full_parser(argv):
    assert_parsed_as_by_the_full_parser(argv)


@settings(max_examples=300, deadline=None)
@given(argvs)
def test_command_parser_agrees_with_the_full_parser_on_fuzzed_argv(argv):
    assert_parsed_as_by_the_full_parser(argv)
