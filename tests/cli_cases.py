"""The command line's cases, one row each, each run in process and through
the installed script.

A row (``Case``) holds an id with no spaces; the argv, as ``str`` words,
with a byte that is not UTF-8 written as its lone surrogate
(``"\\udcff"``); the stdin, as text or ``CLOSED``; and what the request
must give: its exit code, stdout and stderr.  An output is stated as
exact text, as the ``Sha256`` of its UTF-8, or as an ``re`` pattern it
must match whole: ``ONE_ERROR_LINE``, or the text of ``bench`` and
``--help``, which varies by host and by Python.  Whatever the row, a
request that fails writes one line of under 200 bytes, and every request
leaves this process with no child and no more open descriptors than
before it.

Each row runs two ways.  ``in_process`` calls ``main`` with the standard
streams swapped in.  ``console`` runs the installed ``latinsq`` script in
a child, and skips where none is installed; the child imports the package
from this process's own ``src``, so that both runs test the same code.

The rows are grouped by the test that runs them in process.  Each group
keeps the name and the ids of the test that held its cases before the
table, so that those ids stay put; ``PLAIN`` names the groups whose test
took no parameters.  A new case goes into the group it fits, or into
``cli_case``.  ``test_console`` runs every row through the script.
"""

import argparse
import functools
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from typing import NamedTuple

import pytest

from latinsq import cli
from latinsq.cli import main
from latinsq.latin_gen import generate
from latinsq.rng_choice import RandomSource

from conftest import ORDER12_EXP, cut, render_rows

CLOSED = None  # a stdin closed before the request starts, as ``<&-`` closes it
SCRIPT = shutil.which("latinsq")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


class Sha256(NamedTuple):
    """An output stated by the sha256 of its UTF-8."""

    hex: str


ONE_ERROR_LINE = re.compile(r"error: .*\n")  # "." takes no line break


class Case(NamedTuple):
    id: str
    argv: list
    stdin: str | None = ""
    code: int = 0
    out: object = ""  # exact text, a Sha256 or a pattern
    err: object = ""
    marks: tuple = ()


def _refused(id, argv, message=None, stdin="", marks=()):
    """A request refused at exit 2 with ``error: <message>``, or with any
    one error line when no message is given."""
    err = ONE_ERROR_LINE if message is None else f"error: {message}\n"
    return Case(id, argv, stdin, 2, "", err, marks)


def _invalid(id, argv, verdict, stdin, marks=()):
    """A square found invalid, at exit 1: ``validate`` writes the verdict
    to stdout, ``convert`` to stderr."""
    out, err = (f"{verdict}\n", "") if argv[0] == "validate" else ("", f"{verdict}\n")
    return Case(id, argv, stdin, 1, out, err, marks)


# ---------------------------------------------------------------- runners


def in_process(argv, stdin=""):
    """``main(argv)`` with ``stdin`` (``CLOSED``: None) and a fresh stdout
    and stderr swapped in: (exit code, stdout, stderr)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = None if stdin is CLOSED else io.StringIO(stdin)
    sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def child_env(unbuffered=False):
    """The environment of a child that runs this package's ``src``: in
    UTF-8 mode, so that it reads argv and stdin as ``main`` reads them in
    process whatever the locale, and with stdout buffered as in a shell
    pipe unless ``unbuffered``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=SRC + os.pathsep + env.get("PYTHONPATH", ""), PYTHONUTF8="1")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(argv, start=subprocess.run, unbuffered=False, **options):
    """``start`` (``subprocess.run`` or ``Popen``) on a child that runs
    ``argv`` through the installed script, or as ``python -m latinsq.cli``
    where none is installed, in ``child_env``."""
    head = [SCRIPT] if SCRIPT else [sys.executable, "-m", "latinsq.cli"]
    return start(head + [os.fsencode(word) for word in argv], env=child_env(unbuffered), **options)


def console(argv, stdin=""):
    """``argv`` run through the installed script: (exit code, stdout, stderr)."""
    if SCRIPT is None:
        pytest.skip("no latinsq script is installed")
    if stdin is CLOSED:
        streams = {"stdin": subprocess.DEVNULL, "preexec_fn": functools.partial(os.close, 0)}
    else:
        streams = {"input": stdin.encode(errors="surrogateescape")}
    done = spawn(argv, capture_output=True, timeout=60, **streams)
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def _seen(text, expected):
    """``text`` in the form ``expected`` states it in: the text itself, its
    ``Sha256``, or the pattern when that matches it whole."""
    if isinstance(expected, Sha256):
        return Sha256(hashlib.sha256(text.encode()).hexdigest())
    if isinstance(expected, re.Pattern) and expected.fullmatch(text):
        return expected
    return text


def open_descriptors() -> int:
    """How many descriptors this process holds open, where Linux lists
    them in ``/proc/self/fd``; 0 elsewhere."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


def assert_nothing_left(descriptors):
    """This process has no child, running or unreaped, and holds
    ``descriptors`` descriptors open, as it did before a request."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_descriptors() == descriptors


def check(case, run):
    descriptors = open_descriptors()
    code, out, err = run(case.argv, case.stdin)
    assert (code, _seen(out, case.out), _seen(err, case.err)) == (case.code, case.out, case.err)
    if code:  # a request that fails writes one line of under 200 bytes
        line = out + err
        assert line.count("\n") == 1 and line.endswith("\n") and len(line.encode()) < 200
    assert_nothing_left(descriptors)


# ---------------------------------------------------------------- values

READ_ARGVS = {  # id -> the argv of each command that reads a square from stdin
    "validate": ["validate", "-"],
    "validate-exp": ["validate", "-", "--exp"],
    "convert-to-grid": ["convert", "-", "--to", "grid"],
    "convert-to-exp": ["convert", "-", "--to", "exp"],
}

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: int reads any number
AT_LIMIT, PAST_LIMIT = "9" * DIGIT_LIMIT, "9" * (DIGIT_LIMIT + 1)
PAST_DIGITS = f"number of more than {DIGIT_LIMIT} digits"
PAST_MESSAGE = f"{PAST_DIGITS} in row: "
LIMITED = (pytest.mark.skipif(not DIGIT_LIMIT, reason="int reads any number of digits"),)
HUGE_ROW = " ".join(["9" * 5000] * 65) + "\n"  # oversized, and no token int reads

LATER_BLOCKS = [  # (id, a malformed block after square 1, its refusal, marks)
    ("token", "x\n", "not an integer row: 'x'", ()),
    ("5000-digits", "9" * 5000 + "\n", f"{PAST_MESSAGE}'{'9' * 76}...", LIMITED),
    # int refuses a number past its digit limit, and the line says so
    ("past-the-digit-limit", f"1 {PAST_LIMIT}\n", PAST_MESSAGE + cut(repr("1 " + PAST_LIMIT)), LIMITED),
    ("signed-grouped-past-the-digit-limit", f"1 -{AT_LIMIT}_9\n", PAST_MESSAGE + cut(f"'1 -{AT_LIMIT}_9'"), LIMITED),
    ("digits-then-x", f"1 {PAST_LIMIT}x\n", "not an integer row: " + cut(repr(f"1 {PAST_LIMIT}x")), ()),
    ("5000-x", "1 " + "x" * 5000 + "\n", "not an integer row: " + cut(repr("1 " + "x" * 5000)), ()),
    ("65-rows", "1\n" * 65, "input square is larger than 64 x 64", ()),
    ("65-huge-tokens", HUGE_ROW, "input square is larger than 64 x 64", ()),
]

REFUSED_ROWS = {  # id -> (a row int refuses, the row as the error line quotes it)
    "x": ("x", "'x'"),
    "NaN": ("NaN", "'NaN'"),
    "surrogates": ("\udcff\udcfe", "'\\udcff\\udcfe'"),
    "80-bytes": ("x" * 78, repr("x" * 78)),  # 80 bytes quoted: kept whole
    "81-bytes": ("x" * 79, "'" + "x" * 76 + "..."),
    "64-tokens": ("x " * 64, "'" + "x " * 38 + "..."),
    "escapes": ("\U000e0001" * 500, "'" + "\\U000e0001" * 7 + "\\U000e..."),  # escapes, cut
    "2-byte": ("\u00e9" * 500, "'" + "\u00e9" * 38 + "..."),  # two bytes each: none cut in two
    "3-byte": ("\u20ac" * 500, "'" + "\u20ac" * 25 + "..."),  # three bytes each: one cut, dropped
}

NINES = "9" * 4000  # int reads it; it is no symbol and no power of two
CUT_NINES = "9" * 77 + "..."
JSON_SQUARE = '{"order": 2, "cells": [[1, %s], [2, 1]]}'
OUTSIDE = f"row 1 contains {CUT_NINES}, outside 1..2"
NOT_AN_INTEGER = "row 1 holds a non-integer entry "
LONG_VALUES = [  # (id, input, exit code, verdict or refusal, marks)
    ("text", f"1 {NINES}\n2 1\n", 1, OUTSIDE, ()),
    ("json-int", JSON_SQUARE % NINES, 1, OUTSIDE, ()),
    ("text-at-the-digit-limit", f"1 {AT_LIMIT}\n2 1\n", 1, OUTSIDE, LIMITED),
    ("json-at-the-digit-limit", JSON_SQUARE % AT_LIMIT, 1, OUTSIDE, LIMITED),
    ("json-past-the-digit-limit", JSON_SQUARE % PAST_LIMIT, 2, f"JSON input holds a {PAST_DIGITS}", LIMITED),
    ("json-string", JSON_SQUARE % json.dumps("x" * 5000), 2, f"{NOT_AN_INTEGER}'{'x' * 76}...", ()),
    ("json-list", JSON_SQUARE % list(range(3000)), 2, NOT_AN_INTEGER + cut(repr(list(range(3000)))), ()),
]
# exponential text reads the long value as a cell that is not a power of two
NOT_A_POWER = f"row 1 column 2 contains {CUT_NINES}, not a power of two in 1..2"

CUT_X_NINES = cut(repr("x" + NINES))  # argparse quotes a refused value by repr
SEED_MESSAGE = "seed must be an unsigned 64-bit value, got "
LONG_PATH = "/nonexistent/" + "y" * 300
LONG_WORD = "x" * 3000
MANY_WORDS = [str(k) for k in range(1500)]


def choices_tail(*choices):
    """What argparse writes after a refused choice, `` (choose from ...)``,
    with the choices listed as this Python's argparse lists them."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument("--x", choices=choices)
    with pytest.raises(argparse.ArgumentError) as refused:
        parser.parse_args(["--x", "?"])
    return str(refused.value).partition("'?'")[2]


COMMANDS_TAIL = choices_tail("generate", "validate", "convert", "count", "bench")
FORMATS_TAIL = choices_tail("grid", "exp", "json")
GENERATE_OPTIONS = "--help, --order, --seed, --count, --format"
COUNT_AMBIGUOUS = "latinsq count: ambiguous option: "
LEFT_OVER = "latinsq: unrecognized arguments: "

COUNTS = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280, 6: 812851200, 7: 61479419904000}


def bench_output(order, iterations, seed, repairs=r"total \d+, mean \d+\.\d\d, max \d+"):
    """The pattern of ``bench``'s report, its times left open."""
    return re.compile(
        f"order {order}, {iterations} squares per implementation, seed {seed}\n"
        r"bitmask     total \d+\.\d{4} s   \d+\.\d{3} ms/square\n"
        r"bool array  total \d+\.\d{4} s   \d+\.\d{3} ms/square\n"
        r"speedup     \d+\.\d\dx \(bitmask over bool array\)\n"
        f"repairs     {repairs} per square\n"
    )



# the order-64 square of seed 3, as generate writes it in each text form
SQUARE_64 = generate(64, RandomSource(3)).square
GRID_64, EXP_64 = render_rows(SQUARE_64.cells), render_rows(SQUARE_64.exponential)
GRID_64_SHA = Sha256("2c88d9dcd1085f61a4c988b1b8d9fba7525569196ba49a8fa36d8227d4112695")
EXP_64_SHA = Sha256("db8dedd45fc84507ec0dc989ad9fa1f54a73db667c05c4bbad43dfaaaebd4e70")
# its first row with the first token set to the second
_first, _rest = EXP_64.split("\n", 1)
EXP_64_ROW_DUPLICATE = " ".join(_first.split()[1:2] + _first.split()[1:]) + "\n" + _rest

README_GRID = "1 2 5 3 4\n2 4 3 5 1\n5 3 4 1 2\n3 1 2 4 5\n4 5 1 2 3\n"
GENERATE_GRID_SHA = Sha256("76464cba97018463b056dd88bc143a8aad473bb7cc8b045795666517501445cf")
GENERATE_JSON_SHA = Sha256("78b6095fbb44af44d15154a6d962d18fa09a402fc8ace075200e29c0a7a24f4e")
JSON_2 = '{"order": 2, "cells": [[1, 2], [2, 1]]}'
JSON_3 = '{"order": 3, "cells": [[1, 2, 3], [2, 3, 1], [3, 1, 2]]}'
BAD_2 = '{"order": 2, "cells": [[1, 2], [2, 2]]}'
JSON_SHAPE = 'JSON square must be {"order": n, "cells": [[...]]}'
# the reference order-12 square in exponential text, and the grid it
# converts to: each cell's symbol is the bit length of its power
ORDER12_TEXT = render_rows(ORDER12_EXP)
ORDER12_GRID = render_rows([v.bit_length() for v in row] for row in ORDER12_EXP)
# 14,400 cells: drawn by up to three processes, one per usable CPU
FORKED_BATCH = ["generate", "--order", "12", "--count", "100", "--seed", "5", "--format", "json"]
FORKED_BATCH_SHA = Sha256("69339dd6c673da72e75da9ee24477b7761169195b211babf29de6aaee65343cb")

# ---------------------------------------------------------------- rows

VALIDATE, VALIDATE_EXP, TO_GRID, TO_EXP = READ_ARGVS.values()
NOT_SQUARE = "matrix is not square: 2 rows but row {} has 3 entries"
TOO_LARGE = "input square is larger than 64 x 64"

TABLE = {
    "cli_case": [
        Case("count-abbreviated-option", ["count", "--ord", "5"], out="161280\n"),
        _refused("count-9", ["count", "--order", "9"], "order must be in 1..7, got 9"),
        _refused(
            "misspelled-command",
            ["coun", "--order", "5"],
            f"latinsq: argument command: invalid choice: 'coun'{COMMANDS_TAIL}",
        ),
        _refused("ambiguous-option", ["count", "--=5"], f"{COUNT_AMBIGUOUS}--=5 could match --help, --order"),
        _refused(
            "missing-file",
            ["validate", "/nonexistent/square"],
            "[Errno 2] No such file or directory: '/nonexistent/square'",
        ),
        Case("readme-grid", ["generate", "--order", "5", "--seed", "42"], out=README_GRID),
        Case("generate-grid", ["generate", "--order", "5", "--seed", "1", "--count", "3"], out=GENERATE_GRID_SHA),
        Case(
            "generate-json",
            ["generate", "--order", "5", "--seed", "1", "--count", "3", "--format", "json"],
            out=GENERATE_JSON_SHA,
        ),
        Case("generate-forked-batch", FORKED_BATCH, out=FORKED_BATCH_SHA),
        _refused("generate-70", ["generate", "--order", "70"], "order must be in 1..64, got 70"),
        Case("generate-order-64", ["generate", "--order", "64", "--seed", "3"], out=GRID_64_SHA),
        Case("generate-order-64-exp", ["generate", "--order", "64", "--seed", "3", "--format", "exp"], out=EXP_64_SHA),
        Case("convert-order-64-to-grid", TO_GRID, EXP_64, out=GRID_64_SHA),
        Case("convert-order-64-to-exp", TO_EXP, GRID_64, out=EXP_64_SHA),
        _invalid("order-64-row-duplicate", VALIDATE_EXP, "row 1 duplicates 39", EXP_64_ROW_DUPLICATE),
        Case(
            "bench-order-64",
            ["bench", "--order", "64", "--iterations", "2", "--seed", "1"],
            out=bench_output(64, 2, 1),
        ),
        _invalid("validate-invalid", VALIDATE, "row 2 duplicates 2", "1 2\n2 2\n"),
        _invalid("convert-invalid", TO_EXP, "row 2 duplicates 2", "1 2\n2 2\n"),
        _refused("validate-malformed", VALIDATE, "not an integer row: '1 x'", "1 x\n2 1\n"),
        _refused("convert-malformed", TO_EXP, "not an integer row: '1 x'", "1 x\n2 1\n"),
        Case("validate-json", VALIDATE, JSON_2, out="VALID\n"),
        Case("convert-json", TO_EXP, JSON_2, out="1 2\n2 1\n"),
        Case("validate-reference-order-12", VALIDATE_EXP, ORDER12_TEXT, out="VALID\n"),
        Case("convert-reference-order-12-to-grid", TO_GRID, ORDER12_TEXT, out=ORDER12_GRID),
        _refused("validate-empty", VALIDATE, "no matrix found in input"),
        _invalid(
            "validate-second-square-invalid", VALIDATE, "square 2: column 1 duplicates 1", "1 2\n2 1\n\n1 2\n1 2\n"
        ),
        _invalid("validate-json-invalid", VALIDATE, "row 2 duplicates 2", BAD_2),
        _invalid(
            "validate-json-second-square-invalid", VALIDATE, "square 2: row 2 duplicates 2", f"[{JSON_2}, {BAD_2}]"
        ),
        Case("validate-json-batch", VALIDATE, f"[{JSON_2}, {JSON_3}]", out="VALID\n"),
        Case("convert-json-batch", TO_EXP, f"[{JSON_2}, {JSON_3}]", out="1 2\n2 1\n\n1 2 4\n2 4 1\n4 1 2\n"),
        Case("convert-json-to-grid", TO_GRID, JSON_3, out="1 2 3\n2 3 1\n3 1 2\n"),
        _invalid("convert-json-invalid", TO_EXP, "row 2 duplicates 2", BAD_2),
        # a JSON input whose shape is wrong is refused with its fault named
        _refused("validate-json-empty-array", VALIDATE, "no matrix found in input", "[]"),
        _refused("validate-json-not-a-square", VALIDATE, JSON_SHAPE, "[1]"),
        _refused("validate-json-missing-cells", VALIDATE, JSON_SHAPE, '{"order": 2}'),
        _refused(
            "validate-json-order-mismatch",
            VALIDATE,
            "JSON cells hold 2 rows, but the order is 3",
            '{"order": 3, "cells": [[1, 2], [2, 1]]}',
        ),
        _refused(
            "validate-json-too-many-rows",
            VALIDATE,
            "JSON cells hold 2 rows, but the order is 1",
            '{"order": 1, "cells": [[1], [1]]}',
        ),
        _refused(
            "validate-json-long-order",
            VALIDATE,
            f"JSON cells hold 0 rows, but the order is {CUT_NINES}",
            f'{{"order": {NINES}, "cells": []}}',
        ),
        _refused(
            "validate-json-order-string",
            VALIDATE,
            f"JSON order must be an integer, got '{'x' * 76}...",
            '{"order": %s, "cells": []}' % json.dumps("x" * 5000),
        ),
        _refused(
            "validate-json-cells-not-a-list",
            VALIDATE,
            "JSON cells must be a list of rows, got 1",
            '{"order": 1, "cells": 1}',
        ),
        _refused(
            "validate-json-row-not-a-list",
            VALIDATE,
            "JSON row 2 must be a list, got 3",
            '{"order": 2, "cells": [[1, 2], 3]}',
        ),
        _refused(
            "validate-json-broken",
            VALIDATE,
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
            "{broken json",
        ),
        # a JSON boolean is no integer, as the order or as a cell
        _refused(
            "validate-json-boolean-order",
            VALIDATE,
            "JSON order must be an integer, got True",
            '{"order": true, "cells": [[true]]}',
        ),
        _refused(
            "validate-json-boolean-cell", VALIDATE, "row 1 holds a non-integer entry True", '{"order": 1, "cells": [[true]]}'
        ),
        _refused(
            "validate-json-boolean-in-row-2",
            VALIDATE,
            "row 2 holds a non-integer entry True",
            '{"order": 2, "cells": [[1, 2], [2, true]]}',
        ),
        _invalid("grid-above-64", VALIDATE, "row 2 contains 65, outside 1..2", "1 2\n2 65\n"),
        _invalid("grid-negative", VALIDATE, "row 2 contains -1, outside 1..2", "1 2\n2 -1\n"),
        # exponential text: tokens int reads in another spelling, values the table lacks
        Case("exp-signed-and-padded", TO_GRID, "1 +2\n02 1\n", out="1 2\n2 1\n"),
        _invalid("exp-duplicate", VALIDATE_EXP, "column 1 duplicates 2", "+2 1\n02 1\n"),
        *(
            _invalid(id, VALIDATE_EXP, f"row 1 column {column} contains {value}, not a power of two in 1..2", text)
            for id, text, column, value in (
                ("exp-non-power", "1 6\n2 1\n", 2, 6),
                ("exp-power-above-range", "1 4\n4 1\n", 2, 4),
                ("exp-beyond-the-table", "1 18446744073709551616\n2 1\n", 2, 18446744073709551616),
                ("exp-zero", "3 0\n0 3\n", 1, 3),
            )
        ),
        *(_refused(f"closed-stdin-{id}", argv, "stdin is closed", CLOSED) for id, argv in READ_ARGVS.items()),
    ],
    "usage_error_is_one_line": [
        _refused("no-command", []),
        _refused("unknown-command", ["frobnicate"]),
        _refused("bad-format", ["generate", "--order", "4", "--format", "xml"]),
        _refused("missing-order", ["generate"]),
        _refused("order-not-int", ["generate", "--order", "x"]),
        _refused("count-zero", ["generate", "--order", "4", "--count", "0"]),
        _refused("iterations-zero", ["bench", "--order", "4", "--iterations", "0"]),
        _refused("seed-negative", ["generate", "--order", "4", "--seed", "-1"]),
        _refused("seed-too-large", ["generate", "--order", "4", "--seed", str(1 << 64)]),
        _refused("bench-seed-negative", ["bench", "--order", "4", "--seed", "-1"]),
    ],
    "command_line_values_are_quoted_within_a_short_line": [
        _refused("generate-order", ["generate", "--order", NINES], f"order must be in 1..64, got {CUT_NINES}"),
        _refused("bench-order", ["bench", "--order", NINES], f"order must be in 1..64, got {CUT_NINES}"),
        _refused("count-order", ["count", "--order", NINES], f"order must be in 1..7, got {CUT_NINES}"),
        _refused("generate-seed", ["generate", "--order", "5", "--seed", NINES], SEED_MESSAGE + CUT_NINES),
        _refused("bench-seed", ["bench", "--order", "5", "--seed", NINES], SEED_MESSAGE + CUT_NINES),
        _refused(
            "generate-not-an-int",
            ["generate", "--order", "x" + NINES],
            f"latinsq generate: argument --order/-n: invalid int value: {CUT_X_NINES}",
        ),
        _refused(
            "bench-not-an-int",
            ["bench", "--order", "x" + NINES],
            f"latinsq bench: argument --order/-n: invalid int value: {CUT_X_NINES}",
        ),
        _refused(
            "count",
            ["generate", "--order", "5", "--count", "x" + NINES],
            f"latinsq generate: argument --count: invalid int value: {CUT_X_NINES}",
        ),
        _refused(  # more digits than int reads; where it reads them, bench would run for ever
            "iterations",
            ["bench", "--order", "5", "--iterations", "9" * 5000],
            "latinsq bench: argument --iterations: invalid int value: " + cut(repr("9" * 5000)),
            marks=LIMITED,
        ),
        # values of at most 80 bytes read as argparse words them
        _refused(
            "short-order", ["generate", "--order", "x"], "latinsq generate: argument --order/-n: invalid int value: 'x'"
        ),
        _refused(
            "80-byte-order",
            ["count", "--order", "x" * 78],
            f"latinsq count: argument --order/-n: invalid int value: '{'x' * 78}'",
        ),
        _refused(
            "short-count",
            ["generate", "--order", "5", "--count", "x"],
            "latinsq generate: argument --count: invalid int value: 'x'",
        ),
        _refused(
            "iterations-0",
            ["bench", "--order", "5", "--iterations", "0"],
            "latinsq bench: argument --iterations: must be a positive integer",
        ),
        _refused("long-path", ["validate", LONG_PATH], f"[Errno 2] No such file or directory: {cut(repr(LONG_PATH))}"),
        # argparse's own refusals: the refused choice and the words left over
        _refused(
            "long-command",
            [LONG_WORD],
            f"latinsq: argument command: invalid choice: {cut(repr(LONG_WORD))}{COMMANDS_TAIL}",
        ),
        _refused(
            "long-format",
            ["generate", "--order", "3", "--format", LONG_WORD],
            f"latinsq generate: argument --format: invalid choice: {cut(repr(LONG_WORD))}{FORMATS_TAIL}",
        ),
        _refused("long-extra", ["count", "--order", "5", LONG_WORD], f"{LEFT_OVER}{cut(LONG_WORD)}"),
        _refused(
            "long-ambiguous-option",
            ["generate", f"--={LONG_WORD}"],
            f"latinsq generate: ambiguous option: {cut('--=' + LONG_WORD)} could match {GENERATE_OPTIONS}",
        ),
        _refused(
            "long-flag-value",
            ["validate", "-", f"--exp={LONG_WORD}"],
            f"latinsq validate: argument --exp: ignored explicit argument {cut(repr(LONG_WORD))}",
        ),
        _refused(
            "80-byte-format",
            ["generate", "--order", "3", "--format", "x" * 78],
            f"latinsq generate: argument --format: invalid choice: '{'x' * 78}'{FORMATS_TAIL}",
        ),
        _refused("short-extra", ["count", "--order", "5", "extra"], f"{LEFT_OVER}extra"),
        _refused("short-ambiguous-option", ["count", "--=x"], f"{COUNT_AMBIGUOUS}--=x could match --help, --order"),
        _refused(
            "short-flag-value",
            ["validate", "-", "--exp=x"],
            "latinsq validate: argument --exp: ignored explicit argument 'x'",
        ),
        # words argparse quotes as written: a line break in one reads as one
        # space, and a line too long for 198 bytes is cut to 195 and "..."
        _refused("extra-with-a-line-break", ["count", "--order", "5", "a\nb"], f"{LEFT_OVER}a b"),
        _refused(
            "ambiguous-option-with-a-line-break",
            ["generate", "--=a\nb"],
            f"latinsq generate: ambiguous option: --=a b could match {GENERATE_OPTIONS}",
        ),
        _refused(
            "many-extra-words",
            ["count", "--order", "5", *MANY_WORDS],
            f"{LEFT_OVER}{' '.join(MANY_WORDS)}"[: 195 - len("error: ")] + "...",
        ),
        # a byte that is not UTF-8 reaches argv as a lone surrogate: a word
        # quoted as written spells it as stderr writes it, \udcXX
        _refused("extra-not-utf-8", ["count", "--order", "5", "\udcff"], f"{LEFT_OVER}\\udcff"),
        _refused(
            "ambiguous-option-not-utf-8",
            ["generate", "--=\udcff"],
            f"latinsq generate: ambiguous option: --=\\udcff could match {GENERATE_OPTIONS}",
        ),
        _refused("long-extra-not-utf-8", ["count", "--order", "5", "\udcff" * 3000], LEFT_OVER + cut("\\udcff" * 3000)),
    ],
    # an explicit seed is not echoed
    "generate_order1": [
        Case("generate-order-1", ["generate", "--order", "1", "--seed", "7", "--format", "grid"], out="1\n"),
    ],
    "generate_rejects_order_before_drawing_a_seed": [
        _refused(order, ["generate", "--order", order], f"order must be in 1..64, got {order}") for order in ("0", "65")
    ],
    "generate_rejects_bad_seed": [
        _refused("seed-minus-1", ["generate", "--order", "4", "--seed", "-1"], f"{SEED_MESSAGE}-1"),
    ],
    "validate_stdin": [Case("validate-valid", VALIDATE, "1 2\n2 1\n", out="VALID\n")],
    "validate_deeply_nested_json": [
        _refused(id, VALIDATE, "JSON input is nested too deeply", text)
        for id, text in (
            ("unclosed", "[" * 10**5),
            ("closed", "[" * 10**5 + "]" * 10**5),
            ("objects", '{"a": ' * 10**5),
        )
    ],
    # the bad tokens past the limit are never converted, so only the size is reported
    "validate_refuses_oversized_text_early": [
        _refused(id, VALIDATE, TOO_LARGE, text)
        for id, text in (
            ("rows", "1\n" * 10**5),
            ("tokens", "1 " * 10**5 + "\n"),
            ("rows-after-64", "1\n" * 64 + "x\n" * 10**5),
            ("bad-tokens", "x " * 10**5 + "\n"),
        )
    ],
    "ragged_json_rows_are_named": [
        _refused(id, argv, NOT_SQUARE.format(2), '{"order": 2, "cells": [[1, 2], [2, 1, 3]]}')
        for id, argv in (("None", VALIDATE), ("exp", TO_EXP), ("grid", TO_GRID))
    ],
    "convert_order1": [
        Case("convert-order-1-to-exp", TO_EXP, "1\n", out="1\n"),
        Case("convert-order-1-to-grid", TO_GRID, "1\n", out="1\n"),
    ],
    "convert_grid_example": [Case("convert-valid", TO_EXP, "1 2\n2 1\n", out="1 2\n2 1\n")],
    "count_known_orders": [Case(f"{n}-{c}", ["count", "--order", str(n)], out=f"{c}\n") for n, c in COUNTS.items()],
    "count_rejects_large_orders": [
        _refused("count-8", ["count", "--order", "8"], "order must be in 1..7, got 8"),
        _refused("count-0", ["count", "--order", "0"], "order must be in 1..7, got 0"),
        _refused("count-allow-slow", ["count", "--order", "8", "--allow-slow"], f"{LEFT_OVER}--allow-slow"),
    ],
    "bench_smoke": [
        Case("bench", ["bench", "--order", "6", "--iterations", "4", "--seed", "9"], out=bench_output(6, 4, 9)),
    ],
    "bench_order1": [
        Case(
            "bench-order-1",
            ["bench", "--order", "1", "--iterations", "1", "--seed", "0"],
            out=bench_output(1, 1, 0, repairs="total 0, mean 0.00, max 0"),
        ),
    ],
    "help_exits_zero": [Case("help", ["--help"], out=re.compile(r"usage: latinsq .*\n", re.DOTALL))],
    "invalid_square_is_reported_before_a_later_malformed_block": [
        row
        for later_id, later, message, marks in LATER_BLOCKS
        for id, argv in READ_ARGVS.items()
        for row in (
            # square 1 is invalid in either form: the later block is never converted
            _invalid(f"{later_id}-{id}", argv, "square 1: row 2 duplicates 2", "1 2\n2 2\n\n" + later, marks),
            # after a valid square 1 the malformed block is refused as before
            _refused(f"{later_id}-refused-{id}", argv, message, "1 2\n2 1\n\n" + later, marks),
        )
    ],
    "refused_row_is_quoted_within_a_short_line": [
        _refused(id, VALIDATE, f"not an integer row: {quoted}", f"{row}\n")
        for id, (row, quoted) in REFUSED_ROWS.items()
    ],
    "long_values_are_quoted_within_a_short_line": [
        (_invalid if code == 1 else _refused)(
            f"{value_id}-{id}",
            argv,
            NOT_A_POWER if argv[-1] in ("--exp", "grid") and not text.startswith("{") else message,
            text,
            marks,
        )
        for value_id, text, code, message, marks in LONG_VALUES
        for id, argv in READ_ARGVS.items()
    ],
    # each row decodes to cells summing to 3 = 2**2 - 1 in either form
    "ragged_rows_that_hit_the_sums_are_refused_as_not_square": [
        _refused(f"{kind}-{id}", argv, NOT_SQUARE.format(row), text)
        for kind, text, row in (("carry", "1 1 1\n2 1\n", 1), ("zero", "1 2\n2 1 0\n", 2))
        for id, argv in READ_ARGVS.items()
    ],
    "oversized_first_line_is_refused_before_int": [
        _refused(id, argv, TOO_LARGE, HUGE_ROW) for id, argv in READ_ARGVS.items()
    ],
}
# the groups whose test took no parameters: it runs its rows in turn
PLAIN = {
    "generate_order1",
    "generate_rejects_bad_seed",
    "validate_stdin",
    "convert_order1",
    "convert_grid_example",
    "count_rejects_large_orders",
    "bench_smoke",
    "bench_order1",
    "help_exits_zero",
}
CASES = {case.id: case for rows in TABLE.values() for case in rows}
assert len(CASES) == sum(map(len, TABLE.values())), "two rows share an id"


# ---------------------------------------------------------------- tests


def _params(rows):
    return [pytest.param(case, id=case.id, marks=case.marks) for case in rows]


@pytest.mark.parametrize("case", _params(CASES.values()))
def test_console(case):
    check(case, console)


def _in_process_test(group):
    rows = TABLE[group]
    if group in PLAIN:

        def test():
            for case in rows:
                check(case, in_process)

    else:

        @pytest.mark.parametrize("case", _params(rows))
        def test(case):
            check(case, in_process)

    test.__name__ = test.__qualname__ = f"test_{group}"
    return test


# the tests that run the table, by name
TESTS = {"test_console": test_console, **{f"test_{group}": _in_process_test(group) for group in TABLE}}
