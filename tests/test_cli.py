"""Command-line behavior: formats, exit codes, round trips, bench."""

import argparse
import ast
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import re
import select
import subprocess
import sys
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latinsq
from latinsq import cli, validator
from latinsq.cli import main
from latinsq.errors import LatinSqError, MalformedMatrix
from latinsq.latin_gen import _naive_generate, generate
from latinsq.mask_set import MAX_ORDER
from latinsq.oracle_enum import count_all, cycle_type_law, enumerate_all
from latinsq.rng_choice import RandomSource

from conftest import ORDER12_STD_ROW1, cut, render_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def _buffered_env():
    """The environment of a child CLI run on this package's source, with
    stdout buffered as in a shell pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------- generate


def test_generate_order1(capsys):
    code, out, err = run(capsys, "generate", "--order", "1", "--seed", "7", "--format", "grid")
    assert code == 0
    assert out == "1\n"
    assert err == ""  # explicit seed is not echoed


def test_generate_exp_deterministic(capsys):
    args = ("generate", "--order", "12", "--seed", "42", "--format", "exp")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert len(lines) == 12
    for line in lines:
        values = [int(tok) for tok in line.split()]
        assert len(values) == 12
        assert all(v.bit_count() == 1 and v <= 2048 for v in values)


def test_generate_echoed_seed_reproduces(capsys):
    code, out, err = run(capsys, "generate", "--order", "6")
    assert code == 0
    assert err.startswith("# seed: ")
    seed = err.split(":", 1)[1].strip()
    code2, out2, err2 = run(capsys, "generate", "--order", "6", "--seed", seed)
    assert code2 == 0
    assert out2 == out
    assert err2 == ""


def test_generate_count_separated_by_blank_line(capsys):
    code, out, _ = run(capsys, "generate", "--order", "4", "--seed", "3", "--count", "3")
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 3
    assert not out.endswith("\n\n")


def test_generate_batch_squares_individually_reproducible(capsys):
    _, batch, _ = run(capsys, "generate", "--order", "5", "--seed", "50", "--count", "3")
    third = batch.split("\n\n")[2]
    # square i of a batch comes from seed + i
    _, single, _ = run(capsys, "generate", "--order", "5", "--seed", "52")
    assert single == third


def test_generate_json_single_and_batch(capsys):
    code, out, _ = run(capsys, "generate", "--order", "4", "--seed", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 4
    assert len(payload["cells"]) == 4
    code, out, _ = run(
        capsys, "generate", "--order", "4", "--seed", "1", "--format", "json", "--count", "2"
    )
    assert code == 0
    batch = json.loads(out)
    assert isinstance(batch, list) and len(batch) == 2
    assert batch[0]["cells"] == payload["cells"]


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_generate_json_is_byte_identical_to_json_dumps(capsys, order):
    """The JSON render spells what ``json.dumps`` spells for the payload:
    one object, or an array of them, then a newline.  Order 1 is where a
    tuple's ``repr``, ``((1,),)``, would differ from it."""
    for count in (1, 3) + ((2,) if order == 1 else ()):
        base = RandomSource(7)
        payload = [
            {"order": order, "cells": generate(order, base.spawn(i)).square.cells}
            for i in range(count)
        ]
        expected = json.dumps(payload[0] if count == 1 else payload) + "\n"
        argv = ["--order", str(order), "--count", str(count), "--seed", "7", "--format", "json"]
        assert run(capsys, "generate", *argv) == (0, expected, "")


@pytest.mark.parametrize("fmt", ["grid", "exp", "json"])
def test_pipe_roundtrip_generate_validate(capsys, tmp_path, fmt):
    code, out, _ = run(
        capsys, "generate", "--order", "7", "--seed", "11", "--format", fmt, "--count", "2"
    )
    assert code == 0
    path = tmp_path / f"squares.{fmt}"
    path.write_text(out)
    argv = ["validate", str(path)] + (["--exp"] if fmt == "exp" else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == "VALID"


def test_start_up_loads_no_dataclasses_and_json_only_on_json_paths():
    # -S keeps site-packages hooks out; only the package's own src is on the path
    probe = (
        "import io, sys, latinsq.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'json'} & set(sys.modules)))\n"
        "latinsq.cli.main(['generate', '-n', '2', '--seed', '1', '--format', 'json'])\n"
        "print('json' in sys.modules)\n"
        "sys.stdin = io.StringIO('{\"order\": 1, \"cells\": [[1]]}')\n"
        "latinsq.cli.main(['validate', '-'])\n"
        "print('json' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    # JSON output is spelled without json; JSON input loads it
    assert done.stdout.splitlines() == [
        "[]", '{"order": 2, "cells": [[1, 2], [2, 1]]}', "False", "VALID", "True"
    ]


def test_generate_deterministic_across_processes():
    argv = [sys.executable, "-m", "latinsq.cli", "generate", "--order", "10", "--seed", "99"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["count", "--order", "5"], ""),
        (["generate", "--order", "5", "--seed", "1"], ""),
        (["generate", "--order", "64", "--count", "40", "--seed", "1"], ""),  # fills the pipe
        (["validate", "-"], "1 2\n2 1\n"),
        (["--help"], ""),  # argparse prints the help and exits before any command runs
    ],
    ids=["count", "generate", "generate-batch", "validate", "help"],
)
def test_closed_stdout_ends_in_one_error_line(argv, stdin):
    # stdout buffered, as in a shell pipe: the write fails at the final flush
    env = _buffered_env()
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts: every write fails
    try:
        done = subprocess.run(
            [sys.executable, "-m", "latinsq.cli", *argv],
            input=stdin.encode(),
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.decode().splitlines() == ["error: [Errno 32] Broken pipe"]


@pytest.mark.parametrize(
    "argv, fd",
    [
        (["validate", "-"], 0),
        (["generate", "--order", "3", "--seed", "1"], 1),
        (["convert", "-", "--to", "exp"], 1),
        (["count", "--order", "3"], 1),
        (["--help"], 1),
        (["generate", "--order", "3"], 2),  # the seed echo cannot be written
        (["generate", "--order", "99"], 2),  # nor can the error line
        (["validate", "/nonexistent"], 2),
    ],
    ids=[
        "stdin-validate",
        "stdout-generate",
        "stdout-convert",
        "stdout-count",
        "stdout-help",
        "stderr-seed-echo",
        "stderr-order",
        "stderr-missing-file",
    ],
)
def test_closed_standard_stream_ends_in_exit_2(argv, fd):
    """A descriptor closed before the child starts, as ``<&-``, ``>&-`` or
    ``2>&-`` closes it, leaves Python's stream None.  The request ends in
    exit 2 with nothing on stdout, and one error line on stderr unless
    stderr is the stream that is closed."""
    done = subprocess.run(
        [sys.executable, "-m", "latinsq.cli", *argv],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        preexec_fn=functools.partial(os.close, fd),
        env=_buffered_env(),
        timeout=60,
    )
    name = ("stdin", "stdout", "stderr")[fd]
    err = b"" if fd == 2 else f"error: {name} is closed\n".encode()
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to Linux's /dev/full")
@pytest.mark.parametrize(
    "argv, buffered",
    [
        (["--help"], True),
        (["--help"], False),  # argparse passes over a failed write of the help
        (["generate", "--help"], True),
        (["generate", "--help"], False),
        (["count", "--order", "3"], True),  # a failed flush leaves the bytes buffered
        (["generate", "--order", "12", "--seed", "1"], True),
    ],
    ids=[
        "help-buffered",
        "help-unbuffered",
        "generate-help-buffered",
        "generate-help-unbuffered",
        "count-buffered",
        "generate-buffered",
    ],
)
def test_output_into_a_full_device_ends_in_one_error_line(argv, buffered):
    env = _buffered_env()
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [sys.executable, "-m", "latinsq.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    assert done.returncode == 2
    assert done.stderr.decode().splitlines() == ["error: [Errno 28] No space left on device"]


def _failing_stdout(target):
    """A fresh text file on which every write fails: the write end of a
    pipe whose read end is closed, or Linux's ``/dev/full``."""
    if target == "full-device":
        return open("/dev/full", "w")
    read_end, write_end = os.pipe()
    os.close(read_end)
    return os.fdopen(write_end, "w")


@pytest.mark.skipif(not os.path.exists("/proc/self/fd"), reason="counts Linux's /proc/self/fd")
@pytest.mark.parametrize(
    "target",
    [
        "closed-pipe",
        pytest.param(
            "full-device",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full"),
        ),
    ],
)
def test_a_failed_write_leaves_no_descriptor_open(monkeypatch, target):
    """After a write refused with EPIPE or ENOSPC, ``main`` points stdout's
    descriptor at the null device through a descriptor that it closes
    again, so requests in a loop open no more descriptors.  The count of
    open descriptors is the probe: the lowest free one would miss the
    leak into ``/dev/full``, whose own descriptor is freed again."""
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        with _failing_stdout(target) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["count", "--order", "3"]) == 2
        monkeypatch.undo()
    assert len(os.listdir("/proc/self/fd")) == before


def test_unbuffered_help_into_a_closed_pipe_ends_in_one_error_line():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "latinsq.cli", "generate", "--help"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**_buffered_env(), "PYTHONUNBUFFERED": "1"},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.decode().splitlines() == ["error: [Errno 32] Broken pipe"]


def test_generate_ends_at_once_when_its_reader_leaves():
    """``generate --count 1000000 | head -1`` ends at once: squares are
    written as they are drawn, so the write after the reader has gone
    fails, and the child exits 2 with one line, long before the batch
    could be drawn."""
    argv = ["generate", "--order", "12", "--count", "1000000", "--seed", "1"]
    child = subprocess.Popen(
        [sys.executable, "-m", "latinsq.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_buffered_env(),
    )
    deadline = time.monotonic() + 10
    try:
        # a child that holds its output back must not block the test
        assert select.select([child.stdout], [], [], 10)[0], "no line within 10 s"
        line = child.stdout.readline()
        child.stdout.close()
        _, err = child.communicate(timeout=deadline - time.monotonic())
    finally:
        child.kill()  # nothing to kill once it has exited
        child.wait()
    assert len(line.split()) == 12
    assert child.returncode == 2
    assert err == b"error: [Errno 32] Broken pipe\n"


# the peak RSS of the child's own address space since its exec: Linux
# carries ru_maxrss across fork and exec, so that would read the peak of
# the test process itself
PEAK_PROBE = (
    "import sys\n"
    "from latinsq.cli import main\n"
    "main(sys.argv[1:])\n"
    "with open('/proc/self/status') as fh:\n"
    "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')), file=sys.stderr)\n"
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
@pytest.mark.parametrize("fmt", ["json", "grid"])
def test_generate_holds_one_square_at_a_time(fmt):
    """A batch is written square by square, so its peak memory does not
    grow with ``--count``: a child's peak RSS (KiB) writing 6,400 order-12
    squares is within 2 MB of its peak writing 200."""
    peaks = []
    for count in (200, 6400):
        argv = ["generate", "-n", "12", "--count", str(count), "--format", fmt, "--seed", "1"]
        done = subprocess.run(
            [sys.executable, "-c", PEAK_PROBE, *argv],
            env=_buffered_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            check=True,
            timeout=120,
        )
        peaks.append(int(done.stderr))
    assert abs(peaks[1] - peaks[0]) <= 2 * 1024, peaks


def test_generate_order_too_large(capsys):
    code, _, err = run(capsys, "generate", "--order", "65")
    assert code == 2
    assert "order" in err


@pytest.mark.parametrize("order", ["0", "65"])
def test_generate_rejects_order_before_drawing_a_seed(capsys, order):
    code, out, err = run(capsys, "generate", "--order", order)
    assert code == 2
    assert out == ""
    assert err == f"error: order must be in 1..64, got {order}\n"


def test_generate_rejects_bad_seed(capsys):
    assert run(capsys, "generate", "--order", "4", "--seed", "-1") == (
        2, "", "error: seed must be an unsigned 64-bit value, got -1\n"
    )
    assert run(capsys, "generate", "--order", "4", "--seed", str(1 << 64))[0] == 2


def test_generate_order64_completes(capsys):
    code, out, err = run(capsys, "generate", "--order", "64", "--seed", "0")
    assert code == 0
    assert err == ""
    rows = [[int(tok) for tok in line.split()] for line in out.splitlines()]
    assert validator.is_latin(rows)


README_GRID = "1 2 5 3 4\n2 4 3 5 1\n5 3 4 1 2\n3 1 2 4 5\n4 5 1 2 3\n"
README_EXP = "1 2 16 4 8\n2 8 4 16 1\n16 4 8 1 2\n4 1 2 8 16\n8 16 1 2 4\n"


def test_readme_examples(capsys, tmp_path):
    assert run(capsys, "generate", "--order", "5", "--seed", "42")[1] == README_GRID
    exp = run(capsys, "generate", "--order", "5", "--seed", "42", "--format", "exp")[1]
    assert exp == README_EXP
    path = tmp_path / "sq.exp"
    path.write_text(run(capsys, "generate", "--order", "12", "--seed", "7", "--format", "exp")[1])
    assert run(capsys, "validate", str(path), "--exp")[1] == "VALID\n"
    grid = run(capsys, "convert", str(path), "--to", "grid")[1]
    assert grid.splitlines()[0] == "6 3 9 1 2 12 10 4 7 11 5 8"


def test_readme_library_block_shows_its_values():
    """The README's ``## Library`` block runs, and each ``expr  # value``
    line in it evaluates to the value its comment shows."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        library = fh.read().split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)  # the block's own asserts run here
    shown = [line.partition("  # ")[::2] for line in block.splitlines() if "  # " in line]
    assert shown
    for expr, value in shown:
        assert eval(expr, namespace) == ast.literal_eval(value.strip()), expr


# sha256 over the output of every call below, as released in 0.3.0
GOLDEN_OUTPUT = "757ca850b33df87c52b990d60cfc10989ea8e39b9f35f80643731bbc759090c0"


def test_generate_output_unchanged_since_0_3_0(capsys):
    digest = hashlib.sha256()
    for fmt in ("grid", "exp", "json"):
        for order in range(1, 25):
            for tail in [["--seed", str(s)] for s in range(5)] + [["--seed", "1000", "--count", "3"]]:
                code, out, _ = run(capsys, "generate", "--order", str(order), "--format", fmt, *tail)
                assert code == 0
                digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN_OUTPUT


@pytest.mark.parametrize("fmt", ["grid", "exp", "json"])
def test_generate_never_validates(capsys, monkeypatch, fmt):
    def refuse(matrix):
        raise AssertionError("generate must not call the validator")

    for module in (validator, cli):
        monkeypatch.setattr(module, "is_latin", refuse)
        monkeypatch.setattr(module, "is_exponential_latin", refuse)
    code, out, _ = run(capsys, "generate", "--order", "9", "--seed", "3", "--format", fmt)
    assert code == 0 and out


# ---------------------------------------------------------------- text codec


def test_text_tables_spell_each_symbol_in_decimal():
    assert len(cli._GRID_TEXT) == len(cli._EXP_TEXT) == MAX_ORDER + 1
    for v in range(1, MAX_ORDER + 1):
        assert cli._GRID_TEXT[v] == str(v)
        assert cli._EXP_TEXT[v] == str(1 << (v - 1))
    # each form decodes the text of symbol v to the power 2**(v-1), and
    # the bit length of that power, v, indexes the same text back
    for names, powers in ((cli._GRID_TEXT, cli._GRID_POWER), (cli._EXP_TEXT, cli._EXP_POWER)):
        assert len(powers) == MAX_ORDER
        for v in range(1, MAX_ORDER + 1):
            assert powers[names[v]] == 1 << (v - 1)
        for text, power in powers.items():
            assert type(power) is int and names[power.bit_length()] == text
    # symbols 62-64: their powers 2**61 .. 2**63 hash to 1, 2 and 4, as
    # the powers of symbols 1-3 do
    for grid, exp in (
        ("62", "2305843009213693952"),
        ("63", "4611686018427387904"),
        ("64", "9223372036854775808"),
    ):
        power = int(exp)
        assert cli._GRID_POWER[grid] == cli._EXP_POWER[exp] == power
        assert cli._GRID_TEXT[power.bit_length()] == grid
        assert cli._EXP_TEXT[power.bit_length()] == exp


def _int_parse_text(text):
    """The whole-file text parser with ``int`` on every token: the
    reference.  Returns blocks of (token, value) rows."""
    blocks, current = [], []
    for line in text.splitlines():
        tokens = line.split(None, MAX_ORDER)
        if tokens:
            if len(tokens) > MAX_ORDER or len(current) == MAX_ORDER:
                raise MalformedMatrix(f"input square is larger than {MAX_ORDER} x {MAX_ORDER}")
            try:
                current.append([(tok, int(tok)) for tok in tokens])
            except ValueError:
                raise MalformedMatrix(f"not an integer row: {cut(repr(line.strip()))}") from None
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    if not blocks:
        raise MalformedMatrix("no matrix found in input")
    return blocks


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except MalformedMatrix as exc:
        return "refused", str(exc)


def _expected_blocks(blocks, exponential):
    """What the lazy parser yields for the reference's blocks, with each
    line given by its tokens: in grid text the power 2**(v-1) of a value v
    in 1..64; in exponential text a value that is a power of two up to
    2**63; and 0 for any other value."""

    def power(v):
        if not exponential:
            return 1 << (v - 1) if 1 <= v <= MAX_ORDER else 0
        return v if 0 < v <= 1 << (MAX_ORDER - 1) and v.bit_count() == 1 else 0

    return [
        (
            [[power(v) for _, v in row] for row in block],
            [[tok for tok, _ in row] for row in block],
            len(blocks) > 1,
        )
        for block in blocks
    ]


# tokens int reads but the tables hold in another spelling, or not at all,
# and tokens int refuses
MISSES = ["+4", "04", "1_0", "\u0663", "-8", str(1 << 64), "x", "0", "65", "3.0", "1e3", "\uff18"]
table_tokens = st.sampled_from(sorted(set(cli._GRID_POWER) | set(cli._EXP_POWER)))
row_tokens = st.lists(
    st.one_of(table_tokens, table_tokens, st.sampled_from(MISSES)), min_size=1, max_size=6
)
text_lines = st.one_of(
    row_tokens.map(" ".join),
    row_tokens.map("\t".join),
    st.sampled_from(["", "  ", "\t"]),  # block separators
)


@settings(max_examples=300, deadline=None)
@given(st.lists(text_lines, max_size=12).map("\n".join), st.booleans())
def test_parse_text_agrees_with_int_on_every_token(text, exponential):
    got = _outcome(lambda t: list(cli._parse_text(t, exponential)), text)
    want = _outcome(_int_parse_text, text)
    if want[0] == "ok":
        want = "ok", _expected_blocks(want[1], exponential)
    if got[0] == "ok":
        assert all(type(v) is int for rows, _, _ in got[1] for row in rows for v in row)
        got = "ok", [(rows, [line.split() for line in lines], n) for rows, lines, n in got[1]]
    assert got == want


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_text_forms_round_trip_at_every_order(capsys, monkeypatch, order):
    report = generate(order, RandomSource(order))
    argv = ["generate", "--order", str(order), "--seed", str(order), "--format", "exp"]
    code, exp, _ = run(capsys, *argv)
    assert code == 0
    assert exp == render_rows(report.square.exponential)
    monkeypatch.setattr(sys, "stdin", io.StringIO(exp))
    code, grid, _ = run(capsys, "convert", "-", "--to", "grid")
    assert code == 0
    assert grid == render_rows(report.square.cells)
    monkeypatch.setattr(sys, "stdin", io.StringIO(grid))
    assert run(capsys, "convert", "-", "--to", "exp") == (0, exp, "")


# ---------------------------------------------------------------- read path

READ_ARGVS = [
    ["validate", "-"],
    ["validate", "-", "--exp"],
    ["convert", "-", "--to", "grid"],
    ["convert", "-", "--to", "exp"],
]
# test ids without spaces, so a list of ids split on whitespace keeps each case
READ_IDS = ["validate", "validate-exp", "convert-to-grid", "convert-to-exp"]


def _call(argv, text):
    """``main(argv)`` on ``text`` as stdin: (exit code, stdout, stderr)."""
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _reference_read(argv, text):
    """The whole-file read path: every block parsed by ``int`` first, then
    each square checked in turn by ``is_latin`` or ``is_exponential_latin``,
    or built by ``LatinSquare`` or ``LatinSquare.from_exponential``.
    Returns (exit code, stdout, stderr)."""
    validate = argv[0] == "validate"
    exponential = "--exp" in argv if validate else argv[-1] == "grid"
    try:
        matrices = [[[v for _, v in row] for row in block] for block in _int_parse_text(text)]
    except MalformedMatrix as exc:
        return 2, "", f"error: {exc}\n"

    def named(idx, message):
        return (f"square {idx}: " if len(matrices) > 1 else "") + message + "\n"

    spell = str if argv[-1] == "grid" else lambda v: str(1 << (v - 1))
    rendered = []
    try:
        for idx, cells in enumerate(matrices, start=1):
            if validate:
                check = validator.is_exponential_latin if exponential else validator.is_latin
                verdict = check(cells)
                if not verdict:
                    return 1, named(idx, verdict.message), ""
                continue
            build = validator.LatinSquare.from_exponential if exponential else validator.LatinSquare
            try:
                square = build(cells)
            except ValueError as exc:
                return 1, "", named(idx, str(exc))
            rendered.append("".join(" ".join(map(spell, row)) + "\n" for row in square.cells))
    except LatinSqError as exc:
        return 2, "", f"error: {exc}\n"
    return 0, "VALID\n" if validate else "\n".join(rendered), ""


@st.composite
def token_blocks(draw):
    """The token rows of one block: a Latin square of order 1-6 spelled in
    either text form, often with table tokens of both forms, misses,
    non-integers, non-powers, powers >= 2**n, duplicates or ragged rows
    planted in it.
    No row is left empty, so the block stays one block."""
    n = draw(st.integers(min_value=1, max_value=6))
    shift = draw(st.permutations(range(1, n + 1)))
    spell = draw(st.sampled_from([str, lambda v: str(1 << (v - 1))]))
    rows = [[spell(shift[(r + c) % n]) for c in range(n)] for r in draw(st.permutations(range(n)))]
    token = st.one_of(
        table_tokens,
        st.sampled_from(MISSES),
        st.sampled_from(["3", "5", "6", "7", "12"]),  # not powers of two
        st.integers(min_value=n, max_value=MAX_ORDER - 1).map(lambda k: str(1 << k)),
    )
    cell = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i, j, k = min(draw(cell), len(rows) - 1), draw(cell), draw(cell)
        row = rows[i]
        kind = draw(st.sampled_from(["token", "junk", "duplicate", "swap", "ragged", "row"]))
        if kind == "token":
            row[min(j, len(row) - 1)] = draw(token)
        elif kind == "junk":  # int refuses it: the block is malformed
            row[min(j, len(row) - 1)] = draw(st.sampled_from(["x", "3.0", "1e3", "--"]))
        elif kind == "duplicate":
            row[min(j, len(row) - 1)] = row[min(k, len(row) - 1)]
        elif kind == "swap":  # the row keeps its tokens, two columns break
            row[0], row[-1] = row[-1], row[0]
        elif kind == "ragged" and len(row) > 1 and draw(st.booleans()):
            del row[-1]
        elif kind == "ragged":
            row.append(draw(token))
        elif len(rows) > 1:
            del rows[i]
        else:
            rows.append(list(row))
    return rows


def _join_blocks(blocks, gaps=("\n",)):
    """Text of token-row blocks, block k followed by gaps[k] (cycled)."""
    return "".join(
        "\n".join(map(" ".join, rows)) + "\n" + gaps[k % len(gaps)] for k, rows in enumerate(blocks)
    )


def _malformed(rows):
    try:
        [int(tok) for row in rows for tok in row]
    except ValueError:
        return True
    return False


@settings(max_examples=500, deadline=None)
@given(
    st.lists(token_blocks(), min_size=1, max_size=4),
    st.lists(st.sampled_from(["\n", "  \n", "\n\n", "\t\n"]), min_size=1, max_size=3),
    st.sampled_from(READ_ARGVS),
)
def test_streaming_read_path_matches_the_whole_file_reference(blocks, gaps, argv):
    text = _join_blocks(blocks, gaps)
    want = _reference_read(argv, text)
    bad = [k for k, rows in enumerate(blocks) if _malformed(rows)]
    if bad and bad[0] > 0:
        # a square before the first malformed block may fail first; the read
        # path stops there, numbered since a further block follows
        earlier = _reference_read(argv, _join_blocks(blocks[: bad[0]] + [[["1"]]]))
        if earlier[0] != 0:
            want = earlier
    assert _call(argv, text) == want


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: int reads any number
AT_LIMIT, PAST_LIMIT = "9" * DIGIT_LIMIT, "9" * (DIGIT_LIMIT + 1)
PAST_MESSAGE = f"number of more than {DIGIT_LIMIT} digits in row: "
LIMITED = pytest.mark.skipif(not DIGIT_LIMIT, reason="int reads any number of digits")
HUGE_ROW = " ".join(["9" * 5000] * 65) + "\n"  # oversized, and no token int reads
LATER_BLOCKS = [
    pytest.param("x\n", "not an integer row: 'x'", id="token"),
    pytest.param(
        "9" * 5000 + "\n",
        f"{PAST_MESSAGE}'{'9' * 76}...",
        id="5000-digits",
        marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"), reason="int reads any number of digits"
        ),
    ),
    # int refuses a number past its digit limit, and the line says so
    pytest.param(
        f"1 {PAST_LIMIT}\n", PAST_MESSAGE + cut(repr("1 " + PAST_LIMIT)), id="past-the-digit-limit", marks=LIMITED
    ),
    pytest.param(
        f"1 -{AT_LIMIT}_9\n",
        PAST_MESSAGE + cut(repr(f"1 -{AT_LIMIT}_9")),
        id="signed-grouped-past-the-digit-limit",
        marks=LIMITED,
    ),
    pytest.param(f"1 {PAST_LIMIT}x\n", "not an integer row: " + cut(repr(f"1 {PAST_LIMIT}x")), id="digits-then-x"),
    pytest.param("1 " + "x" * 5000 + "\n", "not an integer row: " + cut(repr("1 " + "x" * 5000)), id="5000-x"),
    pytest.param("1\n" * 65, "input square is larger than 64 x 64", id="65-rows"),
    pytest.param(HUGE_ROW, "input square is larger than 64 x 64", id="65-huge-tokens"),
]


@pytest.mark.parametrize("argv", READ_ARGVS, ids=READ_IDS)
@pytest.mark.parametrize("later, message", LATER_BLOCKS)
def test_invalid_square_is_reported_before_a_later_malformed_block(argv, later, message):
    verdict = "square 1: row 2 duplicates 2\n"
    # square 1 is invalid in either form: the later block is never converted
    want = (1, verdict, "") if argv[0] == "validate" else (1, "", verdict)
    assert _call(argv, "1 2\n2 2\n\n" + later) == want
    # after a valid square 1 the malformed block is refused as before
    assert _call(argv, "1 2\n2 1\n\n" + later) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "row, quoted",
    [
        ("x", "'x'"),
        ("NaN", "'NaN'"),
        ("\udcff\udcfe", "'\\udcff\\udcfe'"),
        ("x" * 78, repr("x" * 78)),  # 80 bytes quoted: kept whole
        ("x" * 79, "'" + "x" * 76 + "..."),
        ("x " * 64, "'" + "x " * 38 + "..."),
        ("\U000e0001" * 500, "'" + "\\U000e0001" * 7 + "\\U000e..."),  # escapes, cut
        ("\u00e9" * 500, "'" + "\u00e9" * 38 + "..."),  # two bytes each: none cut in two
        ("\u20ac" * 500, "'" + "\u20ac" * 25 + "..."),  # three bytes each: one cut, dropped
    ],
    ids=["x", "NaN", "surrogates", "80-bytes", "81-bytes", "64-tokens", "escapes", "2-byte", "3-byte"],
)
def test_refused_row_is_quoted_within_a_short_line(row, quoted):
    # the row is refused by int; its error line stays under 120 bytes
    code, out, err = _call(["validate", "-"], row + "\n")
    assert (code, out, err) == (2, "", f"error: not an integer row: {quoted}\n")
    assert quoted == cut(repr(row))
    assert len(err.encode()) < 120


NINES = "9" * 4000  # int reads it; it is no symbol and no power of two
CUT_NINES = "9" * 77 + "..."
JSON_SQUARE = '{"order": 2, "cells": [[1, %s], [2, 1]]}'
LONG_VALUES = [
    pytest.param(f"1 {NINES}\n2 1\n", 1, f"row 1 contains {CUT_NINES}, outside 1..2", id="text"),
    pytest.param(
        json.dumps({"order": 2, "cells": [[1, int(NINES)], [2, 1]]}),
        1,
        f"row 1 contains {CUT_NINES}, outside 1..2",
        id="json-int",
    ),
    pytest.param(
        f"1 {AT_LIMIT}\n2 1\n", 1, f"row 1 contains {CUT_NINES}, outside 1..2", id="text-at-the-digit-limit", marks=LIMITED
    ),
    pytest.param(
        JSON_SQUARE % AT_LIMIT, 1, f"row 1 contains {CUT_NINES}, outside 1..2", id="json-at-the-digit-limit", marks=LIMITED
    ),
    pytest.param(
        JSON_SQUARE % PAST_LIMIT,
        2,
        f"JSON input holds a number of more than {DIGIT_LIMIT} digits",
        id="json-past-the-digit-limit",
        marks=LIMITED,
    ),
    pytest.param(
        json.dumps({"order": 2, "cells": [[1, "x" * 5000], [2, 1]]}),
        2,
        "row 1 holds a non-integer entry '" + "x" * 76 + "...",
        id="json-string",
    ),
    pytest.param(
        json.dumps({"order": 2, "cells": [[1, list(range(3000))], [2, 1]]}),
        2,
        "row 1 holds a non-integer entry " + cut(repr(list(range(3000)))),
        id="json-list",
    ),
]


CUT_X_NINES = cut(repr("x" + NINES))  # argparse quotes a refused value by repr
SEED_MESSAGE = f"seed must be an unsigned 64-bit value, got {CUT_NINES}"
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--order", NINES], f"order must be in 1..64, got {CUT_NINES}"),
        (["bench", "--order", NINES], f"order must be in 1..64, got {CUT_NINES}"),
        (["count", "--order", NINES], f"order must be in 1..7, got {CUT_NINES}"),
        (["generate", "--order", "5", "--seed", NINES], SEED_MESSAGE),
        (["bench", "--order", "5", "--seed", NINES], SEED_MESSAGE),
        (
            ["generate", "--order", "x" + NINES],
            f"latinsq generate: argument --order/-n: invalid int value: {CUT_X_NINES}",
        ),
        (
            ["bench", "--order", "x" + NINES],
            f"latinsq bench: argument --order/-n: invalid int value: {CUT_X_NINES}",
        ),
        (
            ["generate", "--order", "5", "--count", "x" + NINES],
            f"latinsq generate: argument --count: invalid int value: {CUT_X_NINES}",
        ),
        (
            ["bench", "--order", "5", "--iterations", "9" * 5000],  # more digits than int reads
            "latinsq bench: argument --iterations: invalid int value: "
            + cut(repr("9" * 5000)),
        ),
        # values of at most 80 bytes read as argparse words them
        (["generate", "--order", "x"], "latinsq generate: argument --order/-n: invalid int value: 'x'"),
        (
            ["count", "--order", "x" * 78],
            f"latinsq count: argument --order/-n: invalid int value: '{'x' * 78}'",
        ),
        (
            ["generate", "--order", "5", "--count", "x"],
            "latinsq generate: argument --count: invalid int value: 'x'",
        ),
        (
            ["bench", "--order", "5", "--iterations", "0"],
            "latinsq bench: argument --iterations: must be a positive integer",
        ),
        (
            ["validate", LONG_PATH],
            f"[Errno 2] No such file or directory: {cut(repr(LONG_PATH))}",
        ),
        # argparse's own refusals: the refused choice and the words left over
        (
            [LONG_WORD],
            f"latinsq: argument command: invalid choice: {cut(repr(LONG_WORD))}{COMMANDS_TAIL}",
        ),
        (
            ["generate", "--order", "3", "--format", LONG_WORD],
            f"latinsq generate: argument --format: invalid choice: {cut(repr(LONG_WORD))}{FORMATS_TAIL}",
        ),
        (["count", "--order", "5", LONG_WORD], f"latinsq: unrecognized arguments: {cut(LONG_WORD)}"),
        (
            ["generate", f"--={LONG_WORD}"],
            f"latinsq generate: ambiguous option: {cut('--=' + LONG_WORD)} could match "
            "--help, --order, --seed, --count, --format",
        ),
        (
            ["validate", "-", f"--exp={LONG_WORD}"],
            f"latinsq validate: argument --exp: ignored explicit argument {cut(repr(LONG_WORD))}",
        ),
        (
            ["generate", "--order", "3", "--format", "x" * 78],
            f"latinsq generate: argument --format: invalid choice: '{'x' * 78}'{FORMATS_TAIL}",
        ),
        (["count", "--order", "5", "extra"], "latinsq: unrecognized arguments: extra"),
        (
            ["count", "--=x"],
            "latinsq count: ambiguous option: --=x could match --help, --order",
        ),
        (["validate", "-", "--exp=x"], "latinsq validate: argument --exp: ignored explicit argument 'x'"),
        # words argparse quotes as written: a line break in one reads as one
        # space, and a line too long for 198 bytes is cut to 195 and "..."
        (["count", "--order", "5", "a\nb"], "latinsq: unrecognized arguments: a b"),
        (
            ["generate", "--=a\nb"],
            "latinsq generate: ambiguous option: --=a b could match "
            "--help, --order, --seed, --count, --format",
        ),
        (
            ["count", "--order", "5", *MANY_WORDS],
            f"latinsq: unrecognized arguments: {' '.join(MANY_WORDS)}"[: 195 - len("error: ")] + "...",
        ),
        # a byte that is not UTF-8 reaches argv as a lone surrogate: a word
        # quoted as written spells it as stderr writes it, \udcXX
        (["count", "--order", "5", "\udcff"], "latinsq: unrecognized arguments: \\udcff"),
        (
            ["generate", "--=\udcff"],
            "latinsq generate: ambiguous option: --=\\udcff could match "
            "--help, --order, --seed, --count, --format",
        ),
        (
            ["count", "--order", "5", "\udcff" * 3000],
            "latinsq: unrecognized arguments: " + cut("\\udcff" * 3000),
        ),
    ],
    ids=[
        "generate-order",
        "bench-order",
        "count-order",
        "generate-seed",
        "bench-seed",
        "generate-not-an-int",
        "bench-not-an-int",
        "count",
        "iterations",
        "short-order",
        "80-byte-order",
        "short-count",
        "iterations-0",
        "long-path",
        "long-command",
        "long-format",
        "long-extra",
        "long-ambiguous-option",
        "long-flag-value",
        "80-byte-format",
        "short-extra",
        "short-ambiguous-option",
        "short-flag-value",
        "extra-with-a-line-break",
        "ambiguous-option-with-a-line-break",
        "many-extra-words",
        "extra-not-utf-8",
        "ambiguous-option-not-utf-8",
        "long-extra-not-utf-8",
    ],
)
def test_command_line_values_are_quoted_within_a_short_line(capsys, argv, message):
    err = f"error: {message}\n"
    assert run(capsys, *argv) == (2, "", err)
    assert len(err.encode()) < 200


@pytest.mark.parametrize("argv", READ_ARGVS, ids=READ_IDS)
@pytest.mark.parametrize("text, code, message", LONG_VALUES)
def test_long_values_are_quoted_within_a_short_line(argv, text, code, message):
    if argv[-1] in ("--exp", "grid") and not text.startswith("{"):  # exponential text
        message = f"row 1 column 2 contains {CUT_NINES}, not a power of two in 1..2"
    if code == 2:
        want = (2, "", f"error: {message}\n")
    elif argv[0] == "validate":
        want = (1, f"{message}\n", "")
    else:
        want = (1, "", f"{message}\n")
    assert _call(argv, text) == want
    assert len("".join(want[1:]).encode()) < 200


@pytest.mark.parametrize("argv", READ_ARGVS, ids=READ_IDS)
@pytest.mark.parametrize(
    "text, row",
    [
        pytest.param("1 1 1\n2 1\n", 1, id="carry"),
        pytest.param("1 2\n2 1 0\n", 2, id="zero"),  # the columns that zip sees sum to 3 too
    ],
)
def test_ragged_rows_that_hit_the_sums_are_refused_as_not_square(argv, text, row):
    # each row decodes to cells summing to 3 = 2**2 - 1 in either form
    want = (2, "", f"error: matrix is not square: 2 rows but row {row} has 3 entries\n")
    assert _call(argv, text) == want


@pytest.mark.parametrize("argv", READ_ARGVS, ids=READ_IDS)
def test_oversized_first_line_is_refused_before_int(argv):
    assert _call(argv, HUGE_ROW) == (2, "", "error: input square is larger than 64 x 64\n")


def test_parse_text_yields_a_block_before_reading_the_next():
    blocks = cli._parse_text("1 2\n2 2\n\n \nx\n", False)
    assert next(blocks) == ([[1, 2], [2, 2]], ["1 2", "2 2"], True)
    with pytest.raises(MalformedMatrix, match="not an integer row: 'x'"):
        next(blocks)
    assert list(cli._parse_text("1\n\n\n", True)) == [([[1]], ["1"], False)]
    # an exponential miss is kept when a positive power of two, else 0
    assert list(cli._parse_text("+4 1 2\n1 3 -2\n", True)) == [
        ([[4, 1, 2], [1, 0, 0]], ["+4 1 2", "1 3 -2"], False)
    ]


@pytest.mark.parametrize(
    "text, code, expected, named",
    [
        pytest.param("1 +2\n02 1\n", 0, "1 2\n2 1\n", [], id="valid-signed-and-padded"),
        pytest.param("04 1 2\n1 2 +4\n2 4 1\n", 0, "3 1 2\n1 2 3\n2 3 1\n", [], id="valid-misses"),
        pytest.param(
            "1 6\n2 1\n",
            1,
            "row 1 column 2 contains 6, not a power of two in 1..2\n",
            [[[1, 6], [2, 1]]],
            id="non-power",
        ),
        pytest.param(
            "+2 1\n02 1\n", 1, "column 1 duplicates 2\n", [[[2, 1], [2, 1]]], id="duplicate"
        ),
        pytest.param(
            "1 4\n4 1\n",
            1,
            "row 1 column 2 contains 4, not a power of two in 1..2\n",
            [[[1, 4], [4, 1]]],
            id="power-above-range",
        ),
        pytest.param(
            "1 18446744073709551616 2\n2 1 4\n4 2 2\n",
            1,
            "row 1 column 2 contains 18446744073709551616, not a power of two in 1..4\n",
            [[[1, 18446744073709551616, 2], [2, 1, 4], [4, 2, 2]]],
            id="beyond-the-table-and-duplicate",
        ),
        pytest.param(
            "1 2\n2 1\n\n1 0\n-1 1\n",
            1,
            "square 2: row 1 column 2 contains 0, not a power of two in 1..2\n",
            [[[1, 0], [-1, 1]]],
            id="second-square",
        ),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [["validate", "-", "--exp"], ["convert", "-", "--to", "grid"]],
    ids=["validate", "convert"],
)
def test_exponential_text_is_decided_by_is_latin_alone(monkeypatch, argv, text, code, expected, named):
    """The sums decide exponential text, so ``is_exponential_latin`` never
    sees a valid square; it names a failing one once, on its values as
    written: a row as decoded when no cell of it decoded to 0 (``+2`` and
    ``02`` are 2), else its line read again by ``int`` (2**64, which the
    table lacks, decodes to 0).  ``expected`` is the grid of a valid
    square or the verdict on a failing one, and ``named`` the matrices the
    naming call saw.  The name is kept from when ``is_latin``
    decided the symbols, so the ids stay stable."""
    calls = []

    def naming(matrix):
        calls.append([list(row) for row in matrix])
        return validator.is_exponential_latin(matrix)

    monkeypatch.setattr(cli, "is_exponential_latin", naming)
    if code == 0:
        want = (0, "VALID\n" if argv[0] == "validate" else expected, "")
    else:
        want = (1, expected, "") if argv[0] == "validate" else (1, "", expected)
    assert _call(argv, text) == want
    assert calls == named


# ---------------------------------------------------------------- validate


def test_validate_reference_square(capsys, order12_exp_file):
    code, out, _ = run(capsys, "validate", str(order12_exp_file), "--exp")
    assert code == 0
    assert out.strip() == "VALID"


def test_validate_duplicate_row(capsys, tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text("1 2\n2 2\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "row 2 duplicates 2" in out


def test_validate_empty_file(capsys, tmp_path):
    path = tmp_path / "empty"
    path.write_text("")
    assert run(capsys, "validate", str(path))[0] == 2


def test_validate_garbage_tokens(capsys, tmp_path):
    path = tmp_path / "noise"
    path.write_text("1 x\n2 1\n")
    assert run(capsys, "validate", str(path))[0] == 2


def test_validate_missing_file(capsys, tmp_path):
    assert run(capsys, "validate", str(tmp_path / "absent"))[0] == 2


def test_validate_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n2 1\n"))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0 and out.strip() == "VALID"


def test_validate_json_input(capsys, tmp_path):
    path = tmp_path / "sq.json"
    path.write_text(json.dumps({"order": 2, "cells": [[1, 2], [2, 1]]}))
    assert run(capsys, "validate", str(path))[0] == 0
    path.write_text(json.dumps({"order": 2, "cells": [[1, 2], [2, 2]]}))
    assert run(capsys, "validate", str(path))[0] == 1
    path.write_text(json.dumps({"order": 3, "cells": [[1, 2], [2, 1]]}))
    assert run(capsys, "validate", str(path))[0] == 2  # shape contradicts header
    path.write_text("{broken json")
    assert run(capsys, "validate", str(path))[0] == 2


@pytest.mark.parametrize(
    "square",
    [
        {"order": True, "cells": [[True]]},
        {"order": 1, "cells": [[True]]},
        {"order": 2, "cells": [[1, 2], [2, True]]},
    ],
)
def test_validate_rejects_json_booleans(capsys, tmp_path, square):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(square))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    ["[" * 10**5, "[" * 10**5 + "]" * 10**5, '{"a": ' * 10**5],
    ids=["unclosed", "closed", "objects"],
)
def test_validate_deeply_nested_json(capsys, monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "validate", "-")
    assert code == 2
    assert out == ""
    assert err == "error: JSON input is nested too deeply\n"


@pytest.mark.parametrize(
    "text",
    ["1\n" * 10**5, "1 " * 10**5 + "\n", "1\n" * 64 + "x\n" * 10**5, "x " * 10**5 + "\n"],
    ids=["rows", "tokens", "rows-after-64", "bad-tokens"],
)
def test_validate_refuses_oversized_text_early(capsys, monkeypatch, text):
    # the bad tokens past the limit are never converted, so only the size is reported
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "validate", "-")
    assert code == 2
    assert out == ""
    assert err == "error: input square is larger than 64 x 64\n"


@pytest.mark.parametrize("to", [None, "exp", "grid"])
def test_ragged_json_rows_are_named(capsys, monkeypatch, to):
    text = json.dumps({"order": 2, "cells": [[1, 2], [2, 1, 3]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    argv = ["validate", "-"] if to is None else ["convert", "-", "--to", to]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: matrix is not square: 2 rows but row 2 has 3 entries\n"


def test_validate_multi_square_reports_offender(capsys, tmp_path):
    path = tmp_path / "two.grid"
    path.write_text("1 2\n2 1\n\n1 2\n1 2\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert out.startswith("square 2: ")


# ---------------------------------------------------------------- convert


def test_convert_reference_to_grid(capsys, order12_exp_file):
    code, out, _ = run(capsys, "convert", str(order12_exp_file), "--to", "grid")
    assert code == 0
    assert out.splitlines()[0] == " ".join(str(v) for v in ORDER12_STD_ROW1)


def test_convert_roundtrip_is_byte_identical(capsys, tmp_path):
    _, grid, _ = run(capsys, "generate", "--order", "9", "--seed", "77")
    a = tmp_path / "a.grid"
    a.write_text(grid)
    _, exp, _ = run(capsys, "convert", str(a), "--to", "exp")
    b = tmp_path / "b.exp"
    b.write_text(exp)
    _, back, _ = run(capsys, "convert", str(b), "--to", "grid")
    assert back == grid


def test_convert_order1(capsys, tmp_path):
    path = tmp_path / "one"
    path.write_text("1\n")
    assert run(capsys, "convert", str(path), "--to", "exp")[1] == "1\n"
    assert run(capsys, "convert", str(path), "--to", "grid")[1] == "1\n"


def test_convert_rejects_invalid_square(capsys, tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text("1 2\n2 2\n")
    code, _, err = run(capsys, "convert", str(path), "--to", "exp")
    assert code == 1
    assert "duplicates" in err


def test_convert_grid_example(capsys, tmp_path):
    path = tmp_path / "sq.grid"
    path.write_text("1 2\n2 1\n")
    assert run(capsys, "convert", str(path), "--to", "exp")[1] == "1 2\n2 1\n"


# ---------------------------------------------------------------- count


@pytest.mark.parametrize("order, expected", [(1, "1"), (2, "2"), (3, "12"), (4, "576")])
def test_count_known_orders(capsys, order, expected):
    code, out, _ = run(capsys, "count", "--order", str(order))
    assert code == 0
    assert out.strip() == expected


def test_count_rejects_large_orders(capsys):
    assert run(capsys, "count", "--order", "8")[0] == 2
    assert run(capsys, "count", "--order", "8", "--allow-slow")[0] == 2  # no such flag
    for order in ("0", "8"):
        assert run(capsys, "count", "--order", order) == (
            2, "", f"error: order must be in 1..7, got {order}\n"
        )


def test_count_order6(capsys):
    started = time.perf_counter()
    code, out, _ = run(capsys, "count", "--order", "6")
    assert time.perf_counter() - started < 2.0
    assert code == 0
    assert out == "812851200\n"


# ---------------------------------------------------------------- bench


def test_bench_smoke(capsys):
    code, out, _ = run(capsys, "bench", "--order", "6", "--iterations", "4", "--seed", "9")
    assert code == 0
    assert "bitmask" in out
    assert "bool array" in out
    assert "repairs" in out


def test_bench_order1(capsys):
    code, out, _ = run(capsys, "bench", "--order", "1", "--iterations", "1", "--seed", "0")
    assert code == 0
    assert "max 0 per square" in out


def test_bench_warms_up_then_reports_the_best_interleaved_pass(capsys, monkeypatch):
    calls = []
    real_generate, real_naive = cli.generate, cli._naive_generate

    def bitmask(order, src):
        calls.append(("bitmask", src.seed))
        return real_generate(order, src)

    def naive(order, src):
        calls.append(("naive", src.seed))
        return real_naive(order, src)

    # each pass reads the clock twice per implementation: bitmask 3, 1, 2 s
    # and bool array 9, 12, 8 s over passes 1-3
    ticks = iter([0, 3, 3, 12, 12, 13, 13, 25, 25, 27, 27, 35])
    monkeypatch.setattr(cli, "generate", bitmask)
    monkeypatch.setattr(cli, "_naive_generate", naive)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    code, out, _ = run(capsys, "bench", "--order", "5", "--iterations", "2", "--seed", "40")
    assert code == 0
    passes = [("bitmask", 40), ("bitmask", 41), ("naive", 40), ("naive", 41)] * cli.BENCH_PASSES
    assert calls == [("bitmask", 40), ("naive", 40)] + passes
    assert out.splitlines()[:4] == [
        "order 5, 2 squares per implementation, seed 40",
        "bitmask     total 1.0000 s   500.000 ms/square",
        "bool array  total 8.0000 s   4000.000 ms/square",
        "speedup     8.00x (bitmask over bool array)",
    ]
    repairs = out.splitlines()[4]
    assert re.fullmatch(r"repairs     total \d+, mean \d+\.\d\d, max \d+ per square", repairs)


@pytest.mark.parametrize("order", [2, 5, 9])
def test_naive_baseline_matches_bitmask_path(order):
    for seed in (0, 1, 17):
        grid, naive_repairs = _naive_generate(order, RandomSource(seed))
        report = generate(order, RandomSource(seed))
        assert tuple(tuple(row) for row in grid) == report.square.cells
        assert naive_repairs == report.repairs


# ---------------------------------------------------------------- usage


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["generate", "--order", "4", "--format", "xml"],
        ["generate"],
        ["generate", "--order", "x"],
        ["generate", "--order", "4", "--count", "0"],
        ["bench", "--order", "4", "--iterations", "0"],
        ["generate", "--order", "4", "--seed", "-1"],
        ["generate", "--order", "4", "--seed", str(1 << 64)],
        ["bench", "--order", "4", "--seed", "-1"],
    ],
    ids=[
        "no-command",
        "unknown-command",
        "bad-format",
        "missing-order",
        "order-not-int",
        "count-zero",
        "iterations-zero",
        "seed-negative",
        "seed-too-large",
        "bench-seed-negative",
    ],
)
def test_usage_error_is_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_version_matches_pyproject():
    # a regex, because Python 3.10 has no tomllib
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        declared = re.search(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE).group(1)
    assert declared == latinsq.__version__


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    code, out, err = run(capsys, "generate", "--order", "4", "--format", "xml")
    assert code == 2 and out == ""
    assert "invalid choice: 'xml'" in err  # on this test's stderr, not a stale one
    assert run(capsys, "generate", "--order", "1", "--seed", "7") == (0, "1\n", "")
    assert cli._build_parser() is cli._build_parser()


# ---------------------------------------------------------------- garbage


GARBAGE_REQUESTS = [  # (id, argv, stdin)
    ("count-1", ["count", "--order", "1"], ""),
    ("count-5", ["count", "--order", "5"], ""),
    ("count-9", ["count", "--order", "9"], ""),
    ("generate-grid", ["generate", "--order", "5", "--seed", "1", "--count", "3"], ""),
    ("generate-json", ["generate", "--order", "5", "--seed", "1", "--count", "3", "--format", "json"], ""),
    ("generate-70", ["generate", "--order", "70"], ""),
    *(
        (f"{argv[0]}-{kind}", argv, text)
        for argv in (["validate", "-"], ["convert", "-", "--to", "exp"])
        for kind, text in (
            ("valid", "1 2\n2 1\n"),
            ("invalid", "1 2\n2 2\n"),
            ("malformed", "1 x\n2 1\n"),
            ("json", '{"order": 2, "cells": [[1, 2], [2, 1]]}'),
        )
    ),
    ("bench", ["bench", "--order", "5", "--iterations", "2", "--seed", "1"], ""),
    ("missing-file", ["validate", "/nonexistent/square"], ""),
    ("ambiguous-option", ["count", "--=5"], ""),
]


@pytest.mark.parametrize(
    "call",
    [
        *(
            pytest.param(functools.partial(_call, argv, text), id=name)
            for name, argv, text in GARBAGE_REQUESTS
        ),
        pytest.param(functools.partial(enumerate_all, 3), id="enumerate_all-3"),
        pytest.param(functools.partial(count_all, 5), id="count_all-5"),
        pytest.param(functools.partial(cycle_type_law, 6), id="cycle_type_law-6"),
    ],
)
def test_a_request_leaves_no_cyclic_garbage(call):
    """A request frees all it made by reference counting, so requests in a
    loop never start the garbage collector.  ``--help`` is left out:
    argparse's own ``HelpFormatter`` leaves a cycle behind each help text
    (its sections point back to it), as a plain
    ``argparse.ArgumentParser().format_help()`` does."""
    call()  # the first request builds the parser and imports what it needs
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            call()
        assert gc.collect() == 0
    finally:
        gc.enable()
