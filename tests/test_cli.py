"""Command-line behavior: formats, exit codes, round trips, bench.

Every case that states only argv, stdin and outputs is a row in
``cli_cases.py``; this module runs the rows, and holds only the tests that
need more: a monkeypatch, a clock, a thread, a descriptor, a file of the
repository, a child's streams or memory, or outputs compared with what the
library or another request gives.  Two tests read a real file where a row reads stdin:
``test_pipe_roundtrip_generate_validate`` and ``test_readme_examples``.
"""

import ast
import errno
import functools
import gc
import hashlib
import io
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
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

from cli_cases import (
    CASES,
    FORKED_BATCH,
    READ_ARGVS,
    REFUSED_ROWS,
    SRC,
    TESTS,
    assert_nothing_left,
    check,
    child_env,
    in_process,
    open_descriptors,
    spawn,
)
from conftest import cut, render_rows

# the table's rows: each group in process, under the name its test had
# before the table, and every row through the installed script
globals().update(TESTS)


# ---------------------------------------------------------------- generate


def test_generate_echoed_seed_reproduces():
    code, out, err = in_process(["generate", "--order", "6"])
    assert code == 0
    assert err.startswith("# seed: ")
    seed = err.split(":", 1)[1].strip()
    code2, out2, err2 = in_process(["generate", "--order", "6", "--seed", seed])
    assert code2 == 0
    assert out2 == out
    assert err2 == ""


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_generate_json_is_byte_identical_to_json_dumps(order):
    """The JSON render spells what ``json.dumps`` spells for the payload:
    one object, or an array of them, then a newline.  Order 1 is where a
    tuple's ``repr``, ``((1,),)``, would differ from it.  At order 64 the
    batch of 3 is 12,288 cells, so where two or more CPUs are usable it
    is drawn by forked processes and read back from their pipes."""
    for count in (1, 3) + ((2,) if order == 1 else ()):
        base = RandomSource(7)
        payload = [
            {"order": order, "cells": generate(order, base.spawn(i)).square.cells}
            for i in range(count)
        ]
        expected = json.dumps(payload[0] if count == 1 else payload) + "\n"
        argv = ["--order", str(order), "--count", str(count), "--seed", "7", "--format", "json"]
        assert in_process(["generate", *argv]) == (0, expected, "")


@pytest.mark.parametrize("fmt", ["grid", "exp", "json"])
def test_pipe_roundtrip_generate_validate(tmp_path, fmt):
    code, out, _ = in_process(["generate", "--order", "7", "--seed", "11", "--format", fmt, "--count", "2"])
    assert code == 0
    path = tmp_path / f"squares.{fmt}"
    path.write_text(out)
    argv = ["validate", str(path)] + (["--exp"] if fmt == "exp" else [])
    code, out, _ = in_process(argv)
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
        "latinsq.cli.main(['count', '--order', '1'])\n"
        "print(latinsq.oracle_enum._rows.cache_info().currsize)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    # JSON output is spelled without json; JSON input loads it; counting
    # order 1 builds no table of packed rows
    assert done.stdout.splitlines() == [
        "[]", '{"order": 2, "cells": [[1, 2], [2, 1]]}', "False", "VALID", "True", "1", "0"
    ]


def test_generate_deterministic_across_processes():
    argv = ["generate", "--order", "10", "--seed", "99"]
    first = spawn(argv, capture_output=True, check=True)
    second = spawn(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def _into_a_closed_pipe(argv, **options):
    """``spawn`` with stdout a pipe whose read end is closed before the
    child starts, so that every write fails, and stderr captured."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return spawn(argv, stdout=write_end, stderr=subprocess.PIPE, timeout=60, **options)
    finally:
        os.close(write_end)


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
    done = _into_a_closed_pipe(argv, input=stdin.encode())
    assert (done.returncode, done.stderr) == (2, b"error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize(
    "argv, fd",
    [
        pytest.param(["validate", "-"], 0, id="stdin-validate"),
        pytest.param(["generate", "--order", "3", "--seed", "1"], 1, id="stdout-generate"),
        pytest.param(["convert", "-", "--to", "exp"], 1, id="stdout-convert"),
        pytest.param(["count", "--order", "3"], 1, id="stdout-count"),
        pytest.param(["--help"], 1, id="stdout-help"),
        pytest.param(["generate", "--order", "3"], 2, id="stderr-seed-echo"),  # the seed echo cannot be written
        pytest.param(["generate", "--order", "99"], 2, id="stderr-order"),  # nor can the error line
        pytest.param(["validate", "/nonexistent"], 2, id="stderr-missing-file"),
    ],
)
def test_closed_standard_stream_ends_in_exit_2(argv, fd):
    """A descriptor closed before the child starts, as ``<&-``, ``>&-`` or
    ``2>&-`` closes it, leaves Python's stream None.  The request ends in
    exit 2 with nothing on stdout, and one error line on stderr unless
    stderr is the stream that is closed."""
    done = spawn(
        argv,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        preexec_fn=functools.partial(os.close, fd),
        timeout=60,
    )
    name = ("stdin", "stdout", "stderr")[fd]
    err = b"" if fd == 2 else f"error: {name} is closed\n".encode()
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to Linux's /dev/full")
@pytest.mark.parametrize(
    "argv, buffered",
    [
        pytest.param(["--help"], True, id="help-buffered"),
        # argparse passes over a failed write of the help
        pytest.param(["--help"], False, id="help-unbuffered"),
        pytest.param(["generate", "--help"], True, id="generate-help-buffered"),
        pytest.param(["generate", "--help"], False, id="generate-help-unbuffered"),
        # a failed flush leaves the bytes buffered
        pytest.param(["count", "--order", "3"], True, id="count-buffered"),
        pytest.param(["generate", "--order", "12", "--seed", "1"], True, id="generate-buffered"),
    ],
)
def test_output_into_a_full_device_ends_in_one_error_line(argv, buffered):
    with open("/dev/full", "wb") as full:
        done = spawn(argv, unbuffered=not buffered, stdout=full, stderr=subprocess.PIPE, timeout=60)
    assert (done.returncode, done.stderr) == (2, b"error: [Errno 28] No space left on device\n")


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
    before = open_descriptors()
    for _ in range(3):
        with _failing_stdout(target) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["count", "--order", "3"]) == 2
        monkeypatch.undo()
    assert open_descriptors() == before


def test_unbuffered_help_into_a_closed_pipe_ends_in_one_error_line():
    done = _into_a_closed_pipe(["generate", "--help"], unbuffered=True)
    assert (done.returncode, done.stderr) == (2, b"error: [Errno 32] Broken pipe\n")


def test_generate_ends_at_once_when_its_reader_leaves():
    """``generate --count 1000000 | head -1`` ends at once: squares are
    written as they are drawn, so the write after the reader has gone
    fails, and the child exits 2 with one line, long before the batch
    could be drawn.  The child reaps the workers it forked before it
    exits, so none is left in its process group once it has gone."""
    descriptors = open_descriptors()
    argv = ["generate", "--order", "12", "--count", "1000000", "--seed", "1"]
    child = spawn(
        argv, subprocess.Popen, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
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
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)
    assert_nothing_left(descriptors)


# ---------------------------------------------------------------- workers


def _cpus(monkeypatch, cpus):
    """Make ``cpus`` CPUs usable, as ``generate`` counts them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _one_at_a_time(argv, count, seed, fmt):
    """The batch ``argv`` asks for, spelled from its squares ``seed + i``,
    each generated by a request of its own."""
    squares = [
        in_process([*argv, "--count", "1", "--seed", str(seed + i), "--format", fmt])[1] for i in range(count)
    ]
    if fmt == "json":
        return "[" + ", ".join(square.rstrip("\n") for square in squares) + "]\n"
    return "\n".join(squares)


@pytest.mark.parametrize("fmt", ["grid", "exp", "json"])
@pytest.mark.parametrize("order, count", [(12, 100), (24, 30), (64, 4)])
def test_a_forked_batch_is_the_batch_drawn_by_one_process(monkeypatch, order, count, fmt):
    """A batch of at least 12,288 cells, drawn as this host draws it, by
    three processes, and by one, is byte for byte the batch of its
    squares ``seed + i`` generated one at a time."""
    argv = ["generate", "--order", str(order)]
    batch = [*argv, "--count", str(count), "--seed", "9", "--format", fmt]
    expected = _one_at_a_time(argv, count, 9, fmt)
    assert in_process(batch) == (0, expected, "")
    for cpus in (3, 1):
        _cpus(monkeypatch, cpus)
        assert in_process(batch) == (0, expected, "")


def test_a_batch_forks_no_more_processes_than_squares(monkeypatch):
    """With a process for every cell and 8 CPUs, a batch of 3 squares is
    drawn by 3 processes, not 8, and is the batch one process draws."""
    batch = ["generate", "-n", "4", "--count", "3", "--seed", "2"]
    _cpus(monkeypatch, 1)
    expected = in_process(batch)
    assert expected[0] == 0
    widths = []
    fork_worker = cli._fork_worker

    def recording(workers, k, width, count, draw):
        widths.append(width)
        return fork_worker(workers, k, width, count, draw)

    monkeypatch.setattr(cli, "_fork_worker", recording)
    monkeypatch.setattr(cli, "CELLS_PER_PROCESS", 1)
    _cpus(monkeypatch, 8)
    assert in_process(batch) == expected
    assert widths == [3, 3]


def test_a_forked_batch_into_a_closed_pipe_leaves_nothing(monkeypatch):
    """A batch whose stdout fails mid-way closes its pipes, reaps its
    workers and ends in one error line."""
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    descriptors = open_descriptors()
    with _failing_stdout("closed-pipe") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(FORKED_BATCH) == 2
        assert sys.stderr.getvalue() == "error: [Errno 32] Broken pipe\n"
    assert_nothing_left(descriptors)


UNNAMED_SIGNAL = signal.SIGRTMIN + 1 if hasattr(signal, "SIGRTMIN") else None  # not in signal.Signals


@pytest.mark.parametrize(
    "seed, failing, kill, line",
    [
        (5, 6, None, "square 2 (seed 6) was not drawn: worker 1 ended early"),
        (5, 7, None, "square 3 (seed 7) was not drawn: worker 2 ended early"),
        (5, 9, None, "square 5 (seed 9) was not drawn: worker 1 ended early"),
        (5, 6, signal.SIGKILL, "square 2 (seed 6) was not drawn: worker 1 was killed by signal 9 (SIGKILL)"),
        pytest.param(
            5, 6, UNNAMED_SIGNAL, f"square 2 (seed 6) was not drawn: worker 1 was killed by signal {UNNAMED_SIGNAL}",
            marks=pytest.mark.skipif(UNNAMED_SIGNAL is None, reason="no real-time signals"),
        ),
        (2**64 - 1, 0, None, "square 2 (seed 0) was not drawn: worker 1 ended early"),
    ],
    ids=["worker-1-first", "worker-2-first", "worker-1-second", "killed", "killed-by-unnamed-signal", "seed-wrap"],
)
def test_a_worker_that_ends_early_ends_the_batch_in_one_error_line(monkeypatch, seed, failing, kill, line):
    """A worker that fails leaves a short frame: the batch ends in exit 2
    and one error line that names the first square it did not send, from
    1, that square's seed, and the signal that killed the worker, if one
    did; and no worker or pipe is left.  Of three processes, worker k
    draws squares k, k + 3, ... counted from 0, and square i of the batch
    is drawn from its seed ``seed + i``, modulo 2**64."""
    parent = os.getpid()

    def generate_failing_in_a_worker(order, src):
        if os.getpid() != parent and src.seed == failing:
            if kill:
                os.kill(os.getpid(), kill)
            raise RuntimeError("a worker fails")
        return generate(order, src)

    _cpus(monkeypatch, 3)
    monkeypatch.setattr(cli, "generate", generate_failing_in_a_worker)
    argv = list(FORKED_BATCH)
    argv[argv.index("--seed") + 1] = str(seed)
    descriptors = open_descriptors()
    code, _, err = in_process(argv)
    assert (code, err) == (2, f"error: {line}\n")
    assert_nothing_left(descriptors)


def test_a_threaded_caller_draws_the_batch_in_one_process(monkeypatch):
    """A caller with a second live thread forks no worker, since a child
    forked from a threaded process may deadlock; its batch is the same."""
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a threaded caller forked"))
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        check(CASES["generate-forked-batch"], in_process)
    finally:
        release.set()
        waiting.join(10)
    assert not waiting.is_alive()


@pytest.mark.parametrize(
    "call, error, number",
    [("fork", BlockingIOError, errno.EAGAIN), ("pipe", OSError, errno.EMFILE)],
    ids=["fork", "pipe"],
)
def test_a_failed_fork_leaves_the_batch_to_this_process(monkeypatch, call, error, number):
    """Where ``os.fork`` or ``os.pipe`` fails, as it does where no process
    or no descriptor is left, this process draws the worker's squares
    itself, and writes the same bytes."""
    expected = in_process(FORKED_BATCH)
    calls = []

    def refuse():
        calls.append(1)
        raise error(number, os.strerror(number))

    _cpus(monkeypatch, 3)
    monkeypatch.setattr(os, call, refuse)
    descriptors = open_descriptors()
    assert in_process(FORKED_BATCH) == expected
    assert calls == [1, 1]
    assert_nothing_left(descriptors)


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
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            check=True,
            timeout=120,
        )
        peaks.append(int(done.stderr))
    assert abs(peaks[1] - peaks[0]) <= 2 * 1024, peaks


README_EXP = "1 2 16 4 8\n2 8 4 16 1\n16 4 8 1 2\n4 1 2 8 16\n8 16 1 2 4\n"


def test_readme_examples(tmp_path):
    exp = in_process(["generate", "--order", "5", "--seed", "42", "--format", "exp"])[1]
    assert exp == README_EXP
    path = tmp_path / "sq.exp"
    path.write_text(in_process(["generate", "--order", "12", "--seed", "7", "--format", "exp"])[1])
    assert in_process(["validate", str(path), "--exp"])[1] == "VALID\n"
    grid = in_process(["convert", str(path), "--to", "grid"])[1]
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


def test_generate_output_unchanged_since_0_3_0():
    digest = hashlib.sha256()
    for fmt in ("grid", "exp", "json"):
        for order in range(1, 25):
            for tail in [["--seed", str(s)] for s in range(5)] + [["--seed", "1000", "--count", "3"]]:
                code, out, _ = in_process(["generate", "--order", str(order), "--format", fmt, *tail])
                assert code == 0
                digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN_OUTPUT


@pytest.mark.parametrize("fmt", ["grid", "exp", "json"])
def test_generate_never_validates(monkeypatch, fmt):
    def refuse(matrix):
        raise AssertionError("generate must not call the validator")

    for module in (validator, cli):
        monkeypatch.setattr(module, "is_latin", refuse)
        monkeypatch.setattr(module, "is_exponential_latin", refuse)
    code, out, _ = in_process(["generate", "--order", "9", "--seed", "3", "--format", fmt])
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
def test_text_forms_round_trip_at_every_order(order):
    report = generate(order, RandomSource(order))
    argv = ["generate", "--order", str(order), "--seed", str(order), "--format", "exp"]
    code, exp, _ = in_process(argv)
    assert code == 0
    assert exp == render_rows(report.square.exponential)
    code, grid, _ = in_process(READ_ARGVS["convert-to-grid"], exp)
    assert code == 0
    assert grid == render_rows(report.square.cells)
    assert in_process(READ_ARGVS["convert-to-exp"], grid) == (0, exp, "")


# ---------------------------------------------------------------- read path

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
    st.sampled_from(list(READ_ARGVS.values())),
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
    assert in_process(argv, text) == want


def test_refused_rows_are_quoted_as_cut_quotes_them():
    # each row int refuses is quoted in an error line of under 120 bytes
    for row, quoted in REFUSED_ROWS.values():
        assert quoted == cut(repr(row))
        assert len(f"error: not an integer row: {quoted}\n".encode()) < 120


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
    assert in_process(argv, text) == want
    assert calls == named


# ---------------------------------------------------------------- count


def test_count_order6():
    started = time.perf_counter()
    code, out, _ = in_process(["count", "--order", "6"])
    assert time.perf_counter() - started < 2.0
    assert code == 0
    assert out == "812851200\n"


# ---------------------------------------------------------------- bench


def test_bench_warms_up_then_reports_the_best_interleaved_pass(monkeypatch):
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
    code, out, _ = in_process(["bench", "--order", "5", "--iterations", "2", "--seed", "40"])
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


def test_version_matches_pyproject():
    # a regex, because Python 3.10 has no tomllib
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        declared = re.search(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE).group(1)
    assert declared == latinsq.__version__


def test_parser_is_built_once_and_survives_a_usage_error():
    code, out, err = in_process(["generate", "--order", "4", "--format", "xml"])
    assert code == 2 and out == ""
    assert "invalid choice: 'xml'" in err  # on this test's stderr, not a stale one
    assert in_process(["generate", "--order", "1", "--seed", "7"]) == (0, "1\n", "")
    assert cli._build_parser() is cli._build_parser()


# ---------------------------------------------------------------- garbage

GARBAGE_ROWS = [  # the ids of rows in cli_cases.py
    *("1-1", "5-161280", "count-9", "generate-grid", "generate-json", "generate-forked-batch", "generate-70"),
    *(f"{command}-{kind}" for command in ("validate", "convert") for kind in ("valid", "invalid", "malformed", "json")),
    *("bench", "missing-file", "ambiguous-option"),
]


@pytest.mark.parametrize(
    "call",
    [
        *(
            pytest.param(functools.partial(in_process, CASES[id].argv, CASES[id].stdin), id=id)
            for id in GARBAGE_ROWS
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
