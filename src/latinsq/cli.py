"""Command-line surface: generate, validate, convert, count, bench.

Formats
    grid  n lines of n space-separated symbols in 1..n
    exp   same layout, cells as the powers of two 2**0 .. 2**(n-1)
    json  {"order": n, "cells": [[...]]} with standard symbols; several
          squares become an array of such objects
Text output is newline-terminated ASCII; multiple squares are separated
by one blank line.  Both text forms hold at most 64 distinct values, so
they go through fixed decimal tables built at import.  Each form is
decoded through the table from its text to the power 2**(v-1) of the
symbol v it spells, and rendered through its tuple indexed by v:
``generate`` indexes it by symbol, ``convert`` by the ``bit_length`` of
each power, which is v.  A token
the table lacks (``+4``, ``04``, ``1_0``) is read by ``int`` and looked
up again by its decimal; a value the table lacks becomes 0.

``generate`` streams: square i of a batch is drawn from ``seed + i``, and
each square is written once it and those before it are drawn, so a
closed pipe ends the batch at the next write.  A batch of at least
``2 * CELLS_PER_PROCESS`` cells is shared across the usable CPUs: forked
workers draw interleaved squares and send each back through a pipe as
soon as it is rendered, so each process holds one square and a pipe.
A caller with a second live thread draws the batch alone, since a child
forked from a threaded process may deadlock.  A worker that ends before
writing its square ends the batch in one line, ``square 2 (seed 6) was
not drawn: worker 1 ended early``, squares numbered from 1; a worker that
a signal ended is named by it, ``worker 1 was killed by signal 9
(SIGKILL)``.
JSON output spells its symbols through ``_GRID_TEXT``, byte for byte as
``json.dumps`` spells the payload, so only JSON input loads ``json``.

``validate`` and ``convert`` read text input square by square: each block
is parsed and decided by ``is_packed_latin`` (n x n, every row and column
summing to 2**n - 1) before the next is read, and ``convert`` writes only
once every square has passed.  So the first invalid square is reported
even when a later block is malformed.  A failing square is named from its
values as written, by ``is_exponential_latin`` or ``is_latin``.  Verdicts
are numbered ``square k:`` when the input holds more than one square.
JSON input is parsed whole and, its cells being typed, checked by
``is_latin``.

A request whose first word is a command is parsed by that command's own
parser; anything else, or anything that parser leaves over, is parsed
again by the full parser, so it words every error and help text.

Exit codes
    0  success / square is valid
    1  square is invalid
    2  usage or input error, or a standard stream closed or failing
"""

import argparse
import errno
import functools
import os
import re
import sys
import time

from .errors import QUOTE_BYTES, LatinSqError, MalformedMatrix, _cut, _quote
from .latin_gen import _naive_generate, generate
from .mask_set import MAX_ORDER, check_order
from .oracle_enum import COUNT_CAP, count_all
from .rng_choice import RandomSource
from .validator import is_exponential_latin, is_latin, is_packed_latin

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
LINE_BYTES = 198  # the most UTF-8 bytes of an error line, less its newline


def _std(name: str):
    """``sys.stdin``, ``sys.stdout`` or ``sys.stderr``, refused as an
    ``OSError`` when it is None, as Python leaves a stream whose descriptor
    was closed at start-up (``<&-``).  ``print`` would pass over a None
    stdout, and write a None stderr's lines to stdout."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(f"{name} is closed")
    return stream


# ---------------------------------------------------------------- formats


# symbol v in 1..MAX_ORDER -> its decimal text in each form; index 0 is unused
_GRID_TEXT = ("",) + tuple(str(v) for v in range(1, MAX_ORDER + 1))
_EXP_TEXT = ("",) + tuple(str(1 << (v - 1)) for v in range(1, MAX_ORDER + 1))
# decimal text -> the power 2**(v-1) of the symbol v it spells in that form
_GRID_POWER = {text: 1 << (v - 1) for v, text in enumerate(_GRID_TEXT) if v}
_EXP_POWER = {text: 1 << (v - 1) for v, text in enumerate(_EXP_TEXT) if v}


def _parse_text(text: str, exponential: bool):
    """Lazily yield the blank-line separated blocks of whitespace-separated
    integer rows in ``text`` as (rows, lines, numbered): the rows decoded
    to powers of two, and the lines they were read from.

    Each token is decoded by the table of its form to the power 2**(v-1)
    of the symbol v it spells.  A token the table lacks is read by ``int``
    and looked up again by its decimal; a value the table lacks becomes 0.
    A block is yielded once the first line after it is seen, before that
    line is converted, so ``numbered`` says whether the input holds more
    than one block.
    """
    table = _EXP_POWER if exponential else _GRID_POWER
    rows: list[list[int]] = []
    lines: list[str] = []
    gap = numbered = False
    for line in text.splitlines():
        tokens = line.split(None, MAX_ORDER)
        if not tokens:
            gap = bool(rows)
            continue
        if gap:
            yield rows, lines, True
            rows, lines, gap, numbered = [], [], False, True
        # refuse an oversized block before converting any more of it
        if len(tokens) > MAX_ORDER or len(rows) == MAX_ORDER:
            raise MalformedMatrix(f"input square is larger than {MAX_ORDER} x {MAX_ORDER}")
        try:
            row = list(map(table.__getitem__, tokens))
        except KeyError:  # some token is spelled otherwise: int reads it
            try:
                row = [table.get(str(int(token)), 0) for token in tokens]
            except ValueError:  # the row may be huge: only its start can be quoted
                quoted = _quote(line.strip()[:QUOTE_BYTES])
                if limit := _digit_limit_passed(tokens):
                    raise MalformedMatrix(f"number of more than {limit} digits in row: {quoted}") from None
                raise MalformedMatrix(f"not an integer row: {quoted}") from None
        rows.append(row)
        lines.append(line)
    if not rows:
        raise MalformedMatrix("no matrix found in input")
    yield rows, lines, numbered


def _digit_limit_passed(tokens) -> int:
    """The most digits ``int`` reads, if some token is a decimal of more; else
    0, as where there is no limit.  The limit is process-wide: it is only read."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    decimal = re.compile(r"[+-]?\d+(_\d+)*")  # as int spells one
    return limit if any(sum(map(str.isdecimal, t)) > limit and decimal.fullmatch(t) for t in tokens) else 0


def _parse_json(text: str) -> list[list[list[int]]]:
    import json  # only JSON input loads it, to keep start-up short
    try:
        data = json.loads(text)
    except RecursionError:
        raise MalformedMatrix("JSON input is nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # not json's own error: int refused a number for its digits alone
        limit = sys.get_int_max_str_digits()
        raise MalformedMatrix(f"JSON input holds a number of more than {limit} digits") from None
    items = data if isinstance(data, list) else [data]
    matrices = []
    for item in items:
        if not isinstance(item, dict) or "order" not in item or "cells" not in item:
            raise MalformedMatrix('JSON square must be {"order": n, "cells": [[...]]}')
        order, cells = item["order"], item["cells"]
        if type(order) is not int:  # rejects true/false too
            raise MalformedMatrix(f"JSON order must be an integer, got {_quote(order)}")
        if not isinstance(cells, list):
            raise MalformedMatrix(f"JSON cells must be a list of rows, got {_quote(cells)}")
        if len(cells) != order:
            raise MalformedMatrix(f"JSON cells hold {len(cells)} rows, but the order is {_quote(order)}")
        # row lengths are left to the validator, which names a ragged row
        for number, row in enumerate(cells, start=1):
            if not isinstance(row, list):
                raise MalformedMatrix(f"JSON row {number} must be a list, got {_quote(row)}")
        matrices.append(cells)
    if not matrices:
        raise MalformedMatrix("no matrix found in input")
    return matrices


def _squares(path: str, exp_text: bool):
    """Yield each square of an input file as rows of the powers 2**(v-1)
    of its symbols v; at the first failing square yield its verdict line
    instead, numbered when the input holds more than one square, and stop.

    Text, exponential when ``exp_text`` says so, is decoded to cells that
    are each 0 or a power of two, and ``is_packed_latin`` decides it from
    its row and column sums.  A failing text square is named from its
    values as written, by ``is_exponential_latin`` or ``is_latin``: an
    exponential row with no 0 is those values, and any other row is read
    again from its line by ``int``.  JSON is typed and parsed whole;
    ``is_latin`` decides it, and a passing square is lifted to powers.
    """
    if path == "-":
        text = _std("stdin").read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    if text.lstrip()[:1] in ("{", "["):
        matrices = _parse_json(text)
        blocks = ((cells, None, len(matrices) > 1) for cells in matrices)
    else:
        blocks = _parse_text(text, exp_text)
    for idx, (rows, lines, numbered) in enumerate(blocks, start=1):
        if lines is None:  # JSON
            verdict = is_latin(rows)
            if verdict:
                yield [[1 << (v - 1) for v in row] for row in rows]
                continue
        elif is_packed_latin(rows):
            yield rows
            continue
        else:
            written = [
                row if exp_text and all(row) else list(map(int, line.split()))
                for row, line in zip(rows, lines)
            ]
            verdict = (is_exponential_latin if exp_text else is_latin)(written)
        yield f"square {idx}: {verdict.message}" if numbered else verdict.message
        return


def _render_text(cells, names) -> str:
    """Rows of symbols as text, each spelled by ``names``, ``_GRID_TEXT``
    or ``_EXP_TEXT``."""
    return "".join(" ".join([names[v] for v in row]) + "\n" for row in cells)


def _render_json(cells) -> str:
    """Rows of symbols as the object ``{"order": n, "cells": [[...]]}``,
    spelled as ``json.dumps`` spells it, each symbol by ``_GRID_TEXT``."""
    rows = ", ".join(["[" + ", ".join([_GRID_TEXT[v] for v in row]) + "]" for row in cells])
    return f'{{"order": {len(cells)}, "cells": [{rows}]}}'


# ---------------------------------------------------------------- commands


def _base_source(args) -> RandomSource:
    """Source for ``--seed``, or a fresh one whose seed is echoed to stderr."""
    check_order(args.order)  # before a seed is drawn or echoed
    base = RandomSource(args.seed)
    if args.seed is None:
        print(f"# seed: {base.seed}", file=_std("stderr"))
    return base


CELLS_PER_PROCESS = 4096  # the least drawing, about 4 ms, that pays for a fork and its reaping


def _processes(count: int, order: int) -> int:
    """How many processes draw a batch: one per usable CPU, so long as
    each has ``CELLS_PER_PROCESS`` cells and at least one square to draw;
    one where there is no ``os.fork``, or where a second thread runs,
    since a child forked from a threaded process may deadlock."""
    threading = sys.modules.get("threading")  # not imported: a threaded caller has loaded it
    if not hasattr(os, "fork") or threading and threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, count, count * order * order // CELLS_PER_PROCESS))


def _fork_worker(workers: dict, k: int, width: int, count: int, draw) -> None:
    """Fork worker k of the ``width`` processes drawing a batch of
    ``count``: it writes squares k, k + width, ... as ``draw`` renders
    them to its own pipe, each as a 4-byte length and its UTF-8, flushed
    square by square.  Once the pipe and the fork have both succeeded, add
    ``workers[k] = (reader, pid)``; where either fails, add nothing, so
    that this process draws worker k's squares itself."""
    ends = ()
    try:
        ends = read_end, write_end = os.pipe()
        pid = os.fork()
    except OSError:
        for end in ends:
            os.close(end)
        return
    if pid:
        os.close(write_end)
        workers[k] = (open(read_end, "rb"), pid)
        return
    # the worker writes no standard stream, and leaves by os._exit however
    # it ends, so that no traceback, exit handler or buffer of the parent's
    # is written twice; a write after the parent has gone fails with EPIPE
    status = 1
    try:
        os.close(read_end)
        for reader, _ in workers.values():
            reader.close()
        with open(write_end, "wb") as pipe:
            for i in range(k, count, width):
                data = draw(i).encode()
                pipe.write(len(data).to_bytes(4, "big"))
                pipe.write(data)
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _frame(workers: dict, i: int, k: int, base: RandomSource) -> str:
    """Square i of the batch, the next that worker k wrote to its pipe.
    A short frame means the worker has ended: drop it from ``workers``,
    close its pipe, reap it, and name the unsent square and how it ended."""
    reader, pid = workers[k]
    head = reader.read(4)
    if len(head) == 4:
        size = int.from_bytes(head, "big")
        data = reader.read(size)
        if len(data) == size:
            return data.decode()
    del workers[k]
    reader.close()
    ending = "ended early"
    status = os.waitpid(pid, 0)[1]
    if os.WIFSIGNALED(status):
        import signal  # only a failing batch names a signal

        number = os.WTERMSIG(status)
        try:
            ending = f"was killed by signal {number} ({signal.Signals(number).name})"
        except ValueError:  # a real-time signal has no name
            ending = f"was killed by signal {number}"
    raise OSError(f"square {i + 1} (seed {base.spawn(i).seed}) was not drawn: worker {k} {ending}")


def _cmd_generate(args) -> int:
    base = _base_source(args)
    if args.format == "json":
        render = _render_json
        # json.dumps's spelling: a batch is an array, one square a bare object
        opening, separator, closing = ("[", ", ", "]\n") if args.count > 1 else ("", "", "\n")
    else:
        names = _EXP_TEXT if args.format == "exp" else _GRID_TEXT
        render = functools.partial(_render_text, names=names)
        opening, separator, closing = "", "\n", ""

    # one derived source per square (seed + index) so any square in a
    # batch can be regenerated on its own, whichever process draws it
    def draw(i):
        return render(generate(args.order, base.spawn(i)).square.cells)

    # square i is drawn by process i % width: this one is process 0, and
    # each worker has a pipe, read square by square as each is written
    width = _processes(args.count, args.order)
    workers = {}  # worker k -> (reader, pid), until it is reaped
    try:
        for k in range(1, width):
            _fork_worker(workers, k, width, args.count, draw)
        write = sys.stdout.write
        write(opening)
        for i in range(args.count):
            if i:
                write(separator)
            k = i % width
            write(_frame(workers, i, k, base) if k in workers else draw(i))
        write(closing)
    finally:
        for reader, pid in workers.values():
            reader.close()
            os.waitpid(pid, 0)
    return EXIT_OK


def _cmd_validate(args) -> int:
    for rows in _squares(args.file, args.exp):
        if isinstance(rows, str):  # the verdict on the first failing square
            print(rows)
            return EXIT_INVALID
    print("VALID")
    return EXIT_OK


def _cmd_convert(args) -> int:
    # text input is taken to be in the form opposite the target
    names = _EXP_TEXT if args.to == "exp" else _GRID_TEXT
    blocks = []
    for rows in _squares(args.file, args.to == "grid"):
        if isinstance(rows, str):  # the message names the first violation
            print(rows, file=_std("stderr"))
            return EXIT_INVALID
        # the power 2**(v-1) of symbol v has bit length v
        lines = (" ".join([names[p.bit_length()] for p in row]) + "\n" for row in rows)
        blocks.append("".join(lines))
    sys.stdout.write("\n".join(blocks))
    return EXIT_OK


def _cmd_count(args) -> int:
    print(count_all(args.order))
    return EXIT_OK


BENCH_PASSES = 3  # timed passes per implementation; the best is reported


def _cmd_bench(args) -> int:
    base = _base_source(args)
    # one untimed square each, then interleaved passes, so that a slow
    # stretch of the host falls on both implementations alike
    generate(args.order, base.spawn(0))
    _naive_generate(args.order, base.spawn(0))
    mask_total = naive_total = float("inf")
    for _ in range(BENCH_PASSES):
        started = time.perf_counter()
        repairs = [generate(args.order, base.spawn(i)).repairs for i in range(args.iterations)]
        mask_total = min(mask_total, time.perf_counter() - started)
        started = time.perf_counter()
        for i in range(args.iterations):
            _naive_generate(args.order, base.spawn(i))
        naive_total = min(naive_total, time.perf_counter() - started)
    per = 1000.0 / args.iterations
    print(f"order {args.order}, {args.iterations} squares per implementation, seed {base.seed}")
    print(f"bitmask     total {mask_total:.4f} s   {mask_total * per:.3f} ms/square")
    print(f"bool array  total {naive_total:.4f} s   {naive_total * per:.3f} ms/square")
    print(f"speedup     {naive_total / mask_total:.2f}x (bitmask over bool array)")
    print(
        f"repairs     total {sum(repairs)}, mean {sum(repairs) / len(repairs):.2f}, "
        f"max {max(repairs)} per square"
    )
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


_positive_int.__name__ = "int"  # argparse names the type in refusing a non-int


class _Parser(argparse.ArgumentParser):
    """Raises every refusal as a ``ValueError``, ``<prog>: <message>``, so
    that ``main`` words it like any other error, without the usage text;
    and lets a failed write of help raise, where argparse passes over it,
    so that ``main`` reports it too.  argparse quotes a refused value by
    ``repr``, but words left over and an ambiguous option as written."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")

    def _print_message(self, message, file=None):
        if message:
            (file or _std("stderr")).write(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.  Parsing keeps
    no state in it, and argparse looks ``sys.stderr`` up on each message.
    Subparsers inherit ``_Parser`` through ``add_subparsers``."""
    parser = _Parser(
        prog="latinsq",
        description="Generate, validate, convert, count and benchmark Latin squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its parser, for _parse

    gen = sub.add_parser("generate", help="generate random squares")
    gen.add_argument("--order", "-n", type=int, required=True, help=f"square order, 1..{MAX_ORDER}")
    gen.add_argument(
        "--seed",
        type=int,
        help="unsigned 64-bit seed; drawn from OS entropy and echoed to stderr when omitted",
    )
    gen.add_argument("--count", type=_positive_int, default=1, help="squares to emit (default 1)")
    gen.add_argument(
        "--format", choices=("grid", "exp", "json"), default="grid", help="output form (default grid)"
    )
    gen.set_defaults(func=_cmd_generate)

    val = sub.add_parser("validate", help="check a square file")
    val.add_argument("file", help="input path, or - for stdin")
    val.add_argument(
        "--exp", action="store_true", help="text input holds exponential cells (powers of two)"
    )
    val.set_defaults(func=_cmd_validate)

    conv = sub.add_parser("convert", help="convert between grid and exp forms")
    conv.add_argument("file", help="input path, or - for stdin")
    conv.add_argument("--to", choices=("exp", "grid"), required=True, help="target form")
    conv.set_defaults(func=_cmd_convert)

    cnt = sub.add_parser("count", help="exact number of Latin squares of an order")
    cnt.add_argument("--order", "-n", type=int, required=True, help=f"order, 1..{COUNT_CAP}")
    cnt.set_defaults(func=_cmd_count)

    bench = sub.add_parser("bench", help="time bitmask against boolean-array generation")
    bench.add_argument("--order", "-n", type=int, required=True, help=f"square order, 1..{MAX_ORDER}")
    bench.add_argument(
        "--iterations", type=_positive_int, default=10, help="squares per implementation (default 10)"
    )
    bench.add_argument("--seed", type=int, help="base seed (entropy when omitted)")
    bench.set_defaults(func=_cmd_bench)

    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` as the full parser reads it, less ``command``.  When the
    first word names a command, that command's parser reads the rest
    alone: the full parser would hand it exactly those words, so its
    errors and help read the same.  Any other request, or one with a word
    left over, is parsed again by the full parser, which words its error
    or help."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run ``argv`` (the process's arguments when None); return its exit
    code.  Every failure, argparse's refusals too, ends in exit 2 and one
    ``error:`` line: any run of whitespace read as one space, each word cut
    as ``_cut`` cuts, the line capped at ``LINE_BYTES``."""
    try:
        _std("stdout")  # refused before any command runs or any help is printed
        try:
            args = _parse(sys.argv[1:] if argv is None else argv)
        except SystemExit as exc:  # argparse has already printed the help
            code = exc.code
        else:
            code = args.func(args)
        sys.stdout.flush()  # here, so that a closed pipe is reported as an error
    except (LatinSqError, OSError, ValueError) as exc:
        # a write refused for want of a reader or of room leaves its bytes
        # buffered: drop them, so that the flush at exit cannot fail too
        if isinstance(exc, OSError) and exc.errno in (errno.EPIPE, errno.ENOSPC):
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        line = " ".join(map(_cut, f"error: {exc}".split()))
        try:  # a stderr that is closed or failing still leaves exit 2
            print(_cut(line, LINE_BYTES), file=_std("stderr"))
        except OSError:
            pass
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
