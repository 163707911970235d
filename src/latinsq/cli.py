"""Command-line surface: generate, validate, convert, count, bench.

Formats
    grid  n lines of n space-separated symbols in 1..n
    exp   same layout, cells as the powers of two 2**0 .. 2**(n-1)
    json  {"order": n, "cells": [[...]]} with standard symbols; several
          squares become an array of such objects
Text output is newline-terminated ASCII; multiple squares are separated
by one blank line.  Both text forms hold at most 64 distinct values, so
they go through fixed decimal tables built at import: a square is
rendered from its symbols by table lookup, and each form is decoded
straight to symbols through the exact inverse of its table.  A row
holding any other token (a sign, a leading zero, an underscore, a
non-ASCII digit, a huge value) is read by ``int``, with its values and
messages; in exponential text each such value becomes its symbol when it
is a positive power of two, and 0, which is no symbol, otherwise.

``validate`` and ``convert`` read text input square by square: each block
is parsed and checked by ``is_latin`` before the next is read, and
``convert`` writes only once every square has passed.  So the first
invalid square is reported even when a later block is malformed.  A
failing exponential square keeps ``is_latin``'s verdict unless a cell is
no power in 1..2**(n-1), which ``is_exponential_latin`` then names.
Verdicts are numbered ``square k:`` when the input holds more than one
square.  JSON input is parsed whole.

Exit codes
    0  success / square is valid
    1  square is invalid
    2  usage or input error
"""

import argparse
import functools
import sys
import time

from .errors import LatinSqError, MalformedMatrix
from .latin_gen import _repair_row, generate
from .mask_set import MAX_ORDER, check_order
from .oracle_enum import COUNT_CAP, count_all
from .rng_choice import RandomSource
from .validator import is_exponential_latin, is_latin

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------- formats


# symbol v in 1..MAX_ORDER -> its decimal text in each form; index 0 is unused
_GRID_TEXT = ("",) + tuple(str(v) for v in range(1, MAX_ORDER + 1))
_EXP_TEXT = ("",) + tuple(str(1 << (v - 1)) for v in range(1, MAX_ORDER + 1))
# the exact inverses: decimal text -> the symbol it spells in that form
_GRID_SYMBOL = {text: v for v, text in enumerate(_GRID_TEXT) if v}
_EXP_SYMBOL = {text: v for v, text in enumerate(_EXP_TEXT) if v}


def _parse_text(text: str, exponential: bool):
    """Lazily yield the blank-line separated blocks of whitespace-separated
    integer rows in ``text`` as (rows, lines, numbered): the rows decoded
    to symbols, and the lines they were read from.

    Each token is decoded to its symbol by the table of its form.  A row
    holding any other token is read by ``int``; in exponential text each
    such value becomes its symbol ``v.bit_length()`` when it is a positive
    power of two, and 0, which is no symbol, otherwise.  A block is yielded
    once the first line after it is seen, before that line is converted, so
    ``numbered`` says whether the input holds more than one block.
    """
    lookup = (_EXP_SYMBOL if exponential else _GRID_SYMBOL).__getitem__
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
            row = list(map(lookup, tokens))
        except KeyError:  # some token is not a table entry: int decides
            try:
                row = list(map(int, tokens))
            except ValueError:
                raise MalformedMatrix(f"not an integer row: {line.strip()!r}") from None
            if exponential:
                row = [v.bit_length() if v > 0 and not v & (v - 1) else 0 for v in row]
        rows.append(row)
        lines.append(line)
    if not rows:
        raise MalformedMatrix("no matrix found in input")
    yield rows, lines, numbered


def _parse_json(text: str) -> list[list[list[int]]]:
    import json  # only the JSON paths load it, to keep start-up short
    try:
        data = json.loads(text)
    except RecursionError:
        raise MalformedMatrix("JSON input is nested too deeply") from None
    items = data if isinstance(data, list) else [data]
    matrices = []
    for item in items:
        if not isinstance(item, dict) or "order" not in item or "cells" not in item:
            raise MalformedMatrix('JSON square must be {"order": n, "cells": [[...]]}')
        order, cells = item["order"], item["cells"]
        # row lengths are left to the validator, which names a ragged row
        if (
            type(order) is not int  # rejects true/false too
            or not isinstance(cells, list)
            or len(cells) != order
            or not all(isinstance(row, list) for row in cells)
        ):
            raise MalformedMatrix("JSON cells do not match the declared order")
        matrices.append(cells)
    if not matrices:
        raise MalformedMatrix("no matrix found in input")
    return matrices


def _squares(path: str, exp_text: bool):
    """Yield the symbol rows of each square of an input file, checked by
    ``is_latin``; at the first failing square yield its verdict line
    instead, numbered when the input holds more than one square, and stop.

    Text is exponential when ``exp_text`` says so.  A failing square read
    from it with a cell that is no power in 1..2**(n-1) is named by
    ``is_exponential_latin`` on its values as written, which reports that
    cell first; JSON always carries symbols and is parsed whole.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    if text.lstrip()[:1] in ("{", "["):
        matrices = _parse_json(text)
        blocks = ((cells, None, len(matrices) > 1) for cells in matrices)
        exp_text = False
    else:
        blocks = _parse_text(text, exp_text)
    for idx, (rows, lines, numbered) in enumerate(blocks, start=1):
        verdict = is_latin(rows)
        if verdict:
            yield rows
            continue
        # a symbol outside 1..n is a cell that is no power in 1..2**(n-1);
        # without one, both forms fail first at the same row or column
        if exp_text and (min(map(min, rows)) < 1 or max(map(max, rows)) > len(rows)):
            verdict = is_exponential_latin([list(map(int, line.split())) for line in lines])
        yield f"square {idx}: {verdict.message}" if numbered else verdict.message
        return


def _render_text(cells, names) -> str:
    """Rows of symbols 1..n as text, each symbol spelled by ``names``
    (``_GRID_TEXT`` or ``_EXP_TEXT``)."""
    return "".join(" ".join(map(names.__getitem__, row)) + "\n" for row in cells)


# ---------------------------------------------------------------- commands


def _base_source(args) -> RandomSource:
    """Source for ``--seed``, or a fresh one whose seed is echoed to stderr."""
    check_order(args.order)  # before a seed is drawn or echoed
    base = RandomSource(args.seed)
    if args.seed is None:
        print(f"# seed: {base.seed}", file=sys.stderr)
    return base


def _cmd_generate(args) -> int:
    base = _base_source(args)
    # one derived source per square (seed + index) so any square in a
    # batch can be regenerated on its own
    squares = [generate(args.order, base.spawn(i)).square for i in range(args.count)]
    if args.format == "json":
        import json
        # json.dumps writes the cell tuples as arrays
        payload = [{"order": square.order, "cells": square.cells} for square in squares]
        body = payload[0] if len(payload) == 1 else payload
        sys.stdout.write(json.dumps(body) + "\n")
    else:
        names = _EXP_TEXT if args.format == "exp" else _GRID_TEXT
        blocks = (_render_text(s.cells, names) for s in squares)
        sys.stdout.write("\n".join(blocks))
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
            print(rows, file=sys.stderr)
            return EXIT_INVALID
        blocks.append(_render_text(rows, names))
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


def _naive_generate(n, src):
    """Cell-by-cell fill with an n-slot boolean availability list per cell.

    Bench baseline: same algorithm and same draw sequence as
    latin_gen.generate, with the packed masks of the per-cell draw
    replaced by the obvious list-of-flags bookkeeping; a dead-end cell
    goes through the same repair.  Returns (rows of symbols 1..n, repairs).
    """
    grid = [[0] * n for _ in range(n)]
    repairs = 0
    for row in range(n):
        for col in range(n):
            avail = [True] * n
            for i in range(row):
                avail[grid[i][col] - 1] = False
            for j in range(col):
                avail[grid[row][j] - 1] = False
            live = sum(avail)
            if live == 0:
                repairs += 1
                cells = [1 << (v - 1) for v in grid[row][:col]] + [0]
                col_used = [sum(1 << (grid[i][j] - 1) for i in range(row)) for j in range(col + 1)]
                _repair_row(cells, col, col_used, (1 << n) - 1, src)
                grid[row][: col + 1] = [bits.bit_length() for bits in cells]
                continue
            rank = src.next_below(live) + 1
            symbol = 0
            seen = 0
            while seen < rank:
                if avail[symbol]:
                    seen += 1
                symbol += 1
            grid[row][col] = symbol
    return grid, repairs


# ---------------------------------------------------------------- parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, without the usage text."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


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


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return exc.code
    try:
        return args.func(args)
    except (LatinSqError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
