"""The four benchmark workloads: request streams derived from a seed, and
the oracle check each response must pass.

A workload turns a request index into CLI arguments and stdin text, and
``check`` returns how many squares a correct response generated, validated,
converted or counted, raising ``Mismatch`` otherwise.  ``crosscheck`` makes
further calls that a request's output must agree with.
"""

import json
import random
from typing import NamedTuple

from oracle import Mismatch, expect, parse_grids, render_grid, require_latin

SAMPLE_CAP = 32  # standard-form squares kept per run for the to_exponential timing


class Request(NamedTuple):
    index: int
    argv: list
    stdin: str
    case: object  # what the workload expects back, or None


def derive(name, seed):
    """Per-workload random stream; string seeding is stable across processes."""
    return random.Random(f"latinsq-bench:{name}:{seed}")


class Workload:
    name = ""

    def __init__(self):
        self.samples = []  # standard-form squares seen in responses

    def keep(self, rows):
        if len(self.samples) < SAMPLE_CAP:
            self.samples.append(rows)

    def crosscheck(self, req, call):
        """``call(argv, stdin)`` gives (exit code, stdout, stderr)."""


class GenBatch(Workload):
    """generate --order 12 --count 100 --format json: many small squares."""

    name = "gen-batch"
    ORDER, COUNT = 12, 100

    def __init__(self, seed):
        super().__init__()
        # square k of request i uses seed base + COUNT*i + k, so none repeats
        self.base = derive(self.name, seed).getrandbits(60)

    def request(self, i):
        seed = self.base + self.COUNT * i
        argv = ["generate", "--order", str(self.ORDER), "--count", str(self.COUNT),
                "--format", "json", "--seed", str(seed)]
        return Request(i, argv, "", seed)

    def check(self, req, code, out, err):
        expect(code == 0 and err == "", f"exit {code}, stderr {err[:80]!r}")
        items = _json(out)
        expect(isinstance(items, list) and len(items) == self.COUNT,
               f"expected a JSON array of {self.COUNT} squares")
        for item in items:
            _require_json_square(item, self.ORDER)
            self.keep(item["cells"])
        return self.COUNT

    def crosscheck(self, req, call):
        """Square k of a batch is the square that seed + k gives on its own."""
        k = req.index % self.COUNT
        argv = ["generate", "--order", str(self.ORDER), "--format", "json",
                "--seed", str(req.case + k)]
        _, batch, _ = call(req.argv, "")
        code, alone, _ = call(argv, "")
        expect(code == 0 and _json(alone) == _json(batch)[k],
               f"seed {req.case} + {k}: square differs from batch item {k}")


class GenLarge(Workload):
    """generate --order 24: one square per request, row restarts dominate."""

    name = "gen-large"
    ORDER = 24

    def __init__(self, seed):
        super().__init__()
        self.base = derive(self.name, seed).getrandbits(60)

    def request(self, i):
        seed = self.base + i
        return Request(i, ["generate", "--order", str(self.ORDER), "--seed", str(seed)], "", seed)

    def check(self, req, code, out, err):
        expect(code == 0 and err == "", f"exit {code}, stderr {err[:80]!r}")
        grids = parse_grids(out)
        expect(len(grids) == 1, f"expected one square, got {len(grids)}")
        require_latin(grids[0], self.ORDER)
        self.keep(grids[0])
        return 1


class Block(NamedTuple):
    text: str  # exponential-form input
    squares: int  # squares the CLI must examine: 20, or up to the defect
    message: str | None  # expected verdict line for a defective block
    grid: str  # expected `convert --to grid` output of a valid block


class Ingest(Workload):
    """validate - --exp and convert - --to grid, alternating, on text blocks
    of 20 exponential-form squares at orders 16, 32 and 64.

    Inputs are random isotopes of the cyclic square (random row, column and
    symbol permutations), built here rather than by latinsq.  A pool of
    POOL blocks is built once; DEFECTIVE of them carry one planted defect.
    Request 2b validates block b mod POOL and request 2b+1 converts it.
    """

    name = "ingest"
    ORDERS = (16,) * 7 + (32,) * 7 + (64,) * 6
    # Half the requests validate, and a validate costs about half a convert.
    # With half the blocks defective (stopping at a random square), requests
    # of every cost between the two fill the middle, so the median no longer
    # sits on the edge between the validate and convert clusters.
    POOL, DEFECTIVE = 16, 8
    DEFECTS = ("row", "column", "power")

    def __init__(self, seed):
        super().__init__()
        rng = derive(self.name, seed)
        defective = rng.sample(range(self.POOL), self.DEFECTIVE)
        kinds = {b: self.DEFECTS[j % len(self.DEFECTS)] for j, b in enumerate(defective)}
        self.blocks = [self._block(rng, kinds.get(b)) for b in range(self.POOL)]

    def _block(self, rng, defect):
        orders = list(self.ORDERS)
        rng.shuffle(orders)
        std = [_isotope(rng, n) for n in orders]
        for rows in std[:2]:
            self.keep(rows)
        exp = [[[1 << (v - 1) for v in row] for row in rows] for rows in std]
        if defect is None:
            return Block(_join(exp), len(exp), None, _join(std))
        k = rng.randrange(len(exp))
        message = f"square {k + 1}: {_plant(rng, exp[k], defect)}"
        return Block(_join(exp), k + 1, message, "")

    def request(self, i):
        block = self.blocks[(i // 2) % self.POOL]
        if i % 2 == 0:
            return Request(i, ["validate", "-", "--exp"], block.text, block)
        return Request(i, ["convert", "-", "--to", "grid"], block.text, block)

    def check(self, req, code, out, err):
        block = req.case
        validate = req.argv[0] == "validate"
        if block.message is None:
            want = (0, "VALID\n" if validate else block.grid, "")
        elif validate:
            want = (1, block.message + "\n", "")
        else:
            want = (1, "", block.message + "\n")
        if (code, out, err) != want:
            raise Mismatch(f"{' '.join(req.argv)}: exit {code}, stdout {out[:60]!r}, "
                           f"stderr {err[:60]!r}; expected exit {want[0]}, "
                           f"{(want[1] or want[2])[:60]!r}")
        return block.squares


class Count(Workload):
    """count --order 5: the DFS counting oracle."""

    name = "count"
    ORDER, TOTAL = 5, 161_280  # number of Latin squares of order 5

    def __init__(self, seed):
        super().__init__()

    def request(self, i):
        return Request(i, ["count", "--order", str(self.ORDER)], "", None)

    def check(self, req, code, out, err):
        expect((code, out, err) == (0, f"{self.TOTAL}\n", ""),
               f"count: exit {code}, stdout {out[:40]!r}, expected {self.TOTAL}")
        return self.TOTAL


WORKLOADS = {w.name: w for w in (GenBatch, GenLarge, Ingest, Count)}


def _json(text):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None


def _require_json_square(item, n):
    expect(isinstance(item, dict) and item.get("order") == n and type(item["order"]) is int
           and isinstance(item.get("cells"), list),
           f'expected {{"order": {n}, "cells": [...]}}')
    require_latin(item["cells"], n)


def _isotope(rng, n):
    """A uniformly random isotope of the cyclic square of order n, in 1..n."""
    rows, cols, symbols = rng.sample(range(n), n), rng.sample(range(n), n), rng.sample(range(1, n + 1), n)
    square = [[symbols[(r + c) % n] for c in cols] for r in rows]
    require_latin(square, n)
    return square


def _plant(rng, cells, defect):
    """Plant one defect in an exponential square; return the verdict the CLI
    must give, naming the first offender in its documented scan order
    (cell values, then rows top to bottom, then columns left to right)."""
    n = len(cells)
    r = rng.randrange(n)
    c1, c2 = sorted(rng.sample(range(n), 2))
    row = cells[r]
    if defect == "row":  # one cell copies another in its row
        row[c2] = row[c1]
        return f"row {r + 1} duplicates {row[c1].bit_length()}"
    if defect == "column":  # two cells of a row swap: the row stays a permutation
        row[c1], row[c2] = row[c2], row[c1]
        return f"column {c1 + 1} duplicates {row[c1].bit_length()}"
    row[c1] *= 3  # not a power of two
    return f"row {r + 1} column {c1 + 1} contains {row[c1]}, not a power of two in 1..{1 << (n - 1)}"


def _join(squares):
    return "\n".join(render_grid(rows) for rows in squares)
