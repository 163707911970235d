"""Row-by-row random generation of Latin squares.

Cells are filled left to right, top to bottom.  For each cell the set
of symbols still legal there is the complement, within the n-bit
universe, of everything already placed in the cell's column and in the
row so far; one legal symbol is drawn uniformly.  A cell with no legal
symbol aborts only the current row, which is refilled from its first
column while completed rows stay fixed; a completed Latin rectangle
always extends to a full square, so finished rows never need
revisiting.

A square stores its symbols 1..n.  Its exponential form, the powers
2**0 .. 2**(n-1), is a view related by cell = 2**(symbol - 1).
"""

import time
from dataclasses import dataclass

from . import validator
from .errors import RestartBudgetExhausted
from .mask_set import check_order
from .rng_choice import RandomSource, select_bit

DEFAULT_RESTART_BUDGET = 1_000_000

Cells = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LatinSquare:
    """n x n matrix in which every row and column is a permutation of 1..n.

    Every public constructor validates its input; squares this package
    builds itself are Latin by construction and skip the check.
    """

    cells: Cells

    def __post_init__(self):
        verdict = validator.is_latin(self.cells)
        if not verdict:
            raise ValueError(verdict.message)

    @property
    def order(self) -> int:
        return len(self.cells)

    @property
    def exponential(self) -> Cells:
        """The cells in exponential form: symbol k becomes 2**(k-1)."""
        return tuple(tuple(1 << (v - 1) for v in row) for row in self.cells)

    @classmethod
    def from_rows(cls, rows) -> "LatinSquare":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def from_exponential(cls, rows) -> "LatinSquare":
        """The square whose exponential form is ``rows``; each cell 2**(k-1)
        becomes the symbol k."""
        verdict = validator.is_exponential_latin(rows)
        if not verdict:
            raise ValueError(verdict.message)
        return cls._trusted(tuple(tuple(v.bit_length() for v in row) for row in rows))

    @classmethod
    def _trusted(cls, cells: Cells) -> "LatinSquare":
        """Wrap cells already known to be Latin, without checking them."""
        square = object.__new__(cls)
        object.__setattr__(square, "cells", cells)
        return square


@dataclass(frozen=True)
class GenerationReport:
    """One generated square plus what it took to produce it."""

    square: LatinSquare
    seed: int
    row_restarts: int
    elapsed: float  # seconds


def generate(
    order: int,
    source: RandomSource | None = None,
    max_row_restarts: int | None = DEFAULT_RESTART_BUDGET,
) -> GenerationReport:
    """Generate one random Latin square of the given order.

    ``source`` defaults to a fresh entropy-seeded RandomSource; pass a
    seeded one for reproducible output.  The recorded seed reproduces
    the square only when the source was freshly constructed.
    ``max_row_restarts`` caps dead-end recoveries so a call cannot hang;
    None removes the cap.  Restarts grow steeply with order: negligible
    up to order ~16, around 10**4..10**5 per square by order 32..36, so
    the default cap bites somewhere past order 36.
    """
    check_order(order)
    if max_row_restarts is not None and max_row_restarts < 1:
        raise ValueError(f"max_row_restarts must be positive or None, got {max_row_restarts}")
    src = source if source is not None else RandomSource()
    started = time.perf_counter()
    n = order
    full = (1 << n) - 1
    col_used = [0] * n  # per column, OR of the cells in completed rows
    rows: list[tuple[int, ...]] = []
    restarts = 0
    for _ in range(n):
        row = [0] * n  # one singleton mask per cell
        row_used = 0
        col = 0
        while col < n:
            avail = full ^ (row_used | col_used[col])
            if avail == 0:
                restarts += 1
                if max_row_restarts is not None and restarts > max_row_restarts:
                    raise RestartBudgetExhausted(order, src.seed, restarts, len(rows))
                row_used = 0  # abandon this row's partial fill, keep earlier rows
                col = 0
                continue
            pick = select_bit(avail, src)
            row[col] = pick
            row_used |= pick
            col += 1
        for j, bits in enumerate(row):
            col_used[j] |= bits
        rows.append(tuple(bits.bit_length() for bits in row))
    square = LatinSquare._trusted(tuple(rows))
    return GenerationReport(square, src.seed, restarts, time.perf_counter() - started)
