"""Brute-force enumeration and counting of Latin squares of small order.

Ground truth for counting and reachability tests, kept deliberately
independent of the random generator: one plain depth-first search that
completes a partly filled grid cell by cell in row-major order, trying
symbols in ascending order, with packed-set pruning but none of the
generator's machinery.
"""

from math import factorial

from .mask_set import check_order
from .validator import LatinSquare

ENUMERATION_CAP = 4  # full materialization
COUNT_CAP = 6  # counting reduced squares without materialization


def enumerate_all(n: int) -> list[LatinSquare]:
    """All Latin squares of order n, in lexicographic row-major order, for
    n in 1..ENUMERATION_CAP."""
    check_order(n, ENUMERATION_CAP)
    return [LatinSquare(grid) for grid in _completions([[0] * n for _ in range(n)])]


def count_all(n: int) -> int:
    """Exact number of Latin squares of order n, for n in 1..COUNT_CAP.

    Counts the reduced squares R_n, whose first row and first column are
    1..n, and returns L_n = n! (n-1)! R_n (McKay and Wanless, "On the
    number of Latin squares", 2005): permuting the columns of any square
    to sort its first row, then rows 2..n to sort its first column, reaches
    each reduced square from exactly n! (n-1)! squares.
    """
    check_order(n, COUNT_CAP)
    grid = [[0] * n for _ in range(n)]
    for k in range(n):
        grid[0][k] = grid[k][0] = k + 1
    reduced = sum(1 for _ in _completions(grid))
    return reduced * factorial(n) * factorial(n - 1)


def _completions(grid: list[list[int]]):
    """Yield ``grid`` each time its zero cells have been filled so that no
    row or column repeats a symbol; the nonzero cells stay fixed.

    The grid is filled in place, so copy a yielded grid to keep it.
    """
    n = len(grid)
    full = (1 << n) - 1
    row_used = [0] * n
    col_used = [0] * n
    for i, row in enumerate(grid):
        for j, v in enumerate(row):
            if v:
                row_used[i] |= 1 << (v - 1)
                col_used[j] |= 1 << (v - 1)
    empty = [(i, j) for i in range(n) for j in range(n) if not grid[i][j]]

    def fill(k: int):
        if k == len(empty):
            yield grid
            return
        i, j = empty[k]
        avail = full ^ (row_used[i] | col_used[j])
        while avail:
            bit = avail & -avail
            avail ^= bit
            grid[i][j] = bit.bit_length()
            row_used[i] |= bit
            col_used[j] |= bit
            yield from fill(k + 1)
            row_used[i] ^= bit
            col_used[j] ^= bit

    return fill(0)
