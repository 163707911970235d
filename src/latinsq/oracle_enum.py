"""Brute-force enumeration and counting of Latin squares of small order.

Ground truth for counting and reachability tests, kept deliberately
independent of the random generator: one plain recursive depth-first
search, ``_fill``, that completes a partly filled grid cell by cell in
row-major order, trying symbols in ascending order, with packed-set
pruning but none of the generator's machinery. Its state is one record
per cell to fill and one packed word per column, passed as arguments, so
it holds no reference to itself and is freed when it returns. Counting
runs it once per cycle type of the second row, with the records written
down from that row alone; a partly filled grid gets them from one scan.
"""

from math import factorial, prod

from .mask_set import check_order
from .validator import LatinSquare

ENUMERATION_CAP = 4  # full materialization
COUNT_CAP = 7  # one search per second-row cycle type, without materialization


def enumerate_all(n: int) -> list[LatinSquare]:
    """All Latin squares of order n, in lexicographic row-major order, for
    n in 1..ENUMERATION_CAP."""
    check_order(n, ENUMERATION_CAP)
    squares = []
    _completions(
        [[0] * n for _ in range(n)],
        lambda grid: squares.append(LatinSquare._trusted(tuple(map(tuple, grid)))),
    )
    return squares


def count_all(n: int) -> int:
    """Exact number of Latin squares of order n, for n in 1..COUNT_CAP.

    Returns L_n = n! (n-2)! sum over λ of |C_λ| E'(λ) (McKay and Wanless,
    "On the number of Latin squares", 2005). Permuting its columns takes
    each square to one whose row 1 is the identity, and n! squares go to
    each of those; its row 2 is then a derangement σ. Sorting rows 3..n by
    column 1 takes (n-2)! squares with rows 1 and 2 fixed to each of the
    E'(σ) completions whose column 1 is ascending below row 2. λ runs over
    the cycle types of derangements, the partitions of n with no part 1,
    and |C_λ| = n!/z_λ derangements have type λ. E' depends only on λ: for
    any permutation τ, relabelling each symbol s as τ(s) and moving column
    c to column τ(c) keeps row 1 the identity and turns row 2 into τστ⁻¹,
    so the count for one σ of each type stands for its whole class.
    """
    weights = cycle_type_law(n)
    if n == 1:  # no derangement of one symbol
        return 1
    return factorial(n) * factorial(n - 2) * sum(weights.values())


def cycle_type_law(n: int) -> dict[tuple[int, ...], int]:
    """The weight |C_λ| E'(λ) of each derangement type λ of order n, for n
    in 1..COUNT_CAP, as ``count_all`` explains: the squares whose
    permutation from row 1 to row 2 has cycle type λ number n! (n-2)! times
    its weight. The same holds for any two rows, since permuting rows keeps
    a square Latin, so in a uniform square the type between two rows has
    probability proportional to its weight. Order 1 has no types.
    """
    check_order(n, COUNT_CAP)
    types = _derangement_types(n)
    return {parts: _class_size(parts) * _extensions(_cycle_row(parts)) for parts in types}


def _derangement_types(n: int, smallest: int = 2):
    """Yield each partition of n into parts of at least ``smallest``, as a
    non-decreasing tuple: with the default 2, the cycle types of the
    derangements of n symbols."""
    if n == 0:
        yield ()
        return
    for part in range(smallest, n + 1):
        for rest in _derangement_types(n - part, part):
            yield (part,) + rest


def _class_size(parts: tuple[int, ...]) -> int:
    """Number of permutations whose cycle lengths are ``parts``: n!/z_λ,
    with z_λ the product over each length k of k^m m! (m cycles of k)."""
    z = prod(parts) * prod(factorial(parts.count(k)) for k in set(parts))
    return factorial(sum(parts)) // z


def _cycle_row(parts: tuple[int, ...]) -> list[int]:
    """One permutation of 1..n, as a row, with cycle lengths ``parts``:
    each cycle shifts a run of consecutive symbols by one."""
    row = []
    for part in parts:
        start = len(row)
        row += [start + (k + 1) % part + 1 for k in range(part)]
    return row


def _extensions(second: list[int]) -> int:
    """E'(σ): the completions of the grid with row 1 the identity, row 2
    ``second`` and column 1 of rows 3..n the other symbols ascending.

    ``_fill``'s records are written down from σ, in O(n), with no scan of
    the grid: rows 1 and 2 and column 1 are full, so rows 3..n-1 are
    searched from column 2 on, each starting from its column-1 symbol, and
    column j holds j and σ(j). The last row's cells in columns 2..n are
    forced; at n = 2 the last row is σ itself, and nothing is forced.
    """
    n = len(second)
    full = (1 << n) - 1
    below = [s for s in range(2, n + 1) if s != second[0]]
    grid = [list(range(1, n + 1)), list(second)] + [[s] + [0] * (n - 1) for s in below]
    col_used = [full] + [1 << j | 1 << (second[j] - 1) for j in range(1, n)]
    cells = [(row, j, 1 << (row[0] - 1) if j == 1 else None) for row in grid[2:-1] for j in range(1, n)]
    forced = range(1, n) if n > 2 else ()
    return _fill(0, 0, cells, col_used, full, forced, grid, None)


def _completions(grid: list[list[int]], visit=None) -> int:
    """Count the ways to fill the zero cells of ``grid`` so that no row or
    column repeats a symbol, calling ``visit(grid)`` on each completed grid
    in lexicographic row-major order; the nonzero cells stay fixed, and
    must not repeat a symbol in a row or column themselves.

    One scan of the grid writes ``_fill``'s records and column masks.

    The grid is filled in place, so copy a visited grid to keep it.
    """
    n = len(grid)
    col_used = [0] * n
    cells = []
    for i, row in enumerate(grid):
        start = 0
        for j, v in enumerate(row):
            if v:
                start |= 1 << (v - 1)
                col_used[j] |= 1 << (v - 1)
        if i == n - 1:  # the last row is forced, not searched
            break
        for j, v in enumerate(row):
            if not v:
                cells.append((row, j, start))
                start = None
    forced = [j for j, v in enumerate(grid[-1]) if not v]
    return _fill(0, 0, cells, col_used, (1 << n) - 1, forced, grid, visit)


def _fill(k, used, cells, col_used, full, forced, grid, visit) -> int:
    """Count the fills of ``cells[k:]`` by depth-first search, writing
    each into ``grid`` in place, as ``_completions`` describes; ``used``
    holds the current row's symbols so far.

    A record ``(row, j, start)`` is one zero cell of rows 1..n-1, in
    row-major order: its grid row, its column, and, at a row's first zero
    cell only, that row's fixed symbols (None elsewhere), from which
    ``used`` restarts. So a tried symbol updates only ``col_used[j]``, the
    packed symbols of column j, which is restored before the return.

    Only rows 1..n-1 are searched. Once each is a permutation, every symbol
    is missing from exactly one column, and a symbol kept in the last row
    is missing only from its own column, since the search keeps it out of
    that column. So each of the last row's zero cells, in the columns
    ``forced``, takes the one symbol its column lacks, and every fill of
    rows 1..n-1 completes, exactly once: past the last record those cells
    are written and ``visit(grid)`` is called.
    """
    if k == len(cells):
        last = grid[-1]
        for j in forced:
            last[j] = (full ^ col_used[j]).bit_length()
        if visit is not None:
            visit(grid)
        return 1
    row, j, start = cells[k]
    if start is not None:
        used = start
    column = col_used[j]
    avail = full ^ (used | column)
    found = 0
    while avail:
        bit = avail & -avail
        avail ^= bit
        row[j] = bit.bit_length()
        col_used[j] = column | bit
        found += _fill(k + 1, used | bit, cells, col_used, full, forced, grid, visit)
    col_used[j] = column
    return found
