"""Brute-force enumeration and counting of Latin squares of small order.

Ground truth for counting and reachability tests, kept deliberately
independent of the random generator: one plain recursive depth-first
search, ``_search``, that chooses a grid's rows in turn. A row is one
word of n*n bits whose n-bit field j holds column j's symbol as one bit,
so the search's state is one word ``used`` of the same layout, each
column's symbols so far, and one ``&`` tests a candidate row against
every column. The candidates are the packed permutations of 1..n, from a
table built once per order on first use. The search hands the rows it
chose to a leaf that its caller passes. Counting runs it once per cycle
type of the second row and closes the last two rows by their cycles;
enumeration writes the rows and the forced last row into its grid.

What counting needs of an order alone is built once per order, on first
use: the census of the permutations by cycle type, and each type's
search start, its two-row word, its plan of candidate groups and its
counting leaf. A count call runs only the searches, each with a memo of
state counts that lives for that call; no count outlives its call. The
state is passed as arguments, so the search holds no reference to itself
and is freed when it returns.
"""

import functools
from itertools import permutations
from math import factorial

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
    and |C_λ| derangements have type λ. E' depends only on λ: for any
    permutation τ, relabelling each symbol s as τ(s) and moving column c
    to column τ(c) keeps row 1 the identity and turns row 2 into τστ⁻¹, so
    the count for one σ of each type stands for its whole class.
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
    return {
        parts: size * _search((), used, plan, {}, leaf)
        for parts, size, used, plan, leaf in _class_starts(n)
    }


@functools.cache
def _derangement_classes(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """The derangements of 1..n by cycle type, from one walk over the
    permutations, taken once per order on first use: each cycle type with
    no part 1, as a non-decreasing tuple, in sorted order, with the first
    derangement of that type in lexicographic order, as a row, and |C_λ|,
    how many derangements have it."""
    classes = {}
    for row in permutations(range(1, n + 1)):
        seen, parts = set(), []
        for start in row:
            length, at = 0, start
            while at not in seen:
                seen.add(at)
                at, length = row[at - 1], length + 1
            if length:
                parts.append(length)
        if 1 not in parts:
            parts = tuple(sorted(parts))
            first, size = classes.get(parts, (row, 0))
            classes[parts] = first, size + 1
    return tuple((parts, *classes[parts]) for parts in sorted(classes))


@functools.cache
def _rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The permutations of 1..n as packed rows, built once per order on
    first use: the row with symbol v in column j has bit j*n + v - 1 set.
    Entry s - 1 holds the rows whose first symbol is s, in lexicographic
    order, so the entries in turn hold them all in that order."""
    groups = [[] for _ in range(n)]
    for perm in permutations(range(n)):
        groups[perm[0]].append(sum(1 << (j * n + v) for j, v in enumerate(perm)))
    return tuple(map(tuple, groups))


@functools.cache
def _class_starts(n: int) -> tuple[tuple, ...]:
    """Each derangement type's search start, built once per order on first
    use from the census: the type, |C_λ|, and ``_start`` of its first
    derangement. Only the searches and their memo are left to each call."""
    return tuple((parts, size, *_start(first)) for parts, first, size in _derangement_classes(n))


def _extensions(second: tuple[int, ...]) -> int:
    """E'(σ): the completions of the grid with row 1 the identity, row 2
    ``second`` and column 1 of rows 3..n the other symbols ascending."""
    used, plan, leaf = _start(second)
    return _search((), used, plan, {}, leaf)


def _start(second: tuple[int, ...]) -> tuple:
    """The word, plan and leaf from which ``_search`` counts E'(σ), for
    ``second`` the row σ.

    Rows 1 and 2 are written down from σ as one word, in O(n): column j
    holds j and σ(j). Rows 3..n-2 are searched, each among the rows that
    start with its column-1 symbol, so column 1 needs no test; the leaf
    ``_two_rows`` closes the last two. Below n = 4 at most one row is
    left, and it is forced, so the plan is empty, the leaf counts 1 and no
    table of rows is built.
    """
    n = len(second)
    used = 0
    for j, s in enumerate(second):
        used |= 1 << (j * n + j) | 1 << (j * n + s - 1)
    if n < 4:
        return used, (), lambda path, used: 1
    rows = _rows(n)
    below = [s for s in range(2, n + 1) if s != second[0]]
    plan = tuple((rows[s - 1], 0) for s in below[:-2])
    return used, plan, lambda path, used: _two_rows(used, n)


def _completions(grid: list[list[int]], visit=lambda grid: None) -> int:
    """Count the ways to fill the zero cells of ``grid`` so that no row or
    column repeats a symbol, calling ``visit(grid)`` on each completed grid
    in lexicographic row-major order; the nonzero cells stay fixed, and
    must not repeat a symbol in a row or column themselves.

    Each row's nonzero cells are one word, and ``used`` starts as their
    union. Rows 1..n-1 are searched, a row whose first cell is kept only
    among the rows that start with it. Once they are permutations, every
    symbol is missing from exactly one column, and a symbol kept in the
    last row only from its own column, since ``used`` kept it out of that
    column. So the last row's zero cells take the one symbol their columns
    lack, and every fill of rows 1..n-1 completes, exactly once: the leaf
    writes them and the last row into ``grid`` and calls ``visit(grid)``.

    The grid is filled in place, so copy a visited grid to keep it.
    """
    n = len(grid)
    full = (1 << n) - 1
    rows = _rows(n)
    every = sum(rows, ())
    used = 0
    plan = []
    for line in grid:
        kept = sum(1 << (j * n + v - 1) for j, v in enumerate(line) if v)
        used |= kept
        plan.append((rows[line[0] - 1] if line[0] else every, kept))

    def leaf(path, used):
        for line, row in zip(grid, path):
            line[:] = [(row >> s & full).bit_length() for s in range(0, n * n, n)]
        for j in range(n):
            if v := (~used >> j * n & full).bit_length():
                grid[-1][j] = v
        visit(grid)
        return 1

    return _search((), used, tuple(plan[:-1]), None, leaf)


def _search(path, used, plan, memo, leaf) -> int:
    """Count the fills of the rows that ``plan`` stands for past the
    rows in ``path``, given ``used``, whose n-bit field j holds column j's
    symbols so far, kept cells included.

    ``plan[len(path)]`` is the next row's candidates and ``kept``, the
    word of its kept cells. A candidate fits when ``row & used == kept``:
    it has the kept cells and no other symbol its column has, one ``&``
    for every column. Once ``path`` has a row for each entry of ``plan``,
    the count is ``leaf(path, used)``. A ``memo`` dict, which lives for
    one call, stores each state's count under ``used``.
    """
    if memo is not None and (found := memo.get(used)) is not None:
        return found
    k = len(path)
    if k < len(plan):
        candidates, kept = plan[k]
        found = 0
        for row in candidates:
            if row & used == kept:
                found += _search(path + (row,), used | row, plan, memo, leaf)
    else:
        found = leaf(path, used)
    if memo is not None:
        memo[used] = found
    return found


def _two_rows(used: int, n: int) -> int:
    """The fills of the last two rows, given ``used`` with two symbols
    missing from each column, and column 1's order fixed: 2^(cycles − 1).

    Each symbol is missing from exactly two columns, so joining each
    column to its two missing symbols makes a union of cycles. A fill of
    the two rows orients each cycle one of two ways, and column 1's fixed
    order orients its own. Each cycle is walked on the word of missing
    symbols, ``free``, taking each column's pair out as it is passed: the
    other column that misses symbol ``at`` is then the one field of
    ``free & at * spread`` that is not zero, with ``spread`` one bit in
    every field.
    """
    full = (1 << n) - 1
    free = ((1 << n * n) - 1) ^ used
    spread = ((1 << n * n) - 1) // full
    cycles = 0
    while free:
        shift = (free.bit_length() - 1) // n * n
        pair = free >> shift & full
        free ^= pair << shift
        start = pair & -pair
        at = pair ^ start
        while at != start:
            shift = ((free & at * spread).bit_length() - 1) // n * n
            pair = free >> shift & full
            free ^= pair << shift
            at ^= pair
        cycles += 1
    return 1 << cycles - 1
