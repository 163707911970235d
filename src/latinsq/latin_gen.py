"""Row-by-row random generation of Latin squares.

Cells are filled left to right, top to bottom.  Each column keeps one word
of its legal symbols, those no completed row has put there, and the row
one word of its free symbols, those it does not hold yet; a cell's legal
symbols are the ``&`` of the two, and one is drawn uniformly from the
caller's source by ``select_bit``'s rank rule, inlined in the cell loop,
so the stream is consumed as ``select_bit`` would consume it.  A cell with
no legal symbol is repaired in place: symbols already in the row shift
along an augmenting path until one of them frees a symbol for the cell.
A completed Latin rectangle always extends to a full square, so such a
path always exists and no row is ever thrown away.
"""

from typing import NamedTuple

from .mask_set import check_order
from .rng_choice import RandomSource, select_bit
from .validator import LatinSquare


class GenerationReport(NamedTuple):
    """One generated square and what it cost, both fixed by the draws."""

    square: LatinSquare
    repairs: int  # cells that found no legal symbol and were repaired


def generate(order: int, source: RandomSource) -> GenerationReport:
    """Generate one random Latin square of the given order, drawing from
    ``source``; two sources in the same state give the same square.  A
    cell with no legal symbol is repaired in place (``_repair_row``), so
    every order up to 64 completes.

    A cell's symbols are ``legal[col] & free``, its column's legal word and
    the row's free word.  The draw is ``select_bit(avail, source)`` inlined:
    one ``next_below(popcount)`` call, bound 1 included, then that many
    lowest set bits cleared, so the draws and the square are those
    ``select_bit`` would give.
    """
    n = check_order(order)
    below = source.next_below
    full = (1 << n) - 1
    legal = [full] * n  # per column, the symbols no completed row has put there
    rows: list[tuple[int, ...]] = []
    repairs = 0
    for _ in range(n):
        row = [0] * n  # one singleton mask per cell
        free = full  # the symbols the row does not hold yet
        for col in range(n):
            if avail := legal[col] & free:
                rank = below(avail.bit_count())  # select_bit(avail, source), inlined
                while rank:
                    avail &= avail - 1
                    rank -= 1
                row[col] = pick = avail & -avail
            else:
                pick = _repair_row(row, col, legal, free, source)
                repairs += 1
            free ^= pick
        legal = [symbols ^ bit for symbols, bit in zip(legal, row)]
        rows.append(tuple(map(int.bit_length, row)))
    return GenerationReport(LatinSquare._trusted(tuple(rows)), repairs)


def _repair_row(row: list[int], c: int, legal: list[int], missing: int, src: RandomSource) -> int:
    """Fill cell ``c`` of a partial row whose legal symbols are all taken.

    ``row[0..c-1]`` hold the row's symbols as one-bit masks, ``legal[x]``
    the symbols legal for column x and ``missing`` those the row does not
    hold; the two are only read, since ``generate`` goes on with them.  A
    breadth-first search from c moves through the row: column x may take a
    legal symbol that column y holds, and y must then move.  Each column
    reached, paired with each of its legal symbols the row does not hold, is
    a candidate.  One candidate is drawn uniformly, by rejection so that no
    draw has a bound above n, as for a cell: a reached column with k such
    symbols is kept with odds k/most, most the largest k, and one of its k
    symbols is drawn.  It takes that symbol and each column on the path back
    to c takes the old symbol of the one after it.  Returns the symbol new to
    the row, one bit of ``missing``.

    A candidate always exists.  The filled cells match columns 0..c-1 to
    distinct legal symbols.  The completed rows are a Latin rectangle, which
    extends to a square (M. Hall, 1945), so a matching M' of legal symbols
    covering columns 0..c exists too.  In the symmetric difference of the
    two matchings, the path from the unmatched column c enters each column
    by a row edge and leaves it by an M' edge, so it ends at a legal symbol
    the row does not hold, and the search reaches the column before it
    (Kuhn, 1955).  At most c + 1 columns are scanned, one n-bit word each,
    so a repair costs O(c*n) word operations.
    """
    owner = dict(zip(row, range(c)))  # symbol bit -> its column
    unqueued = ~missing  # the row's symbols whose holders are not yet queued
    parent = [-1] * (c + 1)  # column -> the column it was reached from
    found = []  # (column, its legal symbols the row does not hold, their count)
    most = 0  # the largest count in found, known when the search ends
    queue = [c]
    for x in queue:
        if free := legal[x] & missing:
            k = free.bit_count()
            found.append((x, free, k))
            if k > most:
                most = k
        if held := legal[x] & unqueued:
            unqueued ^= held
            while held:
                bit = held & -held
                held ^= bit
                y = owner[bit]
                parent[y] = x
                queue.append(y)
    while True:
        x, free, k = found[src.next_below(len(found))]
        if src.next_below(most) < k:
            break
    entering = bit = select_bit(free, src)
    while x != -1:
        row[x], bit = bit, row[x]
        x = parent[x]
    return entering


def _naive_generate(n, src):
    """Cell-by-cell fill with an n-slot boolean availability list per cell.

    Bench baseline: same algorithm and same draw sequence as ``generate``,
    with the packed masks of the per-cell draw replaced by the obvious
    list-of-flags bookkeeping; a dead-end cell goes through the same
    repair.  Returns (rows of symbols 1..n, repairs).
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
                full = (1 << n) - 1
                legal = [full ^ sum(1 << (grid[i][j] - 1) for i in range(row)) for j in range(col + 1)]
                _repair_row(cells, col, legal, full ^ sum(cells), src)
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
