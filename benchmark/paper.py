"""The paper's comparison: packed-word bookkeeping against a boolean array.

``bool_array_generate`` is the benchmark's own copy of the reference the
CLI's ``bench`` command times, so the comparison stays measurable whatever
becomes of that private function.  It runs the same row-restart algorithm
and takes the same draws from a ``RandomSource`` as ``latin_gen.generate``,
but finds each cell's free symbols by scanning an n-slot list of flags.
"""

from time import perf_counter

from oracle import require_latin


def bool_array_generate(n, src):
    """Row-restart fill with a list of flags per cell; returns rows of 1..n."""
    grid = [[0] * n for _ in range(n)]
    for row in range(n):
        col = 0
        while col < n:
            avail = [True] * n
            for i in range(row):
                avail[grid[i][col] - 1] = False
            for j in range(col):
                avail[grid[row][j] - 1] = False
            live = sum(avail)
            if live == 0:
                col = 0  # restart the row; stale cells to the right are overwritten
                continue
            rank = src.next_below(live) + 1
            symbol = 0
            seen = 0
            while seen < rank:
                if avail[symbol]:
                    seen += 1
                symbol += 1
            grid[row][col] = symbol
            col += 1
    return grid


def bool_array_over_bitmask(order, seeds):
    """Time both generators on the same seeds; returns array time / bitmask time."""
    from latinsq import latin_gen
    from latinsq.rng_choice import RandomSource

    started = perf_counter()
    for seed in seeds:
        latin_gen.generate(order, RandomSource(seed))
    bitmask = perf_counter() - started
    started = perf_counter()
    grids = [bool_array_generate(order, RandomSource(seed)) for seed in seeds]
    array = perf_counter() - started
    for grid in grids:
        require_latin(grid, order)
    return array / bitmask
