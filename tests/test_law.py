"""The exact law of the repairing generator at orders 3 and 4.

``repair_law`` recomputes, without the generator's code, the probability
of each square under the documented sampler: each cell draws uniformly
among its legal symbols; a cell with none draws uniformly among the
(column, free symbol) candidates of a breadth-first search through the
row, in search order with ascending symbols, and shifts symbols back
along the path.  Sets of symbols stand in for the generator's masks.
"""

from collections import Counter

import pytest
from scipy import stats

from latinsq.latin_gen import generate
from latinsq.oracle_enum import enumerate_all
from latinsq.rng_choice import RandomSource

from conftest import Script

LAW_TV = {3: 0.125, 4: 0.241}  # total-variation distance from uniform


def _repaired_rows(row, column_sets, n):
    """Every (candidate count, repaired row) for the partial ``row`` whose
    next cell has no legal symbol; ``column_sets[j]`` is column j so far."""
    c = len(row)
    legal = [set(range(1, n + 1)) - column_sets[j] for j in range(c + 1)]
    holder = {symbol: j for j, symbol in enumerate(row)}
    came_from = {c: None}
    order = [c]
    candidates = []
    for x in order:
        for symbol in sorted(legal[x]):
            if symbol not in holder:
                candidates.append((x, symbol))
            elif holder[symbol] not in came_from:
                came_from[holder[symbol]] = x
                order.append(holder[symbol])
    repaired = []
    for x, symbol in candidates:
        cells = list(row) + [None]
        while x is not None:
            cells[x], symbol = symbol, cells[x]
            x = came_from[x]
        repaired.append(cells)
    return repaired


def repair_law(n):
    """Exact probability of each square of order n, keyed by its rows."""
    law = Counter()

    def walk(rows, row, p):
        if len(row) == n:
            rows, row = rows + [tuple(row)], []
        if len(rows) == n:
            law[tuple(rows)] += p
            return
        column_sets = [{r[j] for r in rows} for j in range(n)]
        c = len(row)
        choices = sorted(set(range(1, n + 1)) - column_sets[c] - set(row))
        nexts = [row + [s] for s in choices] or _repaired_rows(row, column_sets, n)
        for following in nexts:
            walk(rows, following, p / len(nexts))

    walk([], [], 1.0)
    return law


@pytest.fixture(scope="module")
def laws():
    return {n: repair_law(n) for n in LAW_TV}


@pytest.mark.parametrize("n", sorted(LAW_TV))
def test_law_has_full_support_and_pinned_bias(laws, n):
    law = laws[n]
    squares = {square.cells for square in enumerate_all(n)}
    assert set(law) == squares
    assert len(squares) == {3: 12, 4: 576}[n]
    assert sum(law.values()) == pytest.approx(1.0)
    tv = sum(abs(p - 1 / len(squares)) for p in law.values()) / 2
    assert round(tv, 3) == LAW_TV[n]


@pytest.mark.parametrize("n", sorted(LAW_TV))
def test_generate_follows_the_law_on_every_draw_path(laws, n):
    """Drive ``generate`` through every sequence of draw outcomes and add up
    each square's probability; it must equal the independent law.  No
    repair at these orders meets columns with unequal numbers of free
    symbols, so none rejects a draw and every path is finite."""
    got = Counter()
    stack = [[]]
    while stack:
        script = stack.pop()
        assert len(script) <= 3 * n * n  # a rejecting repair would recur without end
        src = Script(script)
        try:
            square = generate(n, src).square
        except LookupError:  # branch on every outcome of the next draw
            stack.extend(script + [v] for v in range(src.bounds[-1]))
            continue
        p = 1.0
        for bound in src.bounds:
            p /= bound
        got[square.cells] += p
    assert set(got) == set(laws[n])
    for cells, p in laws[n].items():
        assert got[cells] == pytest.approx(p, rel=1e-9)


def test_order4_sample_fits_the_law(laws):
    law = laws[4]
    src = RandomSource(20261017)
    counts = Counter(generate(4, src).square.cells for _ in range(20_000))
    keys = sorted(law)
    observed = [counts[k] for k in keys]
    expected = [law[k] * 20_000 for k in keys]
    _, p = stats.chisquare(observed, expected)
    assert p > 1e-3
