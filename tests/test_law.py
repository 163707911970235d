"""The exact law of the repairing generator at orders 3, 4 and 5.

``repair_law`` recomputes, without the generator's code, the probability
of each square under the documented sampler: each cell draws uniformly
among its legal symbols; a cell with none draws uniformly among the
(column, free symbol) candidates of a breadth-first search through the
row, in search order with ascending symbols, and shifts symbols back
along the path.  Sets of symbols stand in for the generator's masks.
A row's law depends only on the column sets of the rows above it, so it
is computed once per tuple of column sets: order 5 takes 4,321
row laws instead of a search over every draw path of every square.
At order 5 the law also gives the generator's exact bias in the cycle
type between its last two rows.
"""

import functools
import math
from collections import Counter
from fractions import Fraction

import pytest
from scipy import stats

from latinsq.latin_gen import generate
from latinsq.oracle_enum import count_all, cycle_type_law
from latinsq.rng_choice import RandomSource

from conftest import Script, cycle_type

LAW_TV = {3: 0.125, 4: 0.241, 5: 0.233}  # total-variation distance from uniform
LAW_SPREAD = {3: 1.7, 4: 6.4, 5: 66.2}  # largest over smallest square probability


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


@functools.cache
def _row_law(column_sets, n):
    """Probability of each row the sampler completes below rows whose
    columns hold ``column_sets``; the row law depends on nothing else."""
    law = Counter()

    def walk(row, p):
        if len(row) == n:
            law[tuple(row)] += p
            return
        choices = sorted(set(range(1, n + 1)) - column_sets[len(row)] - set(row))
        nexts = [row + [s] for s in choices] or _repaired_rows(row, column_sets, n)
        for following in nexts:
            walk(following, p / len(nexts))

    walk([], 1.0)
    return law


def repair_law(n):
    """Exact probability of each square of order n, keyed by its rows: the
    product over its rows of each row's probability given the column sets
    of the rows above, so each row law is computed once per set tuple."""
    law = Counter()

    def walk(rows, column_sets, p):
        for row, q in _row_law(column_sets, n).items():
            if len(rows) == n - 1:
                law[rows + (row,)] += p * q
            else:
                walk(rows + (row,), tuple(s | {v} for s, v in zip(column_sets, row)), p * q)

    walk((), (frozenset(),) * n, 1.0)
    return law


@pytest.fixture(scope="module")
def laws():
    return {n: repair_law(n) for n in LAW_TV}


@pytest.mark.parametrize("n", sorted(LAW_TV))
def test_law_has_full_support_and_pinned_bias(laws, n):
    law = laws[n]
    # as many distinct Latin keys as there are Latin squares: every square
    assert len(law) == count_all(n) == {3: 12, 4: 576, 5: 161_280}[n]
    symbols = set(range(1, n + 1))
    assert all(set(line) == symbols for cells in law for line in cells + tuple(zip(*cells)))
    assert math.fsum(law.values()) == pytest.approx(1.0, rel=0, abs=1e-12)
    tv = sum(abs(p - 1 / len(law)) for p in law.values()) / 2
    assert round(tv, 3) == LAW_TV[n]
    assert round(max(law.values()) / min(law.values()), 1) == LAW_SPREAD[n]


def test_order5_last_two_rows_lean_to_a_5_cycle(laws):
    """The cycle type of the permutation carrying row 4 to row 5: its exact
    share under the generator's law against the uniform law's, which the
    count oracle's weights give."""
    shares = Counter()
    for cells, p in laws[5].items():
        step = dict(zip(cells[3], cells[4]))
        shares[cycle_type([step[s] for s in range(1, 6)])] += p
    assert {parts: round(p, 6) for parts, p in shares.items()} == {(2, 3): 0.219668, (5,): 0.780332}
    weights = cycle_type_law(5)
    total = sum(weights.values())
    uniform = {parts: Fraction(weight, total) for parts, weight in weights.items()}
    assert uniform == {(2, 3): Fraction(80, 224), (5,): Fraction(144, 224)}


@pytest.mark.parametrize("n", [3, 4])
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


def test_order5_first_two_rows_fit_the_law(laws):
    """10^5 squares from one fixed seed against the law's marginal on the
    first two rows: 5,280 Latin rectangles, each expected at least 10 times."""
    marginal = Counter()
    for cells, p in laws[5].items():
        marginal[cells[:2]] += p
    src = RandomSource(20261018)
    counts = Counter(generate(5, src).square.cells[:2] for _ in range(100_000))
    assert set(counts) <= set(marginal)
    keys = sorted(marginal)
    observed = [counts[k] for k in keys]
    expected = [marginal[k] * 100_000 for k in keys]
    _, p = stats.chisquare(observed, expected)
    assert p > 1e-3
