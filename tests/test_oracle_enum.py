"""Brute-force enumeration: counts, ordering, independence checks, and the
cycle-type reduction behind ``count_all``."""

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations
from math import factorial

import pytest

import latinsq
from latinsq.errors import OrderTooLarge
from latinsq.oracle_enum import (
    _class_starts,
    _completions,
    _derangement_classes,
    _extensions,
    _rows,
    _search,
    _two_rows,
    count_all,
    cycle_type_law,
    enumerate_all,
)
from latinsq.validator import is_latin

from conftest import cycle_type

# L_1..L_7, OEIS A002860
A002860 = (1, 2, 12, 576, 161280, 812851200, 61479419904000)
KNOWN_COUNTS = dict(enumerate(A002860[:4], 1))
DERANGEMENTS = {1: 0, 2: 1, 3: 2, 4: 9, 5: 44, 6: 265, 7: 1854}
# E' of each derangement type at orders 2-6
EXTENSIONS = {
    2: {(2,): 1},
    3: {(3,): 1},
    4: {(4,): 1, (2, 2): 2},
    5: {(5,): 6, (2, 3): 4},
    6: {(6,): 168, (2, 4): 176, (3, 3): 192, (2, 2, 2): 224},
}
# |C_λ| E'(λ) of each derangement type at orders 1-7
CYCLE_TYPE_LAW = {
    1: {},
    2: {(2,): 1},
    3: {(3,): 2},
    4: {(2, 2): 6, (4,): 6},
    5: {(2, 3): 80, (5,): 144},
    6: {(2, 2, 2): 3360, (2, 4): 15840, (3, 3): 7680, (6,): 20160},
    7: {(2, 2, 3): 11612160, (2, 5): 27740160, (3, 4): 22901760, (7,): 39398400},
}


def reduced_count(n):
    """L_n through the reduced squares, whose first row and first column are
    1..n: each is reached from exactly n! (n-1)! squares by sorting the
    columns by the first row, then rows 2..n by the first column."""
    grid = [[0] * n for _ in range(n)]
    for k in range(n):
        grid[0][k] = grid[k][0] = k + 1
    return _completions(grid) * factorial(n) * factorial(n - 1)


@pytest.mark.parametrize("n, expected", sorted(KNOWN_COUNTS.items()))
def test_count_matches_enumeration(monkeypatch, n, expected):
    import latinsq.validator as validator

    def refuse(matrix):
        raise AssertionError("an enumerated square is checked again")

    # the search builds only Latin squares, so none goes through is_latin
    monkeypatch.setattr(validator, "is_latin", refuse)
    assert count_all(n) == expected == len(enumerate_all(n))


def test_enumerated_squares_are_distinct_and_latin():
    for n in range(1, 5):
        squares = enumerate_all(n)
        assert len({s.cells for s in squares}) == len(squares)
        assert all(is_latin(s.cells) for s in squares)


def test_enumeration_is_lexicographic():
    squares = enumerate_all(3)
    assert [s.cells for s in squares] == sorted(s.cells for s in squares)
    assert squares[0].cells == ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    first4 = enumerate_all(4)[0]
    assert first4.cells == ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1))


def test_enumeration_cap():
    with pytest.raises(OrderTooLarge, match="1..4, got 5"):
        enumerate_all(5)


@pytest.mark.parametrize("n", range(1, 7))
def test_count_matches_reduced_squares(n):
    assert count_all(n) == reduced_count(n)


def test_count_order7(monkeypatch):
    """One order-7 search pins both the count and the weights it sums."""
    import latinsq.oracle_enum as oracle_enum

    laws = []

    def recording(n):
        laws.append(cycle_type_law(n))
        return laws[-1]

    monkeypatch.setattr(oracle_enum, "cycle_type_law", recording)
    # McKay and Wanless, "On the number of Latin squares", 2005
    assert count_all(7) == 61_479_419_904_000
    assert laws == [CYCLE_TYPE_LAW[7]]


@pytest.mark.parametrize("n", range(1, 7))
def test_cycle_type_law(n):
    law = cycle_type_law(n)
    assert law == CYCLE_TYPE_LAW[n]
    if n > 1:  # order 1 has no derangement, and one square
        assert count_all(n) == factorial(n) * factorial(n - 2) * sum(law.values())


def test_cycle_types_between_rows_split_as_the_law_says():
    """In the order-4 squares, the permutation taking row a to row b has
    type λ in n! (n-2)! |C_λ| E'(λ) of them, for every pair of rows."""
    n, squares = 4, enumerate_all(4)
    scale = factorial(n) * factorial(n - 2)
    expected = {parts: scale * weight for parts, weight in cycle_type_law(n).items()}
    for a, b in combinations(range(n), 2):
        types = Counter()
        for square in squares:
            step = dict(zip(square.cells[a], square.cells[b]))
            types[cycle_type([step[s] for s in range(1, n + 1)])] += 1
        assert types == expected, (a, b)


@pytest.mark.parametrize("n", range(1, 5))
def test_completions_of_blanked_squares(n):
    """Blank random cells of enumerated squares, last-row cells included:
    the search returns and visits exactly the squares that agree with the
    kept cells, in lexicographic order, whether the last row is blank,
    partly kept or whole."""
    squares = [s.cells for s in enumerate_all(n)]
    rng = random.Random(n)
    cells = [(i, j) for i in range(n) for j in range(n)]
    last_row_kept = set()
    for trial in range(60):
        square = rng.choice(squares)
        blank = set(rng.sample(cells, rng.randint(0, n * n)))
        if trial % 3 == 0:  # the whole last row blank
            blank |= {(n - 1, j) for j in range(n)}
        grid = [[0 if (i, j) in blank else square[i][j] for j in range(n)] for i in range(n)]
        last_row_kept.add(sum(map(bool, grid[-1])))
        kept = [(i, j, v) for i, row in enumerate(grid) for j, v in enumerate(row) if v]
        agree = [s for s in squares if all(s[i][j] == v for i, j, v in kept)]
        seen = []
        found = _completions(grid, lambda g: seen.append(tuple(map(tuple, g))))
        assert found == len(seen) == len(agree)
        assert seen == agree == sorted(agree)
    assert last_row_kept == set(range(n + 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_extensions_depend_only_on_cycle_type(n):
    """E'(σ) equals E' of its type's first derangement for every
    derangement σ, and the census holds, for each type in sorted order,
    its first derangement in lexicographic order and how many derangements
    have it. Orders 2 and 3 are the edges of the state _extensions builds:
    at order 2 nothing is searched or forced, and at order 3 only the last
    row is forced."""
    classes = _derangement_classes(n)
    canonical = {parts: _extensions(first) for parts, first, _ in classes}
    first, by_type = {}, Counter()
    for row in permutations(range(1, n + 1)):
        if any(v == j for j, v in enumerate(row, 1)):
            continue
        parts = cycle_type(row)
        first.setdefault(parts, row)
        by_type[parts] += 1
        assert _extensions(list(row)) == canonical[parts], row
    assert classes == tuple((parts, first[parts], by_type[parts]) for parts in sorted(by_type))
    assert canonical == EXTENSIONS[n]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_each_class_start_counts_its_extensions_by_brute_force(n):
    """Each type's cached start, searched with a leaf that closes the last
    two rows by brute force, counts E' of its type. The leaf tries row n-1
    from the group of the lesser symbol column 1 lacks, and keeps it when
    what each column then lacks, row n, is a row. Every state the search
    hands the leaf completes, as every Latin rectangle does, and
    ``_two_rows`` agrees with the leaf there."""
    table = _rows(n)
    every = set(sum(table, ()))
    full, whole = (1 << n) - 1, (1 << n * n) - 1
    states = {}

    def brute(path, used):
        lacking = ~used & full
        group = table[(lacking & -lacking).bit_length() - 1]
        states[used] = sum(not row & used and whole ^ used ^ row in every for row in group)
        return states[used]

    counts = {parts: _search((), used, plan, {}, brute) for parts, _, used, plan, _ in _class_starts(n)}
    assert counts == EXTENSIONS[n]
    assert states and all(states.values())
    assert {used: _two_rows(used, n) for used in states} == states


def test_a_count_keeps_no_count_between_calls(monkeypatch):
    """A second count runs every search again, through the same leaves:
    no E', weight or state's count outlives the call that found it."""
    import latinsq.oracle_enum as oracle_enum

    leaves = []
    closing = oracle_enum._two_rows
    monkeypatch.setattr(oracle_enum, "_two_rows", lambda used, n: leaves.append(used) or closing(used, n))
    assert count_all(6) == A002860[5]
    first = len(leaves)
    assert count_all(6) == A002860[5]
    assert first and leaves == leaves[:first] * 2


@pytest.mark.parametrize("order", [True, 5.0, 0, 8], ids=["True", "5.0", "0", "8"])
def test_a_refused_order_reads_no_count_cache(order):
    """The order is checked before any per-order cache is read: True and
    5.0 would share the keys of orders 1 and 5."""
    count_all(1)
    count_all(5)
    caches = (_derangement_classes, _class_starts, _rows)
    before = [cache.cache_info() for cache in caches]
    with pytest.raises(OrderTooLarge):
        count_all(order)
    with pytest.raises(OrderTooLarge):
        cycle_type_law(order)
    assert [cache.cache_info() for cache in caches] == before


def test_count_caches_stay_apart_by_order():
    """Orders 1-7 counted twice each, shuffled, in one fresh process give
    A002860 each time, whichever order sets up its caches first."""
    orders = [*range(1, 8)] * 2
    random.Random(7).shuffle(orders)
    probe = f"from latinsq.oracle_enum import count_all\nprint([count_all(n) for n in {orders}])\n"
    src = os.path.dirname(os.path.dirname(latinsq.__file__))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == f"{[A002860[n - 1] for n in orders]}\n"


@pytest.mark.parametrize("n", range(1, 8))
def test_row_table_holds_each_permutation_once_by_first_symbol(n):
    """Entry s - 1 of the order-n table is the permutations that start with
    s, in lexicographic order, each a word with one bit in each n-bit
    field: the bit of symbol v in column j is bit j*n + v - 1."""
    table = _rows(n)
    assert len(table) == n
    field = (1 << n) - 1
    spelled = []
    for s, words in enumerate(table, 1):
        for word in words:
            assert 0 < word < 1 << n * n
            fields = [word >> j * n & field for j in range(n)]
            assert all(f.bit_count() == 1 for f in fields), word
            spelled.append(tuple(f.bit_length() for f in fields))
            assert spelled[-1][0] == s
    assert spelled == list(permutations(range(1, n + 1)))


@pytest.mark.parametrize("n, derangements", sorted(DERANGEMENTS.items()))
def test_class_sizes_sum_to_derangements(n, derangements):
    assert sum(size for _, _, size in _derangement_classes(n)) == derangements


def test_count_cap():
    with pytest.raises(OrderTooLarge, match="1..7, got 8"):
        count_all(8)
    with pytest.raises(OrderTooLarge, match="1..7, got 8"):
        cycle_type_law(8)


def test_order_validation():
    with pytest.raises(OrderTooLarge):
        count_all(0)
    with pytest.raises(OrderTooLarge):
        enumerate_all(-2)
