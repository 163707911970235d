"""Brute-force enumeration: counts, ordering, independence checks, and the
cycle-type reduction behind ``count_all``."""

import random
from collections import Counter
from itertools import combinations, permutations
from math import factorial

import pytest

from latinsq.errors import OrderTooLarge
from latinsq.oracle_enum import (
    _class_size,
    _completions,
    _cycle_row,
    _derangement_types,
    _extensions,
    _rows,
    count_all,
    cycle_type_law,
    enumerate_all,
)
from latinsq.validator import is_latin

from conftest import cycle_type

KNOWN_COUNTS = {1: 1, 2: 2, 3: 12, 4: 576}
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
    """E'(σ) equals E' of its type's canonical row for every derangement σ,
    and each type holds _class_size derangements. Orders 2 and 3 are the
    edges of the state _extensions builds: at order 2 nothing is searched
    or forced, and at order 3 only the last row is forced."""
    canonical = {parts: _extensions(_cycle_row(parts)) for parts in _derangement_types(n)}
    assert all(cycle_type(_cycle_row(parts)) == parts for parts in canonical)
    by_type = Counter()
    for row in permutations(range(1, n + 1)):
        if any(v == j for j, v in enumerate(row, 1)):
            continue
        parts = cycle_type(row)
        by_type[parts] += 1
        assert _extensions(list(row)) == canonical[parts], row
    assert by_type == {parts: _class_size(parts) for parts in canonical}
    assert canonical == EXTENSIONS[n]


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
    assert sum(_class_size(parts) for parts in _derangement_types(n)) == derangements


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
