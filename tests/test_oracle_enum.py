"""Brute-force enumeration: counts, ordering, independence checks."""

import pytest

from latinsq.errors import OrderTooLarge
from latinsq.oracle_enum import count_all, enumerate_all
from latinsq.validator import is_latin

KNOWN_COUNTS = {1: 1, 2: 2, 3: 12, 4: 576}


@pytest.mark.parametrize("n, expected", sorted(KNOWN_COUNTS.items()))
def test_enumerate_sizes(n, expected):
    assert len(enumerate_all(n)) == expected


@pytest.mark.parametrize("n, expected", sorted(KNOWN_COUNTS.items()))
def test_count_matches_enumeration(n, expected):
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


def test_count_cap():
    with pytest.raises(OrderTooLarge, match="1..6, got 7"):
        count_all(7)


def test_order_validation():
    with pytest.raises(OrderTooLarge):
        count_all(0)
    with pytest.raises(OrderTooLarge):
        enumerate_all(-2)
