"""Latin and exponential-Latin predicates, messages, malformed input."""

import random

import pytest

from latinsq.errors import MalformedMatrix, OrderTooLarge
from latinsq.latin_gen import generate
from latinsq.oracle_enum import enumerate_all
from latinsq.rng_choice import RandomSource
from latinsq.validator import is_exponential_latin, is_latin


def test_single_cell():
    assert is_latin([[1]])
    assert is_exponential_latin([[1]])


def test_cyclic_square_is_latin():
    assert is_latin([[1, 2, 3], [2, 3, 1], [3, 1, 2]])


def test_column_duplicate_detected():
    verdict = is_latin([[1, 2], [1, 2]])
    assert not verdict
    assert verdict.message == "column 1 duplicates 1"


def test_row_duplicate_detected():
    verdict = is_latin([[1, 2], [2, 2]])
    assert not verdict
    assert verdict.message == "row 2 duplicates 2"


def test_out_of_range_symbol_detected():
    verdict = is_latin([[1, 3], [3, 1]])
    assert not verdict
    assert verdict.message == "row 1 contains 3, outside 1..2"


def test_exponential_order2():
    assert is_exponential_latin([[1, 2], [2, 1]])


def test_exponential_rejects_non_power():
    verdict = is_exponential_latin([[1, 3], [3, 1]])
    assert not verdict
    assert "not a power of two" in verdict.message
    assert "row 1 column 2" in verdict.message


def test_exponential_rejects_power_out_of_range():
    verdict = is_exponential_latin([[1, 2], [2, 4]])  # 4 needs order >= 3
    assert not verdict
    assert "not a power of two" in verdict.message


def test_order12_reference(order12_exp):
    assert is_exponential_latin(order12_exp)
    standard = [[v.bit_length() for v in row] for row in order12_exp]
    assert is_latin(standard)


def test_order12_mutation_detected(order12_exp):
    order12_exp[3][5] = 1  # clashes within row 4
    assert not is_exponential_latin(order12_exp)


@pytest.mark.parametrize(
    "bad",
    [
        [],
        [[1, 2]],
        [[1, 2], [1]],
        [[1, "x"], [2, 1]],
        [[1.0, 2], [2, 1]],
        [[True]],
    ],
)
def test_malformed_matrices(bad):
    with pytest.raises(MalformedMatrix):
        is_latin(bad)
    with pytest.raises(MalformedMatrix):
        is_exponential_latin(bad)


def test_booleans_are_not_symbols():
    # True == 1 and False == 0, but neither is a symbol
    with pytest.raises(MalformedMatrix, match="True"):
        is_latin([[True]])
    with pytest.raises(MalformedMatrix):
        is_latin([[1, 2], [2, True]])
    with pytest.raises(MalformedMatrix):
        is_exponential_latin([[1, 2], [True, 1]])


def test_order_above_word_width_rejected():
    n = 65
    cyclic = [[(i + j) % n + 1 for j in range(n)] for i in range(n)]
    with pytest.raises(OrderTooLarge):
        is_latin(cyclic)


def test_agreement_between_forms():
    # wherever the cells are valid powers, the two predicates agree
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 6)
        symbols = [[rng.randint(1, n) for _ in range(n)] for _ in range(n)]
        powers = [[1 << (v - 1) for v in row] for row in symbols]
        assert is_exponential_latin(powers).ok == is_latin(symbols).ok


def test_mutation_detection_exhaustive_small_orders():
    # flipping any single cell of a valid square to another symbol breaks it
    for n in range(2, 5):
        for square in enumerate_all(n):
            cells = [list(row) for row in square.cells]
            for i in range(n):
                for j in range(n):
                    original = cells[i][j]
                    for other in range(1, n + 1):
                        if other == original:
                            continue
                        cells[i][j] = other
                        assert not is_latin(cells)
                    cells[i][j] = original


def test_generated_squares_pass_both_checks():
    for seed in range(5):
        report = generate(6, RandomSource(seed))
        assert is_exponential_latin(report.square.exponential)
        assert is_latin(report.square.cells)
