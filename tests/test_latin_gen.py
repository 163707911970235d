"""Generator soundness, determinism, restarts, and the exponential view."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinsq.errors import OrderTooLarge, RestartBudgetExhausted
from latinsq.latin_gen import LatinSquare, generate
from latinsq.oracle_enum import enumerate_all
from latinsq.rng_choice import RandomSource
from latinsq.validator import is_exponential_latin, is_latin


def find_restarting_seed(order=7, min_restarts=2, tries=500):
    """First seed whose run needs at least ``min_restarts`` row restarts."""
    for seed in range(tries):
        report = generate(order, RandomSource(seed))
        if report.row_restarts >= min_restarts:
            return seed, report.row_restarts
    raise AssertionError(f"no seed below {tries} restarts at order {order}")


def test_order1_is_the_unique_square():
    report = generate(1, RandomSource(99))
    assert report.square.cells == ((1,),)
    assert report.row_restarts == 0


def test_order2_produces_exactly_the_two_squares():
    seen = set()
    for seed in range(64):
        seen.add(generate(2, RandomSource(seed)).square.cells)
    assert seen == {((1, 2), (2, 1)), ((2, 1), (1, 2))}


def test_order_out_of_range():
    with pytest.raises(OrderTooLarge):
        generate(0)
    with pytest.raises(OrderTooLarge):
        generate(65)


def test_order12_fixed_seed_valid_and_repeatable():
    first = generate(12, RandomSource(42))
    second = generate(12, RandomSource(42))
    assert first.square == second.square
    assert first.row_restarts == second.row_restarts
    assert is_exponential_latin(first.square.exponential)
    assert all(1 <= v <= 12 for row in first.square.cells for v in row)


def test_soundness_sweep_small_orders():
    for n in range(1, 9):
        for seed in range(20):
            report = generate(n, RandomSource(seed))
            assert is_exponential_latin(report.square.exponential)
            assert is_latin(report.square.cells)


def test_report_records_seed_and_timing():
    src = RandomSource(1717)
    report = generate(5, src)
    assert report.seed == 1717
    assert report.elapsed >= 0.0
    assert report.row_restarts >= 0


def test_restart_budget_exhausted():
    seed, restarts = find_restarting_seed()
    assert restarts >= 2
    with pytest.raises(RestartBudgetExhausted) as excinfo:
        generate(7, RandomSource(seed), max_row_restarts=1)
    err = excinfo.value
    assert err.order == 7
    assert err.seed == seed
    assert err.row_restarts == 2  # raised on the first restart past the cap
    assert 0 <= err.rows_completed < 7


def test_unlimited_budget():
    report = generate(10, RandomSource(5), max_row_restarts=None)
    assert is_latin(report.square.cells)


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        generate(4, RandomSource(0), max_row_restarts=0)


def test_reachability_order3():
    produced = set()
    for seed in range(3000):
        produced.add(generate(3, RandomSource(seed)).square.cells)
    expected = {square.cells for square in enumerate_all(3)}
    assert produced == expected


# ---------------------------------------------------------------- conversions


def test_conversion_examples():
    assert LatinSquare.from_exponential([[1]]).cells == ((1,),)
    assert LatinSquare.from_rows([[1]]).exponential == ((1,),)
    assert LatinSquare.from_exponential([[1, 2], [2, 1]]).cells == ((1, 2), (2, 1))
    assert LatinSquare.from_rows([[3, 1, 2], [1, 2, 3], [2, 3, 1]]).exponential == (
        (4, 1, 2),
        (1, 2, 4),
        (2, 4, 1),
    )


def test_order12_reference_maps_to_expected_symbols(order12_exp):
    square = LatinSquare.from_exponential(order12_exp)
    assert square.cells[0] == (6, 1, 5, 4, 10, 9, 12, 8, 2, 11, 3, 7)


def test_roundtrip_exhaustive_order3():
    for square in enumerate_all(3):
        assert LatinSquare.from_exponential(square.exponential) == square


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32))
def test_roundtrip_on_generated_squares(order, seed):
    square = generate(order, RandomSource(seed)).square
    assert LatinSquare.from_exponential(square.exponential) == square
    assert LatinSquare.from_rows(square.cells) == square
    assert hash(LatinSquare.from_rows(square.cells)) == hash(square)


def test_square_types_validate_on_construction():
    with pytest.raises(ValueError):
        LatinSquare.from_rows([[1, 2], [1, 2]])
    with pytest.raises(ValueError):
        LatinSquare.from_exponential([[1, 3], [3, 1]])
    with pytest.raises(ValueError):
        LatinSquare.from_exponential([[1, 2], [1, 2]])  # powers of two, column repeats
