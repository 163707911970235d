"""Generator soundness, determinism, repairs, and the exponential view."""

import hashlib
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinsq.errors import OrderTooLarge
from latinsq.latin_gen import GenerationReport, LatinSquare, _repair_row, generate
from latinsq.oracle_enum import enumerate_all
from latinsq.rng_choice import RandomSource

from conftest import Script
from test_law import _repaired_rows


def test_order1_is_the_unique_square():
    report = generate(1, RandomSource(99))
    assert report.square.cells == ((1,),)
    assert report.repairs == 0


def test_order2_produces_exactly_the_two_squares():
    seen = set()
    for seed in range(64):
        seen.add(generate(2, RandomSource(seed)).square.cells)
    assert seen == {((1, 2), (2, 1)), ((2, 1), (1, 2))}


def test_order_out_of_range():
    with pytest.raises(OrderTooLarge):
        generate(0, RandomSource(0))
    with pytest.raises(OrderTooLarge):
        generate(65, RandomSource(0))


def test_report_holds_only_the_square_and_repairs():
    report = generate(5, RandomSource(1717))
    assert GenerationReport._fields == ("square", "repairs")
    assert report.repairs >= 0
    with pytest.raises(TypeError):
        generate(5)  # the source is required


@pytest.mark.parametrize("draw, expected", [(0, [2, 4, 1]), (1, [4, 1, 2])])
def test_repair_shifts_symbols_along_the_drawn_path(draw, expected):
    # under the row 1 2 3, the partial row 2 1 _ leaves no symbol for the last cell
    row = [0b010, 0b001, 0]
    src = Script([draw, 0, 0])
    assert _repair_row(row, 2, [0b110, 0b101, 0b011], 0b100, src) == 0b100
    # reached columns with a free symbol: the second, then the first (symbol 3 each);
    # then the odds draw and the draw of that one symbol
    assert src.bounds == [2, 1, 1]
    assert row == expected


def _repair_odds(symbols, column_sets, n):
    """Each row ``_repair_row`` makes of the partial row ``symbols``, whose
    next cell has no legal symbol under columns holding ``column_sets``,
    with its probability summed over every draw path that keeps the first
    column drawn.  On every path, ``legal`` is left as it was and the
    symbol returned is one of those the row did not hold."""
    c = len(symbols)
    full = (1 << n) - 1
    legal = [full ^ sum(1 << (s - 1) for s in column) for column in column_sets[: c + 1]]
    missing = full ^ sum(1 << (s - 1) for s in symbols)
    kept = list(legal)
    odds = Counter()
    scripts = [[]]
    while scripts:
        script = scripts.pop()
        row = [1 << (s - 1) for s in symbols] + [0] * (n - c)
        src = Script(script)
        try:
            entering = _repair_row(row, c, legal, missing, src)
        except LookupError:
            if len(script) < 3:  # one column draw, one odds draw, one symbol draw
                scripts.extend(script + [v] for v in range(src.bounds[-1]))
            continue  # longer scripts follow a rejected column draw
        assert legal == kept  # generate fills the rest of the row from it
        assert entering.bit_count() == 1 and entering & missing
        odds[tuple(map(int.bit_length, row[: c + 1]))] += Fraction(1, math.prod(src.bounds))
    return odds


def _dead_ends(n):
    """Every distinct dead end of the sampler at order n: a partial row
    whose next cell has no legal symbol, with the sets its columns up to
    that cell hold.  Follows every way the sampler fills a row, repairs
    included, below every rectangle it builds, as ``repair_law`` does."""
    ends = set()

    def fill(row, column_sets):
        c = len(row)
        if c == n:
            yield row
            return
        choices = sorted(set(range(1, n + 1)) - column_sets[c] - set(row))
        if not choices:
            ends.add((tuple(row), column_sets[: c + 1]))
        for following in [row + [s] for s in choices] or _repaired_rows(row, column_sets, n):
            yield from fill(following, column_sets)

    seen = set()
    stack = [(frozenset(),) * n]
    while stack:
        column_sets = stack.pop()
        if column_sets in seen:
            continue
        seen.add(column_sets)
        for row in fill([], column_sets):
            if len(column_sets[0]) < n - 1:
                stack.append(tuple(s | {v} for s, v in zip(column_sets, row)))
    return ends


def test_repair_draws_every_candidate_equally_often():
    # order 5: the row 3 2 4 _ under columns holding {2,4} {4,5} {2,3} {1,5}
    # reaches column 2 with free symbol 1, and columns 1 and 3 with 1 and 5
    odds = _repair_odds([3, 2, 4], [{2, 4}, {4, 5}, {2, 3}, {1, 5}], 5)
    assert len(odds) == 5
    assert set(odds.values()) == {Fraction(1, 6)}  # accepted 5/6 of the time
    # at every dead end the sampler meets at orders 4 and 5, exactly the
    # candidates of the law's own search are drawn, each equally often, and
    # on every draw path legal is kept and the symbol returned was missing
    for n, count in ((4, 216), (5, 23_100)):
        ends = _dead_ends(n)
        assert len(ends) == count
        for symbols, column_sets in ends:
            odds = _repair_odds(symbols, column_sets, n)
            assert set(odds) == {tuple(row) for row in _repaired_rows(symbols, column_sets, n)}
            assert len(set(odds.values())) == 1


class Recording(RandomSource):
    """Seeded source that records each bound asked of ``next_below``."""

    def __init__(self, seed):
        super().__init__(seed)
        self.bounds = []

    def next_below(self, bound):
        self.bounds.append(bound)
        return super().next_below(bound)


# sha256 over orders 25-64, seeds 0-2: each square's cells, its repairs, every
# bound drawn and the next 32-bit draw after it; pinned at 0.5.0
LONG_REPAIR_STREAM = "53420faecb6cfa5a97bfe7a08b1b42f0e2d89e122ed87d84b2406f69d0973510"


def test_draw_stream_unchanged_where_repairs_are_long():
    digest = hashlib.sha256()
    for order in range(25, 65):
        for seed in range(3):
            src = Recording(seed)
            report = generate(order, src)
            after = src.next_below(1 << 32)
            digest.update(repr((report.square.cells, report.repairs, src.bounds, after)).encode())
    assert digest.hexdigest() == LONG_REPAIR_STREAM


# ---------------------------------------------------------------- conversions


def test_conversion_examples():
    assert LatinSquare.from_exponential([[1]]).cells == ((1,),)
    assert LatinSquare([[1]]).exponential == ((1,),)
    assert LatinSquare.from_exponential([[1, 2], [2, 1]]).cells == ((1, 2), (2, 1))
    assert LatinSquare([[3, 1, 2], [1, 2, 3], [2, 3, 1]]).exponential == (
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
    assert LatinSquare(square.cells) == square
    assert hash(LatinSquare(square.cells)) == hash(square)


def test_square_types_validate_on_construction():
    with pytest.raises(ValueError):
        LatinSquare([[1, 2], [1, 2]])
    with pytest.raises(ValueError):
        LatinSquare.from_exponential([[1, 3], [3, 1]])
    with pytest.raises(ValueError):
        LatinSquare.from_exponential([[1, 2], [1, 2]])  # powers of two, column repeats
    for rows in ([[3, 0], [0, 3]], [[5, -2], [-2, 5]], [[1, 6, 0], [6, 0, 1], [0, 1, 6]]):
        with pytest.raises(ValueError, match="not a power of two"):  # rows sum to 2**n - 1
            LatinSquare.from_exponential(rows)
