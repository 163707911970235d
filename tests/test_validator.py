"""Latin and exponential-Latin predicates, messages, malformed input, and
the square type that keeps what they checked."""

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latinsq import errors
from latinsq.errors import (
    InvalidBound,
    LatinSqError,
    MalformedMatrix,
    OrderTooLarge,
    SymbolOutOfRange,
)
from latinsq.latin_gen import generate
from latinsq.mask_set import SubsetMask, check_order, singleton
from latinsq.oracle_enum import enumerate_all
from latinsq.rng_choice import RandomSource
from latinsq.validator import (
    LatinSquare,
    ValidationResult,
    is_exponential_latin,
    is_latin,
    is_packed_latin,
)

from conftest import cut


@pytest.mark.parametrize(
    "cell", [0, -2, 3, 8, 2**70], ids=["zero", "negative", "non-power", "above-range", "huge"]
)
def test_exponential_names_a_cell_that_is_not_a_power_in_range(cell):
    # with 2 in place of the cell the square is Latin; 3 has the bit length of 2
    verdict = is_exponential_latin([[1, 2, 4], [4, 1, 2], [2, 4, cell]])
    assert verdict == ValidationResult(
        False, f"row 3 column 3 contains {cell}, not a power of two in 1..4"
    )


@pytest.mark.parametrize(
    "bad",
    [
        [],
        [[1, 2]],
        [[1, 2], [1]],
        [[1, "x"], [2, 1]],
        [[1.0, 2], [2, 1]],
        [[True]],
        [[1, 2], [2, 1.0]],
    ],
)
def test_malformed_matrices(bad):
    with pytest.raises(MalformedMatrix):
        is_latin(bad)
    with pytest.raises(MalformedMatrix):
        is_exponential_latin(bad)
    assert_same_as_reference(bad)


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


@pytest.mark.parametrize("n", range(2, 5))
def test_mutation_detection_exhaustive_small_orders(n):
    # flipping any single cell of a valid square to another symbol breaks it
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


# ------------------------------------------------- per-cell reference
#
# The per-cell predicates that the packed row and column checks replaced.
# Both must give the same verdict, the same message and the same exception.


def _reference_order(matrix):
    n = len(matrix)
    if n == 0:
        raise MalformedMatrix("matrix is empty")
    for i, row in enumerate(matrix, start=1):
        if len(row) != n:
            raise MalformedMatrix(
                f"matrix is not square: {n} rows but row {i} has {len(row)} entries"
            )
        for v in row:
            if type(v) is not int:
                raise MalformedMatrix(f"row {i} holds a non-integer entry {cut(repr(v))}")
    check_order(n)
    return n


def reference_is_latin(matrix):
    n = _reference_order(matrix)
    for i, row in enumerate(matrix, start=1):
        seen = 0
        for v in row:
            if not 1 <= v <= n:
                return ValidationResult(False, f"row {i} contains {cut(str(v))}, outside 1..{n}")
            bit = 1 << (v - 1)
            if seen & bit:
                return ValidationResult(False, f"row {i} duplicates {v}")
            seen |= bit
    for j in range(n):
        seen = 0
        for i in range(n):
            bit = 1 << (matrix[i][j] - 1)
            if seen & bit:
                return ValidationResult(False, f"column {j + 1} duplicates {matrix[i][j]}")
            seen |= bit
    return ValidationResult(True)


def reference_is_exponential_latin(matrix):
    n = _reference_order(matrix)
    top = 1 << (n - 1)
    for i, row in enumerate(matrix, start=1):
        for j, v in enumerate(row, start=1):
            if v < 1 or v > top or v & (v - 1):
                return ValidationResult(
                    False,
                    f"row {i} column {j} contains {cut(str(v))}, not a power of two in 1..{top}",
                )
    return reference_is_latin([[v.bit_length() for v in row] for row in matrix])


def _outcome(predicate, matrix):
    try:
        verdict = predicate(matrix)
    except LatinSqError as exc:
        return type(exc), str(exc)
    return verdict.ok, verdict.message


def assert_same_as_reference(matrix):
    assert _outcome(is_latin, matrix) == _outcome(reference_is_latin, matrix)
    assert _outcome(is_exponential_latin, matrix) == _outcome(
        reference_is_exponential_latin, matrix
    )


# fault kind -> new cell value, given the order n, the cell's row and a
# random index k in 0..n-1; the kinds in MOVES change two cells at once
FAULTS = {
    "symbol-out-of-range": lambda n, row, k: n + 1,
    "power-out-of-range": lambda n, row, k: 1 << n,
    "zero": lambda n, row, k: 0,
    "negative": lambda n, row, k: -1 - k,
    "huge": lambda n, row, k: 2**70,
    "non-power": lambda n, row, k: 3 << k,
    "boolean": lambda n, row, k: True,
    "duplicate": lambda n, row, k: row[k],
}
MOVES = ["swap", "merge", "carry"]


@st.composite
def faulty_isotopes(draw):
    """A row, column and symbol isotope of the cyclic square of order
    1..64, in symbol or exponential form, with 0-3 planted faults."""
    n = draw(st.integers(min_value=1, max_value=64))
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    syms = draw(st.permutations(range(1, n + 1)))
    exponential = draw(st.booleans())
    matrix = [
        [1 << (syms[(r + c) % n] - 1) if exponential else syms[(r + c) % n] for c in cols]
        for r in rows
    ]
    cell = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(sorted(FAULTS) + MOVES))
        i, j, k = draw(cell), draw(cell), draw(cell)
        row = matrix[i]
        if kind == "swap":  # two cells of one column: rows stay intact
            row[j], matrix[k][j] = matrix[k][j], row[j]
        elif kind == "merge":  # one cell takes another's bits: same sum and union
            row[j], row[k] = row[j] + row[k], 0
        elif kind == "carry":  # same sum, no zero, but a bit held twice
            row[j], row[k] = row[j] + row[k] - 1, 1
        else:
            row[j] = FAULTS[kind](n, row, k)
    return matrix


# rows whose cells sum to the universe 2**n - 1 without being its powers:
# a 0 beside a cell holding two bits, and a negative cell
SPURIOUS_SUMS = [[[3, 0], [0, 3]], [[5, -2], [-2, 5]], [[1, 6, 0], [6, 0, 1], [0, 1, 6]]]


@settings(max_examples=400, deadline=None)
@given(faulty_isotopes())
@example(SPURIOUS_SUMS[0])
@example(SPURIOUS_SUMS[1])
@example(SPURIOUS_SUMS[2])
def test_packed_checks_match_per_cell_reference(matrix):
    assert_same_as_reference(matrix)


def test_non_power_anywhere_beats_an_earlier_row_duplicate(order12_exp):
    order12_exp[1][0] = order12_exp[1][1]  # duplicate in row 2
    order12_exp[8][4] = 3 << 4  # not a power of two, row 9
    message = "row 9 column 5 contains 48, not a power of two in 1..2048"
    assert is_exponential_latin(order12_exp).message == message
    assert_same_as_reference(order12_exp)


def test_row_duplicate_beats_an_earlier_column_duplicate():
    symbols = [[1, 2, 3], [1, 3, 2], [3, 3, 1]]  # column 1 holds 1 twice; row 3 holds 3 twice
    powers = [[1 << (v - 1) for v in row] for row in symbols]
    assert is_latin(symbols).message == "row 3 duplicates 3"
    assert is_exponential_latin(powers).message == "row 3 duplicates 3"
    assert_same_as_reference(symbols)
    assert_same_as_reference(powers)


def test_failing_exponential_square_is_shape_checked_once(monkeypatch):
    import latinsq.validator as validator

    calls = []
    shape_check = validator._square_order
    monkeypatch.setattr(validator, "_square_order", lambda m: calls.append(1) or shape_check(m))
    powers = [list(row) for row in generate(64, RandomSource(7)).square.exponential]
    powers[40][3], powers[40][9] = powers[40][9], powers[40][3]  # breaks columns 4 and 10
    assert is_exponential_latin(powers).message.startswith("column 4 duplicates")
    assert len(calls) == 1


@st.composite
def power_matrices(draw):
    """Matrices of order 1-6 whose cells are 0 or powers up to 2**(n+1):
    often the exponential form of a Latin square with a few cells
    replaced, and often with rows one cell shorter or longer than n."""
    n = draw(st.integers(min_value=1, max_value=6))
    cell = st.sampled_from([0] + [1 << k for k in range(n + 2)])
    index = st.integers(min_value=0, max_value=n - 1)
    if draw(st.booleans()):
        shift = draw(st.permutations(range(n)))
        rows = [[1 << shift[(r + c) % n] for c in range(n)] for r in draw(st.permutations(range(n)))]
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            rows[draw(index)][draw(index)] = draw(cell)
    else:
        rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = rows[draw(index)]
        if draw(st.booleans()):
            row.append(draw(cell))
        elif len(row) > 1:
            row.pop()
    return rows


@settings(max_examples=1000, deadline=None)
@given(power_matrices())
def test_packed_sums_decide_as_is_exponential_latin(matrix):
    """n cells that are each 0 or a power of two sum to 2**n - 1 only when
    they are 2**0 .. 2**(n-1) once each, so the sums alone decide."""
    try:
        want = bool(reference_is_exponential_latin(matrix))
    except MalformedMatrix:  # the shape check refuses it
        want = False
    assert is_packed_latin(matrix) is want


def test_packed_sums_check_the_shape_first():
    # each row sums to 3 = 2**2 - 1, but the matrix is not square
    assert not is_packed_latin([[1, 1, 1], [2, 1]])
    # and here the first two columns do too
    assert not is_packed_latin([[1, 2], [2, 1, 0]])
    assert not is_packed_latin([])
    assert is_packed_latin([[1, 2], [2, 1]])


# ---------------------------------------------------------------- square type


def test_square_equals_and_hashes_by_its_cells():
    square = LatinSquare([[1, 2], [2, 1]])
    assert square == LatinSquare([[1, 2], [2, 1]])
    assert hash(square) == hash(LatinSquare([(1, 2), (2, 1)]))
    assert square.cells == ((1, 2), (2, 1))
    assert square.order == 2
    assert all(type(row) is tuple for row in square.cells) and type(square.cells) is tuple


@pytest.mark.parametrize("build", [LatinSquare, LatinSquare.from_exponential])
def test_square_keeps_its_own_copy_of_the_rows(build):
    rows = [[1, 2], [2, 1]]
    square = build(rows)
    rows[0][0] = 2
    rows[1] = [7, 7]
    assert square.cells == ((1, 2), (2, 1))
    assert is_latin(square.cells)


def test_checked_constructors_accept_an_iterator_of_iterators():
    symbols = [[1, 2, 3], [3, 1, 2], [2, 3, 1]]
    powers = [[1 << (v - 1) for v in row] for row in symbols]
    square = LatinSquare(iter(map(iter, symbols)))
    assert LatinSquare.from_exponential(iter(map(iter, powers))) == square
    assert square.cells == tuple(map(tuple, symbols))


def test_square_constructor_still_validates():
    with pytest.raises(ValueError, match="column 1 duplicates 1"):
        LatinSquare([[1, 2], [1, 2]])
    with pytest.raises(MalformedMatrix, match="row 2 has 1 entries"):
        LatinSquare([[1, 2], [2]])


# ---------------------------------------------------------------- huge ints

BIG = 2**20000  # 6,021 digits: str refuses it under the default digit limit


def _cut_decimal(value: int) -> str:
    """``cut(str(value))`` with no digit limit, the reference for a quote."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return cut(str(value))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_a_quoted_int_is_its_decimal_cut():
    rng = random.Random(3)
    values = [0, BIG, -BIG, 10**4000 - 1, 10**5000]
    values += [10**k + d for k in range(76, 84) for d in (-1, 0, 1)]
    values += [(1 << k) + d for k in range(250, 280) for d in (-1, 0)]
    values += [rng.getrandbits(rng.randrange(1, 40000)) for _ in range(200)]
    for value in values + [-v for v in values]:
        assert errors._quote(value) == _cut_decimal(value)


@pytest.mark.parametrize(
    "check, value, message",
    [
        (lambda v: is_latin([[v]]), BIG, "row 1 contains {}, outside 1..1"),
        (lambda v: is_latin([[1, v], [2, 1]]), -BIG, "row 1 contains {}, outside 1..2"),
        (
            lambda v: is_exponential_latin([[v]]),
            BIG,
            "row 1 column 1 contains {}, not a power of two in 1..1",
        ),
    ],
    ids=["is_latin", "is_latin-negative", "is_exponential_latin"],
)
def test_a_huge_cell_gets_a_verdict(check, value, message):
    assert check(value) == ValidationResult(False, message.format(_cut_decimal(value)))


@pytest.mark.parametrize(
    "call, value, kind, message",
    [
        (check_order, BIG, OrderTooLarge, "order must be in 1..64, got {}"),
        (lambda v: singleton(v, 3), BIG, SymbolOutOfRange, "symbol {} outside 1..3"),
        (lambda v: SubsetMask(v, 3), BIG, ValueError, "bits must be in 0..2**3-1, got {}"),
        (RandomSource, BIG, ValueError, "seed must be an unsigned 64-bit value, got {}"),
        (RandomSource(1).next_below, -BIG, InvalidBound, "bound must be >= 1, got {}"),
        # a value that is not an int is quoted by repr
        (check_order, "5", OrderTooLarge, "order must be in 1..64, got '5'"),
        (lambda v: singleton(v, 3), "2", SymbolOutOfRange, "symbol '2' outside 1..3"),
    ],
    ids=[
        "check_order",
        "singleton",
        "SubsetMask",
        "RandomSource",
        "next_below",
        "check_order-str",
        "singleton-str",
    ],
)
def test_a_huge_argument_is_refused_by_its_own_error(call, value, kind, message):
    with pytest.raises(Exception) as info:
        call(value)
    assert type(info.value) is kind
    assert str(info.value) == message.format(_cut_decimal(value))
