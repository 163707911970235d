"""Latin-square predicates on raw integer matrices, and the square type
they guard.

Both checks run on plain sequences of rows, so unparsed or hand-built
input can be screened before it is wrapped in the square type.  Square
and verdict are immutable named tuples; a verdict is truthy when ``ok`` is.

A square whose every cell is 0 or a power of two is the exponential
form of a Latin square exactly when it is n x n and every row and every
column sums to 2**n - 1 (``is_packed_latin``).  A sum of m powers of two
has at most m one bits, and exactly m only when no two are equal, since
equal powers carry; 2**n - 1 has n one bits, and a 0 adds none, so the n
cells of a line are n distinct powers below 2**n, which are
2**0 .. 2**(n-1).

``is_exponential_latin`` takes any ints, so it checks its definition: it
names the first cell that is not a power of two in 1..2**(n-1) and, when
every cell is one, ``is_latin`` decides the symbol form.  A row or column
of powers sums to 2**n - 1 exactly when its symbols are a permutation, so
the sums and ``is_latin`` fail first at the same row or column.
"""

from collections import namedtuple
from typing import NamedTuple, Sequence

from .errors import MalformedMatrix, _quote
from .mask_set import MAX_ORDER, check_order

Matrix = Sequence[Sequence[int]]
Cells = tuple[tuple[int, ...], ...]


class ValidationResult(NamedTuple):
    """Verdict plus, on failure, the first violation found."""

    ok: bool
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


_VALID = ValidationResult(True)
_INT_ONLY = frozenset({int})  # bool is an int subclass but no symbol


def _square_order(matrix: Matrix) -> int:
    """Shape-check a matrix and return its order."""
    n = len(matrix)
    if n == 0:
        raise MalformedMatrix("matrix is empty")
    for i, row in enumerate(matrix, start=1):
        if len(row) != n:
            raise MalformedMatrix(
                f"matrix is not square: {n} rows but row {i} has {len(row)} entries"
            )
        if set(map(type, row)) != _INT_ONLY:
            v = next(v for v in row if type(v) is not int)
            raise MalformedMatrix(f"row {i} holds a non-integer entry {_quote(v)}")
    check_order(n)
    return n


def _first_offender(line: str, symbols, n: int) -> ValidationResult:
    """The verdict on a failing row or column: its first symbol that is
    outside 1..n or seen twice."""
    seen = set()
    for v in symbols:
        if not 1 <= v <= n:
            return ValidationResult(False, f"{line} contains {_quote(v)}, outside 1..{n}")
        if v in seen:
            return ValidationResult(False, f"{line} duplicates {v}")
        seen.add(v)
    raise AssertionError(f"{line} is a permutation")  # callers pass a failing line


def is_latin(matrix: Matrix) -> ValidationResult:
    """Whether every row and every column is a permutation of 1..n.

    Failure messages name the first offender, scanning rows top to
    bottom and then columns left to right: ``row 2 duplicates 2``,
    ``column 1 duplicates 1``, ``row 1 contains 9, outside 1..4``.
    """
    return _latin_verdict(matrix, _square_order(matrix))


def _latin_verdict(matrix: Matrix, n: int) -> ValidationResult:
    """``is_latin`` on a matrix already shape-checked to order n."""
    symbols = frozenset(range(1, n + 1))
    for i, row in enumerate(matrix, start=1):
        if set(row) != symbols:
            return _first_offender(f"row {i}", row, n)
    for j, col in enumerate(zip(*matrix), start=1):
        if set(col) != symbols:
            return _first_offender(f"column {j}", col, n)
    return _VALID


def is_exponential_latin(matrix: Matrix) -> ValidationResult:
    """Whether every cell is a power of two in 1..2**(n-1) whose
    symbol form (log2 + 1) is a Latin square.

    A cell that is not such a power, anywhere, is reported before the
    first duplicate; duplicates are reported as symbols, rows first.
    """
    n = _square_order(matrix)
    top = 1 << (n - 1)
    for i, row in enumerate(matrix, start=1):
        for j, v in enumerate(row, start=1):
            if v < 1 or v > top or v & (v - 1):
                return ValidationResult(
                    False, f"row {i} column {j} contains {_quote(v)}, not a power of two in 1..{top}"
                )
    # every cell is a power, so each form fails first at the same row or column
    return _latin_verdict([tuple(map(int.bit_length, row)) for row in matrix], n)


def is_packed_latin(matrix: Matrix) -> bool:
    """Whether a matrix whose every cell is 0 or a power of two is the
    exponential form of a Latin square: n x n, with n in 1..MAX_ORDER, and
    every row and every column summing to 2**n - 1.

    No cell is visited one at a time and no set is built.  The shape is
    checked first, since a ragged row can hit the sum (``1 1 1`` at n = 2).
    False wherever ``is_latin`` and ``is_exponential_latin`` refuse the
    shape; it names no failure.
    """
    n = len(matrix)
    if not 0 < n <= MAX_ORDER or not all(map(n.__eq__, map(len, matrix))):
        return False
    is_full = ((1 << n) - 1).__eq__
    return all(map(is_full, map(sum, matrix))) and all(map(is_full, map(sum, zip(*matrix))))


class LatinSquare(namedtuple("LatinSquare", "cells")):
    """n x n matrix in which every row and column is a permutation of 1..n.

    Every public constructor validates its own tuple copy of the input;
    squares the package builds itself are Latin by construction and skip
    the check.  A square stores its symbols 1..n.  Its exponential form,
    the powers 2**0 .. 2**(n-1), is a view related by cell = 2**(symbol - 1).
    """

    __slots__ = ()

    def __new__(cls, cells: Matrix):
        cells = tuple(map(tuple, cells))
        verdict = is_latin(cells)
        if not verdict:
            raise ValueError(verdict.message)
        return cls._trusted(cells)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @property
    def order(self) -> int:
        return len(self.cells)

    @property
    def exponential(self) -> Cells:
        """The cells in exponential form: symbol k becomes 2**(k-1)."""
        return tuple(tuple(1 << (v - 1) for v in row) for row in self.cells)

    @classmethod
    def from_exponential(cls, rows) -> "LatinSquare":
        """The square whose exponential form is ``rows``; each cell 2**(k-1)
        becomes the symbol k."""
        rows = tuple(map(tuple, rows))
        verdict = is_exponential_latin(rows)
        if not verdict:
            raise ValueError(verdict.message)
        return cls._trusted(tuple(tuple(map(int.bit_length, row)) for row in rows))

    @classmethod
    def _trusted(cls, cells: Cells) -> "LatinSquare":
        """Wrap cells already known to be Latin, without checking them."""
        return tuple.__new__(cls, (cells,))
