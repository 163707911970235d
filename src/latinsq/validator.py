"""Latin-square predicates on raw integer matrices.

Both checks run on plain sequences of rows, so unparsed or hand-built
input can be screened before it is wrapped in the square type.
Row and column scans use the packed-set representation: a duplicate
symbol is a bit seen twice, and n distinct in-range symbols necessarily
fill the n-bit universe.
"""

from dataclasses import dataclass
from typing import Sequence

from .errors import MalformedMatrix
from .mask_set import check_order

Matrix = Sequence[Sequence[int]]


@dataclass(frozen=True)
class ValidationResult:
    """Verdict plus, on failure, the first violation found."""

    ok: bool
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


_VALID = ValidationResult(True)


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
        for v in row:
            if type(v) is not int:  # bool is an int subclass but no symbol
                raise MalformedMatrix(f"row {i} holds a non-integer entry {v!r}")
    check_order(n)
    return n


def is_latin(matrix: Matrix) -> ValidationResult:
    """Whether every row and every column is a permutation of 1..n.

    Failure messages name the first offender, scanning rows top to
    bottom and then columns left to right: ``row 2 duplicates 2``,
    ``column 1 duplicates 1``, ``row 1 contains 9, outside 1..4``.
    """
    n = _square_order(matrix)
    for i, row in enumerate(matrix, start=1):
        seen = 0
        for v in row:
            if not 1 <= v <= n:
                return ValidationResult(False, f"row {i} contains {v}, outside 1..{n}")
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
    return _VALID


def is_exponential_latin(matrix: Matrix) -> ValidationResult:
    """Whether every cell is a power of two in 1..2**(n-1) whose
    symbol form (log2 + 1) is a Latin square."""
    n = _square_order(matrix)
    top = 1 << (n - 1)
    for i, row in enumerate(matrix, start=1):
        for j, v in enumerate(row, start=1):
            if v < 1 or v > top or v & (v - 1):
                return ValidationResult(
                    False,
                    f"row {i} column {j} contains {v}, not a power of two in 1..{top}",
                )
    return is_latin([[v.bit_length() for v in row] for row in matrix])
