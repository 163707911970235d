"""Shared fixtures: a known-good order-12 exponential square, a scripted
random source, the cut of a value quoted in an error line, and the cycle
type of a permutation."""

import pytest

# cli_cases.py asserts for the tests that run its rows
pytest.register_assert_rewrite("cli_cases")

# Reference 12x12 exponential Latin square used across the suite.
ORDER12_EXP = (
    (32, 1, 16, 8, 512, 256, 2048, 128, 2, 1024, 4, 64),
    (4, 256, 512, 16, 8, 64, 1024, 2, 32, 1, 2048, 128),
    (8, 32, 1, 2, 64, 4, 16, 256, 128, 512, 1024, 2048),
    (16, 4, 8, 32, 2048, 1024, 512, 64, 256, 128, 2, 1),
    (256, 128, 32, 64, 4, 8, 1, 16, 2048, 2, 512, 1024),
    (512, 2048, 1024, 256, 1, 128, 2, 32, 64, 16, 8, 4),
    (1024, 16, 256, 128, 32, 2048, 8, 4, 512, 64, 1, 2),
    (2, 64, 128, 4, 1024, 16, 256, 8, 1, 2048, 32, 512),
    (1, 2, 4, 512, 16, 32, 128, 2048, 1024, 256, 64, 8),
    (64, 8, 2048, 1024, 2, 512, 32, 1, 16, 4, 128, 256),
    (2048, 1024, 64, 1, 128, 2, 4, 512, 8, 32, 256, 16),
    (128, 512, 2, 2048, 256, 1, 64, 1024, 4, 8, 16, 32),
)


def cut(text: str) -> str:
    """A value as an error line quotes it: whole when its UTF-8 takes at
    most 80 bytes, else its first 77 bytes and ``...``, less a character
    cut in two."""
    data = text.encode()
    return text if len(data) <= 80 else data[:77].decode(errors="ignore") + "..."


def render_rows(rows) -> str:
    return "".join(" ".join(str(v) for v in row) + "\n" for row in rows)


@pytest.fixture
def order12_exp():
    return [list(row) for row in ORDER12_EXP]


class Script:
    """Random source that answers draws from ``values`` in turn and records
    each bound asked for; a draw past the end raises LookupError, so a
    caller can branch on every outcome of that draw."""

    def __init__(self, values):
        self.values = list(values)
        self.bounds = []

    def next_below(self, bound):
        self.bounds.append(bound)
        if len(self.bounds) > len(self.values):
            raise LookupError("draw past the end of the script")
        return self.values[len(self.bounds) - 1]


def cycle_type(row):
    """The sorted cycle lengths of the permutation j -> row[j-1] of 1..n."""
    seen, lengths = set(), []
    for start in range(1, len(row) + 1):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = row[j - 1]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))
