"""Output oracle: set-based checks that share no code with latinsq.

Every generated or converted square the benchmark sees is parsed here and
checked with plain Python sets, so a defect in ``latinsq.validator`` cannot
also hide itself from the benchmark.
"""


class Mismatch(Exception):
    """An output that a correct program would not produce."""


def latin_problem(rows, n):
    """None when ``rows`` is an n x n Latin square on 1..n, else the reason."""
    symbols = set(range(1, n + 1))
    if len(rows) != n:
        return f"{len(rows)} rows, expected {n}"
    for i, row in enumerate(rows, start=1):
        if len(row) != n or any(type(v) is not int for v in row):
            return f"row {i} is not {n} integers"
        if set(row) != symbols:
            return f"row {i} is not a permutation of 1..{n}"
    for j, col in enumerate(zip(*rows), start=1):
        if set(col) != symbols:
            return f"column {j} is not a permutation of 1..{n}"
    return None


def require_latin(rows, n):
    problem = latin_problem(rows, n)
    if problem is not None:
        raise Mismatch(f"not a Latin square of order {n}: {problem}")


def parse_grids(text):
    """Blank-line separated blocks of whitespace-separated integer rows."""
    grids, current = [], []
    for line in text.split("\n"):
        if line.strip():
            try:
                current.append([int(tok) for tok in line.split()])
            except ValueError:
                raise Mismatch(f"not an integer row: {line[:60]!r}") from None
        elif current:
            grids.append(current)
            current = []
    if current:
        grids.append(current)
    return grids


def render_grid(rows):
    return "".join(" ".join(str(v) for v in row) + "\n" for row in rows)


def expect(condition, what):
    if not condition:
        raise Mismatch(what)
