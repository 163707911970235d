"""Exception types shared across the package, and the one rule for how an
error or verdict line quotes a value: an int in decimal, anything else by
``repr``, cut to QUOTE_BYTES."""

QUOTE_BYTES = 80  # the most UTF-8 bytes of a value that an error line quotes
_LOG10_2 = 0.30102999566398120


def _cut(text: str, limit: int = QUOTE_BYTES) -> str:
    """``text`` as stderr spells it, a lone surrogate (a byte not UTF-8) as
    ``\\udcXX``: whole in at most ``limit`` bytes, else its first
    ``limit - 3`` bytes and ``...``, less a character cut in two."""
    data = text.encode(errors="backslashreplace")
    if len(data) <= limit:
        return data.decode()
    return data[: limit - 3].decode(errors="ignore") + "..."


def _quote(value) -> str:
    """``value`` as an error or verdict line quotes it: an int in decimal,
    anything else by ``repr``, either cut as ``_cut`` cuts.  An int is
    spelled from its leading digits alone, taken by integer division by a
    power of ten, so one of any size is quoted (``str`` refuses an int of
    over 4,300 digits)."""
    if type(value) is not int:  # a bool or an int subclass is spelled by repr
        return _cut(repr(value))
    sign = "-" if value < 0 else ""
    magnitude = abs(value)
    if magnitude < 10 ** (QUOTE_BYTES - len(sign)):  # at most QUOTE_BYTES: whole
        return str(value)
    keep = QUOTE_BYTES - 3 - len(sign)  # the digits the cut keeps
    # magnitude >= 2**(bits-1) has more than (bits-1) * log10(2) digits, so
    # the division leaves at least keep digits and at most two more
    lead = magnitude // 10 ** (int((magnitude.bit_length() - 1) * _LOG10_2) - keep)
    while lead >= 10**keep:
        lead //= 10
    return f"{sign}{lead}..."


class LatinSqError(Exception):
    """Base class for every error raised by this package."""


class OrderTooLarge(LatinSqError):
    """Square order outside the range the call supports: 1..64 for
    squares and masks, less for enumeration and counting."""


class SymbolOutOfRange(LatinSqError):
    """Symbol not in 1..n for the mask it is applied to."""


class OrderMismatch(LatinSqError):
    """Masks scoped to different orders were combined."""


class NotASubset(LatinSqError):
    """remove_subset called with a mask that is not contained in the source."""


class InvalidBound(LatinSqError):
    """next_below needs a bound of at least 1."""


class ChoiceImpossible(LatinSqError):
    """choice called on an empty mask: there is no bit to pick."""


class MalformedMatrix(LatinSqError):
    """Input matrix is empty, ragged, non-square, or not integer-valued."""

