"""Exception types shared across the package."""


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

