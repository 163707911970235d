"""Exception types shared across the package."""


class LatinSqError(Exception):
    """Base class for every error raised by this package."""


class OrderTooLarge(LatinSqError):
    """Square order outside the supported range 1..64."""


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


class OrderTooLargeForEnumeration(LatinSqError):
    """Brute-force enumeration and counting are capped at small orders."""


class MalformedMatrix(LatinSqError):
    """Input matrix is empty, ragged, non-square, or not integer-valued."""

