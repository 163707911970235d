"""Latin squares on packed-integer subset masks.

Subsets of {1, ..., n} live in single unsigned words, which turns the
row/column bookkeeping of Latin square generation, validation and
counting into a handful of bit operations per cell.
"""

from .errors import (
    ChoiceImpossible,
    InvalidBound,
    LatinSqError,
    MalformedMatrix,
    NotASubset,
    OrderMismatch,
    OrderTooLarge,
    SymbolOutOfRange,
)
from .latin_gen import GenerationReport, generate
from .mask_set import (
    MAX_ORDER,
    SubsetMask,
    check_order,
    complement_in_universe,
    contains,
    decode,
    encode,
    popcount,
    remove_subset,
    singleton,
    to_binary_string,
    union,
    universe,
)
from .oracle_enum import count_all, enumerate_all
from .rng_choice import RandomSource, choice
from .validator import LatinSquare, ValidationResult, is_exponential_latin, is_latin

__version__ = "0.7.0"

__all__ = [
    "ChoiceImpossible",
    "GenerationReport",
    "InvalidBound",
    "LatinSqError",
    "LatinSquare",
    "MAX_ORDER",
    "MalformedMatrix",
    "NotASubset",
    "OrderMismatch",
    "OrderTooLarge",
    "RandomSource",
    "SubsetMask",
    "SymbolOutOfRange",
    "ValidationResult",
    "check_order",
    "choice",
    "complement_in_universe",
    "contains",
    "count_all",
    "decode",
    "encode",
    "enumerate_all",
    "generate",
    "is_exponential_latin",
    "is_latin",
    "popcount",
    "remove_subset",
    "singleton",
    "to_binary_string",
    "union",
    "universe",
]
