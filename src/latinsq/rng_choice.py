"""Seedable random source and uniform selection of one set bit."""

import random

from .errors import ChoiceImpossible, InvalidBound, _quote
from .mask_set import SubsetMask

_WORD64 = (1 << 64) - 1


class RandomSource:
    """Deterministic stream of uniform integers.

    Backed by the standard library's Mersenne Twister, so two sources
    built with the same seed yield the same draw sequence (period far
    above 2**63).  When no seed is given one is drawn from the OS
    entropy pool and kept on ``seed`` so the run can be reproduced.
    """

    def __init__(self, seed: int | None = None):
        if seed is None:
            seed = random.SystemRandom().getrandbits(64)
        if type(seed) is not int or not 0 <= seed <= _WORD64:  # a bool or float is no seed
            raise ValueError(f"seed must be an unsigned 64-bit value, got {_quote(seed)}")
        self.seed = seed
        self._rng = random.Random(seed)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free.

        Draws just enough bits to cover the range and rejects overshoot,
        so every value is exactly equally likely.  Only an int is a bound.
        """
        try:  # free unless raised, so an int bound of 2 or more pays no type test
            if bound < 2:  # one test on the hot path; bound 1 draws nothing
                if bound == 1 and type(bound) is int:
                    return 0
                raise ValueError(bound)
            width = (bound - 1).bit_length()
        except (ValueError, TypeError, AttributeError, ArithmeticError):  # below 1, or no int at all
            raise InvalidBound(f"bound must be >= 1, got {_quote(bound)}") from None
        while True:
            value = self._rng.getrandbits(width)
            if value < bound:
                return value

    def spawn(self, index: int) -> "RandomSource":
        """Independent source for task ``index``: seed + index, wrapped to 64 bits."""
        return RandomSource((self.seed + index) & _WORD64)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"


def select_bit(bits: int, src: RandomSource) -> int:
    """One set bit of the nonzero word ``bits``, drawn uniformly.

    Clears the r lowest set bits, r uniform over 0..popcount(bits)-1, and
    returns the lowest bit left as a power of two; each member therefore
    has probability 1/popcount(bits).  One ``next_below`` per call.
    ``latin_gen.generate`` inlines this rule in its cell loop; the two
    must draw alike.
    """
    for _ in range(src.next_below(bits.bit_count())):
        bits &= bits - 1
    return bits & -bits


def choice(k: SubsetMask, src: RandomSource) -> SubsetMask:
    """Pick one set bit of ``k`` uniformly, returned as a singleton mask."""
    if k.bits == 0:
        raise ChoiceImpossible("the choice is not possible: empty mask")
    return SubsetMask(select_bit(k.bits, src), k.order)
