"""Subsets of {1, ..., n} packed into a single unsigned word.

A set A of symbols from {1, ..., n} is stored as the integer whose bit
i-1 is set exactly when symbol i is a member, so the empty set is 0, a
singleton {a} is 2**(a-1), and the full set is 2**n - 1.  Set algebra
then collapses to word-level bit operations: union is ``|``, removing a
contained subset is ``^``, and complement is ``^`` against the all-ones
mask.  Bit numbering runs right to left with the rightmost bit as bit 0.

Orders run up to ``MAX_ORDER`` = 64 so every mask fits one machine word.
A mask is an immutable named tuple ``SubsetMask(bits, order)`` that checks
both fields however it is built, ``_replace`` included.
"""

from collections import namedtuple
from typing import Iterable

from .errors import NotASubset, OrderMismatch, OrderTooLarge, SymbolOutOfRange, _quote

MAX_ORDER = 64


def check_order(n: int, top: int = MAX_ORDER) -> int:
    """Validate a square order against the range 1..top that a call
    supports, returning it unchanged."""
    if type(n) is not int or not 1 <= n <= top:  # a bool or float is no order
        raise OrderTooLarge(f"order must be in 1..{top}, got {_quote(n)}")
    return n


def _check_symbol(a: int, n: int) -> int:
    if type(a) is not int or not 1 <= a <= n:  # a bool or float is no symbol
        raise SymbolOutOfRange(f"symbol {_quote(a)} outside 1..{n}")
    return a


class SubsetMask(namedtuple("SubsetMask", "bits order")):
    """A subset of {1, ..., order} packed into one unsigned word."""

    __slots__ = ()

    def __new__(cls, bits: int, order: int):
        check_order(order)
        if type(bits) is not int or not 0 <= bits < (1 << order):  # a bool or float is no mask
            raise ValueError(f"bits must be in 0..2**{order}-1, got {_quote(bits)}")
        return super().__new__(cls, bits, order)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


def universe(n: int) -> SubsetMask:
    """The full set {1, ..., n}: the all-ones mask of width n."""
    check_order(n)
    return SubsetMask((1 << n) - 1, n)


def singleton(a: int, n: int) -> SubsetMask:
    """The one-element set {a}, encoded as 2**(a-1)."""
    check_order(n)
    _check_symbol(a, n)
    return SubsetMask(1 << (a - 1), n)


def encode(elements: Iterable[int], n: int) -> SubsetMask:
    """Pack a collection of symbols into a mask; duplicates collapse."""
    check_order(n)
    bits = 0
    for a in elements:
        _check_symbol(a, n)
        bits |= 1 << (a - 1)
    return SubsetMask(bits, n)


def decode(m: SubsetMask) -> list[int]:
    """The members of a mask, ascending."""
    out = []
    bits = m.bits
    while bits:
        low = bits & -bits
        out.append(low.bit_length())  # 2**(a-1) has bit_length a
        bits ^= low
    return out


def contains(m: SubsetMask, i: int) -> bool:
    """Whether symbol i is a member of the mask."""
    _check_symbol(i, m.order)
    return bool(m.bits >> (i - 1) & 1)


def popcount(m: SubsetMask) -> int:
    """Number of set bits; the cardinality of the represented set."""
    return m.bits.bit_count()


def to_binary_string(x: int) -> str:
    """Minimal-width binary rendering of ``abs(x)``; the sign is dropped."""
    return format(abs(x), "b")


def union(a: SubsetMask, b: SubsetMask) -> SubsetMask:
    """Set union via bitwise OR; both masks must share an order."""
    _check_same_order(a, b)
    return SubsetMask(a.bits | b.bits, a.order)


def remove_subset(whole: SubsetMask, part: SubsetMask) -> SubsetMask:
    """Remove every element of ``part`` from ``whole`` via bitwise XOR.

    ``part`` must be contained in ``whole``; on a contained subset, XOR
    and set difference coincide.
    """
    _check_same_order(whole, part)
    if part.bits & ~whole.bits:
        raise NotASubset(
            f"0x{part.bits:x} is not a subset of 0x{whole.bits:x}"
        )
    return SubsetMask(whole.bits ^ part.bits, whole.order)


def complement_in_universe(m: SubsetMask) -> SubsetMask:
    """Everything in {1, ..., order} that the mask lacks."""
    return SubsetMask(m.bits ^ ((1 << m.order) - 1), m.order)


def _check_same_order(a: SubsetMask, b: SubsetMask) -> None:
    if a.order != b.order:
        raise OrderMismatch(f"mask orders differ: {a.order} vs {b.order}")
