"""Packed-set codec and bit algebra, checked against naive oracles."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from latinsq.errors import NotASubset, OrderMismatch, OrderTooLarge, SymbolOutOfRange
from latinsq.latin_gen import generate
from latinsq.mask_set import (
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
from latinsq.oracle_enum import count_all
from latinsq.rng_choice import RandomSource

# ---------------------------------------------------------------- oracles


def mask_of(members) -> int:
    """Encode oracle: plain power sum over the distinct members."""
    return sum(2 ** (i - 1) for i in set(members))


def naive_popcount(bits: int) -> int:
    """Per-bit counting loop."""
    count = 0
    for i in range(bits.bit_length()):
        if bits & (1 << i):
            count += 1
    return count


def naive_binary(x: int) -> str:
    """Repeated division by two, digits emitted in reverse."""
    x = abs(x)
    if x == 0:
        return "0"
    digits = []
    while x:
        digits.append(str(x % 2))
        x //= 2
    return "".join(reversed(digits))


# ---------------------------------------------------------------- strategies


@st.composite
def masks(draw, max_order=16):
    n = draw(st.integers(min_value=1, max_value=max_order))
    bits = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return SubsetMask(bits, n)


@st.composite
def mask_pairs(draw, max_order=10):
    n = draw(st.integers(min_value=1, max_value=max_order))
    top = (1 << n) - 1
    a = draw(st.integers(min_value=0, max_value=top))
    b = draw(st.integers(min_value=0, max_value=top))
    return SubsetMask(a, n), SubsetMask(b, n)


# ---------------------------------------------------------------- universe


@pytest.mark.parametrize("n, bits", [(1, 1), (12, 4095), (64, (1 << 64) - 1)])
def test_universe_examples(n, bits):
    assert universe(n) == SubsetMask(bits, n)


@pytest.mark.parametrize("n", [0, -1, 65, 1000])
def test_universe_rejects_bad_order(n):
    with pytest.raises(OrderTooLarge):
        universe(n)


# ---------------------------------------------------------------- singleton


def test_singleton_out_of_range():
    with pytest.raises(SymbolOutOfRange):
        singleton(13, 12)
    with pytest.raises(SymbolOutOfRange):
        singleton(0, 12)


@pytest.mark.parametrize("n", range(1, 65))
def test_singleton_membership_all_orders(n):
    for a in range(1, n + 1):
        m = singleton(a, n)
        assert m == SubsetMask(1 << (a - 1), n)
        assert popcount(m) == 1
        assert contains(m, a)


# ---------------------------------------------------------------- encode/decode


def test_encode_ignores_duplicates():
    assert encode([2, 2, 5, 5, 5], 8) == encode({2, 5}, 8)


def test_encode_out_of_range():
    with pytest.raises(SymbolOutOfRange):
        encode([1, 13], 12)


@given(st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(min_value=1, max_value=n)))
))
@example((12, set()))
@example((12, set(range(1, 13))))
def test_encode_matches_power_sum_oracle(n_and_members):
    n, members = n_and_members
    assert encode(members, n).bits == mask_of(members)


@given(masks())
def test_decode_sorted_ascending(m):
    members = decode(m)
    assert members == sorted(members)


def test_roundtrip_exhaustive_up_to_order16():
    for n in range(1, 17):
        for bits in range(1 << n):
            m = SubsetMask(bits, n)
            assert encode(decode(m), n) == m


# ---------------------------------------------------------------- contains


def test_contains_examples():
    m = SubsetMask(13, 12)
    assert contains(m, 1) and contains(m, 3) and contains(m, 4)
    assert not contains(m, 2)
    empty = SubsetMask(0, 5)
    assert not any(contains(empty, i) for i in range(1, 6))
    assert all(contains(universe(6), i) for i in range(1, 7))


def test_contains_out_of_range():
    with pytest.raises(SymbolOutOfRange):
        contains(SubsetMask(13, 12), 13)
    with pytest.raises(SymbolOutOfRange):
        contains(SubsetMask(13, 12), 0)


@pytest.mark.parametrize("n", range(1, 17))
def test_popcount_equals_membership_sum_exhaustive(n):
    for bits in range(1 << n):
        m = SubsetMask(bits, n)
        assert popcount(m) == sum(contains(m, i) for i in range(1, n + 1))


# ---------------------------------------------------------------- popcount


@given(masks(max_order=64))
def test_popcount_matches_oracle(m):
    assert popcount(m) == naive_popcount(m.bits)


# ---------------------------------------------------------------- binary string


@given(st.integers(min_value=-(10**30), max_value=10**30))
@example(0)
@example(-5)
@example(255)
def test_to_binary_string_matches_oracle(x):
    assert to_binary_string(x) == naive_binary(x)
    assert to_binary_string(x) == to_binary_string(-x)


# ---------------------------------------------------------------- union


def test_union_order_mismatch():
    with pytest.raises(OrderMismatch):
        union(SubsetMask(1, 3), SubsetMask(1, 4))


@given(mask_pairs())
def test_union_matches_set_oracle(pair):
    a, b = pair
    assert decode(union(a, b)) == sorted(set(decode(a)) | set(decode(b)))


# ---------------------------------------------------------------- remove_subset


def test_remove_subset_rejects_non_subset():
    with pytest.raises(NotASubset):
        remove_subset(encode({1, 3}, 8), encode({2}, 8))


def test_remove_subset_order_mismatch():
    with pytest.raises(OrderMismatch):
        remove_subset(SubsetMask(3, 3), SubsetMask(1, 4))


@given(mask_pairs())
def test_remove_subset_matches_set_oracle(pair):
    whole, other = pair
    part = SubsetMask(whole.bits & other.bits, whole.order)  # forced submask
    got = remove_subset(whole, part)
    assert decode(got) == sorted(set(decode(whole)) - set(decode(part)))


# ---------------------------------------------------------------- complement


@given(masks())
def test_complement_is_involution(m):
    assert complement_in_universe(complement_in_universe(m)) == m


@given(masks())
def test_complement_matches_set_oracle(m):
    full = set(range(1, m.order + 1))
    assert decode(complement_in_universe(m)) == sorted(full - set(decode(m)))


# ---------------------------------------------------------------- mask invariants


def test_mask_rejects_bits_out_of_range():
    with pytest.raises(ValueError):
        SubsetMask(8, 3)
    with pytest.raises(ValueError):
        SubsetMask(-1, 3)
    for bits in (2.5, 3.0, True, False, "3", None):  # only a plain int is a mask
        with pytest.raises(ValueError):
            SubsetMask(bits, 3)


@pytest.mark.parametrize("symbol", [1.5, 2.0, True, "1", None])
@pytest.mark.parametrize("call", [
    lambda a: singleton(a, 3),
    lambda a: encode([1, a], 3),
    lambda a: contains(universe(3), a),
], ids=["singleton", "encode", "contains"])
def test_non_integer_symbols_rejected(call, symbol):
    with pytest.raises(SymbolOutOfRange):
        call(symbol)


def test_mask_rejects_bad_order():
    with pytest.raises(OrderTooLarge):
        SubsetMask(0, 0)
    with pytest.raises(OrderTooLarge):
        SubsetMask(0, 65)


@pytest.mark.parametrize("order", [3.5, 2.5, 3.0, True, False, "3", None])
@pytest.mark.parametrize("call", [
    check_order,
    lambda order: generate(order, RandomSource(0)),
    count_all,
    universe,
], ids=["check_order", "generate", "count_all", "universe"])
def test_non_integer_orders_rejected(call, order):
    with pytest.raises(OrderTooLarge):
        call(order)
