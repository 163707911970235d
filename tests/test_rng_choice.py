"""Seedable source determinism, bounded-draw uniformity, set-bit choice."""

import copy
import pickle
import random
import re
from collections import Counter
from decimal import Decimal

import pytest
from scipy import stats

from latinsq.errors import ChoiceImpossible, InvalidBound
from latinsq.mask_set import SubsetMask
from latinsq.rng_choice import RandomSource, choice, select_bit

CHI2_ALPHA = 1e-3


def test_same_seed_same_stream():
    a = RandomSource(1234)
    b = RandomSource(1234)
    assert [a.next_below(100) for _ in range(1000)] == [b.next_below(100) for _ in range(1000)]


def test_different_seeds_diverge():
    a = [RandomSource(1).next_below(1 << 32) for _ in range(4)]
    b = [RandomSource(2).next_below(1 << 32) for _ in range(4)]
    assert a != b


def test_next_below_invalid_bound():
    src = RandomSource(0)
    with pytest.raises(InvalidBound):
        src.next_below(0)
    with pytest.raises(InvalidBound):
        src.next_below(-3)


@pytest.mark.parametrize(
    "bound, quoted",
    [
        (True, "True"),
        (False, "False"),
        (2.5, "2.5"),
        (1.0, "1.0"),
        (8.0, "8.0"),
        ("3", "'3'"),
        (None, "None"),
        (Decimal("NaN"), "Decimal('NaN')"),  # its order against 2 raises InvalidOperation
    ],
    ids=["true", "false", "float", "float-one", "float-whole", "str", "none", "decimal-nan"],
)
def test_next_below_refuses_a_bound_that_is_not_an_int(bound, quoted):
    # refused as a seed is: a bool, float, str, None or Decimal is no bound
    with pytest.raises(InvalidBound, match=rf"^bound must be >= 1, got {re.escape(quoted)}$"):
        RandomSource(0).next_below(bound)


def test_next_below_one_is_zero():
    src = RandomSource(99)
    assert all(src.next_below(1) == 0 for _ in range(100))


def test_next_below_range_and_uniformity():
    src = RandomSource(2024)
    draws = [src.next_below(6) for _ in range(10_000)]
    assert all(0 <= d < 6 for d in draws)
    counts = Counter(draws)
    assert set(counts) == set(range(6))  # every value appears
    _, p = stats.chisquare(list(counts.values()))
    assert p > CHI2_ALPHA


def test_seed_recorded_and_validated():
    assert RandomSource(42).seed == 42
    assert repr(RandomSource(42)) == "RandomSource(seed=42)"
    auto = RandomSource()
    assert 0 <= auto.seed < (1 << 64)
    assert RandomSource().seed != auto.seed  # fresh entropy each time
    with pytest.raises(ValueError):
        RandomSource(-1)
    with pytest.raises(ValueError):
        RandomSource(1 << 64)


@pytest.mark.parametrize("seed", [2.5, True, "7"], ids=["float", "bool", "str"])
def test_seed_must_be_a_plain_int(seed):
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit value"):
        RandomSource(seed)


def test_spawn_derives_seed_plus_index():
    base = RandomSource(100)
    assert base.spawn(0).seed == 100
    assert base.spawn(7).seed == 107
    wrap = RandomSource((1 << 64) - 1)
    assert wrap.spawn(1).seed == 0


@pytest.mark.parametrize(
    "duplicate", [copy.deepcopy, lambda src: pickle.loads(pickle.dumps(src))], ids=["deepcopy", "pickle"]
)
def test_copy_continues_the_stream_without_advancing_the_original(duplicate):
    src, twin = RandomSource(77), RandomSource(77)
    for s in (src, twin):
        s.next_below(1000)  # copy mid-stream, not at the seed
    dup = duplicate(src)
    ahead = [dup.next_below(1000) for _ in range(200)]
    assert dup.seed == src.seed
    assert ahead == [twin.next_below(1000) for _ in range(200)]
    # a copy sharing the original's generator would have moved it past these
    assert [src.next_below(1000) for _ in range(200)] == ahead


def probe_walk(bits, src):
    """The rank rule spelled out: walk a probe bit upward from bit 0 and
    stop at the r-th set bit, r uniform over 1..popcount."""
    rank = src.next_below(bits.bit_count()) + 1
    probe, seen = 1, 0
    while True:
        if bits & probe:
            seen += 1
            if seen == rank:
                return probe
        probe <<= 1


def test_select_bit_follows_the_rank_rule():
    # same draws, same picks: seeds keep reproducing the same squares
    rng = random.Random(3)
    masks = [rng.randint(1, (1 << 64) - 1) for _ in range(5_000)]
    a, b = RandomSource(8), RandomSource(8)
    assert [select_bit(m, a) for m in masks] == [probe_walk(m, b) for m in masks]


def test_choice_empty_mask():
    with pytest.raises(ChoiceImpossible):
        choice(SubsetMask(0, 4), RandomSource(0))


def test_choice_singleton_submask_fuzz():
    # 10**5 draws over random nonempty masks at orders up to 12
    rng = random.Random(0)
    src = RandomSource(31337)
    for _ in range(100_000):
        n = rng.randint(1, 12)
        bits = rng.randint(1, (1 << n) - 1)
        got = choice(SubsetMask(bits, n), src)
        assert got.bits.bit_count() == 1
        assert got.bits & bits == got.bits
