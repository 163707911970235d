"""Acceptance suite: the eight release criteria, one test each.

Each test prints a ``[PASS] criterion N`` line on success (visible with
``pytest -s``); a failing criterion shows up as an ordinary pytest
failure.  Run standalone via ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from collections import Counter

import pytest
from scipy import stats

from latinsq.latin_gen import generate
from latinsq.mask_set import (
    SubsetMask,
    complement_in_universe,
    decode,
    encode,
    remove_subset,
    union,
)
from latinsq.oracle_enum import count_all, enumerate_all
from latinsq.rng_choice import RandomSource, choice
from latinsq.validator import is_exponential_latin, is_latin

from cli_cases import in_process

SWEEP_ORDERS = range(1, 13)
SWEEP_SEEDS = range(100)


@pytest.fixture(scope="module")
def generation_sweep():
    """Orders 1..12 x 100 fixed seeds: reports plus validator verdicts."""
    started = time.perf_counter()
    reports = {}
    all_valid = True
    for n in SWEEP_ORDERS:
        for seed in SWEEP_SEEDS:
            report = generate(n, RandomSource(seed))
            reports[(n, seed)] = report
            ok = bool(is_exponential_latin(report.square.exponential)) and bool(
                is_latin(report.square.cells)
            )
            all_valid = all_valid and ok
    elapsed = time.perf_counter() - started
    return reports, all_valid, elapsed


def test_criterion_1_reference_square_validates(order12_exp):
    is_exponential_latin([[1, 2], [2, 1]])  # warm-up, outside the timed window
    started = time.perf_counter()
    exp_verdict = is_exponential_latin(order12_exp)
    std_verdict = is_latin([[v.bit_length() for v in row] for row in order12_exp])
    elapsed = time.perf_counter() - started
    assert exp_verdict.ok
    assert std_verdict.ok
    assert elapsed < 1e-3
    print(f"[PASS] criterion 1: reference order-12 square validates in {elapsed * 1e6:.0f} us")


def test_criterion_2_generation_soundness(generation_sweep):
    reports, all_valid, elapsed = generation_sweep
    assert len(reports) == len(SWEEP_ORDERS) * len(SWEEP_SEEDS)
    assert all_valid
    assert elapsed < 10.0
    print(
        f"[PASS] criterion 2: {len(reports)} squares (orders 1..12 x 100 seeds) "
        f"all valid in {elapsed:.2f} s"
    )


def test_criterion_3_cli_determinism():
    pairs = [(n, 1000 + 7 * n) for n in SWEEP_ORDERS] + [
        (3, 1),
        (5, 2),
        (8, 3),
        (12, 4),
        (12, 5),
        (10, 6),
        (6, 7),
        (4, 8),
    ]
    assert len(pairs) == 20
    formats = ("grid", "exp", "json")
    for idx, (order, seed) in enumerate(pairs):
        argv = ["generate", "--order", str(order), "--seed", str(seed), "--format", formats[idx % 3]]
        first = in_process(argv)
        assert first[0] == 0
        assert in_process(argv) == first
    print("[PASS] criterion 3: 20 (order, seed) pairs re-run byte-identical")


def test_criterion_4_oracle_counts():
    expected = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}
    for n in range(1, 5):
        assert count_all(n) == expected[n]
    started = time.perf_counter()
    assert count_all(5) == expected[5]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"[PASS] criterion 4: counts 1,2,12,576,161280 exact; order 5 in {elapsed:.2f} s")


def test_criterion_5_reachability_order3():
    started = time.perf_counter()
    produced = set()
    for seed in range(10_000):
        produced.add(generate(3, RandomSource(seed)).square.cells)
    elapsed = time.perf_counter() - started
    expected = {square.cells for square in enumerate_all(3)}
    assert produced == expected
    assert len(expected) == 12
    assert elapsed < 5.0
    print(f"[PASS] criterion 5: 10^4 seeds reach all 12 order-3 squares in {elapsed:.2f} s")


def test_criterion_6_choice_uniformity():
    src = RandomSource(20240601)
    k = SubsetMask(0b1111, 4)
    counts = Counter(choice(k, src).bits for _ in range(100_000))
    assert set(counts) == {1, 2, 4, 8}
    _, p = stats.chisquare(list(counts.values()))
    assert p > 1e-3
    print(f"[PASS] criterion 6: 10^5 draws over a 4-bit mask, chi-square p = {p:.4f}")


def test_criterion_7_codec_exhaustiveness():
    # CPU time of this process: a loaded host does not stretch it
    started = time.process_time()
    n = 16
    for bits in range(1 << n):
        mask = SubsetMask(bits, n)
        assert encode(decode(mask), n) == mask
    rng = random.Random(0xBEEF)
    for _ in range(10_000):
        order = rng.randint(1, 10)
        a = {s for s in range(1, order + 1) if rng.random() < 0.5}
        b = {s for s in range(1, order + 1) if rng.random() < 0.5}
        ea, eb = encode(a, order), encode(b, order)
        assert union(ea, eb) == encode(a | b, order)
        assert remove_subset(ea, encode(a & b, order)) == encode(a - b, order)
        assert complement_in_universe(ea) == encode(set(range(1, order + 1)) - a, order)
    elapsed = time.process_time() - started
    assert elapsed < 1.0
    print(
        f"[PASS] criterion 7: 2^16 roundtrips and 10^4 homomorphism pairs in {elapsed:.2f} s"
    )


def test_criterion_8_order64_completes():
    slowest = 0.0
    for seed in range(20):
        started = time.perf_counter()
        report = generate(64, RandomSource(seed))
        elapsed = time.perf_counter() - started
        assert is_latin(report.square.cells)
        assert elapsed < 1.0
        slowest = max(slowest, elapsed)
    print(f"[PASS] criterion 8: 20 order-64 squares all valid, slowest in {slowest:.2f} s")
