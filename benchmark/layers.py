"""Per-layer metrics: aggregates of a traced run's spans and counts, plus
timed loops of the per-draw calls and the paper's bool-array comparison.

Where each metric should move an end-to-end metric is listed in README.md.
"""

import random
import statistics
from collections import defaultdict
from time import perf_counter

from paper import bool_array_over_bitmask
from tracer import self_seconds
from workloads import GenLarge

# name: unit, in the order BENCHMARK.json lists them
UNITS = {
    "latin_gen.row_restarts": "count",
    "latin_gen.draws_kept": "ratio",
    "rng_choice.draws": "count",
    "latin_gen.generate_self_ms": "ms",
    "rng_choice.next_below_ns": "ns",
    "rng_choice.choice_ns": "ns",
    "latin_gen.square_checks": "count",
    "latin_gen.to_standard_ms": "ms",
    "latin_gen.to_exponential_ms": "ms",
    "validator.is_latin_us": "us",
    "validator.is_exponential_latin_us": "us",
    "validator.ns_per_cell": "ns",
    "cli.self_ms": "ms",
    "cli.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
    "oracle_enum.count_ms": "ms",
    "mask_set.check_order_calls": "count",
    "trace.overhead_frac": "ratio",
    "paper.bool_array_over_bitmask_x": "x",
}

MIX_SQUARES = 2  # gen-large squares whose draws make the timed next_below/choice mix
PAPER_SQUARES = 8  # gen-large seeds the bool-array comparison generates
CHOICE_MASKS = 20_000
REPEATS = 5  # timed loops report the median of this many passes


def traced_metrics(tracer, traced, untraced):
    """Aggregate the spans and counts of ``traced``, a pass over the same
    requests as the untraced pass ``untraced`` (both ``run.Pass``)."""
    by = defaultdict(list)
    for span in tracer.spans:
        by[span.label].append(span)
    own = self_seconds(tracer.spans)
    generated = by["latin_gen.generate"]
    cells = sum(span.size[0] for span in generated if span.size)
    restarts = sum(span.size[1] for span in generated if span.size)
    draws = tracer.counts["rng_choice.RandomSource.next_below"]
    checks = by["validator.is_latin"] + by["validator.is_exponential_latin"]
    outer = [s for s in checks if s.parent is None or not s.parent.label.startswith("validator.")]
    requests = len(traced.latencies) or 1
    return {
        "latin_gen.row_restarts": _per(restarts, len(generated)),
        "latin_gen.draws_kept": _per(cells, draws),
        "rng_choice.draws": _per(draws, len(generated)),
        "latin_gen.generate_self_ms": _per(sum(own[id(s)] for s in generated), len(generated)) * 1e3,
        "latin_gen.square_checks": _per(len(checks), traced.squares),
        "latin_gen.to_standard_ms": _mean_seconds(by["latin_gen.to_standard"]) * 1e3,
        "validator.is_latin_us": _mean_seconds(by["validator.is_latin"]) * 1e6,
        "validator.is_exponential_latin_us": _mean_seconds(by["validator.is_exponential_latin"]) * 1e6,
        "validator.ns_per_cell": _per(sum(s.seconds for s in outer if s.size),
                                      sum(s.size for s in outer if s.size)) * 1e9,
        "cli.self_ms": _per(sum(own[id(s)] for s in by["cli.main"]), requests) * 1e3,
        "cli.bytes_in": traced.bytes_in / requests,
        "cli.bytes_out": traced.bytes_out / requests,
        "oracle_enum.count_ms": _mean_seconds(by["oracle_enum.count_all"]) * 1e3,
        "mask_set.check_order_calls": tracer.counts["mask_set.check_order"] / requests,
        "trace.overhead_frac": sum(traced.scaled) / sum(untraced.scaled) - 1,
    }


def timed_metrics(workload, seed):
    """Loops over the public per-draw and conversion calls, on inputs recorded
    from gen-large (and the workload's own squares for to_exponential), and
    the paper's comparison on gen-large's first request seeds."""
    from latinsq import latin_gen, mask_set, rng_choice

    seeds = [GenLarge(seed).request(i).case for i in range(PAPER_SQUARES)]
    bounds = []

    class Recording(rng_choice.RandomSource):
        def next_below(self, bound):
            bounds.append(bound)
            return super().next_below(bound)

    for s in seeds[:MIX_SQUARES]:
        latin_gen.generate(GenLarge.ORDER, Recording(s))

    draw = rng_choice.RandomSource(seed).next_below

    def draws():
        for bound in bounds:
            draw(bound)

    metrics = {"rng_choice.next_below_ns": _timed(draws) / len(bounds) * 1e9}

    # Planned refactors may remove these; the metric then reads 0.
    pick = getattr(rng_choice, "choice", None)
    convert = getattr(latin_gen, "to_exponential", None)
    metrics["rng_choice.choice_ns"] = 0.0
    if pick is not None and hasattr(mask_set, "SubsetMask"):
        rng = random.Random(seed)
        n = GenLarge.ORDER
        masks = [mask_set.SubsetMask(sum(1 << b for b in rng.sample(range(n), k)), n)
                 for k in bounds[:CHOICE_MASKS]]
        src = rng_choice.RandomSource(seed)

        def picks():
            for mask in masks:
                pick(mask, src)

        metrics["rng_choice.choice_ns"] = _timed(picks) / len(masks) * 1e9

    metrics["latin_gen.to_exponential_ms"] = 0.0
    if convert is not None and hasattr(latin_gen, "LatinSquare") and workload.samples:
        squares = [latin_gen.LatinSquare.from_rows(rows) for rows in workload.samples]

        def conversions():
            for square in squares:
                convert(square)

        metrics["latin_gen.to_exponential_ms"] = _timed(conversions) / len(squares) * 1e3

    metrics["paper.bool_array_over_bitmask_x"] = bool_array_over_bitmask(GenLarge.ORDER, seeds)
    return metrics


def _timed(loop):
    passes = []
    for _ in range(REPEATS):
        started = perf_counter()
        loop()
        passes.append(perf_counter() - started)
    return statistics.median(passes)


def _per(total, count):
    return total / count if count else 0.0


def _mean_seconds(spans):
    return _per(sum(s.seconds for s in spans), len(spans))
