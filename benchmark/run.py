"""latinsq benchmark: one workload per invocation, driven as a closed loop.

    python3 benchmark/run.py --workload gen-large --seed 7 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all --seed 7 --seconds 5 --trace 0

One client in one process, no threads: each request calls
``latinsq.cli.main(argv)`` in-process with stdin, stdout and stderr swapped
for in-memory buffers, and the next request starts only when the previous
one is done and its output has passed the oracle.  The package is imported
from ``src/`` of the checkout this file sits in; nothing is installed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay.  Times of calls are scaled to a reference host
pace (see pace.py).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run environment, the sample count behind each percentile and
the unscaled figures.
A run exits 0 when it completed, even with failed requests, and 2 when it
could not run.  ``--workload all`` runs every workload in its own process,
prints one table, and exits 1 if any request failed.
"""

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from layers import UNITS, timed_metrics, traced_metrics
from oracle import Mismatch
from pace import Pacer
from tracer import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_SPAWNS = 9  # fresh interpreters per setup_s reading; the median is reported
REPLAYS = 3  # requests re-run after the timed loop, which must repeat their output
SETUP_REQUEST = ["count", "--order", "1"]
P90_MIN_SAMPLES = 100  # fewer samples than this leave under ten beyond the p90
CHILD_TIMEOUT = 170


class Run:
    """Each request's first output and verdict, and every failure."""

    def __init__(self):
        self.output = {}  # request index -> hash of (exit code, stdout, stderr)
        self.squares = {}  # request index -> squares in its response, 0 if wrong
        self.attempted = 0
        self.failed = 0
        self.errors = []  # first few failure reasons

    def fail(self, reason):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)


class Pass:
    """What one pass over requests 0, 1, ... took."""

    def __init__(self):
        self.pacer = Pacer()
        self.requests = 0
        self.latencies = []  # wall seconds inside cli.main, one per completed call
        self.scaled = []  # the same, scaled to the reference pace
        self.squares = 0  # squares in responses that passed the oracle
        self.bytes_in = 0
        self.bytes_out = 0


def call_cli(argv, stdin):
    """``latinsq.cli.main(argv)`` in-process on in-memory stdio.

    Returns (exit code, stdout, stderr, seconds inside main)."""
    cli = sys.modules["latinsq.cli"]
    saved = sys.stdin, sys.stdout, sys.stderr
    source, out, err = io.StringIO(stdin), io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = source, out, err
    started = perf_counter()
    try:
        code = cli.main(argv)
    finally:
        elapsed = perf_counter() - started
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), elapsed


def drive(workload, run, seconds=None, count=None):
    """One closed-loop pass from request 0: for ``seconds`` (at least one
    request) or for exactly ``count`` requests."""
    done = Pass()
    deadline = perf_counter() + (seconds or 0)
    while done.requests < count if count is not None else (
            done.requests == 0 or perf_counter() < deadline):
        execute(workload, workload.request(done.requests), run, done)
        done.requests += 1
    return done


def execute(workload, req, run, done):
    """Run one request.  Its first execution is checked by the oracle; a
    later one must repeat that output exactly."""
    i = req.index
    run.attempted += 1
    done.bytes_in += len(req.stdin)
    try:
        code, out, err, elapsed = call_cli(req.argv, req.stdin)
    except Exception:  # the loop must go on; the traceback is the report
        run.fail(f"request {i}: {traceback.format_exc(limit=-3)}")
        return
    done.latencies.append(elapsed)
    done.scaled.append(done.pacer.scale(elapsed))
    done.bytes_out += len(out) + len(err)
    output = hash((code, out, err))
    if i not in run.output:
        run.output[i] = output
        try:
            run.squares[i] = workload.check(req, code, out, err)
        except Mismatch as exc:
            run.squares[i] = 0
            run.fail(f"request {i}: {exc}")
    elif output != run.output[i]:
        run.fail(f"request {i}: output differs from its first execution")
        return
    elif not run.squares[i]:
        run.fail(f"request {i}: the same wrong output again")
    done.squares += run.squares[i]


def replay(workload, run, seed):
    """Re-run a few sampled requests, then the workload's own crosscheck."""
    done = sorted(run.output)
    for i in random.Random(seed).sample(done, min(REPLAYS, len(done))):
        execute(workload, workload.request(i), run, Pass())

    def call(argv, stdin):
        return call_cli(argv, stdin)[:3]

    try:
        workload.crosscheck(workload.request(done[-1]), call)
    except Mismatch as exc:
        run.fail(f"crosscheck of request {done[-1]}: {exc}")


def setup_seconds(run):
    """Median time, scaled and unscaled, for a fresh interpreter to import
    the CLI and answer one trivial request.  An untimed spawn first writes
    the bytecode cache."""
    code = "import sys\nfrom latinsq.cli import main\nsys.exit(main(%r))" % SETUP_REQUEST
    env = dict(os.environ, PYTHONPATH=SRC)
    pacer = Pacer()
    scaled, raw = [], []
    for spawn in range(SETUP_SPAWNS + 1):
        started = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
        elapsed = perf_counter() - started
        paced = pacer.scale(elapsed)
        if (proc.returncode, proc.stdout) != (0, "1\n"):
            run.attempted += 1
            run.fail(f"setup spawn: exit {proc.returncode}, stderr {proc.stderr[-200:]!r}")
        elif spawn:
            scaled.append(paced)
            raw.append(elapsed)
    if not raw:
        return 0.0, 0.0
    return statistics.median(scaled), statistics.median(raw)


def summary(seconds, squares):
    """squares_per_s and request latency percentiles of per-request seconds."""
    ms = sorted(t * 1e3 for t in seconds) or [0.0]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return {
        "squares_per_s": squares / (sum(ms) / 1e3 or 1),
        "latency_ms_p50": statistics.median(ms),
        "latency_ms_p90": p90,
    }


def end_to_end(workload, seed, seconds):
    run = Run()
    setup, setup_raw = setup_seconds(run)
    drive(workload, run, count=1)  # warm-up; the timed pass repeats it
    timed = drive(workload, run, seconds=seconds)
    replay(workload, run, seed)
    values = summary(timed.scaled, timed.squares)
    metrics = {
        "setup_s": (setup, "s"),
        "squares_per_s": (values["squares_per_s"], "1/s"),
        "latency_ms_p50": (values["latency_ms_p50"], "ms"),
        "latency_ms_p90": (values["latency_ms_p90"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n = len(timed.scaled)
    samples = {"setup_s": SETUP_SPAWNS, "latency_ms_p50": n, "latency_ms_p90": n,
               "latency_ms_p90_has_10_beyond": n >= P90_MIN_SAMPLES}
    unscaled = dict(summary(timed.latencies, timed.squares), setup_s=setup_raw,
                    host_slowdown=timed.pacer.slowdown())
    return run, metrics, samples, unscaled


def per_layer(workload, seed, seconds):
    """Untraced requests for half the time, then the same requests traced."""
    run = Run()
    drive(workload, run, count=1)  # warm-up
    untraced = drive(workload, run, seconds=seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = drive(workload, run, count=untraced.requests)
    finally:
        tracer.uninstall()
    values = traced_metrics(tracer, traced, untraced)
    values.update(timed_metrics(workload, seed))
    metrics = {name: (values[name], unit) for name, unit in UNITS.items()}
    samples = {"traced_requests": traced.requests, "spans": len(tracer.spans)}
    return run, metrics, samples, {"host_slowdown": traced.pacer.slowdown()}


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args):
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        run, metrics, samples, unscaled = per_layer(workload, args.seed, args.seconds)
    else:
        run, metrics, samples, unscaled = end_to_end(workload, args.seed, args.seconds)
    info = environment(args)
    info.update(requests=run.attempted, failed_frac=run.failed / run.attempted,
                samples=samples, unscaled=unscaled, errors=run.errors)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; one table of their metrics."""
    rows, status = [], 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((name, "requests", info["requests"], "count"))
        rows.append((name, "failed_frac", info["failed_frac"], "ratio"))
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        for metric, n in info["samples"].items():
            rows.append((name, f"samples.{metric}", n, "count"))
        for metric, value in info["unscaled"].items():
            unit = result["metrics"].get(metric, {"unit": "x"})["unit"]
            rows.append((name, f"unscaled.{metric}", value, unit))
        for error in info["errors"]:
            print(f"{name}: {error}", file=sys.stderr)
    env = environment(args)
    print(f"python {env['python']}, nproc {env['nproc']}, seed {args.seed}, "
          f"{args.seconds} s per workload, trace {args.trace}")
    for name, metric, value, unit in rows:
        print(f"{name:10} {metric:44} {value:>16.6g} {unit}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "latinsq", "cli.py")):
        print(f"error: no latinsq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import latinsq.cli

    if not os.path.abspath(latinsq.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported {latinsq.cli.__file__}, not the checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
