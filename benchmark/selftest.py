"""Self-tests of the benchmark: every workload passes its oracle at a tiny
size, and wrong outputs are counted as failures rather than passed.

    python3 benchmark/selftest.py
"""

import contextlib
import io
import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

sys.path.insert(0, run.SRC)
import latinsq.cli  # noqa: E402
import latinsq.validator  # noqa: E402
from layers import UNITS, timed_metrics, traced_metrics  # noqa: E402
from oracle import latin_problem  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Count, GenBatch, GenLarge, Ingest  # noqa: E402


@contextlib.contextmanager
def standing_in(main):
    """Let ``main`` stand in for latinsq.cli.main."""
    real = latinsq.cli.main
    latinsq.cli.main = main
    try:
        yield
    finally:
        latinsq.cli.main = real


def drive_with(workload, main, count, replays=False):
    """Drive ``count`` requests with ``main`` as the CLI; then, if asked,
    re-run sampled ones and the workload's crosscheck."""
    done = run.Run()
    with standing_in(main):
        run.drive(workload, done, count=count)
        if replays:
            run.replay(workload, done, seed=0)
    return done


def rewrite_output(edit):
    """A main that runs the real CLI and passes its stdout through ``edit``."""
    real = latinsq.cli.main

    def main(argv):
        saved, sys.stdout = sys.stdout, io.StringIO()
        try:
            code = real(argv)
            text = sys.stdout.getvalue()
        finally:
            sys.stdout = saved
        sys.stdout.write(edit(text))
        return code

    return main


class Oracle(unittest.TestCase):
    def test_rejects_what_latinsq_must_not_accept(self):
        self.assertIsNone(latin_problem([[1, 2], [2, 1]], 2))
        self.assertIsNotNone(latin_problem([[True]], 1))  # booleans are not symbols
        self.assertIsNotNone(latin_problem([[1, 2], [1, 2]], 2))  # columns repeat
        self.assertIsNotNone(latin_problem([[1, 1], [2, 2]], 2))  # rows repeat
        self.assertIsNotNone(latin_problem([[1, 2]], 2))


class TinyWorkloads(unittest.TestCase):
    def test_each_workload_passes_its_oracle(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(name):
                done = drive_with(cls(3), latinsq.cli.main, count=2, replays=True)
                self.assertEqual((done.attempted, done.failed), (4, 0), done.errors)

    def test_every_ingest_block_and_defect_kind(self):
        workload = Ingest(5)
        done = drive_with(workload, latinsq.cli.main, count=2 * Ingest.POOL)
        self.assertEqual(done.failed, 0, done.errors)
        messages = [block.message for block in workload.blocks if block.message]
        self.assertEqual(len(messages), Ingest.DEFECTIVE)
        for kind in ("row .* duplicates", "column .* duplicates", "not a power of two"):
            self.assertTrue(any(re.search(kind, m) for m in messages), kind)

    def test_a_seed_fixes_the_inputs(self):
        self.assertEqual([b.text for b in Ingest(9).blocks], [b.text for b in Ingest(9).blocks])
        self.assertNotEqual(Ingest(9).blocks[0].text, Ingest(10).blocks[0].text)
        self.assertEqual(GenBatch(9).request(4), GenBatch(9).request(4))
        self.assertNotEqual(GenLarge(9).request(0).argv, GenLarge(10).request(0).argv)
        # consecutive gen-batch requests cover disjoint square seeds
        self.assertEqual(GenBatch(9).request(1).case - GenBatch(9).request(0).case, GenBatch.COUNT)


class WrongOutputs(unittest.TestCase):
    """Every wrong response counts as a failed request."""

    def test_wrong_count(self):
        done = drive_with(Count(0), lambda argv: print(161_281) or 0, count=2)
        self.assertEqual((done.attempted, done.failed), (2, 2))

    def test_non_latin_square(self):
        def swap_first_two_cells(text):
            first, rest = text.split("\n", 1)
            a, b, tail = first.split(" ", 2)
            return f"{b} {a} {tail}\n{rest}"

        done = drive_with(GenLarge(1), rewrite_output(swap_first_two_cells), count=2)
        self.assertEqual((done.attempted, done.failed), (2, 2))

    def test_non_latin_json_square(self):
        def duplicate_a_cell(text):
            items = json.loads(text)
            items[7]["cells"][0][0] = items[7]["cells"][0][1]
            return json.dumps(items) + "\n"

        done = drive_with(GenBatch(1), rewrite_output(duplicate_a_cell), count=1)
        self.assertEqual((done.attempted, done.failed), (1, 1))

    def test_wrong_verdicts(self):
        done = drive_with(Ingest(2), lambda argv: print("VALID") or 0, count=2 * Ingest.POOL)
        # every convert and every defective validate is wrong
        self.assertEqual(done.failed, Ingest.POOL + Ingest.DEFECTIVE)

    def test_output_that_changes_on_replay(self):
        real = latinsq.cli.main
        calls = []

        def main(argv):  # ignores --seed: every call draws another square
            calls.append(argv)
            return real(argv[:-1] + [str(len(calls))])

        done = drive_with(GenLarge(1), main, count=3, replays=True)
        self.assertEqual((done.attempted, done.failed), (6, 3))

    def test_batch_square_that_its_seed_does_not_give(self):
        real = latinsq.cli.main

        def main(argv):  # a lone square comes from the wrong seed
            if "--count" not in argv:
                argv = argv[:-1] + [str(int(argv[-1]) + 1)]
            return real(argv)

        done = drive_with(GenBatch(1), main, count=1, replays=True)
        self.assertEqual((done.attempted, done.failed), (2, 1))

    def test_exception(self):
        def main(argv):
            raise RuntimeError("boom")

        done = drive_with(Count(0), main, count=2)
        self.assertEqual((done.attempted, done.failed), (2, 2))


class Traced(unittest.TestCase):
    def test_per_layer_metrics_of_gen_batch(self):
        workload = GenBatch(4)
        original = latinsq.validator.is_latin
        done = run.Run()
        untraced = run.drive(workload, done, count=1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.drive(workload, done, count=1)
        finally:
            tracer.uninstall()
        self.assertIs(latinsq.validator.is_latin, original)
        self.assertEqual(done.failed, 0, done.errors)
        values = traced_metrics(tracer, traced, untraced)
        values.update(timed_metrics(workload, 4))
        self.assertEqual(set(values), set(UNITS))
        # generate's own check (is_exponential_latin, which calls is_latin)
        # plus to_standard's is_latin
        self.assertEqual(values["latin_gen.square_checks"], 3)
        self.assertGreater(values["latin_gen.row_restarts"], 0)
        self.assertGreater(values["paper.bool_array_over_bitmask_x"], 0)


if __name__ == "__main__":
    unittest.main()
