"""Mutation checks: small edits to the package that named tests must catch.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants

The script first requires every test that the selected mutants name to
pass on the unmutated package, in one run.  Then for each mutant it copies
``src/`` to a temporary directory, replaces the mutant's snippet there,
and requires the mutant's tests to fail.  Each snippet must occur exactly
once in its file, so a change that rewrites the code under a mutant must
rewrite the mutant too.  A mutant that survives is a gap in the tests.
Exits 0 when every mutant is caught, 1 otherwise.

Standard library only; pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/latinsq
    snippet: str  # must occur exactly once in the file
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "power-test-without-lower-bound",
        "validator.py",
        "if v < 1 or v > top or v & (v - 1):",
        "if v > top or v & (v - 1):",
        ("tests/test_validator.py::test_exponential_names_a_cell_that_is_not_a_power_in_range[zero]",),
    ),
    Mutant(
        "power-test-without-upper-bound",
        "validator.py",
        "if v < 1 or v > top or v & (v - 1):",
        "if v < 1 or v & (v - 1):",
        ("tests/test_validator.py::test_exponential_names_a_cell_that_is_not_a_power_in_range[above-range]",),
    ),
    Mutant(
        "power-test-without-single-bit-test",
        "validator.py",
        "if v < 1 or v > top or v & (v - 1):",
        "if v < 1 or v > top:",
        (
            "tests/test_validator.py::test_exponential_names_a_cell_that_is_not_a_power_in_range[non-power]",
            "tests/test_validator.py::test_non_power_anywhere_beats_an_earlier_row_duplicate",
        ),
    ),
    Mutant(
        "column-verdict-worded-as-a-row",
        "validator.py",
        '_first_offender(f"column {j}", col, n)',
        '_first_offender(f"row {j}", col, n)',
        ("tests/test_cli.py::test_cli_case[validate-second-square-invalid]",),
    ),
    Mutant(
        "binary-string-keeps-the-sign",
        "mask_set.py",
        'format(abs(x), "b")',
        'format(x, "b")',
        ("tests/test_mask_set.py::test_to_binary_string_matches_oracle",),
    ),
    Mutant(
        "complement-in-a-wider-universe",
        "mask_set.py",
        "m.bits ^ ((1 << m.order) - 1)",
        "m.bits ^ ((1 << (m.order + 1)) - 1)",
        ("tests/test_mask_set.py::test_complement_matches_set_oracle",),
    ),
    Mutant(
        "select-bit-never-draws-the-top-rank",
        "rng_choice.py",
        "range(src.next_below(bits.bit_count()))",
        "range(src.next_below(bits.bit_count() - 1 or 1))",
        ("tests/test_rng_choice.py::test_select_bit_follows_the_rank_rule",),
    ),
    Mutant(
        "repair-odds-from-the-first-column",
        "latin_gen.py",
        "            if k > most:\n",
        "            if not most:\n",
        ("tests/test_latin_gen.py::test_repair_draws_every_candidate_equally_often",),
    ),
    Mutant(
        "repair-writes-legal",
        "latin_gen.py",
        "            unqueued ^= held\n",
        "            unqueued ^= held\n            legal[x] ^= held\n",
        ("tests/test_latin_gen.py::test_repair_draws_every_candidate_equally_often",),
    ),
    Mutant(
        "repair-returns-no-symbol",
        "latin_gen.py",
        "    return entering\n",
        "    return bit\n",
        ("tests/test_latin_gen.py::test_repair_draws_every_candidate_equally_often",),
    ),
    Mutant(
        "candidate-test-skips-the-last-column",
        "oracle_enum.py",
        "if row & used == kept:",
        "if row & used & ~(1 << row.bit_length() - 1) == kept:",
        (
            "tests/test_oracle_enum.py::test_cycle_type_law[5]",
            "tests/test_oracle_enum.py::test_each_class_start_counts_its_extensions_by_brute_force[5]",
        ),
    ),
    Mutant(
        "candidate-may-drop-a-kept-cell",
        "oracle_enum.py",
        "if row & used == kept:",
        "if not row & used & ~kept:",
        ("tests/test_oracle_enum.py::test_completions_of_blanked_squares[3]",),
    ),
    Mutant(
        "sigma-left-out-of-the-two-row-word",
        "oracle_enum.py",
        "1 << (j * n + j) | 1 << (j * n + s - 1)",
        "1 << (j * n + j)",
        (
            "tests/test_oracle_enum.py::test_cycle_type_law[5]",
            "tests/test_oracle_enum.py::test_extensions_depend_only_on_cycle_type[5]",
            "tests/test_oracle_enum.py::test_each_class_start_counts_its_extensions_by_brute_force[5]",
        ),
    ),
    Mutant(
        "plan-from-the-wrong-column-1-symbol",
        "oracle_enum.py",
        "if s != second[0]]",
        "if s != second[-1]]",
        (
            "tests/test_oracle_enum.py::test_cycle_type_law[5]",
            "tests/test_oracle_enum.py::test_each_class_start_counts_its_extensions_by_brute_force[5]",
        ),
    ),
    Mutant(
        "forced-row-counted-twice",
        "oracle_enum.py",
        "return used, (), lambda path, used: 1",
        "return used, (), lambda path, used: 2",
        ("tests/test_oracle_enum.py::test_cycle_type_law[3]",),
    ),
    Mutant(
        "rows-built-below-order-4",
        "oracle_enum.py",
        "    if n < 4:\n        return used, (), lambda path, used: 1\n    rows = _rows(n)\n",
        "    rows = _rows(n)\n    if n < 4:\n        return used, (), lambda path, used: 1\n",
        ("tests/test_cli.py::test_start_up_loads_no_dataclasses_and_json_only_on_json_paths",),
    ),
    Mutant(
        "census-keeps-types-with-a-fixed-point",
        "oracle_enum.py",
        "if 1 not in parts:",
        "if parts:",
        (
            "tests/test_oracle_enum.py::test_cycle_type_law[4]",
            "tests/test_oracle_enum.py::test_class_sizes_sum_to_derangements[4-9]",
            "tests/test_oracle_enum.py::test_each_class_start_counts_its_extensions_by_brute_force[5]",
        ),
    ),
    Mutant(
        "two-rows-closed-as-2-to-the-cycles",
        "oracle_enum.py",
        "return 1 << cycles - 1",
        "return 1 << cycles",
        ("tests/test_oracle_enum.py::test_cycle_type_law[4]",),
    ),
    Mutant(
        "memo-keyed-on-the-cells-filled",
        "oracle_enum.py",
        "size * _search((), used, plan, {},",
        "size * _search((), used, plan, type('ByCount', (dict,), {"
        "'get': lambda self, key: dict.get(self, key.bit_count()), "
        "'__setitem__': lambda self, key, value: dict.__setitem__(self, key.bit_count(), value)})(),",
        ("tests/test_oracle_enum.py::test_cycle_type_law[6]",),
    ),
    Mutant(
        "memo-outlives-its-call",
        "oracle_enum.py",
        "size * _search((), used, plan, {},",
        "size * _search((), used, plan, _search.__dict__.setdefault('memo', {}),",
        ("tests/test_oracle_enum.py::test_a_count_keeps_no_count_between_calls",),
    ),
    Mutant(
        "order-checked-after-the-cache",
        "oracle_enum.py",
        "    check_order(n, COUNT_CAP)\n    return {\n",
        "    _class_starts(n)\n    check_order(n, COUNT_CAP)\n    return {\n",
        ("tests/test_oracle_enum.py::test_a_refused_order_reads_no_count_cache[5.0]",),
    ),
    Mutant(
        "last-row-left-unwritten",
        "oracle_enum.py",
        "                grid[-1][j] = v\n",
        "                pass\n",
        ("tests/test_oracle_enum.py::test_completions_of_blanked_squares[3]",),
    ),
    Mutant(
        "error-keeps-the-exception",
        "cli.py",
        'f"error: {exc}"',
        'f"error: {(kept := exc)}"',
        (
            "tests/test_cli.py::test_a_request_leaves_no_cyclic_garbage[count-9]",
            "tests/test_cli.py::test_a_request_leaves_no_cyclic_garbage[validate-malformed]",
        ),
    ),
    Mutant(
        "no-flush-before-exit",
        "cli.py",
        "sys.stdout.flush()  # here,",
        "pass  # here,",
        ("tests/test_cli.py::test_closed_stdout_ends_in_one_error_line",),
    ),
    Mutant(
        "no-devnull-after-a-closed-pipe",
        "cli.py",
        "os.dup2(null, sys.stdout.fileno())",
        "pass",
        ("tests/test_cli.py::test_closed_stdout_ends_in_one_error_line",),
    ),
    Mutant(
        "null-descriptor-left-open",
        "cli.py",
        "            os.close(null)\n",
        "",
        (
            "tests/test_cli.py::test_a_failed_write_leaves_no_descriptor_open[closed-pipe]",
            "tests/test_cli.py::test_a_failed_write_leaves_no_descriptor_open[full-device]",
        ),
    ),
    Mutant(
        "no-devnull-after-a-full-device",
        "cli.py",
        "exc.errno in (errno.EPIPE, errno.ENOSPC)",
        "exc.errno in (errno.EPIPE,)",
        ("tests/test_cli.py::test_output_into_a_full_device_ends_in_one_error_line",),
    ),
    Mutant(
        "closed-stream-taken-as-open",
        "cli.py",
        '    if stream is None:\n        raise OSError(f"{name} is closed")\n',
        "",
        ("tests/test_cli.py::test_closed_standard_stream_ends_in_exit_2",),
    ),
    Mutant(
        "error-report-unguarded",
        "cli.py",
        "        try:  # a stderr that is closed or failing still leaves exit 2\n"
        '            print(_cut(line, LINE_BYTES), file=_std("stderr"))\n'
        "        except OSError:\n"
        "            pass\n",
        '        print(_cut(line, LINE_BYTES), file=_std("stderr"))\n',
        ("tests/test_cli.py::test_closed_standard_stream_ends_in_exit_2",),
    ),
    Mutant(
        "argparse-passes-over-a-failed-write",
        "cli.py",
        "    def _print_message(self, message, file=None):",
        "    def _unused_print_message(self, message, file=None):",
        (
            "tests/test_cli.py::test_output_into_a_full_device_ends_in_one_error_line",
            "tests/test_cli.py::test_unbuffered_help_into_a_closed_pipe_ends_in_one_error_line",
        ),
    ),
    Mutant(
        "non-positive-int-accepted",
        "cli.py",
        "    if value < 1:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line",),
    ),
    Mutant(
        "quoted-values-not-cut",
        "errors.py",
        "if len(data) <= limit:",
        "if True:",
        (
            "tests/test_cli.py::test_refused_row_is_quoted_within_a_short_line",
            "tests/test_cli.py::test_long_values_are_quoted_within_a_short_line",
            "tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line",
        ),
    ),
    Mutant(
        "non-int-quoted-by-str",
        "errors.py",
        "return _cut(repr(value))",
        "return _cut(str(value))",
        (
            "tests/test_validator.py::test_a_huge_argument_is_refused_by_its_own_error[check_order-str]",
            "tests/test_validator.py::test_a_huge_argument_is_refused_by_its_own_error[singleton-str]",
        ),
    ),
    Mutant(
        "surrogate-not-escaped",
        "errors.py",
        'text.encode(errors="backslashreplace")',
        "text.encode()",
        (
            "tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line[extra-not-utf-8]",
            "tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line[ambiguous-option-not-utf-8]",
            "tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line[long-extra-not-utf-8]",
        ),
    ),
    Mutant(
        "usage-error-words-not-cut",
        "cli.py",
        'map(_cut, f"error:',
        'map(str, f"error:',
        (
            "tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line[generate-not-an-int]",
            "tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line[long-command]",
            "tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line[long-extra]",
            "tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line[long-ambiguous-option]",
            "tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line[long-flag-value]",
            "tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line[long-path]",
        ),
    ),
    Mutant(
        "usage-error-line-not-capped",
        "cli.py",
        "_cut(line, LINE_BYTES)",
        "line",
        (
            "tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line[many-extra-words]",
            "tests/test_cli_fuzz.py::test_argv_fuzz",
        ),
    ),
    Mutant(
        "usage-error-whitespace-kept",
        "cli.py",
        '{exc}".split()',
        '{exc}".split(" ")',
        (
            "tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line[extra-with-a-line-break]",
            "tests/test_cli.py::test_command_line_values_are_quoted_within_a_short_line[ambiguous-option-with-a-line-break]",
            "tests/test_cli_fuzz.py::test_argv_fuzz",
        ),
    ),
    Mutant(
        "command-parser-keeps-leftover-words",
        "cli.py",
        "        if not extra:\n            return args\n",
        "        return args\n",
        ("tests/test_cli_fuzz.py::test_command_parser_agrees_with_the_full_parser",),
    ),
    Mutant(
        "over-long-number-called-no-integer",
        "cli.py",
        "                if limit := _digit_limit_passed(tokens):\n"
        '                    raise MalformedMatrix(f"number of more than {limit} digits in row: {quoted}") from None\n',
        "",
        (
            "tests/test_cli.py::test_invalid_square_is_reported_before_a_later_malformed_block[past-the-digit-limit-refused-validate]",
            "tests/test_cli.py::test_invalid_square_is_reported_before_a_later_malformed_block[signed-grouped-past-the-digit-limit-refused-convert-to-grid]",
        ),
    ),
    Mutant(
        "every-exponential-row-taken-as-decoded",
        "cli.py",
        "row if exp_text and all(row) else",
        "row if exp_text else",
        ("tests/test_cli.py::test_exponential_text_is_decided_by_is_latin_alone",),
    ),
    Mutant(
        "json-squares-not-separated",
        "cli.py",
        '("[", ", ", "]\\n")',
        '("[", "", "]\\n")',
        ("tests/test_cli.py::test_generate_json_is_byte_identical_to_json_dumps",),
    ),
    Mutant(
        "text-squares-not-separated",
        "cli.py",
        'opening, separator, closing = "", "\\n", ""',
        'opening, separator, closing = "", "", ""',
        ("tests/test_cli.py::test_cli_case[generate-grid]",),
    ),
    Mutant(
        "worker-stride-one-short",
        "cli.py",
        "range(k, count, width)",
        "range(k, count, width - 1)",
        tuple(
            f"tests/test_cli.py::test_a_forked_batch_is_the_batch_drawn_by_one_process[{case}]"
            for case in ("12-100-grid", "24-30-exp", "64-4-json")
        ),
    ),
    Mutant(
        "workers-left-unreaped",
        "cli.py",
        "            _reap(pid)\n",
        "            pass\n",
        (
            "tests/test_cli.py::test_cli_case[generate-forked-batch]",
            "tests/test_cli.py::test_a_forked_batch_into_a_closed_pipe_leaves_nothing",
        ),
    ),
    Mutant(
        "worker-reaped-already-raises",
        "cli.py",
        "    try:\n        return os.waitpid(pid, 0)[1]\n    except ChildProcessError:\n        return 0\n",
        "    return os.waitpid(pid, 0)[1]\n",
        (
            "tests/test_cli.py::test_a_caller_that_ignores_sigchld_gets_the_batch_at_exit_0",
            "tests/test_cli.py::test_a_worker_that_ends_early_ends_the_batch_in_one_error_line[killed-with-sigchld-ignored]",
        ),
    ),
    Mutant(
        "failed-pipe-raises",
        "cli.py",
        "    ends = ()\n    try:\n        ends = read_end, write_end = os.pipe()\n",
        "    ends = read_end, write_end = os.pipe()\n    try:\n",
        ("tests/test_cli.py::test_a_failed_fork_leaves_the_batch_to_this_process[pipe]",),
    ),
    Mutant(
        "workers-not-capped-at-the-count",
        "cli.py",
        "min(cpus, count, count * order * order",
        "min(cpus, count * order * order",
        ("tests/test_cli.py::test_a_batch_forks_no_more_processes_than_squares",),
    ),
    Mutant(
        "threaded-caller-forks",
        "cli.py",
        " or threading and threading.active_count() > 1",
        "",
        ("tests/test_cli.py::test_a_threaded_caller_draws_the_batch_in_one_process",),
    ),
    Mutant(
        "early-end-names-no-square",
        "cli.py",
        'f"square {i + 1} (seed',
        'f"square (seed',
        ("tests/test_cli.py::test_a_worker_that_ends_early_ends_the_batch_in_one_error_line",),
    ),
    Mutant(
        "early-end-names-no-signal",
        "cli.py",
        "if os.WIFSIGNALED(status):",
        "if False:",
        ("tests/test_cli.py::test_a_worker_that_ends_early_ends_the_batch_in_one_error_line[killed]",),
    ),
)


def _pytest(src: str, tests) -> int:
    """Exit code of pytest on ``tests``, with the package imported from ``src``."""
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def check(mutant: Mutant) -> str:
    """'caught', or why the mutant is not."""
    with tempfile.TemporaryDirectory(prefix="latinsq-mutant-") as scratch:
        src = os.path.join(scratch, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(src, "latinsq", mutant.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        found = text.count(mutant.snippet)
        if found != 1:
            return f"snippet occurs {found} times in {mutant.path}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.snippet, mutant.replacement))
        code = _pytest(src, mutant.tests)
        if code == 0:
            return "survived: the named tests pass"
        if code != 1:  # 2 and above: collection or usage errors, not a failing test
            return f"the named tests exit {code}, not 1, on the mutant"
        return "caught"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    mutants = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    started = time.monotonic()
    code = _pytest(os.path.join(ROOT, "src"), sorted({test for mutant in mutants for test in mutant.tests}))
    print(f"unmutated package: the named tests exit {code} ({time.monotonic() - started:.1f} s)", flush=True)
    if code != 0:
        return 1
    failed = 0
    for mutant in mutants:
        started = time.monotonic()
        outcome = check(mutant)
        failed += outcome != "caught"
        print(f"{mutant.name}: {outcome} ({time.monotonic() - started:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
