"""Tests of the benchmark itself (stdlib unittest; not part of the package
test suite).

Usage (from the root of a checkout)::

    python3 -m unittest perfbench/selftest.py

Most tests run real commands in child processes; the whole file takes
about fifteen seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import abcvote  # noqa: E402
import abcvote.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PINS = json.loads((run.HERE / "pins.json").read_text(encoding="utf-8"))


def runner(workload: str, labels=None, pins=PINS) -> run.Runner:
    out = run.Runner(workload, workloads.DEFAULT_SEED, abcvote, pins)
    if labels is not None:
        out.commands = [c for c in out.commands if c.label in labels]
    return out


def one_round(bench: run.Runner, traced: bool) -> list[dict]:
    bench.spans_file.parent.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + run.HARD_LIMIT_S
    reports = []
    for command in bench.commands:
        report = bench.run_command(command, traced, 0, deadline)
        bench.judge(command, report)
        reports.append(report)
    return reports


class TracedRunTest(unittest.TestCase):
    def test_traced_and_untraced_results_are_identical(self):
        labels = {"check-core-introa", "check-core-introb", "check-priceable-two_camps",
                  "run-pav-random40"}
        bench = runner("audit", labels)
        plain = one_round(bench, traced=False)
        traced = one_round(bench, traced=True)
        self.assertEqual(bench.problems, [])
        for command, a, b in zip(bench.commands, plain, traced):
            self.assertIn("summary", b)
            self.assertEqual(
                workloads.semantic_result(command, a), workloads.semantic_result(command, b)
            )

    def test_self_times_add_up_to_the_traced_round(self):
        bench = runner("run-large", {"run-rulex-propB1", "run-phragmen-overlapping_parties"})
        reports = one_round(bench, traced=True)
        total = run._traced_round(reports)
        parts = sum(total[layer + ".self_s"] for layer in run.LAYERS)
        self.assertAlmostEqual(parts, total["trace.round_s"], places=9)
        main_s = sum(r["main_s"] for r in reports)
        self.assertLess(abs(main_s - total["trace.round_s"]), 0.01 * main_s)
        self.assertGreater(total["rules.min_affordable_q.calls"], 0)

    def test_search_has_no_undecided_probes(self):
        bench = runner("search-ejr-phragmen")
        (report,) = one_round(bench, traced=True)
        self.assertEqual(bench.problems, [])
        summary = report["summary"]
        self.assertGreater(summary["cli.search.probes"], 1000)
        self.assertEqual(summary["cli.search.undecided"], 0)


class WrapperTest(unittest.TestCase):
    def namespaces(self):
        out = {}
        for name, module in sys.modules.items():
            if name == "abcvote" or name.startswith("abcvote."):
                for key, value in vars(module).items():
                    out[(name, key)] = value
                    if type(value) is dict and key != "__builtins__":
                        out.update({(name, key, k): v for k, v in value.items()})
        out["approvers"] = abcvote.ElectionInstance.approvers
        return out

    def test_install_wraps_every_namespace_and_uninstall_restores(self):
        before = self.namespaces()
        probe = tracer.Tracer()
        probe.install()
        try:
            wrapped = self.namespaces()
            for key in (("abcvote.cli", "check_ejr"), ("abcvote.axioms", "lp_maximize"),
                        ("abcvote.cli", "SEARCH_RULES", "seqpav"), ("abcvote", "rule_x"),
                        ("abcvote.rules", "min_affordable_q"), "approvers"):
                self.assertIsNot(wrapped[key], before[key], key)
                self.assertIs(wrapped[key].__wrapped__, before[key], key)
        finally:
            probe.uninstall()
        after = self.namespaces()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)


class CorrectnessTest(unittest.TestCase):
    def test_perturbed_pin_shows_in_fail_ratio(self):
        pins = copy.deepcopy(PINS)
        label = "check-core-introb"
        pins["seeds"][str(workloads.DEFAULT_SEED)][label] = "0" * 16
        bench = runner("audit", {label, "check-core-introa"}, pins)
        metrics, notes = run.measure(bench, 0.0, False)
        self.assertEqual((bench.attempted, bench.failed), (2, 1))
        self.assertEqual(notes["fail_ratio"], 0.5)
        self.assertIn("differs from pinned", bench.problems[0])

    def test_another_committee_is_another_pinned_result(self):
        (command,) = runner("audit", {"check-core-random40"}).commands
        report = {"exit": 0, "raised": None, "stdout": '{"verdict": "PASS"}'}
        result = workloads.semantic_result(command, report)
        argv = list(command.argv)
        argv[argv.index("--committee") + 1] = "1,2,3,4,5,6,7,8"
        other = workloads.semantic_result(workloads.Command(command.label, tuple(argv)), report)
        self.assertNotEqual(workloads.digest(result), workloads.digest(other))
        pins = {"seeds": {"7": {command.label: workloads.digest(result)}}}
        self.assertEqual(workloads.pin_problems(command, result, pins, 7), [])
        self.assertEqual(len(workloads.pin_problems(command, other, pins, 7)), 1)

    def test_benchmark_json_names_the_workloads(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), workloads.WORKLOADS)

    def test_repro_fact_pins_ignore_added_lines_but_not_changed_values(self):
        command = workloads.Command("repro", ("repro",))
        stdout = "ok   bloc committee score: 7750\nok   new fact: 1\nok\n"
        result = workloads.semantic_result(
            command, {"exit": 0, "raised": None, "stdout": stdout}
        )
        pins = {"repro": {"facts": {"bloc committee score": "7750"}, "matrix": {}}}
        self.assertEqual(workloads.pin_problems(command, result, pins, 7), [])
        pins["repro"]["facts"]["bloc committee score"] = "7850"
        self.assertEqual(len(workloads.pin_problems(command, result, pins, 7)), 1)

    def test_without_sources_the_benchmark_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copytree(run.HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "repro", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
