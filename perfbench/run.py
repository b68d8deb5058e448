"""End-to-end benchmark of the abcvote command line, with a traced mode.

Usage (from the root of a checkout)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Each operation is one ``abcvote`` command run as users run it: in a fresh
Python process, one at a time, in a closed loop with a single caller.  A
round is the workload's fixed list of commands (see ``workloads.py``);
rounds repeat until ``--seconds`` would be exceeded by the next one.
``--seconds`` is the length of one pass: one workload in one mode.
Without ``--trace`` each workload gets an untraced and then a traced
pass, so the command with no arguments runs eight passes.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over commands of the time from process spawn to
  entering ``cli.main`` (interpreter start plus ``import abcvote``);
* ``round_p50_s``: median over rounds of the summed ``cli.main`` times;
* ``peak_rss_mb``: the largest peak RSS of any command process.

The two times are given at a reference host speed.  The shared host this
was built on changes speed by up to a factor of two within minutes, which
moved wall-clock medians of one run by 20% between runs.  So before
every command and after every round of an untraced pass the benchmark
also times ``calibrate.py``, a fixed process that imports the same
standard modules and does the same kind of arithmetic as abcvote but
runs none of its code, and scales both times by ``CALIBRATION_REF_S``
over that probe's median in the run.  The unscaled wall-clock medians
are printed as well.

It also prints ``fail_ratio`` and, when there are at least eleven rounds,
``round_tail_s``: the highest percentile of round time with ten rounds
beyond it.

``--trace 1`` alternates untraced and traced rounds.  Traced rounds wrap
the program's public functions from outside (``tracer.py``) and report
per-layer self times and counters, each summed per round, as medians
over traced rounds, plus the tracing overhead.

Every command's result is reduced to its semantic content, checked
against the raw definitions, compared with the pins taken at the seed
commit (``pins.json``, seeds 0-63), and must be the same in every round,
traced or not.  The result digests of each run are written to
``perfbench/.work/results``, the spans of a traced run to
``perfbench/.work/trace``.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD = HERE / "child.py"
CALIBRATE = HERE / "calibrate.py"

#: A pass (one workload in one mode) stops starting commands after this,
#: so that a run of one workload in one mode exits within 180 s.
HARD_LIMIT_S = 150.0

#: Timings are reported at the host speed at which one calibrate.py
#: process takes this long (its median on the 2-CPU x86-64 VM, Python
#: 3.11, on which the benchmark was tuned).
CALIBRATION_REF_S = 0.08

LAYERS = tracer.LAYERS + ("cli",)
END_TO_END = (("setup_s", "s"), ("round_p50_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_metrics() -> list[tuple[str, str]]:
    """Names and units of the traced run's metrics, in report order."""
    out = []
    for layer, _, path in tracer.TRACED:
        name = tracer.span_name(layer, path)
        out += [(name + ".self_s", "s"), (name + ".calls", "count")]
        if name.split(".")[1] in tracer.CHECKERS:
            out += [(name + ".witnesses", "count"), (name + ".budget_exceeded", "count")]
    out += [("rules.pav_winners.budget_exceeded", "count")]
    out += [(tracer.span_name(layer, path) + ".calls", "count")
            for layer, _, path in tracer.COUNTED]
    out += [(f"lp.{what}.{agg}", "count") for what in ("rows", "cols") for agg in ("sum", "max")]
    out += [("model.voters_parsed", "count"), ("model.distinct_ballot_ratio", "ratio")]
    out += [(layer + ".self_s", "s") for layer in tracer.LAYERS]
    out += [("cli.self_s", "s")]
    out += [(f"cli.search.{what}", "count") for what in ("probes", "undecided", "hits")]
    out += [("cli.search.hit_ratio", "ratio"), ("trace.round_s", "s"),
            ("trace.overhead_ratio", "ratio")]
    return out


class Runner:
    """Runs the rounds of one workload and checks every result."""

    def __init__(self, workload: str, seed: int, abcvote, pins: dict):
        self.workload, self.seed = workload, seed
        self.abcvote, self.pins = abcvote, pins
        self.directory = WORK / "inputs" / f"{workload}-seed{seed}"
        self.commands, self.inputs = workloads.prepare(
            workload, seed, self.directory, abcvote
        )
        self.spans_file = WORK / "trace" / f"{workload}-seed{seed}.jsonl"
        self.results: dict[str, dict] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.calibrations: list[float] = []

    def run_command(self, command, traced: bool, round_id: int, deadline: float) -> dict:
        argv = [sys.executable, str(CHILD), str(SRC), "1" if traced else "0",
                str(self.spans_file), str(round_id), command.label, "--", *command.argv]
        spawned = time.perf_counter()
        with subprocess.Popen(argv, cwd=self.directory, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return {"error": "timed out"}
        if proc.returncode != 0 or not out.strip():
            return {"error": f"child exited {proc.returncode}: {err.strip()[-300:]}"}
        report = json.loads(out.splitlines()[-1])
        report["setup_s"] = report["entered"] - spawned
        return report

    def judge(self, command, report: dict) -> None:
        """Count the command and record why its result is wrong, if it is."""
        self.attempted += 1
        problems = []
        if "error" in report:
            problems.append(report["error"])
        elif not report["module"].startswith(str(SRC) + "/"):
            problems.append(f"imported abcvote from {report['module']}")
        else:
            try:
                result = workloads.semantic_result(command, report)
                problems += workloads.check_problems(
                    command, report, result, self.directory, self.abcvote
                )
                problems += workloads.pin_problems(command, result, self.pins, self.seed)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"unreadable result: {type(exc).__name__}: {exc}")
            else:
                first = self.results.setdefault(command.label, result)
                if first != result:
                    problems.append("result differs from an earlier round")
        if problems:
            self.failed += 1
            self.problems.append(f"{command.label}: " + "; ".join(problems))

    def rounds(self, seconds: float, trace: bool):
        """Yield (traced, [(command, report)]) per round until time is up."""
        start = time.perf_counter()
        deadline = start + HARD_LIMIT_S
        if trace:
            self.spans_file.parent.mkdir(parents=True, exist_ok=True)
            self.spans_file.write_text("", encoding="utf-8")
        walls = []
        round_id = 0
        while True:
            # untraced, traced, traced, untraced, ...: neither mode gets
            # all the first rounds of a run, which tend to be slower
            traced = trace and round_id % 4 in (1, 2)
            began = time.perf_counter()
            done = []
            for command in self.commands:
                if not trace:
                    self.calibrations.append(calibrate())
                report = self.run_command(command, traced, round_id, deadline)
                self.judge(command, report)
                done.append((command, report))
                if "error" in report:
                    yield traced, done
                    return
            if not trace:
                self.calibrations.append(calibrate())
            yield traced, done
            now = time.perf_counter()
            walls.append(now - began)
            round_id += 1
            if trace and round_id < 2:
                continue
            if now - start + statistics.median(walls) > seconds or now > deadline:
                return

    def write_results(self) -> None:
        out = WORK / "results" / f"{self.workload}-seed{self.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            label: {"digest": workloads.digest(result), "result": result}
            for label, result in self.results.items()
        }
        out.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")


def calibrate() -> float:
    """Time from spawning calibrate.py, a fixed process independent of
    abcvote, to the end of its work."""
    spawned = time.perf_counter()
    out = subprocess.run([sys.executable, str(CALIBRATE)], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return float(out) - spawned


def _tail(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 11:
        return None
    rank = len(values) - 10
    return sorted(values)[rank - 1], 100.0 * rank / len(values)


def measure(runner: Runner, seconds: float, trace: bool):
    """Run the rounds; return (metrics, notes) for the chosen mode."""
    plain, traced = [], []
    setups, rss = [], []
    for is_traced, done in runner.rounds(seconds, trace):
        reports = [r for _, r in done if "error" not in r]
        if len(reports) < len(done):
            continue
        if is_traced:
            traced.append(_traced_round(reports))
        else:
            plain.append(sum(r["main_s"] for r in reports))
            setups += [r["setup_s"] for r in reports]
        rss += [r["maxrss_kb"] / 1024 for r in reports]
    notes = {
        "rounds": len(plain) + len(traced),
        "fail_ratio": runner.failed / max(1, runner.attempted),
    }
    if not plain or (trace and not traced):
        return None, notes
    if not trace:
        speed = CALIBRATION_REF_S / statistics.median(runner.calibrations)
        notes["speed"] = speed
        metrics = {
            "setup_s": statistics.median(setups) * speed,
            "round_p50_s": statistics.median(plain) * speed,
            "peak_rss_mb": max(rss),
        }
        notes["round_s"] = [t * speed for t in plain]
        notes["round_tail"] = _tail(notes["round_s"])
        notes["wall"] = {"setup_s": statistics.median(setups),
                         "round_p50_s": statistics.median(plain)}
        return metrics, notes
    metrics = {}
    for name, _ in per_layer_metrics():
        values = [t.get(name, 0) for t in traced]
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = metrics["trace.round_s"] / statistics.median(plain)
    return metrics, notes


def _traced_round(reports: list[dict]) -> dict:
    """Sum the command summaries of one traced round into its metrics."""
    total: dict[str, float] = {}
    for report in reports:
        for key, value in report["summary"].items():
            previous = total.get(key, 0)
            total[key] = max(previous, value) if key.endswith(".max") else previous + value
    total["cli.self_s"] = total.pop("cli.main.self_s")
    for layer in tracer.LAYERS:
        total[layer + ".self_s"] = sum(
            value for key, value in total.items()
            if key.startswith(layer + ".") and key.endswith(".self_s")
        )
    total["trace.round_s"] = sum(total[layer + ".self_s"] for layer in LAYERS)
    probes = total["cli.search.probes"]
    total["cli.search.hit_ratio"] = total["cli.search.hits"] / probes if probes else 0
    seen = total["model.ballots_seen"]
    total["model.distinct_ballot_ratio"] = (
        total["model.distinct_ballots_seen"] / seen if seen else 0
    )
    return total


def _report(runner: Runner, trace: bool, metrics, notes, units: dict) -> None:
    mode = "traced" if trace else "untraced"
    print(f"== {runner.workload} (seed {runner.seed}, {mode}): {notes['rounds']} rounds, "
          f"{runner.attempted} commands, fail_ratio {notes['fail_ratio']:.4f}")
    for problem in runner.problems:
        print(f"   FAIL {problem}")
    for name, value in (metrics or {}).items():
        print(f"   {name:<48} {value:.6g} {units[name]}")
    if "round_s" in notes:
        print("   rounds_s " + " ".join(f"{t:.4f}" for t in notes["round_s"]))
        print(f"   host speed factor {notes['speed']:.4f}; unscaled wall-clock medians: "
              + ", ".join(f"{k} {v:.6g} s" for k, v in notes["wall"].items()))
    tail = notes.get("round_tail")
    if tail is not None:
        print(f"   {'round_tail_s':<48} {tail[0]:.6g} s "
              f"(p{tail[1]:.0f} of {notes['rounds']} rounds)")
    elif not trace:
        print(f"   {'round_tail_s':<48} n/a (fewer than 11 rounds)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", choices=("0", "1"))
    args = parser.parse_args(argv)
    if not (SRC / "abcvote" / "cli.py").is_file():
        print(f"error: no abcvote sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import abcvote

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    modes = [False, True] if args.trace is None else [args.trace == "1"]
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    print(f"Python {platform.python_version()} on {platform.machine()}, "
          f"{os.cpu_count()} CPUs")
    units = dict(END_TO_END) | dict(per_layer_metrics())
    attempted = failed = 0
    complete = True
    out = {}
    for name in names:
        for trace in modes:
            runner = Runner(name, args.seed, abcvote, pins)
            metrics, notes = measure(runner, args.seconds, trace)
            runner.write_results()
            _report(runner, trace, metrics, notes, units)
            attempted += runner.attempted
            failed += runner.failed
            complete = complete and metrics is not None
            for key, value in (metrics or {}).items():
                label = key if len(names) == 1 else f"{name}.{key}"
                out[label] = {"value": value, "unit": units[key]}
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
