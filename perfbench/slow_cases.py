"""Time the known-slow priceability audits once each, under a wall-clock cap.

Usage (from the root of a checkout)::

    python3 perfbench/slow_cases.py

Each case is one ``abcvote check --axiom priceable`` command of the Rule X
committee, run in a child process like the benchmark's commands.  Writes
``perfbench/slow_cases.json`` with each case's ``cli.main`` time and
verdict, or ``"capped"`` together with the cap when the child had to be
stopped.  These cases gate nothing; they are the before-state for
priceability on large electorates, kept outside the timed workloads
because a single run takes from tens of seconds to many minutes.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

import run

CASES = ("propB1", "phragmen1899")
#: Wall-clock cap of one case, in seconds.
CAP_S = 120.0


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    import abcvote

    directory = run.WORK / "inputs" / "slow_cases"
    directory.mkdir(parents=True, exist_ok=True)
    record = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                         f"Python {platform.python_version()}", "cases": {}}
    for name in CASES:
        instance = abcvote.fixture(name)
        (directory / f"{name}.txt").write_text(abcvote.serialize_instance(instance))
        committee = abcvote.format_committee(abcvote.rule_x(instance).committee)
        argv = ["check", "--json", "--axiom", "priceable", "--input", f"{name}.txt",
                "--committee", committee]
        child = [sys.executable, str(run.CHILD), str(run.SRC), "0", "-", "0", name, "--", *argv]
        started = time.perf_counter()
        proc = subprocess.Popen(child, cwd=directory, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=CAP_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            case = {"seconds": "capped", "cap_s": CAP_S}
        else:
            report = json.loads(out.splitlines()[-1])
            case = {"seconds": round(report["main_s"], 3),
                    "verdict": json.loads(report["stdout"])["verdict"]}
        case["command"] = "abcvote " + " ".join(argv)
        case["wall_s"] = round(time.perf_counter() - started, 3)
        record["cases"][name] = case
        print(name, case, flush=True)
    (run.HERE / "slow_cases.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
