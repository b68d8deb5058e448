"""Record the pinned results and the input record of the benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/make_pins.py

Runs one untraced round of every workload for each seed in
``range(SEEDS)`` and writes ``perfbench/pins.json``: the repro facts and
matrix cells, and per seed the digest of every command's semantic result.
Every result must first pass the benchmark's own checks.  Also writes
``perfbench/inputs.json``: for the default seed, each workload's
commands and inputs (digest, n, m, k, distinct-ballot ratio).

Run it only on a commit whose results are known to be right; the pins
then catch any later change of a result.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

#: Seeds 0 to SEEDS - 1 are pinned; other seeds are checked but not pinned.
SEEDS = 64


def one_round(name: str, seed: int, abcvote) -> run.Runner:
    runner = run.Runner(name, seed, abcvote, {"repro": None, "seeds": {}})
    for _ in runner.rounds(0.0, trace=False):
        pass
    if runner.failed:
        raise SystemExit(f"{name} seed {seed}: " + "; ".join(runner.problems))
    return runner


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    import abcvote

    seeded = [name for name in workloads.WORKLOADS if name != "repro"]
    jobs = [("repro", workloads.DEFAULT_SEED)]
    jobs += [(name, seed) for seed in range(SEEDS) for name in seeded]
    pins = {"repro": None, "seeds": {}}
    inputs = {}
    for name, seed in jobs:
        runner = one_round(name, seed, abcvote)
        if runner.workload == "repro":
            result = runner.results["repro"]
            pins["repro"] = {"facts": result["facts"], "matrix": result["matrix"]}
        else:
            pins["seeds"].setdefault(str(runner.seed), {}).update(
                {label: workloads.digest(r) for label, r in runner.results.items()}
            )
        if runner.seed == workloads.DEFAULT_SEED:
            inputs[runner.workload] = {
                "commands": [" ".join(c.argv) for c in runner.commands],
                "inputs": runner.inputs,
            }
        print(f"{runner.workload} seed {runner.seed}: ok", flush=True)
    for name, data in (("pins.json", pins), ("inputs.json", inputs)):
        (run.HERE / name).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
