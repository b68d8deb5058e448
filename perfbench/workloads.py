"""The four workloads: their inputs, the commands of one round, and the
checks every command's result must pass.

A round is a fixed list of ``abcvote`` commands.  Inputs that are not
catalogue instances are generated from the workload seed; catalogue
instances are serialized from ``abcvote.fixture``.  Every input is
written into the benchmark's own work directory.

Each command's result is reduced to its semantic content (the
``--json`` fields, the verdict and witness, the hit instance, the fact
values) so that lines a later version adds to the output do not count as
a change, while any changed value does.  That content, with the command
line, is compared with the pins recorded at the seed commit and re-checked against the raw
definitions where that is cheap.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 7
SEARCH_TRIALS = 4000
SEARCH_LIMITS = {"n": 12, "m": 10, "k": 6}

# Why each workload was chosen is said once, in BENCHMARK.json.
WORKLOADS = ("repro", "search-ejr-phragmen", "run-large", "audit")

# Committees (a) and (b) of the introduction's instance, 1-based.
INTRO_A = "1,2,3,4,5,6,7,8,10,11,13,14"
INTRO_B = "1,2,3,7,8,9,10,11,12,13,14,15"

RUN_FIELDS = ("instance", "rule", "committee", "elected", "times", "q",
              "score", "ties", "undersized", "welfare")
CHECK_FIELDS = ("instance", "axiom", "verdict", "S", "T", "price",
                "transfer", "dominating")


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]


# ---------------------------------------------------------------------------
# inputs and commands


def _inputs(workload: str, seed: int, abcvote) -> dict:
    fixture = abcvote.fixture
    if workload == "run-large":
        return {
            "phragmen1899": fixture("phragmen1899"),
            "propB1": fixture("propB1"),
            "overlapping_parties": fixture("overlapping_parties"),
            "random2000": abcvote.gen_random(seed, 2000, 30, 15, 0.3),
        }
    if workload == "audit":
        return {
            "two_camps": abcvote.gen_party_list([30, 10], [8, 8], 8).instance,
            "fig4_profile1": fixture("fig4_profile1"),
            "intro": fixture("intro"),
            "random40": abcvote.gen_random(seed, 40, 16, 8, 0.3),
            "example33": fixture("example33"),
        }
    return {}


def _commands(workload: str, seed: int, instances: dict, abcvote) -> list[Command]:
    if workload == "repro":
        return [Command("repro", ("repro",))]
    if workload == "search-ejr-phragmen":
        argv = ["search", "--violation", "ejr-phragmen"]
        for key, limit in SEARCH_LIMITS.items():
            argv += [f"--max-{key}", str(limit)]
        argv += ["--seed", str(seed), "--trials", str(SEARCH_TRIALS)]
        return [Command("search", tuple(argv))]
    if workload == "run-large":
        out = []
        for name in instances:
            for rule in ("phragmen", "rulex", "seqpav"):
                out.append(_run(rule, name))
        return out + [_run("pav", "phragmen1899")]
    if workload == "audit":
        def phragmen(name):
            trace = abcvote.phragmen_sequential(instances[name])
            return abcvote.format_committee(trace.committee)

        rulex = abcvote.format_committee(abcvote.rule_x(instances["random40"]).committee)
        return [
            _check("priceable", "two_camps", phragmen("two_camps")),
            _check("priceable", "fig4_profile1", phragmen("fig4_profile1")),
            _check("core", "intro", INTRO_A, "a"),
            _check("core", "intro", INTRO_B, "b"),
            _check("core", "random40", rulex),
            _check("ejr", "example33", phragmen("example33")),
            _run("pav", "random40", "--all-ties"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _run(rule: str, name: str, *extra: str) -> Command:
    return Command(
        f"run-{rule}-{name}", ("run", "--json", "--rule", rule, *extra, "--input", f"{name}.txt")
    )


def _check(axiom: str, name: str, committee: str, tag: str = "") -> Command:
    argv = ("check", "--json", "--axiom", axiom, "--input", f"{name}.txt",
            "--committee", committee)
    return Command(f"check-{axiom}-{name}{tag}", argv)


def prepare(workload: str, seed: int, directory: Path, abcvote):
    """Write the workload's inputs into ``directory``; return its commands
    and a record (digest, n, m, k, distinct-ballot ratio) of each input."""
    directory.mkdir(parents=True, exist_ok=True)
    instances = _inputs(workload, seed, abcvote)
    records = {}
    for name, instance in instances.items():
        text = abcvote.serialize_instance(instance)
        (directory / f"{name}.txt").write_text(text, encoding="ascii")
        m, n, k, ballots = read_instance(text)
        records[name] = {
            "instance_digest": hashlib.sha256(text.encode("ascii")).hexdigest(),
            "n": n,
            "m": m,
            "k": k,
            "distinct_ballot_ratio": len(set(ballots)) / n,
        }
    return _commands(workload, seed, instances, abcvote), records


# ---------------------------------------------------------------------------
# results


def read_instance(text: str):
    """(m, n, k, ballots) from the instance file format, ballots 0-based.

    Written here rather than taken from abcvote, so the checks below do
    not trust the parser under test."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if not line.startswith("#")]
    while lines and not lines[0]:
        lines.pop(0)
    m, n, k = (int(f) for f in lines[0].split())
    ballots = [frozenset(int(c) - 1 for c in line.split()) for line in lines[1:1 + n]]
    if len(ballots) != n:
        raise ValueError(f"{len(ballots)} ballots, header says {n}")
    return m, n, k, ballots


def canonical_digest(m: int, n: int, k: int, ballots) -> str:
    lines = [f"{m} {n} {k}"] + [" ".join(str(c + 1) for c in sorted(b)) for b in ballots]
    return hashlib.sha256(("\n".join(lines) + "\n").encode("ascii")).hexdigest()


def semantic_result(command: Command, report: dict) -> dict:
    """The pinned content of one command's result.

    It includes the command line, because the committees that the audit
    commands check are computed by the program under test: a different
    committee is a different result."""
    out = {"argv": list(command.argv), "exit": report["exit"], "raised": report["raised"]}
    stdout = report["stdout"]
    kind = command.argv[0]
    if report["raised"] is not None or report["exit"] not in (0, 1):
        return out
    if kind in ("run", "check"):
        fields = RUN_FIELDS if kind == "run" else CHECK_FIELDS
        data = json.loads(stdout)
        out.update({key: data[key] for key in fields if key in data})
    elif kind == "search":
        if stdout.strip() == "none found":
            out["hit"] = "none found"
        else:
            out["hit"] = canonical_digest(*read_instance(stdout))
    else:
        out["facts"], out["matrix"] = _repro_values(stdout)
    return out


def _repro_values(stdout: str):
    facts, matrix = {}, {}
    in_matrix = False
    for line in stdout.splitlines():
        match = re.match(r"(ok|FAIL) +(.+?): (.*)$", line)
        if match and match.group(1) == "ok":
            facts[match.group(2)] = match.group(3)
        elif line.startswith(" ") and line.split() == ["pav", "phragmen", "rulex"]:
            in_matrix = True
        elif in_matrix and line.strip() and line.strip() != "ok":
            name, *cells = re.split(r" {2,}", line.strip())
            matrix[name] = cells
    return facts, matrix


def digest(result: dict) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def pin_problems(command: Command, result: dict, pins: dict, seed: int) -> list[str]:
    """Differences from the values recorded at the seed commit."""
    if command.label == "repro":
        want = pins["repro"] or {"facts": {}, "matrix": {}}
        problems = [f"exit {result['exit']}, pinned 0"] if result["exit"] != 0 else []
        for part in ("facts", "matrix"):
            got = result.get(part, {})
            for key, value in want[part].items():
                if got.get(key) != value:
                    problems.append(f"{key}: {got.get(key)!r}, pinned {value!r}")
        return problems
    pinned = pins["seeds"].get(str(seed), {}).get(command.label)
    if pinned is None or pinned == digest(result):
        return []
    return [f"result digest {digest(result)} differs from pinned {pinned}"]


# ---------------------------------------------------------------------------
# checks against the raw definitions


def _members(text: str) -> list[int]:
    return [int(c) - 1 for c in text.split(",")] if text else []


def _fractions(text: str) -> list[Fraction]:
    return [Fraction(t) for t in text.split(",")] if text else []


def _pav_score(ballots, committee) -> Fraction:
    members = set(committee)
    return sum(
        (sum((Fraction(1, j) for j in range(1, len(b & members) + 1)), Fraction(0))
         for b in ballots),
        Fraction(0),
    )


def check_problems(command: Command, report: dict, result: dict, directory: Path,
                   abcvote) -> list[str]:
    """Violations of the properties every correct result has."""
    if report["raised"] is not None:
        return [f"raised {report['raised']}"]
    kind = command.argv[0]
    if kind == "repro":
        lines = report["stdout"].splitlines()
        bad = [line for line in lines if line.startswith("FAIL")]
        if report["exit"] != 0 or bad or not lines or lines[-1] != "ok":
            return [f"repro exit {report['exit']}, {len(bad)} FAIL lines"]
        return []
    if kind == "search":
        return _search_problems(report, result, abcvote)
    name = command.argv[command.argv.index("--input") + 1]
    m, n, k, ballots = read_instance((directory / name).read_text(encoding="ascii"))
    if result.get("instance") != canonical_digest(m, n, k, ballots):
        return [f"instance digest {result.get('instance')} is not the input's"]
    if kind == "run":
        return _run_problems(command, report, result, m, n, k, ballots)
    return _check_problems(command, report, result, m, n, k, ballots)


def _run_problems(command, report, result, m, n, k, ballots) -> list[str]:
    rule = command.argv[command.argv.index("--rule") + 1]
    problems = []
    if report["exit"] != 0:
        problems.append(f"exit {report['exit']}")
    committee = _members(result["committee"])
    if sorted(set(committee)) != committee or not all(0 <= c < m for c in committee):
        problems.append(f"committee {result['committee']} is not a valid literal")
    if len(committee) > k or (len(committee) < k) != ("undersized" in result):
        problems.append(f"committee size {len(committee)} for k={k}")
    welfare = ",".join(str(len(b & set(committee))) for b in ballots)
    if result.get("welfare") != welfare:
        problems.append("welfare vector does not match the committee")
    if rule in ("phragmen", "rulex"):
        elected = _members(result["elected"])
        steps = _fractions(result["times" if rule == "phragmen" else "q"])
        if sorted(elected) != committee:
            problems.append("election order is not a permutation of the committee")
        if len(steps) != len(elected) or steps != sorted(steps) or any(s <= 0 for s in steps):
            problems.append("times/q-values are not positive and nondecreasing")
    if rule == "pav":
        score = Fraction(result["score"])
        if _pav_score(ballots, committee) != score or len(committee) != k:
            problems.append("PAV score does not match the committee")
        for tie in result["ties"].split(";") if "ties" in result else ():
            if _pav_score(ballots, _members(tie)) != score:
                problems.append(f"tied committee {tie} has another score")
    return problems


def _check_problems(command, report, result, m, n, k, ballots) -> list[str]:
    axiom = command.argv[command.argv.index("--axiom") + 1]
    verdict = result.get("verdict")
    if (verdict, report["exit"]) not in (("PASS", 0), ("FAIL", 1)):
        return [f"verdict {verdict} with exit {report['exit']}"]
    committee = set(_members(command.argv[command.argv.index("--committee") + 1]))
    if verdict == "PASS" and axiom == "priceable" and not Fraction(result["price"]) > 0:
        return ["price is not positive"]
    if verdict == "FAIL" and axiom in ("core", "ejr"):
        coalition = _members(result["S"].strip("{}"))
        alternative = set(_members(result["T"].strip("{}")))
        utility = [len(ballots[i] & committee) for i in coalition]
        if axiom == "core":
            gains = all(len(ballots[i] & alternative) > u for i, u in zip(coalition, utility))
        else:
            gains = all(
                alternative <= ballots[i] and u < len(alternative)
                for i, u in zip(coalition, utility)
            )
        if not alternative or not gains or len(coalition) * k < len(alternative) * n:
            return [f"witness S={result['S']} T={result['T']} does not block"]
    return []


def _search_problems(report, result, abcvote) -> list[str]:
    if report["exit"] != 0:
        return [f"exit {report['exit']}"]
    if result["hit"] == "none found":
        return []
    m, n, k, _ = read_instance(report["stdout"])
    if n > SEARCH_LIMITS["n"] or m > SEARCH_LIMITS["m"] or k > SEARCH_LIMITS["k"]:
        return [f"hit of size n={n} m={m} k={k} exceeds the limits"]
    instance = abcvote.parse_instance(report["stdout"])
    committee = abcvote.phragmen_sequential(instance).committee
    if abcvote.check_ejr(instance, committee) is None:
        return ["hit does not violate EJR under brute-force re-check"]
    return []
