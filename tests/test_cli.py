"""Command-line interface: golden outputs and exit codes.

Every test but three drives ``abcvote.cli.main`` in-process with capsys;
the fixture files under fixtures/ are the same ones the generators
write.  The three exceptions run in a child process: the walks on inputs
a thousand entries deep under a low recursion limit, ``repro`` under
``python -S``, to see that it imports only the standard library, and one
command line of each subcommand, to see that none builds the argparse
parser.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcvote import axioms, cli
from abcvote.axioms import (
    check_core_subject_to,
    check_ejr,
    check_pareto,
    check_pigou_dalton,
    check_pjr,
    check_priceable,
    find_core_deviation,
)
from abcvote.cli import main
from abcvote.generators import (
    fixture,
    gen_laminar,
    gen_rulex_lower_bound,
    gen_theorem51_family,
)
from abcvote.laminar import check_laminar, check_laminar_proportional
from abcvote.model import (
    SearchBudgetExceeded,
    format_committee,
    format_rational,
    instance_digest,
    parse_instance,
    restrict_profile,
    serialize_instance,
)
from abcvote.rules import phragmen_sequential, rule_x, seq_pav

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's help and flag errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.txt")


def test_run_phragmen_blocks_instance(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--rule", "phragmen", "--input", fixture_path("example21")
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["committee"] == "1,2,4,5"
    assert lines["elected"] == "1,4,2,5"
    assert lines["times"] == "5/16,19/32,101/128,283/256"


def test_run_rulex_blocks_instance(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--rule", "rulex", "--input", fixture_path("example22")
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["committee"] == "1,2,3,4"
    assert lines["q"] == "5/16,5/16,3/8,1"


def test_run_pav_score_line(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--rule", "pav", "--input", fixture_path("phragmen1899")
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["score"] == "7850"
    assert lines["committee"] == "1,2,3,4,5"


def test_run_dhondt_party_list(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--rule", "dhondt", "--input", fixture_path("example31")
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["seats"] == "3,3,2"
    assert lines["committee"] == "1,2,3,4,5,6,7,8"


def test_run_dhondt_many_voters_on_two_slates(tmp_path, capsys):
    # 500 voters on slate {1,2} and 300 on {3,4,5}, interleaved so that the
    # slate seen first is not the one holding the smallest candidate
    ballots = ["3 4 5" if i % 8 < 3 else "1 2" for i in range(800)]
    path = tmp_path / "parties.txt"
    path.write_text("5 800 3\n" + "\n".join(ballots) + "\n")
    code, out, _ = run_cli(capsys, "run", "--rule", "dhondt", "--input", str(path))
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["seats"] == "2,1"
    assert lines["committee"] == "1,2,3"
    assert lines["welfare"] == ",".join("2" if b == "1 2" else "1" for b in ballots)
    path.write_text("5 801 3\n" + "\n".join(ballots) + "\n\n")
    code, _, err = run_cli(capsys, "run", "--rule", "dhondt", "--input", str(path))
    assert code == 2
    assert "apportionment needs non-empty ballots" in err


def test_run_dhondt_rejects_overlapping_slates(capsys):
    code, _, err = run_cli(
        capsys, "run", "--rule", "dhondt", "--input", fixture_path("intro")
    )
    assert code == 2
    assert "slate" in err


def test_run_json_matches_text_fields(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--rule",
        "pav",
        "--input",
        fixture_path("intro"),
        "--all-ties",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["score"] == "11"
    assert payload["committee"] == "1,2,3,7,8,9,10,11,12,13,14,15"
    assert payload["welfare"] == "3,3,3,3,3,3"


def test_run_catalogue_matches_golden(capsys):
    """The sequential rules' full reports on every fixture: one line per
    command, its argv with the fixture as ``fixtures/<name>.txt``, a tab,
    and the SHA-256 of its stdout."""
    lines = []
    for rule in ("seqpav", "phragmen", "rulex", "rulex-complete"):
        for path in sorted(FIXTURES.glob("*.txt")):
            argv = ["run", "--json", "--rule", rule, "--input", str(path)]
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            argv[-1] = f"fixtures/{path.name}"
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            lines.append(f"{' '.join(argv)}\t{digest}\n")
    golden = (GOLDEN / "run_catalogue.txt").read_text(encoding="utf-8")
    assert "".join(lines) == golden


#: Fixtures on which ``run --rule pav`` spends seconds before exit 3.
PAV_UNDECIDED = ("fig2_profile1", "fig2_profile2", "overlapping_parties", "propB1")


def test_run_pav_all_ties_matches_golden(capsys):
    """Exact PAV's full report, every optimum listed, on every fixture it
    decides: lines as in ``run_catalogue.txt``."""
    lines = []
    for path in sorted(FIXTURES.glob("*.txt")):
        if path.stem in PAV_UNDECIDED:
            continue
        argv = ["run", "--json", "--rule", "pav", "--all-ties", "--input", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        argv[-1] = f"fixtures/{path.name}"
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        lines.append(f"{' '.join(argv)}\t{digest}\n")
    golden = (GOLDEN / "run_pav.txt").read_text(encoding="utf-8")
    assert "".join(lines) == golden


def test_run_dhondt_matches_golden(capsys):
    """D'Hondt's report on the two party-list fixtures: lines as in
    ``run_catalogue.txt``."""
    lines = []
    for name in ("example31", "remarkA1"):
        argv = ["run", "--json", "--rule", "dhondt", "--input", fixture_path(name)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        argv[-1] = f"fixtures/{name}.txt"
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        lines.append(f"{' '.join(argv)}\t{digest}\n")
    golden = (GOLDEN / "run_dhondt.txt").read_text(encoding="utf-8")
    assert "".join(lines) == golden


def test_run_all_ties_needs_pav(capsys):
    for rule in ("seqpav", "phragmen", "rulex", "rulex-complete", "dhondt"):
        code, out, err = run_cli(
            capsys, "run", "--rule", rule, "--all-ties",
            "--input", fixture_path("example21"),
        )
        assert (code, out) == (2, "")
        assert err == "error: --all-ties applies only to --rule pav\n"


def test_run_money_rules_report_an_undersized_committee(tmp_path, capsys):
    # nobody approves candidates 2 and 3, so each money rule fills one seat
    path = tmp_path / "short.txt"
    path.write_text("3 2 2\n1\n1\n", encoding="ascii")
    for rule, paid in (
        ("phragmen", "times: 1/2"),
        ("rulex", "q: 1/2"),
        ("rulex-complete", "q: 1/2"),
    ):
        code, out, err = run_cli(capsys, "run", "--rule", rule, "--input", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == [
            "committee: 1",
            "elected: 1",
            paid,
            "undersized: 1 of 2 seats",
            "welfare: 1,1",
        ]


def test_run_missing_file_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "run", "--rule", "pav", "--input", str(FIXTURES / "absent.txt")
    )
    assert code == 2
    assert err.startswith("error:")


def test_run_directory_input_is_input_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--rule", "pav", "--input", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")


def test_run_malformed_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("bogus\n", encoding="ascii")
    code, _, err = run_cli(capsys, "run", "--rule", "pav", "--input", str(bad))
    assert code == 2
    assert "header" in err


def test_run_reads_lf_crlf_and_cr_endings_alike(tmp_path, capsys):
    # a comment, an indented ballot, an empty ballot and a trailing blank
    text = "# four candidates\n4 4 2\n1 2\n  1 2\n\n3 4\n\n"
    reports = []
    for name, ending in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(text.replace("\n", ending).encode("ascii"))
        reports.append(run_cli(capsys, "run", "--rule", "phragmen", "--input", str(path)))
    code, out, _ = reports[0]
    assert code == 0
    assert out.startswith(f"instance: {instance_digest(parse_instance(text))}\n")
    assert reports == [reports[0]] * 3


def test_run_non_ascii_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "accent.txt"
    path.write_bytes("3 2 1\n1 2\n1 é\n".encode("utf-8"))
    code, out, err = run_cli(capsys, "run", "--rule", "phragmen", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: 'ascii' codec can't decode byte 0xc3 in position 12: "
        "ordinal not in range(128)\n"
    )


def test_check_priceable_intro_committee(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--axiom",
        "priceable",
        "--input",
        fixture_path("intro"),
        "--committee",
        "1,2,3,7,8,10,11,13,14,4,5,6",
    )
    assert code == 0
    assert "verdict: PASS" in out


def test_check_priceable_matches_golden(capsys):
    """The priceability verdict and price of the Phragmén and Rule X
    committees on every fixture: lines as in ``run_catalogue.txt``, the
    full-spend certificate and the LP each answering some of them."""
    lines = []
    for rule in ("phragmen", "rulex"):
        for path in sorted(FIXTURES.glob("*.txt")):
            committee = cli.SEARCH_RULES[rule](parse_instance(path.read_text()))
            argv = ["check", "--json", "--axiom", "priceable", "--input", str(path),
                    "--committee", format_committee(committee)]
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            argv[5] = f"fixtures/{path.name}"
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            lines.append(f"{' '.join(argv)}\t{digest}\n")
    golden = (GOLDEN / "check_priceable.txt").read_text(encoding="utf-8")
    assert "".join(lines) == golden


#: The core family's axioms as ``check`` flags, in the order of
#: ``check_core.txt``.
CORE_FAMILY_FLAGS = (
    ("--axiom", "core"),
    ("--axiom", "lambda-core", "--lambda", "3/2"),
    ("--axiom", "core-subject", "--property", "cohesive"),
    ("--axiom", "core-subject", "--property", "price_eq"),
    ("--axiom", "core-subject", "--property", "priceable"),
    ("--axiom", "ejr"),
)


def test_check_core_matches_golden(capsys):
    """The witness of every core-family cell that fails, on each fixture
    with seq-PAV's committee, the first k and the last k candidates, at a
    budget of 2^16 nodes: lines as in ``run_catalogue.txt``."""
    lines = []
    for path in sorted(FIXTURES.glob("*.txt")):
        instance = parse_instance(path.read_text())
        m, k = instance.num_candidates, instance.committee_size
        for committee in (seq_pav(instance), range(k), range(m - k, m)):
            for flags in CORE_FAMILY_FLAGS:
                argv = ["check", "--json", *flags, "--input", f"fixtures/{path.name}",
                        "--committee", format_committee(committee), "--budget", "65536"]
                at = argv.index("--input") + 1
                code, out, _ = run_cli(capsys, *argv[:at], str(path), *argv[at + 1:])
                assert code in (0, 1, 3), argv
                if code == 1:
                    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
                    lines.append(f"{' '.join(argv)}\t{digest}\n")
    golden = (GOLDEN / "check_core.txt").read_text(encoding="utf-8")
    assert "".join(lines) == golden


def test_check_core_failure_names_coalition(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--axiom",
        "core",
        "--input",
        fixture_path("intro"),
        "--committee",
        "1,2,3,7,8,9,10,11,12,13,14,15",
    )
    assert code == 1
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["verdict"] == "FAIL"
    assert lines["S"] == "{1,2,3}"


def test_check_laminar_needs_no_committee(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--axiom", "laminar", "--input", fixture_path("example31")
    )
    assert code == 0
    assert "verdict: PASS" in out


def test_check_laminar_on_a_thousand_shared_candidates(tmp_path, capsys):
    shared = " ".join(str(c) for c in range(1, 1001))
    path = tmp_path / "shared.txt"
    path.write_text(f"1002 2 1000\n{shared} 1001\n{shared} 1002\n")
    code, out, err = run_cli(capsys, "check", "--axiom", "laminar", "--input", str(path))
    assert (code, err) == (0, "")
    assert "verdict: PASS" in out.splitlines()


# ---------------------------------------------------------------------------
# deep walks: inputs on which a walk stacks a thousand entries or more, as
# many as Python's default recursion limit has frames

#: One voter approves candidate 1000 and the other nothing; k = 1.
DEEP_PAV = "1000 2 1\n1000\n\n"
#: 1,200 voters all approve 1 and 2; k = 1.  Against committee {3} the
#: PJR walk stacks all 1,200 voters before the group is large enough.
DEEP_PJR = "3 1200 1\n" + "1 2\n" * 1200
#: 2 voters both approve all 1,100 candidates; k = 1100.  Against committee
#: 1..999 the EJR walk stacks a prefix of 1,000 candidates.
DEEP_EJR = "1100 2 1100\n" + (" ".join(map(str, range(1, 1101))) + "\n") * 2
DEEP_EJR_COMMITTEE = ",".join(map(str, range(1, 1000)))


def test_run_pav_on_a_thousand_candidates(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text(DEEP_PAV)
    code, out, err = run_cli(capsys, "run", "--rule", "pav", "--input", str(path))
    assert (code, err) == (0, "")
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert (lines["score"], lines["committee"]) == ("1", "1000")


def test_check_pjr_stacks_twelve_hundred_voters(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text(DEEP_PJR)
    code, out, err = run_cli(
        capsys, "check", "--axiom", "pjr", "--input", str(path),
        "--committee", "3",
    )
    assert (code, err) == (1, "")
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["verdict"] == "FAIL"
    assert lines["S"] == "{" + ",".join(map(str, range(1, 1201))) + "}"
    assert lines["T"] == "{1}"


def test_check_ejr_stacks_a_thousand_candidates(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text(DEEP_EJR)
    code, out, err = run_cli(
        capsys, "check", "--axiom", "ejr", "--input", str(path),
        "--committee", DEEP_EJR_COMMITTEE,
    )
    assert (code, err) == (1, "")
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["verdict"] == "FAIL"
    assert lines["S"] == "{1,2}"
    assert lines["T"] == "{" + ",".join(map(str, range(1, 1001))) + "}"


LOW_RECURSION_LIMIT_SCRIPT = """
import sys
from abcvote.axioms import check_ejr, check_pjr, find_core_deviation
from abcvote.model import format_committee, parse_instance
from abcvote.rules import pav_winners

pav, pjr, ejr = (parse_instance(text) for text in sys.argv[1:4])
sys.setrecursionlimit(120)
(winner,) = pav_winners(pav)
runs = (
    ("pav", pav, winner),
    ("pjr", pjr, frozenset({2})),
    ("ejr", ejr, frozenset(range(999))),
)
print("pav_winners", format_committee(winner))
for name, inst, committee in runs:
    for check in (check_pjr, check_ejr, find_core_deviation):
        found = check(inst, committee)
        sizes = "-" if found is None else f"{len(found.coalition)}x{len(found.alternative)}"
        print(name, check.__name__, sizes)
"""


def test_deep_walks_run_under_a_low_recursion_limit():
    """pav_winners and the PJR, EJR and core walks loop instead of
    recursing, so a recursion limit of 120 frames does not stop them on
    inputs a thousand entries deep."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))
    ))
    done = subprocess.run(
        [sys.executable, "-c", LOW_RECURSION_LIMIT_SCRIPT, DEEP_PAV, DEEP_PJR, DEEP_EJR],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    # |S| x |T| of each witness, "-" for none
    assert done.stdout.splitlines() == [
        "pav_winners 1000",
        "pav check_pjr -",
        "pav check_ejr -",
        "pav find_core_deviation -",
        "pjr check_pjr 1200x1",
        "pjr check_ejr 1200x1",
        "pjr find_core_deviation 1200x1",
        "ejr check_pjr -",
        "ejr check_ejr 2x1000",
        "ejr find_core_deviation 2x1000",
    ]


#: Run with ``python -S``: imports the command line, runs ``repro`` and
#: prints the exit code and the top-level modules loaded from outside the
#: standard library.
STDLIB_ONLY_SCRIPT = """
import contextlib, io, sys
from abcvote import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["repro"])
loaded = {name.partition(".")[0] for name in sys.modules}
print(code, sorted(loaded - set(sys.stdlib_module_names) - {"abcvote", "__main__"}))
"""


def test_runtime_imports_only_the_standard_library():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c", STDLIB_ONLY_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout == "0 []\n"


def test_check_lambda_core_requires_lambda(capsys):
    code, _, err = run_cli(
        capsys,
        "check",
        "--axiom",
        "lambda-core",
        "--input",
        fixture_path("intro"),
        "--committee",
        "1,2,3,4,5,6,7,8,9,10,11,12",
    )
    assert code == 2
    assert "lambda" in err


@pytest.mark.parametrize(
    "flag,value,axiom,owner",
    [
        ("--lambda", "3/2", "core", "lambda-core"),
        ("--property", "cohesive", "ejr", "core-subject"),
    ],
)
def test_check_flag_of_another_axiom_is_input_error(capsys, flag, value, axiom, owner):
    code, out, err = run_cli(
        capsys,
        "check",
        "--axiom",
        axiom,
        "--input",
        fixture_path("intro"),
        "--committee",
        "1,2,3,4,5,6,7,8,9,10,11,12",
        flag,
        value,
    )
    assert (code, out) == (2, "")
    assert err == f"error: {flag} applies only to --axiom {owner}\n"


def test_check_core_subject_priceable_without_witness_is_undecided(
    monkeypatch, capsys
):
    # every gaining group then fails the priceability test, and a smaller
    # coalition, which the checker does not try, might pass it
    monkeypatch.setattr(axioms, "check_priceable", lambda instance, committee: None)
    code, out, err = run_cli(
        capsys,
        "check",
        "--axiom",
        "core-subject",
        "--input",
        fixture_path("intro"),
        "--committee",
        "1,2,3,4,5,6,7,8,9,10,11,12",
        "--property",
        "priceable",
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: undecided: ")


@pytest.mark.parametrize("lam", ["1/0", "x"])
def test_check_lambda_core_bad_lambda_is_flag_error(capsys, lam):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "check",
                "--axiom",
                "lambda-core",
                "--input",
                fixture_path("intro"),
                "--committee",
                "1,2,3,4,5,6,7,8,9,10,11,12",
                "--lambda",
                lam,
            ]
        )
    assert exc.value.code == 2
    assert "argument --lambda" in capsys.readouterr().err


def test_check_lambda_core_scaled_endowment_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--axiom",
        "lambda-core",
        "--input",
        fixture_path("intro"),
        "--committee",
        "1,2,3,7,8,9,10,11,12,13,14,15",
        "--lambda",
        "3/2",
    )
    assert code == 0
    assert "verdict: PASS" in out


def test_check_committee_flag_accepts_any_order(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--axiom",
        "pjr",
        "--input",
        fixture_path("example21"),
        "--committee",
        "5,1,4,2",
    )
    assert code == 0
    assert "verdict: PASS" in out


def test_check_committee_flag_rejects_duplicates(capsys):
    code, _, err = run_cli(
        capsys,
        "check",
        "--axiom",
        "pjr",
        "--input",
        fixture_path("example21"),
        "--committee",
        "1,1,2,3",
    )
    assert code == 2
    assert "duplicate" in err


def test_check_budget_exhaustion_is_exit_three(capsys):
    code, _, err = run_cli(
        capsys,
        "check",
        "--axiom",
        "core-subject",
        "--input",
        fixture_path("propB1"),
        "--committee",
        ",".join(str(c) for c in range(1, 21)),
        "--property",
        "price_eq",
        "--budget",
        "1000",
    )
    assert code == 3
    assert err == (
        "error: search visited more nodes than its budget of 1000; "
        "the instance is too large for exact analysis\n"
    )


#: Checker cells (instance, rule whose committee is checked, axiom) that
#: a refusal of more than 2^m candidate sets (2^n voter sets for PJR) up
#: front left at exit 3, and that their walks decide within the default
#: node budget.  The instances are catalogue fixtures and two of the
#: paper's families.  On a 2-CPU x86-64 host all take milliseconds but
#: six: propB1's Rule X 3/2-core about 3 s, and propB1's Phragmen core
#: and the four core and 3/2-core cells of gen_theorem51_family(4, 2)
#: 0.1-0.8 s each.
NODE_BUDGET_DECIDES = [
    (source, rule, axiom)
    for source, axioms, rules in (
        ("thm32_instance1", ("ejr", "core", "3/2"), ("phragmen", "rulex")),
        ("thm32_instance2", ("ejr", "core", "3/2"), ("phragmen", "rulex")),
        ("fig2_profile1", ("ejr",), ("phragmen", "rulex")),
        ("fig2_profile2", ("ejr",), ("phragmen", "rulex")),
        ("fig4_profile1", ("ejr", "3/2"), ("phragmen", "rulex")),
        ("fig4_profile2", ("ejr", "core", "3/2"), ("phragmen", "rulex")),
        ("fig4_profile3", ("ejr", "core", "3/2"), ("phragmen", "rulex")),
        ("propB1", ("ejr", "3/2"), ("phragmen", "rulex")),
        ("propB1", ("core",), ("phragmen",)),
        ("overlapping_parties", ("ejr", "3/2"), ("phragmen", "rulex")),
        ("overlapping_parties", ("core",), ("rulex",)),
        ("gen_rulex_lower_bound(3, 1)", ("pjr", "ejr"), ("phragmen", "rulex")),
        ("gen_rulex_lower_bound(3, 1)", ("3/2",), ("phragmen",)),
        ("gen_theorem51_family(4, 2)", ("ejr", "core", "3/2"), ("phragmen", "rulex")),
    )
    for axiom in axioms
    for rule in rules
]
PAPER_FAMILIES = {
    "gen_rulex_lower_bound(3, 1)": lambda: gen_rulex_lower_bound(3, 1),
    "gen_theorem51_family(4, 2)": lambda: gen_theorem51_family(4, 2),
}
AXIOM_FLAGS = {
    "pjr": ("--axiom", "pjr"),
    "ejr": ("--axiom", "ejr"),
    "core": ("--axiom", "core"),
    "3/2": ("--axiom", "lambda-core", "--lambda", "3/2"),
}


@pytest.mark.parametrize("source,rule,axiom", NODE_BUDGET_DECIDES)
def test_node_budget_decides_the_cell(source, rule, axiom, tmp_path, capsys):
    inst = PAPER_FAMILIES[source]() if source in PAPER_FAMILIES else fixture(source)
    path = tmp_path / "instance.txt"
    path.write_text(serialize_instance(inst))
    committee = format_committee(cli.SEARCH_RULES[rule](inst))
    code, out, err = run_cli(
        capsys, "check", *AXIOM_FLAGS[axiom], "--input", str(path), "--committee", committee
    )
    assert (code, err) == (0, "")
    assert "verdict: PASS" in out.splitlines()


def test_check_rejects_committee_above_size_bound(capsys):
    code, out, err = run_cli(
        capsys,
        "check",
        "--axiom",
        "core",
        "--input",
        fixture_path("example21"),
        "--committee",
        "1,2,3,4,5",
    )
    assert code == 2
    assert out == ""
    assert err == "error: committee has 5 members, size bound is 4\n"


def test_check_price_eq_coalition_leaves_out_an_overspender(tmp_path, capsys):
    # voter 7 gains from T = {1,2,3} but overspends in equal shares;
    # voters 1-6 pay theirs
    path = tmp_path / "overspender.txt"
    path.write_text(
        "7 8 4\n1 2 4\n1 2 4\n2 3 5\n2 3 5\n1 3 6\n1 3 6\n1 2 3 4 5\n7\n"
    )
    code, out, err = run_cli(
        capsys, "check", "--axiom", "core-subject", "--property", "price_eq",
        "--input", str(path), "--committee", "4,5,6,7",
    )
    assert (code, err) == (1, "")
    assert out.splitlines()[2:] == ["verdict: FAIL", "S: {1,2,3,4,5,6}", "T: {1,2,3}"]


def test_readme_transcripts(monkeypatch, capsys):
    # every README command shown with its output, run from the repo root
    text = README.read_text(encoding="utf-8")
    transcripts = re.findall(r"```sh\n(abcvote [^`]*)\n```\n\n```\n([^`]*)```", text)
    assert [command.split()[1] for command, _ in transcripts] == ["run", "check"]
    monkeypatch.chdir(README.parent)
    for command, shown in transcripts:
        main(command.replace("\\\n", " ").split()[1:])
        assert capsys.readouterr() == (shown, "")


def test_check_laminar_still_validates_a_given_committee(capsys):
    code, _, err = run_cli(
        capsys,
        "check",
        "--axiom",
        "laminar",
        "--input",
        fixture_path("example31"),
        "--committee",
        "1,1",
    )
    assert code == 2
    assert "duplicate" in err


def test_check_laminar_prop_rejects_non_laminar_instance(capsys):
    code, out, err = run_cli(
        capsys,
        "check",
        "--axiom",
        "laminar-prop",
        "--input",
        fixture_path("example21"),
        "--committee",
        "1,2,4,5",
    )
    assert code == 2
    assert out == ""
    assert err == "error: the instance is not laminar\n"


def test_check_axioms_are_the_readme_list_in_order():
    text = README.read_text(encoding="utf-8")
    sentence = text.split("`--axiom` is one of ", 1)[1].split(".", 1)[0]
    assert cli.CHECK_AXIOMS == tuple(re.findall(r"`([a-z-]+)`", sentence))


def test_check_help_and_unknown_axiom_list_the_axioms_in_order(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    assert "{" + ",".join(cli.CHECK_AXIOMS) + "}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exited:
        main(["check", "--axiom", "bogus", "--input", fixture_path("intro")])
    assert exited.value.code == 2
    offered = capsys.readouterr().err.split("choose from", 1)[1]
    assert re.findall(r"[a-z][a-z-]*", offered) == list(cli.CHECK_AXIOMS)


#: Command lines that argparse reads, not the plain reader: an
#: abbreviation, ``--flag=value``, a repeated flag, ``--`` and a value
#: starting with ``-``; each with the exit code, stdout and stderr it gave
#: before the plain reader existed.
EXAMPLE41_PAV = (
    "instance: 31d4995db124cc2bf423b28fa832b804736aee57d8a7a8a88c91e7ca71e3b2a3\n"
    "rule: pav\n"
    "score: 25/3\n"
    "committee: 5,6,7,8\n"
)
FALLBACK_FORMS = {
    "abbreviation": (
        ("run", "--rule", "pav", "--input", fixture_path("example41"), "--all"),
        (0, EXAMPLE41_PAV + "ties: 5,6,7,8\nwelfare: 4,4,4,4\n", ""),
    ),
    "equals": (
        ("run", "--rule=pav", "--input", fixture_path("example41")),
        (0, EXAMPLE41_PAV + "welfare: 4,4,4,4\n", ""),
    ),
    "repeated": (
        ("run", "--rule", "rulex", "--rule", "pav", "--input", fixture_path("example41")),
        (0, EXAMPLE41_PAV + "welfare: 4,4,4,4\n", ""),
    ),
    "double-dash": (
        ("run", "--rule", "pav", "--input", fixture_path("example41"), "--"),
        (
            2,
            "",
            "usage: abcvote [-h] {run,check,search,repro} ...\n"
            "abcvote: error: unrecognized arguments: --\n",
        ),
    ),
    "negative-value": (
        ("search", "--violation", "ejr-phragmen", "--max-n", "4", "--max-m", "3",
         "--max-k", "2", "--trials", "20", "--seed", "-3"),
        (0, "none found\n", ""),
    ),
}


@pytest.mark.parametrize("form", FALLBACK_FORMS)
def test_fallback_forms_read_as_before(form, capsys):
    argv, expected = FALLBACK_FORMS[form]
    assert cli._read_plain(argv) is None
    assert run_cli(capsys, *argv) == expected


ALL_FLAGS = sorted({name for _, _, flags in cli.COMMANDS.values() for name, _, _ in flags})
#: Words that are no flag of any subcommand, and values that the plain
#: form refuses, or that no flag's type or choices accept, or that they
#: accept in a form of their own.
ODD_WORDS = ("-h", "--help", "--", "-x", "bogus", "")
ODD_VALUES = ("", "x", "1/0", "-3", "-x", "--json", "3.5", " 7", "0x1", "PAV", "bogus")


def plain_values(options):
    """Values of one flag that the plain form takes: accepted by the
    flag's type and choices, and not starting with ``-``."""
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if options.get("type") is int:
        return st.integers(0, 10**9).map(str)
    if options.get("type") is not None:  # --lambda's rational
        return st.fractions(min_value=0).map(str)
    return st.from_regex(r"[a-z0-9./,]+", fullmatch=True)


#: How ``command_lines`` changes a plain command line, None for not at all.
CHANGES = (
    None, None, None, "drop", "abbreviate", "equals", "twice", "bare",
    "odd value", "odd value", "extra word", "subcommand",
)


@st.composite
def command_lines(draw):
    """An argv of the plain form built from ``cli.COMMANDS`` (a
    subcommand, then each of its flags at most once, spelled exactly, with
    a plain value, and every required flag there) and the name of one
    change made to it, or None: a flag dropped, abbreviated, written as
    ``--flag=value``, given twice, without its value or with an odd one,
    an odd word or any flag put in, or another subcommand named."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    given_flags = []
    for name, _, options in draw(st.permutations(cli.COMMANDS[command][2])):
        if options.get("required") or draw(st.booleans()):
            switch = options.get("action") == "store_true"
            given_flags.append([name] + ([] if switch else [draw(plain_values(options))]))
    change = draw(st.sampled_from(CHANGES))
    if given_flags and change not in (None, "extra word", "subcommand"):
        at = draw(st.integers(0, len(given_flags) - 1))
        name, *value = given_flags[at]
        if change == "drop":
            given_flags[at] = []
        elif change == "abbreviate":
            given_flags[at] = [name[: draw(st.integers(3, len(name) - 1))], *value]
        elif change == "equals":
            given_flags[at] = [f"{name}={(value or ['x'])[0]}"]
        elif change == "twice":
            given_flags[at] = [name, *value, name, *value]
        elif change == "bare":
            given_flags[at] = [name]
        else:
            given_flags[at] = [name, draw(st.sampled_from(ODD_VALUES))]
    elif change is not None:
        change = draw(st.sampled_from(("extra word", "subcommand")))
    argv = [command] + [word for words in given_flags for word in words]
    if change == "extra word":
        word = draw(st.sampled_from((*ODD_WORDS, *ALL_FLAGS)))
        argv.insert(draw(st.integers(1, len(argv))), word)
    elif change == "subcommand":
        argv[0] = draw(st.sampled_from((*ODD_WORDS, *cli.COMMANDS)))
    return argv, change


@settings(max_examples=500, deadline=None)
@given(command_lines())
def test_plain_reader_agrees_with_argparse(drawn):
    argv, change = drawn
    read = cli._read_plain(argv)
    if change is None:
        assert read is not None
    quiet = io.StringIO()
    try:
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            parsed = cli.build_parser().parse_args(argv)
    except SystemExit:
        assert read is None
    else:
        assert read is None or read == parsed


#: One plain command line of each subcommand in a fresh process: their
#: exit codes, and whether ``locale`` got imported, which building an
#: argparse parser does (its help strings go through ``gettext``).
NO_PARSER_SCRIPT = """
import contextlib, io, sys
from abcvote import cli

commands = (
    ["run", "--rule", "phragmen", "--input", "fixtures/example21.txt"],
    ["check", "--axiom", "ejr", "--input", "fixtures/example21.txt",
     "--committee", "1,2,4,5", "--json"],
    ["search", "--violation", "ejr-phragmen", "--max-n", "4", "--max-m", "3",
     "--max-k", "2", "--trials", "20"],
    ["repro"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in commands]
print(codes, "locale" in sys.modules)
"""


def test_plain_command_lines_build_no_parser():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", NO_PARSER_SCRIPT],
        cwd=README.parent, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout == "[0, 0, 0, 0] False\n"


#: Standard modules that only ``dataclasses`` (or another user of
#: ``inspect``) would load: about 20 ms of start-up that no command needs.
INTROSPECTION_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_import_loads_no_introspection_modules():
    # -S: no ``site``, so nothing but abcvote's own imports is loaded
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys, abcvote.cli; "
        f"print(sorted(set({INTROSPECTION_MODULES!r}) & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout == "[]\n"


def test_axiom_tables_name_known_axioms_and_rules():
    for name in (*cli.CHECK_AXIOMS, *cli.SEARCH_AXIOMS, *cli.MATRIX):
        assert name in cli.AXIOM_CHECKS
    assert set(cli.MATRIX_RULES) <= set(cli.SEARCH_RULES)
    for rules in cli.MATRIX.values():
        assert set(rules) <= set(cli.MATRIX_RULES)


COMMITTEE_RULES = {
    "phragmen": lambda inst: phragmen_sequential(inst).committee,
    "rulex": lambda inst: rule_x(inst).committee,
    "seqpav": seq_pav,  # welfarist: gives the FAIL verdicts their witnesses
}
LAMINAR_SEEDS = (0, 1, 3)


def library_verdict(axiom, inst, committee):
    """The library checker's result, formatted the way ``check`` reports it."""

    def deviation(found):
        if found is None:
            return "PASS", []
        voters = ",".join(str(i + 1) for i in sorted(found.coalition))
        alternative = format_committee(found.alternative)
        return "FAIL", [f"S: {{{voters}}}", f"T: {{{alternative}}}"]

    def better(label, found):
        if found is None:
            return "PASS", []
        return "FAIL", [f"{label}: {format_committee(found)}"]

    if axiom == "priceable":
        system = check_priceable(inst, committee)
        if system is None:
            return "FAIL", []
        return "PASS", [f"price: {format_rational(system.price)}"]
    if axiom == "laminar":
        return ("PASS" if check_laminar(inst) is not None else "FAIL"), []
    if axiom == "laminar-prop":
        return ("PASS" if check_laminar_proportional(inst, committee) else "FAIL"), []
    if axiom == "pjr":
        return deviation(check_pjr(inst, committee))
    if axiom == "ejr":
        return deviation(check_ejr(inst, committee))
    if axiom == "core":
        return deviation(find_core_deviation(inst, committee))
    if axiom == "lambda-core":
        return deviation(find_core_deviation(inst, committee, Fraction(3, 2)))
    if axiom == "core-subject":
        return deviation(check_core_subject_to(inst, committee, "price_eq"))
    if axiom == "pigou-dalton":
        return better("transfer", check_pigou_dalton(inst, committee))
    assert axiom == "pareto"
    return better("dominating", check_pareto(inst, committee))


@pytest.mark.parametrize("rule", sorted(COMMITTEE_RULES))
@pytest.mark.parametrize(
    "axiom,source",
    [
        (axiom, source)
        for axiom in cli.CHECK_AXIOMS
        for source in (
            [f"laminar{seed}" for seed in LAMINAR_SEEDS]
            if axiom == "laminar-prop"
            else ["intro", "example21", "example32"]
        )
    ],
)
def test_check_reports_the_library_verdict(axiom, source, rule, tmp_path, capsys):
    if source.startswith("laminar"):
        inst = gen_laminar(int(source[len("laminar"):]), 3, 10, 4)
        path = tmp_path / "laminar.txt"
        path.write_text(serialize_instance(inst), encoding="ascii")
        path = str(path)
    else:
        inst, path = fixture(source), fixture_path(source)
    committee = COMMITTEE_RULES[rule](inst)
    typed = ",".join(str(c + 1) for c in sorted(committee, reverse=True))
    argv = ["check", "--axiom", axiom, "--input", path, "--committee", typed]
    if axiom == "lambda-core":
        argv += ["--lambda", "3/2"]
    if axiom == "core-subject":
        argv += ["--property", "price_eq"]
    code, out, err = run_cli(capsys, *argv)
    verdict, witness = library_verdict(axiom, inst, committee)
    assert err == ""
    assert code == (0 if verdict == "PASS" else 1)
    lines = out.splitlines()
    assert lines[1:3] == [f"axiom: {axiom}", f"verdict: {verdict}"]
    assert lines[3:] == witness


def test_search_finds_sequential_rule_representation_gap(capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        "--violation",
        "ejr-phragmen",
        "--max-n",
        "12",
        "--max-m",
        "10",
        "--max-k",
        "6",
        "--seed",
        "7",
        "--trials",
        "50",
    )
    assert code == 0
    instance = parse_instance(out)
    assert instance.num_voters <= 12
    assert instance.num_candidates <= 10
    committee = phragmen_sequential(instance).committee
    assert check_ejr(instance, committee) is not None


def test_search_benchmark_command_matches_golden(capsys):
    """The search the benchmark times, at its limits and seed 7."""
    code, out, err = run_cli(
        capsys, "search", "--violation", "ejr-phragmen", "--max-n", "12",
        "--max-m", "10", "--max-k", "6", "--seed", "7", "--trials", "4000",
    )
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "search_ejr_phragmen.txt").read_bytes()


def test_search_is_deterministic_for_a_seed(capsys):
    args = (
        "search", "--violation", "ejr-phragmen",
        "--max-n", "12", "--max-m", "10", "--max-k", "6",
        "--trials", "25",
    )
    _, first, _ = run_cli(capsys, *args, "--seed", "3")
    _, again, _ = run_cli(capsys, *args, "--seed", "3")
    assert first == again


def test_search_below_threshold_reports_none(capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        "--violation",
        "ejr-phragmen",
        "--max-n",
        "8",
        "--max-m",
        "8",
        "--max-k",
        "4",
        "--seed",
        "1",
        "--trials",
        "50",
    )
    assert code == 0
    assert out.strip() == "none found"


def test_search_pav_transfer_hunt_comes_up_empty(capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        "--violation",
        "pigou-dalton+pav",
        "--max-n",
        "6",
        "--max-m",
        "6",
        "--max-k",
        "3",
        "--seed",
        "3",
        "--trials",
        "150",
    )
    assert code == 0
    assert out.strip() == "none found"


def test_search_pav_doubled_endowment_core_hunt_comes_up_empty(capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        "--violation",
        "core2+pav",
        "--max-n",
        "6",
        "--max-m",
        "6",
        "--max-k",
        "3",
        "--seed",
        "3",
        "--trials",
        "150",
    )
    assert code == 0
    assert out.strip() == "none found"


def test_search_with_undecided_probes_and_no_hit_is_exit_three(capsys, monkeypatch):
    """The core checker decides every probe, up to 40 candidates, within
    the default budget, and none is a hit.  At a budget of one node the
    checker leaves probes undecided; with no hit among the rest, the
    search cannot say none exists."""
    argv = ("search", "--violation", "core+rulex", "--max-m", "40",
            "--trials", "20", "--seed", "1")
    assert run_cli(capsys, *argv) == (0, "none found\n", "")
    monkeypatch.setattr(cli, "DEFAULT_OPTIONS", argparse.Namespace(budget=1))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == (
        "error: nothing found, but 167 of 1298 probes exceeded the search budget\n"
    )


def test_search_counts_a_rule_over_budget_as_undecided(capsys, monkeypatch):
    """A rule that exceeds its budget leaves that probe undecided and the
    search goes on: it still finds a hit elsewhere, and without any hit it
    exits 3."""
    def over_budget(instance):
        raise SearchBudgetExceeded("node budget")

    def elect_nobody_beyond_one_candidate(instance):
        if instance.num_candidates == 1:
            over_budget(instance)
        return frozenset()

    argv = ("search", "--violation", "ejr+pav", "--max-n", "3", "--max-m", "3",
            "--trials", "5")
    monkeypatch.setitem(cli.SEARCH_RULES, "pav", elect_nobody_beyond_one_candidate)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert parse_instance(out).num_candidates == 2

    monkeypatch.setitem(cli.SEARCH_RULES, "pav", over_budget)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "nothing found" in err


def test_search_unknown_violation_is_input_error(capsys):
    code, _, err = run_cli(capsys, "search", "--violation", "sorcery")
    assert code == 2
    assert "unknown violation" in err


@pytest.mark.parametrize(
    "violation,message",
    [
        ("sorcery+pav", "error: search: unknown axiom 'sorcery'\n"),
        ("ejr+borda", "error: search: unknown rule 'borda'\n"),
        ("lambda-core+pav", "error: search: unknown axiom 'lambda-core'\n"),
        ("constrained-core+rulex", "error: search: unknown axiom 'constrained-core'\n"),
    ],
)
def test_search_unknown_axiom_or_rule_is_input_error(violation, message, capsys):
    code, out, err = run_cli(capsys, "search", "--violation", violation)
    assert code == 2
    assert out == ""
    assert err == message


def test_check_budget_below_one_is_input_error(capsys):
    code, out, err = run_cli(
        capsys, "check", "--axiom", "pjr", "--input", fixture_path("example21"),
        "--committee", "1", "--budget", "-1",
    )
    assert (code, out) == (2, "")
    assert err == "error: --budget must be at least 1, got -1\n"


@pytest.mark.parametrize(
    "flag,value,low",
    [("--max-n", "1", 2), ("--max-m", "1", 2), ("--max-k", "0", 1), ("--trials", "-1", 0)],
)
def test_search_flag_below_its_range_is_input_error(flag, value, low, capsys):
    code, out, err = run_cli(capsys, "search", "--violation", "ejr-phragmen", flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be at least {low}, got {value}\n"


def test_repro_is_green_and_deterministic(capsys):
    code, first, _ = run_cli(capsys, "repro")
    assert code == 0
    assert first.rstrip().endswith("ok")
    assert "FAIL" not in first
    code, again, _ = run_cli(capsys, "repro")
    assert code == 0
    assert first == again


#: The checkers the desk matrix calls, as ``cli`` names them.
DESK_CHECKERS = (
    "check_priceable",
    "check_pjr",
    "check_ejr",
    "check_core_subject_to",
    "check_pareto",
    "check_pigou_dalton",
    "check_laminar_proportional",
    "minimal_core_lambda",
)


def test_desk_matrix_decides_each_cell_once(monkeypatch, capsys):
    # rules that elect the same committee on a suite instance share one
    # call of each checker; every checker but the laminar one runs on the
    # whole suite, and there once per distinct (position, committee)
    suites = []
    make_suite = cli._desk_suite
    monkeypatch.setattr(
        cli, "_desk_suite", lambda: suites.append(make_suite()) or suites[0]
    )
    calls = {name: [] for name in DESK_CHECKERS}
    for name in DESK_CHECKERS:
        def spy(instance, committee, *args, _seen=calls[name],
                _check=getattr(cli, name), **kwargs):
            _seen.append((instance, committee))
            return _check(instance, committee, *args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    code, _, _ = run_cli(capsys, "repro")
    assert code == 0
    (suite,) = suites
    distinct = {
        (pos, cli.SEARCH_RULES[rule](instance))
        for pos, instance in enumerate(suite)
        for rule in cli.MATRIX_RULES
    }
    assert len(distinct) < len(cli.MATRIX_RULES) * len(suite)
    at = {id(instance): pos for pos, instance in enumerate(suite)}
    for name, seen in calls.items():
        keys = [(id(instance), committee) for instance, committee in seen]
        assert len(set(keys)) == len(keys), name
        if name != "check_laminar_proportional":
            on_suite = {(at[i], w) for i, w in keys if i in at}
            assert on_suite == distinct, name


def test_repro_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "repro")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "repro.txt").read_bytes()


def test_repro_priceable_deviation_fact_can_fail(monkeypatch, capsys):
    # voters 0-39 of propB1 approve none of candidates 28-35, so no price
    # system over their ballots pays for the sixteen; repro's fact is the
    # checker's answer, and on that profile it reads False
    alternative = frozenset(range(20, 36))
    early = restrict_profile(fixture("propB1"), range(40), len(alternative))
    assert not any(early.approver_masks[c] for c in range(28, 36))
    assert check_priceable(early, alternative) is None
    def first_forty(instance, voters, k):
        return restrict_profile(instance, range(40), k)

    monkeypatch.setattr(cli, "restrict_profile", first_forty)
    code, out, _ = run_cli(capsys, "repro")
    assert code == 1
    assert (
        "FAIL large instance: deviation priceable: expected True, got False\n" in out
    )
    assert out.endswith("\n1 mismatches\n")


def test_repro_welfarist_row_can_fail(monkeypatch, capsys):
    # a rule that reads voter order: voter 0's first k approved candidates.
    # On fig2_profile1 it elects 1..57, with welfare (57, 3 x5, 0 x6); on
    # fig2_profile2 it elects voter 0's 57 private candidates, whose
    # welfare mirrored by the row's voter swap is (0 x6, 57, 0 x5)
    def voter_zero(instance):
        return frozenset(sorted(instance.approvals[0])[: instance.committee_size])

    row = "welfarist         ✓ by definition     {}   ✓ pair agrees"
    golden = (GOLDEN / "repro.txt").read_text(encoding="utf-8").splitlines()
    assert row.format("✓ pair agrees    ") in golden
    monkeypatch.setitem(cli.SEARCH_RULES, "phragmen", voter_zero)
    code, out, _ = run_cli(capsys, "repro")
    assert code == 1
    assert row.format("✗ paired profiles") in out.splitlines()


def test_repro_json_payload(capsys):
    code, out, _ = run_cli(capsys, "repro", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert any("bloc committee score" in line for line in payload["lines"])
