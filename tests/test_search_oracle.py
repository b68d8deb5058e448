"""Differential tests for ``abcvote search``.

``cli.cmd_search`` answers each enumerated profile once up to voter order
and hands a reordering the outcome of its first-seen twin.  That is sound
only because every search rule and every search axiom is anonymous; the
Hypothesis test checks this on independent and pooled ballots.  The
reference handler ``oracles.search_probing_everything`` runs the rule and
the checker on every instance, and ``cli.main`` must print the same
stdout and stderr, and exit with the same code, with either handler.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcvote import cli
from abcvote.model import ElectionInstance, SearchBudgetExceeded
from tests import oracles
from tests.conftest import instances, shared_ballot_instances
from tests.test_cli import run_cli

#: One violation per search axiom and per search rule, among them every
#: pair that finds a hit at these limits with seed 0 or 3.
VIOLATIONS = (
    "ejr-phragmen",
    "pjr+rulex",
    "pareto+seqpav",
    "pigou-dalton+phragmen",
    "pigou-dalton+rulex",
    "core+pav",
    "core2+phragmen",
    "priceable+pav",
    "priceable+seqpav",
)

COMMANDS = [
    ("search", "--violation", violation, "--max-n", "6", "--max-m", "6",
     "--max-k", "3", "--trials", "60", "--seed", seed)
    for violation in VIOLATIONS
    for seed in ("0", "3")
] + [
    ("search", "--violation", "core+rulex", "--max-m", "40", "--trials", "20",
     "--seed", "1"),
    ("search", "--violation", "ejr-phragmen", "--max-n", "12", "--max-m", "10",
     "--max-k", "6", "--trials", "300"),
]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_search_matches_probing_everything(argv, capsys, monkeypatch):
    fast = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "cmd_search", oracles.search_probing_everything)
    assert run_cli(capsys, *argv) == fast


def search_outcome(rule: str, axiom: str, instance: ElectionInstance):
    """The rule's committee and the axiom's verdict on it, or the marker of
    a budget overrun in either."""
    try:
        committee = cli.SEARCH_RULES[rule](instance)
    except SearchBudgetExceeded:
        return "rule over budget"
    try:
        violated, _ = cli.AXIOM_CHECKS[axiom](instance, committee, cli.DEFAULT_OPTIONS)
    except SearchBudgetExceeded:
        return committee, "checker over budget"
    return committee, violated


@st.composite
def reordered(draw):
    """An instance (n <= 8, m <= 6) and the same ballots in another voter
    order."""
    instance = draw(st.one_of(instances(8, 6), shared_ballot_instances(8, 6)))
    ballots = draw(st.permutations(instance.approvals))
    twin = ElectionInstance(instance.num_candidates, instance.committee_size, tuple(ballots))
    return instance, twin


@pytest.mark.parametrize("rule", sorted(cli.SEARCH_RULES))
@settings(max_examples=100, deadline=None)
@given(reordered())
def test_search_rules_and_axioms_ignore_voter_order(rule, pair):
    instance, twin = pair
    for axiom in cli.SEARCH_AXIOMS:
        assert search_outcome(rule, axiom, twin) == search_outcome(rule, axiom, instance)
