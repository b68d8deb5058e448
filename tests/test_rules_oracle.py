"""Differential tests: the integer kernels of ``abcvote.rules`` against the
plain ``Fraction`` implementations kept in ``tests/oracles.py``.

Every trace must agree in full (committees, election times, payments,
q-values and budget snapshots), and every rational in it must still be
a ``Fraction``.  Inputs are the catalogue, random instances,
instances with pooled ballots or planted clones, profiles of 65 to 200
voters (more bits than a machine word), and money-earning runs from
uneven starting balances; PAV scores are compared too.  PAV's walk branches in
its own order, so only its winners are compared with the oracle's, and
its node count is checked to be its own budget threshold and, on the
catalogue, at most the oracle's.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abcvote import rules
from abcvote.generators import FIXTURE_NAMES, fixture
from abcvote.model import DEFAULT_NODE_BUDGET, ElectionInstance, SearchBudgetExceeded
from tests import oracles
from tests.conftest import (
    affordable_q,
    assert_counts_nodes,
    cloned_instances,
    distinct_instances,
    instances,
    node_count,
    shared_ballot_instances,
    wide_instances,
)

F = Fraction

#: Fixtures small enough for the Fraction PAV search at its default budget.
FULL_PAV_FIXTURES = [
    name for name in FIXTURE_NAMES if fixture(name).num_candidates <= 30
]


def assert_fractions(values) -> None:
    assert all(type(v) is Fraction for v in values)


def values(trace) -> tuple:
    """What a money-earning trace says: the election order, times and
    payments."""
    return trace.elected, trace.election_times, trace.payments


def rule_x_values(trace) -> tuple:
    """What a budget-spending trace says: the election order, q-values and
    budgets."""
    return trace.elected, trace.q_values, trace.budgets


def assert_same_phragmen(inst: ElectionInstance) -> None:
    trace = rules.phragmen_sequential(inst)
    assert values(trace) == values(oracles.phragmen_sequential(inst))
    assert_fractions(trace.election_times)
    for step in trace.payments:
        assert_fractions(step.values())


def assert_same_rule_x(inst: ElectionInstance, tie_choices=None) -> None:
    full = rules.rule_x_complete(inst, tie_choices=tie_choices)
    reference = oracles.rule_x_complete(inst, tie_choices)
    assert rule_x_values(full) == rule_x_values(reference)
    assert_fractions(full.q_values)
    for snapshot in full.budgets:
        assert_fractions(snapshot)


def tied_at(inst: ElectionInstance, trace, step: int) -> list[int]:
    """The minimal-q tie set at ``step`` of an oracle Rule X trace, from
    the budgets it had before that step."""
    budgets = trace.budgets[step - 1] if step else (F(1),) * inst.num_voters
    price = F(inst.num_voters, inst.committee_size)
    return [
        c
        for c in inst.candidates
        if c not in trace.elected[:step]
        and oracles.min_affordable_q([budgets[i] for i in inst.approvers(c)], price)
        == trace.q_values[step]
    ]


def tie_sets(inst: ElectionInstance) -> list[tuple[int, list[int]]]:
    """(step, minimal-q tie set) along the default Rule X run, computed with
    the Fraction oracle."""
    trace = oracles.rule_x(inst)
    assert rule_x_values(rules.rule_x(inst)) == rule_x_values(trace)
    return [(step, tied_at(inst, trace, step)) for step in range(len(trace.q_values))]


def assert_same_rule_x_ties(inst: ElectionInstance, sample: int | None = None) -> None:
    """Agree on the default run and on every single-step tie choice along
    it (or on ``sample`` of them spread evenly, when there are more), and
    reject the same non-tied choice at the last step."""
    assert_same_rule_x(inst)
    ties = tie_sets(inst)
    choices = [(step, c) for step, tied in ties for c in tied]
    if sample is not None and len(choices) > sample:
        choices = choices[:: -(-len(choices) // sample)]
    for step, c in choices:
        assert_same_rule_x(inst, {step: c})
    if ties:
        step, tied = ties[-1]
        untied = [c for c in inst.candidates if c not in tied]
        if untied:
            for run in (rules.rule_x, oracles.rule_x):
                with pytest.raises(ValueError, match="tie set"):
                    run(inst, {step: untied[0]})


def pav_outcome(run, inst: ElectionInstance, node_budget: int):
    try:
        return run(inst, node_budget)
    except SearchBudgetExceeded:
        return "budget exceeded"


def assert_same_pav(inst: ElectionInstance, node_budget: int) -> None:
    assert pav_outcome(rules.pav_winners, inst, node_budget) == pav_outcome(
        oracles.pav_winners, inst, node_budget
    )


# ---------------------------------------------------------------------------
# catalogue


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_sequential_rules_match_oracle_on_catalogue(name):
    inst = fixture(name)
    assert_same_phragmen(inst)
    # up to 17466 tie choices per profile, at up to 0.4 s each: the random
    # instances below try every one, the catalogue an even sample
    assert_same_rule_x_ties(inst, sample=6)
    assert rules.seq_pav(inst) == oracles.seq_pav(inst)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_pav_score_matches_oracle_on_catalogue(name):
    inst = fixture(name)
    committees = {
        frozenset(),
        frozenset(inst.candidates),
        rules.phragmen_sequential(inst).committee,
        rules.rule_x(inst).committee,
        rules.seq_pav(inst),
    }
    for committee in committees:
        score = rules.pav_score(inst, committee)
        assert score == oracles.pav_score(inst, committee)
        assert type(score) is Fraction


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_pav_matches_oracle_on_catalogue_small_budgets(name):
    # a walk cut short by its budget never returns a partial list, and
    # wherever the oracle's index-order walk finishes, this one does too
    inst = fixture(name)
    for node_budget in (1, 10, 300):
        outcome = pav_outcome(rules.pav_winners, inst, node_budget)
        if outcome != "budget exceeded":
            assert outcome == oracles.pav_winners(inst)
        oracle_outcome = pav_outcome(oracles.pav_winners, inst, node_budget)
        if oracle_outcome != "budget exceeded":
            assert outcome == oracle_outcome


@pytest.mark.parametrize("name", FULL_PAV_FIXTURES)
def test_pav_matches_oracle_on_catalogue(name):
    assert_same_pav(fixture(name), DEFAULT_NODE_BUDGET)


@pytest.mark.parametrize("name", FULL_PAV_FIXTURES)
def test_pav_node_count_matches_oracle_at_threshold(name):
    # the walk gives up one node short of its own count N and at N gives
    # the oracle's list; the oracle's index-order walk with only the top-s
    # bound gives up at N - 1 too, so it visits at least N nodes
    inst = fixture(name)
    nodes = assert_counts_nodes(lambda budget: rules.pav_winners(inst, budget))
    assert rules.pav_winners(inst, nodes) == oracles.pav_winners(inst)
    with pytest.raises(SearchBudgetExceeded):
        oracles.pav_winners(inst, nodes - 1)


# ---------------------------------------------------------------------------
# random instances


#: Random ballots, or up to 30 voters drawing from a pool of three.
random_or_pooled = st.one_of(
    instances(), shared_ballot_instances(max_voters=30, max_candidates=8)
)


@settings(deadline=None, max_examples=200)
@given(random_or_pooled)
def test_phragmen_and_seq_pav_match_oracle(inst):
    assert_same_phragmen(inst)
    assert rules.seq_pav(inst) == oracles.seq_pav(inst)


@settings(deadline=None, max_examples=200)
@given(random_or_pooled)
def test_rule_x_matches_oracle_for_every_tie_choice(inst):
    assert_same_rule_x_ties(inst)


# ---------------------------------------------------------------------------
# planted clones: one head per clone class must give every candidate's answer


@settings(deadline=None, max_examples=200)
@given(cloned_instances())
def test_sequential_rules_match_oracle_with_clones(inst):
    assert_same_phragmen(inst)
    assert rules.seq_pav(inst) == oracles.seq_pav(inst)
    # every single-step tie choice, non-head clones among them
    assert_same_rule_x_ties(inst)


@settings(deadline=None, max_examples=100)
@given(cloned_instances())
def test_rule_x_matches_oracle_choosing_last_tied_at_every_step(inst):
    # the largest tied index at every step: the pick is a non-head clone
    # whenever its class has two unelected members; a pick can strand
    # money and end the run sooner
    choices: dict[int, int] = {}
    trace = oracles.rule_x(inst)
    while len(choices) < len(trace.q_values):
        step = len(choices)
        choices[step] = max(tied_at(inst, trace, step))
        trace = oracles.rule_x(inst, choices)
    assert_same_rule_x(inst, choices)


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(
        instances(max_voters=5, max_candidates=6),
        shared_ballot_instances(max_candidates=6),
        cloned_instances(),
    )
)
def test_pav_matches_oracle_and_counts_nodes(inst):
    # equal approval weights and repeated ballots are where the branching
    # order and the per-class bound act
    assert rules.pav_winners(inst) == oracles.pav_winners(inst)
    assert_counts_nodes(lambda budget: rules.pav_winners(inst, budget))


def in_walk_order(inst: ElectionInstance) -> ElectionInstance:
    """``inst`` with its candidates renamed so that index order is the
    order ``rules.pav_winners`` walks: most approvers first, ties by index."""
    weight = [sum(c in ballot for ballot in inst.approvals) for c in inst.candidates]
    order = sorted(inst.candidates, key=lambda c: (-weight[c], c))
    place = {c: p for p, c in enumerate(order)}
    ballots = tuple(frozenset(place[c] for c in ballot) for ballot in inst.approvals)
    return ElectionInstance(inst.num_candidates, inst.committee_size, ballots)


@settings(deadline=None, max_examples=100)
@given(
    st.one_of(
        instances(max_voters=5, max_candidates=6),
        shared_ballot_instances(max_candidates=6),
        cloned_instances(),
    )
)
def test_pav_never_needs_more_nodes_than_oracle_in_its_order(inst):
    # in the same order both walks find the same leaves first, and the
    # walk cuts wherever the oracle does and more: the class bound, and
    # a forced chain priced below ``best`` cut as one node where the
    # oracle takes it (2s + 1 nodes).  Against the oracle's
    # index order there is no such rule: 5 candidates, k = 3, ballots
    # {0}, {1, 2, 3, 4} twice take 39 nodes here and 35 there.
    nodes = node_count(lambda budget: rules.pav_winners(inst, budget))
    ordered = in_walk_order(inst)
    assert nodes <= node_count(lambda budget: oracles.pav_winners(ordered, budget))


budget_values = st.one_of(
    st.integers(0, 12), st.fractions(min_value=0, max_value=3, max_denominator=12)
)


@settings(deadline=None, max_examples=300)
@given(
    st.lists(budget_values, max_size=8),
    st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12),
)
def test_min_affordable_q_matches_oracle(budgets, price):
    # the kernel takes voter bitmasks per budget, the oracle every
    # supporter's budget
    q = affordable_q(budgets, price)
    assert q == oracles.min_affordable_q(budgets, price)
    assert q is None or type(q) is Fraction
    # scaled int budgets give the scaled q
    den = 12
    scaled = [int(b * den) for b in budgets]
    if all(b * den == s for b, s in zip(budgets, scaled)) and price * den % 1 == 0:
        scaled_q = affordable_q(scaled, int(price * den))
        assert scaled_q == (None if q is None else q * den)
        assert scaled_q is None or type(scaled_q) is Fraction


@st.composite
def priced_groups(draw):
    """Voters' budgets from a pool of at most three positive values, so
    that equal budgets are the rule and a single group is common; which
    of them support the candidate; and a price up to the supporters'
    money and a little over, so that some draws are unaffordable."""
    pool = draw(st.lists(st.fractions(F(1, 4), 2, max_denominator=4), min_size=1, max_size=3))
    budgets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    supports = draw(st.lists(st.booleans(), min_size=len(budgets), max_size=len(budgets)))
    money = sum((b for b, chosen in zip(budgets, supports) if chosen), F(0))
    price = draw(st.fractions(F(1, 12), money + 1, max_denominator=12))
    return budgets, supports, price


@settings(deadline=None, max_examples=300)
@given(priced_groups())
@example(([F(1, 2), F(1, 2), F(1)], [True, True, True], F(3, 2)))  # equal budgets at the split
@example(([F(1, 4), F(1, 2), F(1)], [True, False, True], F(5, 8)))  # split at a group with no supporter
@example(([F(1, 2), F(1)], [False, True], F(2)))  # unaffordable
@example(([F(1), F(1), F(1)], [True, False, True], F(3, 2)))  # a single group
def test_min_affordable_q_with_bystanders_matches_oracle(case):
    budgets, supports, price = case
    q = affordable_q(budgets, price, supports)
    mine = [b for b, chosen in zip(budgets, supports) if chosen]
    assert q == oracles.min_affordable_q(mine, price)


# ---------------------------------------------------------------------------
# more than 64 voters: the bitset kernels cross a machine word


@settings(deadline=None, max_examples=40)
@given(wide_instances())
def test_sequential_rules_match_oracle_on_wide_profiles(inst):
    assert_same_phragmen(inst)
    assert_same_rule_x(inst)
    assert rules.seq_pav(inst) == oracles.seq_pav(inst)


@settings(deadline=None, max_examples=15)
@given(wide_instances())
def test_rule_x_matches_oracle_for_every_tie_choice_on_wide_profiles(inst):
    assert_same_rule_x_ties(inst, sample=4)


# ---------------------------------------------------------------------------
# all-distinct ballots: by the last purchases the voters hold dozens of
# budgets, and a price check stops at the split, below most of them


@settings(deadline=None, max_examples=10)
@given(distinct_instances())
def test_rule_x_matches_oracle_on_distinct_ballots(inst):
    assert_same_rule_x_ties(inst, sample=3)


# ---------------------------------------------------------------------------
# PAV scores on pooled ballots, runs from uneven starting balances


@settings(deadline=None, max_examples=150)
@given(shared_ballot_instances(max_voters=30, max_candidates=8), st.data())
def test_pav_score_matches_oracle_on_pooled_ballots(inst, data):
    committee = data.draw(st.frozensets(st.sampled_from(inst.candidates)))
    assert rules.pav_score(inst, committee) == oracles.pav_score(inst, committee)


@st.composite
def continuations(draw, profiles=shared_ballot_instances(max_voters=30, max_candidates=8)):
    """An instance with pooled ballots, the candidates already elected, and
    uneven starting balances under which every other candidate's
    approvers hold less than the price n/k, as Rule X leaves them when it
    stops short."""
    inst = draw(profiles)
    n, k = inst.num_voters, inst.committee_size
    order = draw(st.permutations(inst.candidates))
    excluded = frozenset(order[: draw(st.integers(0, k - 1))])
    start = draw(
        st.lists(st.fractions(0, 1, max_denominator=12), min_size=n, max_size=n)
    )
    price = F(n, k)
    top = max(
        sum((start[i] for i in inst.approvers(c)), F(0))
        for c in inst.candidates
        if c not in excluded
    )
    if top >= price:
        start = [b * price / (2 * top) for b in start]
    return inst, start, excluded, k - len(excluded)


@settings(deadline=None, max_examples=150)
@given(continuations())
def test_phragmen_continuation_matches_oracle_from_uneven_balances(run):
    assert_same_continuation(run)


@settings(deadline=None, max_examples=15)
@given(continuations(wide_instances()))
def test_phragmen_continuation_matches_oracle_on_wide_profiles(run):
    assert_same_continuation(run)


def assert_same_continuation(run) -> None:
    inst, start, excluded, seats = run
    den = lcm(inst.committee_size, *[b.denominator for b in start])
    # the kernel starts from one voter bitmask per nonzero balance
    groups: dict[int, int] = {}
    for i, b in enumerate(start):
        if b:
            scaled = b.numerator * (den // b.denominator)
            groups[scaled] = groups.get(scaled, 0) | 1 << i
    trace, snapshots = rules._phragmen_run(inst, den, groups, excluded, seats)
    expected = oracles._phragmen_run(inst, list(start), F(0), excluded, seats)
    assert values(trace) == values(expected)
    assert tuple(
        tuple(rules._balances(snapshot)) for snapshot in snapshots
    ) == oracles.phragmen_balances(start, expected)


# ---------------------------------------------------------------------------
# oracle re-checks are asserts; conftest has them rewritten, so they hold
# under ``python -O`` too


def test_oracle_payment_check_survives_optimize():
    # the voter starts above the price, so the purchase overpays
    pair = ElectionInstance(1, 1, (frozenset({0}), frozenset({0})))
    with pytest.raises(AssertionError):
        oracles._phragmen_run(pair, [F(3), F(0)], F(0), frozenset(), 1)
