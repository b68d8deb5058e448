"""Tests for the voting rules: frozen hand-computed traces plus properties."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcvote import rules
from abcvote.generators import (
    FIXTURE_NAMES,
    fixture,
    gen_party_list,
    gen_theorem51_family,
)
from abcvote.model import (
    ElectionInstance,
    SearchBudgetExceeded,
    welfare_vector,
)
from abcvote.rules import (
    dhondt,
    min_affordable_q,
    pav_score,
    pav_winners,
    phragmen_sequential,
    rule_x,
    rule_x_complete,
    seq_pav,
)
from tests.conftest import (
    affordable_q,
    assert_counts_nodes,
    cloned_instances,
    instances,
    shared_ballot_instances,
)
from tests.oracles import clone_classes

F = Fraction


def party_seats(committee, candidates_per_party) -> tuple[int, ...]:
    seats, start = [], 0
    for size in candidates_per_party:
        seats.append(len([c for c in committee if start <= c < start + size]))
        start += size
    return tuple(seats)


def as_sorted_tuples(committees) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(w)) for w in committees)


# Two 0.6/0.4 camps sharing one candidate; the minority camp otherwise
# disjoint.  Candidate 0 is the shared one, 1-4 the majority's, 5-8 the
# minority's.
BIG_1899 = ElectionInstance(9, 5, [{0, 1, 2, 3, 4}] * 3000 + [{0, 5, 6, 7, 8}] * 1000)

# Five candidates, fifteen voters in four blocks; used for both sequential
# rules' worked traces.
BLOCKS_15 = ElectionInstance(
    5,
    4,
    [{0, 1, 2}] * 5 + [{0, 1, 2, 3, 4}] * 5 + [{0, 1, 3, 4}] * 2 + [{3, 4}] * 3,
)

# Six single-minded voter groups: three overlapping in {0,1,2} plus private
# picks 3/4/5, three with disjoint triples.
SIX_GROUPS = ElectionInstance(
    15,
    12,
    [
        {0, 1, 2, 3},
        {0, 1, 2, 4},
        {0, 1, 2, 5},
        {6, 7, 8},
        {9, 10, 11},
        {12, 13, 14},
    ],
)

# Four voters on a common block {0,1,2,3}, two on {0} plus a private tail.
SPLIT_TIE = ElectionInstance(8, 4, [{0, 1, 2, 3}] * 4 + [{0, 4, 5, 6, 7}] * 2)


# ---------------------------------------------------------------------------
# PAV


def test_harmonic_values():
    # one voter approving every candidate scores H(|W|)
    voter = ElectionInstance(5, 5, [range(5)])
    assert pav_score(voter, frozenset()) == 0
    assert pav_score(voter, frozenset({4})) == 1
    assert pav_score(voter, frozenset({0, 2, 4})) == F(11, 6)
    assert pav_score(voter, frozenset(range(5))) == F(137, 60)


def test_pav_score_big_instance():
    assert pav_score(BIG_1899, frozenset({0, 1, 2, 3, 4})) == 7850
    assert pav_score(BIG_1899, frozenset({0, 1, 2, 3, 5})) == 7750
    assert pav_score(BIG_1899, frozenset()) == 0


def test_pav_winners_big_instance_unique():
    assert pav_winners(BIG_1899) == [frozenset({0, 1, 2, 3, 4})]


def test_pav_winners_six_groups():
    winners = pav_winners(SIX_GROUPS)
    assert winners == [frozenset({0, 1, 2}) | frozenset(range(6, 15))]
    assert welfare_vector(SIX_GROUPS, winners[0]) == (3, 3, 3, 3, 3, 3)


def test_pav_winners_split_tie_contains_block():
    winners = pav_winners(SPLIT_TIE)
    assert frozenset({0, 1, 2, 3}) in winners
    assert all(pav_score(SPLIT_TIE, w) == F(31, 3) for w in winners)


def test_pav_winners_party_list_seats():
    inst = gen_party_list((3, 3, 4), (4, 4, 5), 10).instance
    winners = pav_winners(inst)
    assert len(winners) == 4 * 4 * 5
    assert all(party_seats(w, (4, 4, 5)) == (3, 3, 4) for w in winners)


def test_pav_winners_symmetric_tie():
    inst = ElectionInstance(2, 1, [{0}, {1}])
    assert as_sorted_tuples(pav_winners(inst)) == [(0,), (1,)]


def test_pav_winners_sorted_though_found_out_of_order():
    # 4 and 5 have the most approvals, so the walk settles {4, 5} first
    inst = ElectionInstance(6, 2, [{0}, {4, 5}, {2, 3, 4, 5}])
    assert [sorted(w) for w in pav_winners(inst)] == [[0, 4], [0, 5], [4, 5]]


def test_pav_budget_exceeded():
    with pytest.raises(SearchBudgetExceeded, match="too large"):
        pav_winners(SIX_GROUPS, budget=3)


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(
        instances(max_voters=5, max_candidates=6),
        cloned_instances(),
        shared_ballot_instances(max_candidates=6),
    )
)
def test_pav_winners_match_brute_force(inst):
    expected, best = [], None
    for combo in combinations(inst.candidates, inst.committee_size):
        score = pav_score(inst, frozenset(combo))
        if best is None or score > best:
            expected, best = [combo], score
        elif score == best:
            expected.append(combo)
    winners = pav_winners(inst)
    assert as_sorted_tuples(winners) == sorted(expected)
    assert all(pav_score(inst, w) == best for w in winners)
    # the CLI takes the first optimum as the lexicographically smallest
    assert winners == sorted(winners, key=sorted)


@pytest.mark.parametrize(
    "name", [name for name in FIXTURE_NAMES if fixture(name).num_candidates <= 30]
)
def test_pav_winners_come_in_sorted_tuple_order_on_catalogue(name):
    winners = pav_winners(fixture(name))
    assert winners == sorted(winners, key=sorted)


def milp_pav_optimum(inst: ElectionInstance) -> float:
    """The optimal PAV score by scipy's MILP solver, over ballot classes and
    candidate clone classes: an integer z_C in [0, |C|] seats clone class
    C, and y[j, t] in [0, 1] is class j's t-th harmonic increment, paid
    only for members it approves.  With decreasing increments the
    relaxation in y fills them in order, so y is integral at an optimum."""
    np = pytest.importorskip("numpy")
    scipy_opt = pytest.importorskip("scipy.optimize")
    k = inst.committee_size
    classes = inst.classes
    clones = clone_classes(classes.holders)
    increments = [
        (j, t)
        for j, ballot in enumerate(classes.ballots)
        for t in range(min(len(ballot), k))
    ]
    width = len(clones) + len(increments)
    objective = np.zeros(width)
    rows = np.zeros((1 + len(classes.sizes), width))
    rows[0, : len(clones)] = 1  # k seats in all
    for col, (j, t) in enumerate(increments, start=len(clones)):
        objective[col] = -classes.sizes[j] / (t + 1)
        rows[1 + j, col] = 1
    for col, members in enumerate(clones):
        for j in classes.holders[members[0]]:
            rows[1 + j, col] = -1  # increments paid <= members approved
    lower = np.full(len(rows), -np.inf)
    lower[0] = k
    upper = np.zeros(len(rows))
    upper[0] = k
    result = scipy_opt.milp(
        objective,
        integrality=[1] * len(clones) + [0] * len(increments),
        bounds=scipy_opt.Bounds(0, [len(c) for c in clones] + [1] * len(increments)),
        constraints=scipy_opt.LinearConstraint(rows, lower, upper),
        options={"mip_rel_gap": 0},
    )
    assert result.success, result.message
    return -result.fun


@pytest.mark.parametrize(
    "inst",
    [
        pytest.param(fixture(name), id=name)
        for name in ("fig4_profile1", "fig4_profile2", "fig4_profile3")
    ]
    + [pytest.param(gen_theorem51_family(4, 2), id="theorem51_family_4_2")],
)
def test_pav_winners_reach_the_milp_optimum(inst):
    # the exact search and an independent float solver agree on the score
    optimum = milp_pav_optimum(inst)
    winners = pav_winners(inst)
    assert winners
    for winner in winners:
        assert len(winner) == inst.committee_size
        assert float(pav_score(inst, winner)) == pytest.approx(optimum, rel=1e-6)


def test_pav_cuts_a_forced_chain_below_best_as_one_node():
    # after the leaf {0, 2} (best 3/2), the forced chains ending in the
    # unapproved 1, {0, 1}, {1, 2} and {1, 3}, score below it: one node
    # each, not 3, 3 and 5; the index-order oracle takes 15
    inst = ElectionInstance(4, 2, (frozenset({0, 2, 3}),))
    assert assert_counts_nodes(lambda budget: pav_winners(inst, budget)) == 11


def test_pav_winners_decide_theorem51_family_4_2_within_2_19_nodes():
    # most forced chains of this family score below ``best`` and are cut
    # as one node each, not counted as 2s + 1
    assert len(pav_winners(gen_theorem51_family(4, 2), 1 << 19)) == 1


# ---------------------------------------------------------------------------
# sequential PAV


def test_seq_pav_unanimous_lexicographic():
    inst = ElectionInstance(3, 2, [{0, 1, 2}] * 4)
    assert seq_pav(inst) == frozenset({0, 1})


def test_seq_pav_big_instance_first_pick():
    # the shared candidate has 4000 approvers, the best solo gain
    first = ElectionInstance(9, 1, BIG_1899.approvals)
    assert seq_pav(first) == frozenset({0})


def test_seq_pav_party_list_seats():
    inst = gen_party_list((3, 3, 4), (10, 10, 10), 10).instance
    assert party_seats(seq_pav(inst), (10, 10, 10)) == (3, 3, 4)


# ---------------------------------------------------------------------------
# the money-earning sequential rule


def test_phragmen_blocks_trace():
    trace = phragmen_sequential(BLOCKS_15)
    assert trace.elected == (0, 3, 1, 4)
    assert trace.election_times == (F(5, 16), F(19, 32), F(101, 128), F(283, 256))
    assert trace.payments[0] == {i: F(5, 16) for i in range(12)}
    assert trace.payments[1] == {
        **{i: F(9, 32) for i in range(5, 12)},
        **{i: F(19, 32) for i in range(12, 15)},
    }
    assert trace.payments[2] == {
        **{i: F(61, 128) for i in range(5)},
        **{i: F(25, 128) for i in range(5, 12)},
    }
    assert trace.payments[3] == {
        **{i: F(81, 256) for i in range(5, 12)},
        **{i: F(131, 256) for i in range(12, 15)},
    }
    assert all(sum(step.values()) == F(15, 4) for step in trace.payments)
    assert trace.committee == frozenset({0, 1, 3, 4})


def test_phragmen_unanimous_times():
    # In units of the per-candidate price n/k these times read k'/n; the
    # trace keeps the raw simulation clock, where they are k'/k.
    inst = ElectionInstance(3, 2, [{0, 1, 2}] * 4)
    trace = phragmen_sequential(inst)
    assert trace.elected == (0, 1)
    assert trace.election_times == (F(1, 2), F(1, 1))


def test_phragmen_stops_without_approvers():
    inst = ElectionInstance(3, 2, [{0}, {0}])
    trace = phragmen_sequential(inst)
    assert trace.elected == (0,)
    assert trace.election_times == (F(1, 2),)


@settings(deadline=None, max_examples=80)
@given(instances())
def test_phragmen_trace_reads_out_fractions_once(inst):
    # payments first on one trace, times first on the other
    for trace, read in (
        (phragmen_sequential(inst), lambda t: (t.payments, t.election_times)),
        (phragmen_sequential(inst), lambda t: (t.election_times, t.payments)),
    ):
        first = read(trace)
        assert read(trace) == first
        payments, times = (trace.payments, trace.election_times)
        assert all(type(t) is Fraction for t in times)
        assert all(type(v) is Fraction for step in payments for v in step.values())
        assert len(times) == len(payments) == len(trace.elected)
    with pytest.raises(AttributeError):
        trace.payments = ()


def test_phragmen_trace_committee_builds_no_fractions():
    trace = phragmen_sequential(BLOCKS_15)
    assert trace.committee == frozenset({0, 1, 3, 4})
    assert "election_times" not in vars(trace) and "payments" not in vars(trace)


def test_rule_x_trace_builds_no_fractions_until_read():
    # a plain run, a completed one, and a completion after no purchase
    for trace, budgets in (
        (rule_x(BLOCKS_15), None),
        (rule_x_complete(ElectionInstance(3, 2, [{0}, {0}, {1}, set()])), None),
        (
            rule_x_complete(ElectionInstance(2, 2, [{0}, {1}, set(), set()])),
            ((F(0), F(2), F(2), F(2)), (F(0), F(0), F(2), F(2))),
        ),
    ):
        assert "budgets" not in vars(trace)
        first = trace.budgets
        assert trace.budgets == first and len(first) == len(trace.elected)
        assert all(type(b) is Fraction for snapshot in first for b in snapshot)
        assert budgets is None or first == budgets


#: Run under ``python -O``: candidate 1 loses voter 0 from the approver
#: masks the instance keeps (planted in its ``__dict__``).  The run reads
#: its balances, payers and payments off the same masks, so it stays
#: self-consistent and the payments still add up to the price; only the
#: count of the masks' bits against the ballots' approvals can tell.
DROPPED_APPROVER_SCRIPT = """
import sys
from abcvote import rules
from abcvote.model import ElectionInstance, InternalInvariantError

if __debug__:
    sys.exit("expected python -O")
inst = ElectionInstance(2, 2, (frozenset({0, 1}), frozenset({0, 1}), frozenset({1})))
print(rules.phragmen_sequential(inst).elected)
kept = inst.approver_masks
vars(inst)["approver_masks"] = (kept[0], kept[1] & ~1)
try:
    rules.phragmen_sequential(inst)
except InternalInvariantError:
    print("raised")
"""


def test_phragmen_payment_check_catches_drift_under_optimize():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))
    ))
    done = subprocess.run(
        [sys.executable, "-O", "-c", DROPPED_APPROVER_SCRIPT],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split("\n") == ["(1, 0)", "raised", ""]


@settings(deadline=None, max_examples=80)
@given(instances())
def test_phragmen_invariants(inst):
    trace = phragmen_sequential(inst)
    price = F(inst.num_voters, inst.committee_size)
    approved = {c for c in inst.candidates if inst.approvers(c)}
    assert len(trace.elected) == min(inst.committee_size, len(approved))
    assert set(trace.elected) <= approved
    assert len(set(trace.elected)) == len(trace.elected)
    assert all(t0 <= t1 for t0, t1 in zip(trace.election_times, trace.election_times[1:]))
    for step in trace.payments:
        assert sum(step.values()) == price
        assert all(amount > 0 for amount in step.values())
    # money conservation: total spent is one price per elected candidate
    total = sum((sum(step.values()) for step in trace.payments), F(0))
    assert total == price * len(trace.elected)


# ---------------------------------------------------------------------------
# the budget-spending rule


def test_min_affordable_q_cases():
    # supporters, budget -> its voters in increasing budget order, the
    # number of supporters in the groups, price
    assert min_affordable_q(0b111, {1: 0b111}, 3, F(2)) == F(2, 3)
    assert min_affordable_q(0b11, {F(1, 2): 0b01, 1: 0b10}, 2, F(1)) == F(1, 2)
    assert min_affordable_q(0b11, {F(1, 4): 0b01, 1: 0b10}, 2, F(1)) == F(3, 4)
    assert min_affordable_q(0b11, {F(1, 4): 0b11}, 2, F(1)) is None
    assert min_affordable_q(0, {}, 0, F(1)) is None
    assert min_affordable_q(0b11, {F(1, 2): 0b11}, 2, F(1)) == F(1, 2)
    # groups without supporters below the split and at it (1/2, where
    # q = 3/8), and a supporter in no group, who holds nothing
    groups = {F(1, 8): 0b0001, F(1, 4): 0b0010, F(1, 2): 0b0100, 1: 0b1000}
    assert min_affordable_q(0b11010, groups, 2, F(1)) == F(3, 4)
    assert min_affordable_q(0b01010, groups, 2, F(5, 8)) == F(3, 8)
    assert min_affordable_q(0b10000, groups, 0, F(1)) is None


@settings(deadline=None, max_examples=120)
@given(instances())
def test_min_affordable_q_is_minimal(inst):
    price = F(inst.num_voters, inst.committee_size)
    budgets = [F(1, i + 1) for i in range(inst.num_voters)]
    q = affordable_q(budgets, price)
    spend = lambda cap: sum(min(cap, b) for b in budgets)
    if q is None:
        assert spend(max(budgets)) < price
    else:
        assert spend(q) >= price
        assert spend(q * F(99, 100)) < price


def test_rule_x_blocks_trace():
    trace = rule_x(BLOCKS_15)
    assert trace.elected == (0, 1, 2, 3)
    assert trace.q_values == (F(5, 16), F(5, 16), F(3, 8), F(1))
    assert trace.budgets[2] == (F(0),) * 10 + (F(3, 8), F(3, 8), F(1), F(1), F(1))
    assert trace.budgets[3] == (F(0),) * 15
    assert trace.completed is False


def test_rule_x_unanimous():
    inst = ElectionInstance(4, 3, [{0, 1, 2, 3}] * 5)
    trace = rule_x(inst)
    assert trace.elected == (0, 1, 2)
    assert trace.q_values == (F(1, 3),) * 3
    assert trace.budgets[-1] == (F(0),) * 5


def test_rule_x_forced_tie_strands_money():
    trace = rule_x(BLOCKS_15, tie_choices={2: 3})
    assert trace.elected == (0, 1, 3)
    assert trace.q_values == (F(5, 16), F(5, 16), F(3, 8))
    assert trace.budgets[-1] == (F(3, 8),) * 5 + (F(0),) * 7 + (F(5, 8),) * 3
    assert trace.completed is False


def test_rule_x_force_must_be_tied():
    with pytest.raises(ValueError, match="tie set"):
        rule_x(BLOCKS_15, tie_choices={0: 2})
    # 3 is tied at step 2, but a tie choice is a candidate index, an int
    message = "step 2: candidate 3.0 is not in the minimal-q tie set"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rule_x(BLOCKS_15, tie_choices={2: 3.0})


# Everyone approves 0 and 2 (q = 1/2 each); voters 0 and 1 can also afford
# 1 at q = 1, but not once they have paid 1/2 for candidate 0.
LOSES_TWO = ElectionInstance(3, 2, [{0, 1, 2}] * 2 + [{0, 2}] * 2)


def test_rule_x_lapsed_candidate_trace():
    trace = rule_x(LOSES_TWO)
    assert trace.elected == (0, 2)
    assert trace.q_values == (F(1, 2), F(1, 2))
    assert rule_x(LOSES_TWO, tie_choices={0: 2}).elected == (2, 0)


@pytest.mark.parametrize(
    "step,wanted",
    [
        (1, 0),  # already elected
        (1, 1),  # affordable at step 0, no longer at step 1
        (0, 1),  # affordable, but at q = 1 against 1/2
        (0, 3),  # no such candidate
        (0, -1),
    ],
)
def test_rule_x_force_outside_tie_set(step, wanted):
    message = f"step {step}: candidate {wanted} is not in the minimal-q tie set"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rule_x(LOSES_TWO, tie_choices={step: wanted})


@pytest.mark.parametrize("run", [rule_x, rule_x_complete])
@pytest.mark.parametrize(
    "choices,step",
    [
        ({99: 0}, "99"),
        ({2.0: 3}, "2.0"),  # 3 is tied at step 2, but a step is an int
        ({2: 3, 3: 0}, "3"),  # choosing 3 at step 2 ends the budget phase
        ({-1: 0}, "-1"),
    ],
)
def test_rule_x_tie_choice_steps_must_be_reached(run, choices, step):
    # the budget phase buys 0, 1, 2, 3 at steps 0..3, or 0, 1, 3 with {2: 3}
    message = f"tie choice for step {step}: the budget phase takes no such step"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(fixture("example21"), tie_choices=choices)
    assert run(fixture("example21"), tie_choices={2: 3}).elected[:3] == (0, 1, 3)


def test_rule_x_force_other_tied_candidate():
    trace = rule_x(BLOCKS_15, tie_choices={0: 1})
    assert trace.elected[0] == 1
    assert trace.committee == frozenset({0, 1, 2, 3})


def test_rule_x_complete_appends_after_forced_tie():
    trace = rule_x_complete(BLOCKS_15, tie_choices={2: 3})
    assert trace.elected == (0, 1, 3, 2)
    assert trace.q_values == (F(5, 16), F(5, 16), F(3, 8))
    assert trace.completed is True
    assert trace.budgets[-1] == (F(0),) * 10 + (
        F(3, 16),
        F(3, 16),
        F(13, 16),
        F(13, 16),
        F(13, 16),
    )


def test_rule_x_complete_passthrough_when_full():
    trace = rule_x_complete(BLOCKS_15)
    assert trace == rule_x(BLOCKS_15)
    assert trace.completed is False


def test_rule_x_undersized_then_continued():
    inst = ElectionInstance(3, 2, [{0}, {0}, {1}, set()])
    plain = rule_x(inst)
    assert plain.elected == (0,)
    assert plain.completed is False
    full = rule_x_complete(inst)
    assert full.elected == (0, 1)
    assert full.completed is True
    assert full.budgets[-1] == (F(1), F(1), F(0), F(2))


@settings(deadline=None, max_examples=80)
@given(instances())
def test_rule_x_invariants(inst):
    trace = rule_x(inst)
    price = F(inst.num_voters, inst.committee_size)
    assert len(trace.elected) <= inst.committee_size
    assert len(set(trace.elected)) == len(trace.elected)
    assert trace.completed is False
    previous = (F(1),) * inst.num_voters
    for snapshot in trace.budgets:
        assert all(F(0) <= b <= F(1) for b in snapshot)
        assert all(b <= p for b, p in zip(snapshot, previous))
        # each purchase moves exactly one price out of the budgets
        assert sum(previous) - sum(snapshot) == price
        previous = snapshot


@settings(deadline=None, max_examples=40)
@given(instances())
def test_rule_x_complete_reaches_k_when_possible(inst):
    trace = rule_x_complete(inst)
    approved = {c for c in inst.candidates if inst.approvers(c)}
    assert len(trace.elected) == min(inst.committee_size, len(approved))
    plain = rule_x(inst)
    assert trace.elected[: len(plain.elected)] == plain.elected
    assert trace.completed is (len(trace.elected) > len(plain.elected))


def test_seq_pav_tie_goes_to_smaller_head_after_a_class_loses_its_first():
    # 0 and 3 are clones; once 0 is in, 3 ties with 1 and the smaller wins
    inst = ElectionInstance(4, 2, [{0, 3}, {0, 3}, {1}])
    assert seq_pav(inst) == frozenset({0, 1})


def test_phragmen_tie_goes_to_smaller_head_after_heads_change_order():
    # clone classes {0, 3} and {1, 2}: once 0 and 1 are in, the heads are
    # 3 and 2, scanned in class order, and 2 wins their tie at time 4/3
    inst = ElectionInstance(4, 3, [{0, 3}, {0, 3}, {1, 2}, {1, 2}])
    trace = phragmen_sequential(inst)
    assert trace.elected == (0, 1, 2)
    assert trace.election_times == (F(2, 3), F(2, 3), F(4, 3))


def test_rule_x_prices_one_head_per_clone_class(monkeypatch):
    # fig2_profile1: 669 candidates in 13 clone classes; pricing every
    # candidate instead of each class's head takes 1338 calls
    calls = []

    def counted(supporters, groups, left, price):
        calls.append(None)
        return min_affordable_q(supporters, groups, left, price)

    monkeypatch.setattr(rules, "min_affordable_q", counted)
    trace = rule_x(fixture("fig2_profile1"))
    assert len(calls) == 76
    monkeypatch.undo()
    assert trace == rule_x(fixture("fig2_profile1"))


# ---------------------------------------------------------------------------
# apportionment


def test_dhondt_examples():
    assert dhondt((5, 3, 1), 3) == (2, 1, 0)
    assert dhondt((30, 30, 40), 10) == (3, 3, 4)
    assert dhondt((7,), 5) == (5,)
    assert dhondt((2, 2, 2, 12), 6) == (1, 0, 0, 5)


def test_dhondt_tie_goes_to_first_party():
    assert dhondt((1, 1), 1) == (1, 0)
    assert dhondt((2, 2, 2), 4) == (2, 1, 1)


def test_dhondt_rejects_bad_input():
    with pytest.raises(ValueError):
        dhondt((), 3)
    with pytest.raises(ValueError):
        dhondt((3, -1), 2)
    with pytest.raises(ValueError):
        dhondt((3,), -1)


# ---------------------------------------------------------------------------
# agreement on integral party-list instances


INTEGRAL_CASES = [
    # (quotas per party, voter multiplier, spare candidates per party)
    ((3, 3, 4), 1, 1),
    ((1, 2, 3), 2, 0),
    ((2, 4), 2, 1),
    ((5,), 2, 2),
    ((1, 1, 1), 4, 1),
    ((4, 2), 1, 0),
    ((2, 2, 2), 2, 1),
]


@pytest.mark.parametrize("quotas,multiplier,spare", INTEGRAL_CASES)
def test_party_list_rules_agree_with_apportionment(quotas, multiplier, spare):
    k = sum(quotas)
    voter_counts = tuple(q * multiplier for q in quotas)
    candidates_per_party = tuple(q + spare for q in quotas)
    inst = gen_party_list(voter_counts, candidates_per_party, k).instance
    assert dhondt(voter_counts, k) == quotas
    assert party_seats(seq_pav(inst), candidates_per_party) == quotas
    assert party_seats(phragmen_sequential(inst).committee, candidates_per_party) == quotas
    assert party_seats(rule_x(inst).committee, candidates_per_party) == quotas
    for winner in pav_winners(inst):
        assert party_seats(winner, candidates_per_party) == quotas


def test_party_list_trace_details():
    inst = gen_party_list((3, 3, 4), (10, 10, 10), 10).instance
    phragmen = phragmen_sequential(inst)
    assert phragmen.elected == (20, 0, 10, 21, 1, 11, 22, 2, 12, 23)
    assert phragmen.election_times == (
        F(1, 4), F(1, 3), F(1, 3), F(1, 2), F(2, 3),
        F(2, 3), F(3, 4), F(1), F(1), F(1),
    )
    # no alternation here: a party's budgets stay above the next q until the
    # party is exhausted, so the q-ties always resolve lexicographically
    spending = rule_x(inst)
    assert spending.elected == (20, 21, 22, 23, 0, 1, 2, 10, 11, 12)
    assert spending.q_values == (F(1, 4),) * 4 + (F(1, 3),) * 6


# ---------------------------------------------------------------------------
# determinism


@settings(deadline=None, max_examples=30)
@given(instances(max_voters=5, max_candidates=5))
def test_rules_are_deterministic(inst):
    assert pav_winners(inst) == pav_winners(inst)
    assert seq_pav(inst) == seq_pav(inst)
    assert phragmen_sequential(inst) == phragmen_sequential(inst)
    assert rule_x(inst) == rule_x(inst)
    assert rule_x_complete(inst) == rule_x_complete(inst)
