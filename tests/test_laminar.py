"""Tests for laminar recognition, proportionality, and enumeration."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from abcvote import laminar
from abcvote.model import ElectionInstance, SearchBudgetExceeded
from abcvote.laminar import (
    DEFAULT_ENUMERATION_BUDGET,
    LaminarSeats,
    check_laminar,
    check_laminar_proportional,
    laminar_proportional_committees,
)
from abcvote.rules import phragmen_sequential, rule_x
from tests.conftest import instances

F = Fraction


def build(m: int, k: int, ballots) -> ElectionInstance:
    return ElectionInstance(m, k, tuple(frozenset(b) for b in ballots))


def party_list(voter_counts, candidates_per_party, k: int) -> ElectionInstance:
    blocks, start = [], 0
    for size in candidates_per_party:
        blocks.append(frozenset(range(start, start + size)))
        start += size
    ballots = []
    for z, count in enumerate(voter_counts):
        ballots.extend([blocks[z]] * count)
    return ElectionInstance(start, k, tuple(ballots))


# Shared candidate 0 plus a 4-voter block on {1,2,3} and a 2-voter block on
# {4,5,6,7}; k=4 giving shares 1 (common) + 2 + 1.
SHARED_THEN_SPLIT = build(8, 4, [{0, 1, 2, 3}] * 4 + [{0, 4, 5, 6, 7}] * 2)


def test_shared_then_split_structure():
    seats = check_laminar(SHARED_THEN_SPLIT)
    assert seats == LaminarSeats(
        forced=frozenset({0}),
        pools=((frozenset({1, 2, 3}), 2), (frozenset({4, 5, 6, 7}), 1)),
    )
    assert seats.forced.union(*(pool for pool, _ in seats.pools)) == frozenset(range(8))


def test_shared_then_split_committees():
    accepted = laminar_proportional_committees(SHARED_THEN_SPLIT)
    assert len(accepted) == 3 * 4
    assert frozenset({0, 1, 2, 4}) in accepted
    assert frozenset({0, 1, 2, 3}) not in accepted
    assert check_laminar_proportional(SHARED_THEN_SPLIT, frozenset({0, 1, 2, 4}))
    assert not check_laminar_proportional(SHARED_THEN_SPLIT, frozenset({0, 1, 2, 3}))
    # the enumeration agrees with filtering all committees through the checker
    brute = [
        frozenset(combo)
        for combo in combinations(range(8), 4)
        if check_laminar_proportional(SHARED_THEN_SPLIT, frozenset(combo))
    ]
    assert sorted(accepted, key=sorted) == sorted(brute, key=sorted)


def test_integral_party_list_is_laminar():
    inst = party_list((3, 3, 2), (4, 4, 3), 8)
    assert check_laminar(inst) == LaminarSeats(
        forced=frozenset(),
        pools=(
            (frozenset(range(0, 4)), 3),
            (frozenset(range(4, 8)), 3),
            (frozenset(range(8, 11)), 2),
        ),
    )
    accepted = laminar_proportional_committees(inst)
    assert len(accepted) == 4 * 4 * 3  # C(4,3) * C(4,3) * C(3,2)
    seats_per_party = [
        tuple(len([c for c in w if lo <= c < hi]) for lo, hi in ((0, 4), (4, 8), (8, 11)))
        for w in accepted
    ]
    assert set(seats_per_party) == {(3, 3, 2)}


def test_non_integral_party_list_is_not_laminar():
    assert check_laminar(party_list((2, 1), (2, 2), 2)) is None


def test_unanimous_leaf():
    inst = build(3, 2, [{0, 1, 2}] * 4)
    assert check_laminar(inst) == LaminarSeats(
        forced=frozenset(), pools=((frozenset({0, 1, 2}), 2),)
    )
    assert sorted(laminar_proportional_committees(inst), key=sorted) == [
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    ]


def test_unanimous_with_too_few_candidates():
    assert check_laminar(build(4, 3, [{0, 1}] * 2)) is None


def test_empty_ballot_blocks_laminarity():
    assert check_laminar(build(2, 1, [{0}, set()])) is None


def test_strip_chain():
    inst = build(3, 3, [{0, 1}, {0, 2}])
    assert check_laminar(inst) == LaminarSeats(
        forced=frozenset({0}), pools=((frozenset({1}), 1), (frozenset({2}), 1))
    )
    assert laminar_proportional_committees(inst) == [frozenset({0, 1, 2})]


def test_all_common_candidates_are_stripped_at_once():
    # stripping {0, 1, 2} takes three seats: k = 2 leaves too few, and
    # k = 4 leaves one seat, which two equal blocks cannot share
    ballots = [{0, 1, 2, 3}, {0, 1, 2, 4}]
    assert check_laminar(build(5, 4, ballots)) is None
    assert check_laminar(build(5, 5, ballots)) == LaminarSeats(
        forced=frozenset({0, 1, 2}), pools=((frozenset({3}), 1), (frozenset({4}), 1))
    )
    assert check_laminar(build(5, 3, ballots)) == LaminarSeats(
        forced=frozenset({0, 1, 2}), pools=((frozenset({3}), 0), (frozenset({4}), 0))
    )
    assert check_laminar(build(5, 2, ballots)) is None


def test_pools_in_depth_first_order():
    # the blocks of voters {0, 3} and {1, 2} come in order of their smallest
    # voter, and the pools inside the first block before the second block's
    inst = build(6, 4, [{0, 1, 2}, {4, 5}, {4, 5}, {0, 1, 3}])
    assert check_laminar(inst) == LaminarSeats(
        forced=frozenset({0, 1}),
        pools=((frozenset({2}), 0), (frozenset({3}), 0), (frozenset({4, 5}), 2)),
    )


def test_thousand_shared_candidates():
    # one stripped candidate per seat: a recursive recognizer runs out of
    # stack here
    shared = set(range(1000))
    inst = build(1002, 1000, [shared | {1000}, shared | {1001}])
    assert check_laminar(inst) == LaminarSeats(
        forced=frozenset(shared), pools=((frozenset({1000}), 0), (frozenset({1001}), 0))
    )
    assert laminar_proportional_committees(inst) == [frozenset(shared)]
    assert check_laminar_proportional(inst, frozenset(shared))
    assert not check_laminar_proportional(inst, frozenset(range(1, 1001)))


def test_connected_without_common_candidate():
    assert check_laminar(build(4, 2, [{0, 1}, {1, 2}, {2, 3}])) is None


def test_proportional_requires_laminar_instance():
    with pytest.raises(ValueError, match="not laminar"):
        check_laminar_proportional(build(4, 2, [{0, 1}, {1, 2}, {2, 3}]), frozenset())


def test_proportional_rejects_wrong_size():
    assert not check_laminar_proportional(SHARED_THEN_SPLIT, frozenset({0, 1}))
    assert not check_laminar_proportional(SHARED_THEN_SPLIT, frozenset(range(5)))


def test_enumeration_budget(monkeypatch):
    # one unanimous pool: C(24, 12) = 2,704,156 committees, above the cap,
    # counted before any committee is built
    inst = build(24, 12, [set(range(24))] * 2)

    def built(*args):
        raise AssertionError("a committee was built")

    monkeypatch.setattr(laminar, "combinations", built)
    monkeypatch.setattr(laminar, "product", built)
    with pytest.raises(
        SearchBudgetExceeded,
        match="^2704156 laminar proportional committees exceed the "
        f"enumeration budget of {DEFAULT_ENUMERATION_BUDGET}$",
    ):
        laminar_proportional_committees(inst)


def approver_sets_nested_or_disjoint(inst: ElectionInstance) -> bool:
    sets = [inst.approvers(c) for c in inst.candidates]
    for a, b in combinations(sets, 2):
        if a & b and not (a <= b or b <= a):
            return False
    return True


def test_laminar_approver_family_is_nested_or_disjoint():
    for inst in (
        SHARED_THEN_SPLIT,
        party_list((3, 3, 2), (4, 4, 3), 8),
        build(3, 3, [{0, 1}, {0, 2}]),
    ):
        assert check_laminar(inst) is not None
        assert approver_sets_nested_or_disjoint(inst)


def test_sequential_rules_return_proportional_committees():
    # money-earning rule: catches up the big block's head start, ends at the
    # moment all budgets are spent (t=1 on the unit-speed clock; k/n when
    # time is measured in units of the per-candidate price)
    trace = phragmen_sequential(SHARED_THEN_SPLIT)
    assert trace.elected == (0, 1, 2, 4)
    assert trace.election_times == (F(1, 4), F(5, 8), F(1), F(1))
    assert trace.election_times[-1] == 1
    assert check_laminar_proportional(SHARED_THEN_SPLIT, trace.committee)

    spending = rule_x(SHARED_THEN_SPLIT)
    assert spending.elected == (0, 1, 2, 4)
    assert check_laminar_proportional(SHARED_THEN_SPLIT, spending.committee)

    inst = party_list((3, 3, 2), (4, 4, 3), 8)
    assert check_laminar_proportional(inst, phragmen_sequential(inst).committee)
    assert check_laminar_proportional(inst, rule_x(inst).committee)
    assert phragmen_sequential(inst).election_times[-1] == 1


@settings(deadline=None, max_examples=150)
@given(instances())
def test_enumeration_matches_checker(inst):
    if check_laminar(inst) is None:
        return
    accepted = set(laminar_proportional_committees(inst))
    for combo in combinations(inst.candidates, inst.committee_size):
        committee = frozenset(combo)
        assert (committee in accepted) == check_laminar_proportional(inst, committee)
