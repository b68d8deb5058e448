"""Axiom checkers: frozen hand-worked witnesses plus property tests.

The six-voter instance below (three voters sharing a three-candidate
prefix plus a private candidate each, three voters with disjoint
triples) separates the axioms sharply: committee A is priceable, in the
core, but admits a welfare transfer; committee B maximizes PAV welfare
yet is neither priceable nor core-stable.
"""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from abcvote import axioms
from abcvote.axioms import (
    Deviation,
    PriceSystem,
    _blocking_sets,
    check_core_subject_to,
    check_ejr,
    check_pareto,
    check_pigou_dalton,
    check_pjr,
    check_priceable,
    find_core_deviation,
    minimal_core_lambda,
    validate_price_system,
    verify_deviation,
)
from abcvote.generators import fixture
from abcvote.model import ElectionInstance, welfare_vector
from abcvote.rules import dhondt, pav_winners, phragmen_sequential, rule_x
from tests.conftest import assert_counts_nodes, instances, instances_with_committee


def build(num_candidates, committee_size, ballots):
    return ElectionInstance(
        num_candidates=num_candidates,
        committee_size=committee_size,
        approvals=tuple(frozenset(b) for b in ballots),
    )


def party_list(voter_counts, candidates_per_party, committee_size):
    ballots, pools, start = [], [], 0
    for voters, size in zip(voter_counts, candidates_per_party):
        pool = frozenset(range(start, start + size))
        ballots.extend([pool] * voters)
        pools.append(pool)
        start += size
    return build(start, committee_size, ballots), pools


INTRO = build(
    15,
    12,
    [{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 2, 5}, {6, 7, 8}, {9, 10, 11}, {12, 13, 14}],
)
COMMITTEE_A = frozenset({0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 13})
COMMITTEE_B = frozenset({0, 1, 2}) | frozenset(range(6, 15))

# four voters, each with a private candidate plus a shared four-candidate slate
ONE_PLUS_SLATE = build(8, 4, [{i, 4, 5, 6, 7} for i in range(4)])
PRIVATE_FOUR = frozenset({0, 1, 2, 3})
SHARED_SLATE = frozenset({4, 5, 6, 7})

# three voters behind {0,1}, a fourth behind {2}; candidate 3 is approved
# by nobody, so {2,3} leaves the majority bloc without a single seat
BLOC_SNUB = build(4, 2, [{0, 1}, {0, 1}, {0, 1}, {2}])


# ---------------------------------------------------------------------------
# priceability


def test_committee_a_is_priceable_at_half():
    system = check_priceable(INTRO, COMMITTEE_A)
    assert system is not None
    # the voter paying for two private seats caps the price at 1/2,
    # and 1/2 is attainable
    assert system.price == Fraction(1, 2)
    assert validate_price_system(INTRO, COMMITTEE_A, system)


def test_committee_b_is_not_priceable():
    assert check_priceable(INTRO, COMMITTEE_B) is None


def test_private_committee_priceable_at_one():
    system = check_priceable(ONE_PLUS_SLATE, PRIVATE_FOUR)
    assert system is not None
    assert system.price == 1
    assert system.payments[0] == {0: Fraction(1)}


def test_shared_slate_priceable():
    assert check_priceable(ONE_PLUS_SLATE, SHARED_SLATE) is not None


def test_empty_committee_is_priceable():
    instance = build(2, 1, [{0}, {0, 1}])
    system = check_priceable(instance, frozenset())
    assert system is not None
    # the price must exceed every candidate's total (unspent) support
    assert system.price == 2
    assert all(purse == {} for purse in system.payments)


def test_unsupported_member_blocks_priceability():
    instance = build(2, 1, [{0}, {0}])
    assert check_priceable(instance, frozenset({1})) is None


def priceability_program(instance, committee):
    """The LP ``check_priceable`` solves when the full-spend certificate
    does not answer, built whether or not it does."""
    lp, _ = axioms._priceability_program(
        instance.classes, *axioms._price_classes(instance, committee)
    )
    return lp


@pytest.mark.parametrize(
    "name,sizes",
    [
        ("fig2_profile1", {"phragmen": (37, 19), "rulex": (37, 19)}),
        ("overlapping_parties", {"phragmen": (7, 5), "rulex": (7, 5)}),
        ("fig4_profile1", {"phragmen": (39, 29), "rulex": (39, 21)}),
    ],
)
def test_priceability_program_size(name, sizes, monkeypatch):
    """The program has 1 + sum over ballot classes j of e(j) variables,
    where e(j) counts the elected clone classes (members with the same
    approvers) on j's ballot: the price and one payment per pair.  Its
    rows are one spending row per class with e(j) > 0, one collection row
    per elected clone class and one leftover row per maximal set among
    the approver-class sets of the non-members.  Where the LP runs, it
    runs on this program."""
    programs = []
    solve = axioms.lp_maximize

    def spy(lp):
        programs.append(lp)
        return solve(lp)

    monkeypatch.setattr(axioms, "lp_maximize", spy)
    inst = fixture(name)
    committees = {
        "phragmen": phragmen_sequential(inst).committee,
        "rulex": rule_x(inst).committee,
    }
    for rule, committee in committees.items():
        program = priceability_program(inst, committee)
        assert (len(program.constraints), program.num_variables) == sizes[rule]
        programs.clear()
        assert check_priceable(inst, committee) is not None
        assert programs in ([], [program])


#: A two-voter instance and committee, a valid price system for them, and
#: systems that each break one condition of the definition.
REJECTION_INSTANCE = build(2, 1, [{0}, {0, 1}])
REJECTION_COMMITTEE = frozenset({0})
_HALF = Fraction(1, 2)
VALID_SYSTEM = PriceSystem(price=Fraction(1), payments=({0: _HALF}, {0: _HALF}))
BROKEN_SYSTEMS = [
    PriceSystem(price=Fraction(0), payments=({}, {})),
    # negative payment
    PriceSystem(price=Fraction(1), payments=({0: Fraction(3, 2)}, {0: -_HALF})),
    # voter 0 pays for unapproved candidate 1
    PriceSystem(price=Fraction(1), payments=({0: _HALF, 1: _HALF}, {0: _HALF})),
    # voter 0 overspends
    PriceSystem(price=Fraction(2), payments=({0: Fraction(2)}, {0: Fraction(0)})),
    # elected candidate collects less than the price
    PriceSystem(price=Fraction(1), payments=({0: _HALF}, {0: Fraction(1, 4)})),
    # payment to a non-elected candidate
    PriceSystem(price=Fraction(1), payments=({0: _HALF}, {0: _HALF, 1: _HALF})),
    # leftover money above the price at candidate 1 (voter 1 idle)
    PriceSystem(price=_HALF, payments=({0: _HALF}, {})),
]


def test_validate_price_system_rejections():
    instance, committee = REJECTION_INSTANCE, REJECTION_COMMITTEE
    assert validate_price_system(instance, committee, VALID_SYSTEM)
    for system in BROKEN_SYSTEMS:
        assert validate_price_system(instance, committee, system) is False
    # a purse key off the payer's ballot is a verdict (above), one that is
    # no candidate an input error
    for key in (0.0, 2):
        system = PriceSystem(price=Fraction(1), payments=({key: _HALF}, {0: _HALF}))
        with pytest.raises(ValueError, match=f"^no such candidate: {key}$"):
            validate_price_system(instance, committee, system)
    # so is an amount that is neither an int nor a Fraction
    for system in (
        PriceSystem(price=1.0, payments=({0: Fraction(1)}, {})),
        PriceSystem(price=Fraction(1), payments=({0: 1.0}, {})),
    ):
        message = "^price system amount 1.0 is not an int or a Fraction$"
        with pytest.raises(ValueError, match=message):
            validate_price_system(instance, committee, system)
    assert validate_price_system(instance, committee, PriceSystem(1, ({0: 1}, {})))
    # a zero price is refused even where it breaks no other condition
    nobody = build(1, 1, [set()])
    assert not validate_price_system(nobody, frozenset(), PriceSystem(Fraction(0), ({},)))


def test_validate_rejects_wrong_voter_count():
    instance = build(2, 1, [{0}, {0, 1}])
    system = PriceSystem(price=Fraction(1), payments=({0: Fraction(1)},))
    assert not validate_price_system(instance, frozenset({0}), system)


# ---------------------------------------------------------------------------
# representation (PJR / EJR)


def test_pjr_single_voter_cases():
    instance = build(1, 1, [{0}])
    assert check_pjr(instance, frozenset({0})) is None
    violation = check_pjr(instance, frozenset())
    assert violation == Deviation(coalition=frozenset({0}), alternative=frozenset({0}))


def test_pjr_bloc_snub():
    violation = check_pjr(BLOC_SNUB, frozenset({2, 3}))
    assert violation == Deviation(
        coalition=frozenset({0, 1}), alternative=frozenset({0})
    )
    # the re-check refuses a group that W already covers at its level
    covered = build(3, 1, [{0, 1}] * 3)
    snub = Deviation(coalition=frozenset({0, 1, 2}), alternative=frozenset({1}))
    assert not axioms._is_pjr_witness(covered, frozenset({0}), snub)


def test_pjr_none_on_priceable_committees():
    assert check_pjr(ONE_PLUS_SLATE, PRIVATE_FOUR) is None
    assert check_pjr(INTRO, COMMITTEE_A) is None


def test_pjr_budget_guard():
    search = lambda budget: check_pjr(BLOC_SNUB, frozenset({0, 1}), budget=budget)
    assert assert_counts_nodes(search) == 4


@settings(deadline=None, max_examples=50)
@given(instances_with_committee(max_voters=12, max_candidates=6))
def test_pjr_visits_fewer_nodes_than_voter_subsets(case):
    # each nonempty voter set is one node at most, so PJR decides every
    # instance of n voters within a budget of 2^n - 1
    instance, committee = case
    check_pjr(instance, committee, budget=(1 << instance.num_voters) - 1)


def test_ejr_bloc_snub():
    violation = check_ejr(BLOC_SNUB, frozenset({2, 3}))
    assert violation == Deviation(
        coalition=frozenset({0, 1, 2}), alternative=frozenset({0})
    )


def test_ejr_unanimous_none():
    instance = build(5, 3, [{0, 1, 2, 3, 4}] * 4)
    assert check_ejr(instance, frozenset({0, 1, 2})) is None


def test_ejr_budget_guard():
    search = lambda budget: check_ejr(INTRO, COMMITTEE_A, budget=budget)
    assert assert_counts_nodes(search) == 222


@settings(deadline=None, max_examples=60)
@given(instances_with_committee(max_voters=6, max_candidates=6))
def test_ejr_matches_cohesive_core(case):
    instance, committee = case
    ejr = check_ejr(instance, committee)
    cohesive = check_core_subject_to(instance, committee, "cohesive")
    assert (ejr is None) == (cohesive is None)


@settings(deadline=None, max_examples=60)
@given(instances_with_committee(max_voters=6, max_candidates=6))
def test_representation_witnesses_are_sound(case):
    instance, committee = case
    members = frozenset(committee)
    pjr = check_pjr(instance, committee)
    if pjr is not None:
        ballots = [instance.approvals[i] for i in pjr.coalition]
        size = len(members) or instance.committee_size
        assert pjr.alternative <= frozenset.intersection(*ballots)
        level = len(pjr.alternative)
        assert len(pjr.coalition) * size >= level * instance.num_voters
        assert len(members & frozenset.union(*ballots)) < level
    ejr = check_ejr(instance, committee)
    if ejr is not None:
        level = len(ejr.alternative)
        utilities = welfare_vector(instance, members)
        for i in ejr.coalition:
            assert ejr.alternative <= instance.approvals[i]
            assert utilities[i] < level
        assert (
            len(ejr.coalition) * instance.committee_size
            >= level * instance.num_voters
        )


@settings(deadline=None, max_examples=40)
@given(instances_with_committee(max_voters=6, max_candidates=6))
def test_priceable_implies_pjr(case):
    instance, committee = case
    if not committee:
        return
    if check_priceable(instance, committee) is not None:
        assert check_pjr(instance, committee) is None


# ---------------------------------------------------------------------------
# core


def test_committee_b_core_deviation():
    deviation = find_core_deviation(INTRO, COMMITTEE_B)
    assert deviation == Deviation(
        coalition=frozenset({0, 1, 2}),
        alternative=frozenset(range(6)),
    )


def test_committee_without_shared_prefix_blocks_early():
    committee = frozenset(range(3, 15))
    deviation = find_core_deviation(INTRO, committee)
    assert deviation == Deviation(
        coalition=frozenset({0, 1, 2}),
        alternative=frozenset({0, 1}),
    )


def test_committee_a_is_in_the_core():
    assert find_core_deviation(INTRO, COMMITTEE_A) is None


def test_pav_committee_in_two_core():
    (winner,) = pav_winners(INTRO)
    assert winner == COMMITTEE_B
    deviation = find_core_deviation(INTRO, winner, lam=Fraction(2))
    assert deviation is None


def test_lambda_must_be_at_least_one():
    with pytest.raises(ValueError):
        find_core_deviation(INTRO, COMMITTEE_B, lam=Fraction(1, 2))
    # below 1 every voter would "gain" what it already has: {2, 3} gives
    # both voters welfare 2, as {0, 1} does
    inst = build(4, 2, [{0, 1, 2, 3}] * 2)
    same = Deviation(coalition=frozenset({0, 1}), alternative=frozenset({2, 3}))
    empty = Deviation(coalition=frozenset(), alternative=frozenset({2}))
    refused = r"^lambda Fraction\(1, 2\) is not an int or a Fraction of at least 1$"
    for deviation in (same, empty):
        with pytest.raises(ValueError, match=refused):
            verify_deviation(inst, {0, 1}, deviation, Fraction(1, 2))
    with pytest.raises(ValueError, match=refused):
        find_core_deviation(inst, {0, 1}, Fraction(1, 2))


def test_lambda_must_not_be_a_float():
    # 1.16 * 25 = 28.999999999999996 floors to 28, so a float 1.16 would
    # let 29 candidates block, which they do not at the exact 29/25
    inst = build(54, 54, [set(range(54))])
    committee = frozenset(range(25))
    bloc = Deviation(coalition=frozenset({0}), alternative=frozenset(range(25, 54)))
    for lam in (1.16, 1.0, 2.0):
        with pytest.raises(ValueError, match=f"^lambda {lam} is not an int"):
            find_core_deviation(inst, committee, lam)
        with pytest.raises(ValueError, match=f"^lambda {lam} is not an int"):
            verify_deviation(inst, committee, bloc, lam)
    assert not verify_deviation(inst, committee, bloc, Fraction(29, 25))
    first = find_core_deviation(inst, committee, Fraction(29, 25))
    assert len(first.alternative) == 30
    assert verify_deviation(inst, committee, bloc, 1)
    assert find_core_deviation(inst, committee, 2).alternative == frozenset(range(51))


def test_core_budget_guard():
    search = lambda budget: find_core_deviation(INTRO, COMMITTEE_B, budget=budget)
    assert assert_counts_nodes(search) == 6


# 21 candidates, one shared three-candidate slate, all of it elected: nobody
# can gain from at most k = 3 candidates, so the core walk skips its whole
# tree at the root and visits no node, whatever the number of candidates
SLATE_OF_21 = build(21, 3, [{0, 1, 2}] * 6)


@pytest.mark.parametrize(
    "search",
    [
        lambda inst, w, budget: find_core_deviation(inst, w, budget=budget),
        lambda inst, w, budget: find_core_deviation(inst, w, Fraction(3, 2), budget),
        minimal_core_lambda,
        lambda inst, w, budget: check_core_subject_to(inst, w, "cohesive", budget),
    ],
    ids=["core", "lambda-core", "minimal-lambda", "core-subject"],
)
def test_core_guard_holds_where_the_walk_would_finish(search):
    committee = frozenset({0, 1, 2})
    welfare = [len(ballot & committee) for ballot in SLATE_OF_21.classes.ballots]
    assert list(_blocking_sets(SLATE_OF_21, welfare, budget=0)) == []
    assert search(SLATE_OF_21, committee, 0) == (
        1 if search is minimal_core_lambda else None
    )


def test_verify_deviation_conditions():
    witness = Deviation(
        coalition=frozenset({0, 1, 2}),
        alternative=frozenset(range(6)),
    )
    assert verify_deviation(INTRO, COMMITTEE_B, witness)
    too_big = Deviation(
        coalition=frozenset({0, 1, 2}),
        alternative=frozenset(range(7)),
    )
    assert not verify_deviation(INTRO, COMMITTEE_B, too_big)
    no_gain = Deviation(
        coalition=frozenset({0, 1, 2, 3}),
        alternative=frozenset(range(6)),
    )
    assert not verify_deviation(INTRO, COMMITTEE_B, no_gain)
    empty = Deviation(coalition=frozenset(), alternative=frozenset({0}))
    assert not verify_deviation(INTRO, COMMITTEE_B, empty)


def test_verify_deviation_index_errors():
    for indices in ({99}, {0.5}, {"a", 1}, {"a", 0}):
        witness = Deviation(coalition=frozenset(indices), alternative=frozenset({0}))
        with pytest.raises(ValueError, match="^coalition voter index out of range$"):
            verify_deviation(INTRO, COMMITTEE_B, witness)
        witness = Deviation(coalition=frozenset({0}), alternative=frozenset(indices))
        with pytest.raises(ValueError, match="^alternative candidate index out of range$"):
            verify_deviation(INTRO, COMMITTEE_B, witness)


def test_verify_deviation_lambda_gain_rule():
    # one voter, committee {0}, alternative {1,2}: welfare 1 -> 2
    instance = build(3, 3, [{0, 1, 2}])
    committee = frozenset({0})
    pair = Deviation(coalition=frozenset({0}), alternative=frozenset({1, 2}))
    assert verify_deviation(instance, committee, pair, lam=Fraction(1))
    # at lambda=2 the voter needs welfare above max(2*1, 1) = 2
    assert not verify_deviation(instance, committee, pair, lam=Fraction(2))
    triple = Deviation(
        coalition=frozenset({0}),
        alternative=frozenset({0, 1, 2}),
    )
    assert verify_deviation(instance, committee, triple, lam=Fraction(2))


@settings(deadline=None, max_examples=40)
@given(instances_with_committee(max_voters=6, max_candidates=6))
def test_lambda_monotonicity(case):
    instance, committee = case
    if find_core_deviation(instance, committee, lam=Fraction(3, 2)) is None:
        assert find_core_deviation(instance, committee, lam=Fraction(2)) is None
    if find_core_deviation(instance, committee) is None:
        assert find_core_deviation(instance, committee, lam=Fraction(3, 2)) is None


# ---------------------------------------------------------------------------
# minimal blocking factor


def test_minimal_lambda_for_core_member_is_one():
    assert minimal_core_lambda(INTRO, COMMITTEE_A) == 1


def test_minimal_lambda_for_committee_b():
    bar = minimal_core_lambda(INTRO, COMMITTEE_B)
    # the prefix voters reach welfare 4 against 3, so blocking persists
    # up to (but not at) 4/3
    assert bar == Fraction(4, 3)
    assert find_core_deviation(INTRO, COMMITTEE_B, lam=bar) is None
    assert find_core_deviation(INTRO, COMMITTEE_B, lam=Fraction(7, 6)) is not None


def test_minimal_lambda_unbounded():
    # a single voter with no seats gains at every factor
    instance = build(2, 2, [{0, 1}])
    assert minimal_core_lambda(instance, frozenset()) is None
    assert find_core_deviation(instance, frozenset(), lam=Fraction(2)) is not None
    assert find_core_deviation(instance, frozenset(), lam=Fraction(10)) is not None
    # voter 2 has no member and would get one from {4, 5}: no gain at any
    # factor, so voter 1's ratio 2/1 decides, and {4, 5} blocks below 2 only
    instance = build(6, 4, [{4, 5}, {0, 4, 5}, {4}, {1}])
    committee = frozenset({0, 1, 2, 3})
    assert minimal_core_lambda(instance, committee) == 2
    assert find_core_deviation(instance, committee, lam=Fraction(2)) is None
    assert find_core_deviation(instance, committee, lam=Fraction(3, 2)) is not None


def test_minimal_lambda_budget_guard():
    search = lambda budget: minimal_core_lambda(INTRO, COMMITTEE_A, budget=budget)
    assert assert_counts_nodes(search) == 155


@settings(deadline=None, max_examples=40)
@given(instances_with_committee(max_voters=5, max_candidates=5))
def test_minimal_lambda_matches_deviation_search(case):
    instance, committee = case
    bar = minimal_core_lambda(instance, committee)
    if bar is None:
        assert find_core_deviation(instance, committee, lam=Fraction(2)) is not None
    elif bar == 1:
        assert find_core_deviation(instance, committee, lam=Fraction(3, 2)) is None
    else:
        assert find_core_deviation(instance, committee, lam=bar) is None
        just_below = (1 + bar) / 2
        assert find_core_deviation(instance, committee, lam=just_below) is not None


# ---------------------------------------------------------------------------
# core subject to a deviation property


def test_price_eq_deviation_for_committee_b():
    deviation = check_core_subject_to(INTRO, COMMITTEE_B, "price_eq")
    assert deviation == Deviation(
        coalition=frozenset({0, 1, 2}),
        alternative=frozenset(range(6)),
    )


def test_price_eq_none_for_committee_a():
    assert check_core_subject_to(INTRO, COMMITTEE_A, "price_eq") is None


def test_cohesive_deviation_bloc_snub():
    deviation = check_core_subject_to(BLOC_SNUB, frozenset({2, 3}), "cohesive")
    assert deviation == Deviation(
        coalition=frozenset({0, 1, 2}), alternative=frozenset({0})
    )


def test_property_kinds_disagree():
    # two specialists, two generalists backing a four-candidate slate, one
    # holdout: the slate blocks and is priceable within the coalition, but
    # equal payments overcharge the generalists and cohesion never holds
    instance = build(
        9,
        5,
        [{3, 5, 6}, {4, 7, 8}, {0, 1, 2, 5, 6, 7, 8}, {0, 1, 2, 5, 6, 7, 8}, {0, 1, 2}],
    )
    committee = frozenset({0, 1, 2, 3, 4})
    priceable = check_core_subject_to(instance, committee, "priceable")
    assert priceable == Deviation(
        coalition=frozenset({0, 1, 2, 3}),
        alternative=frozenset({5, 6, 7, 8}),
    )
    assert check_core_subject_to(instance, committee, "price_eq") is None
    assert check_core_subject_to(instance, committee, "cohesive") is None


def test_price_eq_drops_a_gainer_who_overspends():
    # Voters 0-5 each approve two of the block {0,1,2} and one committee
    # member; voter 6 approves the whole block and two members.  Without
    # voter 6 each block candidate has four payers at a share of 1/2 of
    # n/k = 2, so voters 0-5 pay 1 each and block.  Voter 6 gains too,
    # but with it every share is 2/5 and it would pay 6/5.
    instance = build(
        7,
        4,
        [{0, 1, 3}, {0, 1, 3}, {1, 2, 4}, {1, 2, 4}, {0, 2, 5}, {0, 2, 5},
         {0, 1, 2, 3, 4}, {6}],
    )
    committee = frozenset({3, 4, 5, 6})
    assert check_core_subject_to(instance, committee, "price_eq") == Deviation(
        coalition=frozenset(range(6)), alternative=frozenset({0, 1, 2})
    )
    assert find_core_deviation(instance, committee) == Deviation(
        coalition=frozenset(range(7)), alternative=frozenset({0, 1, 2})
    )


def test_core_subject_to_rejects_unknown_property():
    with pytest.raises(ValueError):
        check_core_subject_to(INTRO, COMMITTEE_B, "unknown")


def test_core_subject_to_budget_guard():
    search = lambda budget: check_core_subject_to(
        ONE_PLUS_SLATE, PRIVATE_FOUR, "cohesive", budget=budget
    )
    assert assert_counts_nodes(search) == 122


@settings(deadline=None, max_examples=40)
@given(instances(max_voters=6, max_candidates=6))
def test_rule_x_passes_ejr_and_restrained_core(instance):
    committee = rule_x(instance).committee
    assert check_ejr(instance, committee) is None
    assert check_core_subject_to(instance, committee, "price_eq") is None


# ---------------------------------------------------------------------------
# welfare transfers and dominance


def test_committee_a_admits_a_transfer():
    result = check_pigou_dalton(INTRO, COMMITTEE_A)
    assert result is not None
    before = welfare_vector(INTRO, COMMITTEE_A)
    after = welfare_vector(INTRO, result)
    moved = [i for i in INTRO.voters if before[i] != after[i]]
    assert len(moved) == 2
    a, b = sorted(moved, key=lambda i: -before[i])
    assert before[a] > before[b]
    assert after[a] + after[b] == before[a] + before[b]
    assert before[a] > after[a] >= after[b] > before[b]
    # the named swap (drop one prefix voter's private seat, complete a
    # triple) is one such transfer
    named = (COMMITTEE_A - {5}) | {8}
    assert welfare_vector(INTRO, named) == (4, 4, 3, 3, 2, 2)


def test_unique_transfer_is_found():
    instance = build(3, 2, [{0}, {1, 2}])
    assert check_pigou_dalton(instance, frozenset({1, 2})) == frozenset({0, 1})


def test_pav_committee_admits_no_transfer():
    assert check_pigou_dalton(INTRO, COMMITTEE_B) is None


def test_pigou_dalton_budget_guard():
    search = lambda budget: check_pigou_dalton(INTRO, COMMITTEE_A, budget=budget)
    assert assert_counts_nodes(search) == 88


def test_private_committee_is_dominated():
    result = check_pareto(ONE_PLUS_SLATE, PRIVATE_FOUR)
    assert result is not None
    before = welfare_vector(ONE_PLUS_SLATE, PRIVATE_FOUR)
    after = welfare_vector(ONE_PLUS_SLATE, result)
    assert all(x >= y for x, y in zip(after, before)) and after != before
    # the shared slate dominates outright
    assert welfare_vector(ONE_PLUS_SLATE, SHARED_SLATE) == (4, 4, 4, 4)
    assert check_pareto(ONE_PLUS_SLATE, SHARED_SLATE) is None
    # a gain for one voter dominates, with the others no worse off
    assert check_pareto(build(4, 1, [{0}, {1}, {2}]), frozenset({3})) == frozenset({0})


def test_pareto_empty_profile():
    instance = build(3, 2, [set(), set()])
    assert check_pareto(instance, frozenset({0, 1})) is None


def test_pareto_budget_guard():
    search = lambda budget: check_pareto(INTRO, COMMITTEE_A, budget=budget)
    assert assert_counts_nodes(search) == 455


@settings(deadline=None, max_examples=30)
@given(instances(max_voters=5, max_candidates=5, max_k=3))
def test_pav_two_core_transfer_and_dominance(instance):
    for winner in pav_winners(instance):
        assert find_core_deviation(instance, winner, lam=Fraction(2)) is None
        assert check_pigou_dalton(instance, winner) is None
        assert check_pareto(instance, winner) is None


# ---------------------------------------------------------------------------
# party lists: priceability matches divisor apportionment


def seats_reachable(voter_counts, seats):
    """Whether the seat split can come out of the divisor method: every
    awarded quotient must weakly beat every unawarded one."""
    taken = [
        Fraction(v, s) for v, s in zip(voter_counts, seats) if s >= 1
    ]
    untaken = [Fraction(v, s + 1) for v, s in zip(voter_counts, seats)]
    return not taken or min(taken) >= max(untaken)


def test_party_list_priceability_hand_cases():
    instance, _ = party_list((2, 1), (3, 3), 3)
    assert check_priceable(instance, frozenset({0, 1, 3})) is not None
    assert check_priceable(instance, frozenset({0, 1, 2})) is None
    assert check_priceable(instance, frozenset({0, 3, 4})) is None
    assert check_priceable(instance, frozenset({3, 4, 5})) is None
    assert dhondt((2, 1), 3) == (2, 1)
    assert seats_reachable((2, 1), (2, 1))
    assert not seats_reachable((2, 1), (3, 0))


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_party_list_priceability_matches_reachability(data):
    num_parties = data.draw(st.integers(1, 3), label="parties")
    counts = tuple(
        data.draw(st.integers(1, 4), label=f"party_{z}") for z in range(num_parties)
    )
    k = data.draw(st.integers(1, 4), label="seats")
    # k candidates per party, so every next quotient has a candidate behind it
    instance, pools = party_list(counts, (k,) * num_parties, k)
    committee = data.draw(
        st.frozensets(
            st.integers(0, instance.num_candidates - 1), min_size=k, max_size=k
        ),
        label="committee",
    )
    seats = tuple(len(committee & pool) for pool in pools)
    priced = check_priceable(instance, committee) is not None
    assert priced == seats_reachable(counts, seats)


def test_intro_committees_missing_the_shared_package_are_blocked():
    """Exhaustive sweep over all 455 twelve-member committees of the
    six-voter catalogue instance: whenever a committee misses one of the
    three shared candidates, or takes none of the first three voters'
    private candidates, those voters top out at welfare 3 and can afford
    the full six-candidate package, so a blocking deviation exists."""
    inst = fixture("intro")
    shared = frozenset({0, 1, 2})
    privates = frozenset({3, 4, 5})
    lacking = 0
    for pick in combinations(range(inst.num_candidates), 12):
        members = frozenset(pick)
        if shared <= members and members & privates:
            continue
        lacking += 1
        assert find_core_deviation(inst, members) is not None, sorted(members)
    assert lacking == 236


#: Run under ``python -O``: the search of each checker is fed corrupted
#: data (no voter approves the committee's member, the LP reports twice
#: its optimal price, or the full-spend flow twice each share), or its
#: witness is corrupted on the way out (PJR), so the witness is wrong and
#: only the re-check against the definition can catch it.  Each
#: priceability case corrupts one path only, on an instance that path
#: answers: ballots {0},{1} leave voter 1 nothing to spend the dollar on,
#: so the full-spend certificate fails and the LP answers; two voters on
#: {0} spend all they hold, so the certificate answers.
MUTATED_WITNESS_SCRIPT = """
import sys
from abcvote import axioms
from abcvote.axioms import Deviation
from abcvote.lp import LPOutcome
from abcvote.model import BallotClasses, ElectionInstance, InternalInvariantError

if __debug__:
    sys.exit("expected python -O")
solve, spend = axioms.lp_maximize, axioms._full_spend

def inflated(lp):
    out = solve(lp)
    price, *payments = out.assignment
    return LPOutcome(out.status, out.value, (2 * price, *payments))

def doubled(*args):
    shares = spend(*args)
    return shares and {key: 2 * share for key, share in shares.items()}

pair = ElectionInstance(2, 1, (frozenset({0}), frozenset({0})))
split = ElectionInstance(2, 1, (frozenset({0}), frozenset({1})))
for label, patch, corrupt, instance in (
    ("check_priceable/lp", "lp_maximize", inflated, split),
    ("check_priceable/full-spend", "_full_spend", doubled, pair),
):
    setattr(axioms, patch, corrupt)
    try:
        axioms.check_priceable(instance, frozenset({0}))
    except InternalInvariantError:
        print(label)
    axioms.lp_maximize, axioms._full_spend = solve, spend

# the EJR walk reads welfare and approvers off the instance's kept
# approver masks: these move both voters from member 0 to candidate 1;
# the core walks read each class's welfare off the instance's kept ballot
# classes: these give the one class an empty ballot, yet list it as a
# holder of candidate 0
vars(pair)["approver_masks"] = (0, 0b11)
vars(pair)["classes"] = BallotClasses((frozenset(),), ([0, 1],), (2,), ([0], []))
for name, extra in (
    ("check_ejr", ()),
    ("find_core_deviation", ()),
    ("check_core_subject_to", ("cohesive",)),
):
    try:
        getattr(axioms, name)(pair, frozenset({0}), *extra)
    except InternalInvariantError:
        print(name)

# the pair really violates PJR under the empty committee, but the witness
# now names an unshared candidate as well
axioms.Deviation = lambda coalition, alternative: Deviation(
    coalition, alternative | {1}
)
try:
    axioms.check_pjr(pair, frozenset())
except InternalInvariantError:
    print("check_pjr")
"""


def test_mutated_witness_raises_under_optimize():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))
    ))
    done = subprocess.run(
        [sys.executable, "-O", "-c", MUTATED_WITNESS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == [
        "check_priceable/lp",
        "check_priceable/full-spend",
        "check_ejr",
        "find_core_deviation",
        "check_core_subject_to",
        "check_pjr",
    ]
