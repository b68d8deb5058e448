"""Tests for the instance model and the text file format."""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abcvote import axioms, model
from abcvote.generators import FIXTURE_NAMES, fixture
from abcvote.laminar import check_laminar_proportional
from abcvote.model import (
    BallotClasses,
    ElectionInstance,
    ParseError,
    format_committee,
    instance_digest,
    parse_committee,
    parse_instance,
    restrict_profile,
    serialize_instance,
    suffix_counts,
    welfare_vector,
)
from abcvote.rules import (
    pav_score,
    pav_winners,
    phragmen_sequential,
    rule_x,
    seq_pav,
)
from tests.conftest import (
    block_instances,
    cloned_instances,
    instances,
    instances_with_committee,
    shared_ballot_instances,
    wide_instances,
)
from tests.oracles import clone_classes

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def test_parse_small_instance():
    inst = parse_instance("3 2 2\n1 2\n3\n")
    assert inst.num_candidates == 3
    assert inst.num_voters == 2
    assert inst.committee_size == 2
    assert inst.approvals == (frozenset({0, 1}), frozenset({2}))


def test_parse_comments_blank_ballots_and_trailing_whitespace():
    text = "# generated by hand\n4 3 2  \n1 2\n\n  # midway comment\n3 4\t\n"
    inst = parse_instance(text)
    assert inst.approvals == (frozenset({0, 1}), frozenset(), frozenset({2, 3}))


def test_parse_rejects_k_larger_than_m():
    with pytest.raises(ParseError, match=r"line 1.*k=3 exceeds m=2"):
        parse_instance("2 1 3\n1\n")


def test_parse_rejects_malformed_header():
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("3 2\n1\n2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("a b c\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("")


def test_parse_rejects_candidate_out_of_range():
    with pytest.raises(ParseError, match="line 3.*out of range"):
        parse_instance("3 2 2\n1\n4\n")
    with pytest.raises(ParseError, match="line 2.*out of range"):
        parse_instance("3 2 2\n0 1\n2\n")


def test_parse_rejects_duplicates_and_disorder():
    with pytest.raises(ParseError, match="line 2.*duplicate candidate 2"):
        parse_instance("3 1 1\n2 2\n")
    with pytest.raises(ParseError, match="line 2.*strictly increasing"):
        parse_instance("3 1 1\n2 1\n")


def test_parse_rejects_missing_or_extra_ballots():
    with pytest.raises(ParseError, match="announces 3 ballots"):
        parse_instance("3 3 1\n1\n2\n")
    with pytest.raises(ParseError, match="line 4.*unexpected content"):
        parse_instance("3 2 1\n1\n2\n3\n")


def test_repeated_malformed_line_fails_at_its_first_occurrence():
    text = "3 4 1\n# ballots\n1\n2 2\n2 2\n2 2\n"
    with pytest.raises(ParseError, match=r"^line 4: duplicate candidate 2$"):
        parse_instance(text)


def test_repeated_valid_line_around_a_bad_line():
    with pytest.raises(ParseError, match=r"^line 3: candidate index expected, got 'x'$"):
        parse_instance("3 3 1\n1 3\n1 x\n1 3\n")
    # the same text with the bad line mended, and the repeated line also in
    # leading- and trailing-whitespace variants
    inst = parse_instance("3 5 1\n1 3\n1 2\n1 3\n  1 3\n1 3 \t\n")
    assert inst.approvals == (
        frozenset({0, 2}),
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 2}),
        frozenset({0, 2}),
    )


@pytest.mark.parametrize("bad", [-1, 3])
def test_range_check_names_first_offending_voter(bad):
    good = frozenset({0, 2})
    ballots = (good, good, frozenset({1, bad}), frozenset({1, bad}), good)
    message = (
        f"^ballot of voter 2 mentions candidate {bad}, valid range is 0..2$"
    )
    with pytest.raises(ValueError, match=message):
        ElectionInstance(num_candidates=3, committee_size=1, approvals=ballots)


def test_range_check_on_non_integer_indices():
    # a whole float or Fraction equals an index, yet only ints are indices
    for bad in (1.5, 1.0, "a", Fraction(1), 3.5):
        message = (
            f"ballot of voter 1 mentions candidate {bad!r}, "
            "candidate indices must be ints"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ElectionInstance(3, 1, (frozenset({0}), frozenset({bad})))
    # a bool is an int
    assert ElectionInstance(3, 1, ({True},)).approvals == (frozenset({1}),)


def test_serialize_round_trips_by_hand():
    inst = ElectionInstance(
        num_candidates=5,
        committee_size=3,
        approvals=(frozenset({0, 4}), frozenset(), frozenset({1, 2, 3})),
    )
    text = serialize_instance(inst)
    assert text == "5 3 3\n1 5\n\n2 3 4\n"
    assert parse_instance(text) == inst


@given(instances())
def test_serialize_parse_round_trip(inst):
    assert parse_instance(serialize_instance(inst)) == inst


@given(instances())
def test_digest_is_stable_and_content_based(inst):
    assert instance_digest(inst) == instance_digest(parse_instance(serialize_instance(inst)))
    assert len(instance_digest(inst)) == 64


def test_instance_validation():
    with pytest.raises(ValueError):
        ElectionInstance(num_candidates=2, committee_size=3, approvals=(frozenset(),))
    with pytest.raises(ValueError):
        ElectionInstance(num_candidates=2, committee_size=0, approvals=(frozenset(),))
    with pytest.raises(ValueError):
        ElectionInstance(num_candidates=2, committee_size=1, approvals=())
    with pytest.raises(ValueError):
        ElectionInstance(num_candidates=2, committee_size=1, approvals=(frozenset({2}),))


# The six-voter instance from the package README: three voters share three
# candidates and privately approve one more each; three voters approve
# disjoint triples.
INTRO = ElectionInstance(
    num_candidates=15,
    committee_size=12,
    approvals=(
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 2, 4}),
        frozenset({0, 1, 2, 5}),
        frozenset({6, 7, 8}),
        frozenset({9, 10, 11}),
        frozenset({12, 13, 14}),
    ),
)


def test_welfare_vector_on_contrasting_committees():
    balanced_power = frozenset({0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 13})
    balanced_welfare = frozenset({0, 1, 2}) | frozenset(range(6, 15))
    assert welfare_vector(INTRO, balanced_power) == (4, 4, 4, 2, 2, 2)
    assert welfare_vector(INTRO, balanced_welfare) == (3, 3, 3, 3, 3, 3)


#: Every public function that takes a committee, as a call on (instance,
#: committee) with its other arguments valid.
COMMITTEE_TAKERS = {
    "welfare_vector": welfare_vector,
    "pav_score": pav_score,
    "check_laminar_proportional": check_laminar_proportional,
    "check_priceable": axioms.check_priceable,
    "validate_price_system": lambda instance, committee: axioms.validate_price_system(
        instance, committee, axioms.PriceSystem(Fraction(1), ({},) * instance.num_voters)
    ),
    "check_pjr": axioms.check_pjr,
    "check_ejr": axioms.check_ejr,
    "find_core_deviation": axioms.find_core_deviation,
    "minimal_core_lambda": axioms.minimal_core_lambda,
    "check_core_subject_to": lambda instance, committee: axioms.check_core_subject_to(
        instance, committee, axioms.COHESIVE
    ),
    "check_pareto": axioms.check_pareto,
    "check_pigou_dalton": axioms.check_pigou_dalton,
    "verify_deviation": lambda instance, committee: axioms.verify_deviation(
        instance, committee, axioms.Deviation(frozenset({0}), frozenset({0}))
    ),
}


@pytest.mark.parametrize("member", [15, -1, 1.5])
@pytest.mark.parametrize("name", COMMITTEE_TAKERS)
def test_committee_with_a_non_candidate_is_refused(name, member):
    # INTRO has candidates 0..14 and is laminar, so each call reaches its
    # committee; no function answers for a committee it cannot hold
    with pytest.raises(ValueError, match=f"^no such candidate: {member}$"):
        COMMITTEE_TAKERS[name](INTRO, frozenset({0, 1, 2, member}))


def test_approvers():
    assert INTRO.approvers(0) == frozenset({0, 1, 2})
    assert INTRO.approvers(3) == frozenset({0})
    assert INTRO.approvers(14) == frozenset({5})
    for candidate in (15, 1.5):
        with pytest.raises(ValueError, match=f"^no such candidate: {candidate}$"):
            INTRO.approvers(candidate)
    # the test oracles call approvers(); a wrong kept view must not reach them
    inst = ElectionInstance(2, 1, [{0}, {0, 1}])
    vars(inst)["approver_masks"] = (0, 0)
    assert inst.approvers(0) == frozenset({0, 1})
    assert inst.approvers(1) == frozenset({1})


def test_ballot_classes_in_first_appearance_order():
    inst = parse_instance("3 5 1\n2\n1 3\n2\n\n1 3\n")
    assert inst.classes == BallotClasses(
        ballots=(frozenset({1}), frozenset({0, 2}), frozenset()),
        voters=([0, 2], [1, 4], [3]),
        sizes=(2, 2, 1),
        holders=([1], [0], [1]),
    )


def assert_ballot_classes_by_definition(inst: ElectionInstance) -> None:
    classes = inst.classes
    ballots = classes.ballots
    # the voters partition range(n), grouped by ballot equality
    assert sorted(i for voters in classes.voters for i in voters) == list(inst.voters)
    for ballot, voters in zip(ballots, classes.voters, strict=True):
        assert voters == [i for i in inst.voters if inst.approvals[i] == ballot]
    assert len(set(ballots)) == len(ballots)
    # first-appearance order
    assert [voters[0] for voters in classes.voters] == sorted(
        inst.approvals.index(ballot) for ballot in ballots
    )
    assert list(classes.sizes) == [len(voters) for voters in classes.voters]
    assert list(classes.holders) == [
        [j for j, b in enumerate(ballots) if c in b] for c in inst.candidates
    ]


@given(st.one_of(instances(12, 8), shared_ballot_instances(12, 8)))
def test_ballot_classes_match_definition(inst):
    assert_ballot_classes_by_definition(inst)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_ballot_classes_match_definition_on_fixture(name):
    assert_ballot_classes_by_definition(fixture(name))


def test_profile_view_is_built_once_and_left_intact(monkeypatch):
    """Every rule and checker reads one ballot-class view per instance,
    and none mutates the view it shares with the others."""
    built = []
    build = model.BallotClasses

    def counted(**fields):
        built.append(fields)
        return build(**fields)

    monkeypatch.setattr(model, "BallotClasses", counted)
    inst = fixture("example33")
    committee = phragmen_sequential(inst).committee
    pav_score(inst, committee)
    pav_winners(inst)
    axioms.check_priceable(inst, committee)
    axioms.find_core_deviation(inst, committee)
    rule_x(inst)
    seq_pav(inst)
    assert len(built) == 1
    fresh = fixture("example33")
    assert_ballot_classes_by_definition(inst)
    assert inst.classes == fresh.classes
    assert inst.approver_masks == tuple(
        sum(1 << i for i in fresh.voters if c in fresh.approvals[i])
        for c in fresh.candidates
    )
    assert inst.clones == tuple(map(tuple, clone_classes(fresh.classes.holders)))


@given(st.one_of(instances(8, 6), cloned_instances(), wide_instances()))
def test_clones_from_approver_masks_match_clones_from_holders(inst):
    assert inst.approver_masks == tuple(
        sum(1 << i for i in inst.approvers(c)) for c in inst.candidates
    )
    assert inst.clones == tuple(map(tuple, clone_classes(inst.classes.holders)))


def assert_masks_from_approvers(inst: ElectionInstance) -> None:
    assert inst.approver_masks == tuple(
        sum(1 << i for i in inst.approvers(c)) for c in inst.candidates
    )


@pytest.mark.parametrize(
    "ballots",
    [
        [{0, 1}, {0, 1}, {0, 1}, {2}, {1}],  # a block at the start
        [{2}, {1}, {0, 1}, {0, 1}, {0, 1}],  # a block at the end
        [{0}, {0}, {1}, {0}],  # A A B A: a ballot recurs after another
        [set(), set(), {0}, set(), set(), set()],  # blocks of empty ballots
        [{0, 2}],  # one voter
    ],
)
def test_approver_masks_per_block(ballots):
    assert_masks_from_approvers(ElectionInstance(3, 1, ballots))


def test_approver_masks_join_equal_ballots_that_are_different_objects():
    a, b = frozenset({0, 1}), frozenset([1, 0])
    inst = ElectionInstance(2, 1, [a, b, frozenset({1}), b, a])
    assert inst.approvals[0] is not inst.approvals[1]
    assert inst.approver_masks == (0b11011, 0b11111)


@given(block_instances())
def test_approver_masks_match_approvers_on_blocks(inst):
    assert_masks_from_approvers(inst)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_approver_masks_match_approvers_with_voters_sorted_by_ballot(name):
    inst = fixture(name)
    ballots = sorted(inst.approvals, key=sorted)
    built = ElectionInstance(inst.num_candidates, inst.committee_size, ballots)
    assert_masks_from_approvers(built)
    # parsed, equal ballots are one object
    assert_masks_from_approvers(parse_instance(built.text))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_parsed_instance_equals_constructed_one(name):
    parsed = parse_instance((FIXTURES_DIR / f"{name}.txt").read_text())
    # the parser builds each ballot from its sorted indices, as here, so
    # the frozensets also print alike
    built = ElectionInstance(
        parsed.num_candidates, parsed.committee_size, [sorted(b) for b in parsed.approvals]
    )
    assert parsed == built == fixture(name)
    assert hash(parsed) == hash(built) and repr(parsed) == repr(built)
    assert list(vars(parsed)) == [*ElectionInstance._fields, "text"]
    for field in ElectionInstance._fields:
        assert type(getattr(parsed, field)) is type(getattr(built, field))
    assert {type(ballot) for ballot in parsed.approvals} == {frozenset}
    assert {type(c) for ballot in parsed.approvals for c in ballot} <= {int}
    assert parsed.text == built.text


def test_clone_classes_group_equal_lists_by_first_member():
    lists = [[0, 2], [1], [0, 2], [], [1], [0, 2], []]
    assert clone_classes(lists) == [[0, 2, 5], [1, 4], [3, 6]]


def test_suffix_counts_count_each_class_from_every_position():
    holders = [[0, 2], [1], [0, 2], []]
    assert suffix_counts(holders, 3) == [
        [2, 1, 2],
        [1, 1, 1],
        [1, 0, 1],
        [0, 0, 0],
        [0, 0, 0],
    ]
    assert suffix_counts([], 2) == [[0, 0]]


def test_restrict_profile_keeps_candidate_universe():
    sub = restrict_profile(INTRO, [0, 1, 2], new_k=6)
    assert sub.num_candidates == INTRO.num_candidates
    assert sub.num_voters == 3
    assert sub.committee_size == 6
    assert sub.approvals == INTRO.approvals[:3]
    with pytest.raises(ValueError):
        restrict_profile(INTRO, [], new_k=2)
    for voter in (7, 0.5):
        with pytest.raises(ValueError, match=f"^no such voter: {voter}$"):
            restrict_profile(INTRO, [voter], new_k=2)
    for voters in (["a", 1], [2, "a", 0]):
        with pytest.raises(ValueError, match="^no such voter: a$"):
            restrict_profile(INTRO, voters, new_k=1)


@given(instances_with_committee())
def test_welfare_monotone_under_committee_growth(pair):
    inst, members = pair
    smaller = frozenset(sorted(members)[:-1]) if members else frozenset()
    w_small = welfare_vector(inst, smaller)
    w_full = welfare_vector(inst, members)
    assert all(a <= b for a, b in zip(w_small, w_full))


@given(instances_with_committee())
def test_welfare_sum_equals_approver_sum(pair):
    inst, members = pair
    total = sum(welfare_vector(inst, members))
    assert total == sum(len(inst.approvers(c)) for c in members)


def test_committee_literals():
    assert parse_committee("1,2,4,5", 6) == frozenset({0, 1, 3, 4})
    assert parse_committee("", 6) == frozenset()
    # any order, blank tokens skipped; reports render the increasing form
    assert parse_committee("2,1", 6) == frozenset({0, 1})
    assert parse_committee(" 5, ,1,", 6) == frozenset({0, 4})
    assert format_committee({3, 0, 1, 4}) == "1,2,4,5"
    assert format_committee(set()) == ""
    with pytest.raises(ParseError, match="duplicate"):
        parse_committee("1,1", 6)
    with pytest.raises(ParseError):
        parse_committee("0,1", 6)
    with pytest.raises(ParseError):
        parse_committee("1,7", 6)
    with pytest.raises(ParseError):
        parse_committee("1,x", 6)
