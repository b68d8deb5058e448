"""Tests for the instance catalogue and the parametric generators."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcvote.axioms import Deviation, verify_deviation
from abcvote.generators import (
    FIXTURE_NAMES,
    fixture,
    gen_laminar,
    gen_party_list,
    gen_random,
    gen_rulex_lower_bound,
    gen_theorem51_family,
)
from abcvote.laminar import check_laminar, laminar_proportional_committees
from abcvote.model import parse_instance, serialize_instance, welfare_vector
from abcvote.rules import dhondt, phragmen_sequential, rule_x

F = Fraction

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# catalogue


def test_unknown_fixture_name():
    with pytest.raises(ValueError, match="unknown fixture"):
        fixture("nope")


def test_fixture_shapes():
    expected = {
        "intro": (6, 15, 12),
        "phragmen1899": (4000, 9, 5),
        "example21": (15, 5, 4),
        "example22": (15, 5, 4),
        "example31": (8, 8, 8),
        "example32": (6, 8, 4),
        "example33": (9, 20, 12),
        "example41": (4, 8, 4),
        "thm32_instance1": (8, 22, 20),
        "thm32_instance2": (8, 24, 20),
        "fig2_profile1": (12, 669, 57),
        "fig2_profile2": (12, 669, 57),
        "fig3": (6, 15, 12),
        "fig4_profile1": (16, 54, 48),
        "fig4_profile2": (16, 54, 48),
        "fig4_profile3": (16, 53, 48),
        "propB1": (160, 36, 20),
        "overlapping_parties": (4, 200, 100),
        "remarkA1": (18, 8, 6),
    }
    assert set(FIXTURE_NAMES) == set(expected)
    for name, (n, m, k) in expected.items():
        inst = fixture(name)
        assert (inst.num_voters, inst.num_candidates, inst.committee_size) == (
            n,
            m,
            k,
        ), name


def test_fixture_aliases_and_determinism():
    assert fixture("intro") == fixture("fig3")
    assert fixture("example21") == fixture("example22")
    for name in FIXTURE_NAMES:
        assert fixture(name) == fixture(name)


def test_shipped_fixture_files_match_generators():
    for name in FIXTURE_NAMES:
        path = FIXTURES_DIR / f"{name}.txt"
        assert path.is_file(), path
        text = path.read_text(encoding="ascii")
        assert text == serialize_instance(fixture(name)), name
        assert parse_instance(text) == fixture(name), name


def test_intro_ballots():
    inst = fixture("intro")
    assert [sorted(b) for b in inst.approvals] == [
        [0, 1, 2, 3],
        [0, 1, 2, 4],
        [0, 1, 2, 5],
        [6, 7, 8],
        [9, 10, 11],
        [12, 13, 14],
    ]


def test_blocks_fifteen_ballots():
    inst = fixture("example21")
    assert list(inst.approvals) == (
        [frozenset({0, 1, 2})] * 5
        + [frozenset({0, 1, 2, 3, 4})] * 5
        + [frozenset({0, 1, 3, 4})] * 2
        + [frozenset({3, 4})] * 3
    )


def test_fig2_profiles_each_voter_approves_57():
    for name in ("fig2_profile1", "fig2_profile2"):
        inst = fixture(name)
        assert all(len(b) == 57 for b in inst.approvals), name
    one, two = fixture("fig2_profile1"), fixture("fig2_profile2")
    shared = frozenset({0, 1, 2})
    assert [v for v, b in enumerate(one.approvals) if shared <= b] == [0, 1, 2, 3, 4, 5]
    assert [v for v, b in enumerate(two.approvals) if shared <= b] == list(range(6, 12))


def test_fig4_profiles_structure():
    one = fixture("fig4_profile1")
    assert [len(b) for b in one.approvals] == [7] * 4 + [6] * 12
    approved = frozenset().union(*one.approvals)
    assert sorted(set(range(54)) - approved) == [52, 53]

    two = fixture("fig4_profile2")
    assert [len(b) for b in two.approvals] == [7, 7] + [6] * 3 + [7, 7] + [6] * 7 + [
        7,
        6,
    ]
    bridge = [c for c in range(54) if {v for v, b in enumerate(two.approvals) if c in b} == {5, 6}]
    assert bridge == [25]
    assert sorted(set(range(54)) - frozenset().union(*two.approvals)) == [51, 52, 53]

    three = fixture("fig4_profile3")
    assert [len(b) for b in three.approvals] == [7, 7] + [6] * 12 + [7, 6]
    assert sorted(set(range(53)) - frozenset().union(*three.approvals)) == [50, 51, 52]


def test_prop_b1_budget_spending_elects_first_twenty():
    inst = fixture("propB1")
    trace = rule_x(inst)
    assert sorted(trace.committee) == list(range(20))
    assert set(trace.q_values) == {F(1, 7), F(1)}


def test_overlapping_parties_seat_splits():
    inst = fixture("overlapping_parties")
    by_party = lambda committee: (
        sum(1 for c in committee if c < 100),
        sum(1 for c in committee if c >= 100),
    )
    assert by_party(rule_x(inst).committee) == (75, 25)
    # Derived, frozen: the spend-clock split lands two thirds / one third.
    assert by_party(phragmen_sequential(inst).committee) == (67, 33)


def test_remark_a1_fixture():
    inst = fixture("remarkA1")
    assert sorted(phragmen_sequential(inst).committee) == [0, 3, 4, 5, 6, 7]
    assert check_laminar(inst) is None
    assert dhondt((2, 2, 2, 12), 6) == (1, 0, 0, 5)


def test_thm32_instances_welfare_split():
    one = fixture("thm32_instance1")
    committees = laminar_proportional_committees(one)
    assert len(committees) == 25
    assert {welfare_vector(one, w) for w in committees} == {(6,) * 8}
    skewed = frozenset(range(22)) - {17, 21}
    assert sorted(welfare_vector(one, skewed)) == [5, 5, 5, 5, 7, 7, 7, 7]

    two = fixture("thm32_instance2")
    committees = laminar_proportional_committees(two)
    assert committees == [frozenset(range(20))]
    assert sorted(welfare_vector(two, committees[0])) == [5, 5, 5, 5, 7, 7, 7, 7]
    flat = frozenset(range(16)) | frozenset(range(20, 24))
    assert welfare_vector(two, flat) == (6,) * 8


# ---------------------------------------------------------------------------
# party lists


def test_party_list_integral_example():
    built = gen_party_list((3, 3, 2), (3, 3, 2), 8)
    assert built.integral
    assert built.instance == fixture("example31")
    assert built.parties == (
        frozenset({0, 1, 2}),
        frozenset({3, 4, 5}),
        frozenset({6, 7}),
    )
    assert check_laminar(built.instance) is not None


def test_party_list_non_integral_example():
    built = gen_party_list((2, 1), (2, 2), 2)
    assert not built.integral
    assert check_laminar(built.instance) is None


def test_party_list_unanimous_example():
    built = gen_party_list((1,), (5,), 5)
    assert built.integral
    assert built.instance.num_candidates == 5
    assert check_laminar(built.instance) is not None


def test_party_list_errors():
    with pytest.raises(ValueError, match="length"):
        gen_party_list((1, 2), (3,), 2)
    with pytest.raises(ValueError, match="positive"):
        gen_party_list((1, 0), (1, 1), 1)
    with pytest.raises(ValueError):
        gen_party_list((), (), 1)
    with pytest.raises(ValueError, match="seat share"):
        gen_party_list((3, 1), (1, 4), 4)


@given(
    voter_counts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    k=st.integers(1, 8),
)
def test_party_list_integral_flag_matches_recognizer(voter_counts, k):
    # Ample supply so integral instances can always seat their parties.
    supply = [k] * len(voter_counts)
    built = gen_party_list(tuple(voter_counts), tuple(supply), k)
    assert built.integral == (check_laminar(built.instance) is not None)


# ---------------------------------------------------------------------------
# laminar derivations


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_gen_laminar_always_recognized(seed):
    inst = gen_laminar(seed, max_depth=4, max_voters=12, k=6)
    assert check_laminar(inst) is not None
    assert inst == gen_laminar(seed, max_depth=4, max_voters=12, k=6)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_gen_laminar_approver_sets_nest(seed):
    # Independent structural check: approver sets of any two approved
    # candidates are nested or disjoint.
    inst = gen_laminar(seed, max_depth=3, max_voters=10, k=5)
    supporters = [
        frozenset(v for v, b in enumerate(inst.approvals) if c in b)
        for c in range(inst.num_candidates)
    ]
    supporters = [s for s in supporters if s]
    for a in supporters:
        for b in supporters:
            assert a <= b or b <= a or not (a & b)


def test_gen_laminar_errors():
    with pytest.raises(ValueError):
        gen_laminar(0, max_depth=3, max_voters=5, k=0)
    with pytest.raises(ValueError):
        gen_laminar(0, max_depth=3, max_voters=0, k=2)
    with pytest.raises(ValueError):
        gen_laminar(0, max_depth=0, max_voters=5, k=2)


# ---------------------------------------------------------------------------
# adversarial families


def test_theorem51_family_shapes():
    inst = gen_theorem51_family(4, 2)
    assert inst.num_voters == 12
    assert inst.num_candidates == 26
    assert inst.committee_size == 18
    # The sharing group's exact seat share:
    assert F(inst.committee_size * 4, inst.num_voters) == 6
    shared = frozenset(range(2))
    assert [v for v, b in enumerate(inst.approvals) if shared <= b] == list(range(4))
    assert all(len(b) == 4 for b in inst.approvals[:4])
    assert all(len(b) == 2 for b in inst.approvals[4:])
    assert gen_theorem51_family(9, 3).committee_size == 84


def test_theorem51_family_errors():
    with pytest.raises(ValueError, match="at least 2"):
        gen_theorem51_family(4, 1)
    with pytest.raises(ValueError, match="squared"):
        gen_theorem51_family(3, 2)


def test_lower_bound_minimal_budget():
    # L = 1 is the smallest budget, and it is accepted for every x
    assert gen_rulex_lower_bound(2, 1).committee_size == 5
    assert gen_rulex_lower_bound(3, 1).num_candidates == 61
    with pytest.raises(ValueError, match="^x must be at least 2$"):
        gen_rulex_lower_bound(1, 1)
    with pytest.raises(ValueError, match="^per-seat budget L must be at least 1$"):
        gen_rulex_lower_bound(2, 0)


def test_lower_bound_smallest_instance():
    inst = gen_rulex_lower_bound(2, 1)
    assert inst.num_candidates == 9
    assert inst.committee_size == 5
    assert [sorted(b) for b in inst.approvals] == [
        [3, 5, 6],
        [4, 7, 8],
        [0, 1, 2, 5, 6, 7, 8],
        [0, 1, 2, 5, 6, 7, 8],
        [0, 1, 2],
    ]
    assert sorted(rule_x(inst).committee) == [0, 1, 2, 3, 4]


def test_lower_bound_ratio_scales():
    for x in (2, 3):
        inst = gen_rulex_lower_bound(x, 1)
        pool = x**x
        groups = x * x ** (x - 1)
        committee = rule_x(inst).committee
        decoys = frozenset(range(inst.num_candidates - pool))
        assert committee == decoys
        assert len(decoys) == inst.committee_size
        deviation = Deviation(
            coalition=frozenset(range(groups)),
            alternative=frozenset(range(inst.num_candidates - pool, inst.num_candidates)),
        )
        assert verify_deviation(inst, committee, deviation, lam=F(1))
        ratios = [
            F(
                len(inst.approvals[v] & deviation.alternative),
                len(inst.approvals[v] & committee),
            )
            for v in deviation.coalition
        ]
        assert min(ratios) >= x - 1


def test_lower_bound_scaled_budget():
    inst = gen_rulex_lower_bound(2, 2)
    assert inst.num_voters == 10
    assert inst.committee_size == 5
    pool = frozenset(range(inst.num_candidates - 4, inst.num_candidates))
    assert rule_x(inst).committee == frozenset(range(inst.num_candidates)) - pool


def test_lower_bound_errors():
    with pytest.raises(ValueError, match="at least 2"):
        gen_rulex_lower_bound(1, 1)
    with pytest.raises(ValueError, match="at least 1"):
        gen_rulex_lower_bound(2, 0)


# ---------------------------------------------------------------------------
# random profiles


def test_gen_random_density_extremes():
    empty = gen_random(3, 4, 6, 2, 0)
    assert all(not b for b in empty.approvals)
    full = gen_random(3, 4, 6, 2, 1)
    assert all(b == frozenset(range(6)) for b in full.approvals)


def test_gen_random_golden():
    inst = gen_random(20260814, 6, 8, 3, 0.5)
    assert [sorted(b) for b in inst.approvals] == [
        [3, 7],
        [2, 3, 4, 5, 6],
        [0, 4, 5],
        [2, 4, 5, 7],
        [0, 1, 3, 4, 6, 7],
        [0, 1, 3, 6],
    ]
    assert inst == gen_random(20260814, 6, 8, 3, 0.5)


def test_gen_random_accepts_exact_density():
    inst = gen_random(7, 5, 6, 2, F(1, 2))
    assert inst == gen_random(7, 5, 6, 2, F(1, 2))


def test_gen_random_errors():
    with pytest.raises(ValueError):
        gen_random(0, 0, 3, 1, 0.5)
    with pytest.raises(ValueError):
        gen_random(0, 2, 3, 4, 0.5)
    with pytest.raises(ValueError):
        gen_random(0, 2, 3, 1, 1.5)
