"""Differential tests: the exact checkers of ``abcvote.axioms`` against
the per-voter reference versions kept in ``tests/oracles.py``.

Deviations must be identical (the lexicographically-first witness),
priceability must give the same verdict and the same optimal price, with
the LP skipped exactly where that price is n/|W|, and the price-system
re-check must give the same verdict on valid and corrupted systems.
The oracles keep the up-front 2^m and 2^n guards, so
answers are compared where the oracle decides; on random instances each
fast walk must also give up one node short of its node count and, at
that count, give the answer.  The pruned core walk must yield the same
sets with the same counts, in the same order, as the full walk.  Inputs
are the catalogue fixtures and Hypothesis instances, half of them drawn from
a small pool of ballots so that most voters share their ballot with
others; priceability is also compared on instances with planted clones.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abcvote import axioms
from abcvote.axioms import PriceSystem
from abcvote.generators import FIXTURE_NAMES, fixture
from abcvote.lp import INFEASIBLE, OPTIMAL, lp_maximize
from abcvote.model import DEFAULT_NODE_BUDGET, ElectionInstance, SearchBudgetExceeded
from abcvote.rules import phragmen_sequential, rule_x, seq_pav
from tests import oracles
from tests.conftest import (
    assert_counts_nodes,
    cloned_instances,
    instances,
    shared_ballot_instances,
)
from tests.test_axioms import (
    BROKEN_SYSTEMS,
    COMMITTEE_A,
    COMMITTEE_B,
    INTRO,
    REJECTION_COMMITTEE,
    REJECTION_INSTANCE,
    VALID_SYSTEM,
    priceability_program,
)

F = Fraction

#: Each check, given a checker module, an instance, a committee and a
#: budget (priceability has no budget).
CHECKS = {
    "priceable": lambda mod, inst, w, budget: mod.check_priceable(inst, w),
    "ejr": lambda mod, inst, w, budget: mod.check_ejr(inst, w, budget),
    "pjr": lambda mod, inst, w, budget: mod.check_pjr(inst, w, budget),
    **{
        f"core{suffix}": (
            lambda mod, inst, w, budget, lam=lam:
            mod.find_core_deviation(inst, w, lam, budget)
        )
        for suffix, lam in (("", F(1)), ("-3/2", F(3, 2)), ("-2", F(2)))
    },
    "lambda": lambda mod, inst, w, budget: mod.minimal_core_lambda(inst, w, budget),
    **{
        f"subject-{prop}": (
            lambda mod, inst, w, budget, prop=prop:
            mod.check_core_subject_to(inst, w, prop, budget)
        )
        for prop in ("cohesive", "price_eq", "priceable")
    },
}

#: (fixture, check) pairs left out of the fixture comparison because the
#: oracle takes more than a few seconds on them (measured on a 2-CPU
#: x86-64 machine): example33 (m=20) walks 2^20 sets, 7 s for the plain
#: core and 50 s for lam > 1; phragmen1899 (n=4000) recounts 4000 voters
#: per set, 11 s per lam > 1 and 6 s for the minimal lam; the per-voter
#: priceability LP runs for minutes on phragmen1899, 24 s on propB1, 62 s
#: on the fig2 profiles (m=669) and 33 s on overlapping_parties (m=200).
SLOW_FOR_ORACLE = (
    {("example33", check) for check in CHECKS if check not in ("priceable", "ejr")}
    | {("phragmen1899", check) for check in ("core-3/2", "core-2", "lambda")}
    | {
        (name, "priceable")
        for name in ("phragmen1899", "propB1", "fig2_profile1", "fig2_profile2",
                     "overlapping_parties")
    }
)

DEDUPED_FIXTURES = [name for name in FIXTURE_NAMES if name != "fig3"]  # fig3 is intro

#: The budget for fixtures with more than 20 candidates, where the
#: oracle's 2^m guard leaves no answer to compare: the fast walks use it
#: up in milliseconds, where the default takes up to about 15 s on a
#: 2-CPU x86-64 host.
QUICK_BUDGET = 1 << 8

#: PJR walks voter sets, not candidate sets, so its fixtures and budgets
#: are chosen by n, in tests of their own.
BY_VOTERS = ("pjr",)


def outcome(module, check: str, instance: ElectionInstance, committee, budget):
    """What a check returns, with a price system reduced to its price and
    a budget overrun reduced to a marker."""
    try:
        result = CHECKS[check](module, instance, committee, budget)
    except SearchBudgetExceeded:
        return "budget exceeded"
    if isinstance(result, PriceSystem):
        return ("priceable at", result.price)
    return result


def assert_same(
    check: str, instance: ElectionInstance, committee, budget=DEFAULT_NODE_BUDGET
) -> None:
    """The fast check at ``budget`` answers as the oracle does, wherever
    the oracle decides at the default budget."""
    fast = outcome(axioms, check, instance, committee, budget)
    reference = outcome(oracles, check, instance, committee, DEFAULT_NODE_BUDGET)
    if reference != "budget exceeded":
        assert fast == reference


def assert_same_at_node_count(check: str, instance: ElectionInstance, committee) -> None:
    """The fast check gives up one node short of its node count and, at
    that count, answers as the oracle does."""
    nodes = assert_counts_nodes(
        lambda budget: CHECKS[check](axioms, instance, committee, budget)
    )
    assert_same(check, instance, committee, nodes)


@pytest.mark.parametrize(
    "name,check",
    [
        (name, check)
        for name in DEDUPED_FIXTURES
        for check in CHECKS
        if (name, check) not in SLOW_FOR_ORACLE
        and check not in BY_VOTERS
    ],
)
def test_fixture_matches_oracle(name, check):
    inst = fixture(name)
    budget = DEFAULT_NODE_BUDGET if inst.num_candidates <= 20 else QUICK_BUDGET
    committees = {phragmen_sequential(inst).committee, rule_x(inst).committee}
    for committee in sorted(committees, key=sorted):
        assert_same(check, inst, committee, budget)


@st.composite
def audits(draw):
    """An instance and a committee of at most k members.  Ballots may be
    empty, and committees undersized or empty."""
    inst = draw(st.one_of(shared_ballot_instances(), instances(7, 7)))
    size = draw(st.integers(0, inst.committee_size))
    committee = frozenset(draw(st.permutations(range(inst.num_candidates)))[:size])
    return inst, committee


@settings(max_examples=100, deadline=None)
@given(audits())
def test_priceable_matches_oracle(audit):
    assert_same("priceable", *audit)


@st.composite
def cloned_audits(draw):
    """A ``cloned_instances`` draw with its Phragmén committee, its Rule X
    committee or a drawn set of at most k members; a drawn set can elect
    part of a clone class and leave the rest out."""
    inst = draw(cloned_instances())
    kind = draw(st.sampled_from(("phragmen", "rulex", "drawn")))
    if kind == "phragmen":
        return inst, phragmen_sequential(inst).committee
    if kind == "rulex":
        return inst, rule_x(inst).committee
    size = draw(st.integers(0, inst.committee_size))
    return inst, frozenset(draw(st.permutations(range(inst.num_candidates)))[:size])


@settings(max_examples=150, deadline=None)
@given(cloned_audits())
def test_priceable_matches_oracle_with_clones(audit):
    # one payment variable per elected clone class: the same verdict and
    # price as the per-voter, per-candidate program, and a system that
    # passes the reference re-check
    inst, committee = audit
    system = axioms.check_priceable(inst, committee)
    reference = oracles.check_priceable(inst, committee)
    assert (system is None) == (reference is None)
    if system is not None:
        assert system.price == reference.price
        assert oracles.validate_price_system(inst, committee, system)


@settings(max_examples=150, deadline=None)
@given(st.one_of(audits(), cloned_audits()))
def test_priceability_programs_are_bounded(audit):
    # the LP reports only the two outcomes check_priceable can reach: a
    # spending row caps each payment at 1, so a collection row caps the
    # price at n.  The empty committee has no collection row, and
    # check_priceable answers it before any LP is built
    inst, committee = audit
    if committee:
        assert lp_maximize(priceability_program(inst, committee)).status in (
            OPTIMAL, INFEASIBLE
        )


@st.composite
def ruled_shared_audits(draw):
    """A ``shared_ballot_instances`` draw with its Phragmén or Rule X
    committee, where voters on one ballot most often spend all they hold."""
    inst = draw(shared_ballot_instances(12, 7))
    rule = draw(st.sampled_from((phragmen_sequential, rule_x)))
    return inst, rule(inst).committee


@settings(max_examples=200, deadline=None)
@given(st.one_of(audits(), cloned_audits(), ruled_shared_audits()))
@example((INTRO, COMMITTEE_A))
@example((INTRO, COMMITTEE_B))
def test_full_spend_certificate_matches_oracle(audit):
    # the certificate answers in place of the LP exactly when the optimal
    # price is n/|W|, and its system is a valid one at that price.  On the
    # intro instance n/|W| = 6/12 for both committees: under A every voter
    # can spend the whole dollar at 1/2 a member, and under B each voter of
    # the three triples would owe 3/2 for three members, so B reaches the
    # LP, which finds no positive price
    inst, committee = audit
    with patch.object(axioms, "lp_maximize", wraps=axioms.lp_maximize) as solve:
        system = axioms.check_priceable(inst, committee)
    reference = oracles.check_priceable(inst, committee)
    assert (system is None) == (reference is None)
    if system is not None:
        assert system.price == reference.price
        assert oracles.validate_price_system(inst, committee, system)
    if committee:
        full = reference is not None and reference.price == F(
            inst.num_voters, len(committee)
        )
        assert (solve.call_count == 0) == full


@settings(max_examples=150, deadline=None)
@given(audits())
def test_ejr_matches_oracle(audit):
    assert_same_at_node_count("ejr", *audit)


@settings(max_examples=100, deadline=None)
@given(audits(), st.sampled_from(("core", "core-3/2", "core-2", "lambda")))
def test_core_matches_oracle(audit, check):
    assert_same_at_node_count(check, *audit)


@settings(max_examples=120, deadline=None)
@given(audits(), st.sampled_from([c for c in CHECKS if c.startswith("subject-")]))
def test_core_subject_to_matches_oracle(audit, check):
    assert_same_at_node_count(check, *audit)


@st.composite
def overspender_audits(draw):
    """A planted voter approves a whole block of t candidates, and r > t
    other voters each approve a of them (a < t, in a cycle) and one
    committee member; a few more voters approve only candidates off the
    block, and k makes n/k about r/t.  The block candidates have few
    payers besides the planted voter, so the planted voter can overspend
    in equal shares that the others can pay once it leaves: the gaining
    group itself fails, a part of it qualifies."""
    t = draw(st.integers(2, 3))  # the block is 0..t-1
    pool = draw(st.integers(1, 3))  # the committee candidates
    spare = draw(st.integers(0, 2))
    m = t + pool + spare
    held = range(t, t + pool)
    r = draw(st.integers(t + 1, 7))
    a = draw(st.integers(1, t - 1))
    ballots = [
        frozenset((i + j) % t for j in range(a)) | {draw(st.sampled_from(held))}
        for i in range(r)
    ]
    planted = frozenset(range(t)) | frozenset(draw(st.permutations(held))[: t - 1])
    ballots.insert(draw(st.integers(0, r)), planted)
    ballots += draw(st.lists(st.frozensets(st.integers(t, m - 1)), max_size=3))
    n = len(ballots)
    k = min(m, max(1, -(-n * t // r) + draw(st.integers(-1, 1))))
    return ElectionInstance(m, k, tuple(ballots)), frozenset(list(held)[:k])


@settings(max_examples=150, deadline=None)
@given(overspender_audits())
def test_price_eq_with_overspender_matches_oracle(audit):
    assert_same_at_node_count("subject-price_eq", *audit)


@pytest.mark.parametrize(
    "name", [name for name in DEDUPED_FIXTURES if fixture(name).num_voters <= 20]
)
def test_pjr_fixture_matches_oracle(name):
    inst = fixture(name)
    committees = {
        frozenset(),
        phragmen_sequential(inst).committee,
        rule_x(inst).committee,
    }
    for committee in sorted(committees, key=sorted):
        assert_same("pjr", inst, committee)


@settings(max_examples=200, deadline=None)
@given(audits())
def test_pjr_matches_oracle(audit):
    assert_same_at_node_count("pjr", *audit)


# ---------------------------------------------------------------------------
# core T-walk: the pruned walk against the full one, yield by yield


def walk_thresholds(welfare) -> dict[str, list[int]]:
    """The gain thresholds the core family walks with: lam = 1, 3/2 and 2
    as ``find_core_deviation`` sets them, and ``minimal_core_lambda``'s
    max(u, 1)."""
    return {
        "lam=1": welfare,
        **{
            f"lam={lam}": [floor(max(lam * u, 1)) for u in welfare]
            for lam in (F(3, 2), F(2))
        },
        "max(u,1)": [max(u, 1) for u in welfare],
    }


def assert_same_walk(inst: ElectionInstance, committee) -> None:
    classes = inst.classes
    welfare = [len(ballot & frozenset(committee)) for ballot in classes.ballots]
    # the oracle walk takes plain (ballot, voters) pairs and builds its own
    # candidate-to-class lists
    pairs = list(zip(classes.ballots, classes.voters))
    for name, thresholds in walk_thresholds(welfare).items():
        fast = axioms._blocking_sets(inst, thresholds)
        full = oracles.blocking_sets(inst, pairs, thresholds)
        assert [(t, tuple(c)) for t, c in fast] == [
            (t, tuple(c)) for t, c in full
        ], name


@pytest.mark.parametrize(
    "name", [name for name in DEDUPED_FIXTURES if fixture(name).num_candidates <= 20]
)
def test_fixture_walk_matches_oracle(name):
    inst = fixture(name)
    for committee in {phragmen_sequential(inst).committee, rule_x(inst).committee}:
        assert_same_walk(inst, committee)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(shared_ballot_instances(12, 12), instances(12, 12)),
    st.randoms(use_true_random=False),
)
def test_walk_matches_oracle(inst, rng):
    committees = {
        frozenset(),
        phragmen_sequential(inst).committee,
        rule_x(inst).committee,
        frozenset(rng.sample(inst.candidates, rng.randint(1, inst.committee_size))),
    }
    for committee in committees:
        assert_same_walk(inst, committee)


# ---------------------------------------------------------------------------
# EJR and PJR against the cohesive core walk.  A cohesive blocking pair is
# a deprived cohesive group: every member approves all of T, so it gains
# exactly when |T| exceeds its utility.  A PJR group is one too: each
# member's utility is at most W's coverage of the group's union, below the
# level, and |W| <= k.


def assert_ejr_agrees_with_cohesive_core(inst: ElectionInstance, committee) -> None:
    """EJR finds a witness exactly when the cohesive core walk does, and
    wherever PJR finds one (PJR walks voter sets, so only for n <= 20)."""
    ejr = axioms.check_ejr(inst, committee)
    cohesive = axioms.check_core_subject_to(inst, committee, "cohesive")
    assert (ejr is None) == (cohesive is None)
    if inst.num_voters <= 20 and axioms.check_pjr(inst, committee):
        assert ejr is not None


@pytest.mark.parametrize(
    "name", [name for name in DEDUPED_FIXTURES if fixture(name).num_candidates <= 20]
)
def test_fixture_ejr_agrees_with_cohesive_core(name):
    inst = fixture(name)
    committees = {
        frozenset(),
        phragmen_sequential(inst).committee,
        rule_x(inst).committee,
        seq_pav(inst),
    }
    for committee in sorted(committees, key=sorted):
        assert_ejr_agrees_with_cohesive_core(inst, committee)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(shared_ballot_instances(12, 12), instances(12, 12)),
    st.randoms(use_true_random=False),
)
def test_ejr_agrees_with_cohesive_core(inst, rng):
    committees = {
        frozenset(),
        phragmen_sequential(inst).committee,
        rule_x(inst).committee,
        frozenset(rng.sample(inst.candidates, rng.randint(1, inst.committee_size))),
    }
    for committee in committees:
        assert_ejr_agrees_with_cohesive_core(inst, committee)


@settings(max_examples=300, deadline=None)
@given(st.one_of(instances(), shared_ballot_instances()), st.data())
def test_pareto_matches_oracle(inst, data):
    size = data.draw(st.integers(0, inst.committee_size))
    committee = frozenset(data.draw(st.permutations(inst.candidates))[:size])
    assert axioms.check_pareto(inst, committee) == oracles.check_pareto(inst, committee)


# ---------------------------------------------------------------------------
# price-system re-check


def assert_same_verdict(instance: ElectionInstance, committee, system) -> bool:
    verdict = axioms.validate_price_system(instance, committee, system)
    assert verdict == oracles.validate_price_system(instance, committee, system)
    return verdict


def nudged(system: PriceSystem) -> list[PriceSystem]:
    """The system with a higher and a lower price, and with the first
    payment raised and removed."""
    out = [
        PriceSystem(system.price + F(1, 3), system.payments),
        PriceSystem(system.price / 2, system.payments),
    ]
    payer = next((i for i, purse in enumerate(system.payments) if purse), None)
    if payer is not None:
        purse = system.payments[payer]
        c = min(purse)
        raised = {**purse, c: purse[c] + F(1, 5)}
        removed = {d: amount for d, amount in purse.items() if d != c}
        for changed in (raised, removed):
            payments = list(system.payments)
            payments[payer] = changed
            out.append(PriceSystem(system.price, tuple(payments)))
    return out


def test_validate_price_system_matches_oracle_on_rejections():
    assert assert_same_verdict(REJECTION_INSTANCE, REJECTION_COMMITTEE, VALID_SYSTEM)
    for system in BROKEN_SYSTEMS:
        assert not assert_same_verdict(REJECTION_INSTANCE, REJECTION_COMMITTEE, system)


@pytest.mark.parametrize("name", DEDUPED_FIXTURES)
def test_validate_price_system_matches_oracle_on_catalogue(name):
    inst = fixture(name)
    committees = {
        frozenset(),
        phragmen_sequential(inst).committee,
        rule_x(inst).committee,
    }
    for committee in sorted(committees, key=sorted):
        system = axioms.check_priceable(inst, committee)
        assert system is not None
        assert assert_same_verdict(inst, committee, system)
        for changed in nudged(system):
            assert_same_verdict(inst, committee, changed)


amounts = st.fractions(min_value=-1, max_value=2, max_denominator=6)


@settings(max_examples=200, deadline=None)
@given(audits(), st.data())
def test_validate_price_system_matches_oracle_on_corrupted_systems(audit, data):
    inst, committee = audit
    system = axioms.check_priceable(inst, committee)
    if system is None:
        system = PriceSystem(F(1), tuple({} for _ in inst.voters))
    payments = [dict(purse) for purse in system.payments]
    price = system.price
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(("price", "set", "drop", "voters")))
        i = data.draw(st.integers(0, len(payments) - 1)) if payments else None
        if kind == "price":
            price += data.draw(amounts)
        elif kind == "set" and i is not None:
            c = data.draw(st.sampled_from(inst.candidates))
            payments[i][c] = data.draw(amounts)
        elif kind == "drop" and i is not None and payments[i]:
            del payments[i][data.draw(st.sampled_from(sorted(payments[i])))]
        elif kind == "voters":
            payments = payments[:-1] if data.draw(st.booleans()) else payments + [{}]
    assert_same_verdict(inst, committee, PriceSystem(price, tuple(payments)))
