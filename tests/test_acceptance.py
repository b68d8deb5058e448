"""Acceptance suite: twelve numbered end-to-end criteria.

One test function per criterion, so a verbose run prints exactly one
pass/fail line for each.  The criteria pin exact rational values on
catalogue instances, sweep property suites over seeded instance families
(desk-scale evidence for universal claims, stated as such), replay an
explicit price-system construction, and drive the counterexample search.
Every numeric comparison is exact; the only tolerances anywhere are the
stated runtime ceilings.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import log2

import pytest

from abcvote.axioms import (
    Deviation,
    PriceSystem,
    check_core_subject_to,
    check_ejr,
    check_pareto,
    check_pigou_dalton,
    check_priceable,
    find_core_deviation,
    minimal_core_lambda,
    validate_price_system,
    verify_deviation,
)
from abcvote.cli import main
from abcvote.generators import (
    fixture,
    gen_laminar,
    gen_party_list,
    gen_random,
    gen_rulex_lower_bound,
)
from abcvote.laminar import (
    check_laminar_proportional,
    laminar_proportional_committees,
)
from abcvote.model import parse_instance, restrict_profile, welfare_vector
from abcvote.rules import (
    dhondt,
    pav_score,
    pav_winners,
    phragmen_sequential,
    rule_x,
)

F = Fraction


# ---------------------------------------------------------------------------
# shared seeded suites


@pytest.fixture(scope="module")
def random_suite() -> list:
    """200 independent-approval instances with n <= 8, m <= 8, k <= 4."""
    suite = []
    for index in range(200):
        rng = random.Random(7_000 + index)
        n = rng.randint(2, 8)
        m = rng.randint(2, 8)
        k = rng.randint(1, min(4, m))
        density = rng.choice([0.25, 0.4, 0.55, 0.7])
        suite.append(gen_random(index, n, m, k, density))
    return suite


def _party_list_suite() -> list:
    """200 integral party-list instances with n <= 12 and k <= 6.

    Every party gets k candidates, so outside the single seat split that
    hands one party the whole committee, every party keeps an unelected
    reserve candidate -- the situation in which priceability genuinely
    constrains the seat split.
    """
    suite = []
    attempt = 0
    while len(suite) < 200:
        rng = random.Random(3_000 + attempt)
        attempt += 1
        parties = rng.randint(1, 3)
        counts = tuple(rng.randint(1, 6) for _ in range(parties))
        n = sum(counts)
        k = rng.randint(1, 6)
        if n > 12 or any(k * n_z % n for n_z in counts):
            continue
        suite.append((counts, k, gen_party_list(counts, (k,) * parties, k)))
    return suite


def _compositions(total: int, parts: int):
    """All ways to write ``total`` as an ordered sum of ``parts`` >= 0."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


def _divisor_reachable(counts, seats) -> bool:
    """Whether some tie-breaking of the highest-averages method with
    divisors 1, 2, 3, ... yields this seat split: every awarded quotient
    must weakly beat every unawarded next quotient."""
    awarded = [F(n_z, s) for n_z, s in zip(counts, seats) if s >= 1]
    blocked = [F(n_z, s + 1) for n_z, s in zip(counts, seats)]
    return min(awarded) >= max(blocked)


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_01_pav_scores_and_winners():
    """Exact optimizer scores on the 4000-voter two-party instance: the
    mixed committee scores 7750, the large-party sweep 7850, and the sweep
    is the unique optimum.  Runtime under one second."""
    inst = fixture("phragmen1899")
    start = time.monotonic()
    mixed = pav_score(inst, frozenset({0, 1, 2, 3, 5}))
    sweep = pav_score(inst, frozenset({0, 1, 2, 3, 4}))
    winners = pav_winners(inst)
    elapsed = time.monotonic() - start
    assert mixed == 7750
    assert sweep == 7850
    assert winners == [frozenset({0, 1, 2, 3, 4})]
    assert elapsed < 1.0


def test_criterion_02_phragmen_election_times():
    """Money-earning run on the fifteen-voter blocks instance: four exact
    purchase times and the committee they produce."""
    trace = phragmen_sequential(fixture("example21"))
    t1 = F(15, 48)
    t2 = t1 + F(9, 32)
    t3 = t2 + F(25, 128)
    t4 = t3 + F(81, 256)
    assert trace.election_times == (t1, t2, t3, t4)
    assert trace.committee == frozenset({0, 1, 3, 4})


def test_criterion_03_budget_rule_q_sequence():
    """Budget-spending run on the same profile: exact per-voter payment
    caps under lexicographic ties, and the forced-tie branch that strands
    the last seat."""
    inst = fixture("example22")
    trace = rule_x(inst)
    assert trace.q_values == (F(15, 48), F(15, 48), F(15, 40), F(1))
    assert trace.committee == frozenset({0, 1, 2, 3})
    forced = rule_x(inst, tie_choices={2: 3})
    assert forced.committee == frozenset({0, 1, 3})
    assert len(forced.elected) == 3  # the run stops with a seat unfilled


def test_criterion_04_intro_dichotomy():
    """The slate-versus-blocs instance: both sequential rules give welfare
    (4,4,4,2,2,2) while every optimizer committee gives all threes; the
    proportional committee is priceable and laminar-proportional, the
    welfare-equalizing one is neither and its own first three voters can
    block it.  Runtime under ten seconds including the exhaustive blocking
    search over all 2^15 candidate subsets."""
    inst = fixture("intro")
    start = time.monotonic()
    sequential = (4, 4, 4, 2, 2, 2)
    assert welfare_vector(inst, phragmen_sequential(inst).committee) == sequential
    assert welfare_vector(inst, rule_x(inst).committee) == sequential
    winners = pav_winners(inst)
    assert winners
    assert all(welfare_vector(inst, w) == (3,) * 6 for w in winners)
    committee_a = frozenset({0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 13})
    committee_b = frozenset({0, 1, 2}) | frozenset(range(6, 15))
    assert check_priceable(inst, committee_a) is not None
    assert check_laminar_proportional(inst, committee_a)
    assert check_priceable(inst, committee_b) is None
    assert not check_laminar_proportional(inst, committee_b)
    blocking = find_core_deviation(inst, committee_b)
    assert blocking is not None
    assert blocking.coalition == frozenset({0, 1, 2})
    assert time.monotonic() - start < 10.0


def test_criterion_05_party_list_priceability_is_apportionment():
    """On 200 integral party-list instances, priceability accepts exactly
    the seat splits the divisor method can reach; zero discrepancies.

    Candidates inside one slate have identical approver sets, so relabeling
    them is an automorphism of the instance and priceability depends only
    on the per-party seat counts; checking one committee per seat split
    therefore decides every committee of the instance.
    """
    discrepancies = []
    verdicts: dict = {}
    for counts, k, built in _party_list_suite():
        inst = built.instance
        for seats in _compositions(k, len(counts)):
            committee = frozenset(
                c
                for slate, s in zip(built.parties, seats)
                for c in sorted(slate)[:s]
            )
            key = (counts, k, seats)
            if key not in verdicts:
                verdicts[key] = check_priceable(inst, committee) is not None
            if verdicts[key] != _divisor_reachable(counts, seats):
                discrepancies.append(key)
        if not _divisor_reachable(counts, dhondt(counts, k)):
            discrepancies.append((counts, k, "canonical split"))
    assert discrepancies == []


def test_criterion_06_laminar_instances_and_sequential_rules():
    """On 200 derived laminar instances both sequential rules return
    laminar-proportional committees, and the money run ends with nothing
    left over: the final purchase lands exactly when cumulative earnings
    n*t cover the full bill k*(n/k), i.e. at t = 1 on this library's
    n/k-price clock (the same instant reads k/n when a seat costs one
    unit); zero failures."""
    failures = []
    for seed in range(200):
        inst = gen_laminar(seed, 4, 12, 1 + seed % 6)
        trace = phragmen_sequential(inst)
        if not check_laminar_proportional(inst, trace.committee):
            failures.append((seed, "spend-clock committee"))
        if trace.election_times[-1] != 1:
            failures.append((seed, "final purchase time"))
        if not check_laminar_proportional(inst, rule_x(inst).committee):
            failures.append((seed, "budget committee"))
    assert failures == []


def test_criterion_07_pav_two_core_transfers_pareto(random_suite):
    """On 200 random instances every optimizer committee sits in the
    2-scaled core and admits neither a welfare transfer nor a dominating
    committee; zero failures.  (The underlying guarantees are universal
    claims -- this suite is bounded desk-scale evidence for them.)"""
    failures = []
    for index, inst in enumerate(random_suite):
        for committee in pav_winners(inst):
            if find_core_deviation(inst, committee, F(2)) is not None:
                failures.append((index, "scaled core"))
            if check_pigou_dalton(inst, committee) is not None:
                failures.append((index, "welfare transfer"))
            if check_pareto(inst, committee) is not None:
                failures.append((index, "dominated"))
    assert failures == []


def test_criterion_08_budget_rule_representation(random_suite):
    """On the same 200 instances the budget rule's committee leaves no
    deprived cohesive group and no blocking coalition whose alternative is
    supportable by equal per-candidate payments at the full per-seat
    price; zero failures."""
    failures = []
    for index, inst in enumerate(random_suite):
        committee = rule_x(inst).committee
        if check_ejr(inst, committee) is not None:
            failures.append((index, "deprived group"))
        if check_core_subject_to(inst, committee, "price_eq") is not None:
            failures.append((index, "constrained core"))
    assert failures == []


def test_criterion_09_priceable_deviation_reproduction():
    """On the 160-voter catalogue instance the budget rule elects exactly
    the first twenty candidates, and the 128-voter coalition backing the
    other sixteen is a valid deviation supported by explicit prices: price
    8, with 1/8 from each of a candidate's forty block backers and 1/2
    from each member of its six-voter sub-group -- 5 + 3 = 8.  Exact."""
    inst = fixture("propB1")
    committee = rule_x(inst).committee
    assert committee == frozenset(range(20))
    coalition = (
        frozenset(range(0, 40))
        | frozenset(range(56, 96))
        | frozenset(range(112, 160))
    )
    alternative = frozenset(range(20, 36))
    deviation = Deviation(coalition=coalition, alternative=alternative)
    assert verify_deviation(inst, committee, deviation)
    payments = []
    for voter in sorted(coalition):
        ballot = inst.approvals[voter] & alternative
        rate = F(1, 8) if voter < 112 else F(1, 2)
        payments.append({c: rate for c in ballot})
    system = PriceSystem(price=F(8), payments=tuple(payments))
    restricted = restrict_profile(inst, sorted(coalition), len(alternative))
    assert validate_price_system(restricted, alternative, system)
    for c in sorted(alternative):
        early = sum(1 for i in coalition if i < 112 and c in inst.approvals[i])
        late = sum(1 for i in coalition if i >= 112 and c in inst.approvals[i])
        assert (early, late) == (40, 6)
        assert early * F(1, 8) + late * F(1, 2) == system.price


def test_criterion_10_laminar_welfare_split():
    """The two welfare-split instances: every laminar-proportional
    committee of the first induces all sixes, the second has exactly one
    laminar-proportional committee and it induces (7,7,7,7,5,5,5,5), and
    each instance also achieves the other vector through some committee.
    Uniqueness comes from the decomposition tree, not enumeration of all
    k-subsets."""
    equal_vector = (6,) * 8
    skewed_vector = (7, 7, 7, 7, 5, 5, 5, 5)
    one = fixture("thm32_instance1")
    committees = laminar_proportional_committees(one)
    assert committees
    assert all(welfare_vector(one, w) == equal_vector for w in committees)
    assert welfare_vector(one, frozenset(range(22)) - {17, 21}) == skewed_vector
    two = fixture("thm32_instance2")
    assert laminar_proportional_committees(two) == [frozenset(range(20))]
    assert welfare_vector(two, frozenset(range(20))) == skewed_vector
    equal_committee = frozenset(range(16)) | frozenset(range(20, 24))
    assert welfare_vector(two, equal_committee) == equal_vector


def test_criterion_11_budget_rule_core_gap(random_suite):
    """The adversarial decoy family at x = 2 with the smallest legal
    per-seat budget: the budget rule elects only decoys, and the pooled
    candidates witness a plain-core deviation for the group voters, so the
    committee misses the core by a factor of at least x - 1 = 1.  The
    logarithmic upper bound is out of desk range; instead, on all 200
    random instances the brute-force search finds the smallest scaling
    that clears the committee and it never exceeds 2*log2(2k) + 1."""
    with pytest.raises(ValueError, match="per-seat budget L must be at least 1"):
        gen_rulex_lower_bound(2, 0)
    inst = gen_rulex_lower_bound(2, 1)
    committee = rule_x(inst).committee
    pool = frozenset(range(inst.num_candidates - 4, inst.num_candidates))
    assert committee == frozenset(range(inst.num_candidates)) - pool
    groups = frozenset(range(4))
    deviation = Deviation(coalition=groups, alternative=pool)
    assert verify_deviation(inst, committee, deviation, F(1))
    failures = []
    for index, inst in enumerate(random_suite):
        lam = minimal_core_lambda(inst, rule_x(inst).committee)
        if lam is None or lam > 2 * log2(2 * inst.committee_size) + 1:
            failures.append(index)
    assert failures == []


def test_criterion_12_search_finds_representation_failure(capsys):
    """The counterexample search emits an instance with n <= 12, m <= 10
    on which the money-earning rule's committee leaves some cohesive group
    deprived, re-validated here by the brute-force checker.  Runtime under
    five minutes."""
    start = time.monotonic()
    code = main(
        [
            "search",
            "--violation", "ejr-phragmen",
            "--max-n", "12",
            "--max-m", "10",
            "--max-k", "6",
            "--seed", "7",
            "--trials", "100000",
        ]
    )
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "none found" not in out
    found = parse_instance(out)
    assert found.num_voters <= 12
    assert found.num_candidates <= 10
    committee = phragmen_sequential(found).committee
    assert check_ejr(found, committee) is not None
    assert elapsed < 300.0
