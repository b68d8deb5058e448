"""The flat laminar seat constraints against the derivation tree.

``abcvote.laminar`` reads a laminar instance as forced candidates and
pools with seat counts; ``tests/oracles.py`` keeps the recursive
derivation tree it replaced.  On every instance both must agree on
whether it is laminar; the seat record must be the tree read flat (its
stripped candidates, and its leaves from left to right); both must list
the same proportional committees in the same order, raise at the same
enumeration budget, and give the same verdict on every size-k committee
(where there are at most ``VERDICT_CAP`` of them), on one-member swaps of
the accepted ones, and on committees of the wrong size.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcvote import laminar
from abcvote.generators import FIXTURE_NAMES, fixture, gen_laminar
from abcvote.laminar import LaminarSeats
from abcvote.model import ElectionInstance, SearchBudgetExceeded
from tests import oracles
from tests.conftest import instances, shared_ballot_instances

#: Largest number of size-k committees checked one by one.
VERDICT_CAP = 3000


def flatten(tree) -> LaminarSeats:
    forced, pools = set(), []

    def walk(node) -> None:
        if isinstance(node, oracles.Unanimous):
            pools.append((node.candidates, node.seats))
        elif isinstance(node, oracles.CommonCandidate):
            forced.add(node.candidate)
            walk(node.child)
        else:
            walk(node.first)
            walk(node.second)

    walk(tree)
    return LaminarSeats(frozenset(forced), tuple(pools))


def probe_committees(inst: ElectionInstance, accepted: list) -> list[frozenset[int]]:
    """Every size-k committee when there are few, else the accepted ones
    and their one-member swaps; plus committees one member short and one
    over."""
    m, k = inst.num_candidates, inst.committee_size
    if comb(m, k) <= VERDICT_CAP:
        probes = [frozenset(c) for c in combinations(range(m), k)]
    else:
        probes = list(accepted)
        for w in accepted[:5]:
            probes += [(w - {a}) | {b} for a in w for b in range(m) if b not in w]
    for w in accepted[:5]:
        probes.append(w - {min(w)})
        probes += [w | {b} for b in range(m) if b not in w][:3]
    return probes


def assert_same(inst: ElectionInstance) -> None:
    tree = oracles.check_laminar(inst)
    seats = laminar.check_laminar(inst)
    if tree is None:
        assert seats is None
        for module in (laminar, oracles):
            with pytest.raises(ValueError, match="not laminar"):
                module.check_laminar_proportional(inst, frozenset())
            with pytest.raises(ValueError, match="not laminar"):
                module.laminar_proportional_committees(inst)
        return
    assert seats == flatten(tree)

    accepted = laminar.laminar_proportional_committees(inst)
    assert accepted == oracles.laminar_proportional_committees(inst)
    assert all(len(w) == inst.committee_size for w in accepted)
    messages = []
    for module in (laminar, oracles):
        with pytest.raises(SearchBudgetExceeded) as info:
            module.laminar_proportional_committees(inst, limit=len(accepted) - 1)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert laminar.laminar_proportional_committees(inst, limit=len(accepted)) == accepted

    for committee in probe_committees(inst, accepted):
        assert laminar.check_laminar_proportional(
            inst, committee
        ) == oracles.check_laminar_proportional(inst, committee), sorted(committee)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_matches_oracle(name):
    assert_same(fixture(name))


def test_gen_laminar_matches_oracle():
    for seed in range(300):
        inst = gen_laminar(seed, 2 + seed % 3, 4 + seed % 9, 2 + seed % 5)
        assert laminar.check_laminar(inst) is not None
        assert_same(inst)


@st.composite
def perturbed_laminar(draw):
    """A gen_laminar instance with up to two approvals toggled, so that
    recognition often fails below the root."""
    inst = gen_laminar(
        draw(st.integers(0, 10**6)),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 12)),
        draw(st.integers(1, 6)),
    )
    ballots = [set(b) for b in inst.approvals]
    for _ in range(draw(st.integers(0, 2))):
        voter = draw(st.integers(0, inst.num_voters - 1))
        candidate = draw(st.integers(0, inst.num_candidates - 1))
        ballots[voter] ^= {candidate}
    return ElectionInstance(
        inst.num_candidates, inst.committee_size, tuple(map(frozenset, ballots))
    )


@settings(deadline=None, max_examples=200)
@given(st.one_of(perturbed_laminar(), instances(), shared_ballot_instances()))
def test_matches_oracle(inst):
    assert_same(inst)


def test_random_profiles_match_oracle():
    # small profiles over three ballots: about two in five are laminar
    rng = random.Random(12)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        k = rng.randint(1, m)
        pool = [frozenset(c for c in range(m) if rng.random() < 0.6) for _ in range(3)]
        ballots = tuple(rng.choice(pool) for _ in range(n))
        assert_same(ElectionInstance(m, k, ballots))
