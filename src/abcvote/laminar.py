"""Laminar election instances and their proportional committees.

An instance is laminar when it can be derived by three rules: a unanimous
profile with at least k approved candidates is laminar; stripping a
candidate approved by everyone from a non-unanimous profile (spending one
seat on it) preserves laminarity; and a profile that falls apart into
groups with disjoint candidates is laminar when the seats divide among the
groups exactly proportionally to their sizes and each part is laminar.

Recognition is deterministic: a unanimous profile only matches the first
rule, a connected non-unanimous profile only the second, and a
disconnected one only the third, where any nested binary split must
separate whole connected components and forces every component's seat
share to be k*n_j/n.  Removing the same candidates from every ballot never
makes distinct ballots equal, so once a profile needs stripping it stays
non-unanimous until all its common candidates are gone: stripping them one
at a time is the same as stripping them all at once, which needs at least
that many seats.

What a derivation says about committees is therefore flat.  The stripped
candidates are forced, each unanimous leaf is a pool with a seat count,
and the forced set and the pools are pairwise disjoint (a stripped
candidate leaves every ballot below it, and split components share no
candidate).  A committee of size k respects the derivation exactly when it
holds every forced candidate and the leaf's seat count from every pool:
the forced candidates and the seat counts add up to k, so such a
committee has no member outside them.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb, prod

from abcvote.model import (
    Committee,
    ElectionInstance,
    Record,
    SearchBudgetExceeded,
    committee_members,
)

Ballots = tuple[frozenset[int], ...]

#: Cap on how many committees laminar_proportional_committees materializes.
DEFAULT_ENUMERATION_BUDGET = 200_000


class LaminarSeats(Record):
    """The seat constraints of a laminar instance.

    ``forced`` holds the candidates stripped as common candidates; every
    proportional committee contains them.  ``pools`` has one
    ``(candidates, seats)`` pair per unanimous leaf, in depth-first order
    of the derivation: a split's blocks come in order of their smallest
    voter, and all pools of one block before those of the next.  A
    proportional committee takes exactly ``seats`` members from
    ``candidates``.
    """

    forced: frozenset[int]
    pools: tuple[tuple[frozenset[int], int], ...]


def check_laminar(instance: ElectionInstance) -> LaminarSeats | None:
    """The seat constraints of a laminar instance, or None."""
    forced: set[int] = set()
    pools: list[tuple[frozenset[int], int]] = []
    # a stack of sub-profiles; a split pushes its blocks in reverse, so
    # the leaves come off depth first
    todo: list[tuple[Ballots, int]] = [(instance.approvals, instance.committee_size)]
    while todo:
        ballots, seats = todo.pop()
        if all(ballot == ballots[0] for ballot in ballots):
            if len(ballots[0]) < seats:
                return None
            pools.append((ballots[0], seats))
            continue
        common = frozenset.intersection(*ballots)
        if len(common) > seats:
            return None
        if common:
            forced |= common
            seats -= len(common)
            ballots = tuple(ballot - common for ballot in ballots)
        groups = _components(ballots)
        if len(groups) < 2:
            return None
        total = len(ballots)
        for group in reversed(groups):
            if seats * len(group) % total:
                return None
            todo.append(
                (tuple(ballots[i] for i in group), seats * len(group) // total)
            )
    return LaminarSeats(frozenset(forced), tuple(pools))


def _components(ballots: Ballots) -> list[list[int]]:
    """Groups of ballot positions connected through shared candidates,
    ordered by their smallest position."""
    parent = list(range(len(ballots)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner: dict[int, int] = {}
    for pos, ballot in enumerate(ballots):
        for candidate in ballot:
            if candidate in owner:
                parent[find(owner[candidate])] = find(pos)
            else:
                owner[candidate] = pos
    groups: dict[int, list[int]] = {}
    for pos in range(len(ballots)):
        groups.setdefault(find(pos), []).append(pos)
    return sorted(groups.values(), key=lambda group: group[0])


def _seats(instance: ElectionInstance) -> LaminarSeats:
    seats = check_laminar(instance)
    if seats is None:
        raise ValueError("the instance is not laminar")
    return seats


def check_laminar_proportional(
    instance: ElectionInstance, committee: Committee
) -> bool:
    """Whether the committee respects the instance's laminar structure:
    every forced candidate and exactly the proportional number of seats
    inside every pool.

    Raises ValueError when the instance itself is not laminar.
    """
    members = committee_members(instance, committee)
    seats = _seats(instance)
    return (
        len(members) == instance.committee_size
        and seats.forced <= members
        and all(len(members & pool) == size for pool, size in seats.pools)
    )


def laminar_proportional_committees(
    instance: ElectionInstance, limit: int = DEFAULT_ENUMERATION_BUDGET
) -> list[Committee]:
    """All committees accepted by check_laminar_proportional, in sorted
    order; SearchBudgetExceeded when more than ``limit``."""
    seats = _seats(instance)
    count = prod(comb(len(pool), size) for pool, size in seats.pools)
    if count > limit:
        raise SearchBudgetExceeded(
            f"{count} laminar proportional committees exceed the "
            f"enumeration budget of {limit}"
        )
    picks = product(
        *(combinations(sorted(pool), size) for pool, size in seats.pools)
    )
    committees = [seats.forced.union(*pick) for pick in picks]
    return sorted(committees, key=sorted)
