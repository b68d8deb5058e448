"""Catalogue of benchmark instances and parametric instance families.

``fixture`` returns named benchmark instances used throughout the test
suite and by the command-line reproduction report.  Each one is a
hand-transcribed profile exercising a specific behaviour: vote splitting
between a large and a small bloc, laminar structures whose proportional
committees are unique, committees that are priceable yet wasteful, a
committee whose own electorate can afford a priceable deviation, and so
on.  The names are stable identifiers; the catalogue table at the bottom
of this module is the authoritative list.

The ``gen_*`` functions build instances from parameters: party-list
profiles, random derivations of laminar instances, two adversarial
families with tunable size, and independent-approval random profiles.

Every function here is a pure function of its arguments.  The seeded
generators draw from ``random.Random(seed)`` (Mersenne Twister), so equal
seeds give identical instances on every platform; ``gen_random`` loops
voters in the outer loop and candidates in the inner loop and approves a
candidate when the next ``rng.random()`` draw falls below ``density``.
"""

from __future__ import annotations

import random
from typing import Sequence

from abcvote.model import ElectionInstance, Record


# ---------------------------------------------------------------------------
# the catalogue


def _intro() -> ElectionInstance:
    """Three voters share a three-candidate slate and hold one private
    candidate each; three more voters bring disjoint triples.  k = 12, so
    a committee must leave out three candidates."""
    ballots = [
        {0, 1, 2, 3},
        {0, 1, 2, 4},
        {0, 1, 2, 5},
        {6, 7, 8},
        {9, 10, 11},
        {12, 13, 14},
    ]
    return ElectionInstance(15, 12, ballots)


def _phragmen1899() -> ElectionInstance:
    """A 3:1 two-party split with a consensus candidate approved by all
    4000 voters; five seats.  The score-maximizing committee takes the
    whole large party, a sequential spend elects 1 + 3 + 1."""
    ballots = [{0, 1, 2, 3, 4}] * 3000 + [{0, 5, 6, 7, 8}] * 1000
    return ElectionInstance(9, 5, ballots)


def _blocks_fifteen() -> ElectionInstance:
    """Fifteen voters over five candidates, four seats.  Two candidates
    are approved by the first twelve voters, one by the first ten, and
    two by the last ten; the overlaps put the sequential rules' spending
    schedules in tension."""
    ballots = (
        [{0, 1, 2}] * 5 + [{0, 1, 2, 3, 4}] * 5 + [{0, 1, 3, 4}] * 2 + [{3, 4}] * 3
    )
    return ElectionInstance(5, 4, ballots)


def _example31() -> ElectionInstance:
    """Integral party list: supports 3/3/2 over eight seats."""
    return gen_party_list((3, 3, 2), (3, 3, 2), 8).instance


def _example32() -> ElectionInstance:
    """One leader approved by all six voters; below the leader the voters
    split 4:2 over disjoint slates of three and four.  k = 4 forces the
    seats to go 1 (leader) + 2 + 1."""
    ballots = [{0, 1, 2, 3}] * 4 + [{0, 4, 5, 6, 7}] * 2
    return ElectionInstance(8, 4, ballots)


def _example33() -> ElectionInstance:
    """Two disjoint parties, both with internal wings.  The left party
    (six voters) has four consensus candidates and 2/4-candidate wings;
    the right party (three voters) has one consensus candidate and wings
    of six and three candidates.  k = 12 splits 8:4 between the parties."""
    ballots = (
        [{0, 1, 2, 3, 4, 5}] * 3
        + [{0, 1, 2, 3, 6, 7, 8, 9}] * 3
        + [{10, 11, 12, 13, 14, 15, 16}] * 2
        + [{10, 17, 18, 19}]
    )
    return ElectionInstance(20, 12, ballots)


def _example41() -> ElectionInstance:
    """Four voters, each approving one private candidate plus a shared
    four-candidate slate; k = 4.  The all-private committee is priceable
    but Pareto-dominated by the slate."""
    ballots = [{i, 4, 5, 6, 7} for i in range(4)]
    return ElectionInstance(8, 4, ballots)


def _thm32_instance1() -> ElectionInstance:
    """Eight voters in two halves, k = 20.  Each half shares two
    candidates and splits into pairs with five- (left) or four-candidate
    (right) private pools; every proportional committee gives every voter
    utility six, but utilities (7,7,7,7,5,5,5,5) are also achievable."""
    ballots = [
        {0, 1} | set(range(4, 9)),
        {0, 1} | set(range(4, 9)),
        {0, 1} | set(range(9, 14)),
        {0, 1} | set(range(9, 14)),
        {2, 3} | set(range(14, 18)),
        {2, 3} | set(range(14, 18)),
        {2, 3} | set(range(18, 22)),
        {2, 3} | set(range(18, 22)),
    ]
    return ElectionInstance(22, 20, ballots)


def _thm32_instance2() -> ElectionInstance:
    """Eight voters in groups of 4/2/2, k = 20.  Each group shares a
    six- or five-candidate slate and every voter holds one private
    candidate; the unique proportional committee realizes utilities
    (7,7,7,7,5,5,5,5) while the all-slates committee realizes all sixes."""
    ballots = [set(range(0, 6)) | {16 + i} for i in range(4)]
    ballots += [set(range(6, 11)) | {20}, set(range(6, 11)) | {21}]
    ballots += [set(range(11, 16)) | {22}, set(range(11, 16)) | {23}]
    return ElectionInstance(24, 20, ballots)


def _fig2_profile(sharing: range) -> ElectionInstance:
    """Twelve voters, k = 57; every voter approves exactly 57 candidates.
    The six voters in ``sharing`` approve three common candidates plus 54
    privates each; the other six approve 57 privates each."""
    ballots: list[set[int]] = [set() for _ in range(12)]
    for v in sharing:
        ballots[v] |= {0, 1, 2}
    nxt = 3
    for v in range(12):
        privates = 57 - len(ballots[v])
        ballots[v] |= set(range(nxt, nxt + privates))
        nxt += privates
    return ElectionInstance(nxt, 57, ballots)


def _fig4_profile1() -> ElectionInstance:
    """Sixteen voters, k = 48.  Voters 0-3 share six candidates and hold
    one personal candidate each; voters 4-15 form six pairs, each pair
    sharing five candidates, plus one private candidate per voter; two
    candidates are approved by nobody."""
    ballots: list[set[int]] = [set() for _ in range(16)]
    for v in range(4):
        ballots[v] = {v} | set(range(4, 10))
    nxt = 10
    for pair in range(6):
        block = set(range(nxt, nxt + 5))
        nxt += 5
        ballots[4 + 2 * pair] |= block
        ballots[5 + 2 * pair] |= block
    for v in range(4, 16):
        ballots[v].add(nxt)
        nxt += 1
    return ElectionInstance(nxt + 2, 48, ballots)


def _fig4_pairs(bridge: bool) -> ElectionInstance:
    """Sixteen voters in eight pairs, k = 48.  The first pair shares
    seven candidates, every other pair six; with ``bridge`` one extra
    candidate spans voters 5 and 6; voter 14 holds one extra private
    candidate; three candidates are approved by nobody."""
    ballots: list[set[int]] = [set() for _ in range(16)]
    nxt = 0
    for pair in range(8):
        size = 7 if pair == 0 else 6
        block = set(range(nxt, nxt + size))
        nxt += size
        ballots[2 * pair] |= block
        ballots[2 * pair + 1] |= block
        if pair == 3 and bridge:
            ballots[5].add(nxt)
            ballots[6].add(nxt)
            nxt += 1
    ballots[14].add(nxt)
    nxt += 1
    return ElectionInstance(nxt + 3, 48, ballots)


def _prop_b1() -> ElectionInstance:
    """160 voters, 36 candidates, k = 20.  A 20-candidate block is spread
    so that a sequential spend elects exactly it, while 128 of the voters
    could redirect their proportional share of seats to the other 16
    candidates, every one of them gaining."""
    ballots: list[set[int]] = []
    for i in range(56):
        ballot = set(range(0, 7))
        if i < 40:
            ballot |= set(range(20, 28))
        ballots.append(ballot)
    for i in range(56):
        ballot = set(range(7, 14))
        if i < 40:
            ballot |= set(range(28, 36))
        ballots.append(ballot)
    for i in range(48):
        ballots.append({14 + i // 8, 20 + i // 6, 28 + i // 6})
    return ElectionInstance(36, 20, ballots)


def _overlapping_parties() -> ElectionInstance:
    """Two 100-candidate parties, k = 100.  Half the voters approve only
    the first party, a quarter approve both, a quarter only the second;
    rules differ on how to credit the middle group's support."""
    first, second = set(range(0, 100)), set(range(100, 200))
    ballots = [first, first, first | second, second]
    return ElectionInstance(200, 100, ballots)


def _remark_a1() -> ElectionInstance:
    """Three two-voter singleton parties next to a twelve-voter party
    with a five-candidate slate; k = 6.  The seat shares are fractional
    (2/3 each for the small parties), so the instance is not laminar,
    yet sequential rules still have to pick some sixth member."""
    ballots = [{0}] * 2 + [{1}] * 2 + [{2}] * 2 + [{3, 4, 5, 6, 7}] * 12
    return ElectionInstance(8, 6, ballots)


_FIXTURES = {
    "intro": _intro,
    "phragmen1899": _phragmen1899,
    "example21": _blocks_fifteen,
    "example22": _blocks_fifteen,
    "example31": _example31,
    "example32": _example32,
    "example33": _example33,
    "example41": _example41,
    "thm32_instance1": _thm32_instance1,
    "thm32_instance2": _thm32_instance2,
    "fig2_profile1": lambda: _fig2_profile(range(0, 6)),
    "fig2_profile2": lambda: _fig2_profile(range(6, 12)),
    "fig3": _intro,
    "fig4_profile1": _fig4_profile1,
    "fig4_profile2": lambda: _fig4_pairs(bridge=True),
    "fig4_profile3": lambda: _fig4_pairs(bridge=False),
    "propB1": _prop_b1,
    "overlapping_parties": _overlapping_parties,
    "remarkA1": _remark_a1,
}

#: Stable names accepted by :func:`fixture`, in catalogue order.
FIXTURE_NAMES = tuple(_FIXTURES)


def fixture(name: str) -> ElectionInstance:
    """Return the catalogue instance registered under ``name``.

    Raises ValueError for unknown names.  Calling twice with the same
    name yields equal instances; the catalogue never changes at runtime.
    """
    try:
        builder = _FIXTURES[name]
    except KeyError:
        known = ", ".join(FIXTURE_NAMES)
        raise ValueError(f"unknown fixture {name!r} (known: {known})") from None
    return builder()


# ---------------------------------------------------------------------------
# parametric families


class PartyListInstance(Record):
    """A party-list profile plus its bookkeeping.

    Attributes:
        instance: The election instance.
        parties: Per-party candidate slates, in input order.
        integral: Whether every party's exact seat share k*n_z/n is a
            whole number (the precondition for the profile to be laminar).
    """

    instance: ElectionInstance
    parties: tuple[frozenset[int], ...]
    integral: bool


def gen_party_list(
    voter_counts: Sequence[int],
    candidates_per_party: Sequence[int],
    k: int,
) -> PartyListInstance:
    """Build a party-list instance: disjoint slates, one slate per voter.

    Party z gets ``candidates_per_party[z]`` fresh candidates, approved by
    exactly ``voter_counts[z]`` voters (and by nobody else).  When all
    exact seat shares k*n_z/n are whole numbers the result is flagged
    integral; an integral party whose slate is smaller than its share is
    rejected, because such an instance could not seat the party fully.
    """
    if len(voter_counts) != len(candidates_per_party):
        raise ValueError("voter_counts and candidates_per_party differ in length")
    if not voter_counts:
        raise ValueError("at least one party is required")
    if min(voter_counts) < 1 or min(candidates_per_party) < 1:
        raise ValueError("party sizes must be positive")
    n = sum(voter_counts)
    integral = all(k * n_z % n == 0 for n_z in voter_counts)
    if integral:
        for z, (n_z, supply) in enumerate(zip(voter_counts, candidates_per_party)):
            if supply * n < k * n_z:
                raise ValueError(
                    f"party {z} holds {supply} candidates but its seat "
                    f"share is {k * n_z // n}"
                )
    parties = []
    ballots = []
    nxt = 0
    for n_z, size in zip(voter_counts, candidates_per_party):
        slate = frozenset(range(nxt, nxt + size))
        nxt += size
        parties.append(slate)
        ballots.extend([slate] * n_z)
    instance = ElectionInstance(nxt, k, ballots)
    return PartyListInstance(instance, tuple(parties), integral)


def gen_laminar(seed: int, max_depth: int, max_voters: int, k: int) -> ElectionInstance:
    """Randomly derive a laminar instance.

    The derivation tree is drawn from ``random.Random(seed)``.  Each node
    holding n voters and k seats picks among the applicable constructions:
    a unanimous profile over k (plus up to two spare) fresh candidates; a
    proportional split into two disjoint sub-instances (k1 seats to
    n*k1/k voters, requiring the division to be exact); or one to k-2
    fresh candidates approved by everyone stacked on top of a split.
    Splits and stacks are weighted up so deep trees are common.  The
    result always satisfies the laminar recognizer, and equal arguments
    give identical instances.

    Raises ValueError when the parameters admit no derivation at all
    (k < 1, max_voters < 1, or max_depth < 1).
    """
    if k < 1:
        raise ValueError("committee size must be at least 1")
    if max_voters < 1:
        raise ValueError("max_voters must be at least 1")
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    rng = random.Random(seed)
    n = rng.randint(1, max_voters)
    alloc = [0]
    ballots = _laminar_node(rng, k, n, max_depth, alloc)
    return ElectionInstance(alloc[0], k, ballots)


def _fresh_block(alloc: list[int], size: int) -> range:
    start = alloc[0]
    alloc[0] += size
    return range(start, start + size)


def _split_choices(k: int, n: int) -> list[int]:
    """Seat counts k1 for which a split of (n, k) keeps voters whole."""
    return [k1 for k1 in range(1, k) if n * k1 % k == 0]


def _laminar_node(
    rng: random.Random, k: int, n: int, depth: int, alloc: list[int]
) -> list[set[int]]:
    """Ballots of a random laminar sub-instance with exactly n voters."""
    kinds = ["unanimous"]
    if depth > 1 and n >= 2:
        if _split_choices(k, n):
            kinds += ["split"] * 3
        if any(_split_choices(k - s, n) for s in range(1, k - 1)):
            kinds += ["stack"] * 2
    kind = rng.choice(kinds)
    if kind == "unanimous":
        block = _fresh_block(alloc, k + rng.randint(0, 2))
        return [set(block) for _ in range(n)]
    if kind == "stack":
        # Common candidates sit on top of a split, never of another
        # unanimous profile: stripping them must leave a non-unanimous
        # residue, and a split always is one.
        s = rng.choice([s for s in range(1, k - 1) if _split_choices(k - s, n)])
        common = _fresh_block(alloc, s)
        ballots = _laminar_split(rng, k - s, n, depth - 1, alloc)
        for ballot in ballots:
            ballot.update(common)
        return ballots
    return _laminar_split(rng, k, n, depth - 1, alloc)


def _laminar_split(
    rng: random.Random, k: int, n: int, depth: int, alloc: list[int]
) -> list[set[int]]:
    k1 = rng.choice(_split_choices(k, n))
    n1 = n * k1 // k
    return _laminar_node(rng, k1, n1, depth, alloc) + _laminar_node(
        rng, k - k1, n - n1, depth, alloc
    )


def gen_theorem51_family(x: int, y: int) -> ElectionInstance:
    """A cohesive group against a sea of singleton slates.

    The first x voters approve y common candidates plus y private
    candidates each; y*x further voters approve y private candidates
    each.  With k = y**2 * x + y the first group's exact seat share works
    out to y + (y-1)*x, yet committees equalizing welfare leave the group
    far below that share, so welfare-equalizing selections and coalition
    stability pull in opposite directions (the tension sharpens as y
    grows).  Requires x >= y**2 and y >= 2.
    """
    if y < 2:
        raise ValueError("y must be at least 2")
    if x < y * y:
        raise ValueError("x must be at least y squared")
    ballots = []
    nxt = y
    for _ in range(x):
        ballots.append(set(range(y)) | set(range(nxt, nxt + y)))
        nxt += y
    for _ in range(y * x):
        ballots.append(set(range(nxt, nxt + y)))
        nxt += y
    return ElectionInstance(nxt, y * y * x + y, ballots)


def gen_rulex_lower_bound(x: int, L: int) -> ElectionInstance:
    """Adversarial instance where unit-budget spending wastes support.

    x voter groups of L*x**(x-1) voters each approve runs from a pool of
    x**x candidates (group i approves x**i consecutive pool candidates
    per voter, cyclically, so pool coverage inside each group is even).
    Cheap decoy blocks drain the groups' budgets level by level: first a
    block approved by the top group plus fresh voters, then per-level
    blocks carving the remaining groups into batches, padded by fresh
    voters where a batch comes up short.  Candidates are numbered so the
    blocks win every affordability tie against the pool; the per-seat
    budget is n/k = L.  A group-i voter ends up with (x**i - 1)/(x - 1)
    decoys, while the pool would have given x**i — a ratio of at least
    x - 1.

    Every L >= 1 works: x**(x-1+i) is a multiple of the pool size x**x
    for i >= 1, so each group covers the pool evenly, and x - 1 divides
    x**i - 1, so each level's decoy count is whole.

    Raises ValueError for x < 2 or L < 1.
    """
    if x < 2:
        raise ValueError("x must be at least 2")
    if L < 1:
        raise ValueError("per-seat budget L must be at least 1")
    pergroup = L * x ** (x - 1)
    pool = x**x
    # s[level] voters approve each pool candidate once groups above
    # `level` are broke; s[level]/L is the size of one decoy block.
    s = {level: L * (x**level - 1) // (x - 1) for level in range(1, x + 1)}

    blocks: list[tuple[list[int], int]] = []  # (voters, number of candidates)
    extra = 0  # fresh voters introduced after the groups

    def fresh(count: int) -> list[int]:
        nonlocal extra
        start = x * pergroup + extra
        extra += count
        return list(range(start, start + count))

    top = list(range((x - 1) * pergroup, x * pergroup))
    blocks.append((top + fresh(s[x] - pergroup), s[x] // L))
    for level in range(x - 1, 0, -1):
        members = list(range((level - 1) * pergroup, level * pergroup))
        batch = s[level]
        for at in range(0, pergroup, batch):
            chunk = members[at : at + batch]
            if len(chunk) < batch:
                chunk += fresh(batch - len(chunk))
            blocks.append((chunk, batch // L))

    ballots: list[set[int]] = [set() for _ in range(x * pergroup + extra)]
    nxt = 0
    for voters, size in blocks:
        for c in range(nxt, nxt + size):
            for v in voters:
                ballots[v].add(c)
        nxt += size
    pool_start = nxt
    for i in range(1, x + 1):
        run = x**i
        for j in range(pergroup):
            voter = (i - 1) * pergroup + j
            for t in range(run):
                ballots[voter].add(pool_start + (j * run + t) % pool)
    n = len(ballots)
    return ElectionInstance(pool_start + pool, n // L, ballots)


def gen_random(
    seed: int, n: int, m: int, k: int, density: object
) -> ElectionInstance:
    """Independent-approval random instance.

    Each of the n voters approves each of the m candidates independently
    with probability ``density`` (anything comparable against a float in
    [0, 1]).  Draws come from ``random.Random(seed)``, voters in the
    outer loop and candidates in the inner loop, approving when
    ``rng.random() < density`` — the mapping is part of the contract, so
    golden instances reproduce everywhere.
    """
    if not 0 <= density <= 1:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    ballots = [
        {c for c in range(m) if rng.random() < density} for _ in range(n)
    ]
    return ElectionInstance(m, k, ballots)
