"""Proportionality axiom checkers, each returning an explicit witness.

The checkers are exhaustive within an explicit node budget: every walk
counts the sets it visits and fails loudly (SearchBudgetExceeded) once
they outnumber the budget.  Witnesses are re-validated
against the raw definition in plain rational arithmetic before they are
returned, and a failed re-check raises InternalInvariantError.  Where a
search skips work (identical ballots grouped, sets that cannot block or
qualify left out), the skipped part provably holds no witness, and each
docstring says why.

Searches enumerate candidate sets in sorted-tuple lexicographic order
((0,), (0,1), (0,1,2), ..., (0,2), ..., (1,), ...), so the first witness
found is stable across runs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import floor, lcm
from typing import Callable, Iterator, Sequence

from abcvote.lp import EQ, LE, OPTIMAL, LinearProgram, lp_maximize
from abcvote.model import (
    DEFAULT_NODE_BUDGET,
    BallotClasses,
    Committee,
    ElectionInstance,
    InternalInvariantError,
    NodeCounter,
    Rational,
    Record,
    SearchBudgetExceeded,
    _indices,
    committee_members,
    restrict_profile,
    suffix_counts,
    welfare_vector,
)

COHESIVE = "cohesive"
PRICE_EQ = "price_eq"
PRICEABLE = "priceable"

#: The deviation properties ``check_core_subject_to`` accepts.
PROPERTY_KINDS = (COHESIVE, PRICE_EQ, PRICEABLE)


class PriceSystem(Record):
    """A per-seat price and per-voter payment maps (candidate -> amount)."""

    price: Rational
    payments: tuple[dict[int, Rational], ...]


class Deviation(Record):
    """A coalition of voters backing an alternative candidate set."""

    coalition: frozenset[int]
    alternative: frozenset[int]


# ---------------------------------------------------------------------------
# priceability


def validate_price_system(
    instance: ElectionInstance, committee: Committee, system: PriceSystem
) -> bool:
    """Re-check a price system against the raw definition (no LP), its
    price and payments each an ``int`` or a ``Fraction`` (else ValueError):

    1. positive price;
    2. voters pay only for candidates they approve, never negative amounts;
    3. every voter spends at most her one dollar;
    4. elected candidates collect exactly the price, others collect nothing;
    5. for every non-elected candidate, its approvers' combined leftover
       money is at most the price (weak inequality).
    """
    members = committee_members(instance, committee)
    committee_members(instance, frozenset().union(*system.payments))  # purse keys too
    amounts = [system.price, *[a for purse in system.payments for a in purse.values()]]
    for amount in amounts:
        if not isinstance(amount, (int, Fraction)):
            raise ValueError(f"price system amount {amount!r} is not an int or a Fraction")
    if len(system.payments) != instance.num_voters or system.price <= 0:
        return False
    # every amount as an int numerator over the lcm of all denominators
    den = lcm(*[a.denominator for a in amounts])
    price = system.price.numerator * (den // system.price.denominator)
    collected = [0] * instance.num_candidates
    slack = [0] * instance.num_candidates  # leftover money of the approvers
    for ballot, purse in zip(instance.approvals, system.payments):
        if not purse.keys() <= ballot:
            return False
        amounts = [a.numerator * (den // a.denominator) for a in purse.values()]
        if any(amount < 0 for amount in amounts):
            return False
        left = den - sum(amounts)
        if left < 0:
            return False
        for c, amount in zip(purse, amounts):
            collected[c] += amount
        if left:
            for c in ballot - members:
                slack[c] += left
    for c in instance.candidates:
        if c in members:
            if collected[c] != price:
                return False
        elif collected[c] != 0 or slack[c] > price:
            return False
    return True


def check_priceable(
    instance: ElectionInstance, committee: Committee
) -> PriceSystem | None:
    """A supporting price system for the committee, or None.

    The definition asks for SOME positive price, which a linear program
    cannot state directly; instead the LP maximizes the price, and the
    committee is priceable exactly when the exact optimum is positive.
    The returned system has that optimal price, and it is re-validated
    without the LP.

    Full spend, tried first.  Members collect |W| * p and the voters hold
    n dollars, so every price system has p <= n/|W|.  If every voter can
    spend the whole dollar on approved members, each member collecting
    exactly n/|W|, every leftover is 0 <= p and price n/|W| is feasible,
    so it is the optimum; conversely, at p = n/|W| everyone spends
    everything.  Whether such payments exist is an integer transportation
    problem (``_full_spend``); when they do, it answers and no LP is built.

    Otherwise the LP answers.  It is the per-voter program with its
    symmetries folded away, which keeps the optimal price:

    * Voters with identical ballots, and elected clones (members with the
      same approvers), are interchangeable: the program maps to itself
      when two of them swap.  Averaging an optimal scheme over those swaps
      keeps every row satisfied at the same price, so some optimum pays
      alike within each ballot class and each elected clone class.  There
      is one payment variable y[j, C] per ballot class j and elected clone
      class C on its ballot, paid by each voter of j to each member of C:
      one spending row per class, sum of |C| * y[j, C] at most 1, and one
      collection row per elected clone class.
    * A non-member's leftover row caps the unspent money of its approver
      classes.  Non-members with the same approver classes share one row,
      and a row over a strict subset of another non-member's classes is
      dropped: leftovers are never negative, so the larger row implies it.
    """
    members = committee_members(instance, committee)
    classes = instance.classes
    elected, slots, outside = _price_classes(instance, members)
    # shares[(j, e)]: what each voter of class j pays each member of e
    if not members:
        # Nothing is bought, so any price beyond every candidate's total
        # support works (the maximization is unbounded).
        price: Rational = Fraction(max(1, *outside.values()))
        shares = {}
    elif (shares := _full_spend(classes, elected, slots, instance.num_voters)) is not None:
        price = Fraction(instance.num_voters, len(members))
    else:
        lp, var = _priceability_program(classes, elected, slots, outside)
        outcome = lp_maximize(lp)
        if outcome.status != OPTIMAL or outcome.value <= 0:
            return None
        price = outcome.assignment[0]
        shares = {key: outcome.assignment[v] for key, v in var.items()}
    payments: tuple[dict[int, Rational], ...] = tuple(
        {} for _ in instance.voters
    )
    for j, bought in enumerate(slots):
        purse: dict[int, Rational] = {}
        for e in bought:
            amount = shares.get((j, e))
            if amount:
                purse.update(dict.fromkeys(elected[e], amount))
        if purse:
            for i in classes.voters[j]:
                payments[i].update(purse)
    system = PriceSystem(price=price, payments=payments)
    _require(
        validate_price_system(instance, members, system),
        "price system fails its re-check",
    )
    return system


def _price_classes(
    instance: ElectionInstance, members: frozenset[int]
) -> tuple[list[list[int]], list[list[int]], dict[frozenset[int], int]]:
    """What a price system for ``members`` is built over: the elected
    clone classes; ``slots[j]``, the indices of those on class j's ballot;
    and the approver classes of each non-member, mapped to its |N(c)|."""
    holders, sizes = instance.classes.holders, instance.classes.sizes
    elected: list[list[int]] = []
    outside: dict[frozenset[int], int] = {}
    for clones in instance.clones:
        bought = [c for c in clones if c in members]
        if bought:
            elected.append(bought)
        if len(bought) < len(clones):
            held = holders[clones[0]]
            outside[frozenset(held)] = sum([sizes[j] for j in held])
    slots: list[list[int]] = [[] for _ in sizes]
    for e, clones in enumerate(elected):
        for j in holders[clones[0]]:
            slots[j].append(e)
    return elected, slots, outside


def _full_spend(
    classes: BallotClasses, elected: list[list[int]], slots: list[list[int]], n: int
) -> dict[tuple[int, int], Fraction] | None:
    """Shares under which every voter spends the whole dollar and every
    member collects n/|W|, or None when there are none.

    In units of 1/|W| dollar, ballot class j supplies sizes[j] * |W| and
    elected clone class e demands |e| * n, which balance; money moves
    only along the edges "e is on j's ballot".  A max-flow by shortest
    augmenting paths, all in ints, moves every unit exactly when the
    shares exist; a class that approves no member, or a clone class whose
    approvers supply less than it demands, rejects at once.  A flow f on
    edge (j, e) is f / (sizes[j] * |e| * |W|) per voter and member.
    """
    if not all(slots):
        return None
    sizes = classes.sizes
    seats = sum(map(len, elected))
    supply = [size * seats for size in sizes]
    demand = [len(clones) * n for clones in elected]
    payers = [classes.holders[clones[0]] for clones in elected]  # classes paying e
    for paying, need in zip(payers, demand):
        if sum([supply[j] for j in paying]) < need:
            return None
    flow: dict[tuple[int, int], int] = {}
    while any(supply):
        # breadth-first from every class with money left: reached[e] is the
        # class that reached e, back[j] the clone class j's flow is taken from
        queue = [j for j, left in enumerate(supply) if left]
        seen = set(queue)
        reached: dict[int, int] = {}
        back: dict[int, int] = {}
        end = None
        for j in queue:
            for e in slots[j]:
                if e in reached:
                    continue
                reached[e] = j
                if demand[e]:
                    end = e
                    break
                for i in payers[e]:
                    if i not in seen and flow.get((i, e)):
                        seen.add(i)
                        back[i] = e
                        queue.append(i)
            if end is not None:
                break
        if end is None:
            return None
        amount, e = demand[end], end
        while (j := reached[e]) in back:
            e = back[j]
            amount = min(amount, flow[(j, e)])
        amount = min(amount, supply[j])
        demand[end] -= amount
        e = end
        while True:
            j = reached[e]
            flow[(j, e)] = flow.get((j, e), 0) + amount
            if j not in back:
                supply[j] -= amount
                break
            e = back[j]
            flow[(j, e)] -= amount
    return {
        (j, e): Fraction(f, sizes[j] * len(elected[e]) * seats)
        for (j, e), f in flow.items()
        if f
    }


def _priceability_program(
    classes: BallotClasses,
    elected: list[list[int]],
    slots: list[list[int]],
    outside: dict[frozenset[int], int],
) -> tuple[LinearProgram, dict[tuple[int, int], int]]:
    """The LP ``check_priceable`` falls back to, over ``_price_classes``'s
    output, and its variable of each (ballot class, elected clone class)
    pair; variable 0 is the price."""
    holders, sizes = classes.holders, classes.sizes
    maximal = [held for held in outside if not any(held < other for other in outside)]
    var: dict[tuple[int, int], int] = {}  # (class, clone class) -> variable
    for j, bought in enumerate(slots):
        for e in bought:
            var[(j, e)] = 1 + len(var)
    lp = LinearProgram(1 + len(var), [1] + [0] * len(var))

    def row(entries: dict[int, int]) -> list[int]:
        coeffs = [0] * lp.num_variables
        for v, coeff in entries.items():
            coeffs[v] = coeff
        return coeffs

    for j, bought in enumerate(slots):
        if bought:
            spend = {var[(j, e)]: len(elected[e]) for e in bought}
            lp.add_constraint(row(spend), LE, 1)
    for e, clones in enumerate(elected):
        collected = {var[(j, e)]: sizes[j] for j in holders[clones[0]]}
        collected[0] = -1
        lp.add_constraint(row(collected), EQ, 0)
    for held in maximal:
        # leftover money of these classes stays at or below the price:
        # |N(c)| - (their total spending) <= p
        entries = {0: -1}
        for j in held:
            for e in slots[j]:
                entries[var[(j, e)]] = -sizes[j] * len(elected[e])
        lp.add_constraint(row(entries), LE, -outside[held])
    return lp, var


# ---------------------------------------------------------------------------
# representation axioms


def check_pjr(
    instance: ElectionInstance,
    committee: Committee,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Deviation | None:
    """A group whose shared candidates outnumber its committee coverage.

    A voter set S violates the axiom when, for some level l: the voters
    share at least l candidates, |S| >= l*n/size (size = |W|, or k for an
    empty committee), yet W covers fewer than l candidates approved by
    anyone in S.  Exhaustive over all voter subsets; each set visited is
    one node of the budget, at most 2^n - 1 in all.

    Voter sets are walked depth-first in sorted-tuple lexicographic
    order, carrying int bitmasks of the candidates all of S approve and of
    those anyone in S approves.  A set whose shared candidates are no more
    than W's coverage of the union is skipped with everything below it:
    adding voters only shrinks the first and grows the second, so no
    extension has a level to offer.  One loop over the stack ``group``
    pushes voter i, or pops the last voter and goes on after it: the
    plain enumeration's order at any depth, so the first witness is the
    one it finds.  The witness is re-checked against the definition.
    """
    members = committee_members(instance, committee)
    size = len(members) or instance.committee_size
    n = instance.num_voters
    tick = NodeCounter(budget).tick
    member_mask = sum(1 << c for c in members)
    ballots = [sum(1 << c for c in ballot) for ballot in instance.approvals]
    group: list[int] = []
    # (shared, union) of the empty set and of each prefix of group
    masks = [((1 << instance.num_candidates) - 1, 0)]
    i = 0
    while True:
        if i < n:
            tick()
            shared, union = masks[-1]
            shared &= ballots[i]
            union |= ballots[i]
            covered = (union & member_mask).bit_count()
            if shared.bit_count() > covered:
                group.append(i)
                # the smallest level covered + 1 works once |S| reaches level*n/size
                if (covered + 1) * n <= len(group) * size:
                    break
                masks.append((shared, union))
            i += 1
        elif group:
            i = group.pop() + 1
            masks.pop()
        else:
            return None
    alternative = [c for c in range(instance.num_candidates) if shared >> c & 1]
    deviation = Deviation(
        coalition=frozenset(group),
        alternative=frozenset(alternative[: covered + 1]),
    )
    _require(
        _is_pjr_witness(instance, members, deviation),
        "PJR witness fails its re-check",
    )
    return deviation


def _is_pjr_witness(
    instance: ElectionInstance, members: Committee, deviation: Deviation
) -> bool:
    """The PJR definition, checked directly on one (S, T)."""
    ballots = [instance.approvals[i] for i in deviation.coalition]
    level = len(deviation.alternative)
    size = len(members) or instance.committee_size
    if not ballots or not level or len(ballots) * size < level * instance.num_voters:
        return False
    return (
        deviation.alternative <= frozenset.intersection(*ballots)
        and len(members & frozenset.union(*ballots)) < level
    )


def check_ejr(
    instance: ElectionInstance,
    committee: Committee,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Deviation | None:
    """A deprived cohesive group: all of S approve every candidate of some
    l-set T, |S| >= l*n/k, yet every voter in S has fewer than l approved
    committee members.  Exhaustive over candidate l-subsets, level by
    level and in ``combinations`` order within a level.

    Each level is walked depth-first, carrying the bitmask of deprived
    voters (fewer than l approved members) who approve every candidate of
    the prefix.  A prefix is dropped once that set is too small for l*n/k:
    extending the prefix only removes approvers, so no l-set through it
    can qualify, and the first qualifying l-set is the one the plain
    enumeration would find; a level with too few deprived voters is skipped
    before its walk.  One loop over the stack ``combo`` pushes c,
    or pops the last candidate and goes on after it: ``combinations``
    order at any depth.  Each prefix tried, at any level, is one node.
    The witness is re-checked as a core deviation (``verify_deviation``)
    whose coalition all approve T.
    """
    members = committee_members(instance, committee)
    n, m, k = instance.num_voters, instance.num_candidates, instance.committee_size
    tick = NodeCounter(budget).tick
    approvers = instance.approver_masks
    # reached[u]: the voters with at least u approved members, for u <= k,
    # counted up one member at a time; the voters deprived at level l are
    # those outside reached[l]
    reached = [(1 << n) - 1] + [0] * k
    for count, c in enumerate(members, start=1):
        mask = approvers[c]
        for u in range(min(count, k), 0, -1):
            reached[u] |= reached[u - 1] & mask
    for level in range(1, k + 1):
        deprived = reached[0] ^ reached[level]
        if deprived.bit_count() * k < level * n:
            continue  # even the empty prefix is too small: no witness here
        combo: list[int] = []
        # the deprived approvers of the empty prefix and of each longer one
        groups = [deprived]
        c = 0
        while len(combo) < level:
            if c <= m - level + len(combo):
                tick()
                shared = groups[-1] & approvers[c]
                if shared.bit_count() * k >= level * n:
                    combo.append(c)
                    groups.append(shared)
                c += 1
            elif combo:
                c = combo.pop() + 1
                groups.pop()
            else:
                break
        else:
            coalition = frozenset(i for i in instance.voters if shared >> i & 1)
            alternative = frozenset(combo)
            deviation = Deviation(coalition=coalition, alternative=alternative)
            # T inside every ballot of S turns the core's gain |A_i & T| >
            # |A_i & W| into EJR's |A_i & W| < |T|; both need |S|*k >= |T|*n
            _require(
                verify_deviation(instance, members, deviation)
                and all(alternative <= instance.approvals[i] for i in coalition),
                "EJR witness fails its re-check",
            )
            return deviation
    return None


# ---------------------------------------------------------------------------
# core family
#
# All three searches walk candidate sets T in sorted-tuple lexicographic
# order but never deeper than k members: a pair blocks only when
# |S|*k >= |T|*n, and |S| <= n, so no T with more than k members can
# block.  Skipping those sets changes neither the first witness nor any
# verdict.


def _blocking_sets(
    instance: ElectionInstance,
    thresholds: Sequence[int],
    budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Every T with at most k members whose gainers could fill |T| seats.

    Yields (T, counts) in sorted-tuple lexicographic order, where
    ``counts[j]`` is |B_j & T| for ballot class j; the voters of class j
    gain exactly when ``counts[j] > thresholds[j]``, and the gainers number
    at least |T|*n/k.  ``counts`` is updated in place as the walk goes
    on, so read it before advancing.  Counts and the number of gainers
    change incrementally as candidates enter and leave T.

    The walk skips a subtree that holds no such T, so it yields exactly
    the sets the plain walk yields.  Below a prefix P, with ``nxt`` the
    next candidate it may take, every set is P | Q for a nonempty Q drawn
    from nxt..m-1.  A gainer of P still gains in P | Q, as counts only
    grow.  Class j gains only if Q holds need_j = thresholds[j] + 1 -
    counts[j] more of its own candidates, and nxt..m-1 holds only r_j of
    them, so Q of size q has at most G(q) gainers: the classes with
    need_j <= min(q, r_j).  The subtree is skipped when G(q)*k < (|P|+q)*n
    for every size q it has.  When the gainers of P alone already fill
    |P|+1 seats the test is skipped, as one more candidate blocks.  Each
    set entered is one node; the empty root is not.
    """
    n, m, k = instance.num_voters, instance.num_candidates, instance.committee_size
    holders, sizes = instance.classes.holders, instance.classes.sizes
    remaining = suffix_counts(holders, len(sizes))  # [i][j] = |B_j & {i..m-1}|
    counts = [0] * len(sizes)
    tick = NodeCounter(budget).tick

    def can_block(size: int, gaining: int, nxt: int) -> bool:
        """Whether some P | Q below the prefix of ``size`` members, Q drawn
        from nxt..m-1, has gainers enough to block (the bound above)."""
        most = min(k - size, m - nxt)
        extra = [0] * (most + 1)
        rest = remaining[nxt]
        for threshold, count, left, voters in zip(thresholds, counts, rest, sizes):
            need = threshold + 1 - count
            if 0 < need <= most and need <= left:
                extra[need] += voters
        for q in range(1, most + 1):
            gaining += extra[q]
            if gaining * k >= (size + q) * n:
                return True
        return False

    gaining = 0
    chosen: list[int] = []
    nxt = 0
    while True:
        # chosen has fewer than k members here
        if nxt < m and (
            gaining * k >= (len(chosen) + 1) * n
            or can_block(len(chosen), gaining, nxt)
        ):
            tick()
            c = nxt
            chosen.append(c)
            for j in holders[c]:
                counts[j] += 1
                if counts[j] == thresholds[j] + 1:
                    gaining += sizes[j]
            if gaining * k >= len(chosen) * n:
                yield tuple(chosen), counts
            nxt = c + 1
            if len(chosen) < k:
                continue
        if not chosen:
            return
        c = chosen.pop()
        for j in holders[c]:
            if counts[j] == thresholds[j] + 1:
                gaining -= sizes[j]
            counts[j] -= 1
        nxt = c + 1


def _gain_threshold(welfare: int, lam: Rational) -> int:
    """A voter gains when its new welfare beats this: its committee
    welfare u at lam = 1, and beyond, max(lam*u, 1) or, as welfare is a
    whole number, the floor of that."""
    return welfare if lam == 1 else floor(max(lam * welfare, 1))


def find_core_deviation(
    instance: ElectionInstance,
    committee: Committee,
    lam: Rational = Fraction(1),
    budget: int = DEFAULT_NODE_BUDGET,
) -> Deviation | None:
    """The lexicographically-first blocking pair (S, T), or None.

    T runs over candidate sets in sorted-tuple order; S is always the full
    set of gaining voters (enlarging S only helps the size condition, so
    this loses nothing).  A pair blocks when |S|*k >= |T|*n, and a voter
    gains by ``_gain_threshold``'s rule.  Sets of more than k candidates
    are skipped, as they cannot block.
    """
    if lam < 1:
        raise ValueError("lambda must be at least 1")
    return _first_blocking_pair(
        instance, committee, lam, lambda alternative, gainers: gainers, budget
    )


def _first_blocking_pair(
    instance: ElectionInstance,
    committee: Committee,
    lam: Rational,
    coalition: Callable[[frozenset[int], list[int]], list[int]],
    budget: int,
) -> Deviation | None:
    """The first (S, T) in ``_blocking_sets`` order that blocks at lam,
    with S = ``coalition(T, the gainers of T)``, or None.  The pair is
    re-checked by ``verify_deviation``."""
    members = committee_members(instance, committee)
    n, k = instance.num_voters, instance.committee_size
    classes = instance.classes
    thresholds = [_gain_threshold(len(b & members), lam) for b in classes.ballots]
    for combo, counts in _blocking_sets(instance, thresholds, budget):
        alternative = frozenset(combo)
        gainers = [
            i
            for j, voters in enumerate(classes.voters)
            if counts[j] > thresholds[j]
            for i in voters
        ]
        group = coalition(alternative, gainers)
        if len(group) * k < len(combo) * n:
            continue
        deviation = Deviation(coalition=frozenset(group), alternative=alternative)
        _require(
            verify_deviation(instance, members, deviation, lam),
            "core deviation fails its re-check",
        )
        return deviation
    return None


def verify_deviation(
    instance: ElectionInstance,
    committee: Committee,
    deviation: Deviation,
    lam: Rational = Fraction(1),
) -> bool:
    """Check the given (S, T) without any search: the coalition must be
    populous enough for |T| seats and every member must gain by
    ``_gain_threshold``'s rule."""
    members = committee_members(instance, committee)
    n, m, k = instance.num_voters, instance.num_candidates, instance.committee_size
    coalition = _indices(deviation.coalition, n, "coalition voter index out of range")
    alternative = _indices(
        deviation.alternative, m, "alternative candidate index out of range"
    )
    if not coalition or not alternative:
        return False
    if len(alternative) * n > len(coalition) * k:
        return False
    for i in coalition:
        old = len(instance.approvals[i] & members)
        if len(instance.approvals[i] & alternative) <= _gain_threshold(old, lam):
            return False
    return True


def minimal_core_lambda(
    instance: ElectionInstance,
    committee: Committee,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Rational | None:
    """The smallest lam >= 1 at which no lambda-core deviation remains.

    Uses the max(lam*utility, 1) gain rule throughout, so a voter with
    zero committee welfare needs an alternative welfare of at least 2 to
    count as gaining; such voters gain at EVERY lam, and if they alone can
    block some T the answer is None (no finite lam clears the committee).
    Only a T whose gainers under this rule at lam=1 block can need a lam
    above 1 or make the answer None, and sets of more than k candidates
    never block, so only those T are examined.
    """
    members = committee_members(instance, committee)
    n, k = instance.num_voters, instance.committee_size
    classes = instance.classes
    welfare = [len(ballot & members) for ballot in classes.ballots]
    thresholds = [max(u, 1) for u in welfare]
    best = Fraction(1)
    for combo, counts in _blocking_sets(instance, thresholds, budget):
        needed = len(combo) * n  # |S|*k must reach this to block
        always, ratios = 0, []
        for j, size in enumerate(classes.sizes):
            if counts[j] <= thresholds[j]:
                continue  # gains at no lam
            if welfare[j] == 0:
                always += size
            else:
                ratios.append((Fraction(counts[j], welfare[j]), size))
        if always * k >= needed:
            return None
        for lam in [Fraction(1)] + sorted({t for t, _ in ratios}):
            cleared = always + sum(size for t, size in ratios if t > lam)
            if cleared * k < needed:
                if lam > best:
                    best = lam
                break
    return best


# ---------------------------------------------------------------------------
# core subject to a deviation property


def check_core_subject_to(
    instance: ElectionInstance,
    committee: Committee,
    deviation_property: str,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Deviation | None:
    """A blocking pair (S, T) whose alternative additionally carries the
    given property inside the restricted instance (S's ballots, |T| seats).

    Properties:
      * ``cohesive``: every coalition member approves all of T.
      * ``price_eq``: T is supportable by equal per-candidate payments
        from its coalition approvers, each candidate collecting the full
        instance's per-seat price n/k, nobody spending more than 1.
      * ``priceable``: T is priceable in the restricted instance.

    The coalition tried for each T:
      * ``cohesive``: the gainers who approve all of T.  Exact: any
        cohesive coalition is part of this one, and more members only
        help the size condition.
      * ``price_eq``: the largest part of the gainers that pays in equal
        shares, found by dropping every voter whose shares exceed 1 until
        none does.  Exact: a voter's shares only grow as other payers
        leave, so a voter dropped at some round overspends in every
        sub-coalition of the voters then left, and no qualifying
        coalition holds it.  What is left therefore contains every
        qualifying coalition; as it pays its own shares, it qualifies
        itself (the size condition and a payer for every candidate of
        T) exactly when some coalition does, and it is then their union.
      * ``priceable``: the whole gaining group only.  A smaller
        coalition could succeed where it fails, so with no witness any
        such T leaves the answer undecided (SearchBudgetExceeded).
    Only sets T whose gainers block are examined, and sets of more than
    k candidates never block.
    """
    if deviation_property not in PROPERTY_KINDS:
        raise ValueError(f"unknown deviation property {deviation_property!r}")
    price = Fraction(instance.num_voters, instance.committee_size)
    unpriced = 0  # blocking sets T whose whole gaining group is not priceable

    def coalition(alternative: frozenset[int], group: list[int]) -> list[int]:
        """The coalition tried for T (see above), or [] for none."""
        nonlocal unpriced
        if deviation_property == COHESIVE:
            return [i for i in group if alternative <= instance.approvals[i]]
        if deviation_property == PRICE_EQ:
            group = _equal_share_payers(instance, group, alternative, price)
            paid = all(any(c in instance.approvals[i] for i in group) for c in alternative)
            return group if paid else []
        # the gaining group blocks T; the restricted profile keeps numbering
        restricted = restrict_profile(instance, group, len(alternative))
        if check_priceable(restricted, alternative) is None:
            unpriced += 1
            return []
        return group

    deviation = _first_blocking_pair(instance, committee, Fraction(1), coalition, budget)
    if deviation is None and unpriced:
        raise SearchBudgetExceeded(
            f"undecided: the gaining group of {unpriced} blocking set(s) is not "
            "priceable as a whole, and its smaller coalitions are not tried"
        )
    return deviation


def _equal_share_payers(
    instance: ElectionInstance,
    coalition: list[int],
    alternative: frozenset[int],
    price: Rational,
) -> list[int]:
    """What is left of the coalition after repeatedly dropping every
    voter whose equal shares exceed 1: each candidate of the alternative
    costs ``price``, split equally among its approvers in the coalition,
    and each voter pays the shares of the candidates it approves."""
    while True:
        payers = {
            c: sum(1 for i in coalition if c in instance.approvals[i])
            for c in alternative
        }
        kept = [
            i
            for i in coalition
            if sum(
                (price / payers[c] for c in alternative if c in instance.approvals[i]),
                Fraction(0),
            )
            <= 1
        ]
        if len(kept) == len(coalition):
            return coalition
        coalition = kept


def _require(holds: bool, what: str) -> None:
    """Raise InternalInvariantError unless a re-check holds (unlike
    ``assert``, this also runs under ``python -O``)."""
    if not holds:
        raise InternalInvariantError(what)


# ---------------------------------------------------------------------------
# welfare-vector axioms


def check_pigou_dalton(
    instance: ElectionInstance,
    committee: Committee,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Committee | None:
    """A same-size committee obtained by transferring welfare from a
    better-off voter to a worse-off one: exactly two entries change, the
    sum is preserved, the higher entry drops, the lower rises, and they do
    not swap order.  Returns the lexicographically-first such committee."""
    members = frozenset(committee)
    utilities = welfare_vector(instance, members)
    for other, candidate in _same_size_committees(instance, members, budget):
        moved = [i for i in instance.voters if candidate[i] != utilities[i]]
        if len(moved) != 2:
            continue
        a, b = moved
        if utilities[a] < utilities[b]:
            a, b = b, a
        if utilities[a] <= utilities[b]:
            continue  # equal entries cannot transfer without swapping order
        if candidate[a] + candidate[b] != utilities[a] + utilities[b]:
            continue
        if candidate[a] < utilities[a] and candidate[b] > utilities[b] and candidate[a] >= candidate[b]:
            return other
    return None


def check_pareto(
    instance: ElectionInstance,
    committee: Committee,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Committee | None:
    """A same-size committee at least as good for everyone and strictly
    better for someone, or None."""
    members = frozenset(committee)
    utilities = welfare_vector(instance, members)
    for other, candidate in _same_size_committees(instance, members, budget):
        if all(c >= u for c, u in zip(candidate, utilities)) and candidate != utilities:
            return other
    return None


def _same_size_committees(
    instance: ElectionInstance, members: frozenset[int], budget: int
) -> Iterator[tuple[frozenset[int], tuple[int, ...]]]:
    """Every other committee of |members| candidates, in ``combinations``
    order, with its welfare vector; each committee, ``members`` too, is
    one node."""
    tick = NodeCounter(budget).tick
    for combo in combinations(instance.candidates, len(members)):
        tick()
        other = frozenset(combo)
        if other != members:
            yield other, welfare_vector(instance, other)
