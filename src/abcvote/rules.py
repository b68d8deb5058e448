"""Committee voting rules, all in exact arithmetic.

Implemented rules:

* ``pav_score`` / ``pav_winners`` -- Thiele's proportional approval voting:
  maximize the sum over voters of the harmonic number of their approved
  committee members.  ``pav_winners`` returns the complete set of optimal
  committees of size exactly k, found by budgeted branch-and-bound.
* ``seq_pav`` -- the greedy (sequential) variant of the same objective.
* ``phragmen_sequential`` -- voters earn virtual money at unit speed; a
  candidate is bought as soon as its supporters jointly hold n/k; supporters'
  balances reset.  Simulated event-by-event, so election times are exact.
* ``rule_x`` -- every voter starts with budget 1; electing a candidate costs
  n/k, split as evenly as the supporters' remaining budgets allow.  The rule
  can exhaust all affordable candidates before reaching k seats;
  ``rule_x_complete`` then continues with the money-earning rule from the
  leftover budgets.
* ``dhondt`` -- highest-averages apportionment for party vote counts.

The inner loops compute on Python ints over a common denominator: PAV's
score, its search and seq-PAV all read one weight table, lcm(1..k)/(u+1)
(``pav_score`` takes k = |W| and divides by lcm(1..k) once), and the two
money-based rules keep every balance, budget and the clock as an int
numerator over one running denominator.  Every value a rule returns is an
exact ``Fraction``, equal to what the plain ``Fraction`` computation gives.
The three sequential rules keep the voters in a few groups that share a
state, each an int bitmask: seq-PAV groups them by utility, Phragmén's
rule by balance offset (a balance is the clock plus its group's offset,
so a delay moves the clock alone), and Rule X by budget.  A sum over a
candidate's approvers is a sum over the groups of the group's value
times ``(approver_masks[c] & group).bit_count()``.  The rules evaluate
only the smallest unelected member (the "head") of each clone class:
clones have the same balance, price cap and PAV gain at every step, and
ties go to the smallest index, so the choice is always a head.
``rule_x`` recomputes a class's price cap only when it reaches the top
of a lazy heap, as budgets only shrink and an old cap is a lower bound;
the heap compares caps as int fractions by cross-multiplying, and a
recomputation walks the budget groups from the poorest and stops at the
first whose budget covers the cap, so the richer groups go unread.
Both money rules' traces keep int numerators and voter bitmasks, made
``Fraction`` times, payments or budgets when first read.  ``pav_score`` and
``pav_winners`` read the instance's kept ``classes``, so they work
once per distinct ballot.  ``pav_winners`` branches on the
most-approved candidates first, cuts with both the top solo gains and a
per-ballot-class cap on what is left to gain, keeps every candidate's
solo gain up to date as candidates are taken, rather than re-scoring
all remaining candidates at every node, and prices a forced chain (as
many candidates left as seats) exactly by the per-class sum: one node
when it scores below the best leaf, else settled in one step that
counts the nodes taking them one by one would visit.

Ties are always broken lexicographically (smallest candidate index), which
makes every rule fully deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd, lcm
from typing import Mapping, Sequence

from abcvote.model import (
    DEFAULT_NODE_BUDGET,
    Committee,
    ElectionInstance,
    InternalInvariantError,
    NodeCounter,
    Rational,
    Record,
    _indices,
    committee_members,
    suffix_counts,
)

def _pav_weights(k: int) -> list[int]:
    """w[u] = L/(u+1) for u < k, with L = lcm(1..k): the marginal PAV gain
    of a voter's (u+1)-st approved member, scaled to an int by L."""
    scale = lcm(*range(1, k + 1))
    return [scale // (u + 1) for u in range(k)]


def pav_score(instance: ElectionInstance, committee: Committee) -> Rational:
    """Sum over voters of H(number of approved committee members), taken
    once per distinct ballot and weighted by the number of its voters.
    H(u) is the sum of the first u weights of a committee of |W| seats,
    over the first weight, lcm(1..|W|)."""
    members = committee_members(instance, committee)
    weights = _pav_weights(max(len(members), 1))
    below = list(accumulate(weights, initial=0))
    classes = instance.classes
    total = sum(
        size * below[len(ballot & members)]
        for ballot, size in zip(classes.ballots, classes.sizes)
    )
    return Fraction(total, weights[0])


def pav_winners(
    instance: ElectionInstance, budget: int = DEFAULT_NODE_BUDGET
) -> list[Committee]:
    """All committees of size exactly k with maximal PAV score, in the
    order of their sorted member tuples (the first is the lexicographically
    smallest optimum).

    Branch-and-bound over candidate *positions*: position p holds the
    candidate with the p-th largest approval weight (the number of voters
    approving it), ties in index order, so the first leaves score well and
    ``best`` soon cuts.  The leaves are mapped back to candidate indices
    and sorted at the end, so the order of the walk changes no output.
    The search runs on the ballot classes, so many voters with few
    distinct ballots cost nothing extra.  Scores are ints scaled by
    lcm(1..k), which changes no comparison.

    A node with s seats left, at utilities u_j, is cut when its score
    plus either of two bounds on what the rest can gain is below ``best``:

    * the top s "solo" marginal gains at the current utilities -- joint
      gains can only be smaller (diminishing returns);
    * with s >= 2, the per-class bound: the sum over classes j of
      ``size_j * (below[u_j + min(s, a_j)] - below[u_j])``, a_j being the
      number of j's approved candidates at positions >= pos, read from
      one ``model.suffix_counts`` table -- however the s seats are
      filled, class j gets at most min(s, a_j) more members, worth at
      most its next that many harmonic increments.  It is summed only at
      nodes that pass the first test, largest classes first, and only
      until it reaches ``best - score``.

    Each bounds every completion of the node from above and the cut is
    strict, so no optimum and no tie is ever cut: the winners are exactly
    the optimal committees, whatever the walk visits.

    One loop over the stack ``chosen`` takes ``pos`` (push), or pops the
    last taken position p and goes on at p + 1 without it: the "skip"
    child that an include-first recursion visits next, so the nodes come
    in its order.

    The solo gains are kept in a list, which the bound sorts (or takes the
    maximum of, with one seat left).  Taking p lowers the gain of every
    later position on the ballot of each class j approving p by
    ``sizes[j] * (w[u] - w[u+1])``, u being the class's utility before p;
    the push saves the old list and the pop restores it.  Two kinds of
    take push nothing.  On the last seat, the take is the leaf itself,
    counted with its node.  With exactly as many positions left as
    seats s, the node heads a forced chain: every a_j <= s, so the
    per-class sum is exactly the chain's gain, and it gives the leaf.  A
    leaf below ``best`` cuts the chain as one node, like any other cut.
    Otherwise the recursion would take all s positions, one node each,
    score the leaf and back out through the dead skip child of each
    take: the loop counts those 2s + 1 nodes before the budget test and
    settles the leaf.  So the budget counts the nodes of this walk,
    which gives up one node short of its own count.

    Raises SearchBudgetExceeded when the search tree outgrows ``budget``
    nodes -- the instance is then too large for exact PAV.
    """
    m, k = instance.num_candidates, instance.committee_size
    weights = _pav_weights(k)
    below = list(accumulate(weights, initial=0))  # below[u] = w[0] + ... + w[u-1]
    classes = instance.classes
    sizes = classes.sizes
    approval = [sum([sizes[j] for j in js]) for js in classes.holders]
    order = sorted(range(m), key=lambda c: (-approval[c], c))  # position -> candidate
    place = [0] * m
    for p, c in enumerate(order):
        place[c] = p
    holders = [classes.holders[c] for c in order]  # per position
    rows = [sorted([place[c] for c in ballot]) for ballot in classes.ballots]
    # the classes with a non-empty ballot, largest first
    heavy = sorted([(sizes[j], j) for j, row in enumerate(rows) if row], reverse=True)
    utilities = [0] * len(sizes)
    gains = [weights[0] * approval[c] for c in order]
    best = -1
    winners: list[tuple[int, ...]] = []  # in positions
    chosen: list[tuple[int, int, list[int]]] = []  # (position, score, gains before it)
    tick = NodeCounter(budget).tick
    remaining = suffix_counts(holders, len(sizes))  # [p][j]: a_j at position p

    def settle(leaf: int, members: Sequence[int]) -> None:
        nonlocal best
        if leaf > best:
            best = leaf
            winners.clear()
        if leaf == best:
            # built in one step: a freed short tuple would stay in the
            # interpreter's tuple cache
            winners.append((*(p for p, _, _ in chosen), *members))

    def class_gain(seats: int, need: int | None = None) -> int:
        """The per-class bound for ``seats`` seats at ``pos``, summed
        largest classes first, and only until it reaches ``need``."""
        total = 0
        left = remaining[pos]
        for size, j in heavy:
            a = left[j]
            if a:
                u = utilities[j]
                total += size * (below[u + (a if a < seats else seats)] - below[u])
                if need is not None and total >= need:
                    break
        return total

    pos, score = 0, 0
    while True:
        seats_left = k - len(chosen)
        if seats_left == m - pos:
            # a forced chain: the class sum is exactly its gain
            leaf = score + class_gain(seats_left)
            if leaf < best:
                tick(1)
            else:
                # its takes, leaf and dead skips in one step
                tick(2 * seats_left + 1)
                settle(leaf, range(pos, m))
        elif seats_left == 1:
            # the last seat: a take is the leaf, counted with its node
            if score + max(gains[pos:]) >= best:
                tick(2)
                settle(score + gains[pos], (pos,))
                pos += 1
                continue
            tick(1)
        else:
            tick(1)
            top = gains[pos:]
            top.sort()
            # branch-and-bound cut (never cuts ties: strict comparisons)
            if (
                score + sum(top[-seats_left:]) >= best
                and class_gain(seats_left, best - score) >= best - score
            ):
                chosen.append((pos, score, gains))
                score += gains[pos]
                gains = gains.copy()
                for j in holders[pos]:
                    u = utilities[j]
                    utilities[j] = u + 1
                    drop = sizes[j] * (weights[u] - weights[u + 1])
                    row = rows[j]
                    for p in row[bisect_right(row, pos) :]:
                        gains[p] -= drop
                pos += 1
                continue
        # a cut or a settled chain: skip the last one taken
        if not chosen:
            members = sorted(tuple(sorted([order[p] for p in w])) for w in winners)
            return [frozenset(w) for w in members]
        p, score, gains = chosen.pop()
        for j in holders[p]:
            utilities[j] -= 1
        pos = p + 1


def seq_pav(instance: ElectionInstance) -> Committee:
    """Greedy PAV: repeatedly add the candidate with the largest marginal
    contribution to the PAV score (smallest index on ties).

    Clones (candidates with the same approvers) have the same gain at
    every step, so the smallest-index best candidate is always the
    smallest unelected member, the "head", of its clone class: each step
    scores one head per class, over the voters grouped by utility.
    """
    weights = _pav_weights(instance.committee_size)
    masks = instance.approver_masks
    levels = {0: (1 << instance.num_voters) - 1}  # utility -> the voters holding it
    classes = [list(c) for c in instance.clones]  # emptied as heads are taken
    committee: set[int] = set()

    def gain(members: list[int]) -> tuple[int, int]:
        mask = masks[members[0]]
        return sum([
            weights[u] * (mask & level).bit_count() for u, level in levels.items()
        ]), -members[0]

    for _ in range(instance.committee_size):
        members = max(classes, key=gain)
        best_c = members.pop(0)
        if not members:
            classes.remove(members)
        committee.add(best_c)
        mask = masks[best_c]
        moved: dict[int, int] = {}
        for u, level in levels.items():
            inside = level & mask
            if inside:
                moved[u + 1] = moved.get(u + 1, 0) | inside
                level ^= inside
            if level:
                moved[u] = moved.get(u, 0) | level
        levels = moved
    return frozenset(committee)


def _balances(record: tuple[int, int, dict[int, int], int]) -> list[Rational]:
    """The n voters' money in a kernel record ``(den, base, groups, n)``:
    ``(base + value)/den`` for the voters in the bitmask ``groups[value]``,
    ``base/den`` for the voters in none, one ``Fraction`` per value."""
    den, base, groups, n = record
    made = {value: Fraction(base + value, den) for value in (0, *groups)}
    money = [made[0]] * n
    for value, group in groups.items():
        for i, bit in enumerate(bin(group)[:1:-1]):
            if bit == "1":
                money[i] = made[value]
    return money


class PhragmenTrace(Record):
    """Full record of a money-earning run.

    ``elected`` lists candidates in election order; ``election_times[j]`` is
    the (exact, global) time at which ``elected[j]`` was bought, and
    ``payments[j]`` maps each paying voter to the amount deducted, in
    increasing voter order.  Within each step the payments add up to n/k.
    Times are weakly increasing: several candidates can be bought at the
    same instant, in lexicographic order.

    ``purchases[j]`` is the kernel's record ``(den, clock, paid, n)`` of
    purchase j: time ``clock/den``, and ``amount/den`` paid by each voter
    of the bitmask ``paid[amount]``.  The ``Fraction`` times and payments
    are built from it on their first access.
    """

    elected: tuple[int, ...]
    purchases: list[tuple[int, int, dict[int, int], int]]
    _hidden = ("purchases",)

    @cached_property
    def election_times(self) -> tuple[Rational, ...]:
        return tuple(Fraction(clock, den) for den, clock, _, _ in self.purchases)

    @cached_property
    def payments(self) -> tuple[dict[int, Rational], ...]:
        return tuple(
            {i: a for i, a in enumerate(_balances((den, 0, paid, n))) if a}
            for den, _, paid, n in self.purchases
        )

    @property
    def committee(self) -> Committee:
        return frozenset(self.elected)


def phragmen_sequential(instance: ElectionInstance) -> PhragmenTrace:
    """Event-driven simulation of the sequential money-earning rule.

    Voters earn money at unit speed.  The next purchase happens after delay
    ``max(0, (n/k - current group balance) / group size)``, minimized over
    not-yet-elected candidates with at least one approver; ties go to the
    smallest candidate index.  The rule stops after k candidates, or earlier
    if no remaining candidate has any approver (the committee is then
    undersized).
    """
    trace, _ = _phragmen_run(
        instance,
        den=instance.committee_size,
        start={},
        excluded=frozenset(),
    )
    return trace


def _phragmen_run(
    instance: ElectionInstance,
    den: int,
    start: dict[int, int],
    excluded: frozenset[int],
) -> tuple[PhragmenTrace, list[tuple[int, int, dict[int, int], int]]]:
    """Money-earning run at time 0 from the starting balances
    ``offset/den`` of the voters in each bitmask ``start[offset]``, for
    nonzero offsets, and 0 for the voters in none; k must divide ``den``.
    The ``excluded`` candidates are already elected, so the run fills the
    k - |excluded| seats left, or stops when no candidate has an approver.

    Balances, the price and the clock are int numerators over a common
    denominator ``den``; each delay multiplies ``den`` (and every
    numerator) by the denominator of its reduced value, which makes the
    delay an int.  A voter's balance is the clock plus the offset of its
    group in ``offsets`` (0 in none): a delay moves the clock, and a
    payment moves the payers to offset -clock.  Only clone heads are
    scanned, the smallest index winning a tie.  Returns the trace and,
    per purchase, the balances right after it as a ``_balances`` record.
    """
    n, k = instance.num_voters, instance.committee_size
    seats = k - len(excluded)
    price = n * den // k
    clock = 0
    masks = instance.approver_masks
    if sum(map(int.bit_count, masks)) != sum(map(len, instance.approvals)):
        raise InternalInvariantError("approver masks do not match the ballots")
    offsets = start
    # emptied as heads are bought
    classes = [list(members) for members in instance.clones if masks[members[0]]]
    if excluded:
        classes = [
            kept for members in classes if (kept := [c for c in members if c not in excluded])
        ]
    elected: list[int] = []
    purchases: list[tuple[int, int, dict[int, int], int]] = []
    snapshots: list[tuple[int, int, dict[int, int], int]] = []
    while len(elected) < seats and classes:
        # the smallest delay missing/size; 1/0 stands for "none seen yet"
        best_c, best_missing, best_size, best_members = -1, 1, 0, classes[0]
        groups = offsets.items()
        for members in classes:
            c = members[0]
            mask = masks[c]
            size = mask.bit_count()
            missing = price - clock * size
            for offset, group in groups:
                missing -= offset * (mask & group).bit_count()
            if missing < 0:
                missing = 0
            ahead = missing * best_size - best_missing * size
            if ahead < 0 or ahead == 0 and c < best_c:
                best_c, best_missing, best_size = c, missing, size
                best_members = members
        if best_missing:
            g = gcd(best_missing, best_size)
            step, grow = best_size // g, best_missing // g
            den, price, clock = den * step, price * step, clock * step + grow
            if step > 1:
                offsets = {offset * step: group for offset, group in offsets.items()}
        payers = masks[best_c]
        paid = {clock: payers}  # amount -> its payers, first those in no group
        left: dict[int, int] = {}
        for offset, group in offsets.items():
            inside = group & payers
            if inside:
                paid[clock + offset] = inside
                paid[clock] ^= inside
                group ^= inside
            if group:
                left[offset] = group
        if clock:
            left[-clock] = left.get(-clock, 0) | payers
        offsets = left
        if sum([amount * group.bit_count() for amount, group in paid.items()]) != price:
            raise InternalInvariantError(
                f"Phragmen step {len(elected)}: payments for candidate {best_c} "
                "do not add up to the price"
            )
        elected.append(best_c)
        purchases.append((den, clock, paid, n))
        snapshots.append((den, clock, offsets, n))
        best_members.pop(0)
        if not best_members:
            classes.remove(best_members)
    return PhragmenTrace(tuple(elected), purchases), snapshots


class RuleXTrace(Record):
    """Record of a budget-spending run.

    ``q_values[j]`` is the per-voter payment cap with which ``elected[j]``
    was bought during the budget phase; ``budgets[j]`` is the full vector of
    voter budgets right after that purchase.  When ``rule_x_complete``
    appends further candidates, those appear in ``elected`` (and contribute
    budget snapshots) but have no q-value.  ``snapshots[j]`` is the
    kernel's ``_balances`` record ``(den, base, groups, n)`` of those
    budgets, from which ``budgets`` is built on its first access.
    """

    elected: tuple[int, ...]
    q_values: tuple[Rational, ...]
    snapshots: list[tuple[int, int, dict[int, int], int]]
    _hidden = ("snapshots",)

    @cached_property
    def budgets(self) -> tuple[tuple[Rational, ...], ...]:
        return tuple(tuple(_balances(snapshot)) for snapshot in self.snapshots)

    @property
    def committee(self) -> Committee:
        return frozenset(self.elected)

    @property
    def completed(self) -> bool:
        """Whether the completion appended members: False for a plain
        budget-phase run even when that run fills all k seats."""
        return len(self.elected) > len(self.q_values)


def min_affordable_q(
    supporters: int,
    groups: Mapping[int | Rational, int],
    left: int,
    price: int | Rational,
) -> Rational | None:
    """Smallest q with sum_i min(q, b_i) >= price over the voters i of the
    bitmask ``supporters``, or None if unaffordable.

    ``groups`` maps each budget b to the bitmask of the voters holding it,
    in increasing budget order; ``left`` is the number of supporters in
    the groups, and a supporter in none holds 0.  ``price`` must be
    positive; budgets and price may be ints or Fractions.  If the
    supporters below b pay their full budget and the ``left`` others pay
    q each, then q = need / left, ``need`` being the price less what the
    poorer ones paid.  f(q) = sum_i min(q, b_i) increases strictly up to
    the largest budget, so the first group whose split reaches the price
    at q = b gives the minimal q: the walk returns there, without reading
    the groups above it.  A group with no supporter changes neither
    ``need`` nor ``left``, and q then still lies above the budgets below
    it, so it may be the split too.
    """
    need = price
    for b, group in groups.items():
        if left * b >= need:
            return Fraction(need, left)
        count = (supporters & group).bit_count()
        if count:
            need -= count * b
            left -= count
    return None


class _Offer:
    """An entry of ``rule_x``'s lazy heap: the clone class ``members``,
    its ``head`` when the entry was last pushed, and the key ``num/den``,
    a q in units of the starting budget.  Entries order by key, compared
    exactly as cross-multiplied ints, then by head."""

    __slots__ = ("num", "den", "head", "members")

    def __init__(self, num: int, den: int, head: int, members: list[int]) -> None:
        self.num, self.den, self.head, self.members = num, den, head, members

    def __lt__(self, other: _Offer) -> bool:
        ahead = self.num * other.den - other.num * self.den
        return ahead < 0 or ahead == 0 and self.head < other.head


def rule_x(
    instance: ElectionInstance,
    tie_choices: Mapping[int, int] | None = None,
) -> RuleXTrace:
    """The budget-spending rule: unit budgets, price n/k per candidate.

    In each step the cheapest candidate is bought: the one affordable with
    the smallest per-voter cap q (ties to the smallest index).  Supporters
    pay min(q, remaining budget).  The rule stops when no remaining
    candidate's supporters can raise n/k; this can leave the committee
    undersized; only :func:`rule_x_complete` appends members.

    ``tie_choices`` may map a 0-based step number to a candidate that should
    be picked at that step instead of the lexicographic default; the choice
    must be within that step's minimal-q tie set, and the step an ``int``
    that the run reaches (it buys a candidate there), otherwise ValueError.

    Budgets are int numerators over a common denominator ``den`` (so the
    price n/k is ``n`` at the start, when ``den`` is k); each purchase
    multiplies ``den`` by the denominator of its scaled q, which makes the
    payments ints.  The voters are kept as one bitmask per positive
    budget, in increasing budget order, and ``alive`` is their union; a
    voter in none has spent all.  A price check counts the candidate's
    voters in ``alive`` once, then walks the groups from the poorest and
    stops at the split (``min_affordable_q``), so a cheap candidate reads
    only the groups below its q.

    Clones (candidates with the same approvers) have the same q at every
    step, so the smallest-index cheapest candidate is always the smallest
    unelected member, the "head", of its clone class.  The heap holds one
    entry (q, head, class) per class, with q in units of the starting
    budget, kept as an int fraction and compared by cross-multiplying.
    Budgets only shrink, so a minimal affordable q never drops
    and a key computed at an earlier step is a lower bound.  The popped
    head's q is recomputed: if it still equals the key, no other
    candidate can be cheaper, nor as cheap with a smaller index, so it is
    the lexicographic choice; if it grew, the class goes back with its new
    key; if it is no longer affordable, it never will be again and the
    class is dropped.  After a purchase the bought candidate leaves its
    class, and the popped class goes back with its old key, still a lower
    bound.  A tie choice may buy another class's head: that class's entry
    then goes back with its new head when popped, or is dropped if empty.
    """
    n, k = instance.num_voters, instance.committee_size
    den = k
    price = n
    alive = (1 << n) - 1  # the voters with budget left
    groups = {k: alive}  # budget -> the voters holding it
    masks = instance.approver_masks

    def q_of(c: int) -> Rational | None:
        mask = masks[c]
        return min_affordable_q(mask, groups, (mask & alive).bit_count(), price)

    classes = [list(c) for c in instance.clones]  # emptied as heads are bought
    class_of = {c: members for members in classes for c in members}
    heap = []
    for members in classes:
        q = q_of(members[0])
        if q is not None:
            heap.append(_Offer(q.numerator, q.denominator * den, members[0], members))
    heapify(heap)
    elected: list[int] = []
    qs: list[Rational] = []
    snapshots: list[tuple[int, int, dict[int, int], int]] = []
    while len(elected) < k and heap:
        offer = heappop(heap)
        best_c, members = offer.head, offer.members
        if not members:
            continue  # every clone elected through tie choices
        if members[0] != best_c:
            # the head was elected through a tie choice
            offer.head = members[0]
            heappush(heap, offer)
            continue
        best_q = q_of(best_c)
        if best_q is None:
            continue  # unaffordable for good
        num, scale = best_q.numerator, best_q.denominator * den
        if num * offer.den != offer.num * scale:
            offer.num, offer.den = num, scale
            heappush(heap, offer)
            continue
        if tie_choices is not None and len(elected) in tie_choices:
            wanted = tie_choices[len(elected)]
            if wanted != best_c:
                refused = f"step {len(elected)}: candidate {{}} is not in the "
                refused += "minimal-q tie set"
                _indices((wanted,), instance.num_candidates, refused)
                if wanted in elected or q_of(wanted) != best_q:
                    raise ValueError(refused.format(wanted))
                best_c = wanted
        class_of[best_c].remove(best_c)
        if members:
            offer.head = members[0]
            heappush(heap, offer)
        step = best_q.denominator
        den *= step
        price *= step
        q = best_q.numerator
        payers = masks[best_c]
        left: dict[int, int] = {}
        for b, group in groups.items():
            b *= step
            inside = group & payers
            if inside:
                if b > q:
                    left[b - q] = left.get(b - q, 0) | inside
                else:
                    alive ^= inside  # they pay all they have
                group ^= inside
            if group:
                left[b] = left.get(b, 0) | group
        groups = dict(sorted(left.items()))
        elected.append(best_c)
        qs.append(Fraction(q, den))
        snapshots.append((den, 0, groups, n))
    if tie_choices is not None:
        unreached = "tie choice for step {!r}: the budget phase takes no such step"
        _indices(tie_choices, len(elected), unreached)
    return RuleXTrace(
        elected=tuple(elected),
        q_values=tuple(qs),
        snapshots=snapshots,
    )


def rule_x_complete(
    instance: ElectionInstance,
    tie_choices: Mapping[int, int] | None = None,
) -> RuleXTrace:
    """Budget-spending rule completed by Phragmen continuation: if the
    budget phase stops short of k, keep going with the money-earning rule,
    seeded with the leftover budgets (voters continue to earn at unit
    speed; already elected candidates are excluded).  It starts from Rule
    X's last budget groups, or from k/k per voter if Rule X bought
    nothing; Rule X's ``den`` starts at k and is only multiplied, so k
    divides it.
    """
    trace = rule_x(instance, tie_choices=tie_choices)
    n, k = instance.num_voters, instance.committee_size
    if len(trace.elected) == k:
        return trace
    last = trace.snapshots[-1] if trace.snapshots else (k, 0, {k: (1 << n) - 1}, n)
    continuation, snapshots = _phragmen_run(
        instance,
        den=last[0],
        start=last[2],
        excluded=frozenset(trace.elected),
    )
    return RuleXTrace(
        elected=trace.elected + continuation.elected,
        q_values=trace.q_values,
        snapshots=trace.snapshots + snapshots,
    )


def dhondt(party_sizes: Sequence[int], num_seats: int) -> tuple[int, ...]:
    """Highest-averages apportionment: repeatedly give a seat to the party
    maximizing votes/(seats+1), breaking ties by party index."""
    if num_seats < 0:
        raise ValueError("number of seats must be nonnegative")
    if not party_sizes or any(s < 0 for s in party_sizes):
        raise ValueError("party sizes must be nonnegative, at least one party")
    seats = [0] * len(party_sizes)
    for _ in range(num_seats):
        best = max(
            range(len(party_sizes)),
            key=lambda z: (Fraction(party_sizes[z], seats[z] + 1), -z),
        )
        seats[best] += 1
    return tuple(seats)
