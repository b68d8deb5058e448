"""Reference implementations of the rules and the exact axiom checkers,
for differential tests.

The rules and the PAV score are the plain ``Fraction`` versions of those
in ``abcvote.rules``: every balance, budget, price and score is a
``Fraction``, summed voter by voter, and every approver set is rebuilt
from the ballots.  The checkers are the per-voter versions of those in
``abcvote.axioms``: one LP payment variable per (voter, elected
candidate), every candidate set and every voter set in the full
lexicographic order, gainers recounted voter by voter, and each price
system re-checked with ``Fraction`` sums per candidate over all voters.
They keep the up-front guards (2^m candidate sets, 2^n voter sets) that
``abcvote.axioms`` replaced by counting the nodes each walk visits, so
the tests compare them with the fast checkers only where they decide.
``blocking_sets`` is the core T-walk of ``abcvote.axioms`` without its
subtree bound.  The LP is the dense two-phase simplex over ``Fraction``s
that the integer simplex of ``abcvote.lp`` replaced.  The input path parses,
range-checks and renders every voter's ballot on its own, where
``abcvote.model`` does so once per distinct ballot.  The harmonic
numbers of the PAV score and the comment and line splitter of the
parser are written out here too, not imported, so a bug in the
package's own helpers shows as a difference.  The laminar
recognizer builds the recursive derivation tree that ``abcvote.laminar``
flattened into seat constraints, and checks and enumerates committees
along it.  ``search_probing_everything`` is the ``search`` handler that
runs the rule and the checker on every generated instance, where
``abcvote.cli`` answers a voter reordering of an enumerated profile from
its twin.  They are slow but short, and the fast paths must reproduce
their results exactly (``tests/test_rules_oracle.py``,
``tests/test_axioms_oracle.py``, ``tests/test_lp_oracle.py``,
``tests/test_model_oracle.py``, ``tests/test_laminar_oracle.py``,
``tests/test_search_oracle.py``).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterator, Mapping, Sequence, Union

from abcvote.axioms import (
    COHESIVE,
    PRICE_EQ,
    PRICEABLE,
    PROPERTY_KINDS,
    Deviation,
    PriceSystem,
    verify_deviation,
)
from abcvote.model import (
    DEFAULT_NODE_BUDGET,
    Committee,
    ElectionInstance,
    ParseError,
    Rational,
    SearchBudgetExceeded,
    restrict_profile,
    welfare_vector,
)


def clone_classes(lists: Sequence[Sequence[int]]) -> list[list[int]]:
    """Indices grouped by equal list: each class in increasing order, the
    classes in order of their smallest member.  Over
    ``BallotClasses.holders`` these are the candidates with the same
    approvers, the clone classes ``ElectionInstance.clones`` builds from
    its approver masks."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for c, members in enumerate(lists):
        classes.setdefault(tuple(members), []).append(c)
    return list(classes.values())


def harmonic(t: int) -> Fraction:
    """1 + 1/2 + ... + 1/t, summed term by term."""
    return sum((Fraction(1, j) for j in range(1, t + 1)), Fraction(0))


def pav_score(instance: ElectionInstance, committee: Committee) -> Rational:
    """Sum over voters of H(number of approved committee members)."""
    members = frozenset(committee)
    return sum(
        (harmonic(len(ballot & members)) for ballot in instance.approvals), Fraction(0)
    )


def pav_winners(
    instance: ElectionInstance, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[Committee]:
    """All committees of size exactly k with maximal PAV score.

    Branch-and-bound over candidates in index order.  The optimistic bound
    adds, for the remaining seats, the largest "solo" marginal gains at the
    current utilities; joint gains can only be smaller (diminishing returns),
    so no optimum is pruned, and ties are never pruned either (only strictly
    dominated branches are cut).  Identical ballots are grouped into weight
    classes, so many voters with few distinct ballots cost nothing extra.

    Raises SearchBudgetExceeded when the search tree outgrows ``node_budget``
    -- the instance is then too large for exact PAV.
    """
    m, k = instance.num_candidates, instance.committee_size
    classes = list(Counter(instance.approvals).items())  # (ballot, weight)
    supporters = [
        [j for j, (ballot, _) in enumerate(classes) if c in ballot]
        for c in instance.candidates
    ]
    utilities = [0] * len(classes)
    best: list[Rational] = [Fraction(-1)]
    winners: list[tuple[int, ...]] = []
    chosen: list[int] = []
    nodes = 0

    def solo_gain(c: int) -> Rational:
        return sum(
            (Fraction(classes[j][1], utilities[j] + 1) for j in supporters[c]),
            Fraction(0),
        )

    def walk(pos: int, score: Rational) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"PAV optimum search exceeded {node_budget} nodes; "
                "the instance is too large for exact optimization"
            )
        seats_left = k - len(chosen)
        if seats_left == 0:
            if score > best[0]:
                best[0] = score
                winners.clear()
            if score == best[0]:
                winners.append(tuple(chosen))
            return
        if m - pos < seats_left:
            return
        if m - pos > seats_left:
            # branch-and-bound cut (never cuts ties: strict comparison)
            gains = sorted((solo_gain(c) for c in range(pos, m)), reverse=True)
            bound = score + sum(gains[:seats_left], Fraction(0))
            if bound < best[0]:
                return
        # include pos
        chosen.append(pos)
        gained = solo_gain(pos)
        for j in supporters[pos]:
            utilities[j] += 1
        walk(pos + 1, score + gained)
        for j in supporters[pos]:
            utilities[j] -= 1
        chosen.pop()
        # skip pos
        walk(pos + 1, score)

    walk(0, Fraction(0))
    return [frozenset(w) for w in sorted(winners)]


def seq_pav(instance: ElectionInstance) -> Committee:
    """Greedy PAV: repeatedly add the candidate with the largest marginal
    contribution to the PAV score (smallest index on ties)."""
    approvers = [instance.approvers(c) for c in instance.candidates]
    utilities = [0] * instance.num_voters
    committee: set[int] = set()
    for _ in range(instance.committee_size):
        best_gain: Rational | None = None
        best_c = None
        for c in instance.candidates:
            if c in committee:
                continue
            gain = sum(
                (Fraction(1, utilities[i] + 1) for i in approvers[c]), Fraction(0)
            )
            if best_gain is None or gain > best_gain:
                best_gain, best_c = gain, c
        assert best_c is not None
        committee.add(best_c)
        for i in approvers[best_c]:
            utilities[i] += 1
    return frozenset(committee)


@dataclass(frozen=True)
class PhragmenTrace:
    """A money-earning run in ``Fraction``s: ``elected`` in election order,
    and the time and the payments (voter -> amount) of each purchase."""

    elected: tuple[int, ...]
    election_times: tuple[Rational, ...]
    payments: tuple[dict[int, Rational], ...]


def phragmen_sequential(instance: ElectionInstance) -> PhragmenTrace:
    """Event-driven simulation of the sequential money-earning rule.

    Voters earn money at unit speed.  The next purchase happens after delay
    ``max(0, (n/k - current group balance) / group size)``, minimized over
    not-yet-elected candidates with at least one approver; ties go to the
    smallest candidate index.  The rule stops after k candidates, or earlier
    if no remaining candidate has any approver (the committee is then
    undersized).
    """
    trace = _phragmen_run(
        instance,
        balances=[Fraction(0)] * instance.num_voters,
        start_time=Fraction(0),
        excluded=frozenset(),
        seats=instance.committee_size,
    )
    return trace


def _phragmen_run(
    instance: ElectionInstance,
    balances: list[Rational],
    start_time: Rational,
    excluded: frozenset[int],
    seats: int,
) -> PhragmenTrace:
    n, k = instance.num_voters, instance.committee_size
    price = Fraction(n, k)
    approvers = {
        c: sorted(instance.approvers(c))
        for c in instance.candidates
        if c not in excluded and instance.approvers(c)
    }
    t = start_time
    elected: list[int] = []
    times: list[Rational] = []
    payments: list[dict[int, Rational]] = []
    while len(elected) < seats and approvers:
        best_delay: Rational | None = None
        best_c = None
        for c in sorted(approvers):
            group = approvers[c]
            missing = price - sum(balances[i] for i in group)
            delay = missing / len(group)
            if delay < 0:
                delay = Fraction(0)
            if best_delay is None or delay < best_delay:
                best_delay, best_c = delay, c
        assert best_c is not None and best_delay is not None
        if best_delay > 0:
            t += best_delay
            for i in range(n):
                balances[i] += best_delay
        step = {i: balances[i] for i in approvers[best_c] if balances[i] > 0}
        for i in approvers[best_c]:
            balances[i] = Fraction(0)
        assert sum(step.values(), Fraction(0)) == price
        elected.append(best_c)
        times.append(t)
        payments.append(step)
        del approvers[best_c]
    return PhragmenTrace(tuple(elected), tuple(times), tuple(payments))


@dataclass(frozen=True)
class RuleXTrace:
    """A budget-spending run in ``Fraction``s: ``elected`` in election
    order, the q-value of each budget-phase purchase, and every voter's
    budget right after each purchase."""

    elected: tuple[int, ...]
    q_values: tuple[Rational, ...]
    budgets: tuple[tuple[Rational, ...], ...]


def min_affordable_q(budgets: Sequence[Rational], price: Rational) -> Rational | None:
    """Smallest q with sum_i min(q, b_i) >= price, or None if unaffordable.

    Sort the budgets; if the j poorest supporters pay their full budget and
    the rest pay q each, then q = (price - poorest total) / (count - j).
    The split is valid when q covers the j-th budget but not the (j+1)-st.
    """
    bs = sorted(Fraction(b) for b in budgets)
    count = len(bs)
    prefix = Fraction(0)
    best: Rational | None = None
    for j in range(count):
        # poorest j pay everything, the remaining count-j split the rest
        q = (price - prefix) / (count - j)
        if q >= 0 and (j == 0 or q >= bs[j - 1]) and q <= bs[j]:
            if best is None or q < best:
                best = q
        prefix += bs[j]
    if prefix == price:
        # everyone pays their entire budget
        q = bs[-1] if bs else None
        if q is not None and (best is None or q < best):
            best = q
    return best


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
    must be within that step's minimal-q tie set, otherwise ValueError.
    """
    n, k = instance.num_voters, instance.committee_size
    price = Fraction(n, k)
    budget = [Fraction(1)] * n
    approvers = {c: sorted(instance.approvers(c)) for c in instance.candidates}
    elected: list[int] = []
    qs: list[Rational] = []
    snapshots: list[tuple[Rational, ...]] = []
    while len(elected) < k:
        best_q: Rational | None = None
        best_c = None
        options: dict[int, Rational] = {}
        for c in instance.candidates:
            if c in elected:
                continue
            q = min_affordable_q([budget[i] for i in approvers[c]], price)
            if q is None:
                continue
            options[c] = q
            if best_q is None or q < best_q:
                best_q, best_c = q, c
        if best_c is None:
            break
        if tie_choices is not None and len(elected) in tie_choices:
            wanted = tie_choices[len(elected)]
            if options.get(wanted) != best_q:
                raise ValueError(
                    f"step {len(elected)}: candidate {wanted} is not in the "
                    f"minimal-q tie set"
                )
            best_c = wanted
        assert best_q is not None
        for i in approvers[best_c]:
            budget[i] -= min(best_q, budget[i])
        elected.append(best_c)
        qs.append(best_q)
        snapshots.append(tuple(budget))
    return RuleXTrace(
        elected=tuple(elected),
        q_values=tuple(qs),
        budgets=tuple(snapshots),
    )


def rule_x_complete(
    instance: ElectionInstance,
    tie_choices: Mapping[int, int] | None = None,
) -> RuleXTrace:
    """Budget-spending rule completed by Phragmen continuation: if the
    budget phase stops short of k, keep going with the money-earning rule,
    seeded with the leftover budgets (voters continue to earn at unit
    speed; already elected candidates are excluded).
    """
    trace = rule_x(instance, tie_choices=tie_choices)
    if len(trace.elected) == instance.committee_size:
        return trace
    leftovers = list(trace.budgets[-1]) if trace.budgets else [Fraction(1)] * instance.num_voters
    continuation = _phragmen_run(
        instance,
        balances=list(leftovers),  # _phragmen_run mutates its balance list
        start_time=Fraction(0),
        excluded=frozenset(trace.elected),
        seats=instance.committee_size - len(trace.elected),
    )
    elected = trace.elected + continuation.elected
    return RuleXTrace(
        elected=elected,
        q_values=trace.q_values,
        budgets=trace.budgets + phragmen_balances(leftovers, continuation),
    )


def phragmen_balances(
    start: Sequence[Rational], trace: PhragmenTrace
) -> tuple[tuple[Rational, ...], ...]:
    """Every voter's balance right after each purchase of a money-earning
    run from the balances ``start`` at time 0, rebuilt from its trace."""
    balances = list(start)
    prev_time = Fraction(0)
    snapshots = []
    for t, step in zip(trace.election_times, trace.payments):
        growth = t - prev_time
        balances = [b + growth for b in balances]
        for i, amount in step.items():
            balances[i] -= amount
        prev_time = t
        snapshots.append(tuple(balances))
    return tuple(snapshots)


# ---------------------------------------------------------------------------
# axiom checkers


def validate_price_system(
    instance: ElectionInstance, committee: Committee, system: PriceSystem
) -> bool:
    """Re-check a price system against the raw definition (no LP):

    1. positive price;
    2. voters pay only for candidates they approve, never negative amounts;
    3. every voter spends at most her one dollar;
    4. elected candidates collect exactly the price, others collect nothing;
    5. for every non-elected candidate, its approvers' combined leftover
       money is at most the price (weak inequality).
    """
    members = frozenset(committee)
    if len(system.payments) != instance.num_voters:
        return False
    if system.price <= 0:
        return False
    for i, purse in enumerate(system.payments):
        if any(amount < 0 for amount in purse.values()):
            return False
        if not set(purse) <= instance.approvals[i]:
            return False
        if sum(purse.values(), Fraction(0)) > 1:
            return False
    for c in instance.candidates:
        collected = sum(
            (purse.get(c, Fraction(0)) for purse in system.payments), Fraction(0)
        )
        if c in members and collected != system.price:
            return False
        if c not in members and collected != 0:
            return False
    leftovers = [
        1 - sum(purse.values(), Fraction(0)) for purse in system.payments
    ]
    for c in instance.candidates:
        if c in members:
            continue
        slack = sum((leftovers[i] for i in instance.approvers(c)), Fraction(0))
        if slack > system.price:
            return False
    return True


def check_priceable(
    instance: ElectionInstance, committee: Committee
) -> PriceSystem | None:
    """A supporting price system for the committee, or None.

    The definition asks for SOME positive price, which a linear program
    cannot state directly; instead the LP maximizes the price, and the
    committee is priceable exactly when the exact optimum is positive.
    Payment variables exist only where they may be positive (approved and
    elected), and the returned witness is re-validated without the LP.
    """
    members = frozenset(committee)
    if not members:
        # Nothing is bought, so any price beyond every candidate's total
        # support works; no LP needed (the maximization is unbounded).
        price = max(
            [Fraction(1)]
            + [Fraction(len(instance.approvers(c))) for c in instance.candidates]
        )
        system = PriceSystem(
            price=price, payments=tuple({} for _ in instance.voters)
        )
        assert validate_price_system(instance, committee, system)
        return system

    slots = [
        (i, c) for i in instance.voters for c in sorted(instance.approvals[i] & members)
    ]
    index = {slot: 1 + pos for pos, slot in enumerate(slots)}
    lp = LinearProgram(num_variables=1 + len(slots))

    def row(entries: dict[int, Rational]) -> list[Rational]:
        coeffs = [Fraction(0)] * lp.num_variables
        for var, coeff in entries.items():
            coeffs[var] = Fraction(coeff)
        return coeffs

    for i in instance.voters:
        spend = {index[(i, c)]: 1 for c in instance.approvals[i] & members}
        if spend:
            lp.add_constraint(row(spend), LE, Fraction(1))
    for c in sorted(members):
        collected = {index[(i, c)]: 1 for i in instance.approvers(c)}
        collected[0] = -1
        lp.add_constraint(row(collected), EQ, Fraction(0))
    for c in instance.candidates:
        if c in members:
            continue
        # leftover money of c's approvers stays at or below the price:
        # |N(c)| - (their total spending) <= p
        entries: dict[int, Rational] = {0: -1}
        for i in instance.approvers(c):
            for spent in instance.approvals[i] & members:
                var = index[(i, spent)]
                entries[var] = entries.get(var, Fraction(0)) - 1
        lp.add_constraint(
            row(entries), LE, -Fraction(len(instance.approvers(c)))
        )
    lp.set_objective(row({0: 1}))
    outcome = lp_maximize(lp)
    if outcome.status != "optimal" or outcome.value <= 0:
        return None
    payments: tuple[dict[int, Rational], ...] = tuple(
        {} for _ in instance.voters
    )
    for (i, c), var in index.items():
        amount = outcome.assignment[var]
        if amount:
            payments[i][c] = amount
    system = PriceSystem(price=outcome.assignment[0], payments=payments)
    assert validate_price_system(instance, committee, system)
    return system


def check_pjr(
    instance: ElectionInstance,
    committee: Committee,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Deviation | None:
    """A group whose shared candidates outnumber its committee coverage.

    A voter set S violates the axiom when, for some level l: the voters
    share at least l candidates, |S| >= l*n/size (size = |W|, or k for an
    empty committee), yet W covers fewer than l candidates approved by
    anyone in S.  Exhaustive over all voter subsets.
    """
    members = frozenset(committee)
    size = len(members) or instance.committee_size
    n = instance.num_voters
    if 1 << n > budget:
        raise SearchBudgetExceeded(
            f"2^{n} voter subsets exceed the search budget of {budget}"
        )
    for group in _subsets_lex(tuple(instance.voters)):
        ballots = [instance.approvals[i] for i in group]
        shared = frozenset.intersection(*ballots)
        if not shared:
            continue
        covered = len(members & frozenset.union(*ballots))
        # any l with covered < l <= min(|shared|, floor(|S|*size/n)) works
        level = max(covered + 1, 1)
        if level > min(len(shared), len(group) * size // n):
            continue
        witness = frozenset(sorted(shared)[:level])
        return Deviation(coalition=frozenset(group), alternative=witness)
    return None


def check_ejr(
    instance: ElectionInstance,
    committee: Committee,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Deviation | None:
    """A deprived cohesive group: all of S approve every candidate of some
    l-set T, |S| >= l*n/k, yet every voter in S has fewer than l approved
    committee members.  Exhaustive over candidate l-subsets."""
    members = frozenset(committee)
    n, k = instance.num_voters, instance.committee_size
    if 1 << instance.num_candidates > budget:
        raise SearchBudgetExceeded(
            f"2^{instance.num_candidates} candidate subsets exceed the "
            f"search budget of {budget}"
        )
    utilities = welfare_vector(instance, members)
    for level in range(1, k + 1):
        for combo in combinations(instance.candidates, level):
            wanted = frozenset(combo)
            group = [
                i
                for i in instance.voters
                if wanted <= instance.approvals[i] and utilities[i] < level
            ]
            if len(group) * k >= level * n:
                return Deviation(coalition=frozenset(group), alternative=wanted)
    return None


def _gainers(
    instance: ElectionInstance,
    utilities: Sequence[int],
    alternative: frozenset[int],
    lam: Rational,
) -> list[int]:
    """Voters strictly better off under the alternative.  At lam=1 the
    plain-core rule applies (any improvement counts); beyond 1 the voter
    must beat max(lam*utility, 1)."""
    out = []
    for i in instance.voters:
        new = len(instance.approvals[i] & alternative)
        if lam == 1:
            if new > utilities[i]:
                out.append(i)
        elif new > max(lam * utilities[i], Fraction(1)):
            out.append(i)
    return out


def find_core_deviation(
    instance: ElectionInstance,
    committee: Committee,
    lam: Rational = Fraction(1),
    budget: int = DEFAULT_NODE_BUDGET,
) -> Deviation | None:
    """The lexicographically-first blocking pair (S, T), or None.

    T runs over candidate sets in sorted-tuple order; S is always the full
    set of gaining voters (enlarging S only helps the size condition, so
    this loses nothing).  A pair blocks when |S|*k >= |T|*n.
    """
    if lam < 1:
        raise ValueError("lambda must be at least 1")
    members = frozenset(committee)
    n, k = instance.num_voters, instance.committee_size
    if 1 << instance.num_candidates > budget:
        raise SearchBudgetExceeded(
            f"2^{instance.num_candidates} candidate subsets exceed the "
            f"search budget of {budget}"
        )
    utilities = welfare_vector(instance, members)
    for combo in _subsets_lex(tuple(instance.candidates)):
        alternative = frozenset(combo)
        group = _gainers(instance, utilities, alternative, lam)
        if len(group) * k >= len(combo) * n:
            deviation = Deviation(
                coalition=frozenset(group),
                alternative=alternative,
            )
            assert verify_deviation(instance, committee, deviation, lam)
            return deviation
    return None


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
    """
    members = frozenset(committee)
    n, k = instance.num_voters, instance.committee_size
    if 1 << instance.num_candidates > budget:
        raise SearchBudgetExceeded(
            f"2^{instance.num_candidates} candidate subsets exceed the "
            f"search budget of {budget}"
        )
    utilities = welfare_vector(instance, members)
    best = Fraction(1)
    for combo in _subsets_lex(tuple(instance.candidates)):
        alternative = frozenset(combo)
        needed = len(combo) * n  # |S|*k must reach this to block
        always, thresholds = 0, []
        for i in instance.voters:
            new = len(instance.approvals[i] & alternative)
            if new < 2:
                continue  # can never beat max(lam*u, 1)
            if utilities[i] == 0:
                always += 1
            else:
                thresholds.append(Fraction(new, utilities[i]))
        if always * k >= needed:
            return None
        for lam in [Fraction(1)] + sorted({t for t in thresholds if t > 1}):
            cleared = always + sum(1 for t in thresholds if t > lam)
            if cleared * k < needed:
                if lam > best:
                    best = lam
                break
    return best


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

    The coalition tried for each T is the full gaining set for
    priceable, and the gaining voters approving all of T for cohesive.
    When a priceable gaining set fails and no witness turns up, the
    answer is undecided: SearchBudgetExceeded.
    For price_eq every sub-coalition of the gaining set is tried, and the
    witness is the union of those that qualify; a gaining set of more
    than ``MAX_ENUMERATED_GAINERS`` voters raises SearchBudgetExceeded.
    """
    if deviation_property not in PROPERTY_KINDS:
        raise ValueError(f"unknown deviation property {deviation_property!r}")
    members = frozenset(committee)
    n, k = instance.num_voters, instance.committee_size
    if 1 << instance.num_candidates > budget:
        raise SearchBudgetExceeded(
            f"2^{instance.num_candidates} candidate subsets exceed the "
            f"search budget of {budget}"
        )
    utilities = welfare_vector(instance, members)
    unpriced = False
    for combo in _subsets_lex(tuple(instance.candidates)):
        alternative = frozenset(combo)
        group = _gainers(instance, utilities, alternative, Fraction(1))
        if deviation_property == COHESIVE:
            group = [i for i in group if alternative <= instance.approvals[i]]
        elif deviation_property == PRICE_EQ:
            group = _equal_payment_union(instance, group, alternative)
        if len(group) * k < len(combo) * n:
            continue
        if deviation_property == PRICEABLE:
            # the restricted profile keeps candidate numbering
            restricted = restrict_profile(instance, group, len(combo))
            if check_priceable(restricted, alternative) is None:
                unpriced = True
                continue
        deviation = Deviation(
            coalition=frozenset(group),
            alternative=alternative,
        )
        assert verify_deviation(instance, committee, deviation, Fraction(1))
        return deviation
    if unpriced:
        raise SearchBudgetExceeded("undecided: a gaining group is not priceable")
    return None


#: The largest gaining group whose sub-coalitions the price_eq oracle
#: enumerates.
MAX_ENUMERATED_GAINERS = 12


def _equal_payment_union(
    instance: ElectionInstance, gainers: list[int], alternative: frozenset[int]
) -> list[int]:
    """The union of the sub-coalitions S of ``gainers`` that can back the
    alternative T in equal payments: |S|*k >= |T|*n, and T is supported
    by equal payments from S at the per-seat price n/k."""
    if len(gainers) > MAX_ENUMERATED_GAINERS:
        raise SearchBudgetExceeded(
            f"2^{len(gainers)} sub-coalitions exceed the oracle's enumeration"
        )
    n, k = instance.num_voters, instance.committee_size
    price = Fraction(n, k)
    union: set[int] = set()
    for size in range(len(gainers) + 1):
        if size * k < len(alternative) * n:
            continue
        for coalition in combinations(gainers, size):
            if _equal_payment_support(instance, coalition, alternative, price):
                union.update(coalition)
    return sorted(union)


def _equal_payment_support(
    instance: ElectionInstance,
    coalition: Sequence[int],
    alternative: frozenset[int],
    price: Rational,
) -> bool:
    """Every candidate of the alternative collects ``price`` in equal
    payments from its approvers within the coalition, and no coalition
    voter spends more than 1.  Checked by a small LP (one payment variable
    per candidate) and re-checked by direct arithmetic: equal payments
    leave no freedom, the LP is feasible iff the forced shares fit."""
    order = sorted(alternative)
    payers = {c: [i for i in coalition if c in instance.approvals[i]] for c in order}
    if any(not payers[c] for c in order):
        return False
    shares = {c: price / len(payers[c]) for c in order}
    direct = all(
        sum(
            (shares[c] for c in order if c in instance.approvals[i]),
            Fraction(0),
        )
        <= 1
        for i in coalition
    )
    lp = LinearProgram(num_variables=len(order))
    column = {c: pos for pos, c in enumerate(order)}
    for c in order:
        coeffs = [Fraction(0)] * len(order)
        coeffs[column[c]] = Fraction(len(payers[c]))
        lp.add_constraint(coeffs, EQ, price)
    for i in coalition:
        coeffs = [Fraction(0)] * len(order)
        for c in order:
            if c in instance.approvals[i]:
                coeffs[column[c]] = Fraction(1)
        lp.add_constraint(coeffs, LE, Fraction(1))
    feasible = lp_feasible(lp).status == "optimal"
    assert feasible == direct
    return feasible


def _subsets_lex(universe: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Non-empty subsets in sorted-tuple lexicographic order."""

    def descend(prefix: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        for pos in range(start, len(universe)):
            extended = prefix + (universe[pos],)
            yield extended
            yield from descend(extended, pos + 1)

    yield from descend((), 0)


def blocking_sets(
    instance: ElectionInstance,
    classes: list[tuple[frozenset[int], list[int]]],
    thresholds: Sequence[int],
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """The walk of ``abcvote.axioms._blocking_sets`` without its subtree
    bound: every T of at most k members is visited, and those whose
    gainers could fill |T| seats are yielded as (T, counts) in
    sorted-tuple lexicographic order (tests/test_axioms_oracle.py).
    ``counts[j]`` is |B_j & T| for ballot class j and is updated in
    place as the walk goes on."""
    n, m, k = instance.num_voters, instance.num_candidates, instance.committee_size
    holders: list[list[int]] = [[] for _ in range(m)]
    for j, (ballot, _) in enumerate(classes):
        for c in ballot:
            holders[c].append(j)
    sizes = [len(voters) for _, voters in classes]
    counts = [0] * len(classes)
    gaining = 0
    chosen: list[int] = []
    nxt = 0
    while True:
        if nxt < m:
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


def check_pareto(
    instance: ElectionInstance,
    committee: Committee,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Committee | None:
    """The first committee of |committee| candidates, in ``combinations``
    order, that no voter likes less and some voter likes more, each voter's
    approved members counted from the ballot."""
    members = frozenset(committee)
    if comb(instance.num_candidates, len(members)) > budget:
        raise SearchBudgetExceeded(
            f"C({instance.num_candidates}, {len(members)}) committees exceed "
            f"the search budget of {budget}"
        )
    for combo in combinations(instance.candidates, len(members)):
        other = frozenset(combo)
        gains = [len(ballot & other) - len(ballot & members) for ballot in instance.approvals]
        if all(gain >= 0 for gain in gains) and any(gain > 0 for gain in gains):
            return other
    return None


# ---------------------------------------------------------------------------
# input path: every voter's ballot parsed, range-checked and rendered on its
# own (tests/test_model_oracle.py)


def check_ballot_range(num_candidates: int, approvals) -> tuple[frozenset, ...]:
    """The ballots as frozensets, each approval checked in voter order to
    be an int (a bool is one) in range, as ``ElectionInstance`` checked
    them one by one."""
    approvals = tuple(frozenset(ballot) for ballot in approvals)
    for voter, ballot in enumerate(approvals):
        for c in ballot:
            if not isinstance(c, int):
                raise ValueError(
                    f"ballot of voter {voter} mentions candidate {c!r}, "
                    "candidate indices must be ints"
                )
            if not 0 <= c < num_candidates:
                raise ValueError(
                    f"ballot of voter {voter} mentions candidate {c}, "
                    f"valid range is 0..{num_candidates - 1}"
                )
    return approvals


def content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, line without trailing whitespace) of every
    line whose first non-blank character is not ``#``.  Lines end at a
    newline, and a final newline ends the last line: it opens no empty
    one."""
    lines = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip()
        if not line.lstrip().startswith("#"):
            lines.append((lineno, line))
    if not text or text.endswith("\n"):
        lines.pop()  # the empty piece after the last newline
    return lines


def parse_instance(text: str) -> ElectionInstance:
    """Parse the instance file format, tokenizing every ballot line."""
    lines = content_lines(text)
    if not lines:
        raise ParseError("line 1: missing header 'm n k'")
    header_no, header = lines[0]
    fields = header.split()
    if len(fields) != 3:
        raise ParseError(f"line {header_no}: header must be 'm n k', got {header!r}")
    try:
        m, n, k = (int(f) for f in fields)
    except ValueError:
        raise ParseError(
            f"line {header_no}: header must hold three integers, got {header!r}"
        ) from None
    if m < 1 or n < 1 or k < 1:
        raise ParseError(f"line {header_no}: m, n and k must be positive")
    if k > m:
        raise ParseError(f"line {header_no}: committee size k={k} exceeds m={m}")

    body = lines[1:]
    if len(body) < n:
        raise ParseError(
            f"line {header_no}: header announces {n} ballots, file has {len(body)}"
        )
    for lineno, line in body[n:]:
        if line.strip():
            raise ParseError(f"line {lineno}: unexpected content after {n} ballots")

    approvals = []
    for lineno, line in body[:n]:
        ballot: set[int] = set()
        prev = 0
        for token in line.split():
            try:
                c = int(token)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: candidate index expected, got {token!r}"
                ) from None
            if not 1 <= c <= m:
                raise ParseError(
                    f"line {lineno}: candidate index {c} out of range 1..{m}"
                )
            if c == prev:
                raise ParseError(f"line {lineno}: duplicate candidate {c}")
            if c < prev:
                raise ParseError(
                    f"line {lineno}: candidate indices must be strictly increasing"
                )
            prev = c
            ballot.add(c - 1)
        approvals.append(frozenset(ballot))

    return ElectionInstance(
        num_candidates=m, committee_size=k, approvals=check_ballot_range(m, approvals)
    )


def serialize_instance(instance: ElectionInstance) -> str:
    """Canonical text form, rendering every voter's ballot."""
    lines = [
        f"{instance.num_candidates} {instance.num_voters} {instance.committee_size}"
    ]
    for ballot in instance.approvals:
        lines.append(" ".join(str(c + 1) for c in sorted(ballot)))
    return "\n".join(lines) + "\n"


def instance_digest(instance: ElectionInstance) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(serialize_instance(instance).encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# exact LP: the dense two-phase simplex over Fractions that abcvote.lp
# replaced, kept as the reference for abcvote.lp (tests/test_lp_oracle.py)
# and solving the checkers' LPs above


#: Constraint relations.
LE, EQ = "<=", "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """maximize ``objective . x`` subject to linear constraints and
    ``x >= 0``.  Variables are indexed ``0 .. num_variables-1``."""

    num_variables: int
    objective: list[Rational] = field(default_factory=list)
    constraints: list[tuple[list[Rational], str, Rational]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_variables < 1:
            raise ValueError("need at least one variable")
        if not self.objective:
            self.objective = [Fraction(0)] * self.num_variables
        if len(self.objective) != self.num_variables:
            raise ValueError("objective has wrong length")
        self.objective = [Fraction(c) for c in self.objective]

    def set_objective(self, coeffs: Sequence[Rational]) -> None:
        if len(coeffs) != self.num_variables:
            raise ValueError("objective has wrong length")
        self.objective = [Fraction(c) for c in coeffs]

    def add_constraint(self, coeffs: Sequence[Rational], rel: str, rhs: Rational) -> None:
        if len(coeffs) != self.num_variables:
            raise ValueError(
                f"constraint has {len(coeffs)} coefficients, expected {self.num_variables}"
            )
        if rel not in (LE, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        self.constraints.append(([Fraction(c) for c in coeffs], rel, Fraction(rhs)))


@dataclass(frozen=True)
class LPOutcome:
    """Result of an exact solve.

    ``value`` and ``assignment`` are present exactly when ``status`` is
    ``"optimal"``.  The assignment has been verified against all constraints
    and ``x >= 0``, and ``value`` is recomputed from it directly, independently
    of the tableau bookkeeping.
    """

    status: str
    value: Rational | None = None
    assignment: tuple[Rational, ...] | None = None


def lp_maximize(lp: LinearProgram) -> LPOutcome:
    """Solve ``lp`` exactly; see LPOutcome for the contract."""
    return _solve(lp, lp.objective)


def lp_feasible(lp: LinearProgram) -> LPOutcome:
    """Feasibility check: solve with a zero objective."""
    return _solve(lp, [Fraction(0)] * lp.num_variables)


# ---------------------------------------------------------------------------
# internals


def _solve(lp: LinearProgram, objective: Sequence[Rational]) -> LPOutcome:
    nv = lp.num_variables
    rows = [list(coeffs) for coeffs, _, _ in lp.constraints]
    rels = [rel for _, rel, _ in lp.constraints]
    rhss = [rhs for _, _, rhs in lp.constraints]

    # Standard form: append slack columns, flip rows to rhs >= 0, add
    # artificials where no slack can serve as the initial basic variable.
    nrows = len(rows)
    slack_col: list[int | None] = [None] * nrows
    ncols = nv
    for i, rel in enumerate(rels):
        if rel == LE:
            slack_col[i] = ncols
            ncols += 1
    art_col: list[int | None] = [None] * nrows
    basis: list[int] = [-1] * nrows
    tab: list[list[Fraction]] = []
    for i in range(nrows):
        row = rows[i] + [Fraction(0)] * (ncols - nv)
        rhs = rhss[i]
        if slack_col[i] is not None:
            row[slack_col[i]] = Fraction(1)
        if rhs < 0:
            row = [-a for a in row]
            rhs = -rhs
        row.append(rhs)
        tab.append(row)
    for i in range(nrows):
        sc = slack_col[i]
        if sc is not None and tab[i][sc] > 0:
            basis[i] = sc
        else:
            art_col[i] = len(tab[i]) - 1  # placeholder, resolved below
    n_art = sum(1 for a in art_col if a is not None)
    total_cols = ncols + n_art
    next_art = ncols
    for i in range(nrows):
        rhs = tab[i].pop()
        tab[i].extend([Fraction(0)] * n_art)
        if art_col[i] is not None:
            art_col[i] = next_art
            tab[i][next_art] = Fraction(1)
            basis[i] = next_art
            next_art += 1
        tab[i].append(rhs)

    # Cost rows share the tableau's column layout (reduced costs; the last
    # entry is minus the current objective value).  Internally we minimize.
    phase2 = [Fraction(0)] * (total_cols + 1)
    for j, c in enumerate(objective):
        phase2[j] = -c  # minimize the negated objective
    artificial = {a for a in art_col if a is not None}
    if artificial:
        phase1 = [Fraction(0)] * (total_cols + 1)
        for a in artificial:
            phase1[a] = Fraction(1)
        for i in range(nrows):
            if basis[i] in artificial:
                _subtract(phase1, tab[i], Fraction(1))
        status = _iterate(tab, basis, phase1, [phase2], total_cols, frozenset())
        assert status == OPTIMAL, "phase 1 cannot be unbounded"
        if -phase1[-1] != 0:
            return LPOutcome(INFEASIBLE)
        _expel_artificials(tab, basis, [phase1, phase2], artificial)
    status = _iterate(tab, basis, phase2, [], total_cols, artificial)
    if status == UNBOUNDED:
        return LPOutcome(UNBOUNDED)

    y = [Fraction(0)] * total_cols
    for i, b in enumerate(basis):
        if b >= 0:
            y[b] = tab[i][-1]
    x = y[:nv]
    value = sum((Fraction(c) * xj for c, xj in zip(objective, x)), Fraction(0))
    _verify(lp, x)
    return LPOutcome(OPTIMAL, value, tuple(x))


def _subtract(row: list[Fraction], other: list[Fraction], factor: Fraction) -> None:
    if not factor:
        return
    for j, a in enumerate(other):
        if a:
            row[j] -= factor * a


def _pivot(
    tab: list[list[Fraction]],
    basis: list[int],
    cost_rows: list[list[Fraction]],
    leave: int,
    enter: int,
) -> None:
    prow = tab[leave]
    pval = prow[enter]
    if pval != 1:
        inv = 1 / pval
        for j, a in enumerate(prow):
            if a:
                prow[j] = a * inv
    for i, row in enumerate(tab):
        if i != leave:
            _subtract(row, prow, row[enter])
    for row in cost_rows:
        _subtract(row, prow, row[enter])
    basis[leave] = enter


def _iterate(
    tab: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    shadow_costs: list[list[Fraction]],
    ncols: int,
    forbidden: frozenset[int],
) -> str:
    """Minimize ``cost`` with Bland's rule; ``shadow_costs`` are co-pivoted."""
    while True:
        enter = None
        for j in range(ncols):
            if j not in forbidden and cost[j] < 0:
                enter = j
                break
        if enter is None:
            return OPTIMAL
        leave = None
        best: Fraction | None = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(tab, basis, [cost] + shadow_costs, leave, enter)


def _expel_artificials(
    tab: list[list[Fraction]],
    basis: list[int],
    cost_rows: list[list[Fraction]],
    artificial: set[int],
) -> None:
    """Pivot zero-valued artificial variables out of the basis.

    After a successful phase 1 any artificial still in the basis sits at
    value 0.  Pivot it out on any non-artificial column; if none exists the
    row is redundant (all-zero) and can stay -- it will never be selected as
    a pivot row because all its entries are zero.
    """
    for i in range(len(tab)):
        if basis[i] in artificial and tab[i][-1] == 0:
            for j in range(len(tab[i]) - 1):
                if j not in artificial and tab[i][j] != 0:
                    _pivot(tab, basis, cost_rows, i, j)
                    break


def _verify(lp: LinearProgram, x: Sequence[Fraction]) -> None:
    """Exact sanity check of a claimed-optimal assignment."""
    assert all(xj >= 0 for xj in x), "assignment violates x >= 0"
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum((Fraction(a) * xj for a, xj in zip(coeffs, x)), Fraction(0))
        ok = lhs <= rhs if rel == LE else lhs == rhs
        assert ok, "assignment violates a constraint"


# ---------------------------------------------------------------------------
# laminar instances: the derivation tree that abcvote.laminar flattened into
# seat constraints, kept as the reference for it
# (tests/test_laminar_oracle.py)


@dataclass(frozen=True)
class Unanimous:
    """Leaf: ``voters`` all approve exactly ``candidates``; any ``seats``
    of those candidates are fine."""

    voters: tuple[int, ...]
    seats: int
    candidates: frozenset[int]


@dataclass(frozen=True)
class CommonCandidate:
    """``candidate`` is approved by every voter here and takes one seat;
    ``child`` covers the profile with the candidate removed."""

    voters: tuple[int, ...]
    seats: int
    candidate: int
    child: "LaminarDecomposition"


@dataclass(frozen=True)
class Split:
    """Two voter groups approving disjoint candidates, with seats split in
    exact proportion to group sizes."""

    voters: tuple[int, ...]
    seats: int
    first: "LaminarDecomposition"
    second: "LaminarDecomposition"


LaminarDecomposition = Union[Unanimous, CommonCandidate, Split]


def check_laminar(instance: ElectionInstance) -> LaminarDecomposition | None:
    """The decomposition tree of a laminar instance, or None."""
    return _decompose(
        instance.approvals,
        tuple(range(instance.num_voters)),
        instance.committee_size,
    )


def _decompose(
    ballots: tuple[frozenset[int], ...], voters: tuple[int, ...], seats: int
) -> LaminarDecomposition | None:
    if all(ballot == ballots[0] for ballot in ballots):
        if len(ballots[0]) >= seats:
            return Unanimous(voters=voters, seats=seats, candidates=ballots[0])
        return None
    common = frozenset.intersection(*ballots)
    if common:
        # connected through the common candidate, so splitting is out;
        # stripping is the only applicable rule
        if seats == 0:
            return None
        candidate = min(common)
        child = _decompose(
            tuple(ballot - {candidate} for ballot in ballots), voters, seats - 1
        )
        if child is None:
            return None
        return CommonCandidate(
            voters=voters, seats=seats, candidate=candidate, child=child
        )
    groups = _components(ballots)
    if len(groups) < 2:
        return None
    total = len(ballots)
    parts: list[LaminarDecomposition] = []
    for group in groups:
        if seats * len(group) % total:
            return None
        part = _decompose(
            tuple(ballots[i] for i in group),
            tuple(voters[i] for i in group),
            seats * len(group) // total,
        )
        if part is None:
            return None
        parts.append(part)
    node = parts[-1]
    for part in reversed(parts[:-1]):
        node = Split(
            voters=tuple(sorted(part.voters + node.voters)),
            seats=part.seats + node.seats,
            first=part,
            second=node,
        )
    return node


def _components(ballots: tuple[frozenset[int], ...]) -> list[list[int]]:
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


def candidate_pool(node: LaminarDecomposition) -> frozenset[int]:
    """All candidates approved anywhere below ``node``."""
    if isinstance(node, Unanimous):
        return node.candidates
    if isinstance(node, CommonCandidate):
        return candidate_pool(node.child) | {node.candidate}
    return candidate_pool(node.first) | candidate_pool(node.second)


def check_laminar_proportional(
    instance: ElectionInstance, committee: Committee
) -> bool:
    """Whether the committee respects the instance's laminar structure:
    exactly the proportional number of seats inside every part.

    Raises ValueError when the instance itself is not laminar.
    """
    tree = check_laminar(instance)
    if tree is None:
        raise ValueError("the instance is not laminar")
    members = frozenset(committee)
    if len(members) != instance.committee_size:
        return False
    return _fits(tree, members)


def _fits(node: LaminarDecomposition, members: frozenset[int]) -> bool:
    if isinstance(node, Unanimous):
        return len(members) == node.seats and members <= node.candidates
    if isinstance(node, CommonCandidate):
        return node.candidate in members and _fits(
            node.child, members - {node.candidate}
        )
    first_pool = candidate_pool(node.first)
    second_pool = candidate_pool(node.second)
    first_part = members & first_pool
    second_part = members & second_pool
    if first_part | second_part != members:
        return False
    return _fits(node.first, first_part) and _fits(node.second, second_part)


def laminar_proportional_committees(
    instance: ElectionInstance, limit: int = 200_000
) -> list[Committee]:
    """All committees accepted by check_laminar_proportional, read off the
    decomposition tree; SearchBudgetExceeded when more than ``limit``."""
    tree = check_laminar(instance)
    if tree is None:
        raise ValueError("the instance is not laminar")
    count = _count(tree)
    if count > limit:
        raise SearchBudgetExceeded(
            f"{count} laminar proportional committees exceed the "
            f"enumeration budget of {limit}"
        )
    committees = _enumerate(tree)
    return sorted(committees, key=sorted)


def _count(node: LaminarDecomposition) -> int:
    if isinstance(node, Unanimous):
        return comb(len(node.candidates), node.seats)
    if isinstance(node, CommonCandidate):
        return _count(node.child)
    return _count(node.first) * _count(node.second)


def _enumerate(node: LaminarDecomposition) -> list[frozenset[int]]:
    if isinstance(node, Unanimous):
        return [
            frozenset(pick)
            for pick in combinations(sorted(node.candidates), node.seats)
        ]
    if isinstance(node, CommonCandidate):
        return [pick | {node.candidate} for pick in _enumerate(node.child)]
    return [
        left | right
        for left in _enumerate(node.first)
        for right in _enumerate(node.second)
    ]


# ---------------------------------------------------------------------------
# search


def search_probing_everything(args) -> int:
    """``abcvote search`` as a handler for ``cli.main`` that runs the rule
    and the checker on every instance it generates, voter reorderings of an
    enumerated profile included, where ``cli.cmd_search`` answers each
    enumerated profile once."""
    import random

    from abcvote import cli

    cli._at_least(args.max_n, 2, "--max-n")
    cli._at_least(args.max_m, 2, "--max-m")
    cli._at_least(args.max_k, 1, "--max-k")
    cli._at_least(args.trials, 0, "--trials")
    if "+" in args.violation:
        axiom, _, rule = args.violation.partition("+")
    else:
        axiom, rule = "ejr", "phragmen"
        if args.violation != "ejr-phragmen":
            raise ParseError(f"search: unknown violation {args.violation!r}")
    if rule not in cli.SEARCH_RULES:
        raise ParseError(f"search: unknown rule {rule!r}")
    if axiom not in cli.SEARCH_AXIOMS:
        raise ParseError(f"search: unknown axiom {axiom!r}")
    run_rule = cli.SEARCH_RULES[rule]
    check = cli.AXIOM_CHECKS[axiom]
    found: list[ElectionInstance] = []
    probes = undecided = 0

    def probe(instance: ElectionInstance) -> None:
        nonlocal probes, undecided
        probes += 1
        try:
            violated, _ = check(instance, run_rule(instance), cli.DEFAULT_OPTIONS)
        except SearchBudgetExceeded:
            undecided += 1
            return
        if violated:
            found.append(instance)

    for instance in cli._exhaustive_small(args.max_n, args.max_m, args.max_k):
        probe(instance)
    if axiom == "ejr" and rule == "phragmen":
        for instance in cli._paired_rotation_family(args.max_n, args.max_m, args.max_k):
            probe(instance)
    rng = random.Random(args.seed)
    for trial in range(args.trials):
        planted = rule == "phragmen" and axiom == "ejr" and trial % 2 == 1
        instance = cli._search_candidates(rng, args.max_n, args.max_m, args.max_k, planted)
        if instance is not None:
            probe(instance)
    if not found:
        if undecided:
            raise SearchBudgetExceeded(
                f"nothing found, but {undecided} of {probes} probes exceeded "
                "the search budget"
            )
        print("none found")
        return 0
    print(serialize_instance(min(found, key=cli._instance_key)), end="")
    return 0
