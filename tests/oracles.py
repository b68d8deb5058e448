"""Reference implementations of the rules, for differential tests.

These are the plain ``Fraction`` versions of the rules in
``abcvote.rules``: every balance, budget, price and score is a
``Fraction``, and every approver set is rebuilt from the ballots.  They
are slow but short, and the fast integer kernels in ``abcvote.rules``
must reproduce their results exactly (``tests/test_rules_oracle.py``).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence

from abcvote.model import (
    Committee,
    ElectionInstance,
    Rational,
    SearchBudgetExceeded,
)
from abcvote.rules import DEFAULT_PAV_NODE_BUDGET, PhragmenTrace, RuleXTrace


def pav_winners(
    instance: ElectionInstance, node_budget: int = DEFAULT_PAV_NODE_BUDGET
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
    undersized.  ``completed`` is always False here — only
    :func:`rule_x_complete` appends members.

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
        completed=False,
    )


def rule_x_complete(
    instance: ElectionInstance,
    strategy: str = "none",
    tie_choices: Mapping[int, int] | None = None,
) -> RuleXTrace:
    """Budget-spending rule plus an optional committee completion strategy.

    ``strategy``:
      * ``"none"``: identical to ``rule_x``.
      * ``"phragmen_continuation"``: if the budget phase stops short of k,
        keep going with the money-earning rule, seeded with the leftover
        budgets (voters continue to earn at unit speed; already elected
        candidates are excluded).
    """
    if strategy not in ("none", "phragmen_continuation"):
        raise ValueError(f"unknown completion strategy {strategy!r}")
    trace = rule_x(instance, tie_choices=tie_choices)
    if strategy == "none" or len(trace.elected) == instance.committee_size:
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
    snapshots = list(trace.budgets)
    balances = leftovers[:]
    # reconstruct post-purchase budget snapshots for the continuation steps
    prev_time = Fraction(0)
    for step, (c, t) in enumerate(zip(continuation.elected, continuation.election_times)):
        growth = t - prev_time
        balances = [b + growth for b in balances]
        for i, amount in continuation.payments[step].items():
            balances[i] -= amount
        prev_time = t
        snapshots.append(tuple(balances))
    return RuleXTrace(
        elected=elected,
        q_values=trace.q_values,
        budgets=tuple(snapshots),
        completed=len(elected) > len(trace.elected),
    )
