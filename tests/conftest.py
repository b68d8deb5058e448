"""Shared hypothesis strategies for randomized property tests, and a time
limit on every test that ends the run at the first test past it."""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import pytest
from hypothesis import strategies as st

from abcvote import rules
from abcvote.model import DEFAULT_NODE_BUDGET, ElectionInstance, SearchBudgetExceeded

# Pytest rewrites asserts only in test modules and conftest files; the
# oracles' re-checks are plain asserts, which ``python -O`` would strip.
# Registered before any test module imports ``tests.oracles``.
pytest.register_assert_rewrite("tests.oracles")

#: Seconds any one test may run, well above the slowest test (about 30 s
#: on a 2-CPU x86-64 host), so that a fault which loops forever fails its
#: test instead of hanging the suite.
TEST_TIME_LIMIT = 180.0


class TimeLimitExceeded(BaseException):
    """A test ran past its time limit.

    Not an Exception: Hypothesis replays an Exception while it shrinks,
    which would run the endless loop again once the timer is spent, but
    lets any other BaseException through, and pytest reports it as the
    test's failure."""


@contextmanager
def time_limit(seconds: float) -> Iterator[None]:
    """Raise TimeLimitExceeded in the main thread if the block runs longer
    than ``seconds``.  Afterwards the handler that was set before is set
    again, and so is a timer that was running, less the time the block
    took."""

    def expire(signum: int, frame: object) -> None:
        raise TimeLimitExceeded(f"ran longer than its limit of {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    start = time.monotonic()
    delay, interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if delay:
            left = max(delay - (time.monotonic() - start), 1e-6)
            signal.setitimer(signal.ITIMER_REAL, left, interval)


@pytest.fixture(autouse=True)
def hang_guard() -> Iterator[None]:
    """Every test runs under ``time_limit(TEST_TIME_LIMIT)`` where the
    platform has interval timers."""
    if not hasattr(signal, "setitimer"):
        yield
        return
    with time_limit(TEST_TIME_LIMIT):
        yield


def pytest_runtest_makereport(item: pytest.Item, call: pytest.CallInfo) -> None:
    """End the run at the first test past its time limit: a fault that
    hangs one test most likely hangs the next ones too."""
    if call.excinfo is not None and call.excinfo.errisinstance(TimeLimitExceeded):
        item.session.shouldfail = f"{item.nodeid} ran past its time limit"


@st.composite
def instances(draw, max_voters: int = 6, max_candidates: int = 6, max_k: int | None = None):
    """A small random election instance (empty ballots allowed)."""
    m = draw(st.integers(1, max_candidates))
    n = draw(st.integers(1, max_voters))
    k_cap = m if max_k is None else min(m, max_k)
    k = draw(st.integers(1, k_cap))
    ballots = draw(
        st.lists(
            st.frozensets(st.integers(0, m - 1)),
            min_size=n,
            max_size=n,
        )
    )
    return ElectionInstance(num_candidates=m, committee_size=k, approvals=tuple(ballots))


@st.composite
def shared_ballot_instances(draw, max_voters: int = 9, max_candidates: int = 7):
    """An instance whose voters draw their ballots from a pool of at most
    three, so that identical ballots are the rule."""
    m = draw(st.integers(1, max_candidates))
    k = draw(st.integers(1, m))
    pool = draw(st.lists(st.frozensets(st.integers(0, m - 1)), min_size=1, max_size=3))
    ballots = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_voters))
    return ElectionInstance(m, k, tuple(ballots))


@st.composite
def cloned_instances(
    draw, max_voters: int = 6, max_candidates: int = 5, max_copies: int = 5, base=None
):
    """An ``instances()`` draw (or a ``base`` draw) with some candidate
    columns copied: the copies are appended and then every column moves
    to a shuffled index, so a clone class is spread over the indices and
    its smallest member need not be the original.  k is drawn again over
    the larger candidate set, so runs can elect several members of one
    class."""
    if base is None:
        base = instances(max_voters=max_voters, max_candidates=max_candidates)
    base = draw(base)
    sources = draw(
        st.lists(st.sampled_from(base.candidates), min_size=1, max_size=max_copies)
    )
    columns = [*base.candidates, *sources]  # columns[c]: the base column of c
    order = draw(st.permutations(range(len(columns))))  # c moves to order[c]
    ballots = tuple(
        frozenset(order[c] for c, source in enumerate(columns) if source in ballot)
        for ballot in base.approvals
    )
    k = draw(st.integers(1, len(columns)))
    return ElectionInstance(len(columns), k, ballots)


@st.composite
def pooled_voters(draw, min_voters: int, max_voters: int, max_candidates: int):
    """``min_voters`` to ``max_voters`` voters, each casting one of at most
    six ballots, the ballot of each voter drawn on its own, so each
    ballot's voters are spread over the voter indices."""
    m = draw(st.integers(1, max_candidates))
    pool = draw(st.lists(st.frozensets(st.integers(0, m - 1)), min_size=1, max_size=6))
    picks = st.integers(0, len(pool) - 1)
    ballots = draw(st.lists(picks, min_size=min_voters, max_size=max_voters))
    return ElectionInstance(m, draw(st.integers(1, m)), [pool[j] for j in ballots])


def wide_instances(max_candidates: int = 5, max_copies: int = 3):
    """65 to 200 voters, more than one machine word of bits, drawing their
    ballots from a small pool, with planted clones as in
    ``cloned_instances``."""
    return cloned_instances(
        max_copies=max_copies, base=pooled_voters(65, 200, max_candidates)
    )


@st.composite
def distinct_instances(draw, min_voters: int = 150, max_voters: int = 400):
    """``min_voters`` to ``max_voters`` voters with pairwise different
    ballots over 10 to 12 candidates, in random order, and at least m/2
    seats, so that a budget-spending run makes enough purchases to split
    the voters into dozens of budget groups."""
    m = draw(st.integers(10, 12))
    n = draw(st.integers(min_voters, max_voters))
    rng = draw(st.randoms(use_true_random=False))
    ballots = [
        frozenset(c for c in range(m) if bits >> c & 1)
        for bits in rng.sample(range(1 << m), n)
    ]
    return ElectionInstance(m, draw(st.integers(m // 2, m)), ballots)


@st.composite
def block_instances(draw, max_blocks: int = 8, max_length: int = 12):
    """Voters in blocks of consecutive equal ballots: each block's ballot
    is drawn from a pool of at most three, so equal ballots also recur
    after a block of another, and each voter's ballot is a frozenset of
    its own, so equal ballots are never the same object."""
    m = draw(st.integers(1, 6))
    pool = draw(st.lists(st.sets(st.integers(0, m - 1)), min_size=1, max_size=3))
    blocks = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.integers(1, max_length)),
            min_size=1,
            max_size=max_blocks,
        )
    )
    ballots = [frozenset(ballot) for ballot, length in blocks for _ in range(length)]
    return ElectionInstance(m, draw(st.integers(1, m)), ballots)


def affordable_q(budgets, price, supports=None):
    """``rules.min_affordable_q`` for voter i holding ``budgets[i]``, in its
    kernel form: one voter bitmask per distinct budget, in increasing
    budget order.  The candidate's supporters are the voters i with
    ``supports[i]`` (every voter when None); the others sit in the groups
    only, as the voters who hold money but do not approve it."""
    groups: dict = {}
    for i in sorted(range(len(budgets)), key=budgets.__getitem__):
        groups[budgets[i]] = groups.get(budgets[i], 0) | 1 << i
    if supports is None:
        supports = [True] * len(budgets)
    supporters = sum(1 << i for i, chosen in enumerate(supports) if chosen)
    left = sum(map(bool, supports))
    return rules.min_affordable_q(supporters, groups, left, price)


@st.composite
def instances_with_committee(draw, max_voters: int = 6, max_candidates: int = 6):
    """An instance together with a random size-k committee."""
    instance = draw(instances(max_voters=max_voters, max_candidates=max_candidates))
    members = draw(
        st.permutations(range(instance.num_candidates)).map(
            lambda p: frozenset(p[: instance.committee_size])
        )
    )
    return instance, members


def finishes(search: Callable[[int], object], budget: int) -> bool:
    """Whether ``search(budget)`` finishes within ``budget`` nodes."""
    try:
        search(budget)
    except SearchBudgetExceeded:
        return False
    return True


def node_count(search: Callable[[int], object]) -> int:
    """The least budget at which ``search(budget)`` finishes: double the
    budget until it does, then bisect, with ``search`` giving up at
    ``low`` (or ``low`` is -1) and finishing at ``high``."""
    low, high = -1, 0
    while not finishes(search, high):
        assert high < DEFAULT_NODE_BUDGET
        low, high = high, 2 * high + 1
    while high - low > 1:
        mid = (low + high) // 2
        if finishes(search, mid):
            high = mid
        else:
            low = mid
    return high


def assert_counts_nodes(search: Callable[[int], object]) -> int:
    """``search(budget)`` gives up one node short of its node count N and
    at N returns what it returns at the default budget; gives N."""
    nodes = node_count(search)
    if nodes:
        with pytest.raises(SearchBudgetExceeded, match="budget.*too large"):
            search(nodes - 1)
    assert search(nodes) == search(DEFAULT_NODE_BUDGET)
    return nodes
