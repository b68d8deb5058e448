"""The per-test time limit of ``tests/conftest.py`` turns an endless loop
into a prompt failure, in a plain test and inside a Hypothesis test,
and leaves the timer it found as it was."""

from __future__ import annotations

import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import TEST_TIME_LIMIT, TimeLimitExceeded, time_limit

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="no interval timers on this platform"
)


def test_every_test_runs_under_the_limit():
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= TEST_TIME_LIMIT


def test_an_endless_loop_fails_and_the_outer_timer_is_restored():
    outer, _ = signal.getitimer(signal.ITIMER_REAL)
    handler = signal.getsignal(signal.SIGALRM)
    start = time.monotonic()
    with pytest.raises(TimeLimitExceeded, match="limit of 0.5 s"), time_limit(0.5):
        while True:
            pass
    took = time.monotonic() - start
    assert 0.5 <= took < 5
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert outer - took - 1 < left <= outer - took
    assert signal.getsignal(signal.SIGALRM) is handler


def test_an_endless_loop_inside_given_fails_without_a_replay():
    runs = []

    @settings(max_examples=5, deadline=None, database=None)
    @given(st.integers())
    def endless(x):
        runs.append(x)
        while True:
            pass

    start = time.monotonic()
    with pytest.raises(TimeLimitExceeded), time_limit(0.5):
        endless()
    assert time.monotonic() - start < 5
    assert len(runs) == 1
