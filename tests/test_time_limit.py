"""The per-test time limit of ``tests/conftest.py`` turns an endless loop
into a prompt failure, in a plain test and inside a Hypothesis test,
leaves the timer it found as it was, and ends the run at the first test
past it."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

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


def test_the_run_ends_at_the_first_test_past_its_limit(tmp_path):
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "conftest.py").write_text(
        "import tests.conftest\n"
        "from tests.conftest import hang_guard, pytest_runtest_makereport\n"
        "tests.conftest.TEST_TIME_LIMIT = 0.5\n"
    )
    (tmp_path / "test_endless.py").write_text(
        "from pathlib import Path\n"
        "def endless(name):\n"
        "    with open(Path(__file__).parent / 'started.txt', 'a') as started:\n"
        "        started.write(name + '\\n')\n"
        "    while True:\n"
        "        pass\n"
        "def test_first():\n"
        "    endless('first')\n"
        "def test_second():\n"
        "    endless('second')\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(root), str(root / "src")])),
        capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout and "passed" not in done.stdout
    assert (tmp_path / "started.txt").read_text() == "first\n"
