"""Time a fixed piece of pure-Python work in a fresh process.

Usage: calibrate.py

Prints the clock reading once the work is done; the benchmark takes
this process's time from its own clock reading at spawn.  Like an
abcvote command it starts an interpreter, imports the standard-library
modules abcvote imports, and computes with what abcvote spends its time
in (Fraction arithmetic, frozenset intersections, list and dict
building), but it runs none of abcvote's code.  Its time therefore
changes only with the speed of the host, which the benchmark factors
out of its timings.
"""

import time


def work() -> None:
    import argparse  # noqa: F401  (imported for their cost, like abcvote's)
    import dataclasses  # noqa: F401
    import hashlib  # noqa: F401
    import json  # noqa: F401
    import random  # noqa: F401
    import typing  # noqa: F401
    from fractions import Fraction

    ballots = [
        frozenset(c for c in range(24) if (v * 7 + c * 13) % 10 < 4) for v in range(600)
    ]
    total = Fraction(0)
    counts: dict[int, int] = {}
    for step in range(3):
        for c in range(24):
            supporters = [b for b in ballots if c in b]
            share = Fraction(len(supporters), step + c + 1)
            for b in supporters[:25]:
                total += share / (len(b & ballots[step]) + 1)
                counts[len(b)] = counts.get(len(b), 0) + 1
    if total <= 0:
        raise AssertionError("calibration work lost its result")


if __name__ == "__main__":
    work()
    print(repr(time.perf_counter()))
