"""Tests for the exact simplex solver."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcvote.lp import (
    EQ,
    INFEASIBLE,
    LE,
    OPTIMAL,
    LinearProgram,
    lp_feasible,
    lp_maximize,
)
from abcvote.model import InternalInvariantError


def status(lp: LinearProgram) -> str:
    """The status of ``lp_maximize(lp)``, or "unbounded" where it raises
    InternalInvariantError for want of a row to leave."""
    try:
        return lp_maximize(lp).status
    except InternalInvariantError as exc:
        assert str(exc) == "the linear program is unbounded"
        return "unbounded"


def test_infeasible_pair_of_constraints():
    lp = LinearProgram(1, [0])
    lp.add_constraint([1], LE, 1)
    lp.add_constraint([-1], LE, -2)  # x >= 2
    assert lp_maximize(lp).status == INFEASIBLE
    assert lp_feasible(lp).status == INFEASIBLE


def test_unbounded():
    # maximize x0 where no row binds x0: no caller builds such a program,
    # so the solver raises rather than report an outcome nobody reads
    lp = LinearProgram(2, objective=[1, 0])
    lp.add_constraint([0, 1], LE, 1)
    with pytest.raises(InternalInvariantError, match="^the linear program is unbounded$"):
        lp_maximize(lp)
    assert lp_feasible(lp).status == OPTIMAL


def test_exact_rational_answer():
    # max x + y  s.t.  3x + y <= 1,  x + 4y <= 1  ->  x=3/11, y=2/11
    lp = LinearProgram(2, objective=[1, 1])
    lp.add_constraint([3, 1], LE, 1)
    lp.add_constraint([1, 4], LE, 1)
    out = lp_maximize(lp)
    assert out.value == Fraction(5, 11)
    assert out.assignment == (Fraction(3, 11), Fraction(2, 11))


def test_beale_cycling_example_terminates():
    # A classic degenerate program that cycles under naive pivoting; Bland's
    # rule must terminate with the optimum.  Beale's rows are scaled by 100
    # and 50 and his objective by 100 to make them ints, so the optimum is
    # 100 * 1/20.
    lp = LinearProgram(4, objective=[75, -15000, 2, -600])
    lp.add_constraint([25, -6000, -4, 900], LE, 0)
    lp.add_constraint([25, -4500, -1, 150], LE, 0)
    lp.add_constraint([0, 0, 1, 0], LE, 1)
    out = lp_maximize(lp)
    assert out.status == OPTIMAL
    assert out.value == 5


def test_ratio_test_ties_leave_by_smallest_basic_variable():
    # several vertices are optimal here, and the ratio test ties on the way;
    # Bland's rule lets the tied row whose basic variable has the smallest
    # index leave, which fixes the vertex returned (letting the last tied
    # row leave reaches (13/10, 1/10, 1/10, 3/5) instead)
    lp = LinearProgram(4, objective=[1, -1, 1, 2])
    lp.add_constraint([2, 0, 0, -1], LE, 2)
    lp.add_constraint([1, 2, 1, -1], EQ, 1)
    lp.add_constraint([1, 2, -1, 1], LE, 2)
    lp.add_constraint([-1, 0, 1, 2], LE, 0)
    out = lp_maximize(lp)
    assert out.value == Fraction(5, 2)
    assert out.assignment == (Fraction(5, 4), 0, Fraction(1, 4), Fraction(1, 2))


def test_redundant_equalities():
    lp = LinearProgram(2, objective=[1, 0])
    lp.add_constraint([1, 1], EQ, 1)
    lp.add_constraint([2, 2], EQ, 2)
    out = lp_maximize(lp)
    assert out.status == OPTIMAL
    assert out.value == 1


def _random_lp(rng: random.Random) -> LinearProgram:
    nv = rng.randint(1, 4)
    lp = LinearProgram(nv, objective=[rng.randint(-3, 3) for _ in range(nv)])
    for _ in range(rng.randint(1, 5)):
        coeffs = [rng.randint(-3, 3) for _ in range(nv)]
        rel = rng.choice([LE, ">=", EQ])
        rhs = rng.randint(-4, 4)
        if rel == ">=":  # a.x >= b as -a.x <= -b
            coeffs, rel, rhs = [-c for c in coeffs], LE, -rhs
        lp.add_constraint(coeffs, rel, rhs)
    return lp


@pytest.mark.parametrize("seed", range(120))
def test_against_scipy_reference(seed):
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(seed)
    lp = _random_lp(rng)
    mine = status(lp)

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, rel, rhs in lp.constraints:
        row = [float(c) for c in coeffs]
        if rel == LE:
            a_ub.append(row)
            b_ub.append(float(rhs))
        else:
            a_eq.append(row)
            b_eq.append(float(rhs))
    ref = scipy_opt.linprog(
        c=[-float(c) for c in lp.objective],
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=(0, None),
        method="highs",
    )
    if mine == OPTIMAL:
        assert ref.status == 0
        assert abs(float(lp_maximize(lp).value) + ref.fun) < 1e-7
    elif mine == INFEASIBLE:
        assert ref.status == 2
    else:
        assert ref.status == 3


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**9))
def test_value_invariant_under_permutation(seed):
    # Re-running from a permuted tableau must reach the same optimal value:
    # the reported maximum is a property of the program, not of pivoting.
    rng = random.Random(seed)
    lp = _random_lp(rng)
    first = status(lp)

    perm = list(range(lp.num_variables))
    rng.shuffle(perm)
    permuted = LinearProgram(
        lp.num_variables, [lp.objective[perm[j]] for j in range(lp.num_variables)]
    )
    rows = list(lp.constraints)
    rng.shuffle(rows)
    for coeffs, rel, rhs in rows:
        permuted.add_constraint([coeffs[perm[j]] for j in range(lp.num_variables)], rel, rhs)

    assert status(permuted) == first
    if first == OPTIMAL:
        assert lp_maximize(lp).value == lp_maximize(permuted).value


def test_dimension_mismatch_rejected():
    lp = LinearProgram(2, [0, 0])
    with pytest.raises(ValueError):
        lp.add_constraint([1], LE, 1)
    with pytest.raises(ValueError):
        LinearProgram(2, objective=[1])
    with pytest.raises(ValueError):
        LinearProgram(0, [])


def test_rows_enter_only_through_add_constraint():
    # no constructor argument takes rows, and an empty objective is a
    # wrong-length one, not a zero one
    with pytest.raises(TypeError):
        LinearProgram(2, [1, 1], [])
    with pytest.raises(ValueError, match="objective has wrong length"):
        LinearProgram(2, [])


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 1.0])
def test_non_int_coefficients_rejected(bad):
    # the solver floor-divides its rows, so even a whole Fraction is refused
    lp = LinearProgram(2, [0, 0])
    with pytest.raises(TypeError):
        lp.add_constraint([bad, 1], LE, 1)
    with pytest.raises(TypeError):
        lp.add_constraint([1, 1], EQ, bad)
    with pytest.raises(TypeError):
        LinearProgram(2, objective=[1, bad])
    with pytest.raises(TypeError):
        LinearProgram(2, objective=[bad, 0])
    assert lp.constraints == [] and lp.objective == [0, 0]


#: Run under ``python -O``: ``_verify`` is fed assignments that break a row
#: of the program as given or the sign constraints, and must raise without
#: relying on ``assert``.
CORRUPTED_ASSIGNMENT_SCRIPT = """
import sys
from fractions import Fraction
from abcvote.lp import EQ, LE, LinearProgram, _verify
from abcvote.model import InternalInvariantError

if __debug__:
    sys.exit("expected python -O")
lp = LinearProgram(2, [0, 0])
lp.add_constraint([2, 2], LE, 3)
lp.add_constraint([1, -1], EQ, 0)
_verify(lp, (Fraction(3, 4), Fraction(3, 4)))
for x in ((Fraction(1), Fraction(1)), (Fraction(3, 4), Fraction(1, 2)), (Fraction(-1), Fraction(-1))):
    try:
        _verify(lp, x)
    except InternalInvariantError as exc:
        print(exc)
"""


def test_verify_raises_under_optimize():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))
    ))
    done = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_ASSIGNMENT_SCRIPT],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.splitlines() == [
        "LP assignment violates a constraint",
        "LP assignment violates a constraint",
        "LP assignment has a negative variable",
    ]
