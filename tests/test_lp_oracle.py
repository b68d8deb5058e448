"""Differential tests: the integer simplex of ``abcvote.lp`` against the
``Fraction`` simplex kept in ``tests/oracles.py``.

Both must report the same status and, at an optimum, the same value and
the same assignment: the same vertex, not just the same optimum, since
both pivot by Bland's rule and the same ratio test.  Inputs are
Hypothesis programs of the shape ``check_priceable`` builds and the
programs it falls back to on the catalogue fixtures, built also where
its full-spend certificate answers first.  ``abcvote.lp`` takes int
rows only, so both solvers are given each drawn row times the lcm of its
denominators: the int rows ``check_priceable`` builds.  Scaling a row
keeps the feasible set, but not the path: scaling an ``=`` row reweights
its artificial in phase 1, so Bland's rule can end at another optimal
vertex.  The two solvers must therefore see the same rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abcvote import axioms, lp
from abcvote.generators import FIXTURE_NAMES, fixture
from abcvote.lp import EQ, LE, LinearProgram, LPOutcome, lp_maximize
from abcvote.rules import phragmen_sequential, rule_x
from tests import oracles
from tests.test_axioms import priceability_program

def integral(values: list) -> list[int]:
    """``values`` times the lcm of their denominators."""
    scale = lcm(*(Fraction(v).denominator for v in values))
    return [int(v * scale) for v in values]


def solve_both(program) -> LPOutcome:
    """The oracle's outcome on ``program`` with its rows scaled to ints,
    after checking that ``abcvote.lp`` returns the same one on the same
    rows.  The objective must be whole already: scaling it would scale
    the value."""
    objective = integral(program.objective)
    reference = oracles.LinearProgram(program.num_variables, objective=objective)
    scaled = LinearProgram(program.num_variables, objective=objective)
    for coeffs, rel, rhs in program.constraints:
        *row, rhs = integral([*coeffs, rhs])
        reference.add_constraint(row, rel, rhs)
        scaled.add_constraint(row, rel, rhs)
    fast, ref = lp_maximize(scaled), oracles.lp_maximize(reference)
    assert (fast.status, fast.value, fast.assignment) == (ref.status, ref.value, ref.assignment)
    return ref


coefficients = st.one_of(
    st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)
)


@st.composite
def programs(draw):
    """A small program of the production shape: LE and EQ rows over
    nonnegative variables, int and Fraction coefficients, negative and
    zero right-hand sides (zero ones make ratio-test ties), and rows
    repeated at another scale (redundant equalities).  Half of them cap
    the sum of the variables, as the spending rows do, so that more of
    them have an optimum.  The objective is int, as the production one is."""
    nv = draw(st.integers(1, 5))
    row = st.lists(coefficients, min_size=nv, max_size=nv)
    objective = draw(st.lists(st.integers(-3, 3), min_size=nv, max_size=nv))
    program = oracles.LinearProgram(nv, objective=objective)
    if draw(st.booleans()):
        program.add_constraint([1] * nv, LE, draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(0, 6))):
        coeffs, rel = draw(row), draw(st.sampled_from((LE, EQ)))
        rhs = draw(st.one_of(st.just(0), coefficients))
        program.add_constraint(coeffs, rel, rhs)
        if draw(st.booleans()):
            scale = draw(st.sampled_from((1, 2, Fraction(1, 3))))
            if rel == EQ and draw(st.booleans()):
                scale = -scale
            program.add_constraint([scale * c for c in coeffs], rel, scale * rhs)
    return program


#: A program on which the two solvers end at different optimal vertices
#: when only ``abcvote.lp`` gets the ``x1 = 1/2`` rows scaled to ints.
SCALED_EQUALITY = oracles.LinearProgram(
    5,
    constraints=[
        ([0, -2, 2, 0, -1], EQ, 0),
        ([0, 0, 0, 0, 0], LE, 0),
        ([0, 0, 0, 0, 0], LE, 0),
        ([0, -1, Fraction(1, 2), 0, 0], LE, 0),
        ([0, 1, 0, 0, 0], EQ, Fraction(1, 2)),
        ([0, 1, 0, 0, 0], EQ, Fraction(1, 2)),
    ],
)


@settings(max_examples=300, deadline=None)
@given(programs())
@example(SCALED_EQUALITY)
def test_programs_match_oracle(program):
    solve_both(program)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_priceability_programs_match_oracle(name, monkeypatch):
    # the program is solved by both even where the full-spend certificate
    # answers and check_priceable never builds it
    inst = fixture(name)
    committees = {phragmen_sequential(inst).committee, rule_x(inst).committee}
    for committee in sorted(committees, key=sorted):
        solve_both(priceability_program(inst, committee))
        expected = axioms.check_priceable(inst, committee)
        with monkeypatch.context() as patch:
            patch.setattr(axioms, "lp_maximize", solve_both)
            # payments included: the systems come from the same vertex
            assert axioms.check_priceable(inst, committee) == expected


def test_expel_artificials_pivots_on_a_negative_entry(monkeypatch):
    # max x0 + x1  s.t.  x0 <= 2,  -x1 = 0,  x1 = 0.  Phase 1 ends at once
    # with the artificial of -x1 = 0 basic at 0; the only non-artificial
    # nonzero of its row is the -1 of x1, so it leaves on a negative
    # pivot, and the redundant row x1 = 0 is left all zero.
    pivots = []
    pivot = lp._Tableau.pivot

    def spy(tableau, leave, enter):
        pivots.append(tableau.rows[leave][enter])
        pivot(tableau, leave, enter)

    monkeypatch.setattr(lp._Tableau, "pivot", spy)
    program = LinearProgram(2, objective=[1, 1])
    program.add_constraint([1, 0], LE, 2)
    program.add_constraint([0, -1], EQ, 0)
    program.add_constraint([0, 1], EQ, 0)
    out = solve_both(program)
    assert pivots[0] < 0
    assert (out.value, out.assignment) == (2, (2, 0))
