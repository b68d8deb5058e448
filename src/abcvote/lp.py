"""Exact linear programming over Python ints, for the priceability check.

Solves ``maximize c.x`` subject to rows ``a.x <= b`` or ``a.x = b`` and
``x >= 0``: the only shape ``axioms.check_priceable`` builds.  Every
coefficient, right-hand side and objective entry is an int, as that
caller's are.  A solve ends ``optimal`` or ``infeasible``, the only
outcomes that caller can reach: its spending rows cap every payment at 1,
so its collection rows cap the price at n, and ``lp_feasible`` solves
with a zero objective.  An unbounded program raises InternalInvariantError.

The solver is a dense two-phase simplex with Bland's smallest-index rule in
both phases, which terminates on degenerate programs.  Its tableau is
fraction-free (Edmonds 1967; Bareiss 1968): it holds int numerators only,
each row keeps the positive denominator it was last rewritten at, and
``det`` is |det B| of the current basis.  A pivot brings the pivot row to
``det`` and rewrites every row with a nonzero entry ``f`` in the entering
column as ``(p*a - f*b) // d_row``, exact by Bareiss's identity; ``p``,
the pivot, becomes the row's denominator and the new ``det``.  Rows with a
zero in the entering column are left alone.

The entering rule and the ratio test (cross-multiplied, ties broken by the
smallest basic index) decide by sign and order only, so the solver visits
the bases the same simplex over Fractions visits and returns the same
vertex.  Fractions appear only when that vertex is read out, and it is
re-checked against the original constraints before it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from abcvote.model import InternalInvariantError, Rational, Record

#: Constraint relations.
LE, EQ = "<=", "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


class LinearProgram:
    """maximize ``objective . x`` subject to ``constraints`` and ``x >= 0``.

    Variables are indexed ``0 .. num_variables-1``, and rows enter only
    through ``add_constraint`` as ``(coeffs, relation, rhs)`` with relation
    LE or EQ.  Every value is an int; any other type raises TypeError
    rather than being floor-divided silently.
    """

    num_variables: int
    objective: list[int]
    constraints: list[tuple[list[int], str, int]]

    def __init__(self, num_variables: int, objective: Sequence[int]) -> None:
        if num_variables < 1:
            raise ValueError("need at least one variable")
        if len(objective) != num_variables:
            raise ValueError("objective has wrong length")
        self.num_variables = num_variables
        self.objective = _ints(objective)
        self.constraints = []

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num_variables, self.objective, self.constraints) == (
            other.num_variables, other.objective, other.constraints
        )

    def __repr__(self) -> str:
        return (
            f"LinearProgram(num_variables={self.num_variables!r}, "
            f"objective={self.objective!r}, constraints={self.constraints!r})"
        )

    def add_constraint(self, coeffs: Sequence[int], rel: str, rhs: int) -> None:
        if len(coeffs) != self.num_variables:
            raise ValueError(
                f"constraint has {len(coeffs)} coefficients, expected {self.num_variables}"
            )
        if rel not in (LE, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        *row, rhs = _ints([*coeffs, rhs])
        self.constraints.append((row, rel, rhs))


class LPOutcome(Record):
    """Result of an exact solve.

    ``value`` and ``assignment`` are None exactly when ``status`` is
    ``"infeasible"``.  Otherwise ``status`` is ``"optimal"``, the assignment
    has been verified against all constraints and ``x >= 0``, and ``value``
    is recomputed from it directly, independently of the tableau
    bookkeeping.
    """

    status: str
    value: Rational | None
    assignment: tuple[Rational, ...] | None


def lp_maximize(lp: LinearProgram) -> LPOutcome:
    """Solve ``lp`` exactly; see LPOutcome for the contract."""
    return _solve(lp, lp.objective)


def lp_feasible(lp: LinearProgram) -> LPOutcome:
    """Feasibility check: solve with a zero objective."""
    return _solve(lp, [0] * lp.num_variables)


# ---------------------------------------------------------------------------
# internals


def _ints(values: Sequence[int]) -> list[int]:
    """``values`` as a list, after checking that every one is an int."""
    if not all(isinstance(v, int) for v in values):
        raise TypeError("LP coefficients must be ints")
    return list(values)


def _solve(lp: LinearProgram, objective: Sequence[int]) -> LPOutcome:
    # Standard form: one slack column per LE row, rows flipped to rhs >= 0,
    # and an artificial column for every row whose slack cannot start in
    # the basis (EQ rows and LE rows with a negative rhs).
    nv = lp.num_variables
    nrows = len(lp.constraints)
    needs_art = [rel == EQ or rhs < 0 for _, rel, rhs in lp.constraints]
    ncols = nv + sum(rel == LE for _, rel, _ in lp.constraints)
    total_cols = ncols + sum(needs_art)
    rows: list[list[int]] = []
    basis: list[int] = []
    slack, art = nv, ncols
    for (coeffs, rel, rhs), artificial in zip(lp.constraints, needs_art):
        row = coeffs + [0] * (total_cols - nv) + [rhs]
        if rel == LE:
            row[slack] = 1
        if rhs < 0:
            row = [-a for a in row]
        if artificial:
            row[art] = 1
            basis.append(art)
            art += 1
        else:
            basis.append(slack)
        slack += rel == LE
        rows.append(row)

    # The starting basis is the identity.  Cost rows follow the constraint
    # rows (reduced costs; the last entry is minus the objective value).
    # Internally we minimize.
    rows.append([-c for c in objective] + [0] * (total_cols + 1 - nv))
    dens = [1] * len(rows)
    tab = _Tableau(rows, dens, basis, 1)
    if ncols < total_cols:
        phase1 = [0] * ncols + [1] * (total_cols - ncols) + [0]
        for row, artificial in zip(rows, needs_art):
            if artificial:
                for j, a in enumerate(row):
                    if a:
                        phase1[j] -= a
        rows.append(phase1)
        dens.append(1)
        tab.iterate(nrows + 1, total_cols)
        if rows.pop()[-1] != 0:
            return LPOutcome(INFEASIBLE, None, None)
        dens.pop()
        tab.expel_artificials(ncols)
        for i, row in enumerate(rows):
            rows[i] = row[:ncols] + row[-1:]
    tab.iterate(nrows, ncols)

    x = [Fraction(0)] * nv
    for i, b in enumerate(basis):
        if b < nv:
            x[b] = Fraction(rows[i][-1], dens[i])
    _verify(lp, x)
    value = sum((c * xj for c, xj in zip(objective, x) if c and xj), Fraction(0))
    return LPOutcome(OPTIMAL, value, tuple(x))


class _Tableau:
    """Int rows ``rows[i]`` standing for ``rows[i] / dens[i]``.

    ``rows[:len(basis)]`` are the constraint rows (the last entry is the
    rhs) and the rows after them are cost rows; ``det`` is |det B|.
    """

    def __init__(self, rows: list[list[int]], dens: list[int], basis: list[int],
                 det: int) -> None:
        self.rows, self.dens, self.basis, self.det = rows, dens, basis, det

    def pivot(self, leave: int, enter: int) -> None:
        rows, dens = self.rows, self.dens
        prow, det = rows[leave], self.det
        if dens[leave] != det:
            d = dens[leave]
            prow = [a * det // d for a in prow]
        p = prow[enter]
        if p < 0:
            prow = [-a for a in prow]
            p = -p
        nonzero = [(j, b) for j, b in enumerate(prow) if b]
        for i, row in enumerate(rows):
            f = row[enter]
            if f and i != leave:
                d = dens[i]
                if d != p:
                    # off the pivot row's support the rewrite is p*a // d
                    rows[i] = [p * a // d if a else 0 for a in row]
                    dens[i] = p
                new = rows[i]
                for j, b in nonzero:
                    new[j] = (p * row[j] - f * b) // d
        rows[leave], dens[leave] = prow, p
        self.basis[leave] = enter
        self.det = p

    def iterate(self, cost_row: int, ncols: int) -> None:
        """Minimize cost row ``cost_row`` over columns ``0 .. ncols-1`` with
        Bland's rule; every other row is co-pivoted.  An entering column
        with no row to leave raises InternalInvariantError: the program is
        unbounded, which phase 1 and the caller's programs never are."""
        rows, basis = self.rows, self.basis
        while True:
            cost = rows[cost_row]
            enter = next((j for j in range(ncols) if cost[j] < 0), None)
            if enter is None:
                return
            leave = None
            for i in range(len(basis)):
                row = rows[i]
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave, num, den = i, row[-1], a
                        continue
                    # rhs/a against num/den; the row denominators cancel
                    lhs, rhs = row[-1] * den, num * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, num, den = i, row[-1], a
            if leave is None:
                raise InternalInvariantError("the linear program is unbounded")
            self.pivot(leave, enter)

    def expel_artificials(self, ncols: int) -> None:
        """Pivot zero-valued artificial variables (columns from ``ncols``
        on) out of the basis.

        After a successful phase 1 any artificial still in the basis sits at
        value 0.  Pivot it out on its first nonzero non-artificial column,
        which may be negative; if none exists the row is redundant (all
        zero) and can stay -- it is never selected as a pivot row.
        """
        rows = self.rows
        for i in range(len(self.basis)):
            row = rows[i]
            if self.basis[i] >= ncols and row[-1] == 0:
                enter = next((j for j in range(ncols) if row[j]), None)
                if enter is not None:
                    self.pivot(i, enter)


def _verify(lp: LinearProgram, x: Sequence[Fraction]) -> None:
    """Re-check a claimed-optimal assignment against the constraints as
    given, in exact arithmetic, raising InternalInvariantError."""
    scale = lcm(*(xj.denominator for xj in x))
    support = [(j, xj.numerator * (scale // xj.denominator)) for j, xj in enumerate(x) if xj]
    if any(v < 0 for _, v in support):
        raise InternalInvariantError("LP assignment has a negative variable")
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum(coeffs[j] * v for j, v in support)
        if not (lhs <= rhs * scale if rel == LE else lhs == rhs * scale):
            raise InternalInvariantError("LP assignment violates a constraint")
