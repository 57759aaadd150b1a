"""Exact rational linear programming over non-negative variables.

A small two-phase simplex with Bland's rule, entirely in Fractions.
Used for maximal circulation supports, which decide every enumerated
unfolding, and for a positive circulation of one, which
`unfolding.is_structurally_reversible` scales once to its integer
circulation Z, both posed as f >= 1 feasibility problems, and for the
coefficient bounds of bottom lattice-box queries.  The rows are mostly
zeros, and nearly all the time goes to Fraction arithmetic, so a pivot
updates only the pivot row's nonzero columns, and only in rows with a
nonzero factor, and the objective set-up prices out each basic row with
a nonzero cost on that row's nonzero columns only: on the others it
would subtract 0, so a zero stays an exact zero, and every other entry
gets the value a full row operation gives it.

`solve_standard(A, b)` runs phase 1 once and returns the tableau at a
feasible vertex of A x = b, x >= 0, or, when there is none, the phase-1
tableau flagged `infeasible`, whose reduced costs certify it.
`solution()` reads a feasible vertex.  `minimize(cost)` runs phase 2
from the current vertex and leaves the tableau at an optimal one, which
is feasible again, so one phase 1 serves every objective over the same
rows; a caller negates a cost to maximise.  Bland's rule terminates from
any feasible basis.

Circulations ask one LP question, f >= 1 on the live columns of
A f = 0, and one loop, `_support`, asks it.  Each round first runs one
exact presolve step, forcing rows (Andersen & Andersen, *Presolving in
linear programming*, Math. Programming 71, 1995): a row of A f = 0 whose
nonzero entries on the live columns share one sign forces those columns
to 0 for every f >= 0.  Each forced column can leave another row
one-signed, so the step repeats until no row forces more.  If every
presolved row then sums to 0 over the live columns, the system is
balanced: f = 1 on them is a solution, with no LP.  Otherwise the round
asks the question, and when the answer is no, the certificate names
columns that every f >= 0 keeps at 0 (a Farkas cut); the next round runs
on fewer columns.  The forcing-row step is the same cut with a unit row
multiplier, found with no LP.  `max_positive_support` returns the
columns the loop ends with, and `positive_circulation` a circulation
when they are every column.

The support is a pure function of the rows: a caller that asks the same
question many times keeps its own answers.  The enumerator's caller keeps
one per edge shape for a whole compile pass (see
`unfolding.enumerate_unfoldings`), so no shape is asked twice in a pass.
A mutual compile of mixed3 at state bound 5 asks 20 support questions
and a bottom one 7, all balanced, so no LP; a mutual one of ring3 at
state bound 4 asks 116: 26 are balanced, and the other 90 take one LP
each, all feasible, so no Farkas cut runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = list[Fraction]


class _Tableau:
    """Dense simplex tableau for min c.x s.t. A x = b, x >= 0.

    Each row is [A_r | b_r]: the coefficients of the variables, then the
    right-hand side, which at a vertex is the value of the row's basic
    variable.  `minimize` carries its objective as one more row of the same
    layout, [reduced costs | -value], so a pivot is one row operation
    applied alike to every row with a nonzero factor, the objective too.
    It touches only the pivot row's nonzero columns, and pricing out the
    basis touches only each basic row's: on the others they would
    subtract 0, so every entry there stays as it is, zeros exact.
    """

    def __init__(self, rows: list[Row], nvars: int, basis: list[int]):
        self.rows = rows
        self.nvars = nvars
        self.basis = basis
        self.infeasible = False
        self.objective: Row = []

    def _pivot(self, row: int, col: int, objective: Row | None = None):
        """Make `col` basic in `row`, eliminating it from every other row
        and from `objective`; each row is updated in place, on the pivot
        row's nonzero columns only."""
        pivot = self.rows[row]
        inv = Fraction(1) / pivot[col]
        nonzero = [(j, x * inv) for j, x in enumerate(pivot) if x]
        for j, y in nonzero:
            pivot[j] = y
        for other in self.rows if objective is None else (*self.rows, objective):
            factor = other[col]
            if factor != 0 and other is not pivot:
                for j, y in nonzero:
                    other[j] -= factor * y
        self.basis[row] = col

    def minimize(self, cost: Sequence) -> Fraction:
        """Run simplex with Bland's rule from the current basis; the cost
        must be bounded below on the feasible region.  The final objective
        row, every reduced cost >= 0, stays on the tableau as `objective`.

        The set-up prices out the basis in a fresh row, so `cost` is left
        as given: each basic row with a nonzero cost factor is subtracted
        in place on its nonzero columns only, which gives every entry the
        value a subtraction over every column gives it."""
        objective = [*cost, Fraction(0)]
        for row, col in zip(self.rows, self.basis):
            factor = objective[col]
            if factor != 0:
                for j, y in enumerate(row):
                    if y:
                        objective[j] -= factor * y
        ncols = len(cost)
        while True:
            enter = next((j for j in range(ncols) if objective[j] < 0), None)
            if enter is None:
                self.objective = objective
                return -objective[-1]
            leave, best = None, None
            for r, row in enumerate(self.rows):
                coef = row[enter]
                if coef > 0:
                    ratio = row[-1] / coef
                    if best is None or ratio < best or (
                        ratio == best and self.basis[r] < self.basis[leave]
                    ):
                        best, leave = ratio, r
            assert leave is not None, "objective unbounded"
            self._pivot(leave, enter, objective)

    def solution(self) -> list[Fraction]:
        """The current vertex."""
        x = [Fraction(0)] * self.nvars
        for row, col in zip(self.rows, self.basis):
            x[col] = row[-1]
        return x


def solve_standard(a_rows: Sequence[Sequence], b_vals: Sequence) -> _Tableau:
    """Phase 1 of the simplex for A x = b, x >= 0, exactly; A has a row.

    Returns the tableau at a feasible vertex.  Rows whose artificial
    variable cannot leave the basis are redundant and are dropped, and the
    artificial columns are sliced off, so the tableau has one column per
    variable and `minimize` takes a cost over them.  When there is no such
    x, it returns the phase-1 tableau as it ended, artificial columns
    included, with `infeasible` set.  Its `objective` row holds the final
    reduced costs, and on the real columns they are r_j = y.A_j >= 0 for
    some y with y.b < 0, the negated phase-1 value: Farkas' certificate
    that no x >= 0 solves A x = b.
    """
    nvars, nrows = len(a_rows[0]), len(a_rows)
    # Phase 1: one artificial variable per row, each row signed so b >= 0.
    rows = []
    for r, (row, v) in enumerate(zip(a_rows, b_vals, strict=True)):
        if len(row) != nvars:
            raise ValueError("ragged constraint matrix")
        sign = -1 if v < 0 else 1
        rows.append([Fraction(sign * x) for x in row]
                    + [Fraction(1 if j == r else 0) for j in range(nrows)]
                    + [Fraction(sign * v)])
    tab = _Tableau(rows, nvars, [nvars + r for r in range(nrows)])
    if tab.minimize([Fraction(0)] * nvars + [Fraction(1)] * nrows) != 0:
        tab.infeasible = True
        return tab

    # Drive artificials out of the basis where possible; a row whose
    # artificial cannot leave is zero on every real column, so redundant.
    kept = []
    for r in range(nrows):
        if tab.basis[r] >= nvars:
            col = next((j for j in range(nvars) if tab.rows[r][j] != 0), None)
            if col is None:
                continue
            tab._pivot(r, col)
        kept.append(r)
    tab.rows = [tab.rows[r][:nvars] + tab.rows[r][-1:] for r in kept]
    tab.basis = [tab.basis[r] for r in kept]
    return tab


def _unforced_columns(eq_rows: Sequence[Sequence], columns: Sequence[int]) -> list[int]:
    """The `columns` no chain of one-signed rows forces to 0, in order."""
    alive = list(columns)
    while True:
        forced: set[int] = set()
        for row in eq_rows:
            if len({row[j] > 0 for j in alive if row[j]}) == 1:
                forced.update(j for j in alive if row[j])
        if not forced:
            return alive
        alive = [j for j in alive if j not in forced]


def _support(eq_rows: Sequence[Sequence], nvars: int) -> tuple[list[int], _Tableau | None]:
    """The maximal support of A f = 0, f >= 0, and the feasible tableau of
    its last round, or None when that round was balanced.

    Each round drops the forced columns; when the rest is not balanced it
    runs phase 1 of A' g = -A' 1 over g = f - 1 >= 0, A' the live
    columns.  A feasible tableau ends the loop: its vertex plus 1 is an
    f >= 1 there.  An infeasible one cuts columns.  With each row signed
    so that b' = -A' 1 >= 0, phase 1 ends with reduced costs
    r_j = y.A'_j >= 0 on the real columns, y the negated dual, and value
    -y.b' = sum_j r_j > 0.  Every f >= 0 with A' f = 0 has
    sum_j r_j f_j = y.A' f = 0, so f_j = 0 wherever r_j > 0, and as
    they sum to more than 0, at least one column goes.
    """
    columns = range(nvars)
    while True:
        columns = _unforced_columns(eq_rows, columns)
        rows = [[row[j] for j in columns] for row in eq_rows]
        if all(sum(row) == 0 for row in rows):  # f = 1 on the live columns
            return columns, None
        tab = solve_standard(rows, [-sum(row) for row in rows])
        if not tab.infeasible:
            return columns, tab
        columns = [j for j, r in zip(columns, tab.objective) if r == 0]


def positive_circulation(
    eq_rows: Sequence[Sequence],
    nvars: int,
) -> list[Fraction] | None:
    """Find f with A f = 0 and f >= 1 componentwise, or report None.

    Strict positivity f > 0 is equivalent to f >= 1 here because the
    systems are homogeneous, so any positive solution scales up.  The
    answer is None unless `_support` keeps every column, and then its
    loop ran one round.  A balanced system gives f = 1, the vertex the LP
    would return: its right-hand side -A 1 is 0, so every pivot is
    degenerate and g = 0.  Otherwise f is the LP's vertex plus 1.  It
    serves only `is_structurally_reversible`, which scales f once to the
    integer circulation Z and keeps Z on the unfolding.
    """
    columns, tab = _support(eq_rows, nvars)
    if len(columns) < nvars:
        return None
    return [Fraction(1)] * nvars if tab is None else [x + 1 for x in tab.solution()]


def max_positive_support(eq_rows: Sequence[Sequence], nvars: int) -> list[int]:
    """Indices j for which some solution of A f = 0, f >= 0 has f(j) > 0:
    the columns `_support` ends with.  No vertex is read."""
    return _support(eq_rows, nvars)[0]
