"""Exact rational linear programming over non-negative variables.

A small two-phase simplex with Bland's rule, entirely in Fractions.
Used for structural-reversibility flow systems and for maximal
circulation supports, both posed as f >= 1 feasibility problems;
problems here stay tiny, so clarity wins over sparsity tricks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = list[Fraction]

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _to_fraction_rows(rows: Sequence[Sequence]) -> list[Row]:
    return [[Fraction(c) for c in row] for row in rows]


class _Tableau:
    """Dense simplex tableau for min c.x s.t. A x = b, x >= 0."""

    def __init__(self, a: list[Row], b: list[Fraction], nvars: int):
        self.a = a
        self.b = b
        self.nvars = nvars
        self.basis: list[int] = [-1] * len(a)

    def _pivot(self, row: int, col: int, cost: Row, cost_const: list[Fraction]):
        piv = self.a[row][col]
        inv = Fraction(1) / piv
        self.a[row] = [x * inv for x in self.a[row]]
        self.b[row] *= inv
        for r in range(len(self.a)):
            if r != row and self.a[r][col] != 0:
                factor = self.a[r][col]
                self.a[r] = [x - factor * y for x, y in zip(self.a[r], self.a[row])]
                self.b[r] -= factor * self.b[row]
        if cost[col] != 0:
            factor = cost[col]
            for j in range(len(cost)):
                cost[j] -= factor * self.a[row][j]
            cost_const[0] -= factor * self.b[row]
        self.basis[row] = col

    def minimize(self, cost: Row) -> tuple[str, Fraction]:
        """Run simplex with Bland's rule from the current basis."""
        reduced = list(cost)
        const = [Fraction(0)]
        for r, col in enumerate(self.basis):
            if reduced[col] != 0:
                factor = reduced[col]
                for j in range(len(reduced)):
                    reduced[j] -= factor * self.a[r][j]
                const[0] -= factor * self.b[r]
        while True:
            enter = next((j for j in range(len(reduced)) if reduced[j] < 0), None)
            if enter is None:
                return FEASIBLE, -const[0]
            leave, best = None, None
            for r in range(len(self.a)):
                coef = self.a[r][enter]
                if coef > 0:
                    ratio = self.b[r] / coef
                    if best is None or ratio < best or (
                        ratio == best and self.basis[r] < self.basis[leave]
                    ):
                        best, leave = ratio, r
            if leave is None:
                return UNBOUNDED, -const[0]
            self._pivot(leave, enter, reduced, const)

    def solution(self) -> list[Fraction]:
        x = [Fraction(0)] * self.nvars
        for r, col in enumerate(self.basis):
            if col < self.nvars:
                x[col] = self.b[r]
        return x


def solve_standard(
    a_rows: Sequence[Sequence],
    b_vals: Sequence,
    objective: Sequence | None = None,
    maximize: bool = False,
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Solve min/max c.x subject to A x = b, x >= 0, exactly.

    Returns (status, x, objective value); x is a basic solution (a vertex
    of the feasible region) whenever status is `feasible`.
    """
    a = _to_fraction_rows(a_rows)
    b = [Fraction(v) for v in b_vals]
    nvars = len(a[0]) if a else (len(objective) if objective else 0)
    for row in a:
        if len(row) != nvars:
            raise ValueError("ragged constraint matrix")
    for r in range(len(a)):
        if b[r] < 0:
            a[r] = [-x for x in a[r]]
            b[r] = -b[r]

    # Phase 1: artificial variable per row.
    nrows = len(a)
    tab = _Tableau(
        [row + [Fraction(1 if j == r else 0) for j in range(nrows)] for r, row in enumerate(a)],
        list(b),
        nvars,
    )
    tab.basis = [nvars + r for r in range(nrows)]
    phase1 = [Fraction(0)] * nvars + [Fraction(1)] * nrows
    status, value = tab.minimize(phase1)
    assert status == FEASIBLE
    if value != 0:
        return INFEASIBLE, None, None

    # Drive artificials out of the basis where possible; rows whose
    # artificial cannot leave are redundant and can pivot on nothing.
    for r in range(nrows):
        if tab.basis[r] >= nvars:
            col = next((j for j in range(nvars) if tab.a[r][j] != 0), None)
            if col is not None:
                tab._pivot(r, col, [Fraction(0)] * (nvars + nrows), [Fraction(0)])
    for r in range(nrows):
        for j in range(nvars, nvars + nrows):
            tab.a[r][j] = Fraction(0)

    if objective is None:
        return FEASIBLE, tab.solution(), Fraction(0)

    cost = [Fraction(c) for c in objective]
    if maximize:
        cost = [-c for c in cost]
    cost += [Fraction(0)] * nrows
    status, value = tab.minimize(cost)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    obj = -value if maximize else value
    return FEASIBLE, tab.solution(), obj


def _circulation(
    eq_rows: Sequence[Sequence],
    nvars: int,
    required: Sequence[int],
) -> list[Fraction] | None:
    """Find f with A f = 0, f >= 0 and f(j) >= 1 for j in `required`, or None."""
    if nvars == 0:
        return []
    # Substitute f = g + 1_required with g >= 0:  A g = -A 1_required.
    rows = _to_fraction_rows(eq_rows)
    b = [-sum(row[j] for j in required) for row in rows]
    if not rows:  # every g >= 0 solves it, and solve_standard cannot size g
        g = [Fraction(0)] * nvars
    else:
        status, g, _ = solve_standard(rows, b)
        if status != FEASIBLE:
            return None
        assert g is not None
    f = g[:nvars]
    for j in required:
        f[j] += 1
    return f


def positive_circulation(
    eq_rows: Sequence[Sequence],
    nvars: int,
) -> list[Fraction] | None:
    """Find f with A f = 0 and f >= 1 componentwise, or report None.

    Strict positivity f > 0 is equivalent to f >= 1 here because the
    systems are homogeneous, so any positive solution scales up.
    """
    return _circulation(eq_rows, nvars, range(nvars))


def max_positive_support(
    eq_rows: Sequence[Sequence],
    nvars: int,
) -> list[int]:
    """Indices j for which some solution of A f = 0, f >= 0 has f(j) > 0.

    Supports of such solutions are closed under addition, so the answer
    is the union of the supports of f with f(j) >= 1, one LP per index j
    not yet covered. The all-index LP runs first: it is the common case,
    and a simplex vertex alone covers at most rank(A) indices.
    """
    if _circulation(eq_rows, nvars, range(nvars)) is not None:
        return list(range(nvars))
    support: set[int] = set()
    for j in range(nvars):
        if j in support:
            continue
        f = _circulation(eq_rows, nvars, (j,))
        if f is not None:
            support.update(k for k, x in enumerate(f) if x > 0)
    return sorted(support)
