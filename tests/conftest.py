"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the code paths they check: span
membership uses an incremental triangular basis with xgcd elimination
(never the comatrix construction), determinants use the permutation
expansion, reversibility uses a plain displacement-bounded search.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

import pytest

from mutreach.intlinalg import LinalgError
from mutreach.net import Action, PetriNet
from mutreach.ratlp import FEASIBLE, positive_circulation, solve_standard


@pytest.fixture(scope="session")
def token_swap():
    return PetriNet(2, (Action((1, 0), (0, 1)), Action((0, 1), (1, 0))))


@pytest.fixture(scope="session")
def consumer():
    return PetriNet(1, (Action((1,), (0,)),))


@pytest.fixture(scope="session")
def ring():
    return PetriNet(
        2, (Action((2, 0), (1, 1)), Action((1, 1), (0, 2)), Action((0, 2), (2, 0)))
    )


@pytest.fixture(scope="session")
def mixed3():
    return PetriNet(
        3,
        (
            Action((1, 0, 0), (0, 1, 0)),
            Action((0, 1, 0), (1, 0, 0)),
            Action((0, 0, 1), (0, 0, 0)),
        ),
    )


@pytest.fixture(scope="session")
def fixture_nets(token_swap, consumer, ring, mixed3):
    return {
        "token_swap": token_swap,
        "consumer": consumer,
        "ring": ring,
        "mixed3": mixed3,
    }


# --- independent span oracle ---------------------------------------------------


def _xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


class IntSpan:
    """Triangular integer basis from incremental xgcd row elimination.

    Rows are kept with their expressions over the original generators so
    membership witnesses can be reconstructed exactly.
    """

    def __init__(self, dim: int, num_gens: int):
        self.dim = dim
        self.num_gens = num_gens
        self.rows: dict[int, tuple[list[int], list[int]]] = {}  # pivot col -> (vec, expr)

    def add(self, vector, gen_index: int):
        vec = list(vector)
        expr = [0] * self.num_gens
        expr[gen_index] = 1
        self._insert(vec, expr)

    def _insert(self, vec, expr):
        for j in range(self.dim):
            if vec[j] == 0:
                continue
            if j not in self.rows:
                self.rows[j] = (vec, expr)
                return
            rvec, rexpr = self.rows[j]
            a, b = rvec[j], vec[j]
            if b % a == 0:
                q = b // a
                vec = [x - q * y for x, y in zip(vec, rvec)]
                expr = [x - q * y for x, y in zip(expr, rexpr)]
            else:
                g, s, t = _xgcd(a, b)
                new_vec = [s * x + t * y for x, y in zip(rvec, vec)]
                new_expr = [s * x + t * y for x, y in zip(rexpr, expr)]
                alt_vec = [(-b // g) * x + (a // g) * y for x, y in zip(rvec, vec)]
                alt_expr = [(-b // g) * x + (a // g) * y for x, y in zip(rexpr, expr)]
                self.rows[j] = (new_vec, new_expr)
                vec, expr = alt_vec, alt_expr

    def witness(self, target):
        """Coefficients z over the generators with sum z_j v_j = target,
        or None when the target is outside the span."""
        vec = list(target)
        expr = [0] * self.num_gens
        for j in range(self.dim):
            if vec[j] == 0:
                continue
            if j not in self.rows:
                return None
            rvec, rexpr = self.rows[j]
            if vec[j] % rvec[j] != 0:
                return None
            q = vec[j] // rvec[j]
            vec = [x - q * y for x, y in zip(vec, rvec)]
            expr = [x - q * y for x, y in zip(expr, rexpr)]
        if any(vec):
            return None
        return [-e for e in expr]

    def contains(self, target) -> bool:
        return self.witness(target) is not None


def span_oracle(generators, dim: int) -> IntSpan:
    span = IntSpan(dim, len(generators))
    for idx, g in enumerate(generators):
        span.add(g, idx)
    return span


def span_membership_mask(span: IntSpan, points):
    """Vectorized membership for an array of points (numpy int64), by
    the same triangular reduction IntSpan.contains performs."""
    import numpy as np

    pts = np.asarray(points, dtype=np.int64)
    residual = pts.copy()
    alive = np.ones(len(pts), dtype=bool)
    for j in sorted(span.rows):
        vec, _ = span.rows[j]
        v = np.asarray(vec, dtype=np.int64)
        col = residual[:, j]
        divisible = col % v[j] == 0
        alive &= divisible
        q = np.where(divisible, col // v[j], 0)
        residual = residual - q[:, None] * v[None, :]
    alive &= (residual == 0).all(axis=1)
    return alive


def representation_membership_mask(rep, points):
    """Vectorized lattice-representation membership for an array of
    points (numpy int64)."""
    import numpy as np

    pts = np.asarray(points, dtype=np.int64)
    alive = np.ones(len(pts), dtype=bool)
    for n, a in rep.pairs:
        dots = pts @ np.asarray(a, dtype=np.int64)
        if n == 0:
            alive &= dots == 0
        else:
            alive &= dots % n == 0
    return alive


def enumerated_span_points(generators, dim: int, coeff_bound: int, box_bound: int):
    """Span points within the box, from coefficients in [-b, b], via a
    meet-in-the-middle sweep (numpy)."""
    import numpy as np

    gens = [tuple(g) for g in generators]
    if not gens:
        return {(0,) * dim} if box_bound >= 0 else set()
    half = len(gens) // 2
    rng = np.arange(-coeff_bound, coeff_bound + 1, dtype=np.int64)

    def side(gs):
        sums = np.zeros((1, dim), dtype=np.int64)
        for g in gs:
            arr = np.asarray(g, dtype=np.int64)
            sums = (sums[:, None, :] + rng[None, :, None] * arr[None, None, :]).reshape(-1, dim)
            sums = np.unique(sums, axis=0)
        return sums

    left = side(gens[:half])
    right = side(gens[half:])
    total = (left[:, None, :] + right[None, :, :]).reshape(-1, dim)
    mask = (np.abs(total) <= box_bound).all(axis=1)
    pts = np.unique(total[mask], axis=0)
    return {tuple(int(x) for x in row) for row in pts}


# --- other independent oracles ---------------------------------------------------


def leibniz_determinant(rows) -> int:
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def brute_force_small_set(lam, index_set, configs):
    """Union of all small subsets, by exhaustive subset scan."""
    index_set = tuple(sorted(index_set))
    best = ()
    for r in range(len(index_set) + 1):
        for js in itertools.combinations(index_set, r):
            if all(c[j] < lam[len(js)] for j in js for c in configs):
                if len(js) > len(best):
                    best = js
    return tuple(sorted(best))


def definitional_reversible(g, length_budget: int, disp_bound: int) -> bool:
    """Every transition has a zero-sum return path, by plain search over
    (state, displacement) pairs within the budget."""
    net = g.net
    for p, a, q in g.transitions:
        delta0 = net.actions[a].displacement
        goal = (p, tuple(0 for _ in range(net.dim)))
        frontier = {(q, delta0)}
        seen = set(frontier)
        found = goal in seen
        for _ in range(length_budget):
            if found:
                break
            nxt = set()
            for state, disp in frontier:
                for p2, a2, q2 in g.transitions:
                    if p2 != state:
                        continue
                    nd = tuple(
                        x + y for x, y in zip(disp, net.actions[a2].displacement)
                    )
                    if max(abs(x) for x in nd) > disp_bound:
                        continue
                    node = (q2, nd)
                    if node == goal:
                        found = True
                        break
                    if node not in seen:
                        seen.add(node)
                        nxt.add(node)
                if found:
                    break
            frontier = nxt
            if not frontier:
                break
        if not found:
            return False
    return True


# --- reference unfolding generators ----------------------------------------------


def walked_state_sets(net, index_set, state_bound: int, max_states: int):
    """(states, edges) for each connected state set, in the enumerator's
    walk order, with every enabled edge that stays inside the set."""
    from mutreach.unfolding import _connected_subsets, bounded_states, i_fires

    index_set = tuple(sorted(index_set))
    all_states = bounded_states(index_set, state_bound)
    pos = {s: i for i, s in enumerate(all_states)}
    all_edges = []
    for p in all_states:
        for idx, a in enumerate(net.actions):
            q = i_fires(a, index_set, p)
            if q in pos:
                all_edges.append((p, idx, q))
    undirected = [set() for _ in all_states]
    for p, _, q in all_edges:
        if p != q:
            undirected[pos[p]].add(pos[q])
            undirected[pos[q]].add(pos[p])
    for subset in _connected_subsets(undirected, max_states):
        states = tuple(all_states[i] for i in subset)
        sset = set(states)
        yield states, [t for t in all_edges if t[0] in sset and t[2] in sset]


def candidate_unfoldings(
    net, index_set, state_bound: int, max_states: int, max_edges: int, cap: int | None = None
):
    """Every strongly connected unfolding on every transition subset of
    each walked state set with at most `max_edges` edges, reversible or
    not; stops after `cap` unfoldings when a cap is given."""
    from mutreach.unfolding import Unfolding, _strongly_connected

    index_set = tuple(sorted(index_set))
    emitted = 0
    for states, edges in walked_state_sets(net, index_set, state_bound, max_states):
        if len(edges) > max_edges:
            continue
        for mask in range(1 << len(edges)):
            chosen = tuple(edges[j] for j in range(len(edges)) if mask >> j & 1)
            if len(states) > 1 and not _strongly_connected(states, chosen)[0]:
                continue
            yield Unfolding(net, index_set, states, chosen)
            emitted += 1
            if cap is not None and emitted >= cap:
                return


def simple_cycles(g):
    """All simple cycles, anchored at their minimal state, in DFS order:
    the exponential reference for the closed-walk lattice generators."""
    from mutreach.unfolding import UnfoldingPath

    order = {s: i for i, s in enumerate(g.states)}
    out = {s: [] for s in g.states}
    for t in g.transitions:
        out[t[0]].append(t)
    cycles = []
    for anchor in g.states:
        # DFS paths from anchor over states with order >= anchor, distinct
        # internal states; closing edge returns to anchor.
        stack = [(anchor, (), frozenset([anchor]))]
        while stack:
            state, path, seen = stack.pop()
            for t in reversed(out[state]):
                if t[2] == anchor:
                    cycles.append(UnfoldingPath(anchor, path + (t,)))
                elif order[t[2]] > order[anchor] and t[2] not in seen:
                    stack.append((t[2], path + (t,), seen | {t[2]}))
    return cycles


# --- LP cross-checks ------------------------------------------------------------


def rational_lp_feasible(
    equalities: Sequence[tuple[Sequence, object]],
    num_vars: int,
) -> tuple[bool, list[Fraction] | None]:
    """Feasibility of { A f = b, f > 0 } over the rationals.

    The systems fed here are homogeneous (b = 0), so strict positivity is
    solved as f >= 1; the witness returned is exact and strictly positive.
    """
    rows = []
    for coeffs, rhs in equalities:
        if Fraction(rhs) != 0:
            raise LinalgError("only homogeneous systems are supported")
        row = [Fraction(c) for c in coeffs]
        if len(row) != num_vars:
            raise LinalgError("coefficient row has wrong length")
        rows.append(row)
    witness = positive_circulation(rows, num_vars)
    if witness is None:
        return False, None
    return True, witness


def feasible_with_epsilon(
    equalities: Sequence[Sequence],
    num_vars: int,
) -> Fraction | None:
    """Best epsilon in (0, 1] with A f = 0 and f >= epsilon, or None.

    Cross-check route for the f >= 1 homogenization: by scaling, a
    positive epsilon exists exactly when f >= 1 is feasible.
    """
    if num_vars == 0:
        return Fraction(1)
    # Variables: f (num_vars), eps, slack per f_j - eps >= 0, slack for eps <= 1.
    total = num_vars + 1 + num_vars + 1
    rows: list[list[Fraction]] = []
    b: list[Fraction] = []
    for coeffs in equalities:
        rows.append([Fraction(c) for c in coeffs] + [Fraction(0)] * (total - num_vars))
        b.append(Fraction(0))
    for j in range(num_vars):
        row = [Fraction(0)] * total
        row[j] = Fraction(1)
        row[num_vars] = Fraction(-1)
        row[num_vars + 1 + j] = Fraction(-1)
        rows.append(row)
        b.append(Fraction(0))
    row = [Fraction(0)] * total
    row[num_vars] = Fraction(1)
    row[total - 1] = Fraction(1)
    rows.append(row)
    b.append(Fraction(1))
    objective = [Fraction(0)] * total
    objective[num_vars] = Fraction(1)
    status, x, value = solve_standard(rows, b, objective, maximize=True)
    if status != FEASIBLE or value is None or value <= 0:
        return None
    return value


def lp_max_support(eq_rows: Sequence[Sequence], nvars: int) -> list[int]:
    """Indices j for which some solution of A f = 0, f >= 0 has f(j) > 0.

    Reference for `ratlp.max_positive_support` by a different route: one
    LP over 4n variables, maximize sum(s) subject to 0 <= s <= 1, s <= f,
    A f = 0. Supports are closed under addition, so the optimum has s = 1
    exactly on the maximal support.
    """
    if nvars == 0:
        return []
    rows = [[Fraction(c) for c in row] for row in eq_rows]
    # Variables: f (nvars), s (nvars), slack u for f - s >= 0, slack w for s <= 1.
    total = 4 * nvars
    big_rows: list[list[Fraction]] = []
    big_b: list[Fraction] = []
    for row in rows:
        big_rows.append(list(row) + [Fraction(0)] * (3 * nvars))
        big_b.append(Fraction(0))
    for j in range(nvars):
        row = [Fraction(0)] * total
        row[j] = Fraction(1)
        row[nvars + j] = Fraction(-1)
        row[2 * nvars + j] = Fraction(-1)
        big_rows.append(row)
        big_b.append(Fraction(0))
        row = [Fraction(0)] * total
        row[nvars + j] = Fraction(1)
        row[3 * nvars + j] = Fraction(1)
        big_rows.append(row)
        big_b.append(Fraction(1))
    objective = [Fraction(0)] * total
    for j in range(nvars):
        objective[nvars + j] = Fraction(1)
    status, x, _ = solve_standard(big_rows, big_b, objective, maximize=True)
    assert status == FEASIBLE, "max-support LP is always feasible (f = s = 0)"
    assert x is not None
    return [j for j in range(nvars) if x[nvars + j] == 1]
