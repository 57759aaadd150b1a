"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the code paths they check: span
membership uses an incremental triangular basis with xgcd elimination
(never the comatrix construction), determinants use the permutation
expansion, reversibility uses a plain displacement-bounded search, and
bottom membership evaluates phi at enumerated lattice points instead of
solving lattice-box queries, exported SMT-LIB scripts are evaluated
from their text, the formula writers are compared with a syntax tree
rendered whole and with text rendered line by line, and the reference Hermite normal form picks its pivot
rows by rational elimination before any integer column operation, the
reference witness search enumerates every index set, and the reference
violation search queries the whole product of one short coordinate per
consequent; word hurdles are computed right to left over the whole word;
the reference simplex pivot applies its row operation to every column,
and the reference objective set-up subtracts each basic row on every
column.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest

from mutreach import witness
from mutreach.intlinalg import LinalgError
from mutreach.net import Action, NetError, PetriNet, load_net
from mutreach.presburger import (
    BottomFormula,
    BottomTuple,
    Disjunct,
    MutualFormula,
    _coefficient_ranges,
    _linear_term,
    _smt_connective,
    eval_mutual,
    lattice_basis,
    lattice_box_feasible,
    mutual_var_names,
    smt_numeral,
)
from mutreach.ratlp import _Tableau, positive_circulation, solve_standard
from mutreach.unfolding import (
    EnumLimits,
    State,
    Unfolding,
    elementary_path,
    enumerate_unfoldings,
    index_sets,
    lattice_of_unfolding,
    unfolding_from_sccc,
)
from mutreach.vectors import Vec, restrict, vadd, vdot, vec, vge
from mutreach.witness import (
    PumpingParams,
    SearchResult,
    WitnessRejected,
    check_witness,
    upward_basis,
)

REPO = Path(__file__).resolve().parent.parent


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
def ring3():
    """The benchmark's ring of three counters: its bottom lattices have rank 2."""
    return load_net(str(REPO / "perfbench" / "nets" / "ring3.net"))


@pytest.fixture(scope="session")
def fixture_nets(token_swap, consumer, ring, mixed3):
    return {
        "token_swap": token_swap,
        "consumer": consumer,
        "ring": ring,
        "mixed3": mixed3,
    }


def format_net(net: PetriNet, comment: str | None = None) -> str:
    """The net in the `.net` text format that `load_net` reads."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"dim {net.dim}")
    for a in net.actions:
        lines.append(
            "pre: " + " ".join(map(str, a.pre)) + "  post: " + " ".join(map(str, a.post))
        )
    return "\n".join(lines) + "\n"


# --- word hurdles and displacements, cycle walks and antichains ------------------


def displacement(word: Sequence[Action], dim: int | None = None) -> Vec:
    """Sum of per-action displacements; the empty word is the zero vector.

    The reference for the displacements `witness._cycle_words` carries
    along its walk and `BasisElement.enter_displacement` keeps.
    """
    dims = {a.dim for a in word}
    if len(dims) > 1:
        raise NetError(f"mixed dimensions in word: {sorted(dims)}")
    if not word:
        if dim is None:
            raise NetError("dimension required for the empty word")
        return (0,) * dim
    d = dims.pop()
    if dim is not None and dim != d:
        raise NetError(f"word dimension {d} does not match requested {dim}")
    total = (0,) * d
    for a in word:
        total = vadd(total, a.displacement)
    return total


def hurdle(word: Sequence[Action], dim: int | None = None) -> Vec:
    """Minimal configuration the whole word fires from.

    Computed right to left by h -> max(pre, h - delta); entries never go
    negative because pre >= 0 dominates the max.  The reference for the
    hurdles `witness._cycle_words` carries left to right along its walk.
    """
    if not word:
        if dim is None:
            raise NetError("dimension required for the empty word")
        return (0,) * dim
    h = (0,) * word[0].dim
    for a in reversed(word):
        h = tuple(max(p, x - dx) for p, x, dx in zip(a.pre, h, a.displacement, strict=True))
    assert all(x >= 0 for x in h)
    return h


def reference_cycle_words(g: Unfolding, q: Vec, max_len: int) -> tuple[list[tuple[int, ...]], bool]:
    """The cycle words on q of length <= max_len and the truncation flag,
    by the breadth-first walk that carries only the words."""
    words: list[tuple[int, ...]] = [()]
    truncated = False
    out: dict[Vec, list] = {}
    for t in g.transitions:
        out.setdefault(t[0], []).append(t)
    frontier: list[tuple[Vec, tuple[int, ...]]] = [(q, ())]
    explored = 1
    for _ in range(max_len):
        nxt = []
        for state, word in frontier:
            for t in out.get(state, ()):
                explored += 1
                if explored > witness.WALK_BUDGET:
                    truncated = True
                    break
                w = word + (t[1],)
                if t[2] == q:
                    words.append(w)
                nxt.append((t[2], w))
            if truncated:
                break
        if truncated:
            break
        frontier = nxt
    return words, truncated


def reference_antichain_min(items: list[tuple[Vec, object]]) -> list[tuple[Vec, object]]:
    """Minimal elements by a stable sort on (sum, vector) and a scan that
    drops every item at or above one kept before it."""
    items = sorted(items, key=lambda it: (sum(it[0]), it[0]))
    kept: list[tuple[Vec, object]] = []
    for v, w in items:
        if not any(vge(v, u) for u, _ in kept):
            kept.append((v, w))
    return kept


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


# --- reference Hermite normal form ---------------------------------------------------


@dataclass(frozen=True)
class ReferenceHnf:
    h: list[list[int]]
    u: list[list[int]]
    rank: int
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]


def rank_profile(m: list[list[int]]) -> tuple[int, list[int], list[int]]:
    """Rank plus pivot rows and pivot columns.

    Rows are kept greedily in input order (so a full-row-rank matrix is
    its own pivot block and the Hermite form below is canonical for the
    given row order); pivot columns are then chosen greedily left to
    right over the kept rows.
    """
    cols = len(m[0]) if m else 0
    kept: list[tuple[int, list[Fraction]]] = []  # (row index, reduced row)
    for i in range(len(m)):
        row = [Fraction(x) for x in m[i]]
        for _, prow in kept:
            lead = next((j for j in range(cols) if prow[j] != 0), None)
            if lead is not None and row[lead] != 0:
                f = row[lead] / prow[lead]
                row = [x - f * y for x, y in zip(row, prow)]
        if any(row):
            kept.append((i, row))
    pivot_rows = [i for i, _ in kept]

    work = [[Fraction(x) for x in m[i]] for i in pivot_rows]
    pivot_cols: list[int] = []
    used = [False] * len(work)
    for j in range(cols):
        pick = next((i for i in range(len(work)) if not used[i] and work[i][j] != 0), None)
        if pick is None:
            continue
        used[pick] = True
        pivot_cols.append(j)
        inv = Fraction(1) / work[pick][j]
        work[pick] = [x * inv for x in work[pick]]
        for i in range(len(work)):
            if i != pick and work[i][j] != 0:
                f = work[i][j]
                work[i] = [x - f * y for x, y in zip(work[i], work[pick])]
    return len(pivot_rows), pivot_rows, pivot_cols


def reference_hnf(m: list[list[int]]) -> ReferenceHnf:
    """Column-style HNF with explicit unimodular multiplier, on the rows
    and columns `rank_profile` picks by rational elimination first.

    Rank-deficient input is handled by selecting independent rows first;
    the zero matrix yields a rank-0 result with an empty H.
    """
    rank, pivot_rows, pivot_cols = rank_profile(m)
    k = len(m[0]) if m else 0
    rest_rows = [i for i in range(len(m)) if i not in pivot_rows]
    rest_cols = [j for j in range(k) if j not in pivot_cols]
    row_perm = tuple(pivot_rows + rest_rows)
    col_perm = tuple(pivot_cols + rest_cols)
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    if rank == 0:
        return ReferenceHnf([], u, 0, row_perm, col_perm)

    w = [list(m[i]) for i in pivot_rows]

    def col_op_2(c1: int, c2: int, a: int, b: int, c: int, d: int):
        # (col c1, col c2) <- (a*c1 + b*c2, c*c1 + d*c2); ad - bc = +-1
        for row in w:
            x, y = row[c1], row[c2]
            row[c1], row[c2] = a * x + b * y, c * x + d * y
        for row in u:
            x, y = row[c1], row[c2]
            row[c1], row[c2] = a * x + b * y, c * x + d * y

    def negate_col(c: int):
        for row in w:
            row[c] = -row[c]
        for row in u:
            row[c] = -row[c]

    for r in range(rank):
        for j in range(r + 1, k):
            if w[r][j] == 0:
                continue
            if w[r][r] == 0:
                col_op_2(r, j, 0, 1, -1, 0)
                continue
            g, s, t = _xgcd(w[r][r], w[r][j])
            col_op_2(r, j, s, t, -(w[r][j] // g), w[r][r] // g)
        if w[r][r] == 0:
            raise LinalgError("internal: missing pivot on full-row-rank block")
        if w[r][r] < 0:
            negate_col(r)
        # reduce the already-fixed columns so 0 <= w[r][j] < w[r][r] for j < r
        for j in range(r):
            q = w[r][j] // w[r][r]
            if q:
                for row in w:
                    row[j] -= q * row[r]
                for row in u:
                    row[j] -= q * row[r]

    return ReferenceHnf([row[:rank] for row in w], u, rank, row_perm, col_perm)


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


def reach_components(net, index_set, state_bound: int) -> dict:
    """The strongly connected component of each bounded I-state, as a
    frozenset: the states it reaches that reach it back, from plain reach
    sets over the I-firing relation inside the bound."""
    from mutreach.unfolding import bounded_states, i_fires

    index_set = tuple(sorted(index_set))
    states = bounded_states(index_set, state_bound)
    inside = set(states)
    reach = {}
    for p in states:
        seen, todo = {p}, [p]
        while todo:
            s = todo.pop()
            for a in net.actions:
                q = i_fires(a, index_set, s)
                if q in inside and q not in seen:
                    seen.add(q)
                    todo.append(q)
        reach[p] = seen
    return {p: frozenset(q for q in reach[p] if p in reach[q]) for p in states}


def reaches_everything(states, edges) -> bool:
    """Every state is reached from states[0] and reaches it back, by plain
    fixpoint iteration over the edge list in both directions."""
    for forward in (True, False):
        seen = {states[0]}
        grown = True
        while grown:
            grown = False
            for p, _, q in edges:
                a, b = (p, q) if forward else (q, p)
                if a in seen and b not in seen:
                    seen.add(b)
                    grown = True
        if not set(states) <= seen:
            return False
    return True


def reference_circulation_rows(net, states, edges) -> list[list[int]]:
    """Flow conservation per state, then total displacement per axis,
    built by scanning every edge for every state."""
    rows = []
    for s in states:
        row = [0] * len(edges)
        for j, t in enumerate(edges):
            if t[0] == s:
                row[j] += 1
            if t[2] == s:
                row[j] -= 1
        rows.append(row)
    for i in range(net.dim):
        rows.append([net.actions[t[1]].displacement[i] for t in edges])
    return rows


def reference_unfoldings(net, index_set, state_bound: int, limits, forward_closed=False):
    """The enumerator's loop without its shortcuts: each state set's edges
    come from a full edge scan, and every circulation system is solved
    afresh, with strong connectivity rechecked after every support LP.
    Like the enumerator it yields every unfolding; `limits` bounds only
    the size of a state set."""
    from mutreach.ratlp import max_positive_support
    from mutreach.unfolding import Unfolding, i_fires

    index_set = tuple(sorted(index_set))
    for states, edges in walked_state_sets(net, index_set, state_bound, limits.max_states):
        if forward_closed:
            targets = {i_fires(a, index_set, p) for p in states for a in net.actions}
            if not targets - {None} <= set(states):
                continue
        if not reaches_everything(states, edges):
            continue
        rows = reference_circulation_rows(net, states, edges)
        if forward_closed:
            if positive_circulation(rows, len(edges)) is None:
                continue
        else:
            edges = [edges[j] for j in max_positive_support(rows, len(edges))]
            if not reaches_everything(states, edges):
                continue
        yield Unfolding(net, index_set, states, tuple(edges))


def candidate_unfoldings(
    net, index_set, state_bound: int, max_states: int, max_edges: int, cap: int | None = None
):
    """Every strongly connected unfolding on every transition subset of
    each walked state set with at most `max_edges` edges, reversible or
    not; stops after `cap` unfoldings when a cap is given."""
    from mutreach.unfolding import Unfolding

    index_set = tuple(sorted(index_set))
    emitted = 0
    for states, edges in walked_state_sets(net, index_set, state_bound, max_states):
        if len(edges) > max_edges:
            continue
        for mask in range(1 << len(edges)):
            chosen = tuple(edges[j] for j in range(len(edges)) if mask >> j & 1)
            if not reaches_everything(states, chosen):
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


def dense_pivot(self, row: int, col: int, objective=None):
    """Reference for `ratlp._Tableau._pivot`: the full row operation on
    every column of every row with a nonzero factor, and of `objective`,
    with the pivot row scaled into a fresh list."""
    inv = Fraction(1) / self.rows[row][col]
    pivot = self.rows[row] = [x * inv for x in self.rows[row]]
    for other in self.rows if objective is None else (*self.rows, objective):
        factor = other[col]
        if factor != 0 and other is not pivot:
            other[:] = [x - factor * y for x, y in zip(other, pivot)]
    self.basis[row] = col


def dense_minimize(self, cost) -> Fraction:
    """Reference for `ratlp._Tableau.minimize`: the same simplex, with the
    objective set up by subtracting each basic row with a nonzero cost
    factor on every column, into a fresh list each time."""
    objective = [*cost, Fraction(0)]
    for row, col in zip(self.rows, self.basis):
        factor = objective[col]
        if factor != 0:
            objective = [x - factor * y for x, y in zip(objective, row)]
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


def count_pivots(monkeypatch, budget=None, snapshot=False) -> list:
    """A list that gets the (row, col) of each `ratlp._Tableau._pivot`
    call from now on.  With `snapshot`, each entry is instead the (row,
    col), every row after the pivot and the objective row it updated, if
    any.  Bland's rule visits no basis twice, so with a `budget` (the
    bases there are) a call past it fails as cycling."""
    calls = []
    pivot = _Tableau._pivot

    def counting(self, row, col, objective=None):
        assert budget is None or len(calls) < budget, "the simplex is cycling"
        pivot(self, row, col, objective)
        if snapshot:
            after = None if objective is None else list(objective)
            calls.append(((row, col), [list(r) for r in self.rows], after))
        else:
            calls.append((row, col))

    monkeypatch.setattr(_Tableau, "_pivot", counting)
    return calls


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
    tab = solve_standard(rows, b)
    if tab.infeasible:
        return None
    cost = [Fraction(0)] * total
    cost[num_vars] = Fraction(-1)  # maximise eps
    value = -tab.minimize(cost)
    return value if value > 0 else None


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
    tab = solve_standard(big_rows, big_b)
    assert not tab.infeasible, "max-support LP is always feasible (f = s = 0)"
    cost = [Fraction(0)] * total
    for j in range(nvars):
        cost[nvars + j] = Fraction(-1)  # maximise sum(s)
    tab.minimize(cost)
    x = tab.solution()
    return [j for j in range(nvars) if x[nvars + j] == 1]


def single_lp_circulation(eq_rows: Sequence[Sequence], nvars: int) -> list[Fraction] | None:
    """f >= 1 with A f = 0 from at most one LP, or None.

    Reference for the vertex `ratlp.positive_circulation` returns: None
    when some row is one-signed, so that it forces its columns to 0; f = 1
    when every row sums to 0; otherwise the phase-1 vertex g of
    A g = -A 1 plus 1, or None when there is none.
    """
    if any(len({x > 0 for x in row if x}) == 1 for row in eq_rows):
        return None
    if all(sum(row) == 0 for row in eq_rows):
        return [Fraction(1)] * nvars
    tab = solve_standard(eq_rows, [-sum(row) for row in eq_rows])
    return None if tab.infeasible else [x + 1 for x in tab.solution()]


# --- bottom evaluation by enumeration ---------------------------------------------


def lattice_points_in_window(basis, radius: int, budget: int = 200000):
    if not basis:
        yield tuple()
        return
    rank = len(basis)
    d = len(basis[0])
    # the window is a bounded box, so every coefficient has finite LP bounds
    ranges = _coefficient_ranges(basis, [-radius] * d, [radius] * d, rank)
    if ranges is None:
        return
    count = 0
    for t in itertools.product(*ranges):
        count += 1
        if count > budget:
            return
        v = tuple(sum(basis[j][i] * t[j] for j in range(rank)) for i in range(d))
        if all(abs(x) <= radius for x in v):
            yield v


def reference_violation_exists(tup, c) -> bool:
    """Reference for `presburger._violation_exists`: the box of every
    choice of one short coordinate per consequent, the whole product of
    choices, each distinct box queried once."""
    d = len(c)
    for ants, cons in tup.implications:
        choice_sets = [[(i, wq[i] - 1 - c[i]) for i in range(d)] for wq in cons]
        boxes = set()
        for combo in itertools.product(*choice_sets):
            highs: list[int | None] = [None] * d
            for i, ub in combo:
                highs[i] = ub if highs[i] is None else min(highs[i], ub)
            boxes.add(tuple(highs))
        for w in ants:
            lows = [w[i] - c[i] for i in range(d)]
            if any(lattice_box_feasible(tup.basis, lows, list(highs)) for highs in boxes):
                return True
    return False


def violation_by_enumeration(tup, c, radius: int) -> bool | None:
    """Reference for `presburger._violation_exists`: evaluate the tuple's
    phi at c + v for the lattice points v of norm <= radius.  It cannot
    rule a violation out on an infinite lattice (None)."""
    basis = lattice_basis(tup.rep)
    phi = reference_bottom_phi(tup)
    if not basis:
        return not eval_formula(phi, c)
    for v in lattice_points_in_window(basis, radius):
        point = vadd(c, v) if v else c
        if not eval_formula(phi, point):
            return True
    return None  # no violation seen, but the lattice is infinite


def eval_bottom_by_enumeration(f, c, radius: int) -> bool | None:
    """`eval_bottom` with each tuple's universal checked by
    `violation_by_enumeration` instead of lattice-box feasibility."""
    c = vec(c)
    saw_inconclusive = False
    for tup in f.tuples:
        if restrict(c, tup.index_set) != tup.state:
            continue
        if not any(vge(c, m) for m in tup.membership):
            continue
        vio = violation_by_enumeration(tup, c, radius)
        if vio is False:
            return True
        if vio is None:
            saw_inconclusive = True
    return None if saw_inconclusive else False


# --- listing and drawing unfoldings --------------------------------------------------


def take(walk, cap: int) -> tuple[list, bool]:
    """At most `cap` items of a walk, and whether another one was left."""
    return list(itertools.islice(walk, cap)), next(walk, None) is not None


def collect_unfoldings(
    net: PetriNet,
    index_set: Sequence[int],
    state_bound: int,
    limits: EnumLimits | None = None,
) -> tuple[list[Unfolding], bool]:
    """The unfoldings the passes take under `limits`, and whether the
    cap cut the walk."""
    limits = limits or EnumLimits()
    return take(enumerate_unfoldings(net, index_set, state_bound, limits), limits.max_unfoldings)


def unfolding_to_dot(g: Unfolding, name: str = "unfolding") -> str:
    def label(s: State) -> str:
        return "(" + ",".join(map(str, s)) + ")"

    lines = [f"digraph {name} {{"]
    lines.append(f'  label="I={list(g.index_set)}";')
    for s in g.states:
        lines.append(f'  "{label(s)}";')
    for p, a, q in g.transitions:
        delta = g.net.actions[a].displacement
        lines.append(f'  "{label(p)}" -> "{label(q)}" [label="a{a} d={list(delta)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- compiler references -----------------------------------------------------------


def _walk_cut(g, basis) -> bool:
    """Whether a truncated cycle-word walk leaves g's basis incomplete.  On
    the full index set it never does: the basis there is the state alone,
    which the empty word gives, so the compilers walk nothing there."""
    return basis.truncated and not g.full_index


def reference_compile_mutual(net, params, limits=None) -> MutualFormula:
    """`compile_mutual` with every lattice, pumping basis and elementary
    path computed afresh for each unfolding."""
    limits = limits or EnumLimits()
    disjuncts = []
    seen = set()
    certified = complete = True
    for index_set in index_sets(net.dim):
        gs, truncated = take(enumerate_unfoldings(net, index_set, params.state_bound, limits),
                             limits.max_unfoldings)
        for g in gs:
            certified = certified and params.certified_for(net, g)
            rep = lattice_of_unfolding(g)
            bases = {}
            for q in g.states:
                bases[q] = upward_basis(g, q, params)
                complete = complete and not _walk_cut(g, bases[q])
            for p in g.states:
                for q in g.states:
                    v = elementary_path(g, p, q).displacement(net)
                    for ea in bases[p].elements:
                        for eb in bases[q].elements:
                            key = (ea.vector, eb.vector, v, rep)
                            if key not in seen:
                                seen.add(key)
                                disjuncts.append(Disjunct(*key))
        complete = complete and not truncated
    return MutualFormula(
        dim=net.dim,
        disjuncts=tuple(disjuncts),
        provenance="certified" if certified else "heuristic",
        complete=complete,
        state_bound=params.state_bound,
        cycle_len=params.cycle_len,
    )


def reference_compile_bottom(net, params, limits=None) -> BottomFormula:
    """`compile_bottom` with every lattice, pumping basis and elementary
    path computed afresh for each unfolding."""
    limits = limits or EnumLimits()
    tuples = []
    certified = complete = True
    for index_set in index_sets(net.dim):
        gs, truncated = take(
            enumerate_unfoldings(net, index_set, params.state_bound, limits, forward_closed=True),
            limits.max_unfoldings,
        )
        for g in gs:
            certified = certified and params.certified_for(net, g)
            rep = lattice_of_unfolding(g)
            bases = {}
            for q in g.states:
                bases[q] = upward_basis(g, q, params)
                complete = complete and not _walk_cut(g, bases[q])
            for r in g.states:
                vp = {p: elementary_path(g, r, p).displacement(net) for p in g.states}
                implications = []
                for p, aidx, q in g.transitions:
                    a = net.actions[aidx]
                    ants = tuple(sorted(
                        tuple(max(m.vector[i], a.pre[i]) - vp[p][i] for i in range(net.dim))
                        for m in bases[p].elements
                    ))
                    cons = tuple(sorted(
                        tuple(m.vector[i] - a.displacement[i] - vp[p][i] for i in range(net.dim))
                        for m in bases[q].elements
                    ))
                    implications.append((ants, cons))
                tuples.append(BottomTuple(
                    index_set=tuple(index_set),
                    state=r,
                    rep=rep,
                    membership=tuple(m.vector for m in bases[r].elements),
                    implications=tuple(implications),
                ))
        complete = complete and not truncated
    return BottomFormula(
        dim=net.dim,
        tuples=tuple(tuples),
        provenance="certified" if certified else "heuristic",
        complete=complete,
    )


# --- witness search reference ---------------------------------------------------


def reference_search_witness(
    net: PetriNet,
    x: Vec,
    y: Vec,
    params: PumpingParams,
    budget: int = 10000,
    limits: EnumLimits | None = None,
) -> SearchResult:
    """`search_witness` walking every index set, with no threshold skip:
    each unfolding of each index set is enumerated and only then checked."""
    x, y = vec(x), vec(y)
    if x == y:
        g = unfolding_from_sccc(net, [x], range(net.dim))
        return SearchResult("found", check_witness(net, (x,), g, params), examined=1)
    limits = limits or EnumLimits()
    examined = 0
    truncated = False
    for index_set in index_sets(net.dim):
        gs, cut = take(enumerate_unfoldings(net, index_set, params.state_bound, limits),
                       limits.max_unfoldings)
        for g in gs:
            if examined >= budget:
                return SearchResult("not-found-budget", examined=examined)
            examined += 1
            sset = set(g.states)
            if restrict(x, index_set) not in sset or restrict(y, index_set) not in sset:
                continue
            try:
                w = check_witness(net, (x, y), g, params)
            except WitnessRejected:
                continue
            return SearchResult("found", w, examined=examined)
        truncated = truncated or cut
    return SearchResult(
        "not-found-truncated" if truncated else "not-found-exhausted", examined=examined
    )


# --- formula trees ------------------------------------------------------------------
#
# Quantifier-free Presburger syntax trees over positional integer variables,
# with their evaluator and printers.  The writers render formulas straight
# from the compiled data; these trees are the references they must match.


@dataclass(frozen=True)
class CompareAtom:
    """sum(coeffs . vars) op constant, with op one of >= ==."""

    coeffs: tuple[int, ...]
    op: str
    constant: int


@dataclass(frozen=True)
class DivAtom:
    """modulus divides (coeffs . vars + constant); modulus >= 1."""

    coeffs: tuple[int, ...]
    constant: int
    modulus: int


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


@dataclass(frozen=True)
class Implies:
    lhs: object
    rhs: object


def eval_formula(node, values: Sequence[int]) -> bool:
    if isinstance(node, CompareAtom):
        lhs = vdot(node.coeffs, values)
        return lhs >= node.constant if node.op == ">=" else lhs == node.constant
    if isinstance(node, DivAtom):
        return (vdot(node.coeffs, values) + node.constant) % node.modulus == 0
    if isinstance(node, And):
        return all(eval_formula(c, values) for c in node.children)
    if isinstance(node, Or):
        return any(eval_formula(c, values) for c in node.children)
    if isinstance(node, Implies):
        return (not eval_formula(node.lhs, values)) or eval_formula(node.rhs, values)
    raise TypeError(f"unknown node {node!r}")


def conj_ge(vector: Sequence[int], dim: int):
    """x >= vector componentwise, as a conjunction of threshold atoms."""
    atoms = []
    for i, w in enumerate(vector):
        coeffs = tuple(1 if j == i else 0 for j in range(dim))
        atoms.append(CompareAtom(coeffs, ">=", int(w)))
    return And(tuple(atoms))


def to_sexpr(node) -> str:
    if isinstance(node, CompareAtom):
        op = "ge" if node.op == ">=" else "eq"
        return f"({op} ({' '.join(map(str, node.coeffs))}) {node.constant})"
    if isinstance(node, DivAtom):
        return f"(div ({' '.join(map(str, node.coeffs))}) {node.constant} {node.modulus})"
    if isinstance(node, And):
        return "(and" + "".join(" " + to_sexpr(c) for c in node.children) + ")"
    if isinstance(node, Or):
        return "(or" + "".join(" " + to_sexpr(c) for c in node.children) + ")"
    if isinstance(node, Implies):
        return f"(=> {to_sexpr(node.lhs)} {to_sexpr(node.rhs)})"
    raise TypeError(f"cannot render {node!r}")


def smt_term(node, names: Sequence[str]) -> str:
    if isinstance(node, CompareAtom):
        op = ">=" if node.op == ">=" else "="
        return f"({op} {_linear_term(node.coeffs, names)} {smt_numeral(node.constant)})"
    if isinstance(node, DivAtom):
        term = _linear_term(node.coeffs, names, node.constant)
        return f"(= (mod {term} {node.modulus}) 0)"
    if isinstance(node, And):
        if not node.children:
            return "true"
        return "(and " + " ".join(smt_term(c, names) for c in node.children) + ")"
    if isinstance(node, Or):
        if not node.children:
            return "false"
        return "(or " + " ".join(smt_term(c, names) for c in node.children) + ")"
    if isinstance(node, Implies):
        return f"(=> {smt_term(node.lhs, names)} {smt_term(node.rhs, names)})"
    raise TypeError(f"cannot render {node!r}")


def to_smtlib(node, names: Sequence[str], logic: str = "QF_LIA", nonneg=()) -> str:
    lines = [f"(set-logic {logic})"]
    lines += [f"(declare-const {n} Int)" for n in names]
    lines += [f"(assert (>= {n} 0))" for n in nonneg]
    lines += [f"(assert {smt_term(node, names)})", "(check-sat)"]
    return "\n".join(lines) + "\n"


def reference_bottom_phi(tup: BottomTuple):
    """A bottom tuple's phi as a tree: per transition, covering some
    antecedent implies covering some consequent."""
    d = tup.rep.dim
    return And(
        tuple(
            Implies(
                Or(tuple(conj_ge(w, d) for w in ants)),
                Or(tuple(conj_ge(w, d) for w in cons)),
            )
            for ants, cons in tup.implications
        )
    )


def reference_bottom_smtlib(f: BottomFormula) -> str:
    """The bottom `.smt2` text with each phi rendered from its tree."""
    d = f.dim
    c_names = [f"c{i}" for i in range(d)]
    v_names = [f"v{i}" for i in range(d)]
    parts = []
    for t in f.tuples:
        eqs = [f"(= {c_names[i]} {t.state[pos]})" for pos, i in enumerate(t.index_set)]
        eqs.append(
            _smt_connective("or", [
                _smt_connective("and", [f"(>= {c} {m[i]})" for i, c in enumerate(c_names)])
                for m in t.membership
            ])
        )
        member = []
        for n, a in t.rep.pairs:
            term_parts = [f"(* {smt_numeral(a[i])} {v_names[i]})" for i in range(d) if a[i]]
            term = term_parts[0] if len(term_parts) == 1 else (
                "(+ " + " ".join(term_parts) + ")" if term_parts else "0"
            )
            member.append(f"(= {term} 0)" if n == 0 else f"(= (mod {term} {n}) 0)")
        shifted = [f"(+ {c} {v})" for c, v in zip(c_names, v_names)]
        body = f"(=> {_smt_connective('and', member)} {smt_term(reference_bottom_phi(t), shifted)})"
        bound = " ".join(f"({v} Int)" for v in v_names)
        parts.append(_smt_connective("and", eqs + [f"(forall ({bound}) {body})"]))
    lines = ["(set-logic LIA)"]
    for n in c_names:
        lines += [f"(declare-const {n} Int)", f"(assert (>= {n} 0))"]
    lines += [f"(assert {_smt_connective('or', parts)})", "(check-sat)"]
    return "\n".join(lines) + "\n"


# --- mutual formula references -----------------------------------------------------


def mutual_to_ast(f):
    """Tree over variables x0..x{d-1}, y0..y{d-1}."""
    d = f.dim
    total = 2 * d
    parts = []
    for dis in f.disjuncts:
        atoms: list = []
        for i in range(d):
            coeffs = tuple(1 if j == i else 0 for j in range(total))
            atoms.append(CompareAtom(coeffs, ">=", dis.lower_x[i]))
        for i in range(d):
            coeffs = tuple(1 if j == d + i else 0 for j in range(total))
            atoms.append(CompareAtom(coeffs, ">=", dis.lower_y[i]))
        for n, a in dis.rep.pairs:
            # a . (y - x - v) == 0 mod n (or exactly 0 when n == 0)
            coeffs = tuple(-a[j] if j < d else a[j - d] for j in range(total))
            constant = -sum(a[j] * dis.shift[j] for j in range(d))
            if n == 0:
                atoms.append(CompareAtom(coeffs, "==", -constant))
            else:
                atoms.append(DivAtom(coeffs, constant, n))
        parts.append(And(tuple(atoms)))
    return Or(tuple(parts))


def reference_mutual_smtlib(f) -> str:
    """The `.smt2` text rendered from the whole tree of `mutual_to_ast`."""
    names = mutual_var_names(f.dim)
    return to_smtlib(mutual_to_ast(f), names, logic="QF_LIA", nonneg=names)


def reference_mutual_text(f) -> str:
    """The `.mrf` text rendered line by line from the fields."""

    def row(v) -> str:
        return " ".join(str(x) for x in v)

    lines = [
        "kind mutual",
        f"dim {f.dim}",
        f"provenance {f.provenance}",
        f"complete {int(f.complete)}",
        f"state-bound {f.state_bound}",
        f"cycle-len {f.cycle_len}",
    ]
    for d in f.disjuncts:
        lines += ["disjunct", "a " + row(d.lower_x), "b " + row(d.lower_y), "v " + row(d.shift)]
        lines += [f"pair {n} : {row(a)}" for n, a in d.rep.pairs]
        lines.append("end")
    return "\n".join(lines) + "\n"


def reference_mutual_json(f) -> str:
    """The `.json` text from one `json.dumps` over the whole payload."""
    payload = {
        "kind": "mutual",
        "dim": f.dim,
        "provenance": f.provenance,
        "complete": f.complete,
        "state_bound": f.state_bound,
        "cycle_len": f.cycle_len,
        "disjuncts": [
            {
                "a": list(d.lower_x),
                "b": list(d.lower_y),
                "v": list(d.shift),
                "gamma": [[n, list(a)] for n, a in d.rep.pairs],
            }
            for d in f.disjuncts
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def reference_bottom_json(f) -> str:
    """The bottom `.json` text from one `json.dumps` over the whole payload."""
    payload = {
        "kind": "bottom",
        "dim": f.dim,
        "provenance": f.provenance,
        "complete": f.complete,
        "tuples": [
            {
                "index_set": list(t.index_set),
                "state": list(t.state),
                "gamma": [[n, list(a)] for n, a in t.rep.pairs],
                "membership": [list(m) for m in t.membership],
                "implications": [
                    {"antecedents": [list(w) for w in ants], "consequents": [list(w) for w in cons]}
                    for ants, cons in t.implications
                ],
            }
            for t in f.tuples
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


class SmtScript:
    """An SMT-LIB script in the subset the exporters write, as a
    predicate on the values of its declared constants.

    Commands: `set-logic` QF_LIA or LIA, `declare-const NAME Int`,
    `assert`, `check-sat`.  Terms: `and`, `or`, `=>`, `true`, `false`,
    `>=`, `=`, `mod` by a nonzero literal, `+`, `*`, numerals, negated
    numerals `(- n)` and the declared names.  Under LIA, and only when a
    `radius` r is given, `forall` over Int variables is read as its
    instances on [-r, r] per variable.  Anything else, a bare `-1`
    included (SMT-LIB reads it as a symbol), raises ValueError.  The
    assertions are translated term by term into one Python expression, so
    a check over a box stays fast.
    """

    def __init__(self, text: str, radius: int | None = None):
        stack: list[list] = [[]]
        for tok in re.findall(r"[()]|[^\s()]+", text):
            if tok == "(":
                stack.append([])
            elif tok == ")" and len(stack) > 1:
                done = stack.pop()
                stack[-1].append(done)
            else:
                stack[-1].append(tok)
        if len(stack) != 1:
            raise ValueError("unbalanced parentheses")
        self.names: list[str] = []
        assertions: list = []
        logic = None
        for command in stack[0]:
            head = command[0] if isinstance(command, list) and command else None
            if head == "set-logic" and command[1:] in (["QF_LIA"], ["LIA"]) and logic is None:
                logic = command[1]
            elif head == "declare-const" and command[2:] == ["Int"]:
                self.names.append(command[1])
            elif head == "assert" and len(command) == 2:
                assertions.append(command[1])
            elif head != "check-sat":
                raise ValueError(f"unexpected command {command!r}")
        params = {n: f"v{i}" for i, n in enumerate(self.names)}
        radius = radius if logic == "LIA" else None
        body = " and ".join(_smt_to_python(a, params, radius) for a in assertions) or "True"
        self.holds = eval(f"lambda {', '.join(params.values())}: bool({body})")


def _smt_to_python(term, params: dict[str, str], radius: int | None = None) -> str:
    if isinstance(term, str):
        if term in ("true", "false"):
            return str(term == "true")
        if term in params:
            return params[term]
        if not (term.isascii() and term.isdigit()):
            raise ValueError(f"not a declared name or a numeral: {term!r}")
        return str(int(term))
    op, *args = term
    if op == "-" and len(args) == 1 and isinstance(args[0], str) and args[0].isdigit():
        return f"(-{_smt_to_python(args[0], params)})"
    if op == "forall" and radius is not None and len(args) == 2 and args[0]:
        # each bound variable gets a fresh Python name and one loop
        scope = dict(params)
        loops = []
        for binding in args[0]:
            if not (isinstance(binding, list) and len(binding) == 2 and binding[1] == "Int"
                    and isinstance(binding[0], str)):
                raise ValueError(f"not an Int binding: {binding!r}")
            scope[binding[0]] = f"w{len(scope)}"
            loops.append(f"for {scope[binding[0]]} in range({-radius}, {radius + 1})")
        return f"all({_smt_to_python(args[1], scope, radius)} {' '.join(loops)})"
    parts = [_smt_to_python(a, params, radius) for a in args]
    if op in ("and", "or") and parts:
        return "(" + f" {op} ".join(parts) + ")"
    if op == "=>" and len(parts) == 2:
        return f"((not {parts[0]}) or {parts[1]})"
    if op in (">=", "=") and len(parts) == 2:
        return f"({parts[0]} {'>=' if op == '>=' else '=='} {parts[1]})"
    if op == "mod" and len(parts) == 2 and isinstance(args[1], str) and int(args[1]) != 0:
        return f"({parts[0]} % {abs(int(args[1]))})"  # SMT-LIB: 0 <= (mod m n) < |n|
    if op in ("+", "*") and parts:
        return "(" + f" {op} ".join(parts) + ")"
    raise ValueError(f"outside the exported subset: {term!r}")


# --- the quantified wrapper over the mutual formula -------------------------------


@dataclass(frozen=True)
class BottomWrapper:
    """For every action, configurations reachable in one step from a
    mutual partner stay mutual partners; universally quantified over the
    intermediate configuration."""

    net: PetriNet
    mutual: MutualFormula

    def bounded_eval(self, c: Sequence[int], radius: int) -> bool:
        """Instantiate the quantifier over the box [0, radius]^d only;
        explicitly heuristic."""
        c = vec(c)
        d = self.net.dim
        for x in itertools.product(range(radius + 1), repeat=d):
            for a in self.net.actions:
                if eval_mutual(self.mutual, c, x) and vge(x, a.pre):
                    if not eval_mutual(self.mutual, c, vadd(x, a.displacement)):
                        return False
        return True

    def to_smtlib(self) -> str:
        d = self.net.dim
        c_names = [f"c{i}" for i in range(d)]
        x_names = [f"x{i}" for i in range(d)]
        ast = mutual_to_ast(self.mutual)
        conj = []
        for a in self.net.actions:
            step = [f"(+ {x} {smt_numeral(delta)})" if delta else x
                    for x, delta in zip(x_names, a.displacement)]
            phi_cx = smt_term(ast, c_names + x_names)
            phi_cstep = smt_term(ast, c_names + step)
            pre = _smt_connective("and", [f"(>= {x} {p})" for x, p in zip(x_names, a.pre)])
            conj.append(f"(=> (and {phi_cx} {pre}) {phi_cstep})")
        nonneg = _smt_connective("and", [f"(>= {x} 0)" for x in x_names])
        body = f"(=> {nonneg} {_smt_connective('and', conj)})"
        quantified = "(forall (" + " ".join(f"({x} Int)" for x in x_names) + ") " + body + ")"
        lines = ["(set-logic LIA)"]
        for n in c_names:
            lines.append(f"(declare-const {n} Int)")
            lines.append(f"(assert (>= {n} 0))")
        lines.append(f"(assert {quantified})")
        lines.append("(check-sat)")
        return "\n".join(lines) + "\n"


def bottom_wrapper(net: PetriNet, mutual: MutualFormula) -> BottomWrapper:
    return BottomWrapper(net, mutual)
