"""I-unfoldings: strongly-connected graphs over partial configurations.

States are restrictions of configurations to a coordinate subset I; edges
carry net actions consistent with the restricted firing relation.  An
unfolding is structurally reversible when every edge's displacement can
be cancelled by a return path, equivalently when a strictly positive
circulation with zero total displacement exists (Euler's condition).
The enumerator asks it as `max_positive_support` over shape-built rows.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Iterable, Iterator, Sequence

from .lattice import LatticeRepresentation, representation_from_generators
from .net import Action, PetriNet, step_targets
from .ratlp import max_positive_support, positive_circulation
from .vectors import Record, Vec, norm_inf, restrict, vadd, zero

State = Vec  # values over the unfolding's index set, in index order
Transition = tuple[State, int, State]  # (source, action index, target)
Shape = tuple[tuple[int, int, int], ...]  # edges as (state position, action, state position)


class UnfoldingError(ValueError):
    def __init__(self, reason: str, detail=None):
        self.reason = reason
        self.detail = detail
        super().__init__(reason if detail is None else f"{reason}: {detail}")


def i_fires(action: Action, index_set: Sequence[int], p: State) -> State | None:
    """Target of p under the action on I-configurations, or None."""
    pre = restrict(action.pre, index_set)
    if any(x < y for x, y in zip(p, pre, strict=True)):
        return None
    delta = restrict(action.displacement, index_set)
    return vadd(p, delta)


def strongly_connected_components(succ: list[list[int]]) -> list[int]:
    """The strongly connected component of each node of the graph on
    0..n-1 with successor lists `succ` (iterative Tarjan).  Components are
    numbered from 0 in the order they close, so a component's number is
    above that of every other component it reaches."""
    n = len(succ)
    idx = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    component = [-1] * n
    closed = 0
    for start in range(n):
        if idx[start] != -1:
            continue
        work = [(start, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                idx[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(pi, len(succ[v])):
                w = succ[v][j]
                if idx[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], idx[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == idx[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component[w] = closed
                    if w == v:
                        break
                closed += 1
    return component


class Unfolding(Record):
    __slots__ = ("net", "index_set", "states", "transitions", "shape", "_cache")
    _fields = ("net", "index_set", "states", "transitions")

    def __init__(
        self,
        net: PetriNet,
        index_set: Sequence[int],
        states: Iterable[State],
        transitions: Iterable[Transition],
        shape: Shape | None = None,
    ):
        self.net = net
        self.index_set = tuple(index_set)
        self.states = tuple(sorted(states))
        self.transitions = tuple(sorted(transitions))
        # derived, so not part of equality or hash: the edges as (state
        # position, action, state position) in transition order, handed
        # over by the enumerator or computed here, and a cache of results
        if shape is None:
            position = {s: k for k, s in enumerate(self.states)}
            shape = tuple((position[p], a, position[q]) for p, a, q in self.transitions)
        self.shape = shape
        self._cache: dict = {}

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def full_index(self) -> bool:
        """Whether I holds every coordinate.  The states are then
        configurations, so every closed walk has displacement 0: the
        lattice is {0}, a path p -> q has displacement q - p, and the
        pumping basis at a state is the state itself."""
        return len(self.index_set) == self.net.dim

    def state_norm(self) -> int:
        return max((norm_inf(s) for s in self.states), default=0)


class UnfoldingPath(Record):
    """A chain of transitions; `source` pins the endpoints of empty paths."""

    __slots__ = _fields = ("source", "transitions")

    def __init__(self, source: State, transitions: Iterable[Transition] = ()):
        self.source = cur = source
        self.transitions = transitions = tuple(transitions)
        for p, _, q in transitions:
            if p != cur:
                raise UnfoldingError("path transitions do not chain", (cur, p))
            cur = q

    @property
    def target(self) -> State:
        return self.transitions[-1][2] if self.transitions else self.source

    @property
    def word(self) -> tuple[int, ...]:
        return tuple(a for _, a, _ in self.transitions)

    def __len__(self) -> int:
        return len(self.transitions)

    def displacement(self, net: PetriNet) -> Vec:
        total = zero(net.dim)
        for _, a, _ in self.transitions:
            total = vadd(total, net.actions[a].displacement)
        return total

    def is_cycle(self) -> bool:
        return self.source == self.target


def validate_unfolding(
    net: PetriNet,
    index_set: Sequence[int],
    states: Iterable[State],
    transitions: Iterable[Transition],
) -> Unfolding:
    """Check the I-firing relation on every edge and strong connectivity."""
    index_set = tuple(sorted(index_set))
    if any(i < 0 or i >= net.dim for i in index_set):
        raise UnfoldingError("index set out of range", index_set)
    states = tuple(sorted(set(states)))
    if not states:
        raise UnfoldingError("empty state set")
    state_set = set(states)
    for s in states:
        if len(s) != len(index_set) or any(v < 0 for v in s):
            raise UnfoldingError("state is not an I-configuration", s)
    transitions = tuple(sorted(set(transitions)))
    for t in transitions:
        p, a, q = t
        if p not in state_set or q not in state_set:
            raise UnfoldingError("transition endpoint is not a state", t)
        if not 0 <= a < len(net.actions):
            raise UnfoldingError("unknown action index", t)
        if i_fires(net.actions[a], index_set, p) != q:
            raise UnfoldingError("transition violates the firing relation", t)
    position = {s: k for k, s in enumerate(states)}
    succ: list[list[int]] = [[] for _ in states]
    for p, _, q in transitions:
        succ[position[p]].append(position[q])
    label = strongly_connected_components(succ)
    if any(label):
        # component 0 reaches no other, so no path leaves it for the last one
        pair = (states[label.index(0)], states[label.index(max(label))])
        raise UnfoldingError("graph is not strongly connected", pair)
    return Unfolding(net, index_set, states, transitions)


# --- structural reversibility ----------------------------------------------


def _circulation_rows(net: PetriNet, size: int, shape: Shape) -> list[list[int]]:
    """Flow conservation per state position plus zero total displacement
    per axis, over the edges of `shape` on `size` states."""
    rows: list[list[int]] = [[0] * len(shape) for _ in range(size)]
    for j, (k, _, m) in enumerate(shape):
        rows[k][j] += 1
        rows[m][j] -= 1
    displacements = [net.actions[a].displacement for _, a, _ in shape]
    rows.extend([d[i] for d in displacements] for i in range(net.dim))
    return rows


def is_structurally_reversible(g: Unfolding) -> tuple[bool, dict[Transition, Fraction] | None]:
    """Euler test: a strictly positive circulation with zero displacement."""
    if "reversible" not in g._cache:
        rows = _circulation_rows(g.net, g.size, g.shape)
        flows = positive_circulation(rows, len(g.transitions))
        circulation = None if flows is None else dict(zip(g.transitions, flows))
        g._cache["reversible"] = (flows is not None, circulation)
    return g._cache["reversible"]


# --- cycles and the lattice L_G --------------------------------------------


def _tree(g: Unfolding, root: State, forward: bool = True) -> dict[State, Transition | None]:
    """Breadth-first tree at `root` along the edges (against them when not
    `forward`): each reached state maps to the edge that reached it.

    Edges are tried in sorted order, so the tree is the one a plain
    frontier-by-frontier search over that order discovers.
    """
    key = ("bfs", root, forward)
    if key not in g._cache:
        adjacent: dict[State, list[Transition]] = {}
        for t in g.transitions:
            adjacent.setdefault(t[0] if forward else t[2], []).append(t)
        parents: dict[State, Transition | None] = {root: None}
        queue = [root]
        for s in queue:
            for t in adjacent.get(s, ()):
                nxt = t[2] if forward else t[0]
                if nxt not in parents:
                    parents[nxt] = t
                    queue.append(nxt)
        g._cache[key] = parents
    return g._cache[key]


def _tree_path(parents: dict[State, Transition | None], s: State, forward: bool) -> list[Transition]:
    """The tree edges between the root and s, in walking order."""
    path: list[Transition] = []
    while parents[s] is not None:
        t = parents[s]
        path.append(t)
        s = t[0] if forward else t[2]
    return path[::-1] if forward else path


def elementary_path(g: Unfolding, p: State, q: State) -> UnfoldingPath:
    """The out-tree path p -> q; elementary because BFS tree paths are."""
    parents = _tree(g, p)
    if q not in parents:
        raise UnfoldingError("states are not connected", (p, q))
    return UnfoldingPath(p, tuple(_tree_path(parents, q, True)))


def cycle_walks(g: Unfolding) -> list[UnfoldingPath]:
    """Closed walks on r = states[0] whose displacements span L_G.

    With P the out-tree and Q the in-tree at r, the walks are P_p e Q_q
    for each edge e = (p, q).  Along any closed walk they sum to its
    displacement plus a sum of walks P_v Q_v, and each of those is the
    walk of v's out-tree edge, or empty at v = r, so they generate the
    closed-walk lattice.
    """
    r = g.states[0]
    out_tree, in_tree = _tree(g, r), _tree(g, r, forward=False)
    there = {v: _tree_path(out_tree, v, True) for v in g.states}
    back = {v: _tree_path(in_tree, v, False) for v in g.states}
    return [UnfoldingPath(r, (*there[p], (p, a, q), *back[q])) for p, a, q in g.transitions]


def lattice_of_unfolding(g: Unfolding) -> LatticeRepresentation:
    """Representation of the lattice spanned by closed-walk displacements."""
    if "lattice" not in g._cache:
        gens = sorted({w.displacement(g.net) for w in cycle_walks(g)})
        g._cache["lattice"] = representation_from_generators(gens, g.net.dim)
    return g._cache["lattice"]


def _integer_circulation(g: Unfolding) -> dict[Transition, int]:
    ok, flows = is_structurally_reversible(g)
    if not ok:
        raise UnfoldingError("unfolding is not structurally reversible")
    assert flows is not None
    scale = reduce(lcm, (f.denominator for f in flows.values()), 1)
    return {t: int(f * scale) for t, f in flows.items()}


def euler_circuit(g: Unfolding, counts: dict[Transition, int], anchor: State) -> UnfoldingPath:
    """A closed walk on `anchor` that takes each transition t exactly
    counts[t] times.

    Hierholzer's algorithm; the counts must balance in- and out-degree at
    every state, and the transitions they use must be reachable from
    `anchor`.
    """
    if anchor not in set(g.states):
        raise UnfoldingError("anchor is not a state", anchor)
    remaining = dict(counts)
    out: dict[State, list[Transition]] = {s: [] for s in g.states}
    for t in sorted(remaining):
        out[t[0]].append(t)

    circuit: list[Transition] = []
    path_stack: list[Transition] = []
    cur = anchor
    while True:
        edge = next((t for t in out[cur] if remaining[t] > 0), None)
        if edge is not None:
            remaining[edge] -= 1
            path_stack.append(edge)
            cur = edge[2]
        else:
            if not path_stack:
                break
            last = path_stack.pop()
            circuit.append(last)
            cur = last[0]
    circuit.reverse()
    cycle = UnfoldingPath(anchor, tuple(circuit))
    if any(v > 0 for v in remaining.values()):
        raise UnfoldingError("euler assembly left unused flow (graph not connected?)")
    assert cycle.is_cycle()
    return cycle


def _closed_walk_counts(g: Unfolding, cycle: UnfoldingPath) -> Counter:
    """How many times the closed walk `cycle` of g takes each transition."""
    used = Counter(cycle.transitions)
    if not cycle.is_cycle() or not set(used) <= set(g.transitions):
        raise UnfoldingError("not a closed walk of the unfolding", cycle)
    return used


def reverse_cycle(g: Unfolding, cycle: UnfoldingPath) -> UnfoldingPath:
    """A closed walk on the cycle's source with the negated displacement.

    With Z the integer circulation witness and k one more than the most
    times `cycle` takes a transition, k Z - count(cycle) is positive on
    every transition and balanced at every state, and its displacement
    is -displacement(cycle); the walk is its Euler circuit.
    """
    used = _closed_walk_counts(g, cycle)
    k = 1 + max(used.values(), default=0)
    counts = {t: k * z - used[t] for t, z in _integer_circulation(g).items()}
    back = euler_circuit(g, counts, cycle.source)
    assert back.displacement(g.net) == tuple(-v for v in cycle.displacement(g.net))
    return back


def embed_cycle(g: Unfolding, cycle: UnfoldingPath, anchor: State) -> UnfoldingPath:
    """A closed walk on `anchor` through every state with the cycle's
    displacement and |Z| + |cycle| transitions.

    With Z the integer circulation witness, Z + count(cycle) is positive
    on every transition and balanced at every state, and its displacement
    is displacement(cycle); the walk is its Euler circuit.  The empty
    cycle embeds as the circuit of Z, a zero-displacement full-state cycle.
    """
    used = _closed_walk_counts(g, cycle)
    counts = {t: z + used[t] for t, z in _integer_circulation(g).items()}
    walk = euler_circuit(g, counts, anchor)
    assert walk.displacement(g.net) == cycle.displacement(g.net)
    return walk


# --- construction from an explicit SCCC -------------------------------------


def unfolding_from_sccc(net: PetriNet, configs: Iterable[Vec], index_set: Sequence[int]) -> Unfolding:
    """The graph over C|_I with every action edge realized inside C."""
    index_set = tuple(sorted(index_set))
    cset = sorted(set(tuple(c) for c in configs))
    if not cset:
        raise UnfoldingError("empty configuration set")
    members = set(cset)
    states = {restrict(c, index_set) for c in cset}
    transitions = set()
    for x in cset:
        for idx, y in step_targets(net, x):
            if y in members:
                transitions.add((restrict(x, index_set), idx, restrict(y, index_set)))
    g = validate_unfolding(net, index_set, states, transitions)
    ok, _ = is_structurally_reversible(g)
    if not ok:
        raise UnfoldingError("constructed graph is not structurally reversible "
                             "(input was not a mutually-reachable set?)")
    return g


# --- enumeration -------------------------------------------------------------


class EnumLimits(Record):
    __slots__ = _fields = ("max_states", "max_unfoldings")

    def __init__(self, max_states: int = 6, max_unfoldings: int = 5000):
        # a state set has at least one state; a cap below 1 would still
        # yield the singleton sets, which the walk emits before any check
        if max_states < 1 or max_unfoldings < 0:
            raise UnfoldingError("invalid parameters")
        self.max_states = max_states
        self.max_unfoldings = max_unfoldings


def index_sets(dim: int) -> list[tuple[int, ...]]:
    """Every coordinate subset, by size and then lexicographically."""
    return [ix for size in range(dim + 1) for ix in itertools.combinations(range(dim), size)]


def _connected_subsets(neighbors: list[set[int]], max_size: int) -> Iterator[tuple[int, ...]]:
    """Connected subsets of an undirected graph, each exactly once."""
    n = len(neighbors)
    for root in range(n):
        start_ext = tuple(sorted(w for w in neighbors[root] if w > root))
        stack = [((root,), start_ext, frozenset())]
        while stack:
            cur, ext, banned = stack.pop()
            yield cur
            if len(cur) >= max_size:
                continue
            cur_set = set(cur)
            for i in range(len(ext)):
                v = ext[i]
                new_banned = banned | set(ext[:i])
                grown = set(ext[i + 1 :])
                for w in neighbors[v]:
                    if w > root and w not in cur_set and w != v and w not in new_banned:
                        grown.add(w)
                stack.append((tuple(sorted(cur_set | {v})), tuple(sorted(grown)), new_banned))


def bounded_states(index_set: Sequence[int], bound: int) -> list[State]:
    """All I-configurations with infinity norm strictly below `bound`."""
    return sorted(itertools.product(range(bound), repeat=len(index_set)))


def enumerate_unfoldings(
    net: PetriNet,
    index_set: Sequence[int],
    state_bound: int,
    limits: EnumLimits | None = None,
    forward_closed: bool = False,
    decided: dict[Shape, Shape | None] | None = None,
) -> Iterator[Unfolding]:
    """Structurally-reversible unfoldings over states of norm < state_bound.

    Every qualifying unfolding of the index set is yielded, in canonical
    order, and `limits.max_states` bounds each state set.  The walk takes
    no count cap: a caller takes at most `limits.max_unfoldings` of it and
    reads truncation from one more `next`.

    Each qualifying state set yields its unique maximal reversible
    transition set, which subsumes all smaller ones for formula purposes:
    unions of positive circulations are positive circulations, so
    lattice, cosets and pumping sets only grow.

    With `forward_closed` a state set that some enabled action leaves is
    skipped, and the transition set is forced: the maximal support must be
    every enabled edge.  Both modes ask `max_positive_support`.

    Whether a state set qualifies, and which edges it keeps, depend only
    on the net, the mode and the edge shape, never on the index set (the
    full-index shortcut gives the answer the LP would), so a caller that
    walks many index sets in one mode may pass one dict as `decided`: it
    maps each shape decided so far to its kept shape, or to None, and no
    shape is decided twice.

    A state set's edges are built only as a shape, and each unfolding
    reads its transitions off its states and its kept shape, which it
    carries as its `shape`, the very object `decided` holds.
    """
    limits = limits or EnumLimits()
    index_set = tuple(sorted(index_set))
    if state_bound < 1:
        raise UnfoldingError("state bound must be >= 1")
    all_states = bounded_states(index_set, state_bound)
    pos = {s: i for i, s in enumerate(all_states)}
    # Per state, whether an I-enabled target lies outside the state bound,
    # and its in-bound out-edges as (target position, action), in action
    # order; each action's pre and displacement are restricted to I once.
    moves = [(idx, restrict(a.pre, index_set), restrict(a.displacement, index_set))
             for idx, a in enumerate(net.actions)]
    escapes: list[bool] = []
    out_edges: list[list[tuple[int, int]]] = []
    for p in all_states:
        escaped = False
        out: list[tuple[int, int]] = []
        for idx, pre, delta in moves:
            if not all(map(operator.ge, p, pre)):
                continue
            j = pos.get(tuple(map(operator.add, p, delta)))
            if j is None:
                escaped = True
            else:
                out.append((j, idx))
        escapes.append(escaped)
        out_edges.append(out)

    # Every unfolding is strongly connected, so its states lie in one
    # strongly connected component of the bounded graph.  A closed, strongly
    # connected set is a whole component that no enabled action leaves: a
    # proper subset of a component always has an edge into the rest of it.
    # So in `forward_closed` mode the candidates are those components, in
    # order of their least state.  Otherwise the walk follows only edges
    # inside a component; it grows supersets, so this drops exactly the
    # sets that span two components and keeps the order of the rest.
    component = strongly_connected_components([[j for j, _ in out] for out in out_edges])
    if forward_closed:
        members: dict[int, list[int]] = {}
        leaky = set()
        for i, out in enumerate(out_edges):
            members.setdefault(component[i], []).append(i)
            if escapes[i] or any(component[j] != component[i] for j, _ in out):
                leaky.add(component[i])
        subsets: Iterable[Sequence[int]] = (
            m for c, m in members.items() if c not in leaky and len(m) <= limits.max_states
        )
    else:
        undirected: list[set[int]] = [set() for _ in all_states]
        for i, out in enumerate(out_edges):
            for j, _ in out:
                if j != i and component[j] == component[i]:
                    undirected[i].add(j)
                    undirected[j].add(i)
        subsets = _connected_subsets(undirected, limits.max_states)

    # Whether a state set qualifies, and which of its edges carry a positive
    # circulation, depend only on its shape: the edges as (local position,
    # action index, local position) over the sorted states, which fix the
    # circulation rows and, since every state of a connected set touches an
    # edge, the size.  Each distinct shape is decided once per `decided`
    # dict, a fresh one unless the caller passes its own, and maps to its
    # kept shape, the edges that carry a positive circulation, or to None;
    # read off the sorted states, those are in `Unfolding`'s order.
    decided = {} if decided is None else decided

    def strongly_connected(size: int, arcs: Shape) -> bool:
        succ: list[list[int]] = [[] for _ in range(size)]
        for k, _, m in arcs:
            succ[k].append(m)
        return not any(strongly_connected_components(succ))

    def decide(size: int, shape: Shape) -> Shape | None:
        """The shape of the edges to keep, or None to skip the state set."""
        if not forward_closed and size > 1 and not strongly_connected(size, shape):
            return None
        if forward_closed and len(index_set) == net.dim:
            # On the full index set an edge (p, a, q) has q - p = delta_a, so
            # each displacement row is a combination of the flow rows.  A
            # closed component is strongly connected, and the sum of one
            # cycle through each edge is a positive circulation.
            return shape
        support = max_positive_support(_circulation_rows(net, size, shape), len(shape))
        if len(support) == len(shape):
            return shape
        if forward_closed:
            return None
        kept_shape = tuple(shape[j] for j in support)
        if size > 1 and not strongly_connected(size, kept_shape):
            return None
        return kept_shape

    for subset in subsets:
        local = {i: k for k, i in enumerate(subset)}
        # Subsets are sorted, so edges keep the order of a full edge scan.
        shape: list[tuple[int, int, int]] = []
        for k, i in enumerate(subset):
            for j, a in out_edges[i]:
                m = local.get(j)
                if m is not None:
                    shape.append((k, a, m))
        key = tuple(shape)
        if key not in decided:
            decided[key] = decide(len(subset), key)
        kept_shape = decided[key]
        if kept_shape is None:
            continue
        states = tuple(all_states[i] for i in subset)
        yield Unfolding(net, index_set, states,
                        tuple((states[k], a, states[m]) for k, a, m in kept_shape), kept_shape)
