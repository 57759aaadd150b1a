"""I-unfoldings: strongly-connected graphs over partial configurations.

States are restrictions of configurations to a coordinate subset I; edges
carry net actions consistent with the restricted firing relation.  An
unfolding is structurally reversible when every edge's displacement can
be cancelled by a return path, equivalently when a strictly positive
circulation with zero total displacement exists (Euler's condition).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Iterable, Iterator, Sequence

from .lattice import LatticeCoset, LatticeRepresentation, representation_from_generators
from .net import Action, PetriNet
from .ratlp import max_positive_support, positive_circulation
from .vectors import Vec, norm_inf, restrict, vadd, zero

State = Vec  # values over the unfolding's index set, in index order
Transition = tuple[State, int, State]  # (source, action index, target)


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


def _bfs_parents(
    transitions: Iterable[Transition], root: State, forward: bool = True
) -> dict[State, Transition | None]:
    """Breadth-first tree at `root` along the edges (against them when not
    `forward`): each reached state maps to the edge that reached it.

    Edges are tried in the given order, so the tree is the one a plain
    frontier-by-frontier search over that order discovers.
    """
    adjacent: dict[State, list[Transition]] = {}
    for t in transitions:
        adjacent.setdefault(t[0] if forward else t[2], []).append(t)
    parents: dict[State, Transition | None] = {root: None}
    queue = [root]
    for s in queue:
        for t in adjacent.get(s, ()):
            nxt = t[2] if forward else t[0]
            if nxt not in parents:
                parents[nxt] = t
                queue.append(nxt)
    return parents


def _strongly_connected(states: Sequence[State], transitions: Sequence[Transition]) -> tuple[bool, tuple | None]:
    """Every state reached from and reaching states[0]; on failure returns
    a pair (p, q) with no path p -> q."""
    root = states[0]
    for forward in (True, False):
        reached = _bfs_parents(transitions, root, forward)
        for s in states:
            if s not in reached:
                return False, (root, s) if forward else (s, root)
    return True, None


@dataclass(frozen=True)
class Unfolding:
    net: PetriNet
    index_set: tuple[int, ...]
    states: tuple[State, ...]
    transitions: tuple[Transition, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "index_set", tuple(self.index_set))
        object.__setattr__(self, "states", tuple(sorted(self.states)))
        object.__setattr__(self, "transitions", tuple(sorted(self.transitions)))

    def __hash__(self):
        return hash((self.index_set, self.states, self.transitions))

    @property
    def size(self) -> int:
        return len(self.states)

    def action(self, idx: int) -> Action:
        return self.net.actions[idx]

    def state_norm(self) -> int:
        return max((norm_inf(s) for s in self.states), default=0)


@dataclass(frozen=True)
class UnfoldingPath:
    """A chain of transitions; `start` pins the endpoints of empty paths."""

    start: State
    transitions: tuple[Transition, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(self.transitions))
        cur = self.start
        for p, _, q in self.transitions:
            if p != cur:
                raise UnfoldingError("path transitions do not chain", (cur, p))
            cur = q

    @property
    def source(self) -> State:
        return self.start

    @property
    def target(self) -> State:
        return self.transitions[-1][2] if self.transitions else self.start

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

    def states_visited(self) -> set[State]:
        seen = {self.start}
        for _, _, q in self.transitions:
            seen.add(q)
        return seen

    def concat(self, other: "UnfoldingPath") -> "UnfoldingPath":
        if self.target != other.source:
            raise UnfoldingError("concatenation endpoints do not match")
        return UnfoldingPath(self.start, self.transitions + other.transitions)

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
    ok, pair = _strongly_connected(states, transitions)
    if not ok:
        raise UnfoldingError("graph is not strongly connected", pair)
    return Unfolding(net, index_set, states, transitions)


# --- structural reversibility ----------------------------------------------


def _circulation_rows(
    net: PetriNet, states: Sequence[State], edges: Sequence[Transition]
) -> list[list[int]]:
    """Flow conservation per state plus zero total displacement per axis."""
    rows: list[list[int]] = []
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


def is_structurally_reversible(g: Unfolding) -> tuple[bool, dict[Transition, Fraction] | None]:
    """Euler test: a strictly positive circulation with zero displacement."""
    if "reversible" not in g._cache:
        rows = _circulation_rows(g.net, g.states, g.transitions)
        flows = positive_circulation(rows, len(g.transitions))
        if flows is None:
            g._cache["reversible"] = (False, None)
        else:
            g._cache["reversible"] = (True, dict(zip(g.transitions, flows)))
    return g._cache["reversible"]


def reverse_path_for(g: Unfolding, t: Transition, bound: int) -> UnfoldingPath:
    """Path p from target(t) to source(t) with displacement(t p) = 0.

    Breadth-first over (state, partial displacement) with entries clamped
    to [-bound*m, bound*m]; raises when the window is exhausted.
    """
    if not is_structurally_reversible(g)[0]:
        raise UnfoldingError("unfolding is not structurally reversible")
    m = max(g.net.norm, 1)
    clamp = bound * m
    start = (t[2], g.action(t[1]).displacement)
    goal = (t[0], zero(g.net.dim))
    parents: dict[tuple, tuple | None] = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            if node == goal:
                path: list[Transition] = []
                cur = node
                while parents[cur] is not None:
                    prev, edge = parents[cur]
                    path.append(edge)
                    cur = prev
                return UnfoldingPath(t[2], tuple(reversed(path)))
            state, disp = node
            for edge in g.transitions:
                if edge[0] != state:
                    continue
                ndisp = vadd(disp, g.action(edge[1]).displacement)
                if norm_inf(ndisp) > clamp:
                    continue
                child = (edge[2], ndisp)
                if child not in parents:
                    parents[child] = (node, edge)
                    nxt.append(child)
        frontier = nxt
        if goal in parents:
            frontier = [goal] + [n for n in frontier if n != goal]
    raise UnfoldingError("no zero-sum return path within bound", (t, bound))


# --- cycles and the lattice L_G --------------------------------------------


def _tree(g: Unfolding, root: State, forward: bool = True) -> dict[State, Transition | None]:
    key = ("bfs", root, forward)
    if key not in g._cache:
        g._cache[key] = _bfs_parents(g.transitions, root, forward)
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
    for each edge e = (p, q) and P_v Q_v for each state v.  Along any
    closed walk the first kind sums to its displacement plus a sum of the
    second kind, so together they generate the closed-walk lattice.
    """
    r = g.states[0]
    out_tree, in_tree = _tree(g, r), _tree(g, r, forward=False)
    there = {v: _tree_path(out_tree, v, True) for v in g.states}
    back = {v: _tree_path(in_tree, v, False) for v in g.states}
    walks = [(*there[p], (p, a, q), *back[q]) for p, a, q in g.transitions]
    walks += [(*there[v], *back[v]) for v in g.states]
    return [UnfoldingPath(r, w) for w in walks]


def lattice_of_unfolding(g: Unfolding) -> LatticeRepresentation:
    """Representation of the lattice spanned by closed-walk displacements."""
    if "lattice" not in g._cache:
        gens = sorted({w.displacement(g.net) for w in cycle_walks(g)})
        g._cache["lattice"] = representation_from_generators(gens, g.net.dim)
    return g._cache["lattice"]


def coset_between(g: Unfolding, p: State, q: State) -> LatticeCoset:
    """The displacement coset of all paths p -> q: offset + L_G."""
    path = elementary_path(g, p, q)
    offset = path.displacement(g.net)
    assert norm_inf(offset) <= g.size * g.net.norm
    return LatticeCoset(offset, lattice_of_unfolding(g))


def _integer_circulation(g: Unfolding) -> dict[Transition, int]:
    ok, flows = is_structurally_reversible(g)
    if not ok:
        raise UnfoldingError("unfolding is not structurally reversible")
    assert flows is not None
    scale = reduce(lcm, (f.denominator for f in flows.values()), 1)
    return {t: int(f * scale) for t, f in flows.items()}


def zero_full_state_cycle(g: Unfolding, anchor: State) -> UnfoldingPath:
    """A zero-displacement cycle on `anchor` visiting every state.

    Assembled as an Euler circuit of the multigraph weighted by the
    integer-scaled circulation witness, which covers every transition.
    """
    if anchor not in set(g.states):
        raise UnfoldingError("anchor is not a state", anchor)
    if not g.transitions:
        if g.size != 1:
            raise UnfoldingError("no transitions but several states")
        return UnfoldingPath(anchor)
    counts = _integer_circulation(g)
    remaining = {t: c for t, c in counts.items()}
    out: dict[State, list[Transition]] = {s: [] for s in g.states}
    for t in sorted(remaining):
        out[t[0]].append(t)

    # Hierholzer with explicit stack.
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
    assert cycle.displacement(g.net) == zero(g.net.dim)
    assert cycle.states_visited() == set(g.states)
    return cycle


def rotate_cycle(cycle: UnfoldingPath, anchor: State) -> UnfoldingPath:
    if not cycle.is_cycle():
        raise UnfoldingError("cannot rotate a non-cycle")
    if cycle.source == anchor:
        return cycle
    ts = cycle.transitions
    for i, t in enumerate(ts):
        if t[0] == anchor:
            return UnfoldingPath(anchor, ts[i:] + ts[:i])
    raise UnfoldingError("anchor does not occur on the cycle", anchor)


def embed_simple_cycle(
    g: Unfolding,
    zero_cycle: UnfoldingPath,
    cycle: UnfoldingPath,
    anchor: State | None = None,
) -> UnfoldingPath:
    """Insert a cycle into a full-state zero cycle; the result is a
    full-state cycle with the inserted cycle's displacement, rotated to
    `anchor` (default: the zero cycle's own anchor)."""
    if anchor is None:
        anchor = zero_cycle.source
    base = rotate_cycle(zero_cycle, cycle.source) if zero_cycle.transitions else zero_cycle
    if base.source != cycle.source:
        raise UnfoldingError("cycle state does not occur on the zero cycle", cycle.source)
    combined = cycle.concat(base) if base.transitions else cycle
    return rotate_cycle(combined, anchor)


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
        for idx, a in enumerate(net.actions):
            if all(c >= p for c, p in zip(x, a.pre, strict=True)):
                y = vadd(x, a.displacement)
                if y in members:
                    transitions.add((restrict(x, index_set), idx, restrict(y, index_set)))
    g = validate_unfolding(net, index_set, states, transitions)
    ok, _ = is_structurally_reversible(g)
    if not ok:
        raise UnfoldingError("constructed graph is not structurally reversible "
                             "(input was not a mutually-reachable set?)")
    return g


# --- enumeration -------------------------------------------------------------


@dataclass
class EnumLimits:
    max_states: int = 6
    max_unfoldings: int = 5000


@dataclass
class EnumStats:
    emitted: int = 0
    truncated: bool = False


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
    stats: EnumStats | None = None,
    forward_closed: bool = False,
) -> Iterator[Unfolding]:
    """Structurally-reversible unfoldings over states of norm < state_bound.

    Each qualifying state set yields its unique maximal reversible
    transition set, which subsumes all smaller ones for formula purposes:
    unions of positive circulations are positive circulations, so
    lattice, cosets and pumping sets only grow.

    With `forward_closed` a state set that some enabled action leaves is
    skipped, and the transition set is forced: all enabled edges must
    carry a positive circulation together.
    """
    limits = limits or EnumLimits()
    stats = stats if stats is not None else EnumStats()
    index_set = tuple(sorted(index_set))
    if state_bound < 1:
        raise UnfoldingError("state bound must be >= 1")
    all_states = bounded_states(index_set, state_bound)
    pos = {s: i for i, s in enumerate(all_states)}
    # Per state, the position of each I-enabled target; None marks a
    # target outside the state bound.
    targets: list[list[int | None]] = []
    all_edges: list[Transition] = []
    undirected: list[set[int]] = [set() for _ in all_states]
    for i, p in enumerate(all_states):
        fired: list[int | None] = []
        for idx, a in enumerate(net.actions):
            q = i_fires(a, index_set, p)
            if q is None:
                continue
            j = pos.get(q)
            fired.append(j)
            if j is None:
                continue
            all_edges.append((p, idx, q))
            if j != i:
                undirected[i].add(j)
                undirected[j].add(i)
        targets.append(fired)

    for subset in _connected_subsets(undirected, limits.max_states):
        # The closed filter runs before any edge list is built: it rejects
        # most subsets, and building edges first is markedly slower.
        if forward_closed:
            members = set(subset)
            if any(j not in members for i in subset for j in targets[i]):
                continue
        states = tuple(all_states[i] for i in subset)
        sset = set(states)
        edges = [t for t in all_edges if t[0] in sset and t[2] in sset]
        if len(states) > 1 and not _strongly_connected(states, edges)[0]:
            continue
        rows = _circulation_rows(net, states, edges)
        if forward_closed:
            if positive_circulation(rows, len(edges)) is None:
                continue
        else:
            edges = [edges[j] for j in max_positive_support(rows, len(edges))]
            if len(states) > 1 and not _strongly_connected(states, edges)[0]:
                continue
        if stats.emitted >= limits.max_unfoldings:
            stats.truncated = True
            return
        yield Unfolding(net, index_set, states, tuple(edges))
        stats.emitted += 1


def collect_unfoldings(
    net: PetriNet,
    index_set: Sequence[int],
    state_bound: int,
    limits: EnumLimits | None = None,
) -> tuple[list[Unfolding], EnumStats]:
    stats = EnumStats()
    gs = list(enumerate_unfoldings(net, index_set, state_bound, limits, stats))
    return gs, stats


# --- DOT export --------------------------------------------------------------


def unfolding_to_dot(g: Unfolding, name: str = "unfolding") -> str:
    def label(s: State) -> str:
        return "(" + ",".join(map(str, s)) + ")"

    lines = [f"digraph {name} {{"]
    lines.append(f'  label="I={list(g.index_set)}";')
    for s in g.states:
        lines.append(f'  "{label(s)}";')
    for p, a, q in g.transitions:
        delta = g.action(a).displacement
        lines.append(f'  "{label(p)}" -> "{label(q)}" [label="a{a} d={list(delta)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
