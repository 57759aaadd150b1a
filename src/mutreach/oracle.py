"""Ground truth at desk scale: exhaustive reachability inside a box.

The reachability graph restricted to a box is exact for edges that stay
inside; verdicts about components are only trusted when nothing
forward-reachable from them can fire out of the box, so the oracle never
reports a guess as a fact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from .net import PetriNet, step_targets
from .vectors import Vec, vec


def _box_tuple(dim: int, box) -> tuple[int, ...]:
    if isinstance(box, int):
        return (box,) * dim
    b = tuple(int(x) for x in box)
    if len(b) != dim:
        raise ValueError(f"box needs {dim} bounds")
    return b


@dataclass
class BoundedStateSpace:
    """Adjacency of single-action firing over configurations <= box."""

    net: PetriNet
    box: tuple[int, ...]
    _succ: dict[Vec, list[tuple[int, Vec]]] = field(default_factory=dict, repr=False)
    _overflow: set[Vec] = field(default_factory=set, repr=False)
    _components: list[frozenset] | None = field(default=None, repr=False)
    _comp_of: dict[Vec, int] = field(default_factory=dict, repr=False)
    _tainted: set[int] = field(default_factory=set, repr=False)

    def __init__(self, net: PetriNet, box):
        self.net = net
        self.box = _box_tuple(net.dim, box)
        self._succ = {}
        self._overflow = set()
        self._components = None
        self._comp_of = {}
        self._tainted = set()
        for c in itertools.product(*[range(b + 1) for b in self.box]):
            succ = []
            for idx, target in step_targets(net, c):
                if all(t <= b for t, b in zip(target, self.box)):
                    succ.append((idx, target))
                else:
                    self._overflow.add(c)
            self._succ[c] = succ

    def inside(self, c: Vec) -> bool:
        return c in self._succ

    def successors(self, c: Vec) -> list[tuple[int, Vec]]:
        return self._succ[vec(c)]

    def overflows(self, c: Vec) -> bool:
        return vec(c) in self._overflow

    # --- components -----------------------------------------------------

    def components(self) -> list[frozenset]:
        if self._components is None:
            self._compute_components()
        return self._components

    def _compute_components(self):
        order = sorted(self._succ)
        index = {c: i for i, c in enumerate(order)}
        n = len(order)
        succ = [[index[t] for _, t in self._succ[c]] for c in order]
        idx = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        counter = 0
        comps: list[frozenset] = []
        comp_of = [0] * n
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
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        members.append(order[w])
                        if w == v:
                            break
                    comp_id = len(comps)
                    comps.append(frozenset(members))
                    for m in members:
                        comp_of[index[m]] = comp_id
        self._components = comps
        self._comp_of = {c: comp_of[index[c]] for c in order}

        # A component's verdicts are trusted only if nothing reachable
        # from it can fire out of the box: taint flows backwards.
        rev: dict[int, set[int]] = {i: set() for i in range(len(comps))}
        tainted = set()
        for c in order:
            ci = self._comp_of[c]
            if c in self._overflow:
                tainted.add(ci)
            for t in succ[index[c]]:
                ti = comp_of[t]
                if ti != ci:
                    rev[ti].add(ci)
        frontier = list(tainted)
        while frontier:
            x = frontier.pop()
            for p in rev[x]:
                if p not in tainted:
                    tainted.add(p)
                    frontier.append(p)
        self._tainted = tainted

    def component_of(self, c: Vec) -> frozenset:
        self.components()
        return self._components[self._comp_of[vec(c)]]

    def reliable(self, component: frozenset) -> bool:
        self.components()
        member = next(iter(component))
        return self._comp_of[member] not in self._tainted

    # --- verdicts -------------------------------------------------------

    def mutual(self, x: Vec, y: Vec) -> bool | None:
        x, y = vec(x), vec(y)
        if not (self.inside(x) and self.inside(y)):
            raise ValueError("configurations outside the box")
        cx, cy = self.component_of(x), self.component_of(y)
        if cx == cy:
            return True
        if self.reliable(cx) or self.reliable(cy):
            return False
        return None

    def bottom(self, c: Vec) -> bool | None:
        c = vec(c)
        if not self.inside(c):
            raise ValueError(f"{c} is outside the box")
        comp = self.component_of(c)
        if not self.reliable(comp):
            return None
        for member in comp:
            for _, t in self.successors(member):
                if t not in comp:
                    return False
        return True


def bounded_reach(net: PetriNet, x: Vec, box) -> tuple[set, bool]:
    """Forward reachability from x restricted to the box.

    The flag reports whether some firing left the box, in which case the
    set is only a lower bound on true reachability.
    """
    space = BoundedStateSpace(net, box)
    x = vec(x)
    if not space.inside(x):
        raise ValueError(f"{x} is outside the box")
    seen = {x}
    frontier = [x]
    clipped = False
    while frontier:
        nxt = []
        for c in frontier:
            if space.overflows(c):
                clipped = True
            for _, t in space.successors(c):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen, clipped


def sccc_in_box(net: PetriNet, box) -> list[tuple[frozenset, bool]]:
    """Components of the box-restricted graph with reliability flags."""
    space = BoundedStateSpace(net, box)
    return [(comp, space.reliable(comp)) for comp in space.components()]


def oracle_mutual(net: PetriNet, x: Vec, y: Vec, box) -> bool | None:
    """True / False / None (unreliable).

    Same restricted component always means truly mutually reachable
    (in-box paths are real).  Different components refute mutuality only
    when at least one side's component is fully known.  For sweeps, build
    one BoundedStateSpace and use its `mutual` method instead.
    """
    return BoundedStateSpace(net, box).mutual(x, y)


def oracle_bottom(net: PetriNet, c: Vec, box) -> bool | None:
    """Whether c's component is forward-closed; None when unreliable."""
    return BoundedStateSpace(net, box).bottom(c)


def reach_graph_to_dot(net: PetriNet, box) -> str:
    """Bounded reachability graph with components colored."""
    space = BoundedStateSpace(net, box)
    comps = space.components()
    palette = [
        "lightblue", "lightgreen", "lightsalmon", "lightyellow", "plum",
        "lightcyan", "mistyrose", "lavender", "honeydew", "seashell",
    ]
    def label(c: Vec) -> str:
        return "(" + ",".join(map(str, c)) + ")"
    lines = ["digraph reach {", "  node [style=filled];"]
    for i, comp in enumerate(comps):
        color = palette[i % len(palette)]
        mark = "" if space.reliable(comp) else "?"
        for c in sorted(comp):
            lines.append(f'  "{label(c)}" [fillcolor={color} label="{label(c)}{mark}"];')
    for c in sorted(space._succ):
        for idx, t in space.successors(c):
            lines.append(f'  "{label(c)}" -> "{label(t)}" [label="a{idx}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
