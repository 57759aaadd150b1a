"""Ground truth at desk scale: exhaustive reachability inside a box.

The reachability graph restricted to a box is exact for edges that stay
inside; verdicts about components are only trusted when nothing
forward-reachable from them can fire out of the box, so the oracle never
reports a guess as a fact.
"""

from __future__ import annotations

import itertools
from .net import PetriNet, step_targets
from .unfolding import strongly_connected_components
from .vectors import Vec, vec


def _box_tuple(dim: int, box) -> tuple[int, ...]:
    if isinstance(box, int):
        return (box,) * dim
    b = tuple(int(x) for x in box)
    if len(b) != dim:
        raise ValueError(f"box needs {dim} bounds")
    return b


class BoundedStateSpace:
    """Adjacency of single-action firing over configurations <= box."""

    def __init__(self, net: PetriNet, box):
        self.net = net
        self.box = _box_tuple(net.dim, box)
        self._succ: dict[Vec, list[tuple[int, Vec]]] = {}
        self._overflow: set[Vec] = set()
        for c in itertools.product(*[range(b + 1) for b in self.box]):
            succ = []
            for idx, target in step_targets(net, c):
                if all(t <= b for t, b in zip(target, self.box)):
                    succ.append((idx, target))
                else:
                    self._overflow.add(c)
            self._succ[c] = succ

        order = sorted(self._succ)
        index = {c: i for i, c in enumerate(order)}
        comp_of = strongly_connected_components([[index[t] for _, t in self._succ[c]] for c in order])
        members: list[list[Vec]] = [[] for _ in range(max(comp_of, default=-1) + 1)]
        for c, comp_id in zip(order, comp_of):
            members[comp_id].append(c)
        self._components = [frozenset(m) for m in members]
        self._comp_of = dict(zip(order, comp_of))

        # A component's verdicts are trusted only if nothing reachable
        # from it can fire out of the box.  Tarjan numbers every component
        # below each one it reaches, so in component order the taint of
        # every other component a configuration steps into is settled.
        tainted = [False] * len(members)
        for comp_id, comp in enumerate(members):
            for c in comp:
                tainted[comp_id] = (tainted[comp_id] or c in self._overflow
                                    or any(tainted[self._comp_of[t]] for _, t in self._succ[c]))
        self._tainted = tainted

    def inside(self, c: Vec) -> bool:
        return c in self._succ

    def successors(self, c: Vec) -> list[tuple[int, Vec]]:
        return self._succ[vec(c)]

    # --- components -----------------------------------------------------

    def components(self) -> list[frozenset]:
        return self._components

    def component_of(self, c: Vec) -> frozenset:
        return self._components[self._comp_of[vec(c)]]

    def reliable(self, component: frozenset) -> bool:
        member = next(iter(component))
        return not self._tainted[self._comp_of[member]]

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


def reach_graph_to_dot(space: BoundedStateSpace) -> str:
    """Bounded reachability graph with components colored."""
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
