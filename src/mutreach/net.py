"""Petri net syntax and operational semantics.

A net is a finite set of actions (pre, post) over d counters.  Firing a
word subtracts and adds vectors while counters stay non-negative.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .vectors import Record, Vec, is_nonnegative, norm_inf, vadd, vec, vsub

Config = Vec


class NetError(ValueError):
    pass


class Blocked(NetError):
    """A word failed to fire; `step` is the 1-based offending position."""

    def __init__(self, step: int, coordinate: int, config: Config):
        self.step = step
        self.coordinate = coordinate
        self.config = config
        super().__init__(
            f"blocked at step {step}: coordinate {coordinate} of {config} would go negative"
        )


class Action(Record):
    """A pair (pre, post) of configurations of equal dimension."""

    __slots__ = ("pre", "post", "displacement")
    _fields = ("pre", "post")

    def __init__(self, pre: Config, post: Config):
        self.pre = pre = vec(pre)
        self.post = post = vec(post)
        if len(pre) != len(post):
            raise NetError(f"action dimension mismatch: {pre} vs {post}")
        if not (is_nonnegative(pre) and is_nonnegative(post)):
            raise NetError(f"action entries must be non-negative: {pre} -> {post}")
        # post - pre, computed once; derived, so not part of equality or hash
        self.displacement = vsub(post, pre)

    @property
    def dim(self) -> int:
        return len(self.pre)

    @property
    def norm(self) -> int:
        return max(norm_inf(self.pre), norm_inf(self.post))


class PetriNet(Record):
    __slots__ = ("dim", "actions", "norm")
    _fields = ("dim", "actions")

    def __init__(self, dim: int, actions: Sequence[Action]):
        self.dim = dim
        self.actions = actions = tuple(actions)
        if dim < 1:
            raise NetError("dimension must be >= 1")
        for a in actions:
            if a.dim != dim:
                raise NetError(f"action {a} has dimension {a.dim}, net has {dim}")
        self.norm = max((a.norm for a in actions), default=0)

    def word(self, indices: Sequence[int]) -> tuple[Action, ...]:
        """Expand a word stored as indices into the action table."""
        return tuple(self.actions[i] for i in indices)


def fire(x: Config, word: Sequence[Action]) -> Config:
    """Fire the word from x, raising Blocked at the first failing step."""
    cur = vec(x)
    for step, a in enumerate(word, start=1):
        for i, (c, p) in enumerate(zip(cur, a.pre, strict=True)):
            if c < p:
                raise Blocked(step, i, cur)
        cur = vadd(cur, a.displacement)
    return cur


def step_targets(net: PetriNet, x: Config) -> Iterator[tuple[int, Config]]:
    """Single-action successors of x, as (action index, target) pairs."""
    for idx, a in enumerate(net.actions):
        if all(c >= p for c, p in zip(x, a.pre, strict=True)):
            yield idx, vadd(x, a.displacement)


# --- net file format -------------------------------------------------------
#
#   # comment
#   dim 2
#   pre: 1 0  post: 0 1


def parse_net(text: str) -> PetriNet:
    dim: int | None = None
    actions: list[Action] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("dim"):
            if dim is not None:
                raise NetError(f"line {lineno}: duplicate dim header")
            tokens = line.split()
            try:
                dim = int(tokens[1]) if tokens[0] == "dim" and len(tokens) == 2 else 0
            except ValueError:
                dim = 0
            if dim < 1:
                raise NetError(f"line {lineno}: malformed dim header: {line!r}")
            continue
        if dim is None:
            raise NetError(f"line {lineno}: dim header must come first")
        if not line.startswith("pre:") or "post:" not in line:
            raise NetError(f"line {lineno}: expected 'pre: ... post: ...': {line!r}")
        for tag in ("pre:", "post:"):
            if line.count(tag) > 1:
                raise NetError(f"line {lineno}: repeated {tag!r}")
        pre_part, post_part = line[len("pre:"):].split("post:", 1)
        try:
            pre = vec(int(t) for t in pre_part.split())
            post = vec(int(t) for t in post_part.split())
        except ValueError:
            raise NetError(f"line {lineno}: non-integer entry: {line!r}") from None
        if len(pre) != dim or len(post) != dim:
            raise NetError(f"line {lineno}: expected {dim} entries per vector")
        actions.append(Action(pre, post))
    if dim is None:
        raise NetError("missing dim header")
    return PetriNet(dim, tuple(actions))


def load_net(path) -> PetriNet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_net(fh.read())


def parse_config(text: str, dim: int | None = None) -> Config:
    values = []
    for t in text.replace(",", " ").split():
        try:
            values.append(int(t))
        except ValueError:
            raise NetError(f"non-integer entry {t!r} in configuration {text!r}") from None
    entries = vec(values)
    if dim is not None and len(entries) != dim:
        raise NetError(f"expected {dim} entries, got {len(entries)}")
    if not is_nonnegative(entries):
        raise NetError(f"configurations are non-negative: {entries}")
    return entries
