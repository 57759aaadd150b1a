"""Constructive vector-sum reordering and zero-subsequence pruning.

The reordering keeps every prefix sum within d*m of the proportional
line, via a shrinking fractional certificate: while positions t = k..d+1
are assigned from the back, a vector lambda in [0,1]^B with sum t - d and
weighted sum ((t-d)/k) * total is maintained; ejecting a zero coordinate
of a vertex of that polytope preserves the invariant, and the certificate
itself proves the prefix bound (sum of (1 - lambda_j) weights <= d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .intlinalg import kernel_basis
from .vectors import Vec, norm_1, norm_inf, vadd, vec, zero


class SteinitzError(ValueError):
    pass


@dataclass(frozen=True)
class VectorBag:
    vectors: tuple[Vec, ...]
    norm_bound: int = field(init=False)

    def __post_init__(self):
        vs = tuple(vec(v) for v in self.vectors)
        dims = {len(v) for v in vs}
        if len(dims) > 1:
            raise SteinitzError(f"mixed dimensions: {sorted(dims)}")
        object.__setattr__(self, "vectors", vs)
        object.__setattr__(self, "norm_bound", max((norm_inf(v) for v in vs), default=0))

    @property
    def dim(self) -> int:
        return len(self.vectors[0]) if self.vectors else 0

    @property
    def total(self) -> Vec:
        if not self.vectors:
            return ()
        acc = zero(self.dim)
        for v in self.vectors:
            acc = vadd(acc, v)
        return acc


def _as_bag(vectors) -> VectorBag:
    return vectors if isinstance(vectors, VectorBag) else VectorBag(tuple(vectors))


def _eject_order(vectors: Sequence[Vec], dim: int) -> list[int]:
    """Assign positions from the back, returning the full permutation."""
    k = len(vectors)
    total = [Fraction(0)] * dim
    for v in vectors:
        for i in range(dim):
            total[i] += v[i]
    alive = list(range(k))
    lam = {j: Fraction(k - dim, k) for j in alive}
    placed: list[int] = []

    while len(alive) > dim:
        t = len(alive)
        # Rescale to the next mass t - 1 - d; entries stay within [0, 1].
        factor = Fraction(t - 1 - dim, t - dim)
        for j in alive:
            lam[j] *= factor
        # Push to a point with a zero coordinate, moving only strictly
        # fractional coordinates along kernel directions.
        while all(lam[j] != 0 for j in alive):
            frac = [j for j in alive if 0 < lam[j] < 1]
            rows = [[1] * len(frac)] + [[vectors[j][i] for j in frac] for i in range(dim)]
            kernel = kernel_basis(rows)
            assert kernel, "no zero coordinate at a certificate vertex"
            w = kernel[0]
            theta = None
            for idx, j in enumerate(frac):
                if w[idx] < 0:
                    cand = -lam[j] / w[idx]
                elif w[idx] > 0:
                    cand = (1 - lam[j]) / w[idx]
                else:
                    continue
                if theta is None or cand < theta:
                    theta = cand
            assert theta is not None and theta > 0
            for idx, j in enumerate(frac):
                lam[j] += theta * w[idx]
        j_star = next(j for j in alive if lam[j] == 0)
        placed.append(j_star)
        alive.remove(j_star)
        del lam[j_star]

    return alive + placed[::-1]


def check_prefix_bound(vectors: Sequence[Vec], perm: Sequence[int]) -> bool:
    """Exact check of the prefix bound for n in {d..k}."""
    bag = _as_bag(vectors)
    vs, d, m, k = bag.vectors, bag.dim, bag.norm_bound, len(bag.vectors)
    total = bag.total
    prefix = zero(d)
    for n, j in enumerate(perm, start=1):
        prefix = vadd(prefix, vs[j])
        if n < d:
            continue
        for i in range(d):
            if abs(Fraction(prefix[i]) - Fraction(n - d, k) * total[i]) > d * m:
                return False
    return True


def steinitz_permutation(vectors) -> tuple[int, ...]:
    """Permutation keeping prefixes within d*m of the proportional line."""
    bag = _as_bag(vectors)
    k = len(bag.vectors)
    if k == 0:
        return ()
    if k <= bag.dim:
        return tuple(range(k))
    perm = tuple(_eject_order(bag.vectors, bag.dim))
    if not check_prefix_bound(bag, perm):
        raise SteinitzError("constructive reordering failed the prefix bound")
    return perm


def prefix_safe_reorder(vectors) -> tuple[int, ...]:
    """Permutation with prefix(i) >= min(total(i), 0) - m*d per coordinate."""
    bag = _as_bag(vectors)
    perm = steinitz_permutation(bag) if bag.vectors else ()
    d, m = bag.dim, bag.norm_bound
    total = bag.total
    prefix = zero(d)
    for j in perm:
        prefix = vadd(prefix, bag.vectors[j])
        assert all(
            prefix[i] >= min(total[i], 0) - m * d for i in range(d)
        ), "prefix-safety bound violated"
    return perm


def _monotone_decomposition(vectors: Sequence[Vec], total: Vec) -> list[Vec]:
    """Non-negative pieces e_j <= max(0, z_j) with sum(e) = total (>= 0)."""
    d = len(total)
    c_prev = zero(d)
    out = []
    for v in vectors:
        c_next = tuple(c_prev[i] + max(0, v[i]) for i in range(d))
        e = tuple(min(total[i], c_next[i]) - min(total[i], c_prev[i]) for i in range(d))
        out.append(e)
        c_prev = c_next
    return out


def _zero_sum_subset(vectors: Sequence[Vec], budget: int) -> list[int] | None:
    """Some nonempty zero-sum subset, by dynamic programming over the
    reachable partial sums (bounded by k*m per coordinate), or None if
    there is none or the work budget runs out."""
    d = len(vectors[0]) if vectors else 0
    reached: dict[Vec, tuple[Vec | None, int]] = {}
    ops = 0
    for j, v in enumerate(vectors):
        if not any(v):
            return [j]
        ops += len(reached) + 1
        if ops > budget:
            return None
        additions: list[tuple[Vec, tuple[Vec | None, int]]] = []
        if v not in reached:
            additions.append((v, (None, j)))
        for s in reached:
            t = vadd(s, v)
            if t not in reached:
                additions.append((t, (s, j)))
        for t, parent in additions:
            if t not in reached:
                reached[t] = parent
        if zero(d) in reached:
            subset = []
            cur: Vec | None = zero(d)
            while cur is not None:
                prev, idx = reached[cur]
                subset.append(idx)
                cur = prev
            return sorted(subset)
    return None


def prune_zero_subsequences(vectors) -> tuple[int, ...]:
    """Index subset J with the same sum and |J| <= 2*|z|_1*(3dm)^d.

    Stage one reorders the zero-sum residual by the prefix-balancing
    permutation and removes the longest run whose residual prefix sums
    collide while the non-negative pieces vanish; such a run sums to
    zero, and once no run is removable, windows of (3dm)^d positions each
    carry some mass of z, which forces the size bound.  Stage two removes
    remaining zero-sum subsets found by partial-sum dynamic programming;
    if its state budget runs out, the current J is returned, which
    already meets the bound.
    """
    bag = _as_bag(vectors)
    d, m = bag.dim, bag.norm_bound
    k0 = len(bag.vectors)
    if k0 == 0:
        return ()
    total = bag.total
    flip = [-1 if total[i] < 0 else 1 for i in range(d)]
    work = [(j, tuple(flip[i] * v[i] for i in range(d))) for j, v in enumerate(bag.vectors)]
    target = tuple(flip[i] * total[i] for i in range(d))

    # each round removes a nonempty run or stops, so at most k0 rounds run
    while work:
        ws = [w for _, w in work]
        es = _monotone_decomposition(ws, target)
        vs = [tuple(w[i] - e[i] for i in range(d)) for w, e in zip(ws, es)]
        perm = steinitz_permutation(VectorBag(tuple(vs)))
        ordered = [(work[j], es[j], vs[j]) for j in perm]
        prefix = zero(d)
        seen: dict[Vec, int] = {prefix: 0}
        last_nonzero_e = 0
        best: tuple[int, int] | None = None
        for pos, (_, e, v) in enumerate(ordered, start=1):
            if any(e):
                seen = {vadd(prefix, v): pos}
                prefix = vadd(prefix, v)
                last_nonzero_e = pos
                continue
            prefix = vadd(prefix, v)
            if prefix in seen:
                p = seen[prefix]
                if p >= last_nonzero_e and (best is None or pos - p > best[1] - best[0]):
                    best = (p, pos)
            else:
                seen[prefix] = pos
        if best is None:
            break
        p, q = best
        removed = ordered[p:q]
        assert all(not any(e) for _, e, _ in removed)
        kept = ordered[:p] + ordered[q:]
        work = [entry for entry, _, _ in kept]

    while work:
        subset = _zero_sum_subset([w for _, w in work], budget=60000)
        if subset is None:
            break
        doomed = set(subset)
        work = [entry for pos, entry in enumerate(work) if pos not in doomed]

    kept_indices = tuple(sorted(j for j, _ in work))
    acc = zero(d)
    for j in kept_indices:
        acc = vadd(acc, bag.vectors[j])
    assert acc == total, "pruning changed the total sum"
    bound = 2 * norm_1(total) * (3 * d * m) ** d
    if len(kept_indices) > bound:
        raise SteinitzError(
            f"pruning budget exhausted above the size bound ({len(kept_indices)} > {bound})"
        )
    return kept_indices
