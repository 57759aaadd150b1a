"""Constructive vector-sum reordering and zero-subsequence pruning.

The reordering keeps every prefix sum within d*m of the proportional
line, via a shrinking fractional certificate (Grinberg & Sevast'yanov,
1980): while positions t = k..d+1 are assigned from the back, a vector
lambda in [0,1]^B with sum t - d and weighted sum ((t-d)/k) * total is
maintained; ejecting a zero coordinate of a vertex of that polytope
preserves the invariant, and the certificate itself proves the prefix
bound (sum of (1 - lambda_j) weights <= d).  Each move towards a vertex
solves one fixed-size system: a kernel direction of the d + 1 mass and
weight constraints on d + 2 strictly fractional coordinates.

`prefix_safe_reorder` is the one checked order: path synthesis fires
repaying cycles in it, and `prune_zero_subsequences` reorders its
residuals by it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .intlinalg import kernel_basis
from .vectors import Vec, norm_1, norm_inf, vadd, vec, zero


class SteinitzError(ValueError):
    pass


def _checked(vectors) -> tuple[list[Vec], int, int, Vec]:
    """The vectors as int tuples, with their dimension d, the largest
    entry m in absolute value, and their total."""
    vs = [vec(v) for v in vectors]
    dims = {len(v) for v in vs}
    if len(dims) > 1:
        raise SteinitzError(f"mixed dimensions: {sorted(dims)}")
    d = len(vs[0]) if vs else 0
    total = zero(d)
    for v in vs:
        total = vadd(total, v)
    return vs, d, max((norm_inf(v) for v in vs), default=0), total


def _eject_order(vectors: Sequence[Vec], dim: int) -> list[int]:
    """Assign positions from the back, returning the full permutation."""
    k = len(vectors)
    alive = list(range(k))
    lam = {j: Fraction(k - dim, k) for j in alive}
    placed: list[int] = []

    while len(alive) > dim:
        t = len(alive)
        # Rescale to the next mass t - 1 - d.  Entries were at most 1 and
        # the factor is below 1, so every nonzero one is now fractional.
        factor = Fraction(t - 1 - dim, t - dim)
        for j in alive:
            lam[j] *= factor
        frac = [j for j in alive if lam[j]]
        j_star = next((j for j in alive if not lam[j]), None)
        # Push to a point with a zero coordinate.  While there is none,
        # the f fractional entries sum to f - 1 - d (the rest are 1).  That
        # sum is positive, as f = 0 would put the mass at t, so f >= d + 2:
        # the d + 1 mass and weight equations on the first d + 2 of them
        # have a nonzero kernel vector w, whose entries sum to 0.  Stepping
        # along w keeps the mass and the weighted sum and, at the largest
        # feasible step, makes at least one of those entries 0 or 1;
        # integral entries never move again, so the loop ends.
        while j_star is None:
            cols = frac[: dim + 2]
            rows = [[1] * len(cols)] + [[vectors[j][i] for j in cols] for i in range(dim)]
            w = kernel_basis(rows)[0]
            theta = min((1 - lam[j]) / c if c > 0 else -lam[j] / c for j, c in zip(cols, w) if c)
            for j, c in zip(cols, w):
                lam[j] += theta * c
            j_star = next((j for j in cols if not lam[j]), None)
            frac = [j for j in cols if 0 < lam[j] < 1] + frac[dim + 2 :]
        placed.append(j_star)
        alive.remove(j_star)
        del lam[j_star]

    return alive + placed[::-1]


def check_prefix_bound(vectors: Sequence[Vec], perm: Sequence[int]) -> bool:
    """Exact check of the prefix bound for n in {d..k}:
    |prefix_n - ((n - d)/k) * total| <= d*m, scaled by k to stay in
    integers."""
    vs, d, m, total = _checked(vectors)
    k = len(vs)
    prefix = zero(d)
    for n, j in enumerate(perm, start=1):
        prefix = vadd(prefix, vs[j])
        if n >= d and any(
            abs(k * prefix[i] - (n - d) * total[i]) > k * d * m for i in range(d)
        ):
            return False
    return True


def prefix_safe_reorder(vectors) -> tuple[int, ...]:
    """Permutation keeping prefixes within d*m of the proportional line,
    checked by `check_prefix_bound`; each prefix then also has
    prefix(i) >= min(total(i), 0) - m*d per coordinate.

    Proof: for n >= d the checked bound gives prefix_n(i) >= ((n - d)/k)
    * total(i) - d*m >= min(total(i), 0) - d*m, as (n - d)/k lies in
    [0, 1]; for n <= d the prefix sums n entries, each at least -m.
    """
    vs, d, _, _ = _checked(vectors)
    if len(vs) <= d:
        return tuple(range(len(vs)))
    perm = tuple(_eject_order(vs, d))
    if not check_prefix_bound(vs, perm):
        raise SteinitzError("constructive reordering failed the prefix bound")
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
    zs, d, m, total = _checked(vectors)
    if not zs:
        return ()
    flip = [-1 if total[i] < 0 else 1 for i in range(d)]
    work = [(j, tuple(flip[i] * z[i] for i in range(d))) for j, z in enumerate(zs)]
    target = tuple(flip[i] * total[i] for i in range(d))

    # each round removes a nonempty run or stops, so at most len(zs) rounds run
    while work:
        ws = [w for _, w in work]
        es = _monotone_decomposition(ws, target)
        vs = [tuple(w[i] - e[i] for i in range(d)) for w, e in zip(ws, es)]
        perm = prefix_safe_reorder(vs)
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
        acc = vadd(acc, zs[j])
    assert acc == total, "pruning changed the total sum"
    bound = 2 * norm_1(total) * (3 * d * m) ** d
    if len(kept_indices) > bound:
        raise SteinitzError(
            f"pruning budget exhausted above the size bound ({len(kept_indices)} > {bound})"
        )
    return kept_indices
