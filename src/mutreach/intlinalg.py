"""Exact integer matrix kernel: Hermite normal form, integer solve and kernel.

Matrices are plain lists of rows.  Everything is arbitrary-precision.  The Hermite normal form is computed
by unimodular column operations with immediate reduction of the already
processed columns, which keeps entries small at the scales used here.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


class LinalgError(ValueError):
    pass


class HnfResult(NamedTuple):
    """M[row_perm] @ U == [H | 0] on its first `rank` rows, with U
    unimodular and H lower triangular, non-negative, each row's unique
    maximum on the diagonal; the remaining rows of M[row_perm] @ U are
    zero beyond column `rank` too."""

    h: list[list[int]]
    u: list[list[int]]
    rank: int
    row_perm: tuple[int, ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def hermite_normal_form(m: Sequence[Sequence[int]]) -> HnfResult:
    """Column-style HNF with explicit unimodular multiplier.

    Rows are taken in input order.  A row with no nonzero entry at or
    after the current rank column lies in the span of the pivot rows
    before it and is skipped; every other row becomes the next pivot row.
    The column operations depend only on the pivot rows, so H is the
    Hermite form of the full-row-rank block of greedily kept rows.  The
    zero matrix yields a rank-0 result with an empty H.
    """
    k = len(m[0]) if m else 0
    if any(len(row) != k for row in m):
        raise LinalgError("ragged rows")
    w = [[int(x) for x in row] for row in m]
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def col_op_2(c1: int, c2: int, a: int, b: int, c: int, d: int):
        # (col c1, col c2) <- (a*c1 + b*c2, c*c1 + d*c2); ad - bc = +-1
        for row in w + u:
            x, y = row[c1], row[c2]
            row[c1], row[c2] = a * x + b * y, c * x + d * y

    pivot_rows: list[int] = []
    rest_rows: list[int] = []
    for i, pivot in enumerate(w):
        r = len(pivot_rows)
        if not any(pivot[r:]):
            rest_rows.append(i)
            continue
        pivot_rows.append(i)
        for j in range(r + 1, k):
            if pivot[j] == 0:
                continue
            if pivot[r] == 0:
                col_op_2(r, j, 0, 1, -1, 0)
                continue
            g, s, t = _xgcd(pivot[r], pivot[j])
            col_op_2(r, j, s, t, -(pivot[j] // g), pivot[r] // g)
        if pivot[r] < 0:
            for row in w + u:
                row[r] = -row[r]
        # reduce the already-fixed columns so 0 <= pivot[j] < pivot[r] for j < r
        for j in range(r):
            q = pivot[j] // pivot[r]
            if q:
                for row in w + u:
                    row[j] -= q * row[r]

    rank = len(pivot_rows)
    h = [w[i][:rank] for i in pivot_rows]
    return HnfResult(h, u, rank, tuple(pivot_rows + rest_rows))


def solve_integer(m: Sequence[Sequence[int]], target: Sequence[int]) -> list[int] | None:
    """An integer solution x of M x = target, or None if none exists."""
    if len(target) != len(m):
        raise LinalgError("target length does not match row count")
    res = hermite_normal_form(m)
    cols = len(res.u)
    if res.rank == 0:
        return [0] * cols if all(t == 0 for t in target) else None
    # Back-substitute on the pivot rows: H w = target[pivot rows].
    h = res.h
    w: list[int] = []
    for i in range(res.rank):
        acc = target[res.row_perm[i]] - sum(h[i][j] * w[j] for j in range(i))
        if acc % h[i][i] != 0:
            return None
        w.append(acc // h[i][i])
    w += [0] * (cols - res.rank)
    x = [sum(u_ij * w_j for u_ij, w_j in zip(row, w)) for row in res.u]
    # Non-pivot rows must agree as well.
    for row, t in zip(m, target):
        if sum(a * x_j for a, x_j in zip(row, x)) != t:
            return None
    return x


def kernel_basis(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the integer kernel of M, as column vectors."""
    res = hermite_normal_form(m)
    return [[row[j] for row in res.u] for j in range(res.rank, len(res.u))]
