"""Exact integer matrix kernel: Hermite normal form, integer solve and kernel.

Everything is arbitrary-precision.  The Hermite normal form is computed
by unimodular column operations with immediate reduction of the already
processed columns, which keeps entries small at the scales used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class LinalgError(ValueError):
    pass


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise LinalgError("negative matrix shape")
        if len(self.entries) != self.rows * self.cols:
            raise LinalgError("entry count does not match shape")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise LinalgError("ragged rows")
            flat.extend(int(x) for x in row)
        return cls(r, c, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in matmul")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[t] * other.at(t, j) for t in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))


@dataclass(frozen=True)
class HnfResult:
    """M[row_perm] @ U == [H | 0] on its first `rank` rows, with U
    unimodular and H lower triangular, non-negative, each row's unique
    maximum on the diagonal; the remaining rows of M[row_perm] @ U are
    zero beyond column `rank` too."""

    h: IntMatrix
    u: IntMatrix
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


def hermite_normal_form(m: IntMatrix) -> HnfResult:
    """Column-style HNF with explicit unimodular multiplier.

    Rows are taken in input order.  A row with no nonzero entry at or
    after the current rank column lies in the span of the pivot rows
    before it and is skipped; every other row becomes the next pivot row.
    The column operations depend only on the pivot rows, so H is the
    Hermite form of the full-row-rank block of greedily kept rows.  The
    zero matrix yields a rank-0 result with an empty H.
    """
    k = m.cols
    w = m.to_lists()
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
    h = IntMatrix(rank, rank, tuple(w[i][j] for i in pivot_rows for j in range(rank)))
    return HnfResult(h, IntMatrix.from_rows(u), rank, tuple(pivot_rows + rest_rows))


def solve_integer(m: IntMatrix, target: Sequence[int]) -> list[int] | None:
    """An integer solution x of M x = target, or None if none exists."""
    if len(target) != m.rows:
        raise LinalgError("target length does not match row count")
    res = hermite_normal_form(m)
    if res.rank == 0:
        return [0] * m.cols if all(t == 0 for t in target) else None
    # Back-substitute on the pivot rows: H w = target[pivot rows].
    h = res.h
    w: list[int] = []
    for i in range(res.rank):
        acc = target[res.row_perm[i]] - sum(h.at(i, j) * w[j] for j in range(i))
        if acc % h.at(i, i) != 0:
            return None
        w.append(acc // h.at(i, i))
    w += [0] * (m.cols - res.rank)
    x = [sum(res.u.at(i, j) * w[j] for j in range(m.cols)) for i in range(m.cols)]
    # Non-pivot rows must agree as well.
    for i in range(m.rows):
        if sum(m.at(i, j) * x[j] for j in range(m.cols)) != target[i]:
            return None
    return x


def kernel_basis(m: IntMatrix) -> list[list[int]]:
    """Basis of the integer kernel of M, as column vectors."""
    res = hermite_normal_form(m)
    return [[res.u.at(i, j) for i in range(m.cols)] for j in range(res.rank, m.cols)]
