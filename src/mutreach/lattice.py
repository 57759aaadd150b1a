"""Lattice representations as divisibility/equality constraint systems.

A lattice L in Z^d is presented by exactly d pairs (n_i, a_i): membership
of x means a_i . x is a multiple of n_i for every i, with n_i = 0 encoding
the equality a_i . x = 0.  Such a presentation is what makes lattice
membership quantifier-free.
"""

from __future__ import annotations

from math import factorial, gcd, prod
from typing import Sequence

from .intlinalg import LinalgError, hermite_normal_form
from .vectors import Record, Vec, norm_inf, vdot, vec


class LatticeRepresentation(Record):
    """Exactly d pairs (n_i, a_i); n = 0 means equality a.x = 0."""

    __slots__ = ("dim", "pairs", "norm", "_hash")
    _fields = ("dim", "pairs")

    def __init__(self, dim: int, pairs: Sequence[tuple[int, Sequence[int]]]):
        pairs = tuple((int(n), vec(a)) for n, a in pairs)
        if len(pairs) != dim:
            raise LinalgError(f"expected {dim} pairs, got {len(pairs)}")
        for n, a in pairs:
            if n < 0:
                raise LinalgError("moduli are natural numbers")
            if len(a) != dim:
                raise LinalgError("coefficient vector has wrong dimension")
        self.dim = dim
        self.pairs = pairs
        self.norm = max((max(n, norm_inf(a)) for n, a in pairs), default=0)
        # formulas key their dedupe and writer caches by lattice, so the
        # hash of `pairs` is taken once
        self._hash = hash((dim, pairs))

    def __hash__(self):
        return self._hash


def lattice_contains(rep: LatticeRepresentation, x: Sequence[int]) -> bool:
    if len(x) != rep.dim:
        raise LinalgError(f"expected a vector of length {rep.dim}")
    for n, a in rep.pairs:
        value = vdot(a, x)
        if n == 0:
            if value != 0:
                return False
        elif value % n != 0:
            return False
    return True


def representation_from_generators(
    generators: Sequence[Sequence[int]], dim: int
) -> LatticeRepresentation:
    """Representation of the span Z v1 + ... + Z vk.

    Generators become the columns of a d x k matrix L.  Its Hermite form
    gives W = L[row_perm] U, whose first r rows are [H | 0] and whose
    other rows are [R_i | 0], so the lattice is {(H t, R t) : t in Z^r}
    in permuted coordinates.  H is lower triangular with a positive
    diagonal, so det(H) is the product of its diagonal and the adjugate
    X = det(H) H^-1 (the transposed comatrix) is integral.  H yields r
    divisibility pairs (t = X x' / det(H) must be integral), and each R_i
    the equality det(H) x(r+i) = R_i X x', divided by its content.
    Both depend on the lattice alone, and every equality has a negative
    coefficient at its own coordinate.  The result is expressed back in
    the original coordinate order, and its norm is bounded by
    (d!)^2 m^d.
    """
    gens = [vec(g) for g in generators]
    for g in gens:
        if len(g) != dim:
            raise LinalgError(f"generator {g} does not have dimension {dim}")
    gens = [g for g in gens if any(g)]
    if not gens:
        unit = lambda i: tuple(1 if j == i else 0 for j in range(dim))
        return LatticeRepresentation(dim, tuple((0, unit(i)) for i in range(dim)))

    k = len(gens)
    hnf = hermite_normal_form([[g[i] for g in gens] for i in range(dim)])
    r, h = hnf.rank, hnf.h
    det_h = prod(h[i][i] for i in range(r))
    # Solve H X = det(H) I by forward substitution, one column per unit
    # vector; every division is exact because X is the adjugate of H.
    adj = [[0] * r for _ in range(r)]
    for col in range(r):
        for i in range(col, r):
            rhs = (det_h if i == col else 0) - sum(h[i][j] * adj[j][col] for j in range(col, i))
            adj[i][col] = rhs // h[i][i]

    # t = X x' / det(H) must be integral: one divisibility pair per row of X.
    pairs_permuted = [(det_h, adj[i] + [0] * (dim - r)) for i in range(r)]
    for i, row in enumerate(hnf.row_perm[r:]):
        r_i = [sum(gens[c][row] * hnf.u[c][t] for c in range(k)) for t in range(r)]
        coeffs = [sum(adj[t][j] * r_i[t] for t in range(r)) for j in range(r)]
        coeffs += [0] * (dim - r)
        coeffs[r + i] = -det_h
        content = gcd(*coeffs)
        pairs_permuted.append((0, [c // content for c in coeffs]))

    # Undo the row permutation: permuted coordinate j is original row_perm[j].
    pairs = []
    for n, coeffs in pairs_permuted:
        original = [0] * dim
        for j, c in enumerate(coeffs):
            original[hnf.row_perm[j]] = c
        pairs.append((n, tuple(original)))

    rep = LatticeRepresentation(dim, tuple(pairs))
    m = max(norm_inf(g) for g in gens)
    assert rep.norm <= factorial(dim) ** 2 * m**dim, "representation norm exceeds (d!)^2 m^d"
    return rep
