"""Lattice representations as divisibility/equality constraint systems.

A lattice L in Z^d is presented by exactly d pairs (n_i, a_i): membership
of x means a_i . x is a multiple of n_i for every i, with n_i = 0 encoding
the equality a_i . x = 0.  Such a presentation is what makes lattice
membership quantifier-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, gcd
from typing import Sequence

from .intlinalg import IntMatrix, LinalgError, comatrix, determinant, hermite_normal_form
from .vectors import Vec, norm_inf, vdot, vec, vsub


@dataclass(frozen=True)
class LatticeRepresentation:
    """Exactly d pairs (n_i, a_i); n = 0 means equality a.x = 0."""

    dim: int
    pairs: tuple[tuple[int, Vec], ...]
    norm: int = field(init=False)

    def __post_init__(self):
        pairs = tuple((int(n), vec(a)) for n, a in self.pairs)
        if len(pairs) != self.dim:
            raise LinalgError(f"expected {self.dim} pairs, got {len(pairs)}")
        for n, a in pairs:
            if n < 0:
                raise LinalgError("moduli are natural numbers")
            if len(a) != self.dim:
                raise LinalgError("coefficient vector has wrong dimension")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(
            self, "norm", max((max(n, norm_inf(a)) for n, a in pairs), default=0)
        )


@dataclass(frozen=True)
class LatticeCoset:
    """The set offset + lattice."""

    offset: Vec
    representation: LatticeRepresentation

    def __post_init__(self):
        object.__setattr__(self, "offset", vec(self.offset))
        if len(self.offset) != self.representation.dim:
            raise LinalgError("offset dimension mismatch")


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


def coset_contains(coset: LatticeCoset, w: Sequence[int]) -> bool:
    return lattice_contains(coset.representation, vsub(w, coset.offset))


def representation_from_generators(
    generators: Sequence[Sequence[int]], dim: int
) -> LatticeRepresentation:
    """Representation of the span Z v1 + ... + Z vk.

    Generators become the columns of a d x k matrix; a non-singular r x r
    block A is exposed by recorded row/column permutations, the Hermite
    form H of the full-row-rank block [A A'] yields r divisibility pairs
    through its comatrix, and the remaining d - r rows give equality
    pairs.  The result is expressed back in the original coordinate
    order, and its norm is bounded by (d!)^2 m^d.
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
    l_mat = IntMatrix.from_rows([[gens[j][i] for j in range(k)] for i in range(dim)])
    hnf = hermite_normal_form(l_mat)
    r = hnf.rank
    pivot_rows = list(hnf.row_perm[:r])
    rest_rows = list(hnf.row_perm[r:])

    h = hnf.h
    det_h = determinant(h)
    com_h = comatrix(h)

    pairs_permuted: list[tuple[int, list[int]]] = []
    # det(H) divides every coefficient of [x(1)..x(r)] com(H).
    for i in range(r):
        coeffs = [0] * dim
        for j in range(r):
            coeffs[j] = com_h.at(j, i)
        pairs_permuted.append((det_h, coeffs))

    if r < dim:
        # det(A) x(r+i) = [x(1)..x(r)] com(A) B^T, as equalities.
        pivot_cols = list(hnf.col_perm[:r])
        a_block = IntMatrix.from_rows([[l_mat.at(i, j) for j in pivot_cols] for i in pivot_rows])
        b_block = IntMatrix.from_rows([[l_mat.at(i, j) for j in pivot_cols] for i in rest_rows])
        det_a = determinant(a_block)
        prod = comatrix(a_block).matmul(b_block.transpose())  # r x (d-r)
        for i in range(dim - r):
            coeffs = [0] * dim
            for j in range(r):
                coeffs[j] = -prod.at(j, i)
            coeffs[r + i] = det_a
            # An equality is unique only up to scale, and det(A) depends on
            # the generators; dividing out the content makes it canonical.
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


def format_representation(rep: LatticeRepresentation) -> str:
    """One line per pair: `n : a1 ... ad`."""
    return "\n".join(f"{n} : " + " ".join(map(str, a)) for n, a in rep.pairs) + "\n"


def parse_representation(text: str, dim: int) -> LatticeRepresentation:
    pairs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        pairs.append((int(head.strip()), vec(int(t) for t in tail.split())))
    return LatticeRepresentation(dim, tuple(pairs))
