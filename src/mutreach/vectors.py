"""Small exact-integer vector helpers.

Vectors are plain tuples of Python ints so they stay hashable and
arbitrary precision.  Everything here is dimension-checked by zip
strictness rather than by the callers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Vec = tuple[int, ...]


def vec(values: Iterable[int]) -> Vec:
    return tuple(int(v) for v in values)


def zero(dim: int) -> Vec:
    return (0,) * dim


def vadd(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vdot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def vge(u: Sequence[int], v: Sequence[int]) -> bool:
    """Componentwise u >= v."""
    return all(a >= b for a, b in zip(u, v, strict=True))


def norm_inf(u: Sequence[int]) -> int:
    return max((abs(a) for a in u), default=0)


def norm_1(u: Sequence[int]) -> int:
    return sum(abs(a) for a in u)


def is_nonnegative(u: Sequence[int]) -> bool:
    return all(a >= 0 for a in u)


def restrict(u: Sequence[int], indices: Sequence[int]) -> Vec:
    """Project a vector onto the given coordinate indices (0-based)."""
    return tuple(u[i] for i in indices)
