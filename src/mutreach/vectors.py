"""Small exact-integer vector helpers.

Vectors are plain tuples of Python ints so they stay hashable and
arbitrary precision.  Everything here is dimension-checked by zip
strictness rather than by the callers.  `Record` gives the package's
`__slots__` classes value semantics.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Sequence

Vec = tuple[int, ...]


class Record:
    """Equality and hash over the `_fields` a `__slots__` subclass names,
    between objects of one class, and a `Name(field=value, ...)` repr.
    A subclass writes its own `__init__`, so no code is generated at
    import."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


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
