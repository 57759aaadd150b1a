"""Quantifier-free Presburger syntax trees over integer variables.

Atoms are comparisons of linear terms with a constant and divisibility
constraints; trees close under and/or/not/implication.  Variables are
positional against an externally declared environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .vectors import vdot


class FormulaError(ValueError):
    pass


@dataclass(frozen=True)
class CompareAtom:
    """sum(coeffs . vars) op constant, with op one of >= ==."""

    coeffs: tuple[int, ...]
    op: str
    constant: int

    def __post_init__(self):
        if self.op not in (">=", "=="):
            raise FormulaError(f"unsupported relation {self.op}")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))


@dataclass(frozen=True)
class DivAtom:
    """modulus divides (coeffs . vars + constant); modulus >= 1."""

    coeffs: tuple[int, ...]
    constant: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise FormulaError("modulus must be >= 1")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class And:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Or:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class Implies:
    lhs: object
    rhs: object


Formula = object  # any of the node classes above


def eval_formula(node: Formula, values: Sequence[int]) -> bool:
    if isinstance(node, BoolConst):
        return node.value
    if isinstance(node, CompareAtom):
        lhs = vdot(node.coeffs, values)
        return lhs >= node.constant if node.op == ">=" else lhs == node.constant
    if isinstance(node, DivAtom):
        return (vdot(node.coeffs, values) + node.constant) % node.modulus == 0
    if isinstance(node, And):
        return all(eval_formula(c, values) for c in node.children)
    if isinstance(node, Or):
        return any(eval_formula(c, values) for c in node.children)
    if isinstance(node, Not):
        return not eval_formula(node.child, values)
    if isinstance(node, Implies):
        return (not eval_formula(node.lhs, values)) or eval_formula(node.rhs, values)
    raise FormulaError(f"unknown node {node!r}")


def conj_ge(vector: Sequence[int], dim: int) -> Formula:
    """x >= vector componentwise, as a conjunction of threshold atoms."""
    atoms = []
    for i, w in enumerate(vector):
        coeffs = tuple(1 if j == i else 0 for j in range(dim))
        atoms.append(CompareAtom(coeffs, ">=", int(w)))
    return And(tuple(atoms))


def atom_count(node: Formula) -> tuple[int, int]:
    """(comparison atoms, divisibility atoms) in the tree."""
    if isinstance(node, CompareAtom):
        return 1, 0
    if isinstance(node, DivAtom):
        return 0, 1
    if isinstance(node, (And, Or)):
        cs = [atom_count(c) for c in node.children]
        return sum(c[0] for c in cs), sum(c[1] for c in cs)
    if isinstance(node, Not):
        return atom_count(node.child)
    if isinstance(node, Implies):
        a, b = atom_count(node.lhs), atom_count(node.rhs)
        return a[0] + b[0], a[1] + b[1]
    return 0, 0


def max_threshold(node: Formula) -> int:
    """Largest |constant| over comparison atoms (k of a k-threshold formula)."""
    if isinstance(node, CompareAtom):
        return abs(node.constant)
    if isinstance(node, (And, Or)):
        return max((max_threshold(c) for c in node.children), default=0)
    if isinstance(node, Not):
        return max_threshold(node.child)
    if isinstance(node, Implies):
        return max(max_threshold(node.lhs), max_threshold(node.rhs))
    return 0


# --- text form (s-expressions) ------------------------------------------------


def to_sexpr(node: Formula) -> str:
    if isinstance(node, BoolConst):
        return "(true)" if node.value else "(false)"
    if isinstance(node, CompareAtom):
        op = "ge" if node.op == ">=" else "eq"
        return f"({op} ({' '.join(map(str, node.coeffs))}) {node.constant})"
    if isinstance(node, DivAtom):
        return f"(div ({' '.join(map(str, node.coeffs))}) {node.constant} {node.modulus})"
    if isinstance(node, And):
        return "(and" + "".join(" " + to_sexpr(c) for c in node.children) + ")"
    if isinstance(node, Or):
        return "(or" + "".join(" " + to_sexpr(c) for c in node.children) + ")"
    if isinstance(node, Not):
        return f"(not {to_sexpr(node.child)})"
    if isinstance(node, Implies):
        return f"(=> {to_sexpr(node.lhs)} {to_sexpr(node.rhs)})"
    raise FormulaError(f"cannot render {node!r}")


# --- SMT-LIB ------------------------------------------------------------------


def smt_numeral(n: int) -> str:
    """An integer as an SMT-LIB term: numerals are non-negative, so a
    negative n is written `(- |n|)`."""
    return str(n) if n >= 0 else f"(- {-n})"


def _linear_term(coeffs: Sequence[int], names: Sequence[str], constant: int = 0) -> str:
    parts = []
    for c, n in zip(coeffs, names, strict=True):
        if c == 0:
            continue
        if c == 1:
            parts.append(n)
        else:
            parts.append(f"(* {smt_numeral(c)} {n})")
    if constant or not parts:
        parts.append(smt_numeral(constant))
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def smt_term(node: Formula, names: Sequence[str]) -> str:
    if isinstance(node, BoolConst):
        return "true" if node.value else "false"
    if isinstance(node, CompareAtom):
        op = ">=" if node.op == ">=" else "="
        return f"({op} {_linear_term(node.coeffs, names)} {smt_numeral(node.constant)})"
    if isinstance(node, DivAtom):
        term = _linear_term(node.coeffs, names, node.constant)
        return f"(= (mod {term} {node.modulus}) 0)"
    if isinstance(node, And):
        if not node.children:
            return "true"
        return "(and " + " ".join(smt_term(c, names) for c in node.children) + ")"
    if isinstance(node, Or):
        if not node.children:
            return "false"
        return "(or " + " ".join(smt_term(c, names) for c in node.children) + ")"
    if isinstance(node, Not):
        return f"(not {smt_term(node.child, names)})"
    if isinstance(node, Implies):
        return f"(=> {smt_term(node.lhs, names)} {smt_term(node.rhs, names)})"
    raise FormulaError(f"cannot render {node!r}")


def to_smtlib(
    node: Formula,
    names: Sequence[str],
    logic: str = "QF_LIA",
    nonneg: Iterable[str] = (),
    extra_assertions: Iterable[str] = (),
) -> str:
    lines = [f"(set-logic {logic})"]
    for n in names:
        lines.append(f"(declare-const {n} Int)")
    for n in nonneg:
        lines.append(f"(assert (>= {n} 0))")
    for a in extra_assertions:
        lines.append(f"(assert {a})")
    lines.append(f"(assert {smt_term(node, names)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
