"""Compiling mutual reachability and bottom membership into formulas.

The mutual-reachability relation compiles to a disjunction of tuples
(a, b, v, gamma): x and y are related when x >= a, y >= b, and y - x - v
lies in the lattice presented by gamma.  Bottom membership compiles to
tuples (r, gamma, phi) with phi a threshold formula, stored as its
implications and evaluated over a whole lattice coset; the universal
quantifier is decided pointwise, not eliminated.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import cache
from typing import Iterator, NamedTuple, Sequence

from .intlinalg import LinalgError, hermite_normal_form, kernel_basis
from .lattice import LatticeRepresentation, lattice_contains, representation_from_generators
from .net import PetriNet
from .ratlp import max_positive_support, solve_standard
from .unfolding import (
    EnumLimits,
    elementary_path,
    enumerate_unfoldings,
    index_sets,
    lattice_of_unfolding,
)
from .vectors import Record, Vec, restrict, vec, vge, vsub
from .witness import PumpingParams, _basis_rows, _cycle_words, _with_state


class CompileError(ValueError):
    pass


# --- mutual reachability -------------------------------------------------------


class Disjunct(NamedTuple):
    lower_x: Vec  # a
    lower_y: Vec  # b
    shift: Vec  # v
    rep: LatticeRepresentation


class MutualFormula(NamedTuple):
    dim: int
    disjuncts: tuple[Disjunct, ...]
    provenance: str  # certified | heuristic
    complete: bool  # enumeration ran without truncation
    state_bound: int
    cycle_len: int


def _compiled_unfoldings(
    net: PetriNet,
    params: PumpingParams,
    limits: EnumLimits,
    forward_closed: bool = False,
) -> tuple[list[tuple], bool, bool]:
    """Each unfolding `g` of every index set, in canonical order, as
    `(g, rep, paths, bases)`: its lattice, its path displacements
    (`paths[i][j]` along the elementary path from state i to state j),
    and its pumping-basis rows at each state with the state's values
    written in; then whether every unfolding is certified by the
    parameters, and whether no enumeration limit and no basis walk budget
    was hit.

    On the full index set (`Unfolding.full_index`) these are known in
    closed form, with no walk, once per edge shape: the lattice is {0}, a
    path p -> q has displacement q - p (the sum of its actions'
    displacements, so the shape fixes it), and the one pumping-basis row
    is 0 (the state itself, once written in).

    Elsewhere the lattice, paths and cycle-word walks depend only on the
    edge shape, the edges as (state position, action, state position),
    which the enumerator hands over with each unfolding: `Unfolding` sorts
    its states and edges, so equal shapes give the same BFS trees and
    walks, whatever the index set and the state values.  They are computed
    once per shape and pass, and equal lattices are one object.  The basis
    rows cover the coordinates outside I with the threshold of the size,
    so they, and whether that threshold certifies, are decided once per
    index set and shape, in one memo whose rows are zero on I, the full
    index set's closed form its first case; each unfolding's state values
    are written onto them here, once for both compilers.  Which edges a state
    set keeps depends only on its shape too, so one `decided` dict serves
    every index set of the pass, and no shape asks `max_positive_support`
    twice.
    """
    out: list[tuple] = []
    shapes: dict[tuple, tuple] = {}  # edge shape -> lattice, paths, cycle words per state
    zero = representation_from_generators((), net.dim)
    lattices: dict[LatticeRepresentation, LatticeRepresentation] = {zero: zero}
    zero_rows = ((0,) * net.dim,)
    decided: dict = {}
    truncated, certified = False, True
    for index_set in index_sets(net.dim):
        parts: dict[tuple, tuple] = {}  # edge shape -> lattice, paths, rows zero on I
        # the cap lives here, per index set: take `max_unfoldings`, then look ahead once
        walk = enumerate_unfoldings(net, index_set, params.state_bound, limits,
                                    forward_closed, decided)
        for g in itertools.islice(walk, limits.max_unfoldings):
            key = g.shape
            if key not in parts:
                certified = certified and params.certified_for(net, g.size)
                if g.full_index:
                    paths = tuple(tuple(vsub(q, p) for q in g.states) for p in g.states)
                    parts[key] = (zero, paths, (zero_rows,) * g.size)
                else:
                    if key not in shapes:
                        rep = lattice_of_unfolding(g)
                        paths = tuple(tuple(elementary_path(g, p, q).displacement(net)
                                            for q in g.states) for p in g.states)
                        walks = [_cycle_words(g, q, params.cycle_len) for q in g.states]
                        truncated = truncated or any(cut for _, cut in walks)
                        shapes[key] = (lattices.setdefault(rep, rep), paths, [w for w, _ in walks])
                    rep, paths, walks = shapes[key]
                    tau = params.threshold_for(net, g.size)
                    rows = [_basis_rows(net, index_set, w, tau, params.cycle_len) for w in walks]
                    parts[key] = (rep, paths, [[e.vector for e in r] for r in rows])
            rep, paths, rows_at = parts[key]
            bases = [tuple([_with_state(v, index_set, q) for v in rows])
                     for rows, q in zip(rows_at, g.states)]
            out.append((g, rep, paths, bases))
        truncated = truncated or next(walk, None) is not None
    return out, certified, not truncated


def compile_mutual(
    net: PetriNet,
    params: PumpingParams,
    limits: EnumLimits | None = None,
) -> MutualFormula:
    """One disjunct per unfolding, state pair, and pumping-basis pair.

    Basis elements stand in for the full threshold grid: x >= a for some
    basis element a is exactly membership in the upward-closed pumping
    set.  One canonical elementary path per state pair suffices because
    all path displacements fall in the same lattice coset.

    Index sets are compiled in canonical order, and a repeated disjunct
    is dropped after its first occurrence.
    """
    compiled, certified, complete = _compiled_unfoldings(net, params, limits or EnumLimits())
    seen: dict[tuple, None] = {}  # each key equals the disjunct made of it
    for _, rep, paths_from, bases in compiled:
        for a_vectors, paths in zip(bases, paths_from):
            for b_vectors, v in zip(bases, paths):
                for a in a_vectors:
                    for b in b_vectors:
                        seen[a, b, v, rep] = None
    return MutualFormula(
        dim=net.dim,
        disjuncts=tuple(map(Disjunct._make, seen)),
        provenance="certified" if certified else "heuristic",
        complete=complete,
        state_bound=params.state_bound,
        cycle_len=params.cycle_len,
    )


def eval_mutual(f: MutualFormula, x: Sequence[int], y: Sequence[int]) -> bool:
    x, y = vec(x), vec(y)
    if len(x) != f.dim or len(y) != f.dim:
        raise CompileError(f"expected dimension {f.dim}")
    for d in f.disjuncts:
        if vge(x, d.lower_x) and vge(y, d.lower_y) and lattice_contains(
            d.rep, vsub(vsub(y, x), d.shift)
        ):
            return True
    return False


def smt_numeral(n: int) -> str:
    """An integer as an SMT-LIB term: numerals are non-negative, so a
    negative n is written `(- |n|)`."""
    return str(n) if n >= 0 else f"(- {-n})"


def _numerals(v: Sequence[int]) -> Sequence:
    """The entries of v for `str.format`, each rendering as its SMT-LIB
    numeral.  A compiled vector is a configuration, and `str(n)` is the
    numeral of n >= 0; only a vector read from a file can be negative."""
    return v if min(v) >= 0 else [smt_numeral(n) for n in v]


def _linear_term(coeffs: Sequence[int], names: Sequence[str], constant: int = 0) -> str:
    """sum(coeffs . names) + constant as an SMT-LIB term, zero terms left out."""
    parts = [
        n if c == 1 else f"(* {smt_numeral(c)} {n})"
        for c, n in zip(coeffs, names, strict=True)
        if c
    ]
    if constant or not parts:
        parts.append(smt_numeral(constant))
    return _smt_connective("+", parts)


def mutual_var_names(dim: int) -> list[str]:
    return [f"x{i}" for i in range(dim)] + [f"y{i}" for i in range(dim)]


def mutual_to_smtlib(f: MutualFormula) -> str:
    """One QF_LIA assertion: the disjunction of x >= a, y >= b and the
    lattice atoms of y - x - v.  Each distinct threshold vector and each
    distinct (lattice, shift) part is rendered once per call."""
    names = mutual_var_names(f.dim)
    # x >= a and y >= b, one atom per coordinate, with the numerals filled in
    x_atoms, y_atoms = (" ".join(f"(>= {side}{i} {{}})" for i in range(f.dim)).format
                        for side in "xy")

    def lattice_part(rep: LatticeRepresentation, shift: Vec) -> str:
        # a . (y - x - v) == 0 mod n (or exactly 0 when n == 0), per pair
        atoms = []
        for n, a in rep.pairs:
            coeffs = tuple(-c for c in a) + a
            value = sum(c * s for c, s in zip(a, shift))
            if n == 0:
                atoms.append(f"(= {_linear_term(coeffs, names)} {smt_numeral(value)})")
            else:
                atoms.append(f"(= (mod {_linear_term(coeffs, names, -value)} {n}) 0)")
        return " ".join(atoms)

    if f.dim:
        lower_x, lower_y, shifts, reps = _columns(f)
        xs = {a: x_atoms(*_numerals(a)) for a in set(lower_x)}
        ys = {b: y_atoms(*_numerals(b)) for b in set(lower_y)}
        parts = {key: lattice_part(*key) for key in set(zip(reps, shifts))}
        conjunctions = [f"(and {xs[a]} {ys[b]} {parts[rep, v]})" for a, b, v, rep in f.disjuncts]
    else:  # every part is empty and each conjunction is true
        conjunctions = ["true"] * len(f.disjuncts)
    lines = ["(set-logic QF_LIA)"]
    lines += [f"(declare-const {n} Int)" for n in names]
    lines += [f"(assert (>= {n} 0))" for n in names]
    lines += [f"(assert {_smt_junction('or', conjunctions)})", "(check-sat)"]
    return "\n".join(lines) + "\n"


def _columns(f: MutualFormula) -> tuple[tuple, ...]:
    """The a, b, v and gamma of every disjunct, as four columns, from which
    the writers take the distinct values they render once per call."""
    return tuple(zip(*f.disjuncts)) or ((), (), (), ())


def mutual_to_json(f: MutualFormula) -> str:
    """The text of `json.dumps(payload, sort_keys=True, indent=1)`, with
    each distinct vector and each distinct gamma rendered once per call."""
    # a disjunct's values sit three levels deep: payload, list, dict
    lower_x, lower_y, shifts, reps = _columns(f)
    vectors = {v: _json_ints(v, 3) for v in {*lower_x, *lower_y, *shifts}}
    gammas = {rep: _json_ints(rep.pairs, 3) for rep in set(reps)}
    items = [
        f'  {{\n   "a": {vectors[a]},\n   "b": {vectors[b]},\n'
        f'   "gamma": {gammas[rep]},\n   "v": {vectors[v]}\n  }}'
        for a, b, v, rep in f.disjuncts
    ]
    return _json_document(_header(f, "mutual"), "disjuncts", items)


def mutual_to_text(f: MutualFormula) -> str:
    """The `.mrf` text, each distinct vector row and each distinct lattice's
    `pair` lines rendered once per call, and each disjunct one string."""
    lower_x, lower_y, shifts, reps = _columns(f)
    rows = {v: _row(v) for v in {*lower_x, *lower_y, *shifts}}
    pairs = {rep: "".join(ln + "\n" for ln in _pair_lines(rep)) for rep in set(reps)}
    head = "".join(ln + "\n" for ln in _text_header(_header(f, "mutual")))
    return head + "".join([
        f"disjunct\na {rows[a]}\nb {rows[b]}\nv {rows[v]}\n{pairs[rep]}end\n"
        for a, b, v, rep in f.disjuncts
    ])


def mutual_from_text(text: str) -> MutualFormula:
    lines, pos, header, dim = _parse_header(text, "mutual", _MUTUAL_HEADER, "disjunct")
    # the rules `PumpingParams` applies to the bounds the formula was compiled with
    state_bound = _int(header.get("state-bound", "1"), "state-bound")
    if state_bound < 1:
        raise CompileError(f"state-bound must be positive, got {state_bound}")
    cycle_len = _int(header.get("cycle-len", "0"), "cycle-len")
    if cycle_len < 0:
        raise CompileError(f"cycle-len must not be negative, got {cycle_len}")
    disjuncts = [
        Disjunct(
            *(_vector(once[key], key, dim) for key in ("a", "b", "v")),
            _lattice(dim, many["pair"]),
        )
        for once, many in _blocks(lines, pos, "disjunct", ("a", "b", "v"), ("pair",))
    ]
    return MutualFormula(
        dim=dim,
        disjuncts=tuple(disjuncts),
        provenance=header.get("provenance", "heuristic"),
        complete=header.get("complete") == "1",
        state_bound=state_bound,
        cycle_len=cycle_len,
    )


# --- the file layout both formula kinds share --------------------------------------

# header fields in file order; the reader accepts these and no others
_MUTUAL_HEADER = ("dim", "provenance", "complete", "state-bound", "cycle-len")
_BOTTOM_HEADER = ("dim", "provenance", "complete")


def _header(f: MutualFormula | BottomFormula, kind: str) -> dict[str, object]:
    """The kind and the header fields of a formula, in file order, under
    their text names; each field is the formula attribute of that name."""
    known = _MUTUAL_HEADER if kind == "mutual" else _BOTTOM_HEADER
    return {"kind": kind} | {key: getattr(f, key.replace("-", "_")) for key in known}


def _text_header(fields: dict[str, object]) -> list[str]:
    """The `kind` line and the header lines of a text file, a flag as 0 or 1."""
    return [f"{key} {int(v) if isinstance(v, bool) else v}" for key, v in fields.items()]


def _row(v: Sequence[int]) -> str:
    """A vector as a text row, which `_vector` reads back."""
    return " ".join(map(str, v))


def _pair_lines(rep: LatticeRepresentation) -> tuple[str, ...]:
    """The `pair n : a1 ... ad` lines of a lattice, which `_lattice` reads back."""
    return tuple(f"pair {n} : {_row(a)}" for n, a in rep.pairs)


def _json_ints(value: int | Sequence, level: int) -> str:
    """`json.dumps(value, indent=1)` for an integer or a nested sequence of
    integers, nested `level` deep."""
    if isinstance(value, int):
        return str(value)
    if not value:
        return "[]"
    inner = ",\n" + " " * (level + 1)
    if all(isinstance(x, int) for x in value):
        items = inner.join(map(str, value))
    else:  # gamma pairs (n, a) and membership lists nest
        items = inner.join(_json_ints(x, level + 1) for x in value)
    return "[\n" + " " * (level + 1) + items + "\n" + " " * level + "]"


def _json_document(fields: dict[str, object], key: str, items: list[str]) -> str:
    """`json.dumps` of the header fields, under their JSON names, and of the
    list under `key` whose items, nested two deep, the caller rendered;
    sorted keys and indent 1.

    The header is dumped with an empty list under `key`, and the rendered
    list is spliced in for it.  Inside a JSON string every quote is escaped,
    so the text `"key": []` can only be that key and its value.
    """
    payload = {name.replace("-", "_"): v for name, v in fields.items()} | {key: []}
    header = json.dumps(payload, sort_keys=True, indent=1)
    if not items:
        return header + "\n"
    head, _, tail = header.partition(f'"{key}": []')
    listing = ",\n".join(items)
    return f'{head}"{key}": [\n{listing}\n ]{tail}\n'


_SMT_UNIT = {"and": "true", "or": "false", "+": "0"}


def _smt_junction(op: str, parts: Sequence[str]) -> str:
    """`(op p1 ... pn)`, every part kept however few; with no part, the
    unit of op."""
    return f"({op} " + " ".join(parts) + ")" if parts else _SMT_UNIT[op]


def _smt_connective(op: str, parts: Sequence[str]) -> str:
    """`_smt_junction`, with a single part written on its own."""
    return parts[0] if len(parts) == 1 else _smt_junction(op, parts)


# --- parsing helpers: every malformed input raises CompileError --------------------


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CompileError(f"{what}: expected an integer, got {text!r}") from None


def _vector(text: str, what: str, length: int | None = None) -> Vec:
    v = tuple(_int(t, what) for t in text.split())
    if length is not None and len(v) != length:
        raise CompileError(f"{what}: expected {length} entries, got {len(v)}")
    return v


def _lattice(dim: int, pair_texts: list[str]) -> LatticeRepresentation:
    """The lattice of a block's `pair n : a1 ... ad` lines."""
    pairs = []
    for text in pair_texts:
        n_text, sep, coeff_text = text.partition(":")
        if not sep:
            raise CompileError(f"pair: expected 'n : a1 ... ad', got {text!r}")
        pairs.append((_int(n_text.strip(), "pair"), _vector(coeff_text, "pair")))
    try:
        return LatticeRepresentation(dim, tuple(pairs))
    except LinalgError as exc:
        raise CompileError(f"pair: {exc}") from None


def formula_lines(text: str) -> list[str]:
    """The stripped lines of a formula file, without blanks and `#` comments."""
    stripped = (ln.strip() for ln in text.splitlines())
    return [ln for ln in stripped if ln and not ln.startswith("#")]


def _parse_header(
    text: str, kind: str, known: tuple[str, ...], block: str
) -> tuple[list[str], int, dict[str, str], int]:
    """Formula lines, the position of the first block, the header fields
    and the dimension."""
    lines = formula_lines(text)
    if not lines or lines[0] != f"kind {kind}":
        raise CompileError(f"not a {kind} formula file")
    header: dict[str, str] = {}
    pos = 1
    while pos < len(lines) and lines[pos] != block:
        key, _, val = lines[pos].partition(" ")
        if key not in known or key in header:
            raise CompileError(f"unknown or repeated header field {key!r}")
        header[key] = val
        pos += 1
    if "dim" not in header:
        raise CompileError("missing header field 'dim'")
    dim = _int(header["dim"], "dim")
    if dim < 1:
        raise CompileError(f"dim must be positive, got {dim}")
    if header.get("provenance", "heuristic") not in ("certified", "heuristic"):
        raise CompileError(f"unknown provenance {header['provenance']!r}")
    if header.get("complete", "0") not in ("0", "1"):
        raise CompileError(f"complete must be 0 or 1, got {header['complete']!r}")
    return lines, pos, header, dim


def _blocks(
    lines: list[str], pos: int, block: str, single: tuple[str, ...], repeated: tuple[str, ...]
) -> Iterator[tuple[dict[str, str], dict[str, list[str]]]]:
    """The fields of each `block ... end` group from `pos` on: the value of
    each `single` key, which must occur exactly once, and the values of
    each `repeated` key, which may occur any number of times."""
    while pos < len(lines):
        if lines[pos] != block:
            raise CompileError(f"expected {block!r}, got {lines[pos]!r}")
        end = pos + 1
        while end < len(lines) and lines[end] != "end":
            end += 1
        if end == len(lines):
            raise CompileError(f"unterminated {block!r} block")
        once: dict[str, str] = {}
        many: dict[str, list[str]] = {key: [] for key in repeated}
        for ln in lines[pos + 1 : end]:
            key, _, val = ln.partition(" ")
            if key in many:
                many[key].append(val)
            elif key in single and key not in once:
                once[key] = val
            else:
                raise CompileError(f"unknown or repeated {block} field {key!r}")
        if len(once) != len(single):
            raise CompileError(f"{block} lacks one of the fields " + ", ".join(map(repr, single)))
        yield once, many
        pos = end + 1


# --- bottom configurations ------------------------------------------------------


class BottomTuple(Record):
    """One certificate shape for bottom membership.

    A configuration matching `state` on `index_set` is accepted when it
    dominates some `membership` vector (it can pump at its own state;
    this is the induction base that makes acceptance sound) and the
    implication formula holds across the whole lattice coset.
    """

    __slots__ = ("index_set", "state", "rep", "membership", "implications", "_basis")
    _fields = ("index_set", "state", "rep", "membership", "implications")

    def __init__(
        self,
        index_set: tuple[int, ...],
        state: Vec,
        rep: LatticeRepresentation,
        membership: tuple,
        implications: tuple,
    ):
        self.index_set = index_set
        self.state = state  # r
        self.rep = rep
        self.membership = membership  # pumping basis at r, checked once at the point itself
        # ((antecedent vectors), (consequent vectors)) per transition
        self.implications = implications
        self._basis: list[Vec] | None = None

    @property
    def basis(self) -> list[Vec]:
        """`lattice_basis(rep)`, computed once per tuple."""
        if self._basis is None:
            self._basis = lattice_basis(self.rep)
        return self._basis


class BottomFormula(NamedTuple):
    dim: int
    tuples: tuple[BottomTuple, ...]
    provenance: str
    complete: bool


def compile_bottom(
    net: PetriNet, params: PumpingParams, limits: EnumLimits | None = None
) -> BottomFormula:
    """Tuples (r, gamma, phi) over forward-closed reversible unfoldings;
    phi demands that whenever a shifted configuration covers a source
    pumping basis and the action's precondition, the successor covers the
    target basis.  Each tuple also records the pumping basis at r itself:
    without that one-point membership check the implications can hold
    vacuously for configurations that escape below every basis."""
    compiled, certified, complete = _compiled_unfoldings(
        net, params, limits or EnumLimits(), forward_closed=True
    )
    tuples: list[BottomTuple] = []
    for g, rep, paths, bases in compiled:
        for k, r in enumerate(g.states):
            vp = paths[k]
            implications = []
            for p_at, aidx, q_at in g.shape:
                a = net.actions[aidx]
                ants = tuple(
                    sorted(
                        tuple(max(m[i], a.pre[i]) - vp[p_at][i] for i in range(net.dim))
                        for m in bases[p_at]
                    )
                )
                cons = tuple(
                    sorted(
                        tuple(m[i] - a.displacement[i] - vp[p_at][i] for i in range(net.dim))
                        for m in bases[q_at]
                    )
                )
                implications.append((ants, cons))
            tuples.append(
                BottomTuple(
                    index_set=g.index_set,
                    state=r,
                    rep=rep,
                    membership=bases[k],
                    implications=tuple(implications),
                )
            )
    return BottomFormula(
        dim=net.dim,
        tuples=tuple(tuples),
        provenance="certified" if certified else "heuristic",
        complete=complete,
    )


# --- deciding the universal over a lattice ---------------------------------------


def _basis_of(generators: Sequence[Vec], d: int) -> list[Vec]:
    """A basis of the lattice the generators span in Z^d: the first `rank`
    columns of the column Hermite form M U of M, the generators as columns."""
    res = hermite_normal_form([[g[i] for g in generators] for i in range(d)])
    # Column j of M U is the combination of the generators by U's column j.
    return [
        tuple(sum(u[j] * g[i] for u, g in zip(res.u, generators)) for i in range(d))
        for j in range(res.rank)
    ]


def lattice_basis(rep: LatticeRepresentation) -> list[Vec]:
    """Integer basis of the represented lattice: the kernel of a_i . x = n_i k_i,
    one auxiliary column per pair, projected to x.  A pair with n = 0 has a
    zero column, whose kernel direction projects to 0."""
    d = rep.dim
    rows = [list(a) + [-n if j == i else 0 for j in range(d)] for i, (n, a) in enumerate(rep.pairs)]
    return _basis_of([tuple(v[:d]) for v in kernel_basis(rows)], d)


def lattice_box_feasible(
    basis: list[Vec], lows: Sequence[int], highs: Sequence[int | None]
) -> bool:
    """Is there a lattice point v with lows <= v and v <= highs where set?

    Exact at every rank k: is there t in Z^k with lows <= B t <= highs?
    At rank >= 2, let T be the coordinates without a high on which some
    x >= 0 of the lattice's rational span, 0 wherever a high is set, is
    positive (`max_positive_support` of the span's equalities).  Supports
    add, so a lattice vector u >= 0 is positive exactly on T and 0 wherever
    a high is set.  Adding N u raises T without bound and lowers nothing,
    so the lows on T never bind.  One Hermite form projects the lattice
    away from T, to a basis B' on the other coordinates R, and then
    {t : lows <= B' t <= highs} is bounded.  A recession direction t gives
    x = B' t >= 0, 0 wherever a high is set.  x is the projection of some
    y in the span, and y + N u for large N is >= 0, 0 wherever a high is
    set and equal to x on R; by the maximality of T it vanishes on R, so
    x = 0, and t = 0 because B' has full column rank.

    On that bounded region t_0 .. t_{k-2} run over their exact LP bounds,
    two LPs each.  For each of them the last coefficient need only lie in
    an integer interval (`_line_meets_box`), a test that is exact even
    when the interval is unbounded, as it may be at rank 1.  Rank 0 is
    that test on the zero vector.
    """
    if any(hi is not None and lo > hi for lo, hi in zip(lows, highs)):
        return False
    if len(basis) >= 2:
        open_ = [i for i, hi in enumerate(highs) if hi is None]
        # y . x = 0 for each kernel vector y of the basis rows cuts out the span
        equalities = [[y[i] for i in open_] for y in kernel_basis(basis)]
        free = {open_[j] for j in max_positive_support(equalities, len(open_))}
        kept = [i for i in range(len(lows)) if i not in free]
        basis = _basis_of([tuple(b[i] for i in kept) for b in basis], len(kept))
        lows, highs = [lows[i] for i in kept], [highs[i] for i in kept]
    d = len(lows)
    *head, last = basis or [(0,) * d]
    ranges = _coefficient_ranges(basis, lows, highs, len(head))
    if ranges is None:
        return False
    for t in itertools.product(*ranges):
        shift = [sum(tj * b[i] for tj, b in zip(t, head)) for i in range(d)]
        if _line_meets_box(
            last,
            [lo - s for lo, s in zip(lows, shift)],
            [None if hi is None else hi - s for hi, s in zip(highs, shift)],
        ):
            return True
    return False


def _coefficient_ranges(
    basis: list[Vec], lows: Sequence[int], highs: Sequence[int | None], count: int
) -> list[range] | None:
    """The integer ranges of t_0 .. t_{count-1} over the rational region
    lows <= B t <= highs, which must be bounded; None when it is empty.

    One phase 1 finds a vertex, and each bound is a `minimize` from where
    the last one left the tableau; the region is bounded, so every bound
    is finite.  With count 0 nothing is asked, and no LP runs.
    """
    if not count:
        return []
    k = len(basis)
    bounds = [(i, -1, lo) for i, lo in enumerate(lows)]
    bounds += [(i, 1, hi) for i, hi in enumerate(highs) if hi is not None]
    # variables t = tp - tn, then one slack per bound: B t -+ slack = bound
    slacks = range(len(bounds))
    rows = [
        [b[i] for b in basis] + [-b[i] for b in basis] + [sign * (r == s) for r in slacks]
        for s, (i, sign, _) in enumerate(bounds)
    ]
    rhs = [bound for _, _, bound in bounds]
    tab = solve_standard(rows, rhs)
    if tab.infeasible:
        return None
    ranges = []
    for j in range(count):
        cost = [(x == j) - (x == k + j) for x in range(2 * k + len(slacks))]
        low, high = tab.minimize(cost), -tab.minimize([-c for c in cost])
        ranges.append(range(math.ceil(low), math.floor(high) + 1))
    return ranges


def _line_meets_box(c: Vec, lows: Sequence[int], highs: Sequence[int | None]) -> bool:
    """Is there an integer t with lows <= c t <= highs where set?"""
    t_lows: list[int] = []
    t_highs: list[int] = []
    for ci, lo, hi in zip(c, lows, highs):
        if ci == 0:
            if lo > 0 or (hi is not None and hi < 0):
                return False
        elif ci > 0:
            t_lows.append(-(-lo // ci))
            if hi is not None:
                t_highs.append(hi // ci)
        else:
            t_highs.append(lo // ci)
            if hi is not None:
                t_lows.append(-(-hi // ci))
    return not t_lows or not t_highs or max(t_lows) <= min(t_highs)


def _violation_exists(tup: BottomTuple, c: Vec) -> bool:
    """Does some lattice point v make phi(c + v) false?

    phi fails at c + v when, for some implication, c + v covers an
    antecedent w, so v >= w - c, and misses every consequent w', so for
    each w' some coordinate i has v_i <= w'_i - 1 - c_i.  The consequents
    are walked in order, each branching on the coordinate it leaves short.
    One that the highs so far already leave short adds no bound: its
    branch on that coordinate is the box itself, and every other branch
    lies inside it.  Each choice of one coordinate per consequent gives a
    box inside some walked box, and a smaller box holds no more points,
    so the walk is exact.
    """
    d = len(c)

    def some_box(lows: list[int], highs: list[int | None], shorts: list[list[int]]) -> bool:
        if not shorts:
            return lattice_box_feasible(tup.basis, lows, highs)
        short, rest = shorts[0], shorts[1:]
        if any(hi is not None and hi <= s for hi, s in zip(highs, short)):
            return some_box(lows, highs, rest)
        return any(
            some_box(lows, highs[:i] + [s] + highs[i + 1 :], rest)
            for i, s in enumerate(short)
            if s >= lows[i]  # else the box is empty
        )

    for ants, cons in tup.implications:
        shorts = [[wq[i] - 1 - c[i] for i in range(d)] for wq in cons]
        if any(some_box([w[i] - c[i] for i in range(d)], [None] * d, shorts) for w in ants):
            return True
    return False


def eval_bottom(f: BottomFormula, c: Sequence[int]) -> bool:
    """Is c accepted: does some tuple match c on its index set, hold a
    membership vector below c, and leave no violation on c's coset?"""
    c = vec(c)
    if len(c) != f.dim:
        raise CompileError(f"expected dimension {f.dim}")
    return any(
        restrict(c, tup.index_set) == tup.state
        and any(vge(c, m) for m in tup.membership)
        and not _violation_exists(tup, c)
        for tup in f.tuples
    )


# --- serialization ---------------------------------------------------------------


def bottom_to_text(f: BottomFormula) -> str:
    # each distinct row, lattice and word list rendered once per call
    row, pair_lines = cache(_row), cache(_pair_lines)
    words = cache(lambda ws: ";".join(map(row, ws)))
    lines = _text_header(_header(f, "bottom"))
    for t in f.tuples:
        lines += ("tuple", "index-set " + row(t.index_set), "state " + row(t.state))
        lines += pair_lines(t.rep)
        lines += ["member " + row(m) for m in t.membership]
        lines += [f"imp {words(ants)} => {words(cons)}" for ants, cons in t.implications]
        lines.append("end")
    return "\n".join(lines) + "\n"


def bottom_from_text(text: str) -> BottomFormula:
    lines, pos, header, dim = _parse_header(text, "bottom", _BOTTOM_HEADER, "tuple")
    tuples = []
    blocks = _blocks(lines, pos, "tuple", ("index-set", "state"), ("pair", "member", "imp"))
    for once, many in blocks:
        index_set = _vector(once["index-set"], "index-set")
        if list(index_set) != sorted(set(index_set)) or not all(0 <= i < dim for i in index_set):
            raise CompileError(f"index-set: expected increasing coordinates below {dim}")
        imps = []
        for val in many["imp"]:
            lhs, sep, rhs = val.partition("=>")
            if not sep:
                raise CompileError(f"imp: expected 'antecedents => consequents', got {val!r}")
            ants, cons = (
                tuple(_vector(w, "imp", dim) for w in side.split(";") if w.strip())
                for side in (lhs, rhs)
            )
            imps.append((ants, cons))
        tuples.append(
            BottomTuple(
                index_set=index_set,
                state=_vector(once["state"], "state", len(index_set)),
                rep=_lattice(dim, many["pair"]),
                membership=tuple(_vector(m, "member", dim) for m in many["member"]),
                implications=tuple(imps),
            )
        )
    return BottomFormula(
        dim=dim,
        tuples=tuple(tuples),
        provenance=header.get("provenance", "heuristic"),
        complete=header.get("complete") == "1",
    )


def bottom_to_json(f: BottomFormula) -> str:
    """The text of `json.dumps(payload, sort_keys=True, indent=1)`, with
    each distinct gamma and each distinct vector list rendered once per
    call."""
    # a tuple's values sit three levels deep: payload, list, dict; an
    # implication's vector lists two deeper: list, dict
    value = cache(lambda v: _json_ints(v, 3))
    gamma = cache(lambda rep: _json_ints(rep.pairs, 3))
    words = cache(lambda ws: _json_ints(ws, 5))
    items = []
    for t in f.tuples:
        imps = ",\n".join(
            f'    {{\n     "antecedents": {words(ants)},\n     "consequents": {words(cons)}\n    }}'
            for ants, cons in t.implications
        )
        imps = "[\n" + imps + "\n   ]" if imps else "[]"
        items.append(
            f'  {{\n   "gamma": {gamma(t.rep)},\n   "implications": {imps},\n'
            f'   "index_set": {value(t.index_set)},\n'
            f'   "membership": {value(t.membership)},\n'
            f'   "state": {value(t.state)}\n  }}'
        )
    return _json_document(_header(f, "bottom"), "tuples", items)


def bottom_to_smtlib(f: BottomFormula) -> str:
    """Quantified export: per tuple, c restricted to I equals r and every
    lattice point v keeps phi(c + v) true."""
    d = f.dim
    c_names = [f"c{i}" for i in range(d)]
    v_names = [f"v{i}" for i in range(d)]
    parts = []
    for t in f.tuples:
        eqs = [f"(= {c_names[i]} {t.state[pos]})" for pos, i in enumerate(t.index_set)]
        covers = [
            _smt_connective("and", [f"(>= {c} {m[i]})" for i, c in enumerate(c_names)])
            for m in t.membership
        ]
        eqs.append(_smt_connective("or", covers))
        member = []
        for n, a in t.rep.pairs:
            term = _smt_connective(
                "+", [f"(* {smt_numeral(k)} {v})" for k, v in zip(a, v_names) if k]
            )
            member.append(f"(= {term} 0)" if n == 0 else f"(= (mod {term} {n}) 0)")
        shifted = [f"(+ {c} {v})" for c, v in zip(c_names, v_names)]
        body = f"(=> {_smt_connective('and', member)} {_phi_smtlib(t.implications, shifted)})"
        bound = " ".join(f"({v} Int)" for v in v_names)
        parts.append(_smt_connective("and", eqs + [f"(forall ({bound}) {body})"]))
    lines = ["(set-logic LIA)"]
    for n in c_names:
        lines += [f"(declare-const {n} Int)", f"(assert (>= {n} 0))"]
    lines += [f"(assert {_smt_connective('or', parts)})", "(check-sat)"]
    return "\n".join(lines) + "\n"


def _phi_smtlib(implications: tuple, names: Sequence[str]) -> str:
    """A tuple's threshold formula phi over the given terms, the one place
    it is rendered: per implication, covering some antecedent forces
    covering some consequent.  Each connective keeps its children, however
    few."""

    def some(ws) -> str:
        covers = [
            _smt_junction("and", [f"(>= {n} {smt_numeral(k)})" for n, k in zip(names, w)])
            for w in ws
        ]
        return _smt_junction("or", covers)

    return _smt_junction("and", [f"(=> {some(a)} {some(c)})" for a, c in implications])
