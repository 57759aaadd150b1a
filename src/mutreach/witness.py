"""Witnesses of mutual reachability over structurally-reversible unfoldings.

A set of configurations is mutually reachable exactly when some
structurally-reversible unfolding hard-codes their small coordinates,
every configuration can pump its large coordinates up and down via short
cycle labels, and all pairwise differences fall in the path-displacement
cosets.  The checker validates such certificates; the searcher enumerates
unfoldings; the synthesizer turns an accepted certificate into firing
words.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, NamedTuple

from .lattice import lattice_contains
from .net import Blocked, PetriNet, fire
from .steinitz import prefix_safe_reorder, prune_zero_subsequences
from .unfolding import (
    EnumLimits,
    Unfolding,
    UnfoldingPath,
    cycle_walks,
    elementary_path,
    embed_cycle,
    enumerate_unfoldings,
    index_sets,
    lattice_of_unfolding,
    reverse_cycle,
    unfolding_from_sccc,
)
from .intlinalg import solve_integer
from .vectors import Record, Vec, norm_inf, restrict, vec, vge, vsub, zero


class WitnessRejected(ValueError):
    def __init__(self, condition: str, detail=None):
        self.condition = condition
        self.detail = detail
        super().__init__(f"{condition}" if detail is None else f"{condition}: {detail}")


class SynthesisError(ValueError):
    pass


def exact_off_threshold(net: PetriNet, r: int) -> int:
    """The pumping threshold m r^3 (3 d r m)^d for an unfolding of r states."""
    m, d = net.norm, net.dim
    return m * r**3 * (3 * d * r * m) ** d


class PumpingParams(Record):
    """Search/certificate thresholds.

    `off_threshold` None means the exact per-unfolding value, in which
    case accepted witnesses are certified (the sufficiency direction
    applies); scaled-down values make verdicts heuristic.  `state_bound`
    and `cycle_len` only trade completeness, never soundness.
    """

    __slots__ = _fields = ("state_bound", "cycle_len", "off_threshold")

    def __init__(self, state_bound: int, cycle_len: int, off_threshold: int | None = None):
        off_negative = off_threshold is not None and off_threshold < 0
        if state_bound < 1 or cycle_len < 0 or off_negative:
            raise WitnessRejected("invalid parameters")
        self.state_bound = state_bound
        self.cycle_len = cycle_len
        self.off_threshold = off_threshold

    def threshold_for(self, net: PetriNet, r: int) -> int:
        """The threshold for an unfolding of r states."""
        if self.off_threshold is None:
            return exact_off_threshold(net, r)
        return self.off_threshold

    def off_floor(self, net: PetriNet) -> int:
        """A lower bound on the off-I entries of every pumping-basis vector
        of every unfolding of the net under these parameters.

        Take a basis element e = max(f(u), g(v)) of `upward_basis(g, q,
        self)` and a coordinate i outside g's index set.  Then e_i >= f_i
        >= delta_u,i + tau(g), and delta_u,i >= -|u| m with m = net.norm,
        since no action moves a coordinate by more than m.  The cycle word
        u has |u| <= cycle_len.  tau(g) is `threshold_for(net, r)` of g's
        size r >= 1, which does not decrease in r, so tau(g) >= tau_1 =
        `threshold_for(net, 1)`.  Hence e_i >= tau_1 - cycle_len m, and a
        configuration with an entry below this floor outside I lies in no
        pumping set of any unfolding over I.
        """
        return self.threshold_for(net, 1) - self.cycle_len * net.norm

    def certified_for(self, net: PetriNet, r: int) -> bool:
        """Whether the threshold for an unfolding of r states certifies."""
        return self.threshold_for(net, r) >= exact_off_threshold(net, r)


def exact_state_bound(dim: int, m: int) -> tuple[str, int | None]:
    """The exact state-norm bound (3dm)^((d+2)^(2d+1)), symbolically and,
    when it is below 10^40, as an integer."""
    base = 3 * dim * max(m, 1)
    expo = (dim + 2) ** (2 * dim + 1)
    symbolic = f"{base}^{dim + 2}^{2 * dim + 1} = {base}^{expo}"
    # base**expo has at least (bits of base - 1) * expo + 1 bits, so most
    # bounds are ruled out without building the power
    limit = 10**40
    if (base.bit_length() - 1) * expo < limit.bit_length():
        value = base**expo
        if value < limit:
            return symbolic, value
    return symbolic, None


# --- upward-closed pumping sets ---------------------------------------------


class BasisElement(NamedTuple):
    vector: Vec
    enter_word: tuple[int, ...]  # labels a cycle on q; fires into c
    leave_word: tuple[int, ...]  # labels a cycle on q; fires from c
    enter_displacement: Vec  # of the enter word: c-minus is c minus this


class UpwardBasis(NamedTuple):
    elements: tuple[BasisElement, ...]
    truncated: bool


# cycle-word steps explored per pumping basis before it is marked truncated
WALK_BUDGET = 20000


def _cycle_words(
    g: Unfolding, q: Vec, max_len: int
) -> tuple[list[tuple[tuple[int, ...], Vec, Vec]], bool]:
    """All words labelling cycles on q with length <= max_len (walks may
    revisit states), deterministic order, capped by WALK_BUDGET; each with
    its hurdle (the least configuration the whole word fires from) and its
    displacement.

    Both are carried along the walk: appending action a to w gives
    h(wa) = max(h(w), pre(a) - delta(w)) and delta(wa) = delta(w) + delta(a).
    """
    actions = g.net.actions
    start = zero(g.net.dim)
    words: list[tuple[tuple[int, ...], Vec, Vec]] = [((), start, start)]
    out: dict[Vec, list] = {}
    for t in g.transitions:
        out.setdefault(t[0], []).append(t)
    frontier: list[tuple[Vec, tuple[int, ...], Vec, Vec]] = [(q, (), start, start)]
    explored = 1
    for _ in range(max_len):
        nxt = []
        for state, word, h, delta in frontier:
            for t in out.get(state, ()):
                explored += 1
                if explored > WALK_BUDGET:
                    return words, True
                a = actions[t[1]]
                entry = (
                    word + (t[1],),
                    tuple(max(x, p - y) for x, p, y in zip(h, a.pre, delta)),
                    tuple(y + z for y, z in zip(delta, a.displacement)),
                )
                if t[2] == q:
                    words.append(entry)
                nxt.append((t[2], *entry))
        frontier = nxt
    return words, False


def _antichain_min(items: list[tuple[Vec, object]]) -> list[tuple[Vec, object]]:
    """Minimal elements under componentwise order, by sum and then
    lexicographically; of repeated vectors the first witness is kept."""
    first: dict[Vec, object] = {}
    for v, w in items:
        first.setdefault(v, w)
    # A vector above another distinct one has the larger sum, so it comes
    # later; v is kept when every kept u has some entry above v's.
    kept: list[tuple[Vec, object]] = []
    for v, w in sorted(first.items(), key=lambda it: (sum(it[0]), it[0])):
        for u, _ in kept:
            for a, b in zip(v, u):
                if a < b:
                    break
            else:
                break  # v >= u
        else:
            kept.append((v, w))
    return kept


def _with_state(v: Vec, index_set: tuple[int, ...], q: Vec) -> Vec:
    """v with the values of q written onto the I coordinates."""
    if len(index_set) == len(v):
        return tuple(q)
    full = list(v)
    for i, x in zip(index_set, q):
        full[i] = x
    return tuple(full)


def _basis_rows(
    net: PetriNet, index_set: tuple[int, ...], words: list, tau: int, cycle_len: int
) -> list[BasisElement]:
    """The pumping-basis rows of a state over I, from the cycle words
    `_cycle_words` walked on it: the minimal elements of its pumping set,
    zero on I and sorted by vector.

    A configuration c with c restricted to I equal to the state belongs
    to the set when some pair (u, v) of the cycle words admits firings
    c-minus --u--> c --v--> c-plus with both end configurations at least
    tau outside I.  The componentwise requirement on c splits as
    max(f(u), g(v)), so minimal antichains for f and g combine pairwise.
    I is constant within a state, so writing its values in keeps the order.
    """
    off = tuple(i for i in range(net.dim) if i not in index_set)
    f_items: list[tuple[Vec, object]] = []
    g_items: list[tuple[Vec, object]] = []
    for w, h, delta in words:
        f_vec = tuple(max(h[i] + delta[i], delta[i] + tau) for i in off)
        g_vec = tuple(max(h[i], -delta[i] + tau) for i in off)
        f_items.append((f_vec, (w, delta)))
        g_items.append((g_vec, w))

    combos: list[tuple[Vec, object]] = []
    g_min = _antichain_min(g_items)
    for fv, u in _antichain_min(f_items):
        for gv, v in g_min:
            combined = tuple(max(a, b) for a, b in zip(fv, gv))
            combos.append((combined, (u, v)))
    elements = []
    # off-I entries stay below max(2*len*m, len*m + tau): the cycle-length
    # analogue of the basis norm bound
    cap = max(2 * cycle_len * net.norm, cycle_len * net.norm + tau)
    for off_vec, ((u, delta_u), v) in _antichain_min(combos):
        assert max(off_vec, default=0) <= cap
        elements.append(BasisElement(_with_state((0,) * net.dim, off, off_vec), u, v, delta_u))
    elements.sort(key=lambda e: e.vector)
    return elements


def upward_basis(g: Unfolding, q: Vec, params: PumpingParams) -> UpwardBasis:
    """Minimal elements of the pumping set at state q: `_basis_rows` of
    the cycle words on q, with q written onto I."""
    if q not in set(g.states):
        raise WitnessRejected("state not in unfolding", q)
    words, truncated = _cycle_words(g, q, params.cycle_len)
    tau = params.threshold_for(g.net, g.size)
    rows = _basis_rows(g.net, g.index_set, words, tau, params.cycle_len)
    elements = tuple(e._replace(vector=_with_state(e.vector, g.index_set, q)) for e in rows)
    return UpwardBasis(elements, truncated)


# --- witness checking ---------------------------------------------------------


class PumpCertificate(NamedTuple):
    config: Vec
    enter_word: tuple[int, ...]
    leave_word: tuple[int, ...]
    c_minus: Vec
    c_plus: Vec
    basis_vector: Vec


class PairCertificate(NamedTuple):
    source: Vec
    target: Vec
    offset: Vec  # displacement of the elementary witness path


class MutualWitness(NamedTuple):
    unfolding: Unfolding
    configs: tuple[Vec, ...]
    pumps: tuple[PumpCertificate, ...]
    pairs: tuple[PairCertificate, ...]
    params: PumpingParams
    certified: bool
    within_state_bound: bool


def check_witness(
    net: PetriNet, configs: Iterable[Vec], g: Unfolding, params: PumpingParams
) -> MutualWitness:
    """Accept iff all restrictions are states, every configuration passes
    pumping-set membership at its own state, and every ordered pair's
    difference lies in the corresponding coset.  g must be structurally
    reversible; that is not re-checked here (`witness_from_text` does)."""
    cs = tuple(sorted(set(vec(c) for c in configs)))
    if not cs:
        raise WitnessRejected("empty configuration set")
    for c in cs:
        if len(c) != net.dim or any(x < 0 for x in c):
            raise WitnessRejected("not a configuration", c)
    state_set = set(g.states)
    bases: dict[Vec, UpwardBasis] = {}
    pumps = []
    for c in cs:
        q = restrict(c, g.index_set)
        if q not in state_set:
            raise WitnessRejected("restriction is not a state", c)
        if q not in bases:
            bases[q] = upward_basis(g, q, params)
        elem = next((e for e in bases[q].elements if vge(c, e.vector)), None)
        if elem is None:
            raise WitnessRejected("configuration outside the pumping set", c)
        c_minus = vsub(c, elem.enter_displacement)
        c_plus = fire(c, net.word(elem.leave_word))
        assert fire(c_minus, net.word(elem.enter_word)) == c
        pumps.append(
            PumpCertificate(c, elem.enter_word, elem.leave_word, c_minus, c_plus, elem.vector)
        )
    pairs = []
    for x in cs:
        for y in cs:
            if x == y:
                continue
            path = elementary_path(g, restrict(x, g.index_set), restrict(y, g.index_set))
            offset = path.displacement(net)
            assert norm_inf(offset) <= g.size * net.norm
            if not lattice_contains(lattice_of_unfolding(g), vsub(vsub(y, x), offset)):
                raise WitnessRejected("difference outside the displacement coset", (x, y))
            pairs.append(PairCertificate(x, y, offset))
    return MutualWitness(
        unfolding=g,
        configs=cs,
        pumps=tuple(pumps),
        pairs=tuple(pairs),
        params=params,
        certified=params.certified_for(net, g.size),
        within_state_bound=max(map(norm_inf, g.states), default=0) < params.state_bound,
    )


# --- search -------------------------------------------------------------------


class SearchResult(NamedTuple):
    status: str  # found | not-found-exhausted | not-found-budget | not-found-truncated
    witness: MutualWitness | None = None
    examined: int = 0


def search_witness(
    net: PetriNet,
    x: Vec,
    y: Vec,
    params: PumpingParams,
    budget: int = 10000,
    limits: EnumLimits | None = None,
) -> SearchResult:
    """Enumerate structurally-reversible unfoldings under the parameters
    and return the first accepted witness for {x, y}.

    An index set I is skipped before any enumeration when no unfolding
    over it can accept the pair: x|I or y|I has an entry of at least
    `params.state_bound`, so no unfolding over I holds it as a state, or
    some i outside I has min(x_i, y_i) below `params.off_floor(net)`, so
    that configuration lies in no pumping set over I.  The skip drops
    only candidates `check_witness` would reject, so the first accepted
    witness is unchanged and a budget runs out no sooner.  `examined`
    counts the unfoldings enumerated over the index sets that were not
    skipped, and `budget` bounds that count.

    `not-found-exhausted` means the bounded space was fully searched; it
    refutes mutual reachability only when the parameters dominate the
    exact thresholds, which they never do at desk scale, so callers
    should cross-check with the reachability oracle.  `not-found-budget`
    means `budget` unfoldings were examined and another one was left;
    `not-found-truncated` means the search took `limits.max_unfoldings`
    of some index set that was not skipped and another one was left.
    """
    x, y = vec(x), vec(y)
    for c in (x, y):
        if len(c) != net.dim or any(v < 0 for v in c):
            raise WitnessRejected("not a configuration", c)
    if x == y:
        g = unfolding_from_sccc(net, [x], range(net.dim))
        return SearchResult("found", check_witness(net, (x,), g, params), examined=1)
    limits = limits or EnumLimits()
    floor = params.off_floor(net)
    # each coordinate must be small enough to be a state entry when it is
    # in I, and large enough to pump when it is not
    fits = {i for i in range(net.dim) if max(x[i], y[i]) < params.state_bound}
    pumps = {i for i in range(net.dim) if min(x[i], y[i]) >= floor}
    examined = 0
    truncated = False
    for index_set in index_sets(net.dim):
        if any(i not in (fits if i in index_set else pumps) for i in range(net.dim)):
            continue
        walk = enumerate_unfoldings(net, index_set, params.state_bound, limits)
        for g in islice(walk, limits.max_unfoldings):
            if examined >= budget:
                return SearchResult("not-found-budget", examined=examined)
            examined += 1
            sset = set(g.states)
            if restrict(x, index_set) not in sset or restrict(y, index_set) not in sset:
                continue
            try:
                w = check_witness(net, (x, y), g, params)
            except WitnessRejected:
                continue
            return SearchResult("found", w, examined=examined)
        truncated = truncated or next(walk, None) is not None
    return SearchResult(
        "not-found-truncated" if truncated else "not-found-exhausted", examined=examined
    )


# --- path synthesis -----------------------------------------------------------


def _decompose_into_simple(path: UnfoldingPath) -> list[UnfoldingPath]:
    """Excise simple cycles from a cycle until nothing remains."""
    pieces: list[UnfoldingPath] = []
    stack_states: list[Vec] = [path.source]
    stack_trans: list = []
    for t in path.transitions:
        stack_trans.append(t)
        q = t[2]
        if q in stack_states:
            i = stack_states.index(q)
            cut = len(stack_states) - 1 - i  # transitions since state i
            piece = tuple(stack_trans[len(stack_trans) - 1 - cut :])
            pieces.append(UnfoldingPath(q, piece))
            del stack_trans[len(stack_trans) - 1 - cut :]
            del stack_states[i + 1 :]
        else:
            stack_states.append(q)
    assert not stack_trans, "input was not a cycle"
    return pieces


def synthesize_path(net: PetriNet, x: Vec, y: Vec, witness: MutualWitness) -> tuple[int, ...]:
    """A word firing x to y, assembled from the witness: pump up at x,
    walk an elementary path, repay the lattice difference by reordered
    full-state cycles, and pump down into y.

    A firing failure reports the first blocked step; it signals that the
    witness thresholds were below the exact ones, not that the
    certificate structure is wrong.
    """
    x, y = vec(x), vec(y)
    g = witness.unfolding
    index_set = g.index_set
    if x == y:
        return ()
    pump = {p.config: p for p in witness.pumps}
    if x not in pump or y not in pump:
        raise SynthesisError("witness does not cover the endpoints")
    px, py = pump[x], pump[y]
    alpha = px.leave_word  # x --alpha--> x_plus
    beta = py.enter_word  # y_minus --beta--> y
    x_plus = px.c_plus
    y_minus = py.c_minus
    p, q = restrict(x, index_set), restrict(y, index_set)
    pi = elementary_path(g, p, q)
    target = vsub(vsub(y_minus, x_plus), pi.displacement(net))
    rep = lattice_of_unfolding(g)
    if not lattice_contains(rep, target):
        raise SynthesisError("pumped difference left the cycle lattice")

    theta_word: tuple[int, ...] = ()
    if target != zero(net.dim):
        # Columns: the distinct simple pieces of the closed walks, in walk
        # order.  With the raw walks as columns the solver tends to pick
        # negative coefficients, and each one is repaid by `reverse_cycle`,
        # a walk over every transition of the unfolding.
        cycles = list(
            dict.fromkeys(piece for w in cycle_walks(g) for piece in _decompose_into_simple(w))
        )
        mat = [[c.displacement(net)[i] for c in cycles] for i in range(net.dim)]
        coeffs = solve_integer(mat, list(target))
        if coeffs is None:
            raise SynthesisError("no integer cycle decomposition of the difference")
        pieces: list[UnfoldingPath] = []
        for c, h in zip(cycles, coeffs):
            if h > 0:
                pieces.extend([c] * h)
            elif h < 0:
                rev = reverse_cycle(g, c)
                for piece in _decompose_into_simple(rev):
                    pieces.extend([piece] * (-h))
        bag = [piece.displacement(net) for piece in pieces]
        keep = prune_zero_subsequences(bag)
        pieces = [pieces[j] for j in keep]
        bag = [bag[j] for j in keep]
        for j in prefix_safe_reorder(bag):
            theta_word = theta_word + embed_cycle(g, pieces[j], q).word

    word = alpha + pi.word + theta_word + beta
    try:
        final = fire(x, net.word(word))
    except Blocked as exc:
        raise SynthesisError(
            f"synthesized word blocked at step {exc.step} (thresholds too small "
            "to guarantee firing, certificate structure unaffected)"
        ) from exc
    if final != y:
        raise SynthesisError(f"synthesized word ends at {final}, expected {y}")
    return word
