import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REPO,
    candidate_unfoldings,
    collect_unfoldings,
    count_pivots,
    definitional_reversible,
    reaches_everything,
    reference_circulation_rows,
    reference_unfoldings,
    simple_cycles,
    take,
    unfolding_to_dot,
    reach_components,
    walked_state_sets,
)
from mutreach import ratlp, unfolding
from mutreach.lattice import lattice_contains, representation_from_generators
from mutreach.net import Action, PetriNet, load_net
from mutreach.ratlp import max_positive_support
from mutreach.unfolding import (
    EnumLimits,
    Unfolding,
    UnfoldingError,
    UnfoldingPath,
    bounded_states,
    cycle_walks,
    elementary_path,
    embed_cycle,
    enumerate_unfoldings,
    i_fires,
    index_sets,
    is_structurally_reversible,
    lattice_of_unfolding,
    reverse_cycle,
    strongly_connected_components,
    unfolding_from_sccc,
    validate_unfolding,
)
from mutreach.vectors import vadd, vsub
from mutreach.witness import _decompose_into_simple


def _level2(token_swap):
    states = [(2, 0), (1, 1), (0, 2)]
    trans = [
        ((2, 0), 0, (1, 1)),
        ((1, 1), 0, (0, 2)),
        ((0, 2), 1, (1, 1)),
        ((1, 1), 1, (2, 0)),
    ]
    return validate_unfolding(token_swap, (0, 1), states, trans)


def test_validate_accepts_self_loop():
    net = PetriNet(2, (Action((1, 0), (1, 0)),))
    g = validate_unfolding(net, (0, 1), [(1, 0)], [((1, 0), 0, (1, 0))])
    assert g.size == 1


def test_validate_rejects_disconnected():
    net = PetriNet(2, (Action((1, 0), (0, 1)),))
    with pytest.raises(UnfoldingError) as exc:
        validate_unfolding(net, (0, 1), [(2, 0), (1, 1)], [((2, 0), 0, (1, 1))])
    assert "strongly connected" in exc.value.reason


def test_validate_rejects_bad_edge():
    net = PetriNet(2, (Action((1, 0), (0, 1)),))
    with pytest.raises(UnfoldingError) as exc:
        validate_unfolding(
            net, (0, 1),
            [(2, 0), (1, 1)],
            [((2, 0), 0, (1, 1)), ((1, 1), 0, (2, 0))],
        )
    assert exc.value.detail == ((1, 1), 0, (2, 0))


def test_reversibility_examples():
    up = PetriNet(1, (Action((0,), (1,)),))
    g = validate_unfolding(up, (), [()], [((), 0, ())])
    assert is_structurally_reversible(g)[0] is False

    updown = PetriNet(1, (Action((0,), (1,)), Action((1,), (0,))))
    g2 = validate_unfolding(updown, (), [()], [((), 0, ()), ((), 1, ())])
    ok, flows = is_structurally_reversible(g2)
    assert ok and all(f > 0 for f in flows.values())


def test_reversibility_two_state_cycle(token_swap):
    g = validate_unfolding(
        token_swap, (0, 1),
        [(1, 0), (0, 1)],
        [((1, 0), 0, (0, 1)), ((0, 1), 1, (1, 0))],
    )
    ok, flows = is_structurally_reversible(g)
    assert ok
    assert flows[((1, 0), 0, (0, 1))] == flows[((0, 1), 1, (1, 0))]


def test_lp_matches_definitional_search_on_candidates(fixture_nets):
    checked = 0
    for name in ("token_swap", "ring", "consumer"):
        net = fixture_nets[name]
        for index_set in ([()], [(0,)], [(0, 1)]) if net.dim >= 2 else ([()], [(0,)]):
            candidates = candidate_unfoldings(
                net, index_set[0], 3, max_states=3, max_edges=8, cap=150
            )
            for g in candidates:
                lp, flows = is_structurally_reversible(g)
                if lp:
                    total = sum(int(f * f.denominator) for f in flows.values())
                    budget = max(total, 8)
                else:
                    budget = 24
                search = definitional_reversible(g, length_budget=budget, disp_bound=budget)
                assert lp == search, (name, g.states, g.transitions)
                checked += 1
    assert checked > 50


def test_simple_cycles_examples(token_swap):
    g = _level2(token_swap)
    cycles = simple_cycles(g)
    assert len(cycles) == 2  # the two level-adjacent back-and-forth loops
    for c in cycles:
        assert c.is_cycle()
        assert c.displacement(token_swap) == (0, 0)

    two_loops = PetriNet(1, (Action((0,), (1,)), Action((1,), (0,))))
    g2 = validate_unfolding(two_loops, (), [()], [((), 0, ()), ((), 1, ())])
    cycles2 = simple_cycles(g2)
    assert len(cycles2) == 2


def test_simple_cycles_triangle(ring):
    g = validate_unfolding(
        ring, (0, 1),
        [(2, 0), (1, 1), (0, 2)],
        [((2, 0), 0, (1, 1)), ((1, 1), 1, (0, 2)), ((0, 2), 2, (2, 0))],
    )
    cycles = simple_cycles(g)
    assert len(cycles) == 1
    assert len(cycles[0]) == 3


RING3 = PetriNet(
    3, (Action((1, 0, 0), (0, 1, 0)), Action((0, 1, 0), (0, 0, 1)), Action((0, 0, 1), (1, 0, 0)))
)


@pytest.mark.parametrize("forward_closed", [False, True])
def test_closed_walks_span_the_simple_cycle_lattice(fixture_nets, forward_closed):
    """On every unfolding the |E| closed walks, one per edge, are genuine
    closed walks on the first state and span what the simple cycles span."""
    # ring3 is capped at four states: its six-state sets cost about 40 s of
    # LPs, and the four-state ones already include the unfoldings whose
    # equality pairs come out scaled before normalisation
    nets = [(net, EnumLimits()) for net in fixture_nets.values()] + [(RING3, EnumLimits(max_states=4))]
    checked = 0
    for net, limits in nets:
        for index_set in index_sets(net.dim):
            for g in enumerate_unfoldings(net, index_set, 4, limits, forward_closed=forward_closed):
                walks = cycle_walks(g)
                assert len(walks) == len(g.transitions)
                edges = set(g.transitions)
                for w in walks:
                    assert w.source == w.target == g.states[0]
                    assert set(w.transitions) <= edges
                # the generators the simple-cycle lattice was built from
                reference = sorted({c.displacement(net) for c in simple_cycles(g)})
                assert lattice_of_unfolding(g) == representation_from_generators(reference, net.dim)
                checked += 1
    assert checked >= 20


def test_lattice_of_unfolding_examples():
    even = PetriNet(2, (Action((0, 0), (2, 0)), Action((0, 0), (0, 2))))
    g = validate_unfolding(even, (), [()], [((), 0, ()), ((), 1, ())])
    rep = lattice_of_unfolding(g)
    assert lattice_contains(rep, (2, 0)) and lattice_contains(rep, (0, 2))
    assert not lattice_contains(rep, (1, 0))

    skew = PetriNet(2, (Action((1, 0), (0, 1)), Action((0, 1), (1, 0))))
    g2 = validate_unfolding(skew, (0,), [(0,), (1,)],
                            [((1,), 0, (0,)), ((0,), 1, (1,))])
    rep2 = lattice_of_unfolding(g2)
    # both cycles have zero displacement on this unfolding
    assert lattice_contains(rep2, (0, 0))
    assert not lattice_contains(rep2, (1, -1))

    diag = PetriNet(2, (Action((0, 0), (1, 1)), Action((1, 1), (0, 0))))
    g3 = validate_unfolding(diag, (), [()], [((), 0, ()), ((), 1, ())])
    rep3 = lattice_of_unfolding(g3)
    assert lattice_contains(rep3, (1, 1)) and lattice_contains(rep3, (-1, -1))
    assert not lattice_contains(rep3, (1, 0))


def test_lattice_invariant_under_reversed_cycles(token_swap):
    g = _level2(token_swap)
    rep = lattice_of_unfolding(g)
    cycles = simple_cycles(g)
    gens = [c.displacement(token_swap) for c in cycles]
    doubled = representation_from_generators(
        gens + [tuple(-v for v in w) for w in gens], token_swap.dim
    )
    import itertools

    for x in itertools.product(range(-3, 4), repeat=2):
        assert lattice_contains(rep, x) == lattice_contains(doubled, x)


def test_coset_between(token_swap):
    """The elementary path p -> q gives the offset of the coset of all
    p -> q displacements: zero for p = q, and a round trip's offsets sum
    into the lattice."""
    g = _level2(token_swap)
    offset = lambda p, q: elementary_path(g, p, q).displacement(token_swap)
    assert offset((1, 1), (1, 1)) == (0, 0)
    down, up = offset((2, 0), (0, 2)), offset((0, 2), (2, 0))
    assert down == (-2, 2) and up == (2, -2)
    assert lattice_contains(lattice_of_unfolding(g), vadd(down, up))


def test_coset_well_defined_across_paths(token_swap):
    """Two different paths between the same states give the same coset."""
    g = _level2(token_swap)
    import itertools

    rep = lattice_of_unfolding(g)
    # path A: elementary; path B: detour through (0,2) and back
    b1, b2, b3 = ((2, 0), 0, (1, 1)), ((1, 1), 0, (0, 2)), ((0, 2), 1, (1, 1))
    pa = elementary_path(g, (2, 0), (1, 1))
    pb = UnfoldingPath((2, 0), (b1, b2, b3))
    assert pa.transitions != pb.transitions
    da, db = pa.displacement(token_swap), pb.displacement(token_swap)
    for w in itertools.product(range(-3, 4), repeat=2):
        assert lattice_contains(rep, vsub(w, da)) == lattice_contains(rep, vsub(w, db))


def _loops(*displacements):
    """A one-counter net whose actions add the given amounts."""
    return PetriNet(1, tuple(Action((max(-d, 0),), (max(d, 0),)) for d in displacements))


def _reversal_ok(g, cycle):
    back = reverse_cycle(g, cycle)
    assert back.source == back.target == cycle.source
    assert set(back.transitions) <= set(g.transitions)
    assert back.displacement(g.net) == tuple(-v for v in cycle.displacement(g.net))
    return back


def test_reverse_cycle_of_every_simple_piece(fixture_nets, ring3):
    """Every simple piece of every enumerated unfolding's closed walks
    reverses to a closed walk on its source with the negated displacement."""
    reversed_pieces = 0
    for net in [*fixture_nets.values(), ring3]:
        for index_set in index_sets(net.dim):
            for g in enumerate_unfoldings(net, index_set, 3):
                for piece in {p for w in cycle_walks(g) for p in _decompose_into_simple(w)}:
                    _reversal_ok(g, piece)
                    reversed_pieces += 1
    assert reversed_pieces > 100


def test_reverse_cycle_examples(token_swap):
    updown = _loops(1, -1)
    g = validate_unfolding(updown, (), [()], [((), 0, ()), ((), 1, ())])
    assert sorted(_reversal_ok(g, UnfoldingPath((), (((), 0, ()),))).word) == [0, 1, 1]

    g2 = validate_unfolding(
        token_swap, (0, 1),
        [(1, 0), (0, 1)],
        [((1, 0), 0, (0, 1)), ((0, 1), 1, (1, 0))],
    )
    back = _reversal_ok(g2, UnfoldingPath((0, 1), (((0, 1), 1, (1, 0)), ((1, 0), 0, (0, 1)))))
    assert back.word == (1, 0)

    # reversing the -3 loop takes +1 and +2 loops whose partial sums leave
    # any window around 0 narrower than 2; the circuit needs no window
    g3 = validate_unfolding(_loops(-3, 1, 2), (), [()], [((), 0, ()), ((), 1, ()), ((), 2, ())])
    _reversal_ok(g3, UnfoldingPath((), (((), 0, ()),)))

    with pytest.raises(UnfoldingError):  # not closed
        reverse_cycle(g2, UnfoldingPath((1, 0), (((1, 0), 0, (0, 1)),)))
    with pytest.raises(UnfoldingError):  # not a transition of g
        reverse_cycle(g, UnfoldingPath((), (((), 2, ()),)))


def _states_visited(path):
    return {path.source, *(q for _, _, q in path.transitions)}


def test_zero_full_state_cycle_examples(token_swap):
    noop = PetriNet(1, (Action((1,), (1,)),))
    g = validate_unfolding(noop, (0,), [(1,)], [((1,), 0, (1,))])
    cycle = embed_cycle(g, UnfoldingPath((1,)), (1,))
    assert cycle.word == (0,)

    updown = PetriNet(1, (Action((0,), (1,)), Action((1,), (0,))))
    g2 = validate_unfolding(updown, (), [()], [((), 0, ()), ((), 1, ())])
    cycle2 = embed_cycle(g2, UnfoldingPath(()), ())
    assert sorted(cycle2.word) == [0, 1]

    g3 = _level2(token_swap)
    cycle3 = embed_cycle(g3, UnfoldingPath((1, 1)), (1, 1))
    assert cycle3.source == (1, 1)
    assert cycle3.displacement(token_swap) == (0, 0)
    assert _states_visited(cycle3) == set(g3.states)


def test_zero_full_state_cycle_on_ring(ring):
    g = validate_unfolding(
        ring, (0, 1),
        [(2, 0), (1, 1), (0, 2)],
        [((2, 0), 0, (1, 1)), ((1, 1), 1, (0, 2)), ((0, 2), 2, (2, 0))],
    )
    cycle = embed_cycle(g, UnfoldingPath((1, 1)), (1, 1))
    assert cycle.is_cycle() and cycle.source == (1, 1)
    assert cycle.displacement(ring) == (0, 0)
    assert _states_visited(cycle) == set(g.states)


def test_embed_cycle(token_swap):
    g = _level2(token_swap)
    zero_c = embed_cycle(g, UnfoldingPath((1, 1)), (1, 1))
    cycles = simple_cycles(g)
    for c in cycles:
        for anchor in g.states:
            emb = embed_cycle(g, c, anchor)
            assert emb.source == emb.target == anchor
            assert emb.displacement(token_swap) == c.displacement(token_swap)
            assert _states_visited(emb) == set(g.states)
            assert len(emb) == len(zero_c) + len(c)


def test_embed_cycle_rejections(token_swap):
    g = _level2(token_swap)
    cycles = simple_cycles(g)
    with pytest.raises(UnfoldingError, match="anchor is not a state"):
        embed_cycle(g, cycles[0], (9, 9))
    with pytest.raises(UnfoldingError, match="not a closed walk"):  # not closed
        embed_cycle(g, UnfoldingPath((2, 0), (((2, 0), 0, (1, 1)),)), (2, 0))
    with pytest.raises(UnfoldingError, match="not a closed walk"):  # not a transition of g
        embed_cycle(g, UnfoldingPath((1, 1), (((1, 1), 1, (1, 1)),)), (1, 1))


def test_unfolding_from_sccc_examples(token_swap, ring):
    g = unfolding_from_sccc(token_swap, [(2, 0), (1, 1), (0, 2)], (0, 1))
    assert g.states == ((0, 2), (1, 1), (2, 0))
    assert len(g.transitions) == 4
    assert is_structurally_reversible(g)[0]

    single = unfolding_from_sccc(token_swap, [(0, 0)], (0, 1))
    assert single.states == ((0, 0),) and single.transitions == ()

    g2 = unfolding_from_sccc(ring, [(2, 0), (1, 1), (0, 2)], (0, 1))
    assert is_structurally_reversible(g2)[0]

    with pytest.raises(UnfoldingError):
        unfolding_from_sccc(token_swap, [(1, 0), (0, 0)], (0, 1))


def test_elementary_path_is_elementary(token_swap):
    g = _level2(token_swap)
    path = elementary_path(g, (2, 0), (0, 2))
    states = [path.source] + [t[2] for t in path.transitions]
    assert len(states) == len(set(states))


def test_enumeration_deterministic_and_unique(token_swap):
    gs1, truncated = collect_unfoldings(token_swap, (0, 1), 3)
    gs2, _ = collect_unfoldings(token_swap, (0, 1), 3)
    assert [(g.states, g.transitions) for g in gs1] == [
        (g.states, g.transitions) for g in gs2
    ]
    keys = [(g.states, g.transitions) for g in gs1]
    assert len(keys) == len(set(keys))
    assert not truncated
    level2 = unfolding_from_sccc(token_swap, [(2, 0), (1, 1), (0, 2)], (0, 1))
    assert (level2.states, level2.transitions) in keys


def test_enumeration_all_reversible(fixture_nets):
    for net in fixture_nets.values():
        for index_set in ((), (0,)):
            gs, _ = collect_unfoldings(net, index_set, 3)
            for g in gs:
                assert is_structurally_reversible(g)[0], (g.states, g.transitions)


def test_enumeration_b1_single_state(consumer):
    gs, _ = collect_unfoldings(consumer, (0,), 1)
    assert len(gs) == 1
    assert gs[0].states == ((0,),) and gs[0].transitions == ()


def test_enumeration_truncation_flag(mixed3):
    limits = EnumLimits(max_states=4, max_unfoldings=3)
    gs, truncated = collect_unfoldings(mixed3, (0, 1), 4, limits)
    assert truncated and len(gs) == 3


def test_enumeration_truncation_flag_at_exact_limit(consumer, mixed3):
    """A limit equal to the count truncates nothing; one below it does."""
    gs, truncated = collect_unfoldings(consumer, (0,), 1, EnumLimits(max_unfoldings=1))
    assert len(gs) == 1 and not truncated
    full, _ = collect_unfoldings(mixed3, (0, 1), 4, EnumLimits(max_states=4))
    n = len(full)
    for limit, truncated in ((n, False), (n - 1, True)):
        gs, cut = collect_unfoldings(mixed3, (0, 1), 4, EnumLimits(max_states=4, max_unfoldings=limit))
        assert [g.states for g in gs] == [g.states for g in full[:limit]]
        assert cut == truncated


def test_transition_subset_enumeration(token_swap):
    candidates = candidate_unfoldings(token_swap, (0,), 2, max_states=2, max_edges=14)
    gs = [g for g in candidates if is_structurally_reversible(g)[0]]
    keys = [(g.states, g.transitions) for g in gs]
    assert len(keys) == len(set(keys))
    for g in gs:
        assert is_structurally_reversible(g)[0]
    # the two-state set admits exactly one valid transition set (both edges)
    two_state = [g for g in gs if len(g.states) == 2]
    assert len(two_state) == 1 and len(two_state[0].transitions) == 2


def test_forward_closed_enumeration_matches_reference(fixture_nets):
    """Forward-closed mode yields, in walk order, exactly the state sets
    that no enabled action leaves and whose full edge set is reversible."""
    total = 0
    for net in fixture_nets.values():
        for index_set in index_sets(net.dim):
            expected = []
            for states, edges in walked_state_sets(net, index_set, 3, EnumLimits().max_states):
                targets = {i_fires(a, index_set, p) for p in states for a in net.actions}
                if not targets - {None} <= set(states):
                    continue
                if is_structurally_reversible(Unfolding(net, index_set, states, tuple(edges)))[0]:
                    expected.append((states, tuple(edges)))
            found = enumerate_unfoldings(net, index_set, 3, forward_closed=True)
            assert [(g.states, g.transitions) for g in found] == expected, index_set
            total += len(expected)
    assert total > 10


# Two reversible pairs of counters, a <-> b and c <-> d, joined by the
# one-way action c -> b: connected state sets cross from the {c, d}
# component into the {a, b} one, and the {c, d} component leaks.  The
# one-way edge runs from a state to a later one in the walk's order.
TWO_PAIRS = PetriNet(
    4,
    (
        Action((1, 0, 0, 0), (0, 1, 0, 0)),
        Action((0, 1, 0, 0), (1, 0, 0, 0)),
        Action((0, 0, 1, 0), (0, 0, 0, 1)),
        Action((0, 0, 0, 1), (0, 0, 1, 0)),
        Action((0, 0, 1, 0), (0, 1, 0, 0)),
    ),
)


def test_two_pairs_is_the_checked_in_fixture():
    assert load_net(REPO / "fixtures" / "two_pairs.net") == TWO_PAIRS


@pytest.mark.parametrize("max_unfoldings", [5000, 2])
@pytest.mark.parametrize("forward_closed", [False, True])
@pytest.mark.parametrize("name", ["token_swap", "consumer", "ring", "mixed3", "ring3", "two_pairs"])
def test_enumeration_matches_unshortcut_reference(fixture_nets, name, forward_closed,
                                                  max_unfoldings):
    """Walking only inside strongly connected components, solving each
    circulation system once and building edge lists per state yield the
    same unfoldings, in the same order, cut at the same cap, as a full walk
    with a full edge scan that solves every system afresh."""
    net = {"ring3": RING3, "two_pairs": TWO_PAIRS}.get(name) or fixture_nets[name]
    bound = 2 if name == "two_pairs" else 4
    limits = EnumLimits(max_unfoldings=max_unfoldings)
    for index_set in index_sets(net.dim):
        found = enumerate_unfoldings(net, index_set, bound, limits, forward_closed)
        expected = reference_unfoldings(net, index_set, bound, limits, forward_closed)
        assert take(found, max_unfoldings) == take(expected, max_unfoldings), index_set


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n)
        if n else st.just([])
    )
)
def test_strongly_connected_components_match_mutual_reachability(succ):
    """Two nodes share a label exactly when each reaches the other; labels
    run from 0 in closing order, so no edge leads to a higher label."""
    n = len(succ)
    reach = [{i} for i in range(n)]
    for _ in range(n):
        for i in range(n):
            reach[i] |= {k for j in reach[i] for k in succ[j]}
    label = strongly_connected_components(succ)
    for i in range(n):
        for j in range(n):
            assert (label[i] == label[j]) == (j in reach[i] and i in reach[j])
        assert all(label[j] <= label[i] for j in succ[i])
    assert sorted(set(label)) == list(range(len(set(label))))


def test_two_pairs_walk_crosses_components():
    """The full walk reaches state sets that span the two components, and
    only the closed {a, b} component yields a forward-closed unfolding."""
    index_set = (0, 1, 2, 3)
    components = reach_components(TWO_PAIRS, index_set, 2)
    spanning = [
        states
        for states, _ in walked_state_sets(TWO_PAIRS, index_set, 2, EnumLimits().max_states)
        if len({components[s] for s in states}) > 1
    ]
    assert ((0, 0, 1, 0), (0, 1, 0, 0)) in spanning
    ab, cd = components[(1, 0, 0, 0)], components[(0, 0, 1, 0)]
    assert ab == {(1, 0, 0, 0), (0, 1, 0, 0)} and cd == {(0, 0, 1, 0), (0, 0, 0, 1)}
    closed = [g.states for g in enumerate_unfoldings(TWO_PAIRS, index_set, 2, forward_closed=True)]
    assert tuple(sorted(ab)) in closed and tuple(sorted(cd)) not in closed


@pytest.mark.parametrize(
    "name, bound, walked, yielded",
    [("mixed3", 5, 516, 516), ("two_pairs", 2, 181, 180), ("ring3", 4, 7978, 930)],
)
def test_walk_stays_inside_strongly_connected_components(
    mixed3, monkeypatch, name, bound, walked, yielded
):
    """Every walked state set of two or more states lies in one strongly
    connected component.  The full walk visits 12 117 sets on mixed3 at
    state bound 5 and 446 on the two pairs at state bound 2; inside
    components it visits just over the unfoldings.  On ring3 at state
    bound 4 it visits 7 978 sets for 930 unfoldings: most connected sets of
    a ring's component are not strongly connected."""
    net = {"mixed3": mixed3, "ring3": RING3}.get(name, TWO_PAIRS)
    subsets = []

    def recording(neighbors, max_size):
        for subset in connected_subsets(neighbors, max_size):
            subsets.append(subset)
            yield subset

    connected_subsets = unfolding._connected_subsets
    monkeypatch.setattr(unfolding, "_connected_subsets", recording)
    total_walked = total_yielded = 0
    for index_set in index_sets(net.dim):
        subsets.clear()
        total_yielded += sum(1 for _ in enumerate_unfoldings(net, index_set, bound))
        states = bounded_states(index_set, bound)
        components = reach_components(net, index_set, bound)
        for subset in subsets:
            if len(subset) > 1:
                assert len({components[states[i]] for i in subset}) == 1
        total_walked += len(subsets)
    assert (total_walked, total_yielded) == (walked, yielded)


@pytest.mark.parametrize(
    "name, bound, max_states, yielded",
    [("mixed3", 5, 6, 6), ("mixed3", 5, 3, 4), ("two_pairs", 2, 6, 3), ("two_pairs", 2, 1, 2)],
)
def test_forward_closed_yields_are_closed_components(mixed3, name, bound, max_states, yielded):
    """Forward-closed mode yields, in order of least state, exactly the
    strongly connected components that no enabled action leaves, of at
    most `max_states` states, whose every enabled edge is kept and carries
    a positive circulation."""
    net = mixed3 if name == "mixed3" else TWO_PAIRS
    limits = EnumLimits(max_states=max_states)
    total = 0
    for index_set in index_sets(net.dim):
        components = reach_components(net, index_set, bound)
        expected = []
        for component in sorted(set(components.values()), key=min):
            states = tuple(sorted(component))
            targets = {i_fires(a, index_set, p) for p in states for a in net.actions}
            if len(states) > max_states or not targets - {None} <= component:
                continue
            edges = tuple(
                (p, k, q) for p in states for k, a in enumerate(net.actions)
                if (q := i_fires(a, index_set, p)) is not None
            )
            if is_structurally_reversible(Unfolding(net, index_set, states, edges))[0]:
                expected.append((states, edges))
        found = enumerate_unfoldings(net, index_set, bound, limits, forward_closed=True)
        assert [(g.states, g.transitions) for g in found] == expected, index_set
        total += len(expected)
    assert total == yielded


def test_forward_closed_mode_walks_no_subsets(fixture_nets, monkeypatch):
    def walk(neighbors, max_size):
        raise AssertionError("forward-closed mode walked connected subsets")

    monkeypatch.setattr(unfolding, "_connected_subsets", walk)
    for net in [*fixture_nets.values(), RING3, TWO_PAIRS]:
        for index_set in index_sets(net.dim):
            list(enumerate_unfoldings(net, index_set, 4, forward_closed=True))
    with pytest.raises(AssertionError, match="walked connected subsets"):
        list(enumerate_unfoldings(TWO_PAIRS, (0, 1), 2))


def _small_action(d: int):
    """An action with entries 0..2; half the time its post is a permutation
    of its pre, so token-conserving actions and closed components of more
    than one state are common."""
    entries = st.tuples(*[st.integers(0, 2)] * d)
    return entries.flatmap(
        lambda pre: st.tuples(st.just(pre), entries | st.permutations(pre).map(tuple))
    )


_SMALL_NETS = st.integers(1, 3).flatmap(
    lambda d: st.lists(_small_action(d), min_size=1, max_size=4).map(
        lambda acts: PetriNet(d, tuple(Action(pre, post) for pre, post in acts))
    )
)


@settings(max_examples=200, deadline=None)
@given(
    net=_SMALL_NETS,
    bound=st.integers(2, 4),
    max_states=st.integers(1, 6),
    max_unfoldings=st.integers(0, 6),
)
def test_forward_closed_matches_reference_on_random_nets(net, bound, max_states, max_unfoldings):
    limits = EnumLimits(max_states=max_states, max_unfoldings=max_unfoldings)
    for index_set in index_sets(net.dim):
        found = enumerate_unfoldings(net, index_set, bound, limits, forward_closed=True)
        expected = reference_unfoldings(net, index_set, bound, limits, forward_closed=True)
        assert take(found, max_unfoldings) == take(expected, max_unfoldings), index_set


@pytest.mark.parametrize("forward_closed", [False, True])
def test_enumeration_matches_reference_when_truncated(mixed3, forward_closed):
    limits = EnumLimits(max_states=4, max_unfoldings=2)
    found, truncated = take(enumerate_unfoldings(mixed3, (0, 1, 2), 4, limits, forward_closed), 2)
    expected = take(reference_unfoldings(mixed3, (0, 1, 2), 4, limits, forward_closed), 2)
    assert (found, truncated) == expected
    assert (len(found), truncated) == (2, True)


def test_each_distinct_circulation_system_is_solved_once(mixed3, monkeypatch):
    calls = []

    def counting(rows, nvars):
        calls.append(tuple(map(tuple, rows)))
        return max_positive_support(rows, nvars)

    monkeypatch.setattr(unfolding, "max_positive_support", counting)
    solved = state_sets = 0
    for index_set in index_sets(mixed3.dim):
        calls.clear()
        list(enumerate_unfoldings(mixed3, index_set, 4))
        systems = set()
        for states, edges in walked_state_sets(mixed3, index_set, 4, EnumLimits().max_states):
            if reaches_everything(states, edges):
                systems.add(tuple(map(tuple, reference_circulation_rows(mixed3, states, edges))))
                state_sets += 1
        assert len(calls) == len(set(calls)), index_set
        assert set(calls) == systems, index_set
        solved += len(calls)
    assert solved < state_sets  # systems do repeat across state sets


def test_two_pairs_supports_take_one_lp_per_cut(monkeypatch):
    """TWO_PAIRS' 15 proper index sets at state bound 3, with one `decided`
    dict: 749 distinct edge shapes ask a support question, and 338 of them
    are balanced after the presolve.  The all-column LP of each of the
    other 411 fails, and its Farkas cut leaves a balanced system, so each
    takes one LP; one LP per uncovered column took 3 630.  The 411 LPs
    take 1 649 pivots, which exact arithmetic repeats."""
    calls, questions = [], []
    solve, support = ratlp.solve_standard, unfolding.max_positive_support

    def counting(*args):
        calls.append(args)
        return solve(*args)

    def asking(rows, nvars):
        questions.append(rows)
        return support(rows, nvars)

    monkeypatch.setattr(ratlp, "solve_standard", counting)
    monkeypatch.setattr(unfolding, "max_positive_support", asking)
    pivots = count_pivots(monkeypatch)
    digest, count, decided = hashlib.sha256(), 0, {}
    for index_set in index_sets(TWO_PAIRS.dim)[:-1]:
        for g in enumerate_unfoldings(TWO_PAIRS, index_set, 3, decided=decided):
            digest.update(repr((g.index_set, g.states, g.transitions)).encode() + b"\n")
            count += 1
    assert count == 1829
    assert digest.hexdigest() == "fa21efd6670a7c28dfdf5812d293c90215b9e792bb60d29de611d6c1f6109ff8"
    assert len(questions) == 749
    assert len(calls) == 411
    assert len(pivots) == 1649


def test_equal_incidence_with_different_displacements_is_solved_apart():
    """Two state sets can share their flow rows and differ only in the
    displacement rows; the answer for one must not be reused for the
    other, within one index set or across the index sets of one
    `decided` dict."""
    net = PetriNet(
        3,
        (
            Action((0, 0, 0), (1, 0, 0)),  # east
            Action((1, 0, 0), (0, 0, 1)),  # west, leaving a token on counter 2
            Action((0, 0, 0), (0, 1, 0)),  # north
            Action((0, 1, 0), (0, 0, 0)),  # south
        ),
    )
    decided = {}
    for index_set in index_sets(net.dim):
        found = [(g.states, g.transitions)
                 for g in enumerate_unfoldings(net, index_set, 2, decided=decided)]
        expected = reference_unfoldings(net, index_set, 2, EnumLimits())
        assert found == [(g.states, g.transitions) for g in expected], index_set
        if index_set == (0, 1):
            vertical = (((0, 0), (0, 1)), (((0, 0), 2, (0, 1)), ((0, 1), 3, (0, 0))))
            assert vertical in found
            assert not any(states == ((0, 0), (1, 0)) for states, _ in found)


def test_dot_export(token_swap):
    g = _level2(token_swap)
    dot = unfolding_to_dot(g)
    assert dot.startswith("digraph") and '"(2,0)" -> "(1,1)"' in dot


# --- the simplex vertex, pinned ---------------------------------------------
#
# The positive circulation is the one LP output that depends on the pivot
# order, and the repay words are built from it, so its values are pinned.


def test_charge_net_circulation_is_pinned():
    """The two-state unfolding over I = (0,) of a net that spends a token,
    rebuilds it from two charges, and gains two charges."""
    net = PetriNet(2, (Action((1, 0), (0, 0)), Action((0, 2), (1, 0)), Action((0, 0), (0, 2))))
    g = validate_unfolding(
        net, (0,), [(0,), (1,)],
        [((1,), 0, (0,)), ((0,), 1, (1,)), ((0,), 2, (0,)), ((1,), 2, (1,))],
    )
    assert unfolding._integer_circulation(g) == {
        ((0,), 1, (1,)): 2, ((0,), 2, (0,)): 1, ((1,), 0, (0,)): 2, ((1,), 2, (1,)): 1,
    }


def test_ring3_circulations_are_pinned(ring3):
    """The circulation of each of ring3's 930 mutual unfoldings at state
    bound 4, over every index set, as one digest."""
    digest = hashlib.sha256()
    count = 0
    for index_set in index_sets(ring3.dim):
        for g in enumerate_unfoldings(ring3, index_set, 4):
            z = sorted(unfolding._integer_circulation(g).items())
            digest.update(repr((g.index_set, g.states, z)).encode() + b"\n")
            count += 1
    assert count == 930
    assert digest.hexdigest() == "c34e45eba941c0294c5ab527bb369ce47064fe4b7ebc4e91de42b0bb52362c3a"
