import itertools

import pytest

import conftest
from conftest import (
    collect_unfoldings,
    displacement,
    hurdle,
    reference_antichain_min,
    reference_cycle_words,
    reference_search_witness,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from mutreach.lattice import representation_from_generators
from mutreach.net import Action, PetriNet, fire
from mutreach.oracle import BoundedStateSpace
from mutreach.presburger import BottomFormula, BottomTuple, eval_bottom
from mutreach.unfolding import (
    EnumLimits,
    enumerate_unfoldings,
    index_sets,
    is_structurally_reversible,
    unfolding_from_sccc,
    validate_unfolding,
)
from mutreach import witness
from mutreach.witness import (
    PumpingParams,
    SynthesisError,
    WitnessRejected,
    check_witness,
    exact_off_threshold,
    exact_state_bound,
    search_witness,
    synthesize_path,
    upward_basis,
)
from mutreach.vectors import norm_inf, vge
from mutreach.witnessio import witness_from_text, witness_to_text


def test_upward_basis_full_index_is_the_state(token_swap):
    g = unfolding_from_sccc(token_swap, [(2, 0), (1, 1), (0, 2)], (0, 1))
    basis = upward_basis(g, (1, 1), PumpingParams(state_bound=4, cycle_len=2))
    assert [e.vector for e in basis.elements] == [(1, 1)]
    assert basis.elements[0].enter_word == ()
    assert any(vge((1, 1), e.vector) for e in basis.elements)
    assert not any(vge((1, 0), e.vector) for e in basis.elements)


def test_upward_basis_partial_index_threshold():
    # single self-loop with zero displacement but positive precondition
    net = PetriNet(2, (Action((1, 0), (1, 0)),))
    g = validate_unfolding(net, (1,), [(0,)], [((0,), 0, (0,))])
    tau = 7
    basis = upward_basis(g, (0,), PumpingParams(state_bound=2, cycle_len=1, off_threshold=tau))
    # off-I coordinate demand: empty words need tau; the loop word needs
    # max(H + delta, delta + tau) = max(1, tau)
    vectors = [e.vector for e in basis.elements]
    assert (tau, 0) in vectors
    assert basis.elements and min(v[0] for v in vectors) == tau


def test_upward_basis_is_antichain(fixture_nets):
    params = PumpingParams(state_bound=3, cycle_len=3)
    for net in fixture_nets.values():
        gs, _ = collect_unfoldings(net, (0,), 3)
        for g in gs[:6]:
            for q in g.states:
                basis = upward_basis(g, q, params)
                for a, b in itertools.permutations(basis.elements, 2):
                    assert not all(x >= y for x, y in zip(a.vector, b.vector))


@pytest.mark.parametrize("name", ["token_swap", "consumer", "ring", "mixed3", "ring3"])
def test_cycle_words_carry_hurdle_and_displacement(fixture_nets, ring3, name):
    """At the default bounds, every cycle word on every state of every
    unfolding carries the hurdle and displacement of the whole word, and
    the walk yields the words and truncation flag of the word-only walk."""
    net = ring3 if name == "ring3" else fixture_nets[name]
    params = PumpingParams(state_bound=4, cycle_len=4)
    checked = 0
    for index_set in index_sets(net.dim):
        for g in enumerate_unfoldings(net, index_set, params.state_bound):
            for q in g.states:
                entries, truncated = witness._cycle_words(g, q, params.cycle_len)
                words = [w for w, _, _ in entries]
                assert (words, truncated) == reference_cycle_words(g, q, params.cycle_len)
                for w, h, delta in entries:
                    acts = net.word(w)
                    assert h == hurdle(acts, dim=net.dim), (g, q, w)
                    assert delta == displacement(acts, dim=net.dim), (g, q, w)
                checked += len(entries)
    assert checked > 0


@pytest.mark.parametrize("name", ["token_swap", "consumer", "ring", "mixed3", "ring3"])
def test_basis_elements_carry_their_enter_displacement(fixture_nets, ring3, name):
    """Every pumping-basis element at the default bounds keeps the
    displacement of its enter word, and firing that word from c minus it
    ends at c for the basis vector c itself."""
    net = ring3 if name == "ring3" else fixture_nets[name]
    params = PumpingParams(state_bound=4, cycle_len=4)
    checked = 0
    for index_set in index_sets(net.dim):
        for g in enumerate_unfoldings(net, index_set, params.state_bound):
            for q in g.states:
                for e in upward_basis(g, q, params).elements:
                    enter = net.word(e.enter_word)
                    assert e.enter_displacement == displacement(enter, dim=net.dim), (g, q, e)
                    c_minus = tuple(c - k for c, k in zip(e.vector, e.enter_displacement))
                    assert fire(c_minus, enter) == e.vector
                    checked += 1
    assert checked > 0


def test_cycle_words_stop_at_the_walk_budget(ring3, monkeypatch):
    monkeypatch.setattr(witness, "WALK_BUDGET", 40)
    g = max(enumerate_unfoldings(ring3, (0,), 4), key=lambda g: len(g.transitions))
    q = g.states[0]
    entries, truncated = witness._cycle_words(g, q, 6)
    assert len(entries) > 1
    assert truncated
    assert ([w for w, _, _ in entries], truncated) == reference_cycle_words(g, q, 6)
    for w, h, delta in entries:
        assert (h, delta) == (hurdle(ring3.word(w), dim=3), displacement(ring3.word(w), dim=3))


@pytest.mark.parametrize("budget, truncated", [(376, True), (377, False)])
def test_cycle_words_budget_boundary(ring3, monkeypatch, budget, truncated):
    """377 is the least budget under which this ring3 walk runs to the
    end: one below, it stops at the last edge step, and the words and
    the flag are the reference walk's at both budgets."""
    monkeypatch.setattr(witness, "WALK_BUDGET", budget)
    g = max(enumerate_unfoldings(ring3, (0,), 4), key=lambda g: len(g.transitions))
    q = g.states[0]
    entries, cut = witness._cycle_words(g, q, 6)
    assert cut is truncated
    assert ([w for w, _, _ in entries], cut) == reference_cycle_words(g, q, 6)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(0, 2)] * d), max_size=30)
))
def test_antichain_min_matches_sort_and_scan(vectors):
    """Repeated vectors with distinct witnesses: the first witness of each
    minimal vector survives, in the order of the stable sort-and-scan."""
    items = [(v, k) for k, v in enumerate(vectors)]
    assert witness._antichain_min(items) == reference_antichain_min(items)


def test_membership_empty_basis_is_false():
    """A bottom tuple whose pumping basis at r is empty accepts no point,
    though its implication formula is empty and so holds everywhere."""
    tup = BottomTuple((), (), representation_from_generators([], 2), (), ())
    assert eval_bottom(BottomFormula(2, (tup,), "certified", True), (1, 2)) is False


def test_check_witness_accepts_level_set(token_swap):
    g = unfolding_from_sccc(token_swap, [(2, 0), (1, 1), (0, 2)], (0, 1))
    params = PumpingParams(state_bound=4, cycle_len=2)
    w = check_witness(token_swap, [(2, 0), (0, 2)], g, params)
    assert w.certified
    assert {p.config for p in w.pumps} == {(2, 0), (0, 2)}
    for cert in w.pumps:
        assert fire(cert.c_minus, token_swap.word(cert.enter_word)) == cert.config
        assert fire(cert.config, token_swap.word(cert.leave_word)) == cert.c_plus


def test_check_witness_rejects_coset_violation(token_swap):
    g = unfolding_from_sccc(token_swap, [(2, 0), (1, 1), (0, 2)], (0, 1))
    params = PumpingParams(state_bound=4, cycle_len=2)
    with pytest.raises(WitnessRejected) as exc:
        check_witness(token_swap, [(2, 0), (1, 0)], g, params)
    assert "state" in exc.value.condition or "coset" in exc.value.condition


def test_check_witness_rejects_missing_state(token_swap):
    g = unfolding_from_sccc(token_swap, [(1, 0), (0, 1)], (0, 1))
    with pytest.raises(WitnessRejected):
        check_witness(token_swap, [(2, 0)], g, PumpingParams(state_bound=4, cycle_len=2))


def test_singleton_witness(token_swap):
    res = search_witness(token_swap, (1, 1), (1, 1), PumpingParams(state_bound=2, cycle_len=0))
    assert res.status == "found"
    assert res.witness.unfolding.states == ((1, 1),)
    assert synthesize_path(token_swap, (1, 1), (1, 1), res.witness) == ()


def test_search_finds_token_swap_pair(token_swap):
    params = PumpingParams(state_bound=4, cycle_len=4)
    res = search_witness(token_swap, (3, 0), (0, 3), params)
    assert res.status == "found"
    w = res.witness
    word = synthesize_path(token_swap, (3, 0), (0, 3), w)
    assert fire((3, 0), token_swap.word(word)) == (0, 3)
    back = synthesize_path(token_swap, (0, 3), (3, 0), w)
    assert fire((0, 3), token_swap.word(back)) == (3, 0)


def test_search_consumer_exhausts(consumer):
    res = search_witness(consumer, (1,), (0,), PumpingParams(state_bound=4, cycle_len=2))
    assert res.status == "not-found-exhausted"


def test_search_budget_status(token_swap):
    params = PumpingParams(state_bound=4, cycle_len=4)
    for budget in (1, 3):
        res = search_witness(token_swap, (2, 0), (0, 2), params, budget=budget)
        assert (res.status, res.examined) == ("not-found-budget", budget)


def test_search_truncated_status(token_swap):
    """The enumeration limit is not the budget: a search cut short by
    `max_unfoldings` says so."""
    res = search_witness(token_swap, (2, 0), (0, 2), PumpingParams(state_bound=4, cycle_len=4),
                         limits=EnumLimits(max_unfoldings=1))
    assert (res.status, res.examined) == ("not-found-truncated", 1)


def test_search_cap_boundary_is_per_index_set(ring):
    """ring's pair (0,2)/(2,0) is found at the fourth unfolding of its one
    walked index set: a cap of 4 reaches it, a cap of 3 stops one short and
    says the walk was cut.  The non-mutual (0,2)/(0,3) walks all 21 of that
    set, so a cap of exactly 21 cuts nothing."""
    params = PumpingParams(state_bound=4, cycle_len=4)

    def search(x, y, cap):
        res = search_witness(ring, x, y, params, limits=EnumLimits(max_unfoldings=cap))
        return res.status, res.examined

    assert search((0, 2), (2, 0), 4) == ("found", 4)
    assert search((0, 2), (2, 0), 3) == ("not-found-truncated", 3)
    assert search((0, 2), (0, 3), 21) == ("not-found-exhausted", 21)


@pytest.mark.parametrize("x, y", [((2, 0, 5), (0, 2, 5)), ((-1, 0), (0, -1)), ((2,), (0,))])
def test_search_rejects_non_configurations(token_swap, x, y):
    with pytest.raises(WitnessRejected) as exc:
        search_witness(token_swap, x, y, PumpingParams(state_bound=4, cycle_len=4))
    assert exc.value.condition == "not a configuration"
    assert exc.value.detail == x


def _enumerated_index_sets(monkeypatch, net, x, y, params):
    seen = []

    def spy(net, index_set, *args, **kwargs):
        seen.append(tuple(index_set))
        return enumerate_unfoldings(net, index_set, *args, **kwargs)

    monkeypatch.setattr(witness, "enumerate_unfoldings", spy)
    return search_witness(net, x, y, params), seen


def test_search_skips_index_sets_that_cannot_pump(token_swap, monkeypatch):
    """With exact thresholds a coordinate outside I must be at least
    m (3dm)^d - cycle_len m = 32, so (2,0)/(0,2) leaves only I = (0, 1).
    With threshold 0 nothing is skipped: the pair is found over the first
    index set, and the non-mutual (2,0)/(0,3) walks all four."""
    res, seen = _enumerated_index_sets(
        monkeypatch, token_swap, (2, 0), (0, 2), PumpingParams(state_bound=4, cycle_len=4)
    )
    assert (res.status, seen) == ("found", [(0, 1)])
    zero = PumpingParams(state_bound=4, cycle_len=4, off_threshold=0)
    res, seen = _enumerated_index_sets(monkeypatch, token_swap, (2, 0), (0, 2), zero)
    assert (res.status, seen) == ("found", [()])
    res, seen = _enumerated_index_sets(monkeypatch, token_swap, (2, 0), (0, 3), zero)
    assert (res.status, seen) == ("not-found-exhausted", [(), (0,), (1,), (0, 1)])


def test_search_skips_index_sets_outside_the_state_bound(token_swap, monkeypatch):
    """A coordinate of at least `state_bound` cannot be a state entry."""
    params = PumpingParams(state_bound=4, cycle_len=4, off_threshold=0)
    _, seen = _enumerated_index_sets(monkeypatch, token_swap, (5, 0), (0, 3), params)
    assert seen == [(), (1,)]


@pytest.fixture
def enumerate_once(monkeypatch):
    """Serve each enumeration from a memo, for the search and the reference
    alike; the enumerator is deterministic, so both see the same unfoldings."""
    memo = {}

    def enumerate_memo(net, index_set, state_bound, limits=None, forward_closed=False):
        key = (net, tuple(index_set), state_bound, repr(limits), forward_closed)
        if key not in memo:
            memo[key] = list(enumerate_unfoldings(net, index_set, state_bound, limits,
                                                  forward_closed))
        yield from memo[key]

    monkeypatch.setattr(witness, "enumerate_unfoldings", enumerate_memo)
    monkeypatch.setattr(conftest, "enumerate_unfoldings", enumerate_memo)


def _words(net, x, y, w):
    out = []
    for a, b in ((x, y), (y, x)):
        try:
            out.append(synthesize_path(net, a, b, w))
        except SynthesisError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("cycle_len", [1, 2])
@pytest.mark.parametrize("off_threshold", [None, 2])
@pytest.mark.parametrize("name", ["token_swap", "consumer", "ring", "mixed3"])
def test_search_matches_the_full_walk(fixture_nets, enumerate_once, name, off_threshold,
                                      cycle_len):
    """Skipping index sets changes no status, witness or synthesized word
    on any pair x < y of [0,3]^d, and never examines more unfoldings."""
    net = fixture_nets[name]
    params = PumpingParams(state_bound=3, cycle_len=cycle_len, off_threshold=off_threshold)
    for x, y in itertools.combinations(itertools.product(range(4), repeat=net.dim), 2):
        res = search_witness(net, x, y, params)
        ref = reference_search_witness(net, x, y, params)
        assert res.status == ref.status, (x, y)
        assert res.examined <= ref.examined, (x, y)
        if ref.witness is None:
            continue
        got, want = res.witness, ref.witness
        assert (got.unfolding, got.pumps, got.pairs) == (want.unfolding, want.pumps, want.pairs)
        assert _words(net, x, y, got) == _words(net, x, y, want), (x, y)


def test_off_floor_bounds_every_basis_entry(fixture_nets, ring3):
    """Every off-I entry of every pumping basis of every unfolding at
    state bound 3 is at least the floor the search skips by."""
    for net in (*fixture_nets.values(), ring3):
        for index_set in index_sets(net.dim):
            off = [i for i in range(net.dim) if i not in index_set]
            gs, truncated = collect_unfoldings(net, index_set, 3)
            assert not truncated
            for cycle_len in range(5):
                for threshold in (None, 0, 2, 5):
                    params = PumpingParams(3, cycle_len, threshold)
                    floor = params.off_floor(net)
                    for g in gs:
                        for q in g.states:
                            for e in upward_basis(g, q, params).elements:
                                assert all(e.vector[i] >= floor for i in off), (g, q, e)


def test_search_monotone_in_state_bound(token_swap):
    """Enlarging the search bound never loses a witness."""
    found = []
    for bound in (2, 3, 4, 5):
        res = search_witness(
            token_swap, (2, 0), (0, 2), PumpingParams(state_bound=bound, cycle_len=4)
        )
        found.append(res.status == "found")
    assert found == sorted(found)  # once found, stays found
    assert found[-1]


def test_search_monotone_in_cycle_len_and_budget(token_swap):
    base = PumpingParams(state_bound=4, cycle_len=4)
    assert search_witness(token_swap, (2, 0), (0, 2), base).status == "found"
    for longer in (6, 8):
        res = search_witness(
            token_swap, (2, 0), (0, 2), PumpingParams(state_bound=4, cycle_len=longer)
        )
        assert res.status == "found"
    for budget in (50, 500):
        res = search_witness(token_swap, (2, 0), (0, 2), base, budget=budget)
        assert res.status == "found"


def test_basis_truncation_propagates_to_formula_completeness(token_swap, monkeypatch):
    from mutreach.presburger import compile_mutual

    params = PumpingParams(state_bound=3, cycle_len=4)
    assert compile_mutual(token_swap, params).complete
    monkeypatch.setattr(witness, "WALK_BUDGET", 1)
    assert not compile_mutual(token_swap, params).complete


@pytest.mark.parametrize("difference", [4, 12, 24])
def test_synthesis_with_nontrivial_cycle_lattice(difference):
    """Witness whose difference must be repaid by nonzero-displacement
    cycles: two self-inverse actions moving pairs of tokens, whose cycle
    lattice is 2Z x {0}.  Exercises the integer cycle decomposition,
    pruning, reordering and embedding path end to end, in both
    directions, at the certified threshold."""
    net = PetriNet(2, (Action((0, 0), (2, 0)), Action((2, 0), (0, 0))))
    tau = exact_off_threshold(net, unfolding_from_sccc(net, [(0, 0)], (0, 1)))
    x = (tau + 2, tau)
    y = (tau + 2 + difference, tau)
    params = PumpingParams(state_bound=1, cycle_len=2)
    res = search_witness(net, x, y, params)
    assert res.status == "found", res.status
    w = res.witness
    assert w.certified
    word = synthesize_path(net, x, y, w)
    assert fire(x, net.word(word)) == y
    assert len(word) >= 2  # genuinely repaid by cycles
    back = synthesize_path(net, y, x, w)
    assert fire(y, net.word(back)) == x


@pytest.mark.parametrize("loops, x, y", [((-3, 1, 2), (50,), (47,)), ((2, 3, -1), (40,), (45,))])
def test_synthesis_reverses_a_cycle_with_a_negative_coefficient(monkeypatch, loops, x, y):
    """One-counter nets of self-loops whose integer cycle decomposition
    takes some simple cycle a negative number of times."""
    net = PetriNet(1, tuple(Action((max(-d, 0),), (max(d, 0),)) for d in loops))
    reverse_cycle, reversed_cycles = witness.reverse_cycle, []

    def spy(g, cycle):
        reversed_cycles.append(cycle)
        return reverse_cycle(g, cycle)

    monkeypatch.setattr(witness, "reverse_cycle", spy)
    params = PumpingParams(state_bound=1, cycle_len=1, off_threshold=20)
    res = search_witness(net, x, y, params)
    assert res.status == "found"
    word = synthesize_path(net, x, y, res.witness)
    assert reversed_cycles
    assert fire(x, net.word(word)) == y


@pytest.mark.parametrize("difference", [4, 12, 24])
def test_synthesis_multi_state_partial_index(monkeypatch, difference):
    """Two-state one-tracked-coordinate unfolding whose cycles move the
    untracked coordinate by two: the difference is repaid by cycles
    embedded as full-state closed walks on the target's state, in both
    directions, and the empty-index unfolding met first is rejected on
    pumping membership."""
    embed_cycle, embedded = witness.embed_cycle, []

    def spy(g, cycle, anchor):
        walk = embed_cycle(g, cycle, anchor)
        embedded.append((g, cycle, anchor, walk))
        return walk

    monkeypatch.setattr(witness, "embed_cycle", spy)
    net = PetriNet(
        2,
        (
            Action((1, 0), (0, 0)),  # spend the tracked token
            Action((0, 2), (1, 0)),  # rebuild it from two charges
            Action((0, 0), (0, 2)),  # gain two charges
        ),
    )
    params = PumpingParams(state_bound=2, cycle_len=4)
    g2 = validate_unfolding(
        net, (0,),
        [(0,), (1,)],
        [((1,), 0, (0,)), ((0,), 1, (1,)), ((0,), 2, (0,)), ((1,), 2, (1,))],
    )
    tau = exact_off_threshold(net, g2)
    x = (1, tau + 84)
    y = (1, tau + 84 + difference)
    res = search_witness(net, x, y, params)
    assert res.status == "found"
    w = res.witness
    assert w.certified
    assert w.unfolding.index_set == (0,)
    assert w.unfolding.size == 2
    for src, dst in ((x, y), (y, x)):
        word = synthesize_path(net, src, dst, w)
        assert fire(src, net.word(word)) == dst
        assert len(word) >= 2
    # y -> x repays in every case (x -> y at difference 4 needs no cycle);
    # both endpoints sit on state q = (1,)
    assert embedded
    for g, cycle, anchor, walk in embedded:
        assert g == w.unfolding and anchor == (1,)
        assert walk.source == walk.target == (1,)
        assert {t[0] for t in walk.transitions} == {(0,), (1,)}
        assert walk.displacement(net) == cycle.displacement(net)


def test_synthesis_of_many_cycles_returns():
    """One counter: +1, -1 and -2.  At the default bounds the pair is
    certified on I = (), and repaying its difference reorders a few
    hundred cycles, which used to stall the move loop of the reordering."""
    net = PetriNet(1, (Action((1,), (2,)), Action((1,), (0,)), Action((2,), (0,))))
    x, y = (10,), (35,)
    res = search_witness(net, x, y, PumpingParams(state_bound=4, cycle_len=4))
    assert res.status == "found" and res.witness.certified
    for src, dst in ((x, y), (y, x)):
        word = synthesize_path(net, src, dst, res.witness)
        assert fire(src, net.word(word)) == dst


def test_synthesis_heuristic_threshold_fires_or_reports_block():
    """With thresholds scaled far below the exact ones the certificate
    structure is unaffected; firing either succeeds (and must then be
    exactly right) or reports the first blocked step."""
    net = PetriNet(2, (Action((0, 0), (2, 0)), Action((2, 0), (0, 0))))
    params = PumpingParams(state_bound=1, cycle_len=2, off_threshold=0)
    x, y = (1, 0), (5, 0)
    res = search_witness(net, x, y, params)
    assert res.status == "found"
    assert not res.witness.certified
    try:
        word = synthesize_path(net, x, y, res.witness)
        assert fire(x, net.word(word)) == y
    except SynthesisError as exc:
        assert "blocked" in str(exc)


def test_exact_threshold_and_state_bound_values(token_swap):
    g = unfolding_from_sccc(token_swap, [(1, 0), (0, 1)], (0, 1))
    # m r^3 (3 d r m)^d with m=1, r=2, d=2
    assert exact_off_threshold(token_swap, g) == 1 * 8 * (3 * 2 * 2 * 1) ** 2
    assert exact_state_bound(1, 1) == ("3^3^3 = 3^27", 3**27)
    assert exact_state_bound(2, 1) == ("6^4^5 = 6^1024", None)  # 10^40 or more: symbolic
    symbolic4, value4 = exact_state_bound(4, 3)
    assert value4 is None  # astronomically large: reported symbolically


def test_certified_flag_depends_on_threshold(token_swap):
    g = unfolding_from_sccc(token_swap, [(1, 0), (0, 1)], (0, 1))
    exact = exact_off_threshold(token_swap, g)
    assert PumpingParams(2, 2, off_threshold=exact).certified_for(token_swap, g)
    assert PumpingParams(2, 2, off_threshold=exact + 5).certified_for(token_swap, g)
    assert not PumpingParams(2, 2, off_threshold=exact - 1).certified_for(token_swap, g)
    assert PumpingParams(2, 2).certified_for(token_swap, g)


@pytest.mark.parametrize(
    "kwargs",
    [{"state_bound": 0}, {"cycle_len": -1}, {"off_threshold": -1}],
    ids=["state_bound", "cycle_len", "off_threshold"],
)
def test_pumping_params_reject_negative_values(kwargs):
    with pytest.raises(WitnessRejected, match="invalid parameters"):
        PumpingParams(**{"state_bound": 2, "cycle_len": 2, **kwargs})
    assert PumpingParams(2, 2, off_threshold=0).off_threshold == 0


def test_completeness_probe_fixtures(fixture_nets):
    """Every reliable mutual-reachability class inside the box is its own
    witness: the full-index unfolding built from the class passes the
    check with degenerate parameters."""
    boxes = {"token_swap": 3, "consumer": 4, "ring": 3, "mixed3": 2}
    for name, net in fixture_nets.items():
        space = BoundedStateSpace(net, boxes[name])
        classes = [sorted(comp) for comp in space.components() if space.reliable(comp)]
        assert classes, name
        for configs in classes:
            g = unfolding_from_sccc(net, configs, tuple(range(net.dim)))
            bound = max(norm_inf(c) for c in configs) + 1
            check_witness(net, configs, g, PumpingParams(bound, cycle_len=0))


def test_witness_serialization_round_trip(token_swap):
    params = PumpingParams(state_bound=4, cycle_len=4)
    res = search_witness(token_swap, (2, 0), (0, 2), params)
    w = res.witness
    words = {((2, 0), (0, 2)): synthesize_path(token_swap, (2, 0), (0, 2), w)}
    text = witness_to_text(w, words)
    again, again_words = witness_from_text(token_swap, text)
    assert (again, again_words) == (w, words)
    assert again.configs == w.configs
    assert again.certified == w.certified
    assert again_words == words


def test_witness_verification_rejects_bad_word(token_swap):
    params = PumpingParams(state_bound=4, cycle_len=4)
    res = search_witness(token_swap, (2, 0), (0, 2), params)
    text = witness_to_text(res.witness, {((2, 0), (0, 2)): (1,)})  # wrong word
    lines = text.splitlines()
    n = lines.index("word 2 0 -> 0 2 : 1")
    with pytest.raises(ValueError) as exc:
        witness_from_text(token_swap, text)
    assert str(exc.value) == f"line {n + 1}: word does not fire: {lines[n]!r}"


def test_witness_rejects_tampered_unfolding(token_swap):
    params = PumpingParams(state_bound=4, cycle_len=4)
    res = search_witness(token_swap, (2, 0), (0, 2), params)
    text = witness_to_text(res.witness, {})
    tampered = text.replace("trans 2 0 | 0 | 1 1\n", "")
    with pytest.raises(Exception):
        witness_from_text(token_swap, tampered)


def _token_swap_witness_text(net):
    w = search_witness(net, (2, 0), (0, 2), PumpingParams(state_bound=4, cycle_len=4)).witness
    return witness_to_text(w, {((2, 0), (0, 2)): synthesize_path(net, (2, 0), (0, 2), w)})


@pytest.mark.parametrize(
    "key, corrupt",
    [
        ("index-set", lambda ln: ln + " x"),
        ("dim", lambda ln: "dim two"),
        ("dim", lambda ln: "dim 3"),
        ("state-bound", lambda ln: ln + " 5"),
        ("cycle-len", lambda ln: "cycle-len"),
        ("off-threshold", lambda ln: "off-threshold maybe"),
        ("certified", lambda ln: "certified yes"),
        ("within-bound", lambda ln: ln + ".0"),
        ("state", lambda ln: ln + " x"),
        ("trans", lambda ln: ln.rsplit(" | ", 1)[0]),
        ("trans", lambda ln: ln.replace(" | ", " | a | ", 1)),
        ("config", lambda ln: ln + ",1"),
        ("word", lambda ln: ln.replace(" -> ", " ")),
        ("word", lambda ln: ln + " 2"),
        ("word", lambda ln: ln + " -1"),
    ],
    ids=[
        "index-set-token", "dim-token", "dim-other-net", "state-bound-two-values",
        "cycle-len-empty", "off-threshold-word", "certified-word", "within-bound-float",
        "state-token", "trans-two-parts", "trans-action-name", "config-comma",
        "word-no-arrow", "word-action-out-of-range", "word-negative-action",
    ],
)
def test_witness_reader_names_the_malformed_line(token_swap, key, corrupt):
    lines = _token_swap_witness_text(token_swap).splitlines()
    n = next(i for i, ln in enumerate(lines) if ln.startswith(key + " "))
    lines[n] = corrupt(lines[n])
    with pytest.raises(ValueError) as exc:
        witness_from_text(token_swap, "\n".join(lines) + "\n")
    assert str(exc.value) == f"line {n + 1}: malformed {key!r}: {lines[n]!r}"


def test_witness_reader_rejects_another_first_line(token_swap):
    text = _token_swap_witness_text(token_swap)
    with pytest.raises(ValueError, match="not a witness file"):
        witness_from_text(token_swap, "kind mutual\n" + text)


def test_witness_reader_rejects_unknown_keys(token_swap):
    lines = _token_swap_witness_text(token_swap).splitlines()
    lines.insert(-1, "bogus 1")
    with pytest.raises(ValueError) as exc:
        witness_from_text(token_swap, "\n".join(lines) + "\n")
    assert str(exc.value) == f"line {len(lines) - 1}: unknown key 'bogus'"


@pytest.mark.parametrize("key", ["coset", "basis", "cminus", "certified", "within-bound"])
def test_witness_reader_rejects_altered_certificate_lines(token_swap, key):
    """A stored block or header value that parses but differs from what the
    checker recomputes is rejected at its line."""
    lines = _token_swap_witness_text(token_swap).splitlines()
    n = next(i for i, ln in enumerate(lines) if ln.strip().startswith(key + " "))
    head, _, values = lines[n].rpartition(" ")
    lines[n] = f"{head} {int(values) ^ 1}" if key in ("certified", "within-bound") else lines[n] + "7"
    assert lines[n] != _token_swap_witness_text(token_swap).splitlines()[n]
    with pytest.raises(ValueError) as exc:
        witness_from_text(token_swap, "\n".join(lines) + "\n")
    assert str(exc.value).startswith(f"line {n + 1}: differs from the recomputed ")


def test_witness_reader_requires_the_end_line(token_swap):
    lines = _token_swap_witness_text(token_swap).splitlines()
    assert lines[-1] == "end"
    with pytest.raises(ValueError) as exc:
        witness_from_text(token_swap, "\n".join(lines[:-1]) + "\n")
    assert str(exc.value) == f"line {len(lines)}: differs from the recomputed 'end'"


@pytest.mark.parametrize(
    "bad", ["word 9 9 -> 8 10 : 0", "word 5 -> 5 : "], ids=["fires-elsewhere", "wrong-dimension"]
)
def test_witness_reader_rejects_words_between_other_configurations(token_swap, bad):
    """A stored word that fires, or replays trivially, is still rejected
    when its endpoints are not configurations of the witness."""
    assert fire((9, 9), token_swap.word((0,))) == (8, 10)
    lines = _token_swap_witness_text(token_swap).splitlines()
    lines.insert(-1, bad)
    with pytest.raises(ValueError) as exc:
        witness_from_text(token_swap, "\n".join(lines) + "\n")
    want = f"line {len(lines) - 1}: word endpoint is not a config: {bad.strip()!r}"
    assert str(exc.value) == want


def test_witness_reader_rejects_a_non_reversible_unfolding():
    """Action 0 moves a token from counter 0 to counter 1 and action 1 puts
    one on counter 0, so the two-state cycle over I = (0,) raises counter 1
    and no circulation has zero displacement.  The checker takes its
    unfolding as reversible and certifies (0, 2000) and (0, 2001), though
    counter 1 never decreases; the reader refuses the file."""
    net = PetriNet(2, (Action((1, 0), (0, 1)), Action((0, 0), (1, 0))))
    g = validate_unfolding(net, (0,), [(0,), (1,)], [((1,), 0, (0,)), ((0,), 1, (1,))])
    assert is_structurally_reversible(g) == (False, None)
    w = check_witness(net, [(0, 2000), (0, 2001)], g, PumpingParams(state_bound=2, cycle_len=4))
    assert w.certified
    with pytest.raises(ValueError) as exc:
        witness_from_text(net, witness_to_text(w, {}))
    assert str(exc.value) == "unfolding is not structurally reversible"


def test_singleton_unfolding_collects_zero_displacement_loops():
    net = PetriNet(1, (Action((1,), (1,)), Action((1,), (0,))))
    g = unfolding_from_sccc(net, [(2,)], (0,))
    assert g.transitions == (((2,), 0, (2,)),)
