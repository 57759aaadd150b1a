import hashlib
import itertools
import json
import random

import pytest
from conftest import (
    REPO,
    And,
    CompareAtom,
    DivAtom,
    Implies,
    Or,
    SmtScript,
    bottom_wrapper,
    count_pivots,
    eval_bottom_by_enumeration,
    eval_formula,
    leibniz_determinant,
    mutual_to_ast,
    reference_bottom_smtlib,
    reference_compile_bottom,
    reference_bottom_json,
    reference_compile_mutual,
    reference_mutual_json,
    reference_mutual_smtlib,
    reference_mutual_text,
    reference_violation_exists,
    take,
    to_sexpr,
    to_smtlib,
    violation_by_enumeration,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mutreach import presburger, ratlp, unfolding, witness
from mutreach.intlinalg import hermite_normal_form, solve_integer
from mutreach.lattice import LatticeRepresentation, representation_from_generators
from mutreach.net import Action, PetriNet, load_net
from mutreach.oracle import BoundedStateSpace
from mutreach.presburger import (
    BottomFormula,
    BottomTuple,
    CompileError,
    Disjunct,
    MutualFormula,
    _violation_exists,
    bottom_from_text,
    bottom_to_json,
    bottom_to_smtlib,
    bottom_to_text,
    compile_bottom,
    compile_mutual,
    eval_bottom,
    eval_mutual,
    lattice_basis,
    lattice_box_feasible,
    mutual_from_text,
    mutual_to_json,
    mutual_to_smtlib,
    mutual_to_text,
    mutual_var_names,
)
from mutreach.ratlp import solve_standard
from mutreach.unfolding import (
    elementary_path,
    enumerate_unfoldings,
    index_sets,
    lattice_of_unfolding,
)
from mutreach.vectors import vsub
from mutreach.witness import PumpingParams

PARAMS = PumpingParams(state_bound=4, cycle_len=4)


# --- formula AST ----------------------------------------------------------------


def test_formula_eval_atoms():
    ge = CompareAtom((1, -1), ">=", 2)
    assert eval_formula(ge, (5, 1))
    assert not eval_formula(ge, (2, 1))
    eq = CompareAtom((1, 1), "==", 3)
    assert eval_formula(eq, (1, 2))
    div = DivAtom((2, 1), 1, 4)
    assert eval_formula(div, (1, 1))  # 2+1+1 = 4
    assert not eval_formula(div, (1, 0))


def test_formula_eval_connectives():
    a = CompareAtom((1,), ">=", 1)
    b = CompareAtom((1,), ">=", 3)
    assert eval_formula(And((a, b)), (5,))
    assert not eval_formula(And((a, b)), (2,))
    assert eval_formula(Or((a, b)), (2,))
    assert not eval_formula(Or(()), (2,))
    assert eval_formula(And(()), (2,))
    assert eval_formula(Implies(b, a), (2,))
    assert eval_formula(Implies(a, b), (0,))


def test_sexpr_rendering():
    f = And(
        (
            Implies(
                Or((CompareAtom((1, 0), ">=", 3),)),
                Or((CompareAtom((0, 1), ">=", -2),)),
            ),
            DivAtom((2, -1), 0, 3),
            CompareAtom((1, 1), "==", 0),
            Or(()),
        )
    )
    assert to_sexpr(f) == (
        "(and (=> (or (ge (1 0) 3)) (or (ge (0 1) -2))) (div (2 -1) 0 3) (eq (1 1) 0) (or))"
    )


def test_smtlib_formula_rendering():
    f = And((CompareAtom((1, 0), ">=", 3), DivAtom((2, 1), 1, 4)))
    script = to_smtlib(f, ["a", "b"], nonneg=["a", "b"])
    assert "(set-logic QF_LIA)" in script
    assert "(declare-const a Int)" in script
    assert "(>= a 3)" in script
    assert "(= (mod (+ (* 2 a) b 1) 4) 0)" in script
    assert script.strip().endswith("(check-sat)")


# --- mutual compile -------------------------------------------------------------


def test_empty_net_compiles_to_identity():
    empty = PetriNet(1, ())
    f = compile_mutual(empty, PumpingParams(state_bound=1, cycle_len=0))
    for x in range(4):
        for y in range(4):
            assert eval_mutual(f, (x,), (y,)) == (x == y)


def test_consumer_compiles_to_identity(consumer):
    f = compile_mutual(consumer, PARAMS)
    for x in range(6):
        for y in range(6):
            assert eval_mutual(f, (x,), (y,)) == (x == y)


def test_token_swap_matches_oracle_exactly(token_swap):
    f = compile_mutual(token_swap, PARAMS)
    assert f.provenance == "certified"
    space = BoundedStateSpace(token_swap, 5)
    pts = list(itertools.product(range(4), repeat=2))
    for x in pts:
        for y in pts:
            oc = space.mutual(x, y)
            assert oc is not None
            assert eval_mutual(f, x, y) == oc


def test_disjunct_atom_budget(token_swap, ring):
    for net in (token_swap, ring):
        f = compile_mutual(net, PARAMS)
        d = net.dim
        for dis in f.disjuncts:
            assert len(dis.rep.pairs) == d  # d divisibility/equality atoms
            # the two bound vectors expand to at most 2d comparisons
            assert len(dis.lower_x) + len(dis.lower_y) == 2 * d


def test_eval_mutual_dimension_check(token_swap):
    f = compile_mutual(token_swap, PARAMS)
    with pytest.raises(CompileError):
        eval_mutual(f, (1,), (1, 0))


def test_mutual_ast_agrees_with_eval(token_swap):
    f = compile_mutual(token_swap, PARAMS)
    ast = mutual_to_ast(f)
    assert mutual_var_names(2) == ["x0", "x1", "y0", "y1"]
    for x in itertools.product(range(3), repeat=2):
        for y in itertools.product(range(3), repeat=2):
            assert eval_formula(ast, list(x) + list(y)) == eval_mutual(f, x, y)


def test_smt_evaluator_reads_the_exported_subset():
    script = SmtScript(
        "(set-logic QF_LIA)\n(declare-const a Int)\n(declare-const b Int)\n"
        "(assert (>= a 0))\n"
        "(assert (or false (and true (= (mod (+ (* (- 1) a) b 1) 3) 0))))\n"
        "(assert (>= (* (- 2) b) (- 4)))\n(check-sat)\n"
    )
    assert script.names == ["a", "b"]
    assert script.holds(0, 2) and script.holds(4, 0)  # -3 mod 3 = 0
    assert not script.holds(0, 1) and not script.holds(-1, 0) and not script.holds(1, 3)
    for bad in ("(assert (< a 0))", "(assert (>= c 0))", "(assert (= (mod a 0) 0))", "(push 1)",
                "()", ")", "(assert a", "(assert (>= a -1))", "(assert (>= (* -1 a) 0))",
                "(assert (>= a (- a)))", "(assert (>= a (- 1 2)))"):
        with pytest.raises(ValueError):
            SmtScript("(declare-const a Int)\n" + bad)


def test_smt_evaluator_instantiates_forall_under_lia():
    script = SmtScript(
        "(set-logic LIA)\n(declare-const a Int)\n(assert (>= a 0))\n"
        "(assert (forall ((v Int) (w Int)) (=> (= (mod (+ v w) 2) 0) (>= (+ a v w) 0))))\n"
        "(check-sat)\n",
        radius=2,
    )
    # the even sums v + w on [-2, 2]^2 reach -4, and no odd one counts
    assert [a for a in range(7) if script.holds(a)] == [4, 5, 6]
    assert SmtScript("(set-logic LIA)\n(declare-const a Int)\n"
                     "(assert (forall ((v Int)) (>= (+ a v) 0)))", radius=0).holds(0)
    quantified = "(assert (forall ((v Int)) (>= v 0)))"
    for bad, radius in (
        ("(set-logic QF_LIA)\n" + quantified, 1),  # no quantifier under QF_LIA
        ("(set-logic LIA)\n" + quantified, None),  # nothing to instantiate on
        ("(set-logic LIA)\n(assert (forall ((v Bool)) v))", 1),
        ("(set-logic LIA)\n(assert (forall () true))", 1),
        ("(set-logic NIA)", None),
        ("(set-logic LIA)\n(set-logic LIA)", None),
        ("(assert (=> true))", None),
    ):
        with pytest.raises(ValueError):
            SmtScript(bad, radius=radius)


def _assert_smt_agrees_with_eval(f: MutualFormula, box: int):
    script = SmtScript(mutual_to_smtlib(f))
    assert script.names == mutual_var_names(f.dim)
    pts = list(itertools.product(range(box + 1), repeat=f.dim))
    accepted = 0
    for x in pts:
        for y in pts:
            want = eval_mutual(f, x, y)
            assert script.holds(*x, *y) == want, (x, y)
            accepted += want
    assert 0 < accepted < len(pts) ** 2


@pytest.mark.parametrize("name", ["token_swap", "consumer", "ring", "mixed3"])
def test_smt_export_agrees_with_eval(fixture_nets, name):
    """Each fixture's default `.smt2`, evaluated from its text, holds
    exactly where `eval_mutual` does on every pair of [0,3]^d."""
    _assert_smt_agrees_with_eval(compile_mutual(fixture_nets[name], PARAMS), 3)


def test_scaled_smt_export_agrees_with_eval(mixed3):
    """The same for mixed3 at state bound 5, on [0,2]^3."""
    _assert_smt_agrees_with_eval(
        compile_mutual(mixed3, PumpingParams(state_bound=5, cycle_len=4)), 2
    )


def test_mutual_serialization_round_trips(token_swap):
    f = compile_mutual(token_swap, PARAMS)
    again = mutual_from_text(mutual_to_text(f))
    assert again == f
    assert again.dim == f.dim
    assert again.disjuncts == f.disjuncts
    assert again.provenance == f.provenance
    js = mutual_to_json(f)
    assert '"kind": "mutual"' in js
    smt = mutual_to_smtlib(f)
    assert smt.count("declare-const") == 4


def test_certified_thresholds_are_what_make_it_sound(ring):
    """With the pumping threshold zeroed out, the ring net accepts the
    deadlocked pair (0,1) / (1,0) through a one-coordinate unfolding the
    configurations cannot actually traverse; the certified default
    rejects it.  This is the boundary the provenance label records."""
    heuristic = compile_mutual(ring, PumpingParams(state_bound=4, cycle_len=4, off_threshold=0))
    assert heuristic.provenance == "heuristic"
    assert eval_mutual(heuristic, (0, 1), (1, 0))  # false positive
    space = BoundedStateSpace(ring, 5)
    assert space.mutual((0, 1), (1, 0)) is False

    certified = compile_mutual(ring, PumpingParams(state_bound=4, cycle_len=4))
    assert certified.provenance == "certified"
    assert not eval_mutual(certified, (0, 1), (1, 0))
    pts = list(itertools.product(range(4), repeat=2))
    for x in pts:
        for y in pts:
            if eval_mutual(certified, x, y):
                assert space.mutual(x, y) is True


# --- one compilation per unfolding shape ------------------------------------------


def _shape(g):
    """The index set and the edges as (state position, action, state position)."""
    position = {s: k for k, s in enumerate(g.states)}
    return g.index_set, tuple((position[p], a, position[q]) for p, a, q in g.transitions)


def test_enumerator_hands_over_the_kept_edge_shape(fixture_nets, ring3):
    """Every unfolding the enumerator yields carries as its `shape` the
    value its `decided` dict holds for the shape of every edge among its
    states: the very object, so the kept shape is handed over and not
    recomputed.  On consumer, mixed3 and ring3 the support cut drops
    edges, so there the kept shape is not always the shape of every edge.
    An unfolding rebuilt from the same states and transitions computes an
    equal shape."""

    def every_edge(g):
        position = {s: k for k, s in enumerate(g.states)}
        return tuple((k, a, position[q]) for k, p in enumerate(g.states)
                     for a, action in enumerate(g.net.actions)
                     if (q := unfolding.i_fires(action, g.index_set, p)) in position)

    nets = {**fixture_nets, "ring3": ring3}
    cut = set()
    for name, net in nets.items():
        for forward_closed in (False, True):
            decided: dict = {}
            for index_set in index_sets(net.dim):
                for g in enumerate_unfoldings(net, index_set, 4, forward_closed=forward_closed,
                                              decided=decided):
                    edges = every_edge(g)
                    assert g.shape is decided[edges]
                    rebuilt = unfolding.Unfolding(net, index_set, g.states, g.transitions)
                    assert rebuilt.shape == g.shape == _shape(g)[1]
                    if len(edges) > len(g.shape):
                        cut.add(name)
    assert cut == {"consumer", "mixed3", "ring3"}
    decided = {}
    kept, truncated = take(enumerate_unfoldings(nets["mixed3"], (0, 1, 2), 5,
                                                decided=decided), 7)
    assert truncated and len(kept) == 7
    assert all(g.shape is decided[every_edge(g)] for g in kept)


def test_compile_cap_boundary_is_per_index_set(token_swap):
    """token_swap's largest index set has 30 unfoldings at state bound 4.
    A cap of 30 takes all of them and writes the default `.mrf`; a cap of
    29 leaves one, so the compile is incomplete and one disjunct short."""
    f = compile_mutual(token_swap, PARAMS, unfolding.EnumLimits(max_unfoldings=30))
    digest = hashlib.sha256(mutual_to_text(f).encode()).hexdigest()
    assert (f.complete, len(f.disjuncts)) == (True, 213)
    assert digest == "ba51f74b34dbe49de8ca4143fecff95ada7271a5a281723e46d699c71cb05879"
    f = compile_mutual(token_swap, PARAMS, unfolding.EnumLimits(max_unfoldings=29))
    assert (f.complete, len(f.disjuncts)) == (False, 212)


@pytest.mark.parametrize(
    "name, params, walk_budget",
    [
        pytest.param(name, PARAMS, witness.WALK_BUDGET, id=name)
        for name in ("token_swap", "consumer", "ring", "mixed3", "ring3")
    ]
    + [
        pytest.param("ring", PumpingParams(4, 4, off_threshold=1), witness.WALK_BUDGET,
                     id="ring-heuristic"),
        pytest.param("mixed3", PARAMS, 5, id="mixed3-truncated"),
    ],
)
def test_compilers_match_per_unfolding_references(
    fixture_nets, ring3, monkeypatch, name, params, walk_budget
):
    """Computing lattices, pumping bases and paths once per shape gives the
    formulas of computing them afresh for every unfolding."""
    monkeypatch.setattr(witness, "WALK_BUDGET", walk_budget)
    net = ring3 if name == "ring3" else fixture_nets[name]
    assert compile_mutual(net, params) == reference_compile_mutual(net, params)
    assert compile_bottom(net, params) == reference_compile_bottom(net, params)


@st.composite
def _small_nets(draw):
    """Nets of dimension 2 or 3 with 1 to 3 actions of entries 0 to 2."""
    d = draw(st.sampled_from((2, 3)))
    vector = st.tuples(*[st.integers(0, 2)] * d)
    actions = draw(st.lists(st.builds(Action, vector, vector), min_size=1, max_size=3))
    return PetriNet(d, tuple(actions))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(net=_small_nets(), state_bound=st.integers(2, 3), cycle_len=st.integers(1, 3))
def test_compilers_match_per_unfolding_references_on_random_nets(net, state_bound, cycle_len):
    """Sharing lattices, paths and walks across index sets, and basis rows
    across the state sets of one index set, gives the formulas of
    computing everything afresh for every unfolding."""
    params = PumpingParams(state_bound=state_bound, cycle_len=cycle_len)
    assert compile_mutual(net, params) == reference_compile_mutual(net, params)
    assert compile_bottom(net, params) == reference_compile_bottom(net, params)


def test_each_edge_shape_is_compiled_once(mixed3, monkeypatch):
    """Lattices and cycle-word walks are computed once per edge shape,
    across the proper index sets; pumping-basis rows once per proper index
    set, edge shape and state position.  The full index set has its closed
    form, so none of them sees it."""
    lattice_calls, walk_calls, row_calls = [], [], []
    walked = {}  # id of a walk's words -> (words, (edge shape, position))
    lattice_of_unfolding = presburger.lattice_of_unfolding
    cycle_words, basis_rows = presburger._cycle_words, presburger._basis_rows

    def counting_lattice(g):
        lattice_calls.append(_shape(g))
        return lattice_of_unfolding(g)

    def counting_walk(g, q, max_len):
        words, truncated = cycle_words(g, q, max_len)
        walk_calls.append((*_shape(g), g.states.index(q)))
        walked[id(words)] = (words, walk_calls[-1][1:])
        return words, truncated

    def counting_rows(net, index_set, words, tau, cycle_len):
        row_calls.append((tuple(index_set), *walked[id(words)][1]))
        return basis_rows(net, index_set, words, tau, cycle_len)

    monkeypatch.setattr(presburger, "lattice_of_unfolding", counting_lattice)
    monkeypatch.setattr(presburger, "_cycle_words", counting_walk)
    monkeypatch.setattr(presburger, "_basis_rows", counting_rows)
    compile_mutual(mixed3, PARAMS)
    proper = index_sets(mixed3.dim)[:-1]
    unfoldings = [g for ix in proper for g in enumerate_unfoldings(mixed3, ix, 4)]
    shapes = {_shape(g) for g in unfoldings}
    edge_shapes = {edges for _, edges in shapes}
    assert len(edge_shapes) < len(shapes) < len(unfoldings)  # both kinds repeat
    assert {ix for ix, *_ in lattice_calls + walk_calls + row_calls} <= set(proper)
    assert sorted(edges for _, edges in lattice_calls) == sorted(edge_shapes)
    positions = {(*_shape(g), k) for g in unfoldings for k in range(g.size)}
    assert sorted(call[1:] for call in walk_calls) == sorted({(e, k) for _, e, k in positions})
    assert sorted(row_calls) == sorted(positions)


FULL_INDEX_NETS = ("token_swap", "consumer", "ring", "mixed3", "ring3")


@pytest.mark.parametrize("name", FULL_INDEX_NETS)
def test_no_general_function_sees_the_full_index_set(fixture_nets, ring3, monkeypatch, name):
    """Both compilers build the full index set's lattice, paths and bases
    in closed form: the lattice, path, walk and basis-row functions are
    each called, and never on a full-index unfolding."""
    net = ring3 if name == "ring3" else fixture_nets[name]
    seen = {}  # function name -> index sets it was called on

    def spy(fn_name, index_set_of):
        fn = getattr(presburger, fn_name)

        def recording(*args):
            seen.setdefault(fn_name, set()).add(tuple(index_set_of(*args)))
            return fn(*args)

        monkeypatch.setattr(presburger, fn_name, recording)

    for fn_name in ("lattice_of_unfolding", "elementary_path", "_cycle_words"):
        spy(fn_name, lambda g, *_: g.index_set)
    spy("_basis_rows", lambda net, index_set, *_: index_set)
    full = tuple(range(net.dim))
    mutual = compile_mutual(net, PARAMS)
    bottom = compile_bottom(net, PARAMS)
    assert sorted(seen) == ["_basis_rows", "_cycle_words", "elementary_path",
                            "lattice_of_unfolding"]
    assert all(full not in index_sets_seen for index_sets_seen in seen.values())
    assert full in {t.index_set for t in bottom.tuples}
    zero = representation_from_generators((), net.dim)
    assert any(d.rep == zero and d.shift == vsub(d.lower_y, d.lower_x) for d in mutual.disjuncts)


def _assert_full_index_parts_match_the_general_code(net, params, forward_closed):
    """For every full-index unfolding of a compile pass, the general code
    gives the zero lattice, path displacements q - p and the state as the
    only pumping-basis row, and so does the pass's closed form."""
    zero = representation_from_generators((), net.dim)
    full = tuple(range(net.dim))
    compiled, _, _ = presburger._compiled_unfoldings(
        net, params, unfolding.EnumLimits(), forward_closed
    )
    checked = 0
    for g, rep, paths, bases in compiled:
        if not g.full_index:
            continue
        checked += 1
        assert lattice_of_unfolding(g) == zero == rep
        for i, p in enumerate(g.states):
            for j, q in enumerate(g.states):
                assert elementary_path(g, p, q).displacement(net) == vsub(q, p) == paths[i][j]
        for q, written in zip(g.states, bases):
            basis = witness.upward_basis(g, q, params)
            assert [e.vector for e in basis.elements] == [q]
            assert [witness._with_state(v, full, q) for v in written] == [q]
            assert written == (q,)
    return checked


@pytest.mark.parametrize("name", FULL_INDEX_NETS)
@pytest.mark.parametrize("forward_closed", [False, True], ids=["mutual", "bottom"])
def test_full_index_closed_form_is_what_the_general_code_computes(
    fixture_nets, ring3, name, forward_closed
):
    net = ring3 if name == "ring3" else fixture_nets[name]
    assert _assert_full_index_parts_match_the_general_code(net, PARAMS, forward_closed) > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(net=_small_nets(), state_bound=st.integers(2, 3), cycle_len=st.integers(1, 3))
def test_full_index_closed_form_is_what_the_general_code_computes_on_random_nets(
    net, state_bound, cycle_len
):
    params = PumpingParams(state_bound=state_bound, cycle_len=cycle_len)
    for forward_closed in (False, True):
        _assert_full_index_parts_match_the_general_code(net, params, forward_closed)


@pytest.mark.parametrize("name", FULL_INDEX_NETS)
@pytest.mark.parametrize("state_bound", [4, 5])
def test_full_index_disjuncts_relate_mutual_pairs(fixture_nets, ring3, name, state_bound):
    """Every full-index disjunct (p, q, q - p, {0}), one per ordered pair
    of states of a full-index unfolding, is in the formula and relates a
    pair that the bounded oracle puts in one component."""
    net = ring3 if name == "ring3" else fixture_nets[name]
    params = PumpingParams(state_bound=state_bound, cycle_len=4)
    zero = representation_from_generators((), net.dim)
    compiled, _, _ = presburger._compiled_unfoldings(net, params, unfolding.EnumLimits())
    disjuncts = set(compile_mutual(net, params).disjuncts)
    space = BoundedStateSpace(net, state_bound - 1)
    pairs = [(p, q) for g, *_ in compiled if g.full_index for p in g.states for q in g.states]
    assert pairs
    for p, q in pairs:
        assert (p, q, vsub(q, p), zero) in disjuncts
        assert space.mutual(p, q) is True


def test_heuristic_threshold_artifacts_are_pinned(fixture_nets):
    """The mutual and bottom texts of the four fixtures at off-threshold 2,
    a threshold below every exact one; the artifact digests of
    `tests/test_artifacts.py` cover only the exact threshold."""
    params = PumpingParams(state_bound=4, cycle_len=4, off_threshold=2)
    digest = hashlib.sha256()
    for name in ("token_swap", "consumer", "ring", "mixed3"):
        net = fixture_nets[name]
        digest.update(mutual_to_text(compile_mutual(net, params)).encode())
        digest.update(bottom_to_text(compile_bottom(net, params)).encode())
    assert digest.hexdigest() == "24f4986b9fdd493dd270332ebe223fbf479fc60ce9529fa252439802f2c6e341"


def test_ring3_provenance_turns_on_the_threshold_of_the_largest_unfolding(ring3):
    """A heuristic threshold certifies the formula exactly when it covers
    every unfolding, the full-index ones included; on ring3 the largest
    has the six states of the `max_states` cap."""
    compiled, _, _ = presburger._compiled_unfoldings(ring3, PARAMS, unfolding.EnumLimits())
    assert max(g.size for g, *_ in compiled if g.full_index) == 6
    tau = witness.exact_off_threshold(ring3, 6)
    for off, provenance in ((tau, "certified"), (tau - 1, "heuristic")):
        params = PumpingParams(state_bound=4, cycle_len=4, off_threshold=off)
        assert compile_mutual(ring3, params).provenance == provenance


@pytest.mark.parametrize(
    "name, state_bound, questions, solves",
    [("mixed3", 5, 7, 0), ("ring3", 4, 1, 0), ("two_pairs", 4, 2, 1)],
)
def test_bottom_compile_solves_no_lp_on_the_full_index_set(
    mixed3, ring3, monkeypatch, name, state_bound, questions, solves
):
    """A closed component over the full index set carries a positive
    circulation by strong connectivity alone, so only proper index sets
    ask `max_positive_support`, and no component asks
    `positive_circulation`.  The presolve and the balanced check leave
    mixed3 and ring3 with no LP, and `TWO_PAIRS` with one; a
    `positive_circulation` per component took 1, 1 and 2."""
    nets = {"mixed3": mixed3, "ring3": ring3}
    net = nets.get(name) or load_net(REPO / "fixtures" / f"{name}.net")
    index_set, asked, solved = [None], [], []
    enumerate_all, support = presburger.enumerate_unfoldings, unfolding.max_positive_support
    solve = ratlp.solve_standard

    def tagged(net, ix, *args, **kwargs):
        index_set[0] = tuple(ix)
        yield from enumerate_all(net, ix, *args, **kwargs)

    def asking(rows, nvars):
        asked.append(index_set[0])
        return support(rows, nvars)

    def solving(*args):
        solved.append(index_set[0])
        return solve(*args)

    def circulation(rows, nvars):
        raise AssertionError("the bottom enumerator asked positive_circulation")

    monkeypatch.setattr(presburger, "enumerate_unfoldings", tagged)
    monkeypatch.setattr(unfolding, "max_positive_support", asking)
    monkeypatch.setattr(unfolding, "positive_circulation", circulation)
    monkeypatch.setattr(ratlp, "solve_standard", solving)
    formula = compile_bottom(net, PumpingParams(state_bound=state_bound, cycle_len=4))
    assert any(t.index_set == tuple(range(net.dim)) for t in formula.tuples)
    assert tuple(range(net.dim)) not in asked
    assert (len(asked), len(solved)) == (questions, solves)


def test_shapes_that_differ_only_in_action_labels_are_compiled_apart():
    """Two state sets whose edges join the same positions with different
    actions: the horizontal pair moves a token on counter 2, the vertical
    pair does not, so their paths and pumping bases differ."""
    net = PetriNet(
        3,
        (
            Action((0, 0, 0), (1, 0, 1)),  # east, adding a token on counter 2
            Action((1, 0, 1), (0, 0, 0)),  # west, taking it back
            Action((0, 0, 0), (0, 1, 0)),  # north
            Action((0, 1, 0), (0, 0, 0)),  # south
        ),
    )
    params = PumpingParams(state_bound=2, cycle_len=4)
    found = {g.states: g for g in enumerate_unfoldings(net, (0, 1), 2)}
    horizontal, vertical = found[((0, 0), (1, 0))], found[((0, 0), (0, 1))]
    unlabelled = [[(p, q) for p, _, q in _shape(g)[1]] for g in (horizontal, vertical)]
    assert unlabelled[0] == unlabelled[1] and _shape(horizontal) != _shape(vertical)
    assert elementary_path(horizontal, *horizontal.states).displacement(net) == (1, 0, 1)
    assert elementary_path(vertical, *vertical.states).displacement(net) == (0, 1, 0)
    assert compile_mutual(net, params) == reference_compile_mutual(net, params)
    assert compile_bottom(net, params) == reference_compile_bottom(net, params)


# --- bottom compile -------------------------------------------------------------


def test_consumer_bottom_formula(consumer):
    f = compile_bottom(consumer, PumpingParams(state_bound=5, cycle_len=2))
    space = BoundedStateSpace(consumer, 7)
    for c in range(5):
        want = space.bottom((c,))
        assert eval_bottom(f, (c,)) == want
        enum = eval_bottom_by_enumeration(f, (c,), radius=6)
        assert enum is None or enum == want


def test_token_swap_bottom_everywhere(token_swap):
    # points up to total 4: their classes stay below the state bound
    f = compile_bottom(token_swap, PumpingParams(state_bound=5, cycle_len=4))
    space = BoundedStateSpace(token_swap, 8)
    for c in itertools.product(range(3), repeat=2):
        assert eval_bottom(f, c) is True
        assert space.bottom(c) is True


def test_mixed_bottom_third_coordinate(mixed3):
    f = compile_bottom(mixed3, PumpingParams(state_bound=5, cycle_len=2))
    space = BoundedStateSpace(mixed3, 6)
    for c in itertools.product(range(3), repeat=3):
        want = space.bottom(c)
        got = eval_bottom(f, c)
        if want is not None:
            assert got == want, (c, got, want)


def test_no_enabled_action_every_config_bottom():
    blocked = PetriNet(2, (Action((9, 9), (0, 0)),))
    f = compile_bottom(blocked, PumpingParams(state_bound=4, cycle_len=1))
    for c in itertools.product(range(4), repeat=2):
        assert eval_bottom(f, c) is True


def test_eval_bottom_rejects_a_dimension_mismatch(token_swap):
    f = compile_bottom(token_swap, PumpingParams(state_bound=2, cycle_len=1))
    with pytest.raises(CompileError, match="expected dimension 2"):
        eval_bottom(f, (1, 1, 1))


def test_bottom_threshold_form(token_swap):
    f = compile_bottom(token_swap, PumpingParams(state_bound=4, cycle_len=4))
    for t in f.tuples:
        # implication-form threshold formulas with bounded constants
        entries = [k for side in t.implications for ws in side for w in ws for k in w]
        assert max(map(abs, entries), default=0) <= 10**6
        phi = presburger._phi_smtlib(t.implications, ["c0", "c1"])
        assert "(mod" not in phi and "(div" not in phi and "(= " not in phi


def test_bottom_serialization_round_trips(token_swap):
    f = compile_bottom(token_swap, PumpingParams(state_bound=4, cycle_len=4))
    again = bottom_from_text(bottom_to_text(f))
    assert again == f
    assert again.dim == f.dim
    assert len(again.tuples) == len(f.tuples)
    for a, b in zip(f.tuples, again.tuples):
        assert a.index_set == b.index_set
        assert a.state == b.state
        assert a.rep == b.rep
        assert a.implications == b.implications
        assert a.membership == b.membership
    assert '"kind": "bottom"' in bottom_to_json(f)
    smt = bottom_to_smtlib(f)
    assert "(set-logic LIA)" in smt and "forall" in smt


@pytest.mark.parametrize(
    "compile_, to_text, from_text, blocks",
    [
        (compile_mutual, mutual_to_text, mutual_from_text, lambda f: f.disjuncts),
        (compile_bottom, bottom_to_text, bottom_from_text, lambda f: f.tuples),
    ],
    ids=["mrf", "btf"],
)
def test_truncated_formula_parses_or_raises(token_swap, compile_, to_text, from_text, blocks):
    """A compiled file cut after any line either parses, to a prefix of
    its blocks, or raises CompileError."""
    full = compile_(token_swap, PumpingParams(state_bound=2, cycle_len=3))
    lines = to_text(full).splitlines(keepends=True)
    parsed = 0
    for k in range(len(lines) + 1):
        try:
            f = from_text("".join(lines[:k]))
        except CompileError:
            continue
        parsed += 1
        assert blocks(f) == blocks(full)[: len(blocks(f))]
    assert 1 < parsed < len(lines)


PAIRS = "pair 1 : 1 0\npair 1 : 0 1\n"


@pytest.mark.parametrize(
    "text",
    [
        "kind mutual\nprovenance certified\n",
        "kind mutual\ndim two\n",
        "kind mutual\ndim 2\nbogus 1\n",
        "kind mutual\ndim 2\ndim 2\n",
        "kind mutual\ndim 2\ncomplete 2\n",
        "kind mutual\ndim 2\nstate-bound -3\n",
        "kind mutual\ndim 2\nstate-bound 0\n",
        "kind mutual\ndim 2\ncycle-len -7\n",
        "kind mutual\ndim 2\ndisjunct\na 0 0\nb 0 0\nend\n",
        "kind mutual\ndim 2\ndisjunct\na 0 0\nb 0 0\nv 0\nend\n",
        "kind mutual\ndim 2\ndisjunct\na 0 0\nb 0 0\nv 0 0\npair 1 1 0\nend\n",
        "kind mutual\ndim 2\ndisjunct\na 0 0\nb 0 0\nv 0 0\npair 1 : 1 0\nend\n",
        "kind mutual\ndim 2\ndisjunct\na 0 0\nb 0 0\nv 0 0\nw 1\nend\n",
        "kind bottom\ndim 2\nfoo\n",
        "kind bottom\ndim 2\nstate-bound 4\n",
        f"kind bottom\ndim 2\ntuple\nindex-set 0\nstate 1\n{PAIRS}",
        "kind bottom\ndim 2\ntuple\nindex-set 0\nstate 1\npair 1 : 1 0\nend\n",
        f"kind bottom\ndim 2\ntuple\nindex-set 0\n{PAIRS}end\n",
        f"kind bottom\ndim 2\ntuple\nindex-set 2\nstate 1\n{PAIRS}end\n",
        f"kind bottom\ndim 2\ntuple\nindex-set 0\nstate 1 1\n{PAIRS}end\n",
        f"kind bottom\ndim 2\ntuple\nindex-set 0\nstate 1\nstate 1\n{PAIRS}end\n",
        f"kind bottom\ndim 2\ntuple\nindex-set 0\nstate 1\n{PAIRS}member 1\nend\n",
        f"kind bottom\ndim 2\ntuple\nindex-set 0\nstate 1\n{PAIRS}imp 1 1\nend\n",
        f"kind bottom\ndim 2\ntuple\nindex-set 0\nstate 1\n{PAIRS}imp 1 => \nend\n",
    ],
)
def test_malformed_formula_raises_compile_error(text):
    """Each text is one edit away from a file that parses (see below)."""
    parse = mutual_from_text if text.startswith("kind mutual") else bottom_from_text
    with pytest.raises(CompileError):
        parse(text)


def test_minimal_formulas_parse():
    mutual = (
        "kind mutual\ndim 2\ndisjunct\na 0 0\nb 0 0\nv 0 0\npair 1 : 1 0\npair 0 : 0 1\nend\n"
    )
    assert len(mutual_from_text(mutual).disjuncts) == 1
    bottom = (
        f"kind bottom\ndim 2\ntuple\nindex-set 0\nstate 1\n{PAIRS}imp 1 1 => \nend\n"
    )
    assert bottom_from_text(bottom).tuples[0].state == (1,)


@pytest.mark.parametrize(
    "compile_, to_text, from_text",
    [
        (compile_mutual, mutual_to_text, mutual_from_text),
        (compile_bottom, bottom_to_text, bottom_from_text),
    ],
    ids=["mrf", "btf"],
)
def test_indented_comment_is_dropped(token_swap, compile_, to_text, from_text):
    """A `#` comment parses away wherever it stands and however indented,
    in the header and inside a block."""
    text = to_text(compile_(token_swap, PumpingParams(state_bound=2, cycle_len=3)))
    lines = text.splitlines(keepends=True)
    commented = lines[:2] + ["   # note\n"] + lines[2:-1] + ["\t# last\n"] + lines[-1:]
    assert from_text("".join(commented)) == from_text(text)


VECTOR_ENTRY = st.integers(-5, 40)


@st.composite
def bottom_tuples(draw, dim):
    vector = st.tuples(*[VECTOR_ENTRY] * dim)
    index_set = tuple(i for i in range(dim) if draw(st.booleans()))
    state = tuple(draw(st.integers(0, 9)) for _ in index_set)
    generators = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), max_size=3))
    side = st.lists(vector, max_size=3).map(tuple)
    return BottomTuple(
        index_set=index_set,
        state=state,
        rep=representation_from_generators(generators, dim),
        membership=tuple(draw(st.lists(vector, max_size=2))),
        implications=tuple(draw(st.lists(st.tuples(side, side), max_size=3))),
    )


@st.composite
def bottom_formulas(draw):
    dim = draw(st.integers(1, 3))
    return BottomFormula(
        dim=dim,
        tuples=tuple(draw(st.lists(bottom_tuples(dim), max_size=2))),
        provenance=draw(st.sampled_from(["certified", "heuristic"])),
        complete=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(bottom_formulas())
def test_bottom_text_round_trip(f):
    text = bottom_to_text(f)
    again = bottom_from_text(text)
    assert again == f
    assert bottom_to_text(again) == text


@settings(max_examples=200, deadline=None)
@given(bottom_formulas())
def test_bottom_writers_match_reference_phi_tree(f):
    """The SMT-LIB export renders each tuple's implications as the
    reference tree does, empty antecedent, consequent and implication
    lists included; the text and JSON files hold the implications alone."""
    assert bottom_to_smtlib(f) == reference_bottom_smtlib(f)
    assert not any(ln.startswith("phi ") for ln in bottom_to_text(f).splitlines())
    keys = {"index_set", "state", "gamma", "membership", "implications"}
    assert all(t.keys() == keys for t in json.loads(bottom_to_json(f))["tuples"])


@pytest.mark.parametrize(
    "name, low, high, radius",
    [
        ("token_swap", 0, 5, 4),
        ("ring", 0, 5, 4),
        ("consumer", 0, 5, 4),
        ("mixed3", 0, 3, 2),
        # above (32, 32) the I = () tuple's membership holds, so the
        # universal runs over its rank-1 lattice
        ("token_swap", 30, 45, 4),
    ],
)
def test_bottom_smt_export_agrees_with_enumeration(fixture_nets, name, low, high, radius):
    """Each fixture's default bottom `.smt2`, evaluated from its text with
    the universal instantiated on [-r, r]^d, holds at c in [low, high]^d
    exactly when some tuple accepts c with no violation among the lattice
    points of that window: when `eval_bottom_by_enumeration` is not False."""
    f = compile_bottom(fixture_nets[name], PARAMS)
    script = SmtScript(bottom_to_smtlib(f), radius=radius)
    assert script.names == [f"c{i}" for i in range(f.dim)]
    points = list(itertools.product(range(low, high + 1), repeat=f.dim))
    held = 0
    for c in points:
        want = eval_bottom_by_enumeration(f, c, radius) is not False
        assert script.holds(*c) == want, c
        held += want
    assert 0 < held < len(points)


@settings(max_examples=200, deadline=None)
@given(bottom_formulas())
def test_bottom_json_matches_whole_payload_rendering(f):
    assert bottom_to_json(f) == reference_bottom_json(f)


@pytest.mark.parametrize(
    "name, state_bound",
    [(name, bound) for name in ("token_swap", "consumer", "ring", "mixed3") for bound in (4, 5)]
    + [("ring3", 4)],
)
def test_compiled_bottom_json_matches_whole_payload_rendering(
    fixture_nets, ring3, name, state_bound
):
    net = ring3 if name == "ring3" else fixture_nets[name]
    f = compile_bottom(net, PumpingParams(state_bound=state_bound, cycle_len=4))
    assert f.tuples
    assert bottom_to_json(f) == reference_bottom_json(f)


@st.composite
def mutual_formulas(draw, min_dim=1):
    """Disjuncts drawn from a small pool of vectors and lattices, so that
    vectors and lattices recur as they do in compiled formulas.  A lattice
    is spanned by generators or given by equality pairs only."""
    dim = draw(st.integers(min_dim, 3))
    vector = st.tuples(*[VECTOR_ENTRY] * dim)
    row = st.tuples(*[st.integers(-4, 4)] * dim)
    lattice = st.one_of(
        st.lists(row, max_size=3).map(lambda gens: representation_from_generators(gens, dim)),
        st.lists(row, min_size=dim, max_size=dim).map(
            lambda rows: LatticeRepresentation(dim, tuple((0, r) for r in rows))
        ),
    )
    vectors = st.sampled_from(draw(st.lists(vector, min_size=1, max_size=5)))
    lattices = st.sampled_from(draw(st.lists(lattice, min_size=1, max_size=3)))
    disjunct = st.builds(Disjunct, vectors, vectors, vectors, lattices)
    return MutualFormula(
        dim=dim,
        disjuncts=tuple(draw(st.lists(disjunct, max_size=4))),
        provenance=draw(st.sampled_from(["certified", "heuristic"])),
        complete=draw(st.booleans()),
        state_bound=draw(st.integers(1, 9)),
        cycle_len=draw(st.integers(0, 9)),
    )


@settings(max_examples=200, deadline=None)
@given(mutual_formulas())
def test_mutual_text_round_trip(f):
    text = mutual_to_text(f)
    again = mutual_from_text(text)
    assert again == f
    assert mutual_to_text(again) == text


@settings(max_examples=300, deadline=None)
@given(mutual_formulas(min_dim=0))
def test_mutual_writers_match_whole_formula_rendering(f):
    """The writers that render each distinct vector and lattice once give
    the bytes of rendering the whole tree, the whole payload and every
    line."""
    assert mutual_to_text(f) == reference_mutual_text(f)
    assert mutual_to_smtlib(f) == reference_mutual_smtlib(f)
    assert mutual_to_json(f) == reference_mutual_json(f)


# --- lattice point machinery ------------------------------------------------------


def test_lattice_basis_from_representation():
    rep = LatticeRepresentation(2, ((0, (1, 1)), (1, (1, 0))))  # x0 + x1 = 0
    basis = lattice_basis(rep)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != (0, 0)

    zero_rep = LatticeRepresentation(2, ((0, (1, 0)), (0, (0, 1))))
    assert lattice_basis(zero_rep) == []

    full = LatticeRepresentation(1, ((1, (1,)),))
    basis = lattice_basis(full)
    assert len(basis) == 1 and abs(basis[0][0]) == 1


def test_lattice_box_feasible_rank_one():
    basis = [(1, -1)]
    assert lattice_box_feasible(basis, [2, -9], [None, None]) is True
    assert lattice_box_feasible(basis, [2, -9], [8, -3]) is True
    assert lattice_box_feasible(basis, [2, -1], [8, None]) is False
    assert lattice_box_feasible([], [0, -1], [1, 0]) is True
    assert lattice_box_feasible([], [1, 0], [2, 0]) is False


def test_lattice_box_feasible_rank_zero_and_one_match_enumeration():
    """Against a scan of t over |t| <= max |bound| + 1, which is exact: a
    non-empty interval of t holds a point no farther out than its finite
    ends, and each end is at most max |bound| in magnitude."""
    rng = random.Random(15)
    for _ in range(2000):
        d = rng.randint(1, 3)
        lows = [rng.randint(-9, 9) for _ in range(d)]
        highs = [None if rng.random() < 0.3 else lo + rng.randint(-2, 12) for lo in lows]
        basis = [] if rng.random() < 0.2 else [tuple(rng.randint(-4, 4) for _ in range(d))]
        radius = max(abs(x) for x in lows + highs if x is not None) + 1
        points = [tuple(t * c for c in basis[0]) for t in range(-radius, radius + 1)] if basis else [(0,) * d]
        expected = any(all(lo <= v and (hi is None or v <= hi) for v, lo, hi in zip(p, lows, highs))
                       for p in points)
        assert lattice_box_feasible(basis, lows, highs) is expected, (basis, lows, highs)


def test_lattice_box_feasible_rank_two():
    basis = [(2, 0), (0, 3)]
    assert lattice_box_feasible(basis, [1, 1], [4, 4]) is True  # (2,3)
    assert lattice_box_feasible(basis, [1, 1], [1, 2]) is False
    assert lattice_box_feasible(basis, [3, 4], [3, 4]) is False  # x0=3 odd


def test_lattice_box_feasible_unbounded_rank_two():
    basis = [(1, 0), (0, 1)]
    # unbounded box, near the origin and far out: both are decided
    assert lattice_box_feasible(basis, [5, 5], [None, None]) is True
    assert lattice_box_feasible(basis, [100, 100], [None, None]) is True
    # one coordinate bounded: the other's low never binds
    assert lattice_box_feasible(basis, [100, 7], [None, 7]) is True
    assert lattice_box_feasible(basis, [100, 8], [None, 7]) is False
    # 2Z x 3Z: the bounded coordinate still needs a lattice value
    even_by_three = [(2, 0), (0, 3)]
    assert lattice_box_feasible(even_by_three, [10**6, 4], [None, 5]) is False
    assert lattice_box_feasible(even_by_three, [10**6, 4], [None, 6]) is True


def test_lattice_box_feasible_projects_away_free_coordinates():
    """A coordinate without a high that a lattice direction >= 0 can raise
    alone is dropped; one tied to a bounded coordinate is not."""
    # {(a, a, b)}: x0 = x1, so x0 >= 100 needs x1 >= 100 too
    tied = [(1, 1, 0), (0, 0, 1)]
    assert lattice_box_feasible(tied, [100, 0, 10**6], [None, 5, None]) is False
    assert lattice_box_feasible(tied, [100, 0, 10**6], [None, 100, None]) is True
    assert lattice_box_feasible(tied, [100, 0, -5], [None, 99, None]) is False
    # {x : x2 = x0 + x1}: with x0 bounded, x1 and x2 rise together
    summed = [(1, 0, 1), (0, 1, 1)]
    assert lattice_box_feasible(summed, [-3, 50, 10**9], [-3, None, None]) is True
    # with x1 bounded too, x2 = x0 + x1 is pinned and its low binds
    assert lattice_box_feasible(summed, [-3, 50, 48], [-3, 50, None]) is False
    assert lattice_box_feasible(summed, [-3, 50, 47], [-3, 50, None]) is True
    # Z^3 with x2 unbounded: the rank-2 projection onto x0, x1 decides it
    # (its projection is 2Z x 2Z)
    full = [(2, 0, 1), (0, 2, 1), (0, 0, 3)]
    assert lattice_box_feasible(full, [4, 3, 10**6], [4, 3, None]) is False  # x1 odd
    assert lattice_box_feasible(full, [4, 6, 10**6], [4, 6, None]) is True
    # {(a, -a, b)}: x1 = -x0 cannot rise with x0, so x0 and x1 stay bounded
    opposed = [(1, -1, 0), (0, 0, 1)]
    assert lattice_box_feasible(opposed, [3, -3, 7], [None, None, None]) is True
    assert lattice_box_feasible(opposed, [3, -2, 7], [None, None, None]) is False


def _random_basis(rng, d: int, rank: int) -> list[tuple[int, ...]]:
    while True:
        basis = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rank)]
        if rank == 0 or hermite_normal_form(basis).rank == rank:
            return basis


def _box_points(basis, lows, highs) -> bool:
    """Some x of the bounded box lows..highs with x = B t for integer t."""
    columns = [[b[i] for b in basis] for i in range(len(lows))]
    return any(
        (solve_integer(columns, x) is not None) if basis else not any(x)
        for x in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
    )


def test_lattice_box_feasible_matches_brute_force():
    """Bounded boxes against enumeration in x-space with integer
    membership.  Unbounded boxes of a full-rank lattice L of determinant
    D against a bounded one: D e_i lies in L, so a point with x_i >= low_i
    can be moved into low_i <= x_i <= low_i + D - 1."""
    rng = random.Random(20)
    for _ in range(1500):
        d = rng.randint(1, 3)
        rank = rng.randint(0, d)
        basis = _random_basis(rng, d, rank)
        lows = [rng.randint(-6, 6) for _ in range(d)]
        highs = [lo + rng.randint(-1, 5) for lo in lows]
        assert lattice_box_feasible(basis, lows, highs) is _box_points(basis, lows, highs), (
            basis, lows, highs
        )
        det = abs(leibniz_determinant(basis)) if rank == d else 0
        if not 0 < det <= 8:
            continue  # keep the bounded stand-in small enough to enumerate
        open_highs = [None if rng.random() < 0.5 else hi for hi in highs]
        closed = [lo + det - 1 if hi is None else hi for lo, hi in zip(lows, open_highs)]
        assert lattice_box_feasible(basis, lows, open_highs) is _box_points(basis, lows, closed), (
            basis, lows, open_highs
        )


def test_violation_search_matches_enumeration(token_swap):
    f = compile_bottom(token_swap, PumpingParams(state_bound=4, cycle_len=4))
    for tup in f.tuples:
        for c in itertools.product(range(3), repeat=2):
            from mutreach.vectors import restrict

            if restrict(c, tup.index_set) != tup.state:
                continue
            exact = _violation_exists(tup, c)
            enum = violation_by_enumeration(tup, c, radius=6)
            if enum is not None:
                assert exact == enum


def test_violation_walk_matches_the_product_of_choices(fixture_nets):
    """Walking the consequents decides every tuple of the four fixtures as
    the whole product of one short coordinate per consequent does."""
    for name, net in fixture_nets.items():
        f = compile_bottom(net, PumpingParams(state_bound=4, cycle_len=4))
        for tup in f.tuples:
            for c in itertools.product(range(3), repeat=net.dim):
                assert _violation_exists(tup, c) == reference_violation_exists(tup, c), (
                    name, tup.index_set, tup.state, c
                )


def test_violation_walk_on_ring3_queries_few_boxes(ring3, monkeypatch):
    """ring3's rank-2 tuple has 25 consequents per implication, so the
    product of choices is 3^25 boxes per antecedent.  With every box
    empty the walk queries 203 boxes for the whole tuple, at any c: the
    walk compares bounds that c shifts alike."""
    f = compile_bottom(ring3, PumpingParams(state_bound=4, cycle_len=4))
    (tup,) = [t for t in f.tuples if len(t.basis) == 2]
    assert all(len(cons) == 25 for _, cons in tup.implications)
    queries = 0

    def no_point(basis, lows, highs):
        nonlocal queries
        queries += 1
        assert queries <= 1000, "the walk queries too many boxes"
        return False

    monkeypatch.setattr(presburger, "lattice_box_feasible", no_point)
    for c in [(0, 0, 0), (829, 793, 891), (13898, 19709, 18916)]:
        queries = 0
        assert _violation_exists(tup, c) is False
        assert queries == 203, c


def test_rank_two_box_query_runs_one_phase_one(ring3, monkeypatch):
    """Both bounds of a coefficient are read off one feasible tableau."""
    f = compile_bottom(ring3, PumpingParams(state_bound=4, cycle_len=4))
    (tup,) = [t for t in f.tuples if len(t.basis) == 2]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_standard(*args, **kwargs)

    monkeypatch.setattr(presburger, "solve_standard", counting)
    # no coordinate of {x : x0 + x1 + x2 = 0} can rise alone, so none is
    # projected away and the query reaches `_coefficient_ranges`
    for lows, expected in [([-75, -67, 142], True), ([-75, -67, 143], False)]:
        calls.clear()
        assert lattice_box_feasible(tup.basis, lows, [None] * 3) is expected
        assert len(calls) == 1, lows


def test_ring3_bottom_evaluation_takes_a_pinned_pivot_path(ring3, monkeypatch):
    """eval_bottom of ring3's bottom formula at 50 points drawn as the
    benchmark's bottom-rank2 workload draws them (seed 1): each coordinate
    from [m (3 d m)^d + 32, m (3 d m)^d + 288).  Exact arithmetic makes the
    pivot count repeat, and a change to the pivot kernel must keep it."""
    f = compile_bottom(ring3, PumpingParams(state_bound=4, cycle_len=4))
    d, m = ring3.dim, ring3.norm
    low = m * (3 * d * m) ** d + 32
    rng = random.Random(1)
    points = [tuple(rng.randrange(low, low + 256) for _ in range(d)) for _ in range(50)]
    calls = count_pivots(monkeypatch)
    for c in points:
        eval_bottom(f, c)
    assert len(calls) == 300


# --- quantified wrapper -------------------------------------------------------------


def test_bottom_wrapper(consumer, token_swap):
    f = compile_mutual(consumer, PARAMS)
    w = bottom_wrapper(consumer, f)
    assert w.bounded_eval((0,), 5) is True
    assert w.bounded_eval((3,), 5) is False
    script = w.to_smtlib()
    assert "forall" in script and "(set-logic LIA)" in script

    empty = PetriNet(1, ())
    fe = compile_mutual(empty, PumpingParams(state_bound=1, cycle_len=0))
    we = bottom_wrapper(empty, fe)
    assert we.bounded_eval((2,), 4) is True  # empty conjunction

    ft = compile_mutual(token_swap, PARAMS)
    wt = bottom_wrapper(token_swap, ft)
    space = BoundedStateSpace(token_swap, 6)
    bf = compile_bottom(token_swap, PumpingParams(state_bound=5, cycle_len=4))
    for c in itertools.product(range(3), repeat=2):
        agreed = eval_bottom(bf, c)
        assert wt.bounded_eval(c, 4) == agreed == space.bottom(c)
