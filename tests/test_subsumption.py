"""The maximal reversible transition set subsumes smaller ones.

Compilation keeps, per state set, only the union of all positive
circulations.  These tests check the claim behind that choice directly:
adding a compile over every valid transition subset never changes the
evaluated relation.
"""

import itertools

from conftest import candidate_unfoldings, collect_unfoldings
from mutreach.lattice import lattice_contains
from mutreach.presburger import Disjunct, MutualFormula, compile_mutual, eval_mutual
from mutreach.unfolding import (
    elementary_path,
    index_sets,
    is_structurally_reversible,
    lattice_of_unfolding,
)
from mutreach.witness import PumpingParams, upward_basis


def _disjuncts_for(net, g, params):
    rep = lattice_of_unfolding(g)
    bases = {q: upward_basis(g, q, params) for q in g.states}
    out = []
    for p in g.states:
        for q in g.states:
            v = elementary_path(g, p, q).displacement(net)
            for ea in bases[p].elements:
                for eb in bases[q].elements:
                    out.append(Disjunct(ea.vector, eb.vector, v, rep))
    return out


def _formula_from(net, disjuncts, params):
    return MutualFormula(
        dim=net.dim,
        disjuncts=tuple(disjuncts),
        provenance="certified",
        complete=True,
        state_bound=params.state_bound,
        cycle_len=params.cycle_len,
    )


def test_transition_subsets_add_nothing(token_swap, ring, mixed3):
    params = PumpingParams(state_bound=3, cycle_len=3)
    for net in (token_swap, ring, mixed3):
        maximal = compile_mutual(net, params)
        extra = []
        for index_set in index_sets(net.dim):
            candidates = candidate_unfoldings(
                net, index_set, params.state_bound, max_states=3, max_edges=10
            )
            for g in candidates:
                if is_structurally_reversible(g) is not None:
                    extra.extend(_disjuncts_for(net, g, params))
        enriched = _formula_from(net, tuple(maximal.disjuncts) + tuple(extra), params)
        pts = list(itertools.product(range(3), repeat=net.dim))
        for x in pts:
            for y in pts:
                assert eval_mutual(maximal, x, y) == eval_mutual(enriched, x, y), (
                    net.dim, x, y,
                )


def test_maximal_lattice_contains_subset_lattices(token_swap):
    """Per state set, the emitted transition set's cycle lattice contains
    every valid subset's cycle lattice."""
    params = PumpingParams(state_bound=3, cycle_len=3)
    maximal, _ = collect_unfoldings(token_swap, (0, 1), 3)
    by_states = {g.states: g for g in maximal}
    candidates = candidate_unfoldings(token_swap, (0, 1), 3, max_states=3, max_edges=10)
    subsets = [g for g in candidates if is_structurally_reversible(g) is not None]
    assert subsets
    for g in subsets:
        big = by_states[g.states]
        assert set(g.transitions) <= set(big.transitions)
        small_rep = lattice_of_unfolding(g)
        big_rep = lattice_of_unfolding(big)
        for x in itertools.product(range(-3, 4), repeat=2):
            if lattice_contains(small_rep, x):
                assert lattice_contains(big_rep, x)
