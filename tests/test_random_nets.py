"""Soundness and word replay on random one-counter nets, and the
enumerator of either mode against its reference on random nets of up to
three counters.

With d = 1 the exact pumping threshold of the I = () unfolding is 3m^2,
so an oracle box of 3m^2 + 24 reaches past it and the pumped disjuncts
are checked against ground truth, not only the states under the bound.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_unfoldings, take
from mutreach.net import Action, PetriNet, fire
from mutreach.oracle import BoundedStateSpace
from mutreach.presburger import compile_bottom, compile_mutual, eval_bottom, eval_mutual
from mutreach.unfolding import EnumLimits, enumerate_unfoldings, index_sets
from mutreach.witness import PumpingParams, search_witness, synthesize_path

_ENTRY = st.integers(0, 2)
_ONE_COUNTER_NETS = st.lists(
    st.builds(lambda pre, post: Action((pre,), (post,)), _ENTRY, _ENTRY), min_size=1, max_size=3
).map(lambda actions: PetriNet(1, tuple(actions)))
_SMALL_NETS = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.builds(Action, st.tuples(*[_ENTRY] * d), st.tuples(*[_ENTRY] * d)),
        min_size=1, max_size=3,
    ).map(lambda actions: PetriNet(d, tuple(actions)))
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(net=_ONE_COUNTER_NETS, rng=st.randoms(use_true_random=False))
def test_random_one_counter_nets_are_sound_and_replay(net, rng):
    params = PumpingParams(state_bound=3, cycle_len=3)
    mutual = compile_mutual(net, params)
    bottom = compile_bottom(net, params)
    box = 3 * net.norm**2 + 24
    space = BoundedStateSpace(net, box)

    for c in [(i,) for i in range(box + 1)]:
        if eval_bottom(bottom, c):
            assert space.bottom(c) is not False, ("bottom", c)

    pairs = [((rng.randint(0, box),), (rng.randint(0, box),)) for _ in range(120)]
    accepted = [(x, y) for x, y in pairs if eval_mutual(mutual, x, y)]
    for x, y in accepted:
        assert space.mutual(x, y) is not False, ("mutual", x, y)

    for x, y in accepted:
        if x == y:
            continue
        res = search_witness(net, x, y, params)
        if res.status == "found" and res.witness.certified:
            for src, dst in ((x, y), (y, x)):
                word = synthesize_path(net, src, dst, res.witness)
                assert fire(src, net.word(word)) == dst
            break


@pytest.mark.parametrize("forward_closed", [False, True], ids=["mutual", "bottom"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(net=_SMALL_NETS)
def test_one_decided_dict_matches_fresh_walks_on_random_nets(forward_closed, net):
    """A compile pass walks every index set with one `decided` dict, so a
    shape decided on one index set is read back on the next.  That walk
    yields what a fresh walk per index set yields, in the same order, and
    what the reference yields: its shortcut-free loop solves each state
    set afresh, and in bottom mode asks `positive_circulation` of each
    component's full edge set."""
    limits, decided = EnumLimits(), {}
    for index_set in index_sets(net.dim):
        shared = enumerate_unfoldings(net, index_set, 3, limits, forward_closed, decided)
        fresh = enumerate_unfoldings(net, index_set, 3, limits, forward_closed)
        expected = take(reference_unfoldings(net, index_set, 3, limits, forward_closed),
                        limits.max_unfoldings)
        assert take(shared, limits.max_unfoldings) == expected, index_set
        assert take(fresh, limits.max_unfoldings) == expected, index_set
