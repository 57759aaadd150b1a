import itertools
from pathlib import Path

import pytest

from mutreach.net import Action, PetriNet, load_net
from mutreach.oracle import BoundedStateSpace, reach_graph_to_dot


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _flagged_components(net, box):
    space = BoundedStateSpace(net, box)
    return [(comp, space.reliable(comp)) for comp in space.components()]


def test_sccc_level_sets(token_swap):
    comps = _flagged_components(token_swap, 3)
    level2 = frozenset({(2, 0), (1, 1), (0, 2)})
    assert any(c == level2 and reliable for c, reliable in comps)
    # components whose closure needs states beyond the box are flagged
    level6 = next(c for c, _ in comps if (3, 3) in c)
    reliable6 = next(r for c, r in comps if c == level6)
    assert not reliable6


def test_sccc_singletons(consumer):
    comps = _flagged_components(consumer, 4)
    assert all(len(c) == 1 for c, _ in comps)
    assert all(reliable for _, reliable in comps)
    empty = PetriNet(2, ())
    comps = _flagged_components(empty, 2)
    assert all(len(c) == 1 and reliable for c, reliable in comps)


def test_oracle_mutual_verdicts(token_swap):
    space = BoundedStateSpace(token_swap, 4)
    assert space.mutual((2, 0), (0, 2)) is True
    assert space.mutual((2, 0), (1, 0)) is False
    # same tainted component still decides True (in-box paths are real)
    assert space.mutual((4, 4), (4, 4)) is True
    assert space.mutual((4, 1), (1, 4)) is True


def test_oracle_forward_taint_blocks_false_negatives():
    # 0 -> 1 -> ... -> 4 -> 0: the cycle closes only through 4, so in a
    # box of 2 the component of 0 must be unreliable, not "singleton"
    net = PetriNet(1, (Action((0,), (1,)), Action((4,), (0,))))
    space = BoundedStateSpace(net, 2)
    assert space.mutual((0,), (2,)) is None
    full = BoundedStateSpace(net, 4)
    assert full.mutual((0,), (2,)) is True


def test_oracle_mutual_is_equivalence(fixture_nets):
    boxes = {"token_swap": 4, "consumer": 5, "ring": 4, "mixed3": 2}
    for name, net in fixture_nets.items():
        space = BoundedStateSpace(net, boxes[name])
        pts = list(itertools.product(range(boxes[name] + 1), repeat=net.dim))
        verdicts = {}
        for x in pts:
            for y in pts:
                verdicts[(x, y)] = space.mutual(x, y)
        for x in pts:
            assert verdicts[(x, x)] is True
        for (x, y), v in verdicts.items():
            assert verdicts[(y, x)] == v
        for x in pts:
            for y in pts:
                if verdicts[(x, y)] is True:
                    for z in pts:
                        if verdicts[(y, z)] is True:
                            assert verdicts[(x, z)] is True


def test_oracle_bottom_examples(consumer, token_swap, mixed3):
    assert BoundedStateSpace(consumer, 4).bottom((0,)) is True
    assert BoundedStateSpace(consumer, 4).bottom((1,)) is False
    assert BoundedStateSpace(token_swap, 6).bottom((2, 1)) is True
    assert BoundedStateSpace(mixed3, 4).bottom((1, 1, 0)) is True
    assert BoundedStateSpace(mixed3, 4).bottom((1, 1, 1)) is False


def test_oracle_bottom_constant_on_components(token_swap):
    space = BoundedStateSpace(token_swap, 5)
    for comp in space.components():
        if not space.reliable(comp):
            continue
        verdicts = {space.bottom(c) for c in comp}
        assert len(verdicts) == 1


def test_reliability_monotone_in_box(token_swap):
    small = BoundedStateSpace(token_swap, 3)
    big = BoundedStateSpace(token_swap, 6)
    for comp in small.components():
        if small.reliable(comp):
            rep = min(comp)
            assert big.component_of(rep) == comp
            assert big.reliable(comp)


def test_dot_export(token_swap):
    dot = reach_graph_to_dot(BoundedStateSpace(token_swap, 2))
    assert dot.startswith("digraph")
    assert '"(1,0)" -> "(0,1)"' in dot


def test_per_coordinate_box_agrees_with_a_larger_cube(mixed3):
    """A box given per coordinate holds exactly the configurations under
    its bounds, and every verdict it gives equals the verdict of a cube
    box that contains it."""
    space = BoundedStateSpace(mixed3, (2, 2, 1))
    cube = BoundedStateSpace(mixed3, 4)
    assert space.box == (2, 2, 1)
    pts = list(itertools.product(range(3), range(3), range(2)))
    assert sorted(c for comp in space.components() for c in comp) == pts
    assert space.inside((2, 2, 1)) and not space.inside((0, 0, 2))
    assert space.bottom((2, 2, 0)) is None  # (1, 3, 0) lies outside the box
    for x in pts:
        if space.bottom(x) is not None:
            assert space.bottom(x) == cube.bottom(x), x
        for y in pts:
            if space.mutual(x, y) is not None:
                assert space.mutual(x, y) == cube.mutual(x, y), (x, y)
    assert space.mutual((1, 0, 1), (0, 1, 1)) is True
    assert space.bottom((1, 1, 0)) is True and space.bottom((0, 0, 1)) is False


def test_box_needs_one_bound_per_coordinate(mixed3):
    with pytest.raises(ValueError, match="^box needs 3 bounds$"):
        BoundedStateSpace(mixed3, (2, 2))


def test_bottom_is_undecided_on_a_tainted_component(token_swap):
    space = BoundedStateSpace(token_swap, 3)
    for c in [(3, 3), (2, 2), (3, 1)]:
        assert not space.reliable(space.component_of(c))
        assert space.bottom(c) is None
    assert space.bottom((1, 1)) is True


def test_verdicts_outside_the_box_raise(token_swap):
    space = BoundedStateSpace(token_swap, 3)
    with pytest.raises(ValueError, match="configurations outside the box"):
        space.mutual((4, 0), (0, 0))
    with pytest.raises(ValueError, match="configurations outside the box"):
        space.mutual((0, 0), (0, 4))
    with pytest.raises(ValueError, match=r"\(4, 0\) is outside the box"):
        space.bottom((4, 0))


@pytest.mark.parametrize(
    "name, mutual, bottom",
    [
        ("two_pairs",
         lambda x, y: x[0] + x[1] == y[0] + y[1] and x[2] + x[3] == y[2] + y[3],
         lambda c: c[2] == c[3] == 0),
        ("ring4", lambda x, y: sum(x) == sum(y), lambda c: True),
    ],
)
def test_four_counter_fixtures_have_their_known_answers(name, mutual, bottom):
    """Both nets keep the total, so the box holds everything that a point of
    total at most 3 reaches and every verdict on those points is decided."""
    space = BoundedStateSpace(load_net(FIXTURES / f"{name}.net"), 3)
    points = [c for c in itertools.product(range(4), repeat=4) if sum(c) <= 3]
    assert len(points) == 35
    for x in points:
        assert space.bottom(x) is bottom(x), x
        for y in points:
            assert space.mutual(x, y) is mutual(x, y), (x, y)
