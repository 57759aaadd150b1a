import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import displacement, format_net, hurdle
from extraction import fire_trace
from mutreach.net import (
    Action,
    Blocked,
    NetError,
    PetriNet,
    fire,
    parse_config,
    parse_net,
)
from mutreach.vectors import vge, vsub


def test_displacement_empty_word_is_zero():
    assert displacement((), dim=3) == (0, 0, 0)
    with pytest.raises(NetError):
        displacement(())


def test_displacement_single_action():
    assert displacement([Action((1, 0), (0, 1))]) == (-1, 1)


def test_displacement_two_actions():
    word = [Action((1, 0), (0, 1)), Action((0, 1), (2, 0))]
    assert displacement(word) == (1, 0)


def test_displacement_rejects_mixed_dimensions():
    with pytest.raises(NetError):
        displacement([Action((1,), (0,)), Action((1, 0), (0, 1))])


def test_hurdle_base_cases():
    assert hurdle((), dim=2) == (0, 0)
    a = Action((2, 1), (0, 3))
    assert hurdle([a]) == a.pre


def test_hurdle_worked_example():
    word = [Action((1, 0), (0, 1)), Action((2, 0), (0, 0))]
    assert hurdle(word) == (3, 0)


def test_hurdle_minimality_by_exhaustive_firing():
    word = [Action((1, 0), (0, 1)), Action((2, 0), (0, 0))]
    h = hurdle(word)
    for x0 in range(5):
        for x1 in range(5):
            x = (x0, x1)
            fires = True
            try:
                fire(x, word)
            except Blocked:
                fires = False
            assert fires == (x0 >= h[0] and x1 >= h[1])


def test_fire_success_and_block():
    word = [Action((1, 0), (0, 1)), Action((2, 0), (0, 0))]
    assert fire((3, 0), word) == (0, 1)
    assert fire_trace((3, 0), word) == [(3, 0), (2, 1), (0, 1)]
    with pytest.raises(Blocked) as exc:
        fire((2, 0), word)
    assert exc.value.step == 2
    assert fire((7, 3), ()) == (7, 3)


def _random_word(rng, dim, m, length):
    return [
        Action(
            tuple(rng.randint(0, m) for _ in range(dim)),
            tuple(rng.randint(0, m) for _ in range(dim)),
        )
        for _ in range(length)
    ]


def test_hack_lemma_on_random_words():
    """fire succeeds iff x >= hurdle, and then equals x + displacement."""
    rng = random.Random(11)
    for _ in range(300):
        dim = rng.randint(1, 4)
        m = rng.randint(0, 3)
        word = _random_word(rng, dim, m, rng.randint(0, 8))
        h = hurdle(word, dim=dim)
        for _ in range(4):
            x = tuple(rng.randint(0, 4) for _ in range(dim))
            ok = vge(x, h)
            try:
                end = fire(x, word)
                assert ok
                assert end == tuple(
                    a + b for a, b in zip(x, displacement(word, dim=dim))
                )
            except Blocked:
                assert not ok


def test_norm_bounds_on_random_words():
    rng = random.Random(12)
    for _ in range(200):
        dim = rng.randint(1, 4)
        m = rng.randint(1, 3)
        word = _random_word(rng, dim, m, rng.randint(1, 8))
        bound = len(word) * m
        assert max(hurdle(word, dim=dim)) <= bound
        assert max(abs(v) for v in displacement(word, dim=dim)) <= bound


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hurdle_concatenation_law(data):
    dim = data.draw(st.integers(1, 3))
    cfg = st.tuples(*[st.integers(0, 2) for _ in range(dim)])
    word = st.lists(st.tuples(cfg, cfg).map(lambda p: Action(*p)), max_size=6)
    u = data.draw(word)
    v = data.draw(word)
    lhs = hurdle(u + v, dim=dim)
    later = vsub(hurdle(v, dim=dim), displacement(u, dim=dim))
    rhs = tuple(max(a, b) for a, b in zip(hurdle(u, dim=dim), later))
    assert lhs == rhs


def test_net_norm_cache_and_word_expansion(token_swap):
    assert token_swap.norm == 1
    recomputed = max(a.norm for a in token_swap.actions)
    assert token_swap.norm == recomputed
    assert token_swap.word([0, 1, 0]) == (
        token_swap.actions[0],
        token_swap.actions[1],
        token_swap.actions[0],
    )
    empty = PetriNet(2, ())
    assert empty.norm == 0


def test_net_file_round_trip(fixture_nets):
    for name, net in fixture_nets.items():
        text = format_net(net, comment=name)
        again = parse_net(text)
        assert again == net


def test_net_file_errors():
    with pytest.raises(NetError):
        parse_net("pre: 1 post: 0\n")  # dim header missing
    with pytest.raises(NetError):
        parse_net("dim 2\npre: 1 post: 0\n")  # wrong arity
    with pytest.raises(NetError):
        parse_net("dim 1\nnonsense\n")
    for header in ("dimension 2", "dim 2 3", "dim 0", "dim -2"):
        with pytest.raises(NetError, match="line 2: malformed dim header"):
            parse_net(f"# two counters\n{header}\npre: 1 0  post: 0 1\n")
    with pytest.raises(NetError, match="line 2: duplicate dim header"):
        parse_net("dim 2\ndim 2\npre: 1 0  post: 0 1\n")
    with pytest.raises(NetError, match="line 2: non-integer entry"):
        parse_net("dim 2\npre: 1 x  post: 0 1\n")
    with pytest.raises(NetError, match="missing dim header"):
        parse_net("# only a comment\n\n")
    with pytest.raises(NetError):
        parse_config("1 -2", 2)
    with pytest.raises(NetError, match="non-integer entry 'x'"):
        parse_config("1 x", 2)


@pytest.mark.parametrize(
    "line, tag",
    [("pre: 1 post: 0 post: 1", "post:"), ("pre: 1 pre: 2 post: 0", "pre:")],
)
def test_net_file_names_a_repeated_tag(line, tag):
    with pytest.raises(NetError) as exc:
        parse_net(f"dim 1\n{line}\n")
    assert str(exc.value) == f"line 2: repeated {tag!r}"


def test_action_validation():
    with pytest.raises(NetError):
        Action((1, 0), (0,))
    with pytest.raises(NetError):
        Action((-1,), (0,))
    with pytest.raises(NetError):
        PetriNet(2, (Action((1,), (0,)),))
