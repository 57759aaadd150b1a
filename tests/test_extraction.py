import random

import pytest

from conftest import brute_force_small_set
from extraction import (
    Execution,
    ExtractionError,
    Extractor,
    chunk_boundaries,
    extract_along_word,
    maximal_small_set,
    minimal_m_adapted,
    power_dominates,
    rackoff_shorten,
    reference_extractor,
)
from mutreach.net import fire
from mutreach.vectors import restrict


def test_extractor_validation():
    Extractor((1, 2, 4, 8))
    with pytest.raises(ExtractionError):
        Extractor((1,))
    with pytest.raises(ExtractionError):
        Extractor((1, 0, 4))
    with pytest.raises(ExtractionError):
        Extractor((4, 2, 1))


def test_m_adapted_flag():
    assert minimal_m_adapted(2, 1).is_m_adapted(1)
    assert not Extractor((1, 1, 1, 1)).is_m_adapted(1)


def test_two_dim_example_table():
    """The four-case classification for lambda = (1, 2, 4, 8)."""
    lam = Extractor((1, 2, 4, 8))
    idx = (0, 1)

    def expected(m, n):
        if m < 4 and n < 4:
            return (0, 1)
        if (m >= 4 and n >= 2) or (m >= 2 and n >= 4):
            return ()
        if m < 2 and n >= 4:
            return (0,)
        if m >= 4 and n < 2:
            return (1,)
        raise AssertionError

    for m in range(10):
        for n in range(10):
            assert maximal_small_set(lam, idx, [(m, n)]) == expected(m, n)
    assert maximal_small_set(lam, idx, [(1, 5)]) == (0,)
    assert maximal_small_set(lam, idx, [(0, 0)]) == (0, 1)
    assert maximal_small_set(lam, (), [(0, 0)]) == ()


def test_maximal_small_set_matches_brute_force():
    rng = random.Random(31)
    for _ in range(300):
        d = rng.randint(1, 5)
        lam = Extractor(tuple(sorted(rng.randint(1, 16) for _ in range(d + 2))))
        idx = tuple(sorted(rng.sample(range(d), rng.randint(0, d))))
        configs = [
            tuple(rng.randint(0, 16) for _ in range(d))
            for _ in range(rng.randint(1, 6))
        ]
        assert maximal_small_set(lam, idx, configs) == brute_force_small_set(
            lam, idx, configs
        )


def test_extract_along_word_base_and_fold():
    lam = Extractor((1, 2, 4, 8))
    assert extract_along_word(lam, (0, 1), []) == (0, 1)
    c = (1, 5)
    assert extract_along_word(lam, (0, 1), [c]) == maximal_small_set(lam, (0, 1), [c])


def test_extract_along_word_monotone_and_contains_set_extraction():
    rng = random.Random(32)
    for _ in range(100):
        d = rng.randint(1, 4)
        lam = Extractor(tuple(sorted(rng.randint(1, 9) for _ in range(d + 2))))
        configs = [
            tuple(rng.randint(0, 9) for _ in range(d)) for _ in range(rng.randint(1, 6))
        ]
        idx = tuple(range(d))
        prev = idx
        for n in range(1, len(configs) + 1):
            cur = extract_along_word(lam, idx, configs[:n])
            assert set(cur) <= set(prev)
            prev = cur
        # doubled enumeration of the whole set reaches the set extraction
        word = configs + configs
        assert extract_along_word(lam, idx, word) == maximal_small_set(lam, idx, configs)


def test_large_coordinate_lemma():
    """Indices dropped from the extraction are large in some configuration."""
    rng = random.Random(33)
    for _ in range(120):
        d = rng.randint(1, 4)
        lam = Extractor(tuple(sorted(rng.randint(1, 9) for _ in range(d + 2))))
        idx = tuple(range(d))
        configs = [
            tuple(rng.randint(0, 9) for _ in range(d)) for _ in range(rng.randint(1, 5))
        ]
        j = maximal_small_set(lam, idx, configs)
        for i in set(idx) - set(j):
            assert any(c[i] >= lam[len(j) + 1] for c in configs)


def test_reference_extractor_values():
    ext = reference_extractor(1, 1)
    assert ext.thresholds[0] == 1
    assert ext.thresholds[1] == 3  # m * (3 d m)^d
    assert ext.thresholds[2] == 1 * 3 + 1 * 3**3 * (3 * 1 * 3 * 1) ** 1
    assert ext.is_m_adapted(1)


def test_reference_extractor_adapted_and_bounded():
    for d in range(1, 5):
        for m in range(1, 4):
            ext = reference_extractor(d, m)
            assert ext.is_m_adapted(m)
            assert power_dominates(3 * d * m, (d + 2) ** (2 * d + 1), ext[d])


def test_power_dominates_exact_small_cases():
    assert power_dominates(2, 3, 8)
    assert not power_dominates(2, 3, 9)
    assert power_dominates(10, 2, 100)
    assert not power_dominates(10, 2, 101)


def test_execution_validation(token_swap):
    word = token_swap.word([0, 1])
    e = Execution.from_word((1, 0), word)
    assert e.src == (1, 0) and e.tgt == (1, 0)
    with pytest.raises(ExtractionError):
        Execution(((0, 0), (1, 1)), word[:1])
    with pytest.raises(ExtractionError):
        Execution(((0, 0),), word)


def _random_execution(rng, net, start_bound=6, max_len=15):
    start = tuple(rng.randint(0, start_bound) for _ in range(net.dim))
    cur = start
    word = []
    for _ in range(rng.randint(0, max_len)):
        options = [
            a for a in net.actions if all(c >= p for c, p in zip(cur, a.pre))
        ]
        if not options:
            break
        a = rng.choice(options)
        word.append(a)
        cur = fire(cur, (a,))
    return Execution.from_word(start, tuple(word))


def test_shorten_noop_when_already_small(token_swap):
    lam = minimal_m_adapted(2, 1, base=9)
    e = Execution.from_word((2, 0), token_swap.word([0, 1]))
    res = rackoff_shorten(token_swap, e, lam)
    # all configs below every threshold and distinct prefixes may still
    # remove the trivial overall cycle (src == tgt); firing must agree
    assert fire(e.src, res.word) == res.final
    assert restrict(res.final, res.extracted) == restrict(e.tgt, res.extracted)


def test_shorten_removes_repeats(token_swap):
    lam = minimal_m_adapted(2, 1, base=9)
    e = Execution.from_word((2, 0), token_swap.word([0, 1, 0, 1, 0]))
    res = rackoff_shorten(token_swap, e, lam)
    assert len(res.word) < 5
    assert restrict(res.final, res.extracted) == restrict(e.tgt, res.extracted)


def test_shorten_requires_adapted_extractor(token_swap):
    with pytest.raises(ExtractionError):
        rackoff_shorten(
            token_swap,
            Execution.from_word((1, 0), ()),
            Extractor((1, 1, 1, 1)),
        )


def test_shorten_random_postconditions(fixture_nets):
    rng = random.Random(34)
    nets = [fixture_nets[k] for k in ("token_swap", "ring", "mixed3", "consumer")]
    for trial in range(100):
        net = nets[trial % len(nets)]
        d = net.dim
        lam = minimal_m_adapted(d, max(net.norm, 1), base=rng.randint(1, 3))
        e = _random_execution(rng, net)
        res = rackoff_shorten(net, e, lam)
        final = fire(e.src, res.word)  # the word fires
        assert final == res.final
        assert len(res.word) <= d * lam[d] ** d
        idx = res.extracted
        assert restrict(final, idx) == restrict(e.tgt, idx)
        m = net.norm
        floor = lam[len(idx) + 1] - m * sum(lam[j] ** j for j in range(0, len(idx) + 1))
        for i in range(d):
            if i not in idx:
                assert final[i] >= floor
        # decomposition witness: removed chunks are cycles on the
        # extracted coordinates
        for lo, hi in chunk_boundaries(res.kept_positions, len(e.word)):
            assert restrict(e.configs[lo], idx) == restrict(e.configs[hi], idx)
