import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutreach import steinitz
from mutreach.steinitz import (
    SteinitzError,
    check_prefix_bound,
    prefix_safe_reorder,
    prune_zero_subsequences,
)


def _total(vectors):
    d = len(vectors[0]) if vectors else 0
    return tuple(sum(v[i] for v in vectors) for i in range(d))


def test_single_vector_identity():
    assert prefix_safe_reorder([(5, -3)]) == (0,)


def test_alternating_ones_stay_bounded():
    vecs = [(1,), (-1,), (1,), (-1,)]
    perm = prefix_safe_reorder(vecs)
    assert sorted(perm) == [0, 1, 2, 3]
    prefix = 0
    for j in perm:
        prefix += vecs[j][0]
        assert -1 <= prefix <= 1


@pytest.mark.parametrize("fn", [prefix_safe_reorder, prune_zero_subsequences])
def test_mixed_dimensions_are_rejected(fn):
    with pytest.raises(SteinitzError, match="mixed dimensions"):
        fn([(1,), (1, 2)])


def test_prefix_bound_is_exact_at_the_boundary():
    """A prefix may stray d*m from the proportional line, and no further."""
    vecs = [(3,), (3,), (-3,), (-3,)]
    assert check_prefix_bound(vecs, (0, 2, 1, 3))
    assert not check_prefix_bound(vecs, (0, 1, 2, 3))
    # total 1 puts the line at (n - 1)/4: a prefix -2 is on the bound at
    # n = 1 and a quarter past it at n = 2
    vecs = [(-2,), (0,), (2,), (1,)]
    assert check_prefix_bound(vecs, (0, 2, 1, 3))
    assert not check_prefix_bound(vecs, (0, 1, 2, 3))


def test_each_move_solves_at_most_d_plus_two_columns(monkeypatch):
    """Every kernel direction is taken on d + 2 fractional coordinates,
    however many vectors are reordered."""
    widths = []

    def spy(rows):
        widths.append(len(rows[0]))
        return kernel_basis(rows)

    kernel_basis = steinitz.kernel_basis
    monkeypatch.setattr(steinitz, "kernel_basis", spy)
    rng = random.Random(27)
    d = 2
    vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(60)]
    perm = prefix_safe_reorder(vecs)
    assert sorted(perm) == list(range(60))
    assert widths and max(widths) <= d + 2


def test_prefix_bound_random_bags():
    rng = random.Random(21)
    for _ in range(150):
        d = rng.randint(1, 3)
        k = rng.randint(1, 20)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        perm = prefix_safe_reorder(vecs)
        assert sorted(perm) == list(range(k))
        assert check_prefix_bound(vecs, perm)


def test_brute_force_confirms_existence_small_k():
    """For k <= 7 some permutation must meet the bound; ours does too."""
    rng = random.Random(22)
    for _ in range(40):
        d = rng.randint(1, 2)
        k = rng.randint(1, 7)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        ours = prefix_safe_reorder(vecs)
        assert check_prefix_bound(vecs, ours)
        assert any(
            check_prefix_bound(vecs, perm)
            for perm in itertools.permutations(range(k))
        )


def test_exact_rational_targets():
    vecs = [(3, 0), (0, 3), (-3, -3), (1, 1)]
    perm = prefix_safe_reorder(vecs)
    k, d, m = 4, 2, 3
    total = _total(vecs)
    prefix = (0, 0)
    for n, j in enumerate(perm, start=1):
        prefix = tuple(a + b for a, b in zip(prefix, vecs[j]))
        if n >= d:
            for i in range(d):
                assert abs(Fraction(prefix[i]) - Fraction(n - d, k) * total[i]) <= d * m


def test_reorder_and_pruning_outputs_are_pinned():
    """300 random bags give the orders and kept sets recorded while the
    order had two entry points, `steinitz_permutation` and the
    `prefix_safe_reorder` that wrapped it: one function gives them all."""
    rng = random.Random(28)
    digest = hashlib.sha256()
    for _ in range(300):
        d = rng.randint(1, 3)
        k = rng.randint(1, 20)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        digest.update(repr((prefix_safe_reorder(vecs), prune_zero_subsequences(vecs))).encode())
    assert digest.hexdigest() == (
        "cf05456bcd54443c61150d8aeaaa67436b45a301f16dd3ca193cbd034be87bf8"
    )


def test_prefix_safe_examples():
    assert prefix_safe_reorder([(1, 2), (3, 0)]) in ((0, 1), (1, 0))
    perm = prefix_safe_reorder([(-3,), (3,)])
    prefix = 0
    for j in perm:
        prefix += (-3, 3)[j]
        assert prefix >= -3


def test_prefix_safe_random_bags():
    rng = random.Random(23)
    for _ in range(120):
        d = rng.randint(1, 3)
        k = rng.randint(0, 12)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        perm = prefix_safe_reorder(vecs)
        assert sorted(perm) == list(range(k))
        total = _total(vecs) if vecs else ()
        m = max((max(abs(x) for x in v) for v in vecs), default=0)
        prefix = tuple(0 for _ in range(d))
        for j in perm:
            prefix = tuple(a + b for a, b in zip(prefix, vecs[j]))
            for i in range(d):
                assert prefix[i] >= min(total[i], 0) - m * d


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_permutations_are_bijections(data):
    d = data.draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2) for _ in range(d)])
    vecs = data.draw(st.lists(vec, min_size=1, max_size=10))
    perm = prefix_safe_reorder(vecs)
    assert sorted(perm) == list(range(len(vecs)))


def test_prune_examples():
    assert len(prune_zero_subsequences([(1,), (-1,), (1,)])) == 1
    assert prune_zero_subsequences([(1, 1), (-1, -1), (2, 0), (-2, 0)]) == ()
    assert prune_zero_subsequences([(1, 0), (1, 0), (0, 1)]) == (0, 1, 2)


def test_prune_zero_total_gives_empty_set():
    rng = random.Random(24)
    for _ in range(30):
        d = rng.randint(1, 3)
        half = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, 6))]
        vecs = half + [tuple(-x for x in v) for v in half]
        rng.shuffle(vecs)
        assert prune_zero_subsequences(vecs) == ()


def test_prune_preserves_sum_and_meets_bound():
    rng = random.Random(25)
    for _ in range(150):
        d = rng.randint(1, 3)
        k = rng.randint(1, 20)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        keep = prune_zero_subsequences(vecs)
        total = _total(vecs)
        kept_total = tuple(sum(vecs[j][i] for j in keep) for i in range(d))
        assert kept_total == total
        m = max((max(abs(x) for x in v) for v in vecs), default=0)
        assert len(keep) <= 2 * sum(abs(t) for t in total) * (3 * d * m) ** d


def test_prune_minimality_small_k():
    """When everything is kept, no nonempty zero-sum subset exists."""
    rng = random.Random(26)
    for _ in range(120):
        d = rng.randint(1, 3)
        k = rng.randint(1, 7)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        keep = prune_zero_subsequences(vecs)
        if len(keep) == k:
            for r in range(1, k + 1):
                for combo in itertools.combinations(range(k), r):
                    s = tuple(sum(vecs[j][i] for j in combo) for i in range(d))
                    assert any(s)
