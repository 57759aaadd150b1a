import itertools
import math
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerated_span_points, span_oracle
from mutreach.intlinalg import LinalgError
from mutreach.lattice import lattice_contains, representation_from_generators
from mutreach.vectors import vadd, vsub


def test_empty_generators_give_zero_lattice():
    rep = representation_from_generators([], 2)
    assert rep.pairs == ((0, (1, 0)), (0, (0, 1)))
    assert lattice_contains(rep, (0, 0))
    assert not lattice_contains(rep, (1, 0))


def test_even_lattice():
    rep = representation_from_generators([(2, 0), (0, 2)], 2)
    for x in itertools.product(range(-4, 5), repeat=2):
        assert lattice_contains(rep, x) == (x[0] % 2 == 0 and x[1] % 2 == 0)


def test_diagonal_lattice():
    rep = representation_from_generators([(1, 1)], 2)
    assert lattice_contains(rep, (3, 3))
    assert not lattice_contains(rep, (3, 2))
    assert lattice_contains(rep, (-4, -4))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_representation_depends_on_the_lattice_alone(data):
    """A permutation of the generators, their negation, and the list with
    integer combinations of its members appended span the same lattice,
    so they must give one representation.  Equalities are primitive, and
    for a nonzero lattice each has a negative coefficient (at its own
    coordinate); the zero lattice keeps the unit vectors."""
    d = data.draw(st.integers(1, 3))
    gen = st.tuples(*[st.integers(-3, 3) for _ in range(d)])
    gens = data.draw(st.lists(gen, min_size=0, max_size=4))
    rep = representation_from_generators(gens, d)
    perm = data.draw(st.permutations(gens))
    assert representation_from_generators(perm, d) == rep
    assert representation_from_generators([tuple(-c for c in g) for g in gens], d) == rep
    if gens:
        coeffs = st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens))
        extra = [
            tuple(sum(c * g[i] for c, g in zip(cs, gens)) for i in range(d))
            for cs in data.draw(st.lists(coeffs, min_size=1, max_size=3))
        ]
        assert representation_from_generators(gens + extra, d) == rep
    for n, a in rep.pairs:
        if n == 0:
            assert math.gcd(*a) == 1
            assert min(a) < 0 or not any(map(any, gens))


def test_contains_rejects_wrong_dimension():
    rep = representation_from_generators([(1, 1)], 2)
    with pytest.raises(LinalgError):
        lattice_contains(rep, (1, 1, 1))


def test_zero_always_member():
    rng = random.Random(3)
    for _ in range(50):
        d = rng.randint(1, 4)
        k = rng.randint(0, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        rep = representation_from_generators(gens, d)
        assert lattice_contains(rep, (0,) * d)


def _agreement_check(gens, d, box=4, coeff=5):
    rep = representation_from_generators(gens, d)
    oracle = span_oracle(gens, d)
    for x in itertools.product(range(-box, box + 1), repeat=d):
        assert lattice_contains(rep, x) == oracle.contains(x), (gens, x)
    return rep


def test_oracle_equivalence_random_generators():
    rng = random.Random(4)
    for _ in range(60):
        d = rng.randint(1, 3)
        k = rng.randint(0, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        rep = _agreement_check(gens, d)
        m = max((max(abs(c) for c in g) for g in gens if any(g)), default=1)
        norm = max(max(n, max(map(abs, a))) for n, a in rep.pairs)
        assert norm <= factorial(d) ** 2 * m**d


def test_enumerated_points_are_members():
    rng = random.Random(5)
    for _ in range(20):
        d = rng.randint(1, 3)
        k = rng.randint(1, 4)
        gens = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        rep = representation_from_generators(gens, d)
        pts = enumerated_span_points(gens, d, coeff_bound=3, box_bound=4)
        for x in pts:
            assert lattice_contains(rep, x)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_membership_closed_under_group_laws(data):
    d = data.draw(st.integers(1, 3))
    gen = st.tuples(*[st.integers(-2, 2) for _ in range(d)])
    gens = data.draw(st.lists(gen, min_size=1, max_size=4))
    rep = representation_from_generators(gens, d)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
    member = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(d))
    assert lattice_contains(rep, member)
    assert lattice_contains(rep, tuple(-c for c in member))
    other = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
    member2 = tuple(sum(c * g[i] for c, g in zip(other, gens)) for i in range(d))
    assert lattice_contains(rep, vadd(member, member2))


def test_coset_membership():
    # the coset (1, 0) + L holds w exactly when w - (1, 0) is in L
    rep = representation_from_generators([(2, 0), (0, 2)], 2)
    assert lattice_contains(rep, vsub((1, 0), (1, 0)))
    assert lattice_contains(rep, vsub((3, 2), (1, 0)))
    assert not lattice_contains(rep, vsub((2, 2), (1, 0)))


def test_exactly_d_pairs_always():
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(0, 6))]
        rep = representation_from_generators(gens, d)
        assert len(rep.pairs) == d


def test_dimension_mismatch_rejected():
    with pytest.raises(LinalgError):
        representation_from_generators([(1, 2, 3)], 2)
