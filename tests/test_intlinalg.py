import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import feasible_with_epsilon, leibniz_determinant, rational_lp_feasible, reference_hnf
from mutreach.intlinalg import (
    HnfResult,
    LinalgError,
    hermite_normal_form,
    kernel_basis,
    solve_integer,
)
from mutreach.lattice import representation_from_generators


def _random_matrix(rng, rows, cols, bound):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _cofactor(rows, i, j) -> int:
    minor = [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(rows) if r != i]
    return (-1) ** (i + j) * leibniz_determinant(minor)


def test_det_and_comatrix_of_hnf_examples():
    """Divisibility pairs (det(H), row i of det(H) H^-1) for H = I, a
    diagonal H and H = [[2, 0], [1, 3]], whose adjugate is not symmetric."""
    assert representation_from_generators([(1, 0), (0, 1)], 2).pairs == ((1, (1, 0)), (1, (0, 1)))
    assert representation_from_generators([(2, 0), (0, 3)], 2).pairs == ((6, (3, 0)), (6, (0, 2)))
    assert representation_from_generators([(2, 1), (0, 3)], 2).pairs == ((6, (3, 0)), (6, (-1, 2)))


def _hnf_adjugates(seed, count=300):
    """Random generator sets (d <= 4, up to 6 generators) with their HNF and
    the adjugate com(H) that the lattice representation reads off
    X = det(H) H^-1: its first r pairs are (det(H), row i of X) with X's
    column j at original coordinate row_perm[j]."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 4)
        gens = [g for g in (tuple(rng.randint(-3, 3) for _ in range(d))
                            for _ in range(rng.randint(1, 6))) if any(g)]
        if not gens:
            continue
        res = hermite_normal_form([[g[i] for g in gens] for i in range(d)])
        r = res.rank
        rep = representation_from_generators(gens, d)
        com = [[rep.pairs[i][1][res.row_perm[j]] for i in range(r)] for j in range(r)]
        yield res, rep, com


def test_det_and_comatrix_of_hnf_match_leibniz():
    """det(H) is the product of H's diagonal and com(H) holds H's cofactors,
    both checked against the Leibniz expansion."""
    for res, rep, com in _hnf_adjugates(14):
        r, h = res.rank, res.h
        det = leibniz_determinant(h)
        assert det == math.prod(h[i][i] for i in range(r)) > 0
        assert all(rep.pairs[i][0] == det for i in range(r))
        outside = res.row_perm[r:]
        assert all(not rep.pairs[i][1][c] for i in range(r) for c in outside)
        assert com == [[_cofactor(h, i, j) for j in range(r)] for i in range(r)]


def test_comatrix_fundamental_identity_and_entry_bound():
    """H^T com(H) = det(H) I, and every cofactor of an r x r matrix with
    entries at most B in magnitude is at most (r-1)! B^(r-1)."""
    for res, rep, com in _hnf_adjugates(15):
        r, h = res.rank, res.h
        det = rep.pairs[0][0]
        h_t_com = [[sum(h[t][i] * com[t][j] for t in range(r)) for j in range(r)] for i in range(r)]
        assert h_t_com == [[det if i == j else 0 for j in range(r)] for i in range(r)]
        bound = max(abs(x) for row in h for x in row)
        entry_bound = math.factorial(r - 1) * bound ** (r - 1)
        assert max(abs(x) for row in com for x in row) <= entry_bound


def _check_hnf_shape(m: list[list[int]], res: HnfResult):
    r = res.rank
    h = res.h
    cols = len(m[0])
    assert len(h) == r and all(len(row) == r for row in h)
    for i in range(r):
        assert h[i][i] > 0
        for j in range(i + 1, r):
            assert h[i][j] == 0
        for j in range(i):
            assert 0 <= h[i][j] < h[i][i]
    assert abs(leibniz_determinant(res.u)) == 1
    permuted = [m[i] for i in res.row_perm]
    prod = [[sum(a * res.u[t][j] for t, a in enumerate(row)) for j in range(cols)] for row in permuted]
    for i in range(r):
        for j in range(cols):
            want = h[i][j] if j < r else 0
            assert prod[i][j] == want
    # the skipped rows lie in the span of the pivot rows
    for i in range(r, len(m)):
        assert not any(prod[i][j] for j in range(r, cols))


def test_hnf_examples():
    res = hermite_normal_form([[2, 1]])
    assert res.h == [[1]]
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    res = hermite_normal_form(identity)
    assert res.h == identity
    assert res.u == identity
    res = hermite_normal_form([[2, 0], [0, 2]])
    assert res.h == [[2, 0], [0, 2]]


@pytest.mark.parametrize(
    "call", [hermite_normal_form, kernel_basis, lambda m: solve_integer(m, [0, 0])]
)
def test_ragged_rows_are_rejected(call):
    with pytest.raises(LinalgError, match="ragged rows"):
        call([[1, 2], [3]])


def test_hnf_zero_matrix():
    res = hermite_normal_form([[0, 0], [0, 0]])
    assert res.rank == 0
    assert res.h == []


def test_hnf_random_shapes():
    rng = random.Random(8)
    for _ in range(120):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols, 3)
        res = hermite_normal_form(m)
        _check_hnf_shape(m, res)


def test_hnf_matches_the_rational_row_selection_reference():
    """Skipping rows in the span of the pivot rows before them picks the
    rows a rational elimination picks, so H, U, the rank and the row
    order are those of the reference; rank-deficient inputs included."""
    rng = random.Random(12)
    for trial in range(300):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols, 3)
        if trial % 2:
            # make some rows zero or combinations of earlier rows
            for i in range(1, rows):
                if rng.random() < 0.5:
                    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                    j = rng.randrange(i)
                    m[i] = [a * x + b * y for x, y in zip(m[j], m[rng.randrange(i)])]
        res, ref = hermite_normal_form(m), reference_hnf(m)
        assert (res.h, res.u, res.rank, res.row_perm) == (ref.h, ref.u, ref.rank, ref.row_perm)
        _check_hnf_shape(m, res)


def test_hnf_uniqueness_under_column_permutation():
    """H depends only on the column lattice, so shuffling columns (a
    different column-operation order) yields the same H."""
    rng = random.Random(9)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols, 3)
        res = hermite_normal_form(m)
        perm = list(range(cols))
        rng.shuffle(perm)
        shuffled = [[m[i][perm[j]] for j in range(cols)] for i in range(rows)]
        res2 = hermite_normal_form(shuffled)
        assert res.h == res2.h
        assert res.rank == res2.rank


def test_hnf_determinant_divides_submatrix_determinants():
    rng = random.Random(10)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(rows, 4)
        m = _random_matrix(rng, rows, cols, 2)
        res = hermite_normal_form(m)
        if res.rank != rows:
            continue
        det_h = leibniz_determinant(res.h)
        for combo in itertools.combinations(range(cols), rows):
            d = leibniz_determinant([[m[i][j] for j in combo] for i in range(rows)])
            if d != 0:
                assert d % det_h == 0


def test_solve_integer_and_kernel():
    rng = random.Random(11)
    for _ in range(120):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols, 3)
        z = [rng.randint(-3, 3) for _ in range(cols)]
        target = [sum(m[i][j] * z[j] for j in range(cols)) for i in range(rows)]
        sol = solve_integer(m, target)
        assert sol is not None
        assert [sum(m[i][j] * sol[j] for j in range(cols)) for i in range(rows)] == target
        for k in kernel_basis(m):
            assert all(sum(m[i][j] * k[j] for j in range(cols)) == 0 for i in range(rows))


def test_solve_integer_detects_unsolvable():
    assert solve_integer([[2, 4]], [1]) is None
    assert solve_integer([[1, 0], [0, 0]], [0, 1]) is None


def test_lp_trivial_cases():
    ok, _ = rational_lp_feasible([((1,), 0)], 1)
    assert not ok
    ok, w = rational_lp_feasible([((1, -1), 0)], 2)
    assert ok and w[0] == w[1] and w[0] > 0


def test_lp_euler_cycle_flow():
    rows = [((1, -1, 0), 0), ((0, 1, -1), 0), ((-1, 0, 1), 0), ((1, 1, -2), 0)]
    ok, w = rational_lp_feasible(rows, 3)
    assert ok
    assert w[0] == w[1] == w[2] > 0


def test_strict_versus_epsilon_formulation():
    """Strict positivity via f >= 1 agrees with maximizing a positive
    epsilon, by the scaling argument for homogeneous systems."""
    rng = random.Random(13)
    for _ in range(50):
        nvars = rng.randint(1, 4)
        nrows = rng.randint(1, 3)
        rows = [
            tuple(rng.randint(-2, 2) for _ in range(nvars)) for _ in range(nrows)
        ]
        ok, witness = rational_lp_feasible([(r, 0) for r in rows], nvars)
        eps = feasible_with_epsilon(rows, nvars)
        assert ok == (eps is not None and eps > 0)
        if ok:
            for r in rows:
                assert sum(Fraction(c) * w for c, w in zip(r, witness)) == 0
            assert all(w >= 1 for w in witness)
