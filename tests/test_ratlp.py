import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    count_pivots,
    dense_minimize,
    dense_pivot,
    lp_max_support,
    single_lp_circulation,
)
from mutreach import presburger, ratlp, unfolding
from mutreach.presburger import compile_mutual
from mutreach.ratlp import max_positive_support, positive_circulation, solve_standard
from mutreach.witness import PumpingParams


@st.composite
def homogeneous_systems(draw):
    nrows = draw(st.integers(1, 4))
    nvars = draw(st.integers(1, 7))
    entry = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(entry, min_size=nvars, max_size=nvars),
                         min_size=nrows, max_size=nrows))
    return rows, nvars


@st.composite
def systems_forced_by_a_sum(draw):
    """Rows whose sum is a drawn c >= 0, so every f >= 0 with A f = 0 has
    f_j = 0 wherever c_j > 0.  The last row is c minus the others, so a
    single row is mostly not one-signed, and the forcing-row presolve
    misses what only the sum of the rows forces."""
    nvars = draw(st.integers(2, 6))
    entry = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(entry, min_size=nvars, max_size=nvars), min_size=1, max_size=3))
    c = draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars))
    rows.append([cj - sum(col) for cj, col in zip(c, zip(*rows))])
    return rows, nvars


@settings(max_examples=200, deadline=None)
@given(st.one_of(homogeneous_systems(), systems_forced_by_a_sum()))
# row 1 forces f2 = 0; f0 = f1 and f3 = f4 carry flow
@example(([[1, -1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, -1]], 5))
@example(([[1, 1]], 2))
# cascade: the consumer edge e1 (B -> A) has a one-signed displacement row,
# and once it is gone the flow row of A forces e0 (A -> B); the self-loop
# e2 on A keeps its flow
@example(([[1, -1, 0], [-1, 1, 0], [0, -1, 0]], 3))
# the same cascade without the self-loop forces every column: support []
@example(([[1, -1], [-1, 1], [0, -1]], 2))
# no row is one-signed, yet f2 = 0 (the rows sum to 2 f2 = 0): the
# all-index LP fails, its Farkas cut drops f2, and f0 = f1 carry flow
@example(([[1, -1, 1], [-1, 1, 1]], 3))
def test_lp_layer_matches_the_max_support_reference(system):
    rows, nvars = system
    support = lp_max_support(rows, nvars)
    assert max_positive_support(rows, nvars) == support
    f = positive_circulation(rows, nvars)
    if support != list(range(nvars)):
        assert f is None
    else:
        assert f is not None and len(f) == nvars
        assert all(x >= 1 for x in f)
        assert all(sum(a * x for a, x in zip(row, f)) == 0 for row in rows)
        assert f == single_lp_circulation(rows, nvars)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _row_reduce(rows, ncols):
    """Gauss-Jordan elimination in Fractions on the first `ncols` columns:
    the reduced rows, then the pivot column of each leading row."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        k = len(pivots)
        r = next((i for i in range(k, len(rows)) if rows[i][col] != 0), None)
        if r is None:
            continue
        rows[k], rows[r] = rows[r], rows[k]
        rows[k] = [x / rows[k][col] for x in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
        pivots.append(col)
    return rows, pivots


def _basic_feasible_solutions(a, b):
    """Every basic feasible solution of A x = b, x >= 0, with no simplex:
    for each set of rank(A) columns, solve A_S x_S = b by elimination, and
    keep x when the columns are independent, x >= 0 and every row holds."""
    nvars = len(a[0])
    rank = len(_row_reduce(a, nvars)[1])
    found = []
    for cols in itertools.combinations(range(nvars), rank):
        reduced, pivots = _row_reduce([[row[j] for j in cols] + [v] for row, v in zip(a, b)], rank)
        if len(pivots) < rank:
            continue
        x = [Fraction(0)] * nvars
        for row, k in zip(reduced, pivots):
            x[cols[k]] = row[-1]
        if min(x) >= 0 and all(_dot(row, x) == v for row, v in zip(a, b)):
            found.append(x)
    return found


@st.composite
def standard_systems(draw):
    """A x = b with 1-3 rows and 1-5 columns, entries in -2..2, b in -3..3,
    and a cost c >= 0, so the minimum over a feasible region is bounded."""
    nrows = draw(st.integers(1, 3))
    nvars = draw(st.integers(1, 5))
    a = draw(st.lists(st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars),
                      min_size=nrows, max_size=nrows))
    b = draw(st.lists(st.integers(-3, 3), min_size=nrows, max_size=nrows))
    c = draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars))
    return a, b, c


def _pivot_budget(a) -> int:
    """Pivots that phase 1, driving out and `minimize` may take on A x = b
    with Bland's rule: phases 1 and 2 each visit at most C(n + m, m)
    bases, and driving out takes m pivots."""
    nrows, nvars = len(a), len(a[0])
    return 2 * comb(nvars + nrows, nrows) + nrows


STANDARD_EXAMPLES = [
    # a repeated row, so one artificial cannot leave and its row is dropped
    ([[1, 1, 0], [1, 1, 0]], [2, 2], [1, 2, 0]),
    # infeasible: x0 + x1 = -1 with x >= 0
    ([[1, 1]], [-1], [0, 0]),
    # degenerate: b = 0, so every pivot keeps the objective and ties the ratios
    ([[1, -1, 1, 0], [2, 0, -1, 1], [0, 1, -2, 2]], [0, 0, 0], [1, 0, 2, 1]),
    # seven columns, past the drawn sizes, and b = 0: a ratio test that broke
    # ties by row order instead of by the least basic index cycles here
    ([[-1, 1, -2, 0, 0, 2, -2], [-2, -1, 1, 2, 0, 0, -1], [-1, 1, 1, 1, 0, -1, 2]],
     [0, 0, 0], [0, 3, 2, 0, 0, 0, 0]),
]


def standard_examples(test):
    """`test` with each of STANDARD_EXAMPLES as a Hypothesis example."""
    for system in reversed(STANDARD_EXAMPLES):
        test = example(system)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(standard_systems())
@standard_examples
def test_simplex_matches_basis_enumeration(system):
    """Phase 1 is feasible exactly when some basic feasible solution is,
    each vertex the tableau reads is one of them, and `minimize` reaches
    the least cost over them.  Bland's rule visits no basis twice, so a
    run of more pivots than there are bases is cycling."""
    a, b, c = system
    vertices = _basic_feasible_solutions(a, b)
    with pytest.MonkeyPatch.context() as mp:
        count_pivots(mp, _pivot_budget(a))
        tab = solve_standard(a, b)
        assert tab.infeasible == (not vertices)
        if tab.infeasible:
            return
        assert tab.solution() in vertices
        value = tab.minimize(c)
    assert value == min(_dot(c, x) for x in vertices)
    x = tab.solution()
    assert x in vertices and _dot(c, x) == value


def _pivot_trace(kernel, system) -> list:
    """Phase 1 and then `minimize` with `kernel` as `_Tableau._pivot`: for
    each pivot, its (row, col), every row after it and the objective row
    it updated, if any."""
    a, b, c = system
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratlp._Tableau, "_pivot", kernel)
        trace = count_pivots(mp, _pivot_budget(a), snapshot=True)
        tab = solve_standard(a, b)
        if not tab.infeasible:
            tab.minimize(c)
    return trace


@settings(max_examples=300, deadline=None)
@given(standard_systems())
@standard_examples
def test_sparse_pivot_matches_the_dense_row_operation(system):
    """The pivot that updates only the pivot row's nonzero columns takes
    the same pivots as the full row operation, and leaves every row, the
    objective included, equal entry for entry after each one."""
    sparse = _pivot_trace(ratlp._Tableau._pivot, system)
    dense = _pivot_trace(dense_pivot, system)
    assert [step for step, *_ in sparse] == [step for step, *_ in dense]
    assert sparse == dense


def _objective_trace(minimize, system, i, j) -> tuple:
    """Phase 1 and then `minimize` of the signed unit cost e_i - e_j and of
    its negation, in ints as `_coefficient_ranges` poses them, with
    `minimize` as `_Tableau.minimize`: the `_pivot` trace, the phase-1
    objective row, and each cost's value and final objective row, or
    None for a cost unbounded below."""
    a, b, _ = system
    nrows, nvars = len(a), len(a[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratlp._Tableau, "minimize", minimize)
        budget = _pivot_budget(a) + comb(nvars + nrows, nrows)
        trace = count_pivots(mp, budget, snapshot=True)
        tab = solve_standard(a, b)
        ends = [list(tab.objective)]
        if not tab.infeasible:
            cost = [(x == i) - (x == j) for x in range(nvars)]
            for signed in (cost, [-c for c in cost]):
                try:
                    ends.append((tab.minimize(signed), list(tab.objective)))
                except AssertionError as error:
                    if not str(error).startswith("objective unbounded"):
                        raise
                    ends.append(None)
    return trace, ends


@settings(max_examples=300, deadline=None)
@given(standard_systems(), st.integers(0, 4), st.integers(0, 4))
@example(STANDARD_EXAMPLES[0], 0, 2)
@example(STANDARD_EXAMPLES[2], 0, 2)
@example(STANDARD_EXAMPLES[3], 1, 2)
def test_sparse_objective_set_up_matches_the_dense_one(system, i, j):
    """Pricing out the basis on each row's nonzero columns only leaves
    the objective row equal entry for entry to the full subtraction,
    after phase 1 and after each signed unit cost, and takes the same
    pivots with the same rows after each."""
    nvars = len(system[0][0])
    i, j = i % nvars, j % nvars
    sparse = _objective_trace(ratlp._Tableau.minimize, system, i, j)
    dense = _objective_trace(dense_minimize, system, i, j)
    assert sparse[1] == dense[1]
    assert sparse[0] == dense[0]


@settings(max_examples=100, deadline=None)
@given(standard_systems())
@standard_examples
def test_minimize_leaves_the_cost_as_given(system):
    """`_coefficient_ranges` negates a cost after minimising it, so
    `minimize` must not write to the caller's list."""
    a, b, c = system
    tab = solve_standard(a, b)
    if tab.infeasible:
        return
    for cost in (list(c), [Fraction(x) for x in c]):
        given_cost = list(cost)
        tab.minimize(cost)
        assert cost == given_cost


def test_empty_system_supports_every_index():
    assert max_positive_support([], 3) == [0, 1, 2]
    assert positive_circulation([], 3) == [Fraction(1)] * 3
    assert max_positive_support([[]], 0) == []
    assert positive_circulation([[]], 0) == []


def test_one_signed_rows_are_decided_without_an_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("solve_standard called")

    monkeypatch.setattr(ratlp, "solve_standard", no_lp)
    cascade = [[1, -1], [-1, 1], [0, -1]]
    assert positive_circulation(cascade, 2) is None
    assert max_positive_support(cascade, 2) == []
    assert positive_circulation([[1, -1, 0], [0, 0, 2]], 3) is None


def _counting_solves(monkeypatch) -> list:
    calls = []
    solve = ratlp.solve_standard

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ratlp, "solve_standard", counting)
    return calls


def _is_balanced(rows, nvars) -> bool:
    """Every row sums to 0 over the columns the forcing-row presolve keeps."""
    alive = ratlp._unforced_columns(rows, range(nvars))
    return all(sum(row[j] for j in alive) == 0 for row in rows)


def _is_presolved(rows, nvars) -> bool:
    """No row is one-signed on the columns: the presolve forces none."""
    return ratlp._unforced_columns(rows, range(nvars)) == list(range(nvars))


def _recorded_questions(monkeypatch) -> list:
    """Whether each support question the enumerator asks is balanced."""
    questions = []
    support = unfolding.max_positive_support

    def recording(rows, nvars):
        questions.append(_is_balanced(rows, nvars))
        return support(rows, nvars)

    monkeypatch.setattr(unfolding, "max_positive_support", recording)
    return questions


def test_forcing_rows_cut_the_lps_of_a_scaled_compile(mixed3, monkeypatch):
    """mixed3's consumer action has a one-signed displacement row.  Without
    the forcing-row pass this compile solves 106 LPs; with it, the edges of
    the consumer and everything they cascade to never reach the simplex,
    which left 26.  Each of the 20 distinct edge shapes asks one support
    question, and every one is balanced after the presolve, so f = 1 on
    the live columns answers each, and none reaches the simplex."""
    calls = _counting_solves(monkeypatch)
    questions = _recorded_questions(monkeypatch)
    compile_mutual(mixed3, PumpingParams(state_bound=5, cycle_len=4))
    assert len(questions) == 20 and all(questions)
    assert calls == []


def test_ring3_compile_asks_each_edge_shape_once(ring3, monkeypatch):
    """116 distinct edge shapes ask one support question each: 26 are
    balanced after the presolve and need no LP, and the all-index LP of
    each of the other 90 is feasible, so no Farkas cut runs."""
    calls = _counting_solves(monkeypatch)
    questions = _recorded_questions(monkeypatch)
    compile_mutual(ring3, PumpingParams(state_bound=4, cycle_len=4))
    assert len(questions) == 116
    assert sum(questions) == 26
    assert len(calls) == 90


@st.composite
def balanced_systems(draw):
    """Rows with entries -2..2 whose last live entry makes each sum to 0.
    Some draws add columns that one forcing row, zero on the live columns,
    makes one-signed: each other row takes any entries there, so it
    balances only after the presolve.  Some draws then add 1 to one live
    entry of one row, which mostly leaves the system unbalanced.  The
    columns are shuffled."""
    nrows = draw(st.integers(1, 4))
    nlive = draw(st.integers(1, 6))
    nforced = draw(st.integers(0, 2))
    entry = st.integers(-2, 2)
    rows = []
    for _ in range(nrows):
        live = draw(st.lists(entry, min_size=nlive - 1, max_size=nlive - 1))
        rows.append(live + [-sum(live)] + draw(st.lists(entry, min_size=nforced, max_size=nforced)))
    if nforced:
        sign = draw(st.sampled_from([1, -1]))
        rows.append([0] * nlive + [sign * draw(st.integers(1, 2)) for _ in range(nforced)])
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, nlive - 1))] += 1
    order = draw(st.permutations(range(nlive + nforced)))
    return [[row[j] for j in order] for row in rows], nlive + nforced


@settings(max_examples=300, deadline=None, derandomize=True)
@given(balanced_systems())
# balanced only once the fourth column is forced
@example(([[1, -1, 0, 2], [0, 1, -1, 0], [0, 0, 0, 1]], 4))
# only the first row balances, and the other two give f0 = 0, so f1 = 0
@example(([[1, -1, 0, 0], [1, 0, 1, -1], [-1, 0, 1, -1]], 4))
def test_balanced_systems_need_no_lp(system):
    """When every row sums to 0 over the live columns, f = 1 there is a
    solution: the support is every live column, found with no LP.  Any
    other live system reaches the simplex."""
    rows, nvars = system
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_solves(mp)
        support = max_positive_support(rows, nvars)
    assert support == lp_max_support(rows, nvars)
    balanced = _is_balanced(rows, nvars)
    assert (calls == []) == balanced
    if balanced:
        assert support == ratlp._unforced_columns(rows, range(nvars))


@st.composite
def zero_sum_systems(draw):
    """Rows with entries -2..2 whose last entry makes each sum to 0; no
    rows at all in some draws."""
    nvars = draw(st.integers(1, 6))
    live = st.lists(st.integers(-2, 2), min_size=nvars - 1, max_size=nvars - 1)
    return [row + [-sum(row)] for row in draw(st.lists(live, max_size=4))], nvars


@settings(max_examples=200, deadline=None, derandomize=True)
@given(zero_sum_systems())
@example(([], 3))
@example(([[0, 0]], 2))
@example(([[1, -1, 0], [0, 1, -1]], 3))
def test_balanced_circulations_need_no_lp(system):
    """A system whose rows each sum to 0 has f = 1 as its positive
    circulation, the vertex the LP returns: the right-hand side -A 1 is
    0, so every phase-1 pivot is degenerate and leaves g = 0."""
    rows, nvars = system
    ones = [Fraction(1)] * nvars
    if rows:  # with no row, solve_standard cannot size f
        tab = solve_standard(rows, [-sum(row) for row in rows])
        assert not tab.infeasible and [x + 1 for x in tab.solution()] == ones
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_solves(mp)
        assert positive_circulation(rows, nvars) == ones
    assert calls == []


def test_a_farkas_cut_is_presolved_before_the_next_question(monkeypatch):
    """Each system's rows sum to a vector >= 0, so its all-column LP fails
    and the cut drops one column.  That leaves a one-signed row, and the
    forcing-row presolve, not a second LP, decides the rest."""
    calls = _counting_solves(monkeypatch)
    assert max_positive_support([[1, -1], [-1, 2]], 2) == []
    assert len(calls) == 1
    # column 2 is zero in every row, so it stays
    assert max_positive_support([[-2, 2, 0], [2, -1, 0]], 3) == [2]
    assert len(calls) == 2


def test_farkas_cuts_match_the_max_support_reference():
    """When the all-column LP fails, its certificate cuts columns until the
    LP on the rest succeeds: the support matches the reference, and the
    cut runs in the drawn examples.  Each round presolves and checks the
    balance before its LP, so no LP sees a one-signed row or a balanced
    system."""
    cuts = []
    solve = ratlp.solve_standard

    def recording(rows, rhs):
        assert rhs == [-sum(row) for row in rows]
        assert _is_presolved(rows, len(rows[0])) and not _is_balanced(rows, len(rows[0]))
        tab = solve(rows, rhs)
        cuts.append(tab.infeasible)
        return tab

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(systems_forced_by_a_sum(), min_size=1, max_size=4))
    @example([([[1, -1, 1], [-1, 1, 1]], 3)])
    def check(systems):
        for rows, nvars in systems:
            assert max_positive_support(rows, nvars) == lp_max_support(rows, nvars)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratlp, "solve_standard", recording)
        check()
    assert sum(cuts) > 50


COMPILES = [
    pytest.param(name, bound, id=f"{name}-{bound}")
    for name in ("token_swap", "consumer", "ring", "mixed3")
    for bound in (4, 5)
] + [pytest.param("ring3", 4, id="ring3-4")]


@pytest.mark.parametrize("name, state_bound", COMPILES)
def test_a_compile_pass_asks_each_edge_shape_once(
    fixture_nets, ring3, monkeypatch, name, state_bound
):
    """The pass hands one `decided` dict to the walk of every index set, so
    no edge shape reaches `max_positive_support` twice."""
    net = ring3 if name == "ring3" else fixture_nets[name]
    shapes, asked = {}, []
    rows_of, support = unfolding._circulation_rows, unfolding.max_positive_support

    def building(net, size, shape):
        rows = rows_of(net, size, shape)
        shapes[id(rows)] = (rows, shape)  # holding rows keeps its id unique
        return rows

    def recording(rows, nvars):
        asked.append(shapes[id(rows)][1])
        return support(rows, nvars)

    walks = []
    enumerate_all = presburger.enumerate_unfoldings

    def walking(*args):
        walks.append(args[-1])
        return enumerate_all(*args)

    monkeypatch.setattr(unfolding, "_circulation_rows", building)
    monkeypatch.setattr(unfolding, "max_positive_support", recording)
    monkeypatch.setattr(presburger, "enumerate_unfoldings", walking)
    compile_mutual(net, PumpingParams(state_bound=state_bound, cycle_len=4))
    assert asked and len(asked) == len(set(asked))
    assert len(walks) == 2 ** net.dim and all(d is walks[0] for d in walks)
