from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lp_max_support
from mutreach import ratlp
from mutreach.presburger import compile_mutual
from mutreach.ratlp import max_positive_support, positive_circulation
from mutreach.witness import PumpingParams


@st.composite
def homogeneous_systems(draw):
    nrows = draw(st.integers(1, 4))
    nvars = draw(st.integers(1, 7))
    entry = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(entry, min_size=nvars, max_size=nvars),
                         min_size=nrows, max_size=nrows))
    return rows, nvars


@settings(max_examples=200, deadline=None)
@given(homogeneous_systems())
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
# all-index LP fails and single-index LPs find f0 = f1
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


def test_forcing_rows_cut_the_lps_of_a_scaled_compile(mixed3, monkeypatch):
    """mixed3's consumer action has a one-signed displacement row.  Without
    the forcing-row pass this compile solves 106 LPs; with it, the edges of
    the consumer and everything they cascade to never reach the simplex."""
    calls = []
    solve = ratlp.solve_standard

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ratlp, "solve_standard", counting)
    compile_mutual(mixed3, PumpingParams(state_bound=5, cycle_len=4))
    assert len(calls) == 26
