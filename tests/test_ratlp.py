from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lp_max_support
from mutreach.ratlp import max_positive_support, positive_circulation


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
# f0 = f1 and f3 = f4 carry flow, f2 cannot: two single-index solves
@example(([[1, -1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, -1]], 5))
@example(([[1, 1]], 2))
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
