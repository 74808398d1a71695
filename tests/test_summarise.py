import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import series_of


def test_minimum_and_maximum_rows():
    rows = [[3.0, 1.0, 2.0]]
    assert series_of(rows, 1).values[0] == 1.0
    assert series_of(rows, 3).values[0] == 3.0


def test_twentieth_of_25():
    assert series_of([np.arange(1.0, 26.0)], 20).values[0] == 20.0


def test_k_out_of_range():
    with pytest.raises(ValueError):
        series_of([[1.0, 2.0]], 0)
    with pytest.raises(ValueError):
        series_of([[1.0, 2.0]], 3)


def test_q2_semantics_six_sites_exceeding():
    # exactly 6 of 25 sites above 5.7 means the 20th smallest is above 5.7
    row = np.concatenate([np.full(19, 1.0), np.full(6, 6.0)])
    series = series_of([np.random.default_rng(0).permutation(row)], 20)
    assert (series.values > 5.7).tolist() == [True]
    # with only 5 sites above, the 20th smallest stays below
    row5 = np.concatenate([np.full(20, 1.0), np.full(5, 6.0)])
    assert not (series_of([row5], 20).values > 5.7).any()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=25, max_size=25),
       st.integers(1, 25), st.floats(0.0, 100.0))
def test_order_statistic_event_equivalence(row, j, level):
    """k-th smallest > v holds iff at least n - k + 1 sites exceed v."""
    series = series_of([row], 25 - j + 1)
    lhs = bool(series.values[0] > level)
    rhs = int(np.sum(np.asarray(row) > level)) >= j
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4),
                min_size=1, max_size=20))
def test_order_statistics_monotone_in_k(rows):
    prev = series_of(rows, 1).values
    for k in range(2, 5):
        cur = series_of(rows, k).values
        assert np.all(prev <= cur)
        prev = cur
