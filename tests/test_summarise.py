import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtlite as ev


def run_from_matrix(values):
    values = np.asarray(values, dtype=float)
    months = ev.Calendar().months_for(values.shape[0])
    return ev.EnsembleRun(1, values, months)


def test_minimum_and_maximum_rows():
    run = run_from_matrix([[3.0, 1.0, 2.0]])
    assert ev.spatial_order_statistic(run, 1).values[0] == 1.0
    assert ev.spatial_order_statistic(run, 3).values[0] == 3.0


def test_twentieth_of_25():
    run = run_from_matrix([np.arange(1.0, 26.0)])
    assert ev.spatial_order_statistic(run, 20).values[0] == 20.0


def test_k_out_of_range():
    run = run_from_matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        ev.spatial_order_statistic(run, 0)
    with pytest.raises(ValueError):
        ev.spatial_order_statistic(run, 3)


def test_q2_semantics_six_sites_exceeding():
    # exactly 6 of 25 sites above 5.7 means the 20th smallest is above 5.7
    row = np.concatenate([np.full(19, 1.0), np.full(6, 6.0)])
    run = run_from_matrix([np.random.default_rng(0).permutation(row)])
    series = ev.spatial_order_statistic(run, 20)
    assert (series.values > 5.7).tolist() == [True]
    # with only 5 sites above, the 20th smallest stays below
    row5 = np.concatenate([np.full(20, 1.0), np.full(5, 6.0)])
    run5 = run_from_matrix([row5])
    assert not (ev.spatial_order_statistic(run5, 20).values > 5.7).any()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=25, max_size=25),
       st.integers(1, 25), st.floats(0.0, 100.0))
def test_order_statistic_event_equivalence(row, j, level):
    """k-th smallest > v holds iff at least n - k + 1 sites exceed v."""
    run = run_from_matrix([row])
    k = 25 - j + 1
    series = ev.spatial_order_statistic(run, k)
    lhs = bool(series.values[0] > level)
    rhs = int(np.sum(np.asarray(row) > level)) >= j
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4),
                min_size=1, max_size=20))
def test_order_statistics_monotone_in_k(rows):
    run = run_from_matrix(rows)
    prev = ev.spatial_order_statistic(run, 1).values
    for k in range(2, 5):
        cur = ev.spatial_order_statistic(run, k).values
        assert np.all(prev <= cur)
        prev = cur
