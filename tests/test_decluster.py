import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtlite as ev
from conftest import constant_threshold_model, oracle_decluster


def series_of(values):
    values = np.asarray(values, dtype=float)
    return ev.SummarySeries(1, 1, values, np.ones(values.size, dtype=np.int64))


class TestRunDecluster:
    def test_worked_example(self):
        series = series_of([12, 3, 3, 3, 11, 12, 2, 13])
        cs = ev.run_decluster(series, constant_threshold_model(10.0), l=3)
        assert [list(d) for d in cs.cluster_days] == [[1], [5, 6, 8]]
        assert cs.maxima.tolist() == [12.0, 13.0]
        assert cs.maxima_days.tolist() == [1, 8]
        assert cs.theta_hat == pytest.approx(0.5)
        assert cs.n_exceedances == 4

    def test_no_exceedances_flagged_not_error(self):
        cs = ev.run_decluster(series_of([1.0, 2.0, 3.0]), constant_threshold_model(10.0), l=3)
        assert cs.n_clusters == 0 and cs.theta_hat is None and cs.pi_star_hat == 0.0

    def test_all_days_above_single_cluster(self):
        n = 25
        cs = ev.run_decluster(series_of(np.full(n, 5.0)), constant_threshold_model(1.0), l=2)
        assert cs.n_clusters == 1
        assert cs.theta_hat == pytest.approx(1.0 / n)

    def test_gap_of_exactly_l_splits(self):
        # 2 sub-threshold days between exceedances: same cluster for l=3, new for l=2
        values = [11, 0, 0, 11]
        cs3 = ev.run_decluster(series_of(values), constant_threshold_model(10.0), l=3)
        cs2 = ev.run_decluster(series_of(values), constant_threshold_model(10.0), l=2)
        assert cs3.n_clusters == 1
        assert cs2.n_clusters == 2

    def test_tie_takes_earliest_day(self):
        cs = ev.run_decluster(series_of([11, 12, 12, 11]), constant_threshold_model(10.0), l=1)
        assert cs.maxima_days.tolist() == [2]

    def test_invalid_l(self):
        with pytest.raises(ValueError):
            ev.run_decluster(series_of([1.0]), constant_threshold_model(0.5), l=0)

    def test_oracle_equivalence_1000_cases(self):
        rng = np.random.default_rng(1234)
        for case in range(1000):
            n = int(rng.integers(1, 201))
            l = int(rng.choice([1, 2, 3, 5]))
            p = rng.uniform(0.05, 0.5)
            values = (rng.random(n) < p).astype(float)  # exceedance iff value == 1 > 0.5
            cs = ev.run_decluster(series_of(values), constant_threshold_model(0.5), l=l)
            expected = oracle_decluster(values, 0.5, l)
            assert [list(d) for d in cs.cluster_days] == expected, f"case {case}"

    def test_monotone_in_l_and_member_invariants(self):
        rng = np.random.default_rng(9)
        values = rng.gamma(1.0, 1.0, size=500)
        tm = constant_threshold_model(float(np.quantile(values, 0.9)))
        exceed_days = set((np.flatnonzero(values > tm.u_by_month[0]) + 1).tolist())
        prev = None
        for l in (1, 2, 3, 5, 10):
            cs = ev.run_decluster(series_of(values), tm, l=l)
            member_days = set(int(d) for days in cs.cluster_days for d in days)
            assert member_days == exceed_days
            assert set(cs.maxima.tolist()) <= set(values[values > tm.u_by_month[0]].tolist())
            assert cs.pi_star_hat <= len(exceed_days) / values.size
            if prev is not None:
                assert cs.n_clusters <= prev
            prev = cs.n_clusters


@settings(max_examples=150, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=120), st.integers(1, 6))
def test_decluster_matches_oracle_property(flags, l):
    values = np.asarray(flags, dtype=float)
    series = series_of(values)
    cs = ev.run_decluster(series, constant_threshold_model(0.5), l=l)
    assert [list(d) for d in cs.cluster_days] == oracle_decluster(values, 0.5, l)
    if cs.n_exceedances:
        assert 0.0 < cs.theta_hat <= 1.0


def argmax_reference(values, clusters):
    """Per-cluster maximum and its day, earliest day on ties, one cluster at a time."""
    maxima, days = [], []
    for cluster in clusters:
        vals = [values[d - 1] for d in cluster]
        i = int(np.argmax(vals))
        maxima.append(vals[i])
        days.append(cluster[i])
    return maxima, days


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 12)), min_size=1, max_size=150),
       st.lists(st.sampled_from([0.5, 1.5, 2.5, 4.5]), min_size=12, max_size=12),
       st.integers(1, 5))
def test_vectorised_decluster_matches_per_cluster_reference(days, u, l):
    # few distinct values, so clusters often hold tied maxima; u = 4.5 in
    # every month gives series with no exceedances at all
    values = np.array([v for v, _ in days], dtype=float)
    months = np.array([m for _, m in days], dtype=np.int64)
    tm = ev.ThresholdModel(0.95, np.asarray(u), np.zeros(12), 0.0)
    cs = ev.run_decluster(ev.SummarySeries(1, 1, values, months), tm, l=l)
    u_day = np.asarray(u)[months - 1]
    clusters = oracle_decluster(values, u_day, l)
    assert [list(d) for d in cs.cluster_days] == clusters
    assert cs.exceedance_days.tolist() == [d for c in clusters for d in c]
    maxima, maxima_days = argmax_reference(values, clusters)
    assert cs.maxima.tolist() == maxima and cs.maxima.dtype == np.float64
    assert cs.maxima_days.tolist() == maxima_days
    assert cs.maxima_months.tolist() == [int(months[d - 1]) for d in maxima_days]
    assert cs.n_clusters == len(clusters) and cs.pi_star_hat == len(clusters) / values.size
    assert cs.theta_hat == (len(clusters) / cs.n_exceedances if clusters else None)


def test_ties_take_the_earliest_day_in_every_cluster():
    values = [12, 11, 12, 0, 0, 0, 13, 13, 0, 0, 0, 0, 11, 11, 11]
    cs = ev.run_decluster(series_of(values), constant_threshold_model(10.0), l=3)
    assert [list(d) for d in cs.cluster_days] == [[1, 2, 3], [7, 8], [13, 14, 15]]
    assert cs.maxima.tolist() == [12.0, 13.0, 11.0]
    assert cs.maxima_days.tolist() == [1, 7, 13]
