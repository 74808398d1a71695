import numpy as np
import pytest

import evtlite as ev
from conftest import series_of
from evtlite.synth import _ar1


def first_run(spec, seed):
    return next(ev.iter_ensemble(spec, seed))


def test_same_seed_identical_runs():
    spec = ev.SynthSpec(n_runs=2, n_days=500, n_sites=5, order_k=2)
    a = list(ev.iter_ensemble(spec, seed=9))
    b = list(ev.iter_ensemble(spec, seed=9))
    assert len(a) == 2
    for ra, rb in zip(a, b):
        assert np.array_equal(ra, rb)
    assert not np.array_equal(a[0], first_run(spec, seed=10))


def test_order_statistic_marginal_is_exact():
    spec = ev.SynthSpec(n_runs=1, n_days=60225, n_sites=6, order_k=3, pi=0.05,
                        u0_by_month=np.linspace(1.0, 2.0, 12),
                        sigma_by_month=np.full(12, 0.5), xi=0.0)
    series = series_of(first_run(spec, seed=4), 3)
    for m in (1, 6, 12):
        mask = series.months == m
        frac_below = float(np.mean(series.values[mask] <= spec.u0_by_month[m - 1]))
        n = int(mask.sum())
        assert frac_below == pytest.approx(0.95, abs=4 * np.sqrt(0.05 * 0.95 / n))


def test_event_frequency_matches_truth():
    spec = ev.SynthSpec(n_runs=1, n_days=60225, n_sites=4, order_k=1, pi=0.05,
                        u0_by_month=np.full(12, 1.0), sigma_by_month=np.full(12, 0.8), xi=0.0)
    target = 1.0 + 0.8 * np.log(100.0)  # tail survival 0.01, per-day 5e-4
    truth = ev.event_truth(spec, target)
    assert truth["mean_per_day"] == pytest.approx(5e-4, rel=1e-12)
    series = series_of(first_run(spec, seed=21), 1)
    count = int(np.sum(series.values > target))
    expected = truth["expected_count_per_run"]
    assert abs(count - expected) <= 4 * np.sqrt(expected)


def test_truth_closed_forms():
    spec = ev.SynthSpec(n_runs=1, n_days=365, n_sites=3, order_k=1, pi=0.04,
                        u0_by_month=np.full(12, 2.0), sigma_by_month=np.full(12, 1.0), xi=0.0)
    # tail branch: pi * exp(-(t - u0) / sigma)
    assert ev.per_day_probability(spec, 2.0 + np.log(2.0), 5) == pytest.approx(0.02, abs=1e-12)
    # bulk branch: 1 - (1 - pi) * t / u0
    assert ev.per_day_probability(spec, 1.0, 5) == pytest.approx(1.0 - 0.96 * 0.5, abs=1e-12)
    assert ev.per_day_probability(spec, 0.0, 5) == 1.0
    truth = ev.event_truth(spec, 2.0 + np.log(2.0))
    assert truth["expected_count_per_run"] == pytest.approx(365 * 0.02, rel=1e-12)
    assert truth["prob_any_day"] == pytest.approx(1.0 - (1.0 - 0.02) ** 365, rel=1e-9)


def test_independent_days_give_near_unit_extremal_index():
    # low rate and run length 1 make chance adjacency negligible
    spec = ev.SynthSpec(n_runs=1, n_days=60225, n_sites=3, order_k=1, pi=0.02,
                        u0_by_month=np.full(12, 1.0), sigma_by_month=np.full(12, 0.5),
                        xi=0.0, rho=0.0)
    series = series_of(first_run(spec, seed=3), 1)
    tm = ev.ThresholdModel(0.98, spec.u0_by_month, np.zeros(12), 0.0)
    cs = ev.run_decluster(series, tm, l=1)
    assert 0.95 <= cs.theta_hat <= 1.0


def test_dependence_knob_creates_clusters_but_keeps_margins():
    base = dict(n_runs=1, n_days=60225, n_sites=3, order_k=1, pi=0.05,
                u0_by_month=np.full(12, 1.0), sigma_by_month=np.full(12, 0.5), xi=0.0)
    indep = ev.SynthSpec(**base, rho=0.0)
    dep = ev.SynthSpec(**base, rho=0.8)
    tm = ev.ThresholdModel(0.95, np.full(12, 1.0), np.zeros(12), 0.0)
    thetas = {}
    for name, spec in (("indep", indep), ("dep", dep)):
        series = series_of(first_run(spec, seed=17), 1)
        # marginal untouched by the copula
        assert float(np.mean(series.values > 1.0)) == pytest.approx(0.05, abs=0.005)
        thetas[name] = ev.run_decluster(series, tm, l=3).theta_hat
    assert thetas["dep"] < thetas["indep"]


def test_spec_validation():
    with pytest.raises(ValueError):
        ev.SynthSpec(order_k=9, n_sites=5)
    with pytest.raises(ValueError):
        ev.SynthSpec(pi=0.0)
    with pytest.raises(ValueError):
        ev.SynthSpec(rho=1.0)
    with pytest.raises(ValueError):
        ev.SynthSpec(sigma_by_month=np.zeros(12))


@pytest.mark.parametrize("rho", [0.05, 0.5, 0.7, 0.99])
def test_ar1_recursion_equals_lfilter_bitwise(rho):
    from scipy.signal import lfilter  # the reference only; the package does not import it

    for seed in range(6):
        eps = np.random.default_rng(seed).standard_normal(20_000)
        ref = np.empty_like(eps)
        ref[0] = eps[0]
        ref[1:] = lfilter([np.sqrt(1.0 - rho ** 2)], [1.0, -rho], eps[1:], zi=[rho * eps[0]])[0]
        assert _ar1(eps, rho).tobytes() == ref.tobytes()
    assert _ar1(eps[:1], rho).tobytes() == eps[:1].tobytes()
