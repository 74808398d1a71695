import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtlite as ev
from conftest import ald_negloglik
from evtlite.threshold import MIN_MONTH_OBS, pinball


def series_by_month(values_by_month):
    """Stack 12 per-month samples into a SummarySeries."""
    values = np.concatenate(values_by_month)
    months = np.concatenate([np.full(len(v), m + 1, dtype=np.int64)
                             for m, v in enumerate(values_by_month)])
    return ev.SummarySeries(1, 1, values, months)


def exact_ald_mle(x, tau):
    """Closed-form joint ALD MLE for one month.

    The profile likelihood in the location is minus the log of the mean
    pinball loss, minimised by the ceil(n * tau)-th order statistic; when
    n * tau is an integer the loss is flat up to the next order statistic
    and the lower end is taken. n * tau is computed exactly from the
    decimal tau. The scale MLE is the mean pinball loss at that point.
    """
    xs = np.sort(x)
    k = math.ceil(Fraction(str(tau)) * xs.size)
    u = xs[k - 1]
    zeta = float(np.mean(pinball(x - u, tau)))
    return float(u), zeta


class TestAldNegloglik:
    def test_single_point_at_location(self):
        series = ev.SummarySeries(1, 1, np.array([2.0]), np.array([1]))
        params = np.concatenate([np.full(12, 2.0), np.zeros(12)])
        expected = -np.log(0.95 * 0.05)  # 3.0470...
        assert ald_negloglik(params, series, 0.95) == pytest.approx(expected, abs=1e-12)

    def test_doubling_scale_adds_n_log2(self):
        n = 37
        series = ev.SummarySeries(1, 1, np.full(n, 5.0), np.full(n, 3, dtype=np.int64))
        base = np.concatenate([np.full(12, 5.0), np.zeros(12)])
        doubled = base.copy()
        doubled[12:] = np.log(2.0)
        diff = ald_negloglik(doubled, series, 0.95) - ald_negloglik(base, series, 0.95)
        assert diff == pytest.approx(n * np.log(2.0), rel=1e-12)

    def test_degenerate_scale_unbounded_then_barrier(self):
        # with x identically u the likelihood grows without bound as the
        # scale shrinks, until underflow hits the +inf barrier
        series = ev.SummarySeries(1, 1, np.full(10, 1.0), np.full(10, 1, dtype=np.int64))

        def nll(log_zeta):
            params = np.concatenate([np.ones(12), np.full(12, log_zeta)])
            return ald_negloglik(params, series, 0.95)

        assert nll(-10.0) > nll(-100.0) > nll(-500.0)
        assert nll(-800.0) == np.inf  # exp underflows to zero scale
        assert ald_negloglik(np.full(24, np.nan), series, 0.95) == np.inf


class TestFitThreshold:
    def test_uniform_months_recover_quantile(self):
        rng = np.random.default_rng(11)
        shifts = 0.1 * np.arange(12)
        series = series_by_month([rng.random(5000) + s for s in shifts])
        model = ev.fit_threshold(series, tau=0.95)
        for m in range(12):
            assert model.u_by_month[m] - shifts[m] == pytest.approx(0.95, abs=0.02)
        # thresholds follow the month shifts monotonically
        assert np.all(np.diff(model.u_by_month) > 0)

    def test_location_equivariance_month7(self):
        # 411 points per month keeps n * tau non-integer so the location
        # optimum is a unique knot rather than a flat interval
        rng = np.random.default_rng(5)
        base = [rng.random(411) for _ in range(12)]
        series = series_by_month(base)
        shifted = [v + (10.0 if m == 6 else 0.0) for m, v in enumerate(base)]
        series_shift = series_by_month(shifted)
        a = ev.fit_threshold(series)
        b = ev.fit_threshold(series_shift)
        assert b.u_by_month[6] - a.u_by_month[6] == pytest.approx(10.0, abs=1e-4)
        assert b.u_by_month[0] == pytest.approx(a.u_by_month[0], abs=1e-6)

    def test_constant_series(self):
        series = series_by_month([np.full(60, 3.25) for _ in range(12)])
        model = ev.fit_threshold(series, tau=0.95)
        assert np.allclose(model.u_by_month, 3.25, atol=1e-6)

    def test_month_floor_enforced(self):
        assert MIN_MONTH_OBS == 50
        samples = [np.random.default_rng(m).random(MIN_MONTH_OBS) for m in range(12)]
        ev.fit_threshold(series_by_month(samples))
        samples[3] = samples[3][1:]
        with pytest.raises(RuntimeError, match=r"months \[4\] have fewer than 50 observations"):
            ev.fit_threshold(series_by_month(samples))

    def test_joint_optimum_matches_closed_form(self):
        # the joint fit decomposes by month; compare against the exact
        # closed-form per-month MLE (order-statistic location, mean
        # pinball scale)
        rng = np.random.default_rng(23)
        samples = [rng.gamma(2.0, 1.0, size=211) for _ in range(12)]
        series = series_by_month(samples)
        model = ev.fit_threshold(series, tau=0.95)
        for m, x in enumerate(samples):
            u_exact, zeta_exact = exact_ald_mle(x, 0.95)
            assert model.u_by_month[m] == pytest.approx(u_exact, abs=1e-6)
            assert np.exp(model.log_zeta_by_month[m]) == pytest.approx(zeta_exact, rel=1e-5)
        # and the 24-parameter objective agrees with the sum of month fits
        params = np.concatenate([model.u_by_month, model.log_zeta_by_month])
        assert ald_negloglik(params, series, 0.95) == pytest.approx(-model.loglik, rel=1e-12)

    def test_exceedance_calibration(self):
        rng = np.random.default_rng(17)
        series = series_by_month([rng.gamma(2.0, 0.7, size=4600) for _ in range(12)])
        model = ev.fit_threshold(series, tau=0.95)
        u = model.u_by_month[series.months - 1]
        rate = float(np.mean(series.values > u))
        assert 0.04 <= rate <= 0.06

    def test_quantile_cross_check(self):
        rng = np.random.default_rng(29)
        samples = [rng.random(500) * (m + 1) for m in range(12)]
        series = series_by_month(samples)
        model = ev.fit_threshold(series, tau=0.95)
        for m, x in enumerate(samples):
            xs = np.sort(x)
            j = int(np.ceil(xs.size * 0.95)) - 1
            gap = xs[min(j + 1, xs.size - 1)] - xs[max(j - 1, 0)]
            assert abs(model.u_by_month[m] - np.quantile(x, 0.95)) <= gap + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 0.95), st.lists(st.floats(-50, 50), min_size=1, max_size=30))
def test_pinball_nonnegative_and_zero_at_origin(tau, values):
    t = np.asarray(values)
    losses = pinball(t, tau)
    assert np.all(losses >= 0.0)
    assert pinball(np.array([0.0]), tau)[0] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(50, 130), st.sampled_from([0.5, 0.75, 0.9, 0.95]),
       st.booleans(), st.booleans())
def test_fit_is_the_exact_ald_mle(seed, n, tau, ties, flat):
    # months hold n, n + 1, ..., n + 11 values, so for tau = 0.5 or 0.75 some
    # months always have an integer n * tau and a flat likelihood stretch. With
    # flat, January's values are all equal: its loss is 0 and its scale floored
    # at the smallest positive double, below which the likelihood still grows
    rng = np.random.default_rng(seed)
    samples = [rng.gamma(2.0, 1.0, size=n + m) for m in range(12)]
    if ties:
        samples = [np.round(x, 1) for x in samples]
    if flat:
        samples[0] = np.full(n, 1.5)
    series = series_by_month(samples)
    model = ev.fit_threshold(series, tau=tau)
    for m, x in enumerate(samples):
        u_exact, zeta_exact = exact_ald_mle(x, tau)
        assert model.u_by_month[m] == u_exact
        assert np.exp(model.log_zeta_by_month[m]) == pytest.approx(zeta_exact, rel=1e-12)
    params = np.concatenate([model.u_by_month, model.log_zeta_by_month])
    best = ald_negloglik(params, series, tau)
    assert best == pytest.approx(-model.loglik, rel=1e-12)
    for j in range(24):
        for step in (-1e-3, -1e-6, 1e-6, 1e-3):
            if flat and j == 12 and step < 0:
                continue  # a smaller scale fits January better still: the floor is no optimum
            moved = params.copy()
            moved[j] += step
            assert ald_negloglik(moved, series, tau) >= best - 1e-10 * abs(best)


def test_integer_n_tau_takes_the_lower_knot():
    # 4,620 February days at tau = 0.95: n * tau = 4,389 exactly
    x = np.random.default_rng(1).permutation(np.arange(1.0, 4621.0))
    series = series_by_month([x] * 12)
    model = ev.fit_threshold(series, tau=0.95)
    assert np.all(model.u_by_month == 4389.0)
