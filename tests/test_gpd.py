import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtlite as ev
from conftest import (constant_threshold_model, gp_group_negloglik, make_cluster_set,
                      oracle_gp_negloglik, series_of)
from evtlite.gpd import MIN_MONTH_MAXIMA


class TestGpCdf:
    def test_zero_excess(self):
        assert ev.gp_cdf(0.0, 1.0, 0.5) == 0.0

    def test_hand_value(self):
        assert ev.gp_cdf(1.0, 1.0, 0.5) == pytest.approx(1.0 - 1.5 ** -2, abs=1e-12)

    def test_matches_exponential_branch_at_tiny_xi(self):
        target = 1.0 - np.exp(-1.0)
        assert ev.gp_cdf(1.0, 1.0, 1e-12) == pytest.approx(target, abs=1e-9)

    def test_branch_continuity_contract(self):
        for xi in (-1e-8, -1e-9, 1e-9, 1e-8):
            for z in (0.3, 1.0, 5.0):
                assert ev.gp_cdf(z, 2.0, xi) == pytest.approx(ev.gp_cdf(z, 2.0, 0.0), abs=1e-7)

    def test_clamps_beyond_negative_xi_endpoint(self):
        # support ends at sigma / |xi| = 2.0
        assert ev.gp_cdf(3.0, 1.0, -0.5) == 1.0

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            ev.gp_cdf(1.0, 0.0, 0.1)


class TestGpQuantile:
    def test_zero(self):
        assert ev.gp_quantile(0.0, 2.0, 0.3) == 0.0

    def test_round_trip_hand_value(self):
        p = 1.0 - 1.5 ** -2
        assert ev.gp_quantile(p, 1.0, 0.5) == pytest.approx(1.0, abs=1e-9)

    def test_exponential_quantile(self):
        assert ev.gp_quantile(1.0 - np.exp(-1.0), 2.0, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_p_one_rejected(self):
        with pytest.raises(ValueError):
            ev.gp_quantile(1.0, 1.0, 0.1)

    def test_mutual_inverse_grid(self):
        ps = np.linspace(0.0, 0.9999, 250)
        for xi in (-0.3, 0.0, 0.2, 1.0):
            z = ev.gp_quantile(ps, 1.7, xi)
            back = ev.gp_cdf(z, 1.7, xi)
            assert np.max(np.abs(back - ps)) < 1e-9


class TestFitGp:
    def test_pooled_recovery(self):
        rng = np.random.default_rng(42)
        z = ev.gp_quantile(rng.random(20000), 2.0, 0.1)
        sigma, xi, loglik = ev.fit_gp_excesses(z)
        assert 1.93 <= sigma <= 2.07
        assert 0.07 <= xi <= 0.13
        assert np.isfinite(loglik)

    def test_constant_mode_recovery_through_months(self):
        rng = np.random.default_rng(7)
        months = rng.integers(1, 13, size=20000).astype(np.int64)
        z = ev.gp_quantile(rng.random(20000), 2.0, 0.1)
        cs = make_cluster_set(z, months, n_days=400000)
        gp = ev.fit_gp(cs, constant_threshold_model(0.0), "constant")
        assert float(np.mean(gp.sigma_by_month)) == pytest.approx(2.0, abs=0.07)
        assert 0.07 <= gp.xi_by_month[0] <= 0.13

    def test_by_month_scale_ratio(self):
        rng = np.random.default_rng(13)
        per_month = 2000
        maxima, months = [], []
        for m in range(1, 13):
            sigma = 3.0 if m == 6 else 1.0
            maxima.append(ev.gp_quantile(rng.random(per_month), sigma, 0.0))
            months.append(np.full(per_month, m, dtype=np.int64))
        cs = make_cluster_set(np.concatenate(maxima), np.concatenate(months), n_days=500000)
        gp = ev.fit_gp(cs, constant_threshold_model(0.0), "by_month")
        ratio = gp.sigma_by_month[5] / gp.sigma_by_month[0]
        assert 2.7 <= ratio <= 3.3

    def test_negative_shape_support_covers_training_data(self):
        rng = np.random.default_rng(55)
        per_month = 400
        maxima, months = [], []
        for m in range(1, 13):
            maxima.append(ev.gp_quantile(rng.random(per_month), 1.0, -0.3))
            months.append(np.full(per_month, m, dtype=np.int64))
        z = np.concatenate(maxima)
        cs = make_cluster_set(z, np.concatenate(months), n_days=100000)
        gp = ev.fit_gp(cs, constant_threshold_model(0.0), "by_month")
        for m in range(12):
            xi_m = gp.xi_by_month[m]
            assert xi_m < 0.0
            endpoint = gp.sigma_by_month[m] / -xi_m
            assert endpoint > z[np.concatenate(months) == m + 1].max()

    def test_degenerate_constant_excesses_rejected(self):
        cs = make_cluster_set(np.full(100, 2.5), np.tile(np.arange(1, 13), 10)[:100])
        with pytest.raises(RuntimeError, match="degenerate"):
            ev.fit_gp(cs, constant_threshold_model(0.0), "constant")

    def test_by_month_names_a_degenerate_month(self):
        rng = np.random.default_rng(4)
        months = np.repeat(np.arange(1, 13), 20)
        z = ev.gp_quantile(rng.random(months.size), 1.0, 0.1)
        z[months == 5] = 1.5
        cs = make_cluster_set(z, months)
        with pytest.raises(RuntimeError, match="month 5: degenerate"):
            ev.fit_gp(cs, constant_threshold_model(0.0), "by_month")
        ev.fit_gp(cs, constant_threshold_model(0.0), "constant")  # a shared shape pools the months

    def test_constant_shape_needs_twelve_equal_month_shapes(self):
        tm = constant_threshold_model(0.0)
        xi = np.full(12, 0.1)
        xi[4] = 0.2
        with pytest.raises(ValueError, match="twelve equal month shapes"):
            ev.GPModel(np.zeros(12), "constant", xi, tm, 0.0)
        assert ev.GPModel(np.zeros(12), "by_month", xi, tm, 0.0).xi_by_month[4] == 0.2
        with pytest.raises(ValueError, match="must be finite"):  # NaN is refused as non-finite first
            ev.GPModel(np.zeros(12), "constant", np.full(12, np.nan), tm, 0.0)

    def test_by_month_floor(self):
        assert MIN_MONTH_MAXIMA == 10
        cs = make_cluster_set(np.linspace(1, 2, 24), np.tile(np.arange(1, 13), 2))
        with pytest.raises(RuntimeError, match="fewer than"):
            ev.fit_gp(cs, constant_threshold_model(0.0), "by_month")
        months = np.repeat(np.arange(1, 13), MIN_MONTH_MAXIMA)
        z = np.tile(np.linspace(0.1, 1.0, MIN_MONTH_MAXIMA), 12)
        ev.fit_gp(make_cluster_set(z, months), constant_threshold_model(0.0), "by_month")
        cs = make_cluster_set(z[1:], months[1:])
        with pytest.raises(RuntimeError, match=r"months \[1\] have fewer than 10 cluster maxima"):
            ev.fit_gp(cs, constant_threshold_model(0.0), "by_month")

    def test_local_optimum_property(self):
        rng = np.random.default_rng(3)
        months = rng.integers(1, 13, size=3000).astype(np.int64)
        z = ev.gp_quantile(rng.random(3000), 1.5, 0.2)
        cs = make_cluster_set(z, months, n_days=60000)
        tm = constant_threshold_model(0.0)
        gp = ev.fit_gp(cs, tm, "constant")
        groups = [z[months == m] for m in range(1, 13)]

        def nll(log_sigma, xi):
            return gp_group_negloglik(groups, log_sigma, xi)

        best = nll(gp.log_sigma_by_month, gp.xi_by_month[0])
        for _ in range(50):
            perturbed = gp.log_sigma_by_month + 0.05 * rng.standard_normal(12)
            xi_p = float(np.clip(gp.xi_by_month[0] + 0.05 * rng.standard_normal(), -0.9, 2.0))
            assert nll(perturbed, xi_p) >= best - 1e-9

    def test_shape_beyond_the_box_is_reported(self):
        # a Pareto sample with xi = 3 has its likelihood maximum beyond XI_MAX = 2
        rng = np.random.default_rng(8)
        months = np.tile(np.arange(1, 13), 50)
        cs = make_cluster_set(ev.gp_quantile(rng.random(600), 1.0, 3.0), months, n_days=10 ** 5)
        tm = constant_threshold_model(0.0)
        gp = ev.fit_gp(cs, tm, "constant")
        assert gp.xi_by_month[0] == 2.0 and gp.at_bound == ("xi",)
        by_month = ev.fit_gp(cs, tm, "by_month")
        edge = np.flatnonzero(by_month.xi_by_month == 2.0) + 1
        assert edge.size > 0 and by_month.at_bound == tuple(f"xi[{m}]" for m in edge)
        interior = ev.GPModel(np.zeros(12), "constant", np.full(12, 0.15), tm, 0.0)
        assert interior.at_bound == ()

    def test_one_month_on_the_box_edge_is_the_one_reported(self):
        # month 5 is a Pareto sample with xi = 3, the others have xi = 0.1: the months
        # share one batched profile search, and each stops at its own optimum
        rng = np.random.default_rng(8)
        months = np.repeat(np.arange(1, 13), 200)
        z = ev.gp_quantile(rng.random(months.size), 1.0, np.where(months == 5, 3.0, 0.1))
        gp = ev.fit_gp(make_cluster_set(z, months, n_days=10 ** 5), constant_threshold_model(0.0), "by_month")
        assert gp.at_bound == ("xi[5]",)
        assert gp.xi_by_month[4] == 2.0 and np.all(np.abs(np.delete(gp.xi_by_month, 4) - 0.1) < 0.5)


def gp_month_groups(seed, xi):
    """12 GP excess samples of 20-59 values, scales 0.5-2.0, one shape xi."""
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.5, 2.0, 12)
    sizes = rng.integers(20, 60, 12)
    groups = [ev.gp_quantile(rng.random(n), s, xi) for s, n in zip(sigma, sizes)]
    cs = make_cluster_set(np.concatenate(groups), np.repeat(np.arange(1, 13), sizes), n_days=10 ** 5)
    return groups, cs


ORACLE_CASES = [(0, -0.3), (1, -0.05), (2, 0.0), (3, 0.2), (4, 0.6)]


class TestProfiledFitAgainstOracle:
    """The profiled GP fits reach at least the multi-start Nelder-Mead optimum."""

    @pytest.mark.parametrize("seed, xi", ORACLE_CASES)
    def test_constant_shape(self, seed, xi):
        groups, cs = gp_month_groups(seed, xi)
        gp = ev.fit_gp(cs, constant_threshold_model(0.0), "constant")
        nll = gp_group_negloglik(groups, gp.log_sigma_by_month, gp.xi_by_month[0])
        assert nll == pytest.approx(-gp.loglik, rel=1e-12)
        assert nll <= oracle_gp_negloglik(groups) + 1e-6

    @pytest.mark.parametrize("seed, xi", ORACLE_CASES)
    def test_by_month(self, seed, xi):
        groups, cs = gp_month_groups(seed, xi)
        gp = ev.fit_gp(cs, constant_threshold_model(0.0), "by_month")
        nll = [gp_group_negloglik([z], [ls], x)
               for z, ls, x in zip(groups, gp.log_sigma_by_month, gp.xi_by_month)]
        assert sum(nll) == pytest.approx(-gp.loglik, rel=1e-12)
        for z, month_nll in zip(groups, nll):
            assert month_nll <= oracle_gp_negloglik([z]) + 1e-6


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(101)
    spec = ev.SynthSpec(n_runs=1, n_days=36500, n_sites=4, order_k=1, pi=0.05,
                        u0_by_month=np.linspace(1.0, 2.0, 12),
                        sigma_by_month=np.full(12, 0.5), xi=0.1)
    series = series_of(ev.generate_run(spec, rng), 1)
    tm = ev.fit_threshold(series)
    cs = ev.run_decluster(series, tm, 3)
    gp = ev.fit_gp(cs, tm, "constant")
    return series, tm, cs, gp, ev.build_mixed(series, gp, pi=cs.pi_star_hat)


class TestMixedDistribution:
    def test_value_at_threshold_is_one_minus_pi(self, fitted):
        _, tm, _, _, mixed = fitted
        for m in range(1, 13):
            assert ev.mixed_cdf(mixed, tm.u_by_month[m - 1], m) == 1.0 - mixed.pi

    def test_tends_to_one(self, fitted):
        _, _, _, _, mixed = fitted
        assert ev.mixed_cdf(mixed, 1e9, 6) == pytest.approx(1.0, abs=1e-12)

    def test_median_tail_plug_in(self, fitted):
        _, tm, _, gp, mixed = fitted
        m = 4
        y = tm.u_by_month[m - 1] + ev.gp_quantile(0.5, gp.sigma_by_month[m - 1], gp.xi_by_month[m - 1])
        assert ev.mixed_cdf(mixed, y, m) == pytest.approx(1.0 - mixed.pi / 2.0, abs=1e-12)

    def test_monotone_on_grid(self, fitted):
        series, _, _, _, mixed = fitted
        lo, hi = float(series.values.min()), float(series.values.max()) * 1.5
        grid = np.linspace(lo, hi, 10_000)
        for m in range(1, 13):
            vals = ev.mixed_cdf(mixed, grid, m)
            assert np.all(np.diff(vals) >= 0.0)

    def test_quantile_at_one_minus_pi(self, fitted):
        _, tm, _, _, mixed = fitted
        for m in (1, 7, 12):
            assert ev.mixed_quantile(mixed, 1.0 - mixed.pi, m) == pytest.approx(tm.u_by_month[m - 1])

    def test_round_trip_above_threshold(self, fitted):
        _, _, _, _, mixed = fitted
        for m in (2, 8):
            for p in np.linspace(1.0 - mixed.pi + 1e-6, 1.0 - 1e-9, 40):
                y = ev.mixed_quantile(mixed, p, m)
                assert ev.mixed_cdf(mixed, y, m) == pytest.approx(p, abs=1e-9)

    def test_bulk_median(self, fitted):
        series, _, _, _, mixed = fitted
        got = ev.mixed_quantile(mixed, 0.5, 6)
        assert got == float(np.quantile(series.values, 0.5, method="inverted_cdf"))
        # any sample median convention agrees to within one inter-point gap
        assert got == pytest.approx(float(np.median(series.values)), abs=1e-3)

    def test_monthly_bulk_variant(self, fitted):
        series, tm, cs, gp, _ = fitted
        mixed = ev.build_mixed(series, gp, pi=cs.pi_star_hat, month_conditional_bulk=True)
        grid = np.linspace(0.0, float(series.values.max()) * 1.2, 2000)
        for m in (1, 12):
            vals = ev.mixed_cdf(mixed, grid, m)
            assert np.all(np.diff(vals) >= 0.0)
            assert ev.mixed_cdf(mixed, tm.u_by_month[m - 1], m) == 1.0 - mixed.pi

    @pytest.mark.parametrize("monthly_bulk", [False, True])
    def test_month_array_equals_scalar_months_bit_for_bit(self, fitted, monthly_bulk):
        series, tm, cs, _, _ = fitted
        # a scale and a shape per month, with the exponential branch (xi = 0) and a
        # negative shape whose support ends below some of the points
        xi = np.linspace(-0.3, 0.4, 12)
        xi[5] = 0.0
        gp = ev.GPModel(np.log(np.linspace(0.3, 0.9, 12)), "by_month", xi, tm, 0.0)
        mixed = ev.build_mixed(series, gp, pi=cs.pi_star_hat, month_conditional_bulk=monthly_bulk)
        u = tm.u_by_month
        offsets = np.array([-1.0, -0.2, -1e-12, 0.0, 1e-12, 0.1, 0.8, 3.0])
        rng = np.random.default_rng(8)
        order = rng.permutation(12 * offsets.size)
        months = np.repeat(np.arange(1, 13), offsets.size)[order]
        y = (np.repeat(u, offsets.size) + np.tile(offsets, 12))[order]
        days = rng.choice(series.n_days, 3000, replace=False)
        for values, month in ((y, months), (series.values[days], series.months[days])):
            expected = np.array([ev.mixed_cdf(mixed, v, m) for v, m in zip(values, month)])
            assert ev.mixed_cdf(mixed, values, month).tobytes() == expected.tobytes()
        tail = y >= u[months - 1]
        expected = np.array([1.0 - mixed.pi * (1.0 - ev.gp_cdf(v - u[m - 1], gp.sigma_by_month[m - 1], xi[m - 1]))
                             for v, m in zip(y[tail], months[tail])])
        assert ev.mixed_cdf(mixed, y, months)[tail].tobytes() == expected.tobytes()
        expected = np.array([ev.mixed_cdf(mixed, 3.0, m) for m in range(1, 13)])
        assert ev.mixed_cdf(mixed, 3.0, np.arange(1, 13)).tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="1..12"):
            ev.mixed_cdf(mixed, y, np.where(months == 7, 13, months))


class TestQqDiagnostics:
    def test_single_point(self):
        cs = make_cluster_set([1.5], [3])
        tm = constant_threshold_model(0.0)
        gp = ev.GPModel(np.zeros(12), "constant", np.full(12, 0.0), tm, 0.0)
        qq = ev.qq_exponential(gp, cs)
        assert qq.shape == (1, 2)
        assert qq[0, 0] == pytest.approx(-np.log(1.0 - 0.5))

    def test_well_specified_within_envelope(self):
        rng = np.random.default_rng(2024)
        months = rng.integers(1, 13, size=400).astype(np.int64)
        z = ev.gp_quantile(rng.random(400), 1.2, 0.15)
        cs = make_cluster_set(z, months)
        tm = constant_threshold_model(0.0)
        gp = ev.GPModel(np.full(12, np.log(1.2)), "constant", np.full(12, 0.15), tm, 0.0)
        qq = ev.qq_exponential(gp, cs)
        env = ev.qq_envelope(cs.n_clusters)
        outside = np.mean((qq[:, 1] < env[:, 1]) | (qq[:, 1] > env[:, 2]))
        assert outside <= 0.05
        assert np.all(env[:, 1] <= env[:, 2])

    @pytest.mark.parametrize("n", [1, 2, 600])
    def test_envelope_draws_the_fixed_stream(self, n):
        # the band of QQ_SAMPLES sorted Exp(1) samples from default_rng(0), written out
        sims = np.sort(-np.log1p(-np.random.default_rng(0).random((200, n))), axis=1)
        alpha = 1.0 - 0.95
        want = np.column_stack([-np.log1p(-np.arange(1, n + 1) / (n + 1.0)), np.quantile(sims, alpha / 2.0, axis=0),
                                np.quantile(sims, 1.0 - alpha / 2.0, axis=0)])
        assert ev.gpd.QQ_SAMPLES == 200 and ev.gpd.QQ_LEVEL == 0.95
        assert ev.qq_envelope(n).tobytes() == want.tobytes()

    def test_misspecified_heavy_tail_departs_upwards(self):
        rng = np.random.default_rng(77)
        months = rng.integers(1, 13, size=2000).astype(np.int64)
        z = ev.gp_quantile(rng.random(2000), 1.0, 0.4)
        cs = make_cluster_set(z, months)
        tm = constant_threshold_model(0.0)
        # force an exponential fit: scale at the exponential MLE, shape zero
        gp = ev.GPModel(np.full(12, np.log(z.mean())), "constant", np.full(12, 0.0), tm, 0.0)
        qq = ev.qq_exponential(gp, cs)
        top = qq[-5:]
        assert np.all(top[:, 1] > top[:, 0])


@settings(max_examples=120, deadline=None)
@given(st.floats(0.0, 0.999), st.floats(0.05, 5.0), st.floats(-0.85, 1.9))
def test_quantile_cdf_round_trip_property(p, sigma, xi):
    z = ev.gp_quantile(p, sigma, xi)
    assert z >= 0.0
    assert ev.gp_cdf(z, sigma, xi) == pytest.approx(p, abs=1e-8)
