import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtlite as ev
from conftest import oracle_working_negloglik, working_negloglik
from evtlite.cev import CEVModel, laplace_cdf, sample_residuals, silverman_bandwidth, stack_cev


def make_cev(beta0, beta1, residuals, bandwidth=0.0, q=1.6094379124341003):
    residuals = np.asarray(residuals, dtype=float)
    return CEVModel(beta0=beta0, beta1=beta1, q_threshold=q, residuals=residuals,
                    kde_bandwidth=bandwidth, loglik=0.0)


def conditional_pairs(n, beta0, beta1, q_prob=0.9, seed=0):
    """Pairs (x, y) with x drawn from the Laplace tail above its q_prob quantile."""
    rng = np.random.default_rng(seed)
    q = ev.laplace_quantile(q_prob)
    x = ev.laplace_quantile(rng.uniform(q_prob, 1.0, size=n))
    y = beta0 * x + x ** beta1 * rng.standard_normal(n)
    return x, y, q


class TestLaplaceTransform:
    def test_median_maps_to_zero(self):
        assert ev.laplace_quantile(0.5) == 0.0

    def test_hand_inversion(self):
        assert ev.laplace_quantile(1.0 - np.exp(-1.0) / 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_quantile_inverse(self):
        ps = np.linspace(1e-6, 1.0 - 1e-6, 500)
        assert np.max(np.abs(laplace_cdf(ev.laplace_quantile(ps)) - ps)) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ev.laplace_quantile(0.0)
        with pytest.raises(ValueError):
            ev.laplace_quantile(1.0)


@pytest.fixture(scope="module")
def homogeneous_fit():
    """Month-homogeneous synthetic run, so the pooled bulk is month-exact."""
    spec = ev.SynthSpec(n_runs=1, n_days=54750, n_sites=4, order_k=1, pi=0.05,
                        u0_by_month=np.full(12, 1.5), sigma_by_month=np.full(12, 0.6), xi=0.05)
    run = ev.generate_run(spec, 1, np.random.default_rng(303))
    series = ev.spatial_order_statistic(run, 1)
    tm = ev.fit_threshold(series)
    cs = ev.run_decluster(series, tm, 3)
    gp = ev.fit_gp(cs, tm, "constant")
    mixed = ev.build_mixed(series, gp, pi=cs.pi_star_hat)
    return series, mixed


class TestToLaplace:
    def test_distributional_oracle(self, homogeneous_fit):
        series, mixed = homogeneous_fit
        v = ev.to_laplace(mixed, series.values, series.months)
        skew = float(np.mean((v - v.mean()) ** 3) / np.std(v) ** 3)
        assert abs(skew) < 0.1
        assert float(np.quantile(v, 0.9)) == pytest.approx(-np.log(0.2), abs=0.1)

    def test_monotone_within_month(self, homogeneous_fit):
        series, mixed = homogeneous_fit
        v = ev.to_laplace(mixed, series.values, series.months)
        mask = series.months == 5
        order = np.argsort(series.values[mask])
        assert np.all(np.diff(v[mask][order]) >= 0.0)

    def test_round_trip_recovers_raw_values(self, homogeneous_fit):
        series, mixed = homogeneous_fit
        p = laplace_cdf(ev.to_laplace(mixed, series.values, series.months))
        clipped = (p <= 1e-10) | (p >= 1.0 - 1e-10)
        back = np.array([
            ev.mixed_quantile(mixed, pi, int(m))
            for pi, m in zip(p[~clipped], series.months[~clipped])
        ])
        raw = series.values[~clipped]
        rel = np.abs(back - raw) / np.maximum(np.abs(raw), 1e-12)
        assert float(rel.max()) < 1e-6


class TestFitCev:
    def test_parameter_recovery(self):
        x, y, q = conditional_pairs(20000, beta0=0.4, beta1=0.2, seed=8)
        model = ev.fit_conditional_pairs(x, y, q)
        assert 0.35 <= model.beta0 <= 0.45
        assert 0.1 <= model.beta1 <= 0.3

    def test_residual_reconstruction_bitwise(self):
        x, y, q = conditional_pairs(5000, beta0=0.3, beta1=0.1, seed=2)
        model = ev.fit_conditional_pairs(x, y, q)
        recomputed = (y - model.beta0 * x) / x ** model.beta1
        assert np.array_equal(recomputed, model.residuals)

    def test_comonotone_corner(self):
        rng = np.random.default_rng(4)
        x = ev.laplace_quantile(rng.uniform(0.9, 1.0, size=3000))
        model = ev.fit_conditional_pairs(x, x.copy(), ev.laplace_quantile(0.9))
        assert model.beta0 >= 0.98
        assert float(np.std(model.residuals)) < 0.05
        assert np.isfinite(model.loglik)

    def test_independent_pairs_corner(self):
        rng = np.random.default_rng(6)
        x = ev.laplace_quantile(rng.uniform(0.9, 1.0, size=8000))
        y = ev.laplace_quantile(rng.uniform(1e-9, 1.0 - 1e-9, size=8000))
        model = ev.fit_conditional_pairs(x, y, ev.laplace_quantile(0.9))
        assert model.beta0 <= 0.1
        assert model.beta1 < 1.0

    def test_negative_dependence_clamps_beta0(self):
        x, y, q = conditional_pairs(4000, beta0=-0.5, beta1=0.2, seed=9)
        model = ev.fit_conditional_pairs(x, y, q)
        assert model.beta0 == 0.0 and model.at_bound == ("beta0",)

    def test_fit_cev_pair_floor(self, homogeneous_fit):
        series, mixed = homogeneous_fit
        ls = ev.to_laplace(mixed, series.values, series.months)
        with pytest.raises(RuntimeError, match="pairs"):
            ev.fit_cev(ls, q_prob=0.90, min_pairs=10 ** 9)
        with pytest.raises(ValueError):
            ev.fit_cev(ls, q_prob=0.4)

    def test_ci_width_shrinks_with_sample_size(self):
        def spread(n, k=24):
            fits = []
            for rep in range(k):
                x, y, q = conditional_pairs(n, beta0=0.4, beta1=0.2, seed=1000 + rep)
                fits.append(ev.fit_conditional_pairs(x, y, q).beta0)
            return float(np.std(fits))

        ratio = spread(500) / spread(2000)
        assert 1.3 <= ratio <= 3.2  # 4x the sample, expect roughly half the spread


@pytest.mark.parametrize("seed, beta0, beta1", [
    (0, 0.4, 0.2), (1, 0.8, -0.5), (2, 0.1, 0.6), (3, 0.6, 0.0),
    (4, -0.3, 0.3),  # negative dependence: beta0 clamped to 0
])
def test_profiled_fit_not_worse_than_nelder_mead(seed, beta0, beta1):
    x, y, q = conditional_pairs(1500, beta0=beta0, beta1=beta1, seed=seed)
    model = ev.fit_conditional_pairs(x, y, q)
    r = model.residuals
    # at (beta0, beta1) the nuisance MLEs are the residual mean and standard deviation
    nll = working_negloglik((model.beta0, model.beta1, r.mean(), np.log(r.std())), x, y)
    assert nll == pytest.approx(-model.loglik, rel=1e-9)
    assert nll <= oracle_working_negloglik(x, y) + 1e-6
    assert (model.beta0 == 0.0) == (beta0 < 0.0)


def draws(model, n, seed):
    return sample_residuals(stack_cev([model]), np.zeros(n, dtype=np.int64),
                               np.random.default_rng(seed))


class TestSampleResidual:
    """Kernel-smoothed residual draws of the batched chain stepper."""

    def test_zero_bandwidth_returns_stored_value(self):
        model = make_cev(0.5, 0.1, [1.25, -0.75, 3.5])
        assert set(draws(model, 50, 0).tolist()) <= {1.25, -0.75, 3.5}

    def test_single_residual(self):
        assert np.all(draws(make_cev(0.5, 0.1, [2.5]), 10, 1) == 2.5)

    def test_variance_convolution_identity(self):
        rng = np.random.default_rng(99)
        residuals = rng.standard_normal(400) * 1.3
        h = 0.4
        model = make_cev(0.5, 0.1, residuals, bandwidth=h)
        expected = float(np.var(residuals)) + h ** 2
        assert float(np.var(draws(model, 10 ** 6, 100))) == pytest.approx(expected, rel=0.02)

    def test_empty_pool_rejected(self):
        # the model refuses it, so no stack of models holds one
        with pytest.raises(ValueError, match="residual pool must be a non-empty"):
            make_cev(0.5, 0.1, [])

    def test_each_chain_draws_from_its_own_pool(self):
        models = stack_cev([make_cev(0.5, 0.1, [1.0, 2.0]), make_cev(0.5, 0.1, [-3.0]),
                            make_cev(0.5, 0.1, [7.0, 8.0, 9.0], bandwidth=0.0)])
        j = np.repeat([0, 1, 2], 200)
        z = sample_residuals(models, j, np.random.default_rng(4))
        assert set(z[j == 0]) == {1.0, 2.0}
        assert set(z[j == 1]) == {-3.0}
        assert set(z[j == 2]) == {7.0, 8.0, 9.0}


def counted(model, y0, target, steps=30, seed=0):
    """count_chains for chains of one model."""
    y0, target = np.broadcast_arrays(np.asarray(y0, dtype=float), np.asarray(target, dtype=float))
    return ev.count_chains(stack_cev([model]), np.zeros(y0.size, dtype=np.int64), y0.ravel(),
                           target.ravel(), np.random.default_rng(seed), steps)


class TestSimulateChain:
    """The batched stepper: which chains exceed the target on two consecutive steps."""

    def test_requires_start_above_threshold(self):
        # beta0 = 1 holds a chain at its start; only the start above q is propagated
        model = make_cev(1.0, 0.0, [0.0])
        assert counted(model, [1.0, 4.0], 0.5).tolist() == [False, True]

    def test_independence_corner_is_iid_residuals(self):
        # beta0 = beta1 = 0: Y_k = Z_k, an iid draw from {2, -1, 0.5}. With
        # target 1 a draw exceeds (2), ends the chain (-1) or does neither.
        # Exact counting probability by recursion over the steps.
        model = make_cev(0.0, 0.0, [2.0, -1.0, 0.5])
        steps = 6
        above, below, p_count = 1.0, 0.0, 0.0  # P(live, last value above / not above)
        for _ in range(steps):
            p_count += above / 3.0
            above, below = below / 3.0, (above + below) / 3.0
        got = counted(model, np.full(200_000, 4.0), 1.0, steps=steps, seed=12)
        se = np.sqrt(p_count * (1.0 - p_count) / got.size)
        assert abs(got.mean() - p_count) <= 5.0 * se

    def test_degenerate_persistence(self):
        model = make_cev(1.0, 0.05, [0.0])
        assert counted(model, 4.0, [3.9, 4.0], steps=10).tolist() == [True, False]

    def test_halving_chain(self):
        # 4, 2, 1, 0.5, ...: two consecutive values above the target only below 2
        model = make_cev(0.5, 0.0, [0.0], q=1.0)
        assert counted(model, 4.0, [1.5, 2.0, 0.9, 0.4], steps=4).tolist() == [True, False, True, True]
        assert counted(model, 4.0, 1.5, steps=0).tolist() == [False]

    def test_truncation_at_nonpositive(self):
        # 4 -> 2 + Z, Z in {-10, 20}: a chain at -8 ends, so only Z = 20 counts
        # (without the end, -8 -> -4 + 20 -> 8 + 20 would count as well)
        model = make_cev(0.5, 0.0, [-10.0, 20.0], q=1.0)
        got = counted(model, np.full(20_000, 4.0), 3.0, seed=3)
        assert abs(got.mean() - 0.5) <= 5.0 * np.sqrt(0.25 / got.size)

    def test_seed_reproducibility(self):
        rng_res = np.random.default_rng(55)
        model = make_cev(0.6, 0.3, rng_res.standard_normal(100), bandwidth=0.2)
        y0 = np.linspace(2.0, 6.0, 500)
        a = counted(model, y0, 3.0, seed=777)
        b = counted(model, y0, 3.0, seed=777)
        assert np.array_equal(a, b) and 0 < a.sum() < a.size


class TestSilverman:
    def test_formula(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(200)
        sd = float(np.std(x))
        iqr = float(np.subtract(*np.percentile(x, [75, 25])))
        expected = 0.9 * min(sd, iqr / 1.34) * 200 ** -0.2
        assert silverman_bandwidth(x) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_sample(self):
        assert silverman_bandwidth(np.full(50, 2.0)) == 0.0
        assert silverman_bandwidth(np.array([1.0])) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-9, 1.0 - 1e-9))
def test_laplace_round_trip_property(p):
    assert laplace_cdf(ev.laplace_quantile(p)) == pytest.approx(p, abs=1e-12)
