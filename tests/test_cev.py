import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evtlite as ev
from conftest import (count_chains, dense_hit_probability, oracle_hit_fraction, oracle_working_negloglik,
                      sample_residuals, series_of, stack_cev, working_negloglik)
from evtlite.cev import CELL_WIDTH, Y_MAX, CEVModel, residual_law, silverman_bandwidth


def laplace_cdf(y):
    """Standard Laplace distribution function, the inverse of ev.laplace_quantile."""
    return np.where(y < 0.0, 0.5 * np.exp(y), 1.0 - 0.5 * np.exp(-y))


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
    series = series_of(ev.generate_run(spec, np.random.default_rng(303)), 1)
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

    def test_fit_cev_pair_floor(self):
        # 100 of 1000 Laplace quantiles lie above the 0.9 one, and the last starts no pair
        ls = ev.laplace_quantile((np.arange(1000) + 0.5) / 1000)
        with pytest.raises(RuntimeError, match="only 99 pairs exceed the threshold; need 100"):
            ev.fit_cev(ls)

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
    """Kernel-smoothed residual draws of the chain oracle."""

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
    return count_chains(stack_cev([model]), np.zeros(y0.size, dtype=np.int64), y0.ravel(),
                           target.ravel(), np.random.default_rng(seed), steps)


class TestSimulateChain:
    """The chain oracle: which chains exceed the target on two consecutive steps."""

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


def start_mass(start_floor, above):
    """P(start_floor + Exp(1) > above)."""
    return float(np.exp(min(0.0, start_floor - above)))


class TestResidualLaw:
    @pytest.mark.parametrize("bandwidth", [0.0, 0.05, 0.4])
    def test_cdf_and_expected_excess_match_the_kernel_mixture(self, bandwidth):
        from scipy.stats import norm
        r = np.random.default_rng(3).standard_normal(40) * 1.5
        cdf, excess = residual_law(make_cev(0.5, 0.1, r, bandwidth=bandwidth))
        z = np.linspace(-8.0, 8.0, 2001)
        d = z[:, None] - r
        if bandwidth == 0.0:
            want_f, want_u = np.mean(d >= 0.0, axis=1), np.mean(np.maximum(-d, 0.0), axis=1)
            tol_f, tol_u = 0.0, 1e-13
        else:
            s = -d / bandwidth  # E[(Z - z)+] of Z = r + h N is h (s Phi(s) + phi(s))
            want_f = np.mean(norm.cdf(d / bandwidth), axis=1)
            want_u = np.mean(bandwidth * (s * norm.cdf(s) + norm.pdf(s)), axis=1)
            tol_f, tol_u = 1e-4, 1e-4  # linear binning at h/20 and linear interpolation
        assert np.max(np.abs(cdf(z) - want_f)) <= tol_f
        assert np.max(np.abs(excess(z) - want_u)) <= tol_u
        assert cdf(np.array([-1e9, 1e9])).tolist() == [0.0, 1.0]
        assert excess(np.array([1e9]))[0] == 0.0


def assert_agrees_with_the_chain_oracle(beta0, beta1, residuals, bandwidth, pi, target, seed):
    """The fraction of 40,000 oracle chains that hit the target lies within 5 standard
    errors of P, widened by twice the quadrature error and, upwards only, by the mass
    the quadrature loses above its cells."""
    model = make_cev(beta0, beta1, residuals, bandwidth=bandwidth)
    a = -np.log(2 * pi)
    p, lost = ev.hit_probability(model, a, [target])
    coarse, _ = ev.hit_probability(model, a, [target], width=2 * CELL_WIDTH)
    n = 40_000
    got = oracle_hit_fraction(model, pi, target, n, seed=seed)

    def slack(q):
        return 5.0 * np.sqrt(max(q * (1.0 - q), 1.0 / n) / n) + 2.0 * abs(p[0] - coarse[0])
    high = min(p[0] + lost[0], 1.0)
    assert p[0] - slack(p[0]) <= got <= high + slack(high)


class TestHitProbability:
    """The quadrature of the chain kernel against exact answers and the chain oracle."""

    Q = ev.laplace_quantile(0.9)

    def test_independence_corner_is_exact(self):
        # beta0 = beta1 = 0: each step is an iid draw from {2, -1, 0.5}; with
        # target 1 a draw exceeds (2), ends the chain (-1) or does neither
        model, a, t = make_cev(0.0, 0.0, [2.0, -1.0, 0.5]), -np.log(2 * 0.05), 1.0
        above, below, want = start_mass(a, max(t, self.Q)), 0.0, 0.0
        for _ in range(30):
            want += above / 3.0
            above, below = below / 3.0, (above + below) / 3.0
        p, lost = ev.hit_probability(model, a, [t])
        assert p[0] == pytest.approx(want, abs=1e-12) and lost[0] <= 1e-11

    @pytest.mark.parametrize("pi, t", [(0.05, 3.0), (0.05, 1.0), (0.3, 3.0), (0.3, 1.0)])
    def test_held_chain_counts_its_start_above_the_target(self, pi, t):
        # beta0 = 1 with a zero residual holds a chain at its start, so it counts
        # exactly when it starts above both the target and the threshold: t = 1
        # lies below the threshold, and pi = 0.3 puts the start floor below it
        a = -np.log(2 * pi)
        p, _ = ev.hit_probability(make_cev(1.0, 0.0, [0.0]), a, [t])
        assert p[0] == pytest.approx(start_mass(a, max(t, self.Q)), abs=1e-12)

    def test_target_at_or_below_zero_counts_a_step_into_it(self):
        # Y' = Z from {-0.3, -1, 2}: with target -0.5 every start lies above it,
        # and a draw of -0.3 counts although the chain ends there; at target 0 only 2 counts
        a = -np.log(2 * 0.2)
        p, _ = ev.hit_probability(make_cev(0.0, 0.0, [-0.3, -1.0, 2.0]), a, [-0.5, 0.0])
        assert p == pytest.approx(start_mass(a, self.Q) * np.array([2.0, 1.0]) / 3.0, abs=1e-12)

    def test_vanishing_persistence_counts_two_draws_of_one_in_a_row(self):
        # Y' = beta0 Y + Z, Z from {0, 1}, with beta0 so small that beta0**2 Y underflows:
        # from a start above the target 0.5 the chain counts unless Z_1 = 0 and no two of
        # Z_2..Z_30 in a row are 1, which F(31) = 1,346,269 of the 2**29 strings avoid
        a = -np.log(2 * 0.25)
        p, _ = ev.hit_probability(make_cev(2.8405818881275877e-165, 0.0, [0.0, 1.0]), a, [0.5])
        assert p[0] == pytest.approx(start_mass(a, self.Q) * (1.0 - 1_346_269 / 2 ** 30), abs=1e-12)

    def test_start_below_the_threshold_never_counts(self):
        # no cell lies above a threshold of 40, so only the lost start mass could count
        p, lost = ev.hit_probability(make_cev(1.0, 0.0, [0.0], q=40.0), 3.0, [-10.0, 2.0])
        assert p.tolist() == [0.0, 0.0] and np.all(lost == start_mass(3.0, Y_MAX))

    def test_targets_are_independent_of_each_other(self):
        model = make_cev(0.6, 0.3, np.random.default_rng(1).standard_normal(30), bandwidth=0.3)
        both, _ = ev.hit_probability(model, 2.3, [2.5, 4.0])
        alone = [ev.hit_probability(model, 2.3, [t])[0][0] for t in (2.5, 4.0)]
        assert both == pytest.approx(alone, rel=1e-12)

    def test_narrow_kernel_moves_mass_within_a_cell(self):
        # beta0 = 1 and beta1 = -5: from y > 2 a step moves less than a cell, which
        # a midpoint rule would pin in place; the oracle draws the same chains
        model = make_cev(1.0, -5.0, np.linspace(-0.5, 2.0, 21))
        pi, t = 0.2, 3.15
        p, lost = ev.hit_probability(model, -np.log(2 * pi), [t])
        n = 200_000
        got = oracle_hit_fraction(model, pi, t, n, seed=5)
        assert abs(got - p[0]) <= 5.0 * np.sqrt(p[0] * (1.0 - p[0]) / n) + lost[0]

    @pytest.mark.parametrize("beta0, beta1, bandwidth", [(0.0, 0.96875, 0.0), (0.0, 0.96875, 0.3),
                                                         (1.0, 1.0 - 1e-6, 0.3), (0.5, -5.0, 0.3)])
    @pytest.mark.parametrize("cut", ["target", "threshold", "start"])
    def test_cut_at_the_smallest_double_keeps_p_finite(self, beta0, beta1, bandwidth, cut):
        # a cut at 5e-324 leaves a cell whose midpoint is 0 and whose edges' y**-beta1 overflows;
        # P and the lost mass stay finite, within the quadrature error of their values at 1e-300
        def run(v, width=CELL_WIDTH):
            model = make_cev(beta0, beta1, [-1.5, 0.0, 0.5, 2.0], bandwidth=bandwidth,
                             q=v if cut == "threshold" else self.Q)
            start = v if cut == "start" else -np.log(2 * 0.25)
            targets = [v if cut == "target" else 1.0, -2.0, 0.0, 2.0]
            return ev.hit_probability(model, start, targets, width)
        p, lost = run(5e-324)
        want, want_lost = run(1e-300)
        error = np.max(np.abs(want - run(1e-300, 2 * CELL_WIDTH)[0]))
        assert np.all(np.isfinite(p)) and np.all(np.isfinite(lost))
        assert np.max(np.abs(p - want)) <= error and np.max(np.abs(lost - want_lost)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(beta0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           beta1=st.one_of(st.sampled_from([-5.0, 0.0]), st.floats(-5.0, 1.0 - 1e-6)),
           residuals=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=50),
           bandwidth=st.one_of(st.just(0.0), st.floats(0.05, 1.0)), pi=st.floats(0.01, 0.3),
           targets=st.one_of(*(st.lists(st.one_of(st.floats(-1.0, 6.0), st.sampled_from([0.0, 31.0])),
                                         min_size=size, max_size=size) for size in (1, 12))))
    @example(beta0=0.5, beta1=-5.0, residuals=[-1.0, 0.5, 2.0], bandwidth=0.0, pi=0.25, targets=[-0.5, 0.0])
    @example(beta0=0.5, beta1=0.5, residuals=[-1.0, 0.5, 2.0], bandwidth=0.3, pi=0.25, targets=[2.0, 31.0])
    def test_block_products_match_the_dense_kernel(self, beta0, beta1, residuals, bandwidth, pi, targets):
        # the two examples are the corners of the blocks: every target at or below 0 puts
        # every cell above them all (top = 0, no mass below any target), and a target
        # above Y_MAX puts no cell above them all (top = cells, the kernel's full rows).
        # The forms add in another order (other matrix shapes, other BLAS blocking): at
        # twelve targets each reads up to about 1e-15 from a long-double run of the dense
        # steps, and they differ by up to 2.7e-15, so 1e-14 bounds their rounding
        model = make_cev(beta0, beta1, residuals, bandwidth=bandwidth)
        for width in (CELL_WIDTH, 2 * CELL_WIDTH):
            p, lost = ev.hit_probability(model, -np.log(2 * pi), targets, width)
            want, want_lost = dense_hit_probability(model, -np.log(2 * pi), targets, width)
            assert np.max(np.abs(p - want)) <= 1e-14 and np.max(np.abs(lost - want_lost)) <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(beta0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           beta1=st.one_of(st.sampled_from([-5.0, 0.0]), st.floats(-5.0, 1.0 - 1e-6)),
           residuals=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=50),
           bandwidth=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
           pi=st.floats(0.01, 0.3), target=st.floats(-1.0, 6.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(beta0=0.0, beta1=0.96875, residuals=[0.0], bandwidth=0.0, pi=0.25, target=5e-324, seed=0)
    @example(beta0=0.0, beta1=0.5625, residuals=[1.5, 0.0625], bandwidth=0.0, pi=0.25, target=1.0, seed=0)
    @example(beta0=2.8405818881275877e-165, beta1=0.0, residuals=[0.0, 1.0], bandwidth=0.0, pi=0.25,
             target=0.5, seed=0)
    def test_agrees_with_the_chain_oracle(self, beta0, beta1, residuals, bandwidth, pi, target, seed):
        assert_agrees_with_the_chain_oracle(beta0, beta1, residuals, bandwidth, pi, target, seed)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
    def test_deterministic_kernel_reads_low(self):
        # one residual at bandwidth 0 makes each step a fixed map, so no cell width converges:
        # P reads 0.353 at cells of 0.05 and 0.1, and the oracle 0.398-0.402 at seeds 0, 1
        # and 2, 13 to 15 of its standard errors above the bound's top, 0.365
        assert_agrees_with_the_chain_oracle(0.0625, -1.0, [0.25], 0.0, 0.25, 0.5, 0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
    def test_narrow_kernel_reads_high(self):
        # a positive but narrow bandwidth: two residuals at bandwidth 0.0625 and a slope
        # of 0.875 nearly fix each step's map, and P reads 0.7037 at cells of 0.05 and
        # of 0.1, so P less its slack, 0.0114, lies above the oracle's 0.6891 at seed 0
        # (0.6921 and 0.6916 at seeds 1 and 2)
        assert_agrees_with_the_chain_oracle(0.0, 0.875, [0.0, 2.0], 0.0625, 0.0625, 0.0625, 0)
