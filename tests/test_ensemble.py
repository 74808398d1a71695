import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom, ks_2samp

import evtlite as ev
from conftest import (chain_starts, count_chains, daily_marginal_count, make_marginal_emulator, series_of,
                      stack_cev)
from evtlite.cev import CELL_WIDTH, PROB_CLIP, CEVModel
from evtlite.ensemble import ChainLaw, MarginalSampler, law_estimate


def with_cev(emulator, beta0, beta1, residuals, bandwidth=0.0, q=None):
    q_thr = ev.laplace_quantile(0.9) if q is None else q
    cev = CEVModel(beta0=beta0, beta1=beta1, q_threshold=q_thr,
                   residuals=np.asarray(residuals, dtype=float),
                   kde_bandwidth=bandwidth, loglik=0.0)
    return dataclasses.replace(emulator, question="q3", cev_model=cev)


class TestCombineRates:
    def _emulator_with(self, pi_star, theta, run_id=1):
        em = make_marginal_emulator(run_id=run_id)
        cs = dataclasses.replace(em.cluster_set, pi_star_hat=pi_star, theta_hat=theta)
        return dataclasses.replace(em, cluster_set=cs)

    def test_mean_of_rates(self):
        ems = [self._emulator_with(p, 0.8, run_id=i + 1)
               for i, p in enumerate([0.04, 0.04, 0.06, 0.06])]
        combined = ev.combine_rates(ems)
        assert combined.pi_hat == pytest.approx(0.05)
        assert combined.theta_hat == pytest.approx(0.8)

    def test_single_run(self):
        combined = ev.combine_rates([self._emulator_with(0.037, 0.61)])
        assert combined.pi_hat == pytest.approx(0.037)
        assert combined.theta_hat == pytest.approx(0.61)

    def test_all_theta_one(self):
        ems = [self._emulator_with(0.05, 1.0, run_id=i + 1) for i in range(3)]
        assert ev.combine_rates(ems).theta_hat == 1.0

    def test_nothing_to_combine(self):
        with pytest.raises(ValueError, match="nothing to combine"):
            ev.combine_rates([])

    def test_emulators_of_other_question_or_order_statistic_refused(self):
        # each question reduces a run to its own order statistic, so they count different events
        ref = self._emulator_with(0.05, 0.9)
        other_question = dataclasses.replace(ref, run_id=2, question="q2")
        with pytest.raises(ValueError, match=r"emulator 2, run 2 \(question q2, k = 1, 1000 days\)"):
            ev.combine_rates([ref, other_question])
        other_k = dataclasses.replace(ref, run_id=2, order_k=3)
        with pytest.raises(ValueError, match=r"^b\.json \(question q1, k = 3, 1000 days\) does not match "
                                             r"a\.json \(question q1, k = 1, 1000 days\)"):
            ev.combine_rates([ref, other_k], names=["a.json", "b.json"])

    def test_emulators_of_other_length_or_calendar_refused(self):
        ref = make_marginal_emulator(n_days=1000)
        longer = make_marginal_emulator(n_days=1200, run_id=2)
        with pytest.raises(ValueError, match=r"emulator 2, run 2 \(question q1, k = 1, 1200 days\) does not "
                                             r"match emulator 1, run 1 \(question q1, k = 1, 1000 days\)"):
            ev.combine_rates([ref, longer])
        calendar = ev.Calendar((30,) * 11 + (31,))
        shifted = dataclasses.replace(ref, run_id=3, months=calendar.months_for(1000))
        with pytest.raises(ValueError, match="length or calendar"):
            ev.combine_rates([ref, ref, shifted])


def month_varying_emulator(u, sigma, xi, n_days):
    """Hand-set emulator whose threshold and GP parameters differ by month."""
    em = make_marginal_emulator(n_days=n_days)
    tm = dataclasses.replace(em.threshold_model, u_by_month=np.asarray(u, dtype=float))
    gp = ev.GPModel(log_sigma_by_month=np.log(sigma), shape_mode="by_month",
                    xi_by_month=np.asarray(xi, dtype=float), threshold_model=tm, loglik=0.0)
    return dataclasses.replace(em, threshold_model=tm, gp_model=gp,
                               mixed=dataclasses.replace(em.mixed, gp=gp))


class TestSimulateMarginalRun:
    """The exact law of the marginal questions' counts, from the binomial-thinning tables."""

    def test_zero_rate(self):
        em = make_marginal_emulator()
        law = ev.count_law(ev.marginal_sampler([em], 0.0, 10.0), 20)
        assert law[0] == pytest.approx(1.0, abs=1e-15) and np.all(law[1:] <= 1e-15)

    def test_infinite_target(self):
        em = make_marginal_emulator()
        law = ev.count_law(ev.marginal_sampler([em], 0.5, np.inf), 20)
        assert law[0] == pytest.approx(1.0, abs=1e-15) and np.all(law[1:] <= 1e-15)

    def test_target_below_threshold_rejected(self):
        em = make_marginal_emulator(u=1.0)
        for target in (0.9, 1.0):  # below and at the threshold
            with pytest.raises(ValueError, match="higher --target, or refit at a lower --tau"):
                ev.marginal_sampler([em], 0.05, target)
        cfg = ev.SimulationConfig(question="q1", target_level=1.0, n_sim=5, n_srun=2, seed=1)
        with pytest.raises(ValueError, match="higher --target, or refit at a lower --tau"):
            ev.monte_carlo_estimate([em], cfg, ev.CombinedEstimates(pi_hat=0.05, theta_hat=1.0))

    def test_closed_form_expectation(self):
        # exponential tail: P(u + Z > u + log 2) = 1/2, so E = N * pi * 0.5
        n_days = 60225
        em = make_marginal_emulator(n_days=n_days, u=1.0, sigma=1.0, xi=0.0)
        target = 1.0 + np.log(2.0)
        law = ev.count_law(ev.marginal_sampler([em], 0.05, target), 1)
        assert np.arange(law.size) @ law == pytest.approx(0.05 * 0.5 * n_days, rel=1e-9)

    def test_n_days_window(self):
        em = make_marginal_emulator(n_days=1000)
        sampler = ev.marginal_sampler([em], 1.0, 1.4, n_days=100)
        assert sampler.days.sum() == 100
        assert ev.count_law(sampler, 50).size <= 50 * 100 + 1
        with pytest.raises(ValueError):
            ev.marginal_sampler([em], 0.5, 3.0, n_days=2000)


def by_month(low, high):
    return st.lists(st.floats(low, high), min_size=12, max_size=12)


@settings(max_examples=25, deadline=None)
@given(u=by_month(0.5, 1.5), sigma=by_month(0.3, 2.0), xi=by_month(-0.3, 0.5),
       pi=st.floats(0.02, 0.3), above=st.floats(0.05, 2.0), n_days=st.integers(50, 1500),
       seed=st.integers(0, 2 ** 32))
def test_thinned_counts_match_the_daily_oracle(u, sigma, xi, pi, above, n_days, seed):
    # the count is sum_m Binomial(n_m, p_m): mean sum n_m p_m, variance
    # sum n_m p_m (1 - p_m); the day-by-day oracle has the same law
    em = month_varying_emulator(u, sigma, xi, n_days=2000)
    target = max(u) + above
    sampler = ev.marginal_sampler([em], pi, target, n_days=n_days)
    n_m, p_m = sampler.days[0], sampler.p[0]
    mean = float(n_m @ p_m)
    assume(mean >= 0.2)
    k2 = float(n_m @ (p_m * (1.0 - p_m)))
    k4 = float(n_m @ (p_m * (1.0 - p_m) * (1.0 - 6.0 * p_m * (1.0 - p_m))))
    rng = np.random.default_rng(seed)
    n = 4000
    thinned = np.searchsorted(np.cumsum(ev.count_law(sampler, 1)), rng.random(n), side="right")
    daily = np.array([daily_marginal_count(em, pi, target, rng, n_days) for _ in range(n)])
    for counts in (thinned, daily):
        assert abs(counts.mean() - mean) <= 5.0 * np.sqrt(k2 / n)
        # Var(sample variance) ~ (kappa4 + 2 kappa2**2) / n
        assert abs(counts.var(ddof=1) - k2) <= 5.0 * np.sqrt((k4 + 2.0 * k2 ** 2) / n)
    assert abs(thinned.mean() - daily.mean()) <= 5.0 * np.sqrt(2.0 * k2 / n)


def binomial_pmf(n, p):
    return np.array([math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)])


def nested_convolution(days, p, n_srun):
    """P(S = s) by direct convolution: the months of each emulator, the mean over
    emulators, then n_srun runs."""
    runs = []
    for days_r, p_r in zip(days, p):
        f = np.ones(1)
        for n, q in zip(days_r.tolist(), p_r.tolist()):
            f = np.convolve(f, binomial_pmf(n, q))
        runs.append(f)
    run = np.mean([np.pad(f, (0, max(map(len, runs)) - len(f))) for f in runs], axis=0)
    law = np.ones(1)
    for _ in range(n_srun):
        law = np.convolve(law, run)
    return law


@st.composite
def small_tables(draw):
    n_emulators = draw(st.integers(1, 3))
    days = draw(st.lists(st.integers(0, 60), min_size=12 * n_emulators, max_size=12 * n_emulators))
    p = draw(st.lists(st.floats(0.0, 0.95), min_size=12 * n_emulators, max_size=12 * n_emulators))
    return np.reshape(days, (n_emulators, 12)), np.reshape(p, (n_emulators, 12))


@settings(max_examples=60, deadline=None)
# p = 1/2 puts a zero of the transform at t = pi, and a zero-day month takes 0 log 0
@example(tables=(np.array([[0, 7, 0, 13, 0, 60, 0, 1, 0, 24, 0, 5]]), np.full((1, 12), 0.5)),
         n_srun=3, shrink=0.5, rate_mode=True)
@given(tables=small_tables(), n_srun=st.integers(1, 8), shrink=st.floats(0.0, 1.0),
       rate_mode=st.booleans())
def test_count_law_is_the_nested_convolution(tables, n_srun, shrink, rate_mode):
    days, p = tables
    law = ev.count_law(MarginalSampler(days=days, p=p), n_srun)
    ref = nested_convolution(days, p, n_srun)
    common = min(law.size, ref.size)
    assert np.max(np.abs(law[:common] - ref[:common])) <= 1e-12
    assert ref[common:].sum() <= 1e-12 and law[common:].sum() <= 1e-12
    mean = n_srun * np.mean(np.sum(days * p, axis=1))
    assert np.arange(law.size) @ law == pytest.approx(mean, rel=1e-9, abs=1e-12)
    # in rate mode a run counts whether it saw an event, so S is binomial
    hit = float(np.mean(1.0 - np.prod((1.0 - p) ** days, axis=1)))
    rate_law = ev.count_law(MarginalSampler(days=days, p=p), n_srun, rate_mode=True)
    assert np.max(np.abs(rate_law - binomial_pmf(n_srun, hit))) <= 1e-12
    # a higher target scales every p down: the point and both interval ends cannot rise
    cfg = ev.SimulationConfig(question="q1", n_sim=5, n_srun=n_srun, rate_mode=rate_mode)
    high = law_estimate(MarginalSampler(days=days, p=p), cfg)
    low = law_estimate(MarginalSampler(days=days, p=p * shrink), cfg)
    assert low.point <= high.point + 1e-12
    assert low.ci_low <= high.ci_low and low.ci_high <= high.ci_high


def convolved_binomials(days, p, n_srun, length):
    """The first length values of P(S = s) from scipy's binomial pmfs by direct
    convolution; a cut after each convolution leaves the first length exact."""
    runs = []
    for days_r, p_r in zip(days, p):
        f = np.ones(1)
        for n, q in zip(days_r, p_r):
            f = np.convolve(f, binom.pmf(np.arange(min(n, length) + 1), n, q))[:length]
        runs.append(np.pad(f, (0, length - f.size)))
    run = np.mean(runs, axis=0)
    law = np.ones(1)
    for _ in range(n_srun):
        law = np.convolve(law, run)[:length]
    return law


@pytest.mark.parametrize("n_emulators, month_days, p0, n_srun",
                         [(2, 5000, 1e-3, 5), (3, 5000, 5e-5, 50), (4, 5000, 2e-6, 50), (2, 2000, 0.01, 10)])
def test_count_law_at_paper_scale(n_emulators, month_days, p0, n_srun):
    # months of thousands of days at rates down to a few events per ensemble
    days = np.full((n_emulators, 12), month_days)
    p = p0 * (0.5 + np.arange(n_emulators)[:, None] / n_emulators) * (0.5 + np.arange(12) / 12.0)
    law = ev.count_law(MarginalSampler(days=days, p=p), n_srun)
    assert abs(law.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(law - convolved_binomials(days, p, n_srun, law.size))) <= 1e-13


def q3_emulators():
    """Two emulators with conditional models that differ in every parameter."""
    a = with_cev(make_marginal_emulator(n_days=2000, n_clusters=40, run_id=1), 0.7, 0.2,
                 np.linspace(-1.0, 2.0, 50), bandwidth=0.3)
    b = with_cev(make_marginal_emulator(n_days=2000, n_clusters=90, pi_mixed=0.02, run_id=2),
                 0.4, -0.3, np.linspace(-0.5, 3.0, 20), bandwidth=0.1)
    return [a, b]


def start_floor(emulator):
    """Laplace-scale floor of the chain starts: the image of the GP threshold."""
    return -np.log(2.0 * emulator.mixed.pi)


class TestSimulateClusterRun:
    """The persistence question's exact law: Poisson clusters thinned by the
    quadrature's counting probability."""

    def test_zero_cluster_rate(self):
        em = with_cev(make_marginal_emulator(n_clusters=0), 0.5, 0.0, [0.0])
        law = ev.count_law(ev.chain_law([em], 2.0), 20)
        assert law[0] == pytest.approx(1.0, abs=1e-15) and np.all(law[1:] <= 1e-15)

    def test_missing_cev_rejected(self):
        em = make_marginal_emulator()
        with pytest.raises(ValueError):
            ev.chain_law([em], 2.0)

    def test_persistence_corner_counts_initial_exceedances(self):
        # beta0 = 1 with zero residuals holds the chain at its start value
        em = with_cev(make_marginal_emulator(n_days=2000, u=1.0, sigma=1.0, xi=0.0,
                                             n_clusters=60, pi_mixed=0.03),
                      1.0, 0.0, [0.0])
        law = ev.chain_law([em], 3.0)
        # Poisson(60) starts, each above 3.0 w.p. e^-2, the GP survivor of the excess
        assert law.p == pytest.approx(np.full((1, 12), np.exp(-2.0)), rel=1e-9)
        cfg = ev.SimulationConfig(question="q3", target_level=3.0, n_sim=5, n_srun=4)
        assert law_estimate(law, cfg).point == pytest.approx(60 * np.exp(-2.0), rel=1e-9)

    def test_independence_corner_lower_bound(self):
        # beta0 = beta1 = 0: the chain is iid residual draws; a cluster counts
        # at least when the first draw re-exceeds, so the counting fraction
        # is bounded below by rho = P(Z > target), and the law uses the emulator's
        # own start floor and Laplace targets
        rho = 0.3
        residuals = np.array([3.0] * 30 + [1.0] * 70)
        em = with_cev(make_marginal_emulator(n_days=4000, u=1.0, sigma=1.0, xi=0.0,
                                             n_clusters=1000, pi_mixed=0.03),
                      0.0, 0.0, residuals)
        # the raw target 1.1 maps to start_floor + 0.1 = 2.91, between the residuals 1 and 3
        p = ev.chain_law([em], 1.1).p[0]
        assert np.all(p >= rho * np.exp(-0.1)) and np.all(p < 1.0)
        alone, _ = ev.hit_probability(em.cev_model, start_floor(em), ev.to_laplace(em.mixed, 1.1, np.arange(1, 13)))
        assert np.array_equal(p, alone)

    def test_start_below_conditioning_threshold_never_counts(self):
        em = with_cev(make_marginal_emulator(n_clusters=50), 1.0, 0.0, [0.0], q=100.0)
        assert np.all(ev.chain_law([em], -10.0).p == 0.0)

    def test_month_picks_the_target(self):
        # chains held at their start count exactly when they start above their
        # month's Laplace-scale target, which the month's GP scale sets
        em = with_cev(month_varying_emulator(np.full(12, 1.0), np.geomspace(0.3, 3.0, 12), np.zeros(12),
                                             n_days=1000), 1.0, 0.0, [0.0])
        targets = ev.to_laplace(em.mixed, 3.0, np.arange(1, 13))
        assert np.all(np.diff(targets) < 0.0)
        lam = {}
        for month in (1, 7):
            cs = dataclasses.replace(em.cluster_set, maxima_months=np.full(40, month))
            law = ev.chain_law([dataclasses.replace(em, cluster_set=cs)], 3.0)
            assert law.p[0] == pytest.approx(np.exp(start_floor(em) - targets), rel=1e-9)
            lam[month] = float(law.month_rate[0] @ law.p[0])
        assert lam == pytest.approx({1: 40 * law.p[0, 0], 7: 40 * law.p[0, 6]}, rel=1e-12)

    def test_batch_equals_chains_run_alone(self):
        # the oracle's chains: a deterministic chain (zero bandwidth, one residual)
        # counts the same whichever other chains share its batch
        cev = stack_cev([CEVModel(beta0=b0, beta1=0.0, q_threshold=ev.laplace_quantile(0.9),
                                  residuals=np.zeros(1), kde_bandwidth=0.0, loglik=0.0)
                         for b0 in (1.0, 0.5)])
        j = np.array([0, 1, 1, 0])
        y0 = np.array([4.0, 4.0, 4.0, 2.5])
        target = np.array([3.5, 1.5, 2.5, 2.0])
        rng = np.random.default_rng(0)
        batch = count_chains(cev, j, y0, target, rng)
        alone = [count_chains(cev, j[i:i + 1], y0[i:i + 1], target[i:i + 1], rng)[0]
                 for i in range(4)]
        assert batch.tolist() == alone == [True, True, False, True]


def poisson_mixture_law(lam, n_srun, length):
    """The first length values of P(S = s) for n_srun runs, each Poisson(lam[r]) at a
    uniformly picked r, by direct convolution of scipy's Poisson pmfs."""
    from scipy.stats import poisson
    run = np.mean([poisson.pmf(np.arange(length), m) for m in lam], axis=0)
    law = np.ones(1)
    for _ in range(n_srun):
        law = np.convolve(law, run)[:length]
    return law


@pytest.mark.parametrize("lam, n_srun", [([0.0], 5), ([0.3, 2.0], 10), ([41.3, 38.4, 44.2, 40.0], 50)])
def test_chain_count_law_is_a_poisson_mixture(lam, n_srun):
    # any split of lam into months and probabilities gives the same law
    lam = np.asarray(lam)
    law_table = ChainLaw(month_rate=np.outer(lam, np.full(12, 1.0 / 6.0)), p=np.full((lam.size, 12), 0.5),
                         quadrature_error=0.0, quadrature_lost_mass=0.0)
    law = ev.count_law(law_table, n_srun)
    assert abs(law.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(law - poisson_mixture_law(lam, n_srun, law.size))) <= 1e-13
    assert np.arange(law.size) @ law == pytest.approx(n_srun * lam.mean(), rel=1e-12, abs=1e-14)
    hit = float(np.mean(1.0 - np.exp(-lam)))
    rate_law = ev.count_law(law_table, n_srun, rate_mode=True)
    assert np.max(np.abs(rate_law - binomial_pmf(n_srun, hit))) <= 1e-12


def bernstein_exponent(t, var):
    """Bernstein's bound P(X - mean >= t) <= exp(-exponent) for a sum of independent
    Bernoulli counts, or a Poisson count, of variance var."""
    return t * t / (2.0 * (var + t / 3.0))


@st.composite
def count_tables(draw):
    """A MarginalSampler (binomial days) or a ChainLaw (Poisson clusters) of 1-3 emulators."""
    n_emulators = draw(st.integers(1, 3))
    size = (n_emulators, 12)
    p = np.reshape(draw(st.lists(st.floats(0.0, 1.0), min_size=12 * n_emulators, max_size=12 * n_emulators)),
                   size)
    if draw(st.booleans()):
        days = draw(st.lists(st.integers(0, 400), min_size=12 * n_emulators, max_size=12 * n_emulators))
        return MarginalSampler(days=np.reshape(days, size), p=p)
    rate = draw(st.lists(st.floats(0.0, 300.0), min_size=12 * n_emulators, max_size=12 * n_emulators))
    return ChainLaw(month_rate=np.reshape(rate, size), p=p, quadrature_error=0.0, quadrature_lost_mass=0.0)


@settings(max_examples=200, deadline=None)
@example(tables=MarginalSampler(days=np.full((1, 12), 30), p=np.zeros((1, 12))), n_srun=3)
@example(tables=ChainLaw(month_rate=np.zeros((2, 12)), p=np.ones((2, 12)), quadrature_error=0.0,
                         quadrature_lost_mass=0.0), n_srun=3)
@given(tables=count_tables(), n_srun=st.integers(1, 10))
def test_the_run_cut_drops_at_most_e_to_the_minus_45(tables, n_srun):
    # a run's pmf stops at K = max_r (mean_r + 12 sd_r) + 30: for each emulator K either
    # covers the whole support (a binomial sum of at most K days) or sits t = K - mean_r
    # >= 12 sd_r + 30 above its mean, where Bernstein's exponent is at least 45 (equal
    # at sd 0); so law_tail_mass, what the law's table leaves out, is FFT rounding only
    k_max = tables.run_pmf().size - 1
    if isinstance(tables, MarginalSampler):
        mean, var = np.sum(tables.days * tables.p, axis=1), np.sum(tables.days * tables.p * (1 - tables.p), axis=1)
        covered = tables.days.sum(axis=1) <= k_max
    else:
        mean = var = np.sum(tables.month_rate * tables.p, axis=1)
        covered = np.zeros(mean.size, dtype=bool)
    assert np.all(covered | (bernstein_exponent(k_max - mean, var) >= 45.0))
    # and the ensemble's FFT is long enough to hold all n_srun K + 1 counts without wrapping
    assert ev.count_law(tables, n_srun).size == n_srun * k_max + 1


@pytest.mark.parametrize("xi", [-0.3, 0.0, 0.2, 0.8])
@pytest.mark.parametrize("pi", [0.01, 0.05, 0.3])
def test_analytic_chain_start_matches_the_mixed_cdf_route(xi, pi):
    # the old route: x0 = u + gp_quantile(v) through the month's mixed
    # distribution function, then the Laplace quantile; the tolerance holds
    # while 1 - p >= 1e-3 (an ulp of p moves y by ulp / (1 - p))
    sigma = np.geomspace(0.2, 3.0, 12)
    em = month_varying_emulator(np.linspace(0.8, 1.6, 12), sigma, np.full(12, xi), n_days=1000)
    md = dataclasses.replace(em.mixed, pi=pi)
    v = np.linspace(0.0, 0.9, 31)
    for m in range(1, 13):
        x0 = md.gp.threshold_model.u_by_month[m - 1] + ev.gp_quantile(v, sigma[m - 1], xi)
        old = ev.laplace_quantile(np.clip(ev.mixed_cdf(md, x0, m), PROB_CLIP, 1 - PROB_CLIP))
        assert np.max(np.abs(chain_starts(v, pi) - old)) <= 1e-12


class TestMonteCarloEstimate:
    @pytest.mark.parametrize("setting", [{"n_days": 365}, {"correction": "power"}])
    def test_persistence_question_refuses_a_window_and_a_correction(self, setting):
        # its chains run over whole runs; and no question takes an extremal-index
        # correction, so the config has no such field
        if "correction" in setting:
            for question in ev.QUESTIONS:
                with pytest.raises(TypeError, match="correction"):
                    ev.SimulationConfig(question=question, **setting)
            return
        with pytest.raises(ValueError, match="q3 simulates whole runs"):
            ev.SimulationConfig(question="q3", **setting)
        ev.SimulationConfig(question="q1", **setting)

    def test_degenerate_zero_rate(self):
        em = make_marginal_emulator()
        cfg = ev.SimulationConfig(question="q1", target_level=5.0, n_sim=50, n_srun=5, seed=1)
        res = ev.monte_carlo_estimate([em], cfg, ev.CombinedEstimates(pi_hat=0.0, theta_hat=1.0))
        assert res.point == 0.0 and (res.ci_low, res.ci_high) == (0.0, 0.0)

    def test_theta_one_reduces_to_mean_count(self):
        # clusters are counted once, so the extremal index leaves every output alone
        em = make_marginal_emulator(n_days=365)
        cfg = ev.SimulationConfig(question="q1", target_level=5.0, n_sim=100, n_srun=50, seed=3)
        one = ev.monte_carlo_estimate([em], cfg, ev.CombinedEstimates(pi_hat=0.05, theta_hat=1.0))
        low = ev.monte_carlo_estimate([em], cfg, ev.CombinedEstimates(pi_hat=0.05, theta_hat=0.4))
        assert (one.point, one.ci_low, one.ci_high) == (low.point, low.ci_low, low.ci_high)
        assert np.array_equal(one.ebar_samples, low.ebar_samples)
        table = ev.marginal_sampler([em], 0.05, 5.0)
        assert one.point == pytest.approx(float(np.sum(table.days * table.p)), rel=1e-12)

    def test_closed_form_oracle(self):
        # sharp oracle: per-day event probability 0.05 * 0.01 over 1000 days
        em = make_marginal_emulator(n_days=1000, u=1.0, sigma=1.0, xi=0.0)
        target = 1.0 + np.log(1.0 / 0.01)
        cfg = ev.SimulationConfig(question="q1", target_level=target, n_sim=500, n_srun=100, seed=7)
        res = ev.monte_carlo_estimate([em], cfg, ev.CombinedEstimates(pi_hat=0.05, theta_hat=1.0))
        assert res.point == pytest.approx(0.5, abs=0.05)
        assert res.ci_low <= 0.5 <= res.ci_high
        assert res.ci_low <= res.point <= res.ci_high

    def test_seed_determinism(self):
        em = make_marginal_emulator(n_days=400)
        cfg = ev.SimulationConfig(question="q1", target_level=5.5, n_sim=60, n_srun=50, seed=42)
        combined = ev.CombinedEstimates(pi_hat=0.05, theta_hat=0.9)
        a = ev.monte_carlo_estimate([em], cfg, combined)
        b = ev.monte_carlo_estimate([em], cfg, combined)
        assert a.point == b.point
        assert np.array_equal(a.ebar_samples, b.ebar_samples)

    def test_persistence_question_reads_its_quadrature(self):
        # q3 is exact as well: no Monte Carlo error, and a rerun is bitwise identical;
        # its quadrature error is the largest change of P from cells twice as wide
        ems = q3_emulators()
        combined = ev.combine_rates(ems)
        cfg = ev.SimulationConfig(question="q3", target_level=2.0, n_sim=40, n_srun=6, seed=8)
        res = ev.monte_carlo_estimate(ems, cfg, combined)
        again = ev.monte_carlo_estimate(ems, cfg, combined)
        assert (res.point, res.ci_low, res.ci_high) == (again.point, again.ci_low, again.ci_high)
        assert np.array_equal(res.ebar_samples, again.ebar_samples) and res.ebar_samples.size == 40
        assert 0.0 <= res.law_tail_mass <= 1e-12
        fine = ev.chain_law(ems, 2.0)
        coarse = [ev.hit_probability(e.cev_model, start_floor(e), ev.to_laplace(e.mixed, 2.0, np.arange(1, 13)),
                                     width=2 * CELL_WIDTH)[0] for e in ems]
        assert res.quadrature_error == fine.quadrature_error == np.max(np.abs(fine.p - coarse)) > 0.0
        assert 0.0 <= res.quadrature_lost_mass == fine.quadrature_lost_mass <= 1e-6
        lam = np.sum(fine.month_rate * fine.p, axis=1)
        assert res.point == pytest.approx(lam.mean(), rel=1e-12)

    def test_emulators_of_another_question_refused(self):
        # the library makes estimate's question check too, with or without combine_rates
        ems = q3_emulators()
        cfg = ev.SimulationConfig(question="q1", target_level=5.0, n_sim=5, n_srun=5, n_days=100)
        with pytest.raises(ValueError, match="emulators fitted for question q3 cannot estimate q1"):
            ev.monte_carlo_estimate(ems, cfg, ev.combine_rates(ems))

    def test_distribution_invariant_to_emulator_copies(self):
        em = make_marginal_emulator(n_days=500)
        combined = ev.CombinedEstimates(pi_hat=0.05, theta_hat=1.0)
        cfg1 = ev.SimulationConfig(question="q1", target_level=5.5, n_sim=2000, n_srun=20, seed=11)
        cfg4 = dataclasses.replace(cfg1, seed=12)
        one = ev.monte_carlo_estimate([em], cfg1, combined)
        four = ev.monte_carlo_estimate(
            [dataclasses.replace(em, run_id=i + 1) for i in range(4)], cfg4, combined)
        stat = ks_2samp(one.ebar_samples, four.ebar_samples).statistic
        assert stat < 0.05

    def test_monotone_in_target(self):
        em = make_marginal_emulator(n_days=300)
        combined = ev.CombinedEstimates(pi_hat=0.05, theta_hat=0.9)
        points = []
        for target in (4.5, 5.0, 6.0, 8.0):
            cfg = ev.SimulationConfig(question="q1", target_level=target, n_sim=80, n_srun=50, seed=21)
            points.append(ev.monte_carlo_estimate([em], cfg, combined).point)
        assert all(a >= b for a, b in zip(points, points[1:]))

    def test_mean_count_above_one_and_rate_mode_read_the_law(self):
        # a run expects about 2000 * 0.9 * e^-0.1 = 1629 events, so P(e_bar > 1) is 1
        em = make_marginal_emulator(n_days=2000, u=1.0, sigma=1.0, xi=0.0)
        combined = ev.CombinedEstimates(pi_hat=0.9, theta_hat=0.9)
        cfg = ev.SimulationConfig(question="q1", target_level=1.1, n_sim=10, n_srun=5, seed=2)
        res = ev.monte_carlo_estimate([em], cfg, combined)
        table = ev.marginal_sampler([em], 0.9, 1.1)
        assert res.point == pytest.approx(float(np.sum(table.days * table.p)), rel=1e-12)
        assert 1.0 < res.ci_low <= res.point <= res.ci_high
        rate_cfg = dataclasses.replace(cfg, rate_mode=True)
        res = ev.monte_carlo_estimate([em], rate_cfg, combined)
        assert 0.0 <= res.point <= 1.0

    def test_rate_mode_point_is_the_chance_of_a_day_above(self):
        # under the fitted model, whatever the extremal index: mean_r P(a run on r has a day
        # above the target), read off marginal_sampler's own tables
        ems = [make_marginal_emulator(n_days=800, run_id=1),
               make_marginal_emulator(n_days=800, u=1.2, sigma=1.3, xi=0.1, run_id=2)]
        combined = ev.CombinedEstimates(pi_hat=0.05, theta_hat=0.6)
        cfg = ev.SimulationConfig(question="q1", target_level=5.5, n_sim=50, n_srun=10, seed=5,
                                  n_days=300, rate_mode=True)
        res = ev.monte_carlo_estimate(ems, cfg, combined)
        table = ev.marginal_sampler(ems, combined.pi_hat, cfg.target, cfg.n_days)
        hit = float(np.mean(1.0 - np.prod((1.0 - table.p) ** table.days, axis=1)))
        assert abs(res.point - hit) <= 1e-12
        assert res.ci_low <= res.point <= res.ci_high

    def test_coverage_over_synthetic_worlds(self):
        # emulators carry the true parameters, so the interval should cover
        # the true expected count in nearly every world
        rng = np.random.default_rng(2025)
        n_days, n_srun, n_sim = 365, 50, 150
        hits = 0
        n_worlds = 80
        for w in range(n_worlds):
            u = float(rng.uniform(0.5, 2.0))
            sigma = float(rng.uniform(0.5, 2.0))
            xi = float(rng.uniform(-0.2, 0.5))
            pi = float(rng.uniform(0.02, 0.08))
            expected = float(rng.uniform(0.05, 0.4))
            p_tail = expected / (n_days * pi)
            target = u + float(ev.gp_quantile(1.0 - p_tail, sigma, xi))
            em = make_marginal_emulator(n_days=n_days, u=u, sigma=sigma, xi=xi)
            cfg = ev.SimulationConfig(question="q1", target_level=target,
                                      n_sim=n_sim, n_srun=n_srun, seed=w)
            res = ev.monte_carlo_estimate([em], cfg,
                                          ev.CombinedEstimates(pi_hat=pi, theta_hat=1.0))
            if res.ci_low <= expected <= res.ci_high:
                hits += 1
        assert hits / n_worlds >= 0.85

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ev.SimulationConfig(question="q9")
        with pytest.raises(ValueError):
            ev.SimulationConfig(question="q1", n_sim=0)
        with pytest.raises(ValueError):
            ev.SimulationConfig(question="q1", alpha=1.5)


class TestLaplaceTargets:
    def test_monotone_in_target(self):
        em = make_marginal_emulator(n_days=2000, pi_mixed=0.04)
        # chain_law's month targets: a raw level on the emulator's own Laplace scale
        low = ev.to_laplace(em.mixed, 2.0, np.arange(1, 13))
        high = ev.to_laplace(em.mixed, 3.0, np.arange(1, 13))
        assert np.all(high > low)
        assert low.shape == (12,)


class TestRunQuestion:
    def test_q3_full_pipeline(self):
        spec = ev.SynthSpec(n_runs=2, n_days=10950, n_sites=5, order_k=3, pi=0.05,
                            u0_by_month=np.full(12, 1.2), sigma_by_month=np.full(12, 0.6),
                            xi=0.0, rho=0.6)
        runs = list(ev.iter_ensemble(spec, seed=88))
        config = ev.SimulationConfig(question="q3", target_level=4.0,
                                     n_sim=40, n_srun=5, seed=13)

        def estimate():  # the path of fit and estimate: reduce, fit, combine, estimate
            # third largest of 5 sites: k = 3
            emulators = [ev.build_emulator(series_of(values, 3, run_id=i), "q3")
                         for i, values in enumerate(runs, start=1)]
            return ev.monte_carlo_estimate(emulators, config, ev.combine_rates(emulators))
        result = estimate()
        assert result.point >= 0.0
        assert result.ci_low <= result.point <= result.ci_high
        again = estimate()
        assert np.array_equal(result.ebar_samples, again.ebar_samples)

    def test_default_target_is_the_asked_questions(self):
        # with no target_level a config reads its own question's level
        for question, spec in ev.QUESTIONS.items():
            config = ev.SimulationConfig(question=question)
            assert config.target_level is None and config.target == spec.target, question

    def test_unknown_question_rejected(self):
        with pytest.raises(ValueError):
            ev.build_emulator(object(), "q7")
