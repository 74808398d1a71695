"""The benchmark's correctness checks accept what is right and reject what is not."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import genpareto

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402


def test_month_days_follow_the_no_leap_calendar():
    assert checks.month_days(365).tolist() == [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    assert checks.month_days(40).tolist() == [31, 9] + [0] * 10
    assert checks.month_days(60_225).sum() == 60_225


@pytest.mark.parametrize("xi", [-0.2, 0.0, 0.1, 0.5])
def test_gp_survival_matches_scipy(xi):
    z = np.array([0.0, 0.3, 1.0, 2.4, 4.0])
    np.testing.assert_allclose(checks.gp_survival(z, 0.7, xi), genpareto.sf(z, xi, scale=0.7),
                               rtol=1e-12, atol=1e-15)


def test_count_moments_match_a_direct_simulation():
    u = np.array([np.full(12, 1.0), np.full(12, 1.2)])
    sigma = np.full((2, 12), 0.5)
    xi = np.array([np.full(12, 0.1), np.full(12, 0.0)])
    days = checks.month_days(200)
    mean, var = checks.marginal_count_moments(u, sigma, xi, 0.05, 1.5, days)
    rng = np.random.default_rng(3)
    n = 200_000
    pick = rng.integers(2, size=n)
    p = 0.05 * checks.gp_survival(1.5 - u, sigma, xi)
    counts = sum(rng.binomial(days[m], p[pick, m]) for m in range(12))
    assert counts.mean() == pytest.approx(mean, abs=5 * math.sqrt(var / n))
    assert counts.var() == pytest.approx(var, rel=0.02)


def test_mean_e_check_rejects_a_shift_beyond_its_tolerance():
    rng = np.random.default_rng(7)
    expected, variance, n_srun, n_sim = 0.2, 0.2, 50, 400
    se = math.sqrt(variance / (n_sim * n_srun))
    mean_e = rng.poisson(expected * n_srun, size=n_sim) / n_srun
    assert checks.check_mean_e(mean_e, n_srun, expected, variance) is None
    shifted = mean_e + (checks.MEAN_E_SE + 1.0) * se
    assert "SE from the analytic expectation" in checks.check_mean_e(shifted, n_srun, expected, variance)
    assert checks.check_mean_e(mean_e + 0.5 * se, n_srun, expected, variance) is None


def test_threshold_check_uses_the_flatter_side_of_the_kink():
    n_obs = checks.month_days(60_225)
    tol = checks.threshold_tolerance(n_obs, 0.0, tau=0.95, pi=0.05, sigma=0.5, u0=1.0)
    # above u0 the density is pi/sigma = 0.1, so 5 SE is about 0.15 for 5,000 days
    assert 0.1 < tol.min() <= tol.max() < 0.2
    assert checks.check_thresholds(np.full(12, 1.0) + 0.9 * tol, 1.0, tol) is None
    u = np.full(12, 1.0)
    u[6] += 1.1 * tol[6]
    assert checks.check_thresholds(u, 1.0, tol).startswith("month 7")
    dependent = checks.threshold_tolerance(n_obs, 0.7, tau=0.95, pi=0.05, sigma=0.5, u0=1.0)
    assert np.all(dependent > tol)


def test_consecutive_clusters_count_runs_of_two_or_more():
    series = np.array([5, 5, 0, 5, 0, 5, 5, 5, 0, 0, 5, 5])
    assert checks.consecutive_clusters(series, 1.0) == 3
    assert checks.consecutive_clusters(series, 9.0) == 0


def test_chain_check():
    assert checks.check_chain_estimate(40.0, 38.0, 42.0, observed=20.0) is None
    assert "within" in checks.check_chain_estimate(70.0, 68.0, 72.0, observed=20.0)
    assert "within" in checks.check_chain_estimate(5.0, 4.0, 6.0, observed=20.0)
    assert "within" in checks.check_chain_estimate(5.0, 4.0, 6.0, observed=0.0)
    assert "ordered" in checks.check_chain_estimate(40.0, 42.0, 38.0, observed=20.0)
    assert "non-finite" in checks.check_chain_estimate(float("nan"), 38.0, 42.0, observed=20.0)
