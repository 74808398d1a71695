"""Correctness checks on what the program produced.

Each check returns None when it passes and a one-line reason when it
fails. The references are computed here, from the synthetic truth and
closed forms, not by calling the code under test.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import NO_LEAP_MONTH_LENGTHS

# A mean within this many Monte Carlo standard errors of its expectation
# passes; a false alarm at 5 SE has probability below 1e-6 per run.
MEAN_E_SE = 5.0
# Fitted monthly thresholds are sample 0.95-quantiles of about 5,000 days;
# they must lie within this many of their standard errors of the true u0.
THRESHOLD_SE = 5.0
# The chain estimate sits about 2x above the synthetic runs' own count of
# clusters with two or more consecutive exceedances at the q3-chain target
# (the model's chains start at every cluster's GP draw). That gap is
# statistical; the factor only bounds it.
CHAIN_FACTOR = 3.0


def month_days(n_days: int) -> np.ndarray:
    """Days in each month (12,) of the first n_days of the no-leap calendar."""
    lengths = np.asarray(NO_LEAP_MONTH_LENGTHS)
    months = np.repeat(np.arange(12), lengths)
    full, rest = divmod(n_days, lengths.sum())
    return full * lengths + np.bincount(months[:rest], minlength=12)


def gp_survival(z, sigma, xi):
    """P(excess > z) of a generalized Pareto with scale sigma and shape xi."""
    z, sigma, xi = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in (z, sigma, xi)))
    out = np.where(z <= 0.0, 1.0, 0.0)
    pos = z > 0.0
    expo = pos & (np.abs(xi) < 1e-10)
    out[expo] = np.exp(-z[expo] / sigma[expo])
    gen = pos & ~expo
    base = 1.0 + xi[gen] * z[gen] / sigma[gen]
    with np.errstate(divide="ignore", invalid="ignore"):
        out[gen] = np.where(base > 0.0, np.abs(base) ** (-1.0 / xi[gen]), 0.0)
    return out


def marginal_count_moments(u, sigma, xi, pi_hat: float, target: float,
                           days: np.ndarray) -> tuple[float, float]:
    """Mean and variance of one synthetic run's exceedance count.

    u, sigma and xi are (n_emulators, 12); a run picks an emulator
    uniformly, then every day exceeds the target independently with
    probability pi_hat * P(GP excess > target - u_month).
    """
    p = pi_hat * gp_survival(target - np.asarray(u), sigma, xi)
    mean_r = p @ days
    var_r = (p * (1.0 - p)) @ days
    return float(mean_r.mean()), float(var_r.mean() + mean_r.var())


def check_mean_e(mean_e: np.ndarray, n_srun: int, expected: float, variance: float,
                 k: float = MEAN_E_SE) -> str | None:
    """The mean of the per-ensemble mean counts against its analytic expectation."""
    se = math.sqrt(variance / (mean_e.size * n_srun))
    got = float(np.mean(mean_e))
    if not abs(got - expected) <= k * se:
        return (f"mean of mean_e {got:.6g} is {abs(got - expected) / se:.1f} SE from "
                f"the analytic expectation {expected:.6g} (SE {se:.3g}, allowed {k})")
    return None


def threshold_tolerance(n_obs: np.ndarray, rho: float, tau: float, pi: float, sigma: float,
                        u0: float, k: float = THRESHOLD_SE) -> np.ndarray:
    """Allowed |u_month - u0| for sample tau-quantiles of n_obs days.

    The density has a kink at u0 (bulk (1 - pi)/u0 below, pi/sigma above);
    the smaller side sets the standard error. AR(1) dependence inflates the
    variance by at most (1 + rho)/(1 - rho).
    """
    density = min((1.0 - pi) / u0, pi / sigma)
    se = np.sqrt(tau * (1.0 - tau) / n_obs) / density
    return k * se * math.sqrt((1.0 + rho) / (1.0 - rho))


def check_thresholds(u_by_month, u0: float, tol: np.ndarray) -> str | None:
    err = np.abs(np.asarray(u_by_month, dtype=np.float64) - u0)
    if not np.all(err <= tol):
        m = int(np.argmax(err / tol))
        return f"month {m + 1} threshold {u_by_month[m]:.4f} is {err[m]:.4f} from u0={u0} (allowed {tol[m]:.4f})"
    return None


def consecutive_clusters(series: np.ndarray, target: float) -> int:
    """Number of maximal runs of days above target that last two days or more."""
    above = np.concatenate([[0], (np.asarray(series) > target).astype(np.int8), [0]])
    edges = np.flatnonzero(np.diff(above))
    return int(np.sum(edges[1::2] - edges[::2] >= 2))


def check_chain_estimate(point: float, ci_low: float, ci_high: float, observed: float,
                         factor: float = CHAIN_FACTOR) -> str | None:
    """q3: a finite estimate, an ordered interval, and a point within
    ``factor`` of the observed clusters per run."""
    if not all(math.isfinite(v) for v in (point, ci_low, ci_high)):
        return f"non-finite estimate ({point}, {ci_low}, {ci_high})"
    if not ci_low <= ci_high:
        return f"interval ({ci_low}, {ci_high}) is not ordered"
    if observed <= 0.0 or not observed / factor <= point <= observed * factor:
        return f"point {point:.4g} is not within x{factor} of the observed {observed:.4g} per run"
    return None
