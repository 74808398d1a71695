"""Month-varying exceedance threshold via asymmetric-Laplace likelihood.

The location parameter of an asymmetric Laplace density with asymmetry tau
is the tau-quantile of the data, so maximising the likelihood month by month
estimates the month-specific tau-quantile together with a scale. Months are
disjoint factor levels, hence the joint 24-parameter fit decomposes into 12
independent two-parameter fits, each with a closed-form answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .summarise import SummarySeries


@dataclass(frozen=True)
class ThresholdModel:
    """Fitted tau-quantile threshold, one (location, log-scale) pair per month."""

    tau: float
    u_by_month: np.ndarray         # (12,)
    log_zeta_by_month: np.ndarray  # (12,)
    loglik: float

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        u = np.ascontiguousarray(self.u_by_month, dtype=np.float64)
        lz = np.ascontiguousarray(self.log_zeta_by_month, dtype=np.float64)
        if u.shape != (12,) or lz.shape != (12,):
            raise ValueError("u_by_month and log_zeta_by_month must have 12 entries")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(lz))):
            raise ValueError("threshold parameters must be finite")
        object.__setattr__(self, "u_by_month", u)
        object.__setattr__(self, "log_zeta_by_month", lz)


def pinball(t, tau: float):
    """Quantile check function t * (tau - 1{t < 0})."""
    t = np.asarray(t, dtype=np.float64)
    return t * (tau - (t < 0.0))


def ald_negloglik(params, series: SummarySeries, tau: float) -> float:
    """Negative log-likelihood of the month-indexed asymmetric Laplace model.

    params holds the 12 locations followed by the 12 log-scales. Returns
    +inf for non-finite parameters or underflowing scales.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (24,):
        raise ValueError(f"expected 24 parameters, got shape {params.shape}")
    if not np.all(np.isfinite(params)):
        return float("inf")
    u = params[:12]
    log_zeta = params[12:]
    zeta = np.exp(log_zeta)
    if not np.all(np.isfinite(zeta)) or np.any(zeta <= 0.0):
        return float("inf")
    idx = series.months - 1
    t = (series.values - u[idx]) / zeta[idx]
    nll = np.sum(log_zeta[idx] - np.log(tau * (1.0 - tau)) + pinball(t, tau))
    return float(nll) if np.isfinite(nll) else float("inf")


def fit_threshold(series: SummarySeries, tau: float = 0.95, min_month_obs: int = 50) -> ThresholdModel:
    """Fit the month-varying tau-quantile threshold to a summary series.

    The asymmetric-Laplace MLE of a month is exact (Yu & Moyeed 2001). For a
    fixed location u the scale MLE is the mean pinball loss at u, so the
    location minimises that loss: the k-th order statistic, k = ceil(n tau).
    When n tau is an integer (to within 1e-9) the loss is flat between the
    k-th and (k+1)-th order statistics and the lower one is taken. A month
    with zero loss (all values equal) gets the smallest positive scale.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if min_month_obs < 1:
        raise ValueError(f"min_month_obs must be >= 1, got {min_month_obs}")
    counts = np.bincount(series.months, minlength=13)[1:]
    short = [m + 1 for m in range(12) if counts[m] < min_month_obs]
    if short:
        raise RuntimeError(f"months {short} have fewer than {min_month_obs} observations")
    u = np.empty(12)
    log_zeta = np.empty(12)
    for m in range(12):
        x = series.values[series.months == m + 1]
        k = int(np.ceil(x.size * tau - 1e-9))
        u[m] = np.partition(x, k - 1)[k - 1]
        log_zeta[m] = np.log(max(float(np.mean(pinball(x - u[m], tau))), np.finfo(np.float64).tiny))
    nll = ald_negloglik(np.concatenate([u, log_zeta]), series, tau)
    return ThresholdModel(tau=tau, u_by_month=u, log_zeta_by_month=log_zeta, loglik=-nll)
