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

MIN_MONTH_OBS = 50  # fit_threshold refuses a series with a month of fewer days


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


def fit_threshold(series: SummarySeries, tau: float = 0.95) -> ThresholdModel:
    """Fit the month-varying tau-quantile threshold to a summary series.

    The asymmetric-Laplace MLE of a month is exact (Yu & Moyeed 2001). For a
    fixed location u the scale MLE is the mean pinball loss at u, so the
    location minimises that loss: the k-th order statistic, k = ceil(n tau).
    When n tau is an integer (to within 1e-9) the loss is flat between the
    k-th and (k+1)-th order statistics and the lower one is taken. A month
    with zero loss (all values equal) gets the smallest positive scale. A
    month of n days with loss L and scale zeta = max(L, tiny) adds
    n (log zeta - log tau(1 - tau) + L / zeta) to the negative log-likelihood.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    counts = np.bincount(series.months, minlength=13)[1:]
    short = [m + 1 for m in range(12) if counts[m] < MIN_MONTH_OBS]
    if short:
        raise RuntimeError(f"months {short} have fewer than {MIN_MONTH_OBS} observations")
    u = np.empty(12)
    log_zeta = np.empty(12)
    nll = 0.0
    for m in range(12):
        x = series.values[series.months == m + 1]
        k = int(np.ceil(x.size * tau - 1e-9))
        u[m] = np.partition(x, k - 1)[k - 1]
        loss = float(np.mean(pinball(x - u[m], tau)))
        zeta = max(loss, np.finfo(np.float64).tiny)
        log_zeta[m] = np.log(zeta)
        nll += x.size * (log_zeta[m] - np.log(tau * (1.0 - tau)) + loss / zeta)
    return ThresholdModel(tau=tau, u_by_month=u, log_zeta_by_month=log_zeta, loglik=-nll)
