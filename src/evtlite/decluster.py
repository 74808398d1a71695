"""Run declustering of threshold exceedances and the extremal index.

Two exceedances share a cluster when fewer than l sub-threshold days
separate them; a gap of exactly l starts a new cluster. The extremal index
is the inverse of the mean cluster size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .summarise import SummarySeries
from .threshold import ThresholdModel


@dataclass(frozen=True)
class ClusterSet:
    """Declustered exceedances of one run.

    Cluster i holds exceedance_days[cluster_starts[i]:cluster_starts[i + 1]]
    (the last cluster runs to the end), and its maximum is maxima[i] on day
    maxima_days[i].
    """

    run_length_l: int
    exceedance_days: np.ndarray  # 1-based days above the threshold, increasing
    cluster_starts: np.ndarray   # index of each cluster's first day in exceedance_days
    maxima: np.ndarray
    maxima_days: np.ndarray
    maxima_months: np.ndarray
    theta_hat: float | None  # extremal index n_clusters / n_exceedances; None without exceedances
    pi_star_hat: float

    @property
    def n_exceedances(self) -> int:
        return self.exceedance_days.size

    @property
    def n_clusters(self) -> int:
        return self.maxima.size

    @property
    def cluster_days(self) -> tuple:
        """1-based days of each cluster, one int array per cluster."""
        return tuple(np.split(self.exceedance_days, self.cluster_starts)[1:])

    @property
    def month_cluster_counts(self) -> np.ndarray:
        """Number of cluster maxima falling in each month (12,)."""
        return np.bincount(self.maxima_months, minlength=13)[1:]


def run_decluster(series: SummarySeries, thresholds: ThresholdModel, l: int = 3) -> ClusterSet:
    """Group exceedances of the monthly threshold into runs-based clusters.

    A cluster's maximum sits on its earliest day holding the largest value.
    Zero exceedances give an empty ClusterSet with theta_hat flagged as
    None rather than an error; downstream consumers must handle the flag.
    """
    if l < 1:
        raise ValueError(f"run length l must be >= 1, got {l}")
    exceed = np.flatnonzero(series.values > thresholds.u_by_month[series.months - 1])
    # a gap of >= l sub-threshold days between consecutive exceedances splits
    starts = np.flatnonzero(np.diff(exceed, prepend=-l - 1) > l)
    values = series.values[exceed]
    maxima = np.maximum.reduceat(values, starts)
    at_max = values == np.repeat(maxima, np.diff(starts, append=exceed.size))
    first = np.minimum.reduceat(np.where(at_max, np.arange(exceed.size), exceed.size), starts)
    maxima_days = exceed[first] + 1
    return ClusterSet(
        run_length_l=l, exceedance_days=exceed + 1, cluster_starts=starts,
        maxima=maxima, maxima_days=maxima_days, maxima_months=series.months[maxima_days - 1],
        theta_hat=maxima.size / exceed.size if exceed.size else None,
        pi_star_hat=maxima.size / series.n_days,
    )

