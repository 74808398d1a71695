"""Run declustering of threshold exceedances and the extremal index.

Two exceedances share a cluster when fewer than l sub-threshold days
separate them; a gap of exactly l starts a new cluster. The extremal index
is the inverse of the mean cluster size and links clustered to declustered
exceedance probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .summarise import SummarySeries
from .threshold import ThresholdModel


@dataclass(frozen=True)
class ClusterSet:
    """Declustered exceedances of one run."""

    run_id: int
    run_length_l: int
    n_days: int
    cluster_days: tuple    # tuple of int arrays, 1-based day indices
    cluster_values: tuple  # tuple of float arrays, matching cluster_days
    maxima: np.ndarray
    maxima_days: np.ndarray
    maxima_months: np.ndarray
    n_exceedances: int
    theta_hat: float | None  # None when there are no exceedances
    pi_star_hat: float

    @property
    def n_clusters(self) -> int:
        return self.maxima.size

    @property
    def month_cluster_counts(self) -> np.ndarray:
        """Number of cluster maxima falling in each month (12,)."""
        return np.bincount(self.maxima_months, minlength=13)[1:]

    def to_dict(self) -> dict:
        return {
            "run_id": int(self.run_id),
            "run_length_l": int(self.run_length_l),
            "n_days": int(self.n_days),
            "cluster_days": [[int(d) for d in days] for days in self.cluster_days],
            "maxima": [float(v) for v in self.maxima],
            "maxima_days": [int(d) for d in self.maxima_days],
            "maxima_months": [int(m) for m in self.maxima_months],
            "n_exceedances": int(self.n_exceedances),
            "theta_hat": None if self.theta_hat is None else float(self.theta_hat),
            "pi_star_hat": float(self.pi_star_hat),
        }

    @classmethod
    def from_dict(cls, d: dict, values_by_day: np.ndarray | None = None) -> "ClusterSet":
        cluster_days = tuple(np.asarray(days, dtype=np.int64) for days in d["cluster_days"])
        if values_by_day is not None:
            cluster_values = tuple(values_by_day[days - 1] for days in cluster_days)
        else:
            cluster_values = tuple(np.full(days.size, np.nan) for days in cluster_days)
        return cls(
            run_id=int(d["run_id"]),
            run_length_l=int(d["run_length_l"]),
            n_days=int(d["n_days"]),
            cluster_days=cluster_days,
            cluster_values=cluster_values,
            maxima=np.asarray(d["maxima"], dtype=np.float64),
            maxima_days=np.asarray(d["maxima_days"], dtype=np.int64),
            maxima_months=np.asarray(d["maxima_months"], dtype=np.int64),
            n_exceedances=int(d["n_exceedances"]),
            theta_hat=None if d["theta_hat"] is None else float(d["theta_hat"]),
            pi_star_hat=float(d["pi_star_hat"]),
        )


def run_decluster(series: SummarySeries, thresholds: ThresholdModel, l: int = 3) -> ClusterSet:
    """Group exceedances of the monthly threshold into runs-based clusters.

    Zero exceedances give an empty ClusterSet with theta_hat flagged as
    None rather than an error; downstream consumers must handle the flag.
    """
    if l < 1:
        raise ValueError(f"run length l must be >= 1, got {l}")
    u = thresholds.u_by_month[series.months - 1]
    exceed_days = np.flatnonzero(series.values > u) + 1  # 1-based
    if exceed_days.size == 0:
        return ClusterSet(
            run_id=series.run_id, run_length_l=l, n_days=series.n_days,
            cluster_days=(), cluster_values=(),
            maxima=np.empty(0), maxima_days=np.empty(0, dtype=np.int64),
            maxima_months=np.empty(0, dtype=np.int64),
            n_exceedances=0, theta_hat=None, pi_star_hat=0.0,
        )
    # gap of >= l sub-threshold days between consecutive exceedances splits
    gaps = np.diff(exceed_days) - 1
    breaks = np.flatnonzero(gaps >= l) + 1
    cluster_days = tuple(np.split(exceed_days, breaks))
    cluster_values = tuple(series.values[days - 1] for days in cluster_days)
    max_idx = [int(np.argmax(vals)) for vals in cluster_values]  # earliest day on ties
    maxima = np.array([vals[i] for vals, i in zip(cluster_values, max_idx)])
    maxima_days = np.array([days[i] for days, i in zip(cluster_days, max_idx)], dtype=np.int64)
    maxima_months = series.months[maxima_days - 1]
    cs = ClusterSet(
        run_id=series.run_id, run_length_l=l, n_days=series.n_days,
        cluster_days=cluster_days, cluster_values=cluster_values,
        maxima=maxima, maxima_days=maxima_days, maxima_months=maxima_months,
        n_exceedances=int(exceed_days.size),
        theta_hat=None,
        pi_star_hat=maxima.size / series.n_days,
    )
    return replace(cs, theta_hat=extremal_index(cs))


def extremal_index(cs: ClusterSet) -> float:
    """Inverse of the mean cluster size, n_clusters / n_exceedances."""
    if cs.n_exceedances < 1:
        raise ValueError("extremal index is undefined for an empty cluster set")
    return cs.n_clusters / cs.n_exceedances


def decluster_correction(p_star, theta: float):
    """Map declustered exceedance probabilities back to the clustered scale,
    1 - (1 - p_star)**theta elementwise; theta = 1 is the identity, exactly."""
    p = np.asarray(p_star, dtype=np.float64)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"p_star must lie in [0, 1], got {p_star}")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    out = p.copy() if theta == 1.0 else 1.0 - (1.0 - p) ** theta
    return float(out) if np.ndim(p_star) == 0 else out
