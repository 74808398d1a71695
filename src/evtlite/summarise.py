"""Reduction of daily spatial fields to a single order statistic per day."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import EnsembleRun


@dataclass(frozen=True)
class SummarySeries:
    """Univariate daily series: the k-th smallest site value each day."""

    run_id: int
    order_k: int
    values: np.ndarray  # (n_days,)
    months: np.ndarray  # (n_days,)

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        months = np.ascontiguousarray(self.months, dtype=np.int64)
        if values.ndim != 1 or months.shape != values.shape:
            raise ValueError("values and months must be 1-D and the same length")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "months", months)

    @property
    def n_days(self) -> int:
        return self.values.size


def spatial_order_statistic(run: EnsembleRun, k: int) -> SummarySeries:
    """Per-day k-th smallest site value (k=1 is the spatial minimum).

    The k-th smallest exceeding a level v is equivalent to at least
    n_sites - k + 1 sites exceeding v, which is what makes a single
    order statistic sufficient for joint-exceedance events.
    """
    if not 1 <= k <= run.n_sites:
        raise ValueError(f"k must lie in 1..{run.n_sites}, got {k}")
    values = np.partition(run.values, k - 1, axis=1)[:, k - 1]
    return SummarySeries(run_id=run.run_id, order_k=k, values=values, months=run.months)
