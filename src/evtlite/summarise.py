"""Reduction of daily spatial fields to a single order statistic per day."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import Calendar, read_blocks


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
        if not np.all(np.isfinite(values)):
            raise ValueError("summary series values must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "months", months)

    @property
    def n_days(self) -> int:
        return self.values.size


def _kth_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Per-row k-th smallest of a (days, sites) array, in an array of its own."""
    if not 1 <= k <= values.shape[1]:
        raise ValueError(f"k must lie in 1..{values.shape[1]}, got {k}")
    return np.partition(values, k - 1, axis=1)[:, k - 1].copy()


def read_series(path, k: int, run_id: int = 1, calendar: Calendar = Calendar(),
                skip_header: bool = False) -> SummarySeries:
    """The summary series of a run CSV: each day's k-th smallest site value (k=1 is the
    spatial minimum), reduced block by block as read_blocks yields them, so the run's
    values are never held. The k-th smallest exceeds a level v exactly when at least
    n_sites - k + 1 sites do, which makes one order statistic sufficient for joint-exceedance
    events. Its errors are those of read_blocks and the k check, without the path."""
    values = np.concatenate([_kth_smallest(block, k) for _, block in read_blocks(path, skip_header)])
    return SummarySeries(run_id=run_id, order_k=k, values=values, months=calendar.months_for(values.size))
