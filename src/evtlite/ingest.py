"""Loading and validation of ensemble run data.

A run is a plain CSV matrix of nonnegative daily precipitation values, one
row per day and one column per site. Month labels are assigned by folding a
repeating yearly calendar over the 1-based day index.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

NO_LEAP_MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
SAVE_BLOCK_ROWS = 4096  # rows per %-format in save_run: about 2.5 MB of text at 25 sites


@dataclass(frozen=True)
class Calendar:
    """Repeating yearly calendar.

    The default is the 365-day no-leap calendar common in climate model
    output; any 12-month pattern with month lengths in [28, 31] is accepted.
    """

    month_lengths: tuple[int, ...] = NO_LEAP_MONTH_LENGTHS

    def __post_init__(self) -> None:
        lengths = tuple(int(n) for n in self.month_lengths)
        if len(lengths) != 12:
            raise ValueError(f"expected 12 month lengths, got {len(lengths)}")
        if any(n < 28 or n > 31 for n in lengths):
            raise ValueError(f"month lengths must lie in [28, 31]: {lengths}")
        object.__setattr__(self, "month_lengths", lengths)

    @property
    def days_per_year(self) -> int:
        return int(sum(self.month_lengths))

    def months_for(self, n_days: int) -> np.ndarray:
        """Months (1..12) for day indices 1..n_days.

        The yearly pattern repeats and the final year may be partial, so day
        k * days_per_year + 1 is always the first day of month 1.
        """
        if n_days < 1:
            raise ValueError("n_days must be >= 1")
        bounds = np.cumsum(self.month_lengths)
        day_of_year = np.arange(n_days, dtype=np.int64) % self.days_per_year
        return np.searchsorted(bounds, day_of_year, side="right").astype(np.int64) + 1


@dataclass(frozen=True)
class EnsembleRun:
    """One climate run: daily site values plus per-day month labels."""

    run_id: int
    values: np.ndarray  # (n_days, n_sites), finite and >= 0
    months: np.ndarray  # (n_days,), in 1..12

    def __post_init__(self) -> None:
        if self.run_id < 1:
            raise ValueError(f"run_id must be >= 1, got {self.run_id}")
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        months = np.ascontiguousarray(self.months, dtype=np.int64)
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError(f"values must be 2-D with >= 1 site, got shape {values.shape}")
        ok = np.isfinite(values) & (values >= 0)
        if not ok.all():
            row, col = np.argwhere(~ok)[0]
            kind = "negative" if np.isfinite(values[row, col]) else "non-finite"
            raise ValueError(f"row {row + 1}: {kind} value {values[row, col]} in column {col + 1}")
        if months.shape != (values.shape[0],):
            raise ValueError("months length must equal the number of days")
        if months.size and (months.min() < 1 or months.max() > 12):
            raise ValueError("months must lie in 1..12")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "months", months)

    @property
    def n_days(self) -> int:
        return self.values.shape[0]

    @property
    def n_sites(self) -> int:
        return self.values.shape[1]


def _first_bad_row(path, skip_header: bool):
    """Scan a CSV for the first malformed row; returns (data_row, message)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        n_cols = None
        row_num = 0
        for i, row in enumerate(reader):
            if skip_header and i == 0:
                continue
            row_num += 1
            if not row:
                return row_num, "empty row"
            if n_cols is None:
                n_cols = len(row)
            if len(row) != n_cols:
                return row_num, f"expected {n_cols} columns, found {len(row)}"
            for j, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    return row_num, f"non-numeric value {cell!r} in column {j + 1}"
    return None


def _line_count(path) -> int:
    """Lines in a file, counting a last line without a newline; one pass over its bytes."""
    n, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            n += np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
            last = chunk[-1:]
    return n + (last != b"\n")


def load_run(path, run_id: int, calendar: Calendar = Calendar(), skip_header: bool = False) -> EnsembleRun:
    """Load one run from CSV and attach month labels from the calendar.

    Rejects malformed rows (empty and "#" lines included, since months fold
    over the row index), naming the 1-based data row (header excluded when
    skip_header is set); the path also prefixes EnsembleRun's value checks.
    """
    try:
        values = np.loadtxt(
            path,
            delimiter=",",
            skiprows=1 if skip_header else 0,
            ndmin=2,
            dtype=np.float64,
            comments=None,
        )
        # loadtxt skips empty lines; every other line is a data row or an error
        if values.shape[0] + int(skip_header) < _line_count(path):
            raise ValueError("empty line")
    except ValueError as exc:
        located = _first_bad_row(path, skip_header)
        if located is not None:
            row, msg = located
            raise ValueError(f"{path}: row {row}: {msg}") from exc
        raise ValueError(f"{path}: could not parse CSV: {exc}") from exc
    if values.size == 0:
        raise ValueError(f"{path}: file contains no data rows")
    try:
        return EnsembleRun(run_id=run_id, values=values, months=calendar.months_for(values.shape[0]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_run(run: EnsembleRun, path) -> None:
    """Write a run back to CSV with full float precision (round-trip safe).

    The bytes are those of np.savetxt(path, run.values, delimiter=",",
    fmt="%.17g"), written with one %-format per block of rows instead of one
    per row.
    """
    row = ",".join(["%.17g"] * run.n_sites) + "\n"
    with open(path, "w") as fh:
        for start in range(0, run.n_days, SAVE_BLOCK_ROWS):
            block = run.values[start:start + SAVE_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def validate_ensemble(runs: list[EnsembleRun]) -> None:
    """Check that all runs share day count, site count and calendar."""
    if not runs:
        raise ValueError("ensemble is empty")
    ref = runs[0]
    for run in runs[1:]:
        if run.n_days != ref.n_days or run.n_sites != ref.n_sites:
            raise ValueError(
                f"run {run.run_id}: shape ({run.n_days}, {run.n_sites}) does not match "
                f"run {ref.run_id} ({ref.n_days}, {ref.n_sites})"
            )
        if not np.array_equal(run.months, ref.months):
            raise ValueError(f"run {run.run_id}: calendar differs from run {ref.run_id}")
