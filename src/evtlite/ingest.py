"""Loading and validation of ensemble run data.

A run is a plain CSV matrix of nonnegative daily precipitation values, one
row per day and one column per site. Month labels are assigned by folding a
repeating yearly calendar over the 1-based day index.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

NO_LEAP_MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
SAVE_BLOCK_ROWS = 4096  # rows per block in save_run: bounds its temporaries, about 40 MB at 25 sites


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


# save_run renders each value into a 48-byte slot: an unused byte, "0.000", 17 (digit, ".")
# pairs and, at byte 40, the separator. A mask row per (decimal exponent X in -4..16,
# significant digit count 1..17), and one each for +0 and a fallback, keeps its "%.17g" bytes.
_POW10 = np.array([float(10 ** s) for s in range(21)])  # exact doubles (up to 10**22)
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_ZERO, _FALLBACK = 21 * 17, 21 * 17 + 1  # mask rows after the 21 x 17 (X, digit count) rows


@functools.cache  # built on the first save_run, so commands that write no CSV never pay for it
def _slot_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Head words by leading digit; (digit, ".") pair words and trailing zeros of 0000..9999; masks."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    pairs = np.insert(digits + ord("0"), [1, 2, 3, 4], ord("."), axis=1).astype(np.uint8).view(np.uint64).ravel()
    heads = np.frombuffer(b"".join(b" 0.000%d." % d for d in range(10)), dtype=np.uint64)
    masks = np.zeros((21 * 17 + 2, 48), dtype=bool)
    masks[:, 40] = True
    masks[_ZERO, 1] = True
    for x in range(-4, 17):
        for nd in range(1, 18):
            row = masks[(x + 4) * 17 + nd - 1]
            shown = max(nd, x + 1)  # %g strips trailing zeros only after the point
            row[6:6 + 2 * shown:2] = True
            if x < 0:
                row[1:2 - x] = True  # "0." and the zeros before the first digit
            elif shown > x + 1:
                row[7 + 2 * x] = True
    return heads, pairs, np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1), masks


def _nearest_scaled(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The integer nearest x * 10**s, ties to even, for 0 <= s <= 20.

    Dekker's two-product gives x * 10**s exactly as p + err in float64; from
    2**53, p is an even integer, so p + rint(err) is the nearest integer. Smaller
    products are truncated, larger ones clipped: both stay out of [1e16, 1e17).
    """
    p = x * _POW10[s]
    c = _SPLIT * x
    hi = c - (c - x)
    lo = x - hi
    err = lo * _POW10_LO[s] - (((p - hi * _POW10_HI[s]) - lo * _POW10_HI[s]) - hi * _POW10_LO[s])
    return np.minimum(p, 2e17).astype(np.int64) + np.rint(err).astype(np.int64)


def _format_block(x: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The "%.17g" text of the values x as uint8, each followed by the separator already in slots."""
    heads, pairs, trailing_zeros, masks = _slot_tables()
    xs = np.minimum(x, 1e18)  # all larger values print in exponent form; keeps the split finite
    exp10 = np.floor(np.log10(np.where(x > 0, xs, 1.0))).astype(np.int64).clip(-4, 16)
    digits = _nearest_scaled(xs, 16 - exp10)
    # false below 1e-4 and from 1e17 (exp10 was clipped), where log10 is one off next to
    # a power of ten, and where the 17th digit carries into the next decade
    ok = (digits >= 10 ** 16) & (digits < 10 ** 17)
    q, g4 = np.divmod(np.where(ok, digits, 10 ** 16), 10 ** 4)
    q, g3 = np.divmod(q, 10 ** 4)
    q, g2 = np.divmod(q, 10 ** 4)
    g0, g1 = np.divmod(q, 10 ** 4)
    trailing = trailing_zeros[g4]
    for k, g in enumerate((g3, g2, g1), start=1):
        trailing = np.where(trailing == 4 * k, 4 * k + trailing_zeros[g], trailing)
    codes = np.where(ok, (exp10 + 4) * 17 + 16 - trailing, _FALLBACK)
    codes[(x == 0) & ~np.signbit(x)] = _ZERO
    slots[:, 0] = heads[g0]
    for word, g in enumerate((g1, g2, g3, g4), start=1):
        slots[:, word] = pairs[g]
    text = np.compress(masks.take(codes, axis=0).ravel(), slots.view(np.uint8).ravel())
    fallback = np.flatnonzero(codes == _FALLBACK)
    if fallback.size:  # exponent form (below 1e-4, from 1e17, subnormals), -0 and the rare carries
        pieces = ["%.17g" % v for v in x[fallback].tolist()]
        seps = np.cumsum(masks.sum(axis=1)[codes])[fallback] - 1  # a fallback keeps its separator alone
        text = np.insert(text, np.repeat(seps, [len(p) for p in pieces]),
                         np.frombuffer("".join(pieces).encode(), dtype=np.uint8))
    return text


def save_run(run: EnsembleRun, path) -> None:
    """Write a run back to CSV with full float precision (round-trip safe).

    The bytes are those of np.savetxt(path, run.values, delimiter=",", fmt="%.17g"),
    rendered in numpy float64 a block of SAVE_BLOCK_ROWS rows at a time. The 17
    digits of x are the integer nearest x * 10**(16 - X), X its decimal exponent,
    which _nearest_scaled finds exactly, ties to even as "%.17g" rounds. Values
    printed in exponent form (below 1e-4, subnormals included, or from 1e17), -0
    and the rare ones that carry into the next decade or where log10 is one off
    next to a power of ten are formatted by Python's % and spliced in.
    """
    rows = min(run.n_days, SAVE_BLOCK_ROWS)
    slots = np.empty((rows * run.n_sites, 6), dtype=np.uint64)
    slots.view(np.uint8)[:, 40] = np.tile(np.frombuffer(b"," * (run.n_sites - 1) + b"\n", dtype=np.uint8), rows)
    with open(path, "wb") as fh:
        for start in range(0, run.n_days, SAVE_BLOCK_ROWS):
            x = run.values[start:start + SAVE_BLOCK_ROWS].ravel()
            fh.write(_format_block(x, slots[:x.size]))


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
