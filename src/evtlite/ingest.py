"""Loading and validation of ensemble run data.

A run is a plain CSV matrix of nonnegative daily precipitation values, one
row per day and one column per site. Month labels are assigned by folding a
repeating yearly calendar over the 1-based day index.
"""

from __future__ import annotations

import functools
import io
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .floattext import Formatter, Lines, PlainDecimals

NO_LEAP_MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
SAVE_BLOCK_VALUES = 2 ** 15  # values per block in save_run: 1.3 MB each of slots and mask at any site count
READ_BLOCK_VALUES = 12800  # values per block in read_blocks: 512 rows at 25 sites


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

    @functools.lru_cache(maxsize=8)
    def months_for(self, n_days: int) -> np.ndarray:
        """Months (1..12) for day indices 1..n_days, as one read-only array per
        calendar and day count that every run of that length shares.

        The yearly pattern repeats and the final year may be partial, so the
        day after every whole number of years is the first day of month 1.
        """
        if n_days < 1:
            raise ValueError("n_days must be >= 1")
        year = np.repeat(np.arange(1, 13, dtype=np.int64), self.month_lengths)
        months = np.tile(year, -(-n_days // year.size))[:n_days]
        months.flags.writeable = False
        return months


def _check_values(values: np.ndarray, first_row: int = 0) -> None:
    """Refuse the first negative or non-finite value of a (rows, sites) block,
    naming its 1-based row (counted from first_row + 1) and column."""
    ok = np.isfinite(values) & (values >= 0)
    if not ok.all():
        row, col = np.argwhere(~ok)[0]
        kind = "negative" if np.isfinite(values[row, col]) else "non-finite"
        raise ValueError(f"row {first_row + row + 1}: {kind} value {values[row, col]} in column {col + 1}")


def _parses(line: str, **kwargs) -> bool:
    try:
        np.loadtxt([line], delimiter=",", comments=None, **kwargs)
    except ValueError:
        return False
    return True


def _first_bad_row(lines: list[str], n_cols: int):
    """The first malformed line of a block as (index in the block, message), or None.

    Cells are tested by np.loadtxt itself, so exactly what the parser accepts passes.
    """
    for i, line in enumerate(lines):
        if line == "\n":
            return i, "empty row"
        cells = line.rstrip("\n").split(",")
        if len(cells) != n_cols:
            return i, f"expected {n_cols} columns, found {len(cells)}"
        if _parses(line):
            continue
        for j, cell in enumerate(cells):
            if not _parses(line, usecols=j):
                return i, f"non-numeric value {cell!r} in column {j + 1}"
    return None


def _loadtxt_values(lines: list[str], n_cols: int, first_row: int) -> np.ndarray:
    """The values of a block as np.loadtxt reads its lines, or its first fault, named by
    its row in the file."""
    try:
        if "\n" in lines:  # loadtxt would skip it, and warn if nothing else is left
            raise ValueError("empty line")
        block = np.loadtxt(lines, delimiter=",", ndmin=2, dtype=np.float64, comments=None)
        if block.shape[1] != n_cols:
            raise ValueError("column count changed")
    except ValueError as exc:
        located = _first_bad_row(lines, n_cols)
        if located is None:
            raise ValueError(f"could not parse CSV: {exc}") from exc
        raise ValueError(f"row {first_row + located[0] + 1}: {located[1]}") from exc
    return block


def _skip_line(fh) -> None:
    """Skip a line of a binary file as a text-mode reader reads it, to its first "\\n", "\\r" or "\\r\\n"."""
    at = fh.tell()
    line = fh.readline()
    cr = line.find(b"\r")
    if cr >= 0:
        fh.seek(at + cr + 1 + (line[cr + 1:cr + 2] == b"\n"))


def read_blocks(path, skip_header: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first_row, values) for each block of READ_BLOCK_VALUES // n_cols rows of a run CSV.

    first_row counts the data rows before the block. Every block is checked
    before it is yielded: a malformed line (empty and "#" lines included,
    since months fold over the row index), a column count that differs from
    the first row's, or a negative or non-finite value is refused, naming its
    1-based data row (header excluded when skip_header is set); the caller
    adds the path. A file without data rows is refused after its last line.
    n_cols is counted on the first data line, so a block holds about
    READ_BLOCK_VALUES values however wide the file is.

    Values are those np.loadtxt reads, bit for bit. The file is read as bytes
    (floattext.Lines), lines ending where text mode ends them. Plain decimals are
    converted in numpy (floattext.PlainDecimals), a quarter block at a time, and
    every other cell by np.loadtxt. A block with a "\\r", an empty cell, a line of
    another column count or a cell np.loadtxt refuses is read again by np.loadtxt
    line by line (_loadtxt_values), which names its fault.
    """
    first_row = 0
    with open(path, "rb") as fh:
        if skip_header:
            _skip_line(fh)
        head = fh.readline()
        n_cols = head.split(b"\r", 1)[0].count(b",") + 1
        rows = max(1, READ_BLOCK_VALUES // n_cols)
        piece = max(1, rows // 4)  # rows converted at once, so that numpy's temporaries stay small
        decimals = PlainDecimals(piece * n_cols)
        lines = Lines(fh, head)
        while True:
            at, block, n_rows, plain = lines.tell(), np.empty((rows, n_cols)), 0, True
            while plain and n_rows < rows and (taken := lines.take(min(piece, rows - n_rows))):
                plain = decimals.read(lines, block[n_rows:n_rows + taken])
                n_rows += taken
            if not plain:  # the block again, as text mode reads it: a bad byte replaced, universal newlines
                lines.seek(at)
                lines.take(rows)
                text = lines.data().decode("ascii", "replace")
                block = _loadtxt_values(io.StringIO(text, newline=None).readlines(), n_cols, first_row)
            elif n_rows:
                block = block[:n_rows]
            else:
                break
            _check_values(block, first_row)
            yield first_row, block
            first_row += len(block)
    if first_row == 0:
        raise ValueError("file contains no data rows")


def save_run(values: np.ndarray, path) -> None:
    """Write a run's (n_days, n_sites) values to CSV with full float precision (round-trip safe).

    Refuses values that are not 2-D with >= 1 site and, as read_blocks does, the
    first negative or non-finite one. The bytes are those of np.savetxt(path,
    values, delimiter=",", fmt="%.17g"), rendered in numpy float64 a block of
    SAVE_BLOCK_VALUES // n_sites rows (at least one) at a time, so that no
    temporary grows with n_sites. The 17 digits of x are the integer nearest
    x * 10**(16 - X), X its decimal exponent, which floattext finds exactly,
    ties to even as "%.17g" rounds. Values printed in exponent form (below 1e-4,
    subnormals included, or from 1e17), -0 and the rare ones that carry into the
    next decade or where log10 is one off next to a power of ten are formatted by
    Python's % and spliced in.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] < 1:
        raise ValueError(f"values must be 2-D with >= 1 site, got shape {values.shape}")
    _check_values(values)
    n_days, n_sites = values.shape
    rows = max(1, SAVE_BLOCK_VALUES // n_sites)
    seps = np.tile(np.frombuffer(b"," * (n_sites - 1) + b"\n", dtype=np.uint8), min(n_days, rows))
    formatter = Formatter(seps.size)
    with open(path, "wb") as fh:
        for start in range(0, n_days, rows):
            x = values[start:start + rows].ravel()
            fh.write(formatter.format(x, seps[:x.size]))
