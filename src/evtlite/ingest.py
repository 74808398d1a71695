"""Loading and validation of ensemble run data.

A run is a plain CSV matrix of nonnegative daily precipitation values, one
row per day and one column per site. Month labels are assigned by folding a
repeating yearly calendar over the 1-based day index.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

NO_LEAP_MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
SAVE_BLOCK_VALUES = 2 ** 15  # values per block in save_run: 1.3 MB each of slots and mask at any site count
READ_BLOCK_VALUES = 12800  # values per block in read_blocks: 512 rows, about 0.4 MB of lines and values, at 25 sites


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


def _first_bad_row(lines: list[str], n_cols: int | None):
    """The first malformed line of a block as (index in the block, message), or None.

    Cells are tested by np.loadtxt itself, so exactly what the parser accepts passes.
    """
    for i, line in enumerate(lines):
        if line == "\n":
            return i, "empty row"
        cells = line.rstrip("\n").split(",")
        n_cols = n_cols or len(cells)
        if len(cells) != n_cols:
            return i, f"expected {n_cols} columns, found {len(cells)}"
        if _parses(line):
            continue
        for j, cell in enumerate(cells):
            if not _parses(line, usecols=j):
                return i, f"non-numeric value {cell!r} in column {j + 1}"
    return None


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
    """
    first_row, n_cols = 0, None
    with open(path, encoding="ascii", errors="replace") as fh:  # a byte no number holds is a bad cell
        if skip_header:
            next(fh, None)
        head = fh.readline()
        rows = max(1, READ_BLOCK_VALUES // (head.count(",") + 1))
        data = itertools.chain([head] if head else [], fh)
        while lines := list(itertools.islice(data, rows)):
            try:
                if "\n" in lines:  # loadtxt would skip it, and warn if nothing else is left
                    raise ValueError("empty line")
                block = np.loadtxt(lines, delimiter=",", ndmin=2, dtype=np.float64, comments=None)
                if n_cols is not None and block.shape[1] != n_cols:
                    raise ValueError("column count changed")
            except ValueError as exc:
                located = _first_bad_row(lines, n_cols)
                if located is None:
                    raise ValueError(f"could not parse CSV: {exc}") from exc
                raise ValueError(f"row {first_row + located[0] + 1}: {located[1]}") from exc
            _check_values(block, first_row)
            n_rows, n_cols = len(lines), block.shape[1]
            del lines  # only the values are held while the caller reduces them
            yield first_row, block
            first_row += n_rows
    if first_row == 0:
        raise ValueError("file contains no data rows")


# save_run renders each value into a 40-byte slot: an unused byte, "0.000", 17 (digit, ".")
# pairs and the separator, at byte 39 in place of the 17th digit's ".", which "%.17g" never
# prints (at X = 16 there is no point; at X <= 15 it sits at byte 7 + 2X <= 37). A mask row per
# (decimal exponent X in -4..16, significant digit count 1..17), and one each for +0 and a
# fallback, keeps its "%.17g" bytes.
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
    masks = np.zeros((21 * 17 + 2, 40), dtype=bool)
    masks[:, 39] = True
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


def _format_block(x: np.ndarray, seps: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The "%.17g" text of the values x as uint8, each followed by its separator in seps."""
    heads, pairs, trailing_zeros, masks = _slot_tables()
    xs = np.minimum(x, 1e18)  # all larger values print in exponent form; keeps the split finite
    exp10 = np.floor(np.log10(np.where(x > 0, xs, 1.0))).astype(np.int64).clip(-4, 16)
    digits = _nearest_scaled(xs, 16 - exp10)
    # false below 1e-4 and from 1e17 (exp10 was clipped), where log10 is one off next to
    # a power of ten, and where the 17th digit carries into the next decade
    ok = (digits >= 10 ** 16) & (digits < 10 ** 17)
    q = np.where(ok, digits, 10 ** 16)
    groups = []
    for _ in range(4):  # floor division by a scalar is libdivide's; np.divmod is not
        r = q // 10 ** 4
        groups.append(q - r * 10 ** 4)
        q = r
    g4, g3, g2, g1, g0 = *groups, q
    trailing = trailing_zeros[g4]
    for k, g in enumerate((g3, g2, g1), start=1):  # only values whose last 4k digits are zeros look further
        more = np.flatnonzero(trailing == 4 * k)
        trailing[more] += trailing_zeros[g[more]]
    codes = np.where(ok, (exp10 + 4) * 17 + 16 - trailing, _FALLBACK)
    codes[(x == 0) & ~np.signbit(x)] = _ZERO
    slots[:, 0] = heads[g0]
    for word, g in enumerate((g1, g2, g3, g4), start=1):
        slots[:, word] = pairs[g]
    slots.view(np.uint8)[:, 39] = seps
    text = np.compress(masks.take(codes, axis=0).ravel(), slots.view(np.uint8).ravel())
    fallback = np.flatnonzero(codes == _FALLBACK)
    if fallback.size:  # exponent form (below 1e-4, from 1e17, subnormals), -0 and the rare carries
        pieces = ["%.17g" % v for v in x[fallback].tolist()]
        at = np.cumsum(masks.sum(axis=1)[codes])[fallback] - 1  # a fallback keeps its separator alone
        text = np.insert(text, np.repeat(at, [len(p) for p in pieces]),
                         np.frombuffer("".join(pieces).encode(), dtype=np.uint8))
    return text


def save_run(values: np.ndarray, path) -> None:
    """Write a run's (n_days, n_sites) values to CSV with full float precision (round-trip safe).

    Refuses values that are not 2-D with >= 1 site and, as read_blocks does, the
    first negative or non-finite one. The bytes are those of np.savetxt(path,
    values, delimiter=",", fmt="%.17g"), rendered in numpy float64 a block of
    SAVE_BLOCK_VALUES // n_sites rows (at least one) at a time, so that no
    temporary grows with n_sites. The 17 digits of x are the integer nearest
    x * 10**(16 - X), X its decimal exponent, which _nearest_scaled finds exactly,
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
    slots = np.empty((seps.size, 5), dtype=np.uint64)
    with open(path, "wb") as fh:
        for start in range(0, n_days, rows):
            x = values[start:start + rows].ravel()
            fh.write(_format_block(x, seps[:x.size], slots[:x.size]))
