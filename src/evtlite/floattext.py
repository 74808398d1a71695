"""float64 values and their decimal text, converted in numpy.

Formatter writes the "%.17g" text that np.savetxt writes, and PlainDecimals
reads plain decimals as np.loadtxt reads them, bit for bit. Both rest on one
exact product with a power of ten, _times_pow10. ingest reads and writes the
files; Lines reads a file's lines into the buffer that PlainDecimals reads.
"""

from __future__ import annotations

import functools
import io
import mmap

import numpy as np

_POW10 = np.array([float(10 ** s) for s in range(23)])  # exact doubles, up to 10**22
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _times_pow10(x: np.ndarray, s: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**s as its rounded product p and that product's error err, for 0 <= s <= 22.

    Dekker's two-product: x and 10**s split into 26-bit halves whose products
    float64 holds exactly, so every step is exact and p + err equals x * 10**s,
    unless a product under- or overflows. work is (5, x.size) float64 scratch that
    holds the steps; p and err are its first two rows.
    """
    p, err, hi, lo, part = work
    np.multiply(x, _POW10.take(s, out=part, mode="clip"), out=p)
    np.multiply(x, _SPLIT, out=hi)
    np.subtract(hi, x, out=lo)
    hi -= lo
    np.subtract(x, hi, out=lo)
    np.multiply(hi, _POW10_HI.take(s, out=part, mode="clip"), out=err)
    err -= p
    part *= lo
    err += part
    _POW10_LO.take(s, out=part, mode="clip")
    hi *= part
    err += hi
    lo *= part
    err += lo
    return p, err


# PlainDecimals converts plain decimals: cells of at most 24 bytes, digits with at most
# one ".", at least one digit and at most 22 after the point. The 24 bytes before a cell's
# separator are three little-endian words x, the cell right-aligned; x1 is x one byte on, so
# that x1's byte i is x's byte i - 1. Taking the integer part from x1 closes the point's gap,
# and the digits end right-aligned. A code per cell, n * 25 + p for its length n and point
# byte p (24 without a point), selects the bytes taken from x1 and the bytes kept.
_NO_POINT = 24
_PAD = b"0" * 24  # the first cell's window starts in this padding


@functools.cache  # built on the first read
def _cell_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per code: the bytes taken from x1 and the bytes kept, as three words each, and the
    digits after the point, -1 where the code is not a plain decimal."""
    from_x1 = np.zeros((26 * 25, 24), dtype=np.uint8)
    kept = np.zeros((26 * 25, 24), dtype=np.uint8)
    frac = np.full(26 * 25, -1)
    for n in range(1, 25):
        kept[n * 25 + _NO_POINT, 24 - n:] = 0xFF
        frac[n * 25 + _NO_POINT] = 0
        for p in range(max(1, 24 - n), 24 if n > 1 else 0):  # p = 0 would leave 23 digits after it
            from_x1[n * 25 + p, 25 - n:p + 1] = 0xFF
            kept[n * 25 + p, 25 - n:] = 0xFF
            frac[n * 25 + p] = 23 - p
    return from_x1.view(np.uint64), kept.view(np.uint64), frac


def _mapped(n_bytes: int) -> mmap.mmap:
    """n_bytes of zeroed scratch in an anonymous mapping, outside malloc's heap: no longer
    used, it goes back to the system whole and leaves malloc's thresholds as they were."""
    return mmap.mmap(-1, n_bytes)


class PlainDecimals:
    """Converts the lines that a Lines took last in numpy, up to n_values cells at a time,
    into buffers that every call reuses.

    A plain decimal's digits D, below 9e18, and its count f of digits after the point
    give D / 10**f, correctly rounded: the quotient q of D rounded to float64 is off by
    at most about an ulp, and the residual D - q * 10**f, exact by _times_pow10, says by
    how many (below 2**53, q is exact). A residual within 2**-20 of half an ulp, or
    below a power-of-two q, where the next ulp down is half, leaves the cell to Python's
    float, like every other cell. float reads an ASCII cell without "_" as np.loadtxt
    does, or refuses it; unlike an np.loadtxt call per piece, it leaves no buffers in
    the heap.
    """

    def __init__(self, n_values: int):
        space = np.frombuffer(_mapped(9 * 8 * n_values), dtype=np.uint64)
        self.words = space[:6 * n_values]  # two (cell, word) arrays, then five float rows
        self.ints = space[6 * n_values:].view(np.int64).reshape(3, n_values)

    def read(self, lines: Lines, out: np.ndarray) -> bool:
        """Write into out, of shape (n_rows, n_cols), the values of the n_rows lines that
        lines took last; False where they hold a "\\r" (where text mode would split them),
        or do not hold n_cols non-empty cells each, or a cell holds "_" or float refuses it."""
        n_rows, n_cols = out.shape
        if lines.buf.find(b"\r", len(_PAD), lines.stop) >= 0:
            return False
        buf = np.frombuffer(lines.buf, dtype=np.uint8, count=lines.stop)
        marks = np.flatnonzero(buf[len(_PAD):] <= ord("."))  # separators, points, signs, spaces
        marks += len(_PAD)
        kinds = buf[marks]
        is_end = kinds == ord(",")
        is_end |= kinds == ord("\n")
        ends = np.compress(is_end, marks)
        n = n_rows * n_cols
        if ends.size != n or not (buf[ends[n_cols - 1::n_cols]] == ord("\n")).all():
            return False  # each line holds one "\n", so the ends at n_cols - 1 mod n_cols are theirs
        code, nf, digits = self.ints[:, :n]
        np.subtract(ends[1:], ends[:-1], out=code[1:])
        code[0] = ends[0] - len(_PAD) + 1
        code -= 1  # the cell's length
        if not code.all():
            return False  # an empty cell
        np.minimum(code, 25, out=code)
        code *= 25
        code += _NO_POINT
        inner = np.flatnonzero(~is_end)  # the marks inside cells
        not_point = kinds[inner] <= ord("-")
        at = marks[inner]
        cell = inner
        cell -= np.arange(inner.size)  # a mark's cell: the ends before it
        not_point[1:] |= cell[1:] == cell[:-1]
        at -= ends[cell]
        np.maximum(at, -_NO_POINT, out=at)
        code[cell] += at
        code[cell[not_point]] = 0  # a second point, a sign or a space: no plain decimal
        from_x1, kept, frac = _cell_tables()
        windows = np.ndarray(buf.size - 23, dtype="V24", buffer=buf, strides=(1,))
        x = windows[ends - 24].view(np.uint64).reshape(n, 3)
        d, mask = self.words[:6 * n].reshape(2, n, 3)
        np.left_shift(x, np.uint64(8), out=d)  # x1, whose first byte no code takes
        np.right_shift(x.reshape(-1)[:-1], np.uint64(56), out=mask.reshape(-1)[1:])
        d.reshape(-1)[1:] += mask.reshape(-1)[1:]
        d ^= x
        d &= np.take(from_x1, code, axis=0, out=mask, mode="clip")
        d ^= x
        d ^= np.uint64(0x3030303030303030)  # a digit's byte to 0..9
        d &= np.take(kept, code, axis=0, out=mask, mode="clip")
        np.add(d, np.uint64(0x7676767676767676), out=x)  # a byte above 9 sets its top bit,
        x |= d  # as does a byte above 127
        top = digits.view(np.uint64)
        np.bitwise_or(x[:, 0], x[:, 1], out=top)
        top |= x[:, 2]
        top &= np.uint64(0x8080808080808080)
        ok = digits == 0
        np.take(frac, code, out=nf, mode="clip")
        ok &= nf >= 0
        for factor, shift, keep in ((10 * 2 ** 8 + 1, 8, 0x00FF00FF00FF00FF),
                                    (100 * 2 ** 16 + 1, 16, 0x0000FFFF0000FFFF),
                                    (10000 * 2 ** 32 + 1, 32, 2 ** 32 - 1)):  # eight digits to a number
            d *= np.uint64(factor)
            d >>= np.uint64(shift)
            d &= np.uint64(keep)
        ok &= d[:, 0].view(np.int64) < 900  # so that D < 9e18
        np.multiply(d[:, 0], np.uint64(10 ** 8), out=top)
        top += d[:, 1]
        top *= np.uint64(10 ** 8)
        top += d[:, 2]
        digits *= ok
        nf *= ok
        df, p10, q = x.view(np.float64).reshape(3, n)  # x, d and mask are spent
        work = self.words[:5 * n].view(np.float64).reshape(5, n)
        df[:] = digits
        np.take(_POW10, nf, out=p10, mode="clip")
        np.divide(df, p10, out=q)
        p, err = _times_pow10(q, nf, work)
        r, pw, j = work[:3]
        np.subtract(df, p, out=r)
        code[:] = df
        np.subtract(digits, code, out=code)  # D less its rounding
        r += code
        r -= err  # D - q * 10**f
        np.bitwise_and(q.view(np.uint64), np.uint64(0x7FF0000000000000), out=pw.view(np.uint64))
        np.maximum(pw, 2.0 ** -1022, out=pw)  # 2**52 ulps of q, or of the least normal where q is 0
        r *= 2.0 ** 52
        r /= pw
        r /= p10  # the exact quotient less q, in ulps of q
        np.rint(r, out=j)
        ok &= (q != pw) | (r >= 0)
        r -= j
        np.abs(r, out=r)
        ok &= r < 0.5 - 2.0 ** -20
        j *= pw
        j *= 2.0 ** -52
        values = np.add(q, j, out=out.reshape(n))
        redo = np.flatnonzero(~ok)
        if redo.size:  # float reads an ASCII cell without "_" as np.loadtxt does, or refuses it
            stops = ends[redo]
            starts = np.where(redo > 0, ends[redo - 1] + 1, len(_PAD))
            cells = [lines.buf[a:b].decode("ascii", "replace") for a, b in zip(starts.tolist(), stops.tolist())]
            if any("_" in cell for cell in cells):
                return False
            try:
                values[redo] = [float(cell) for cell in cells]
            except ValueError:  # a cell np.loadtxt refuses too
                return False
        return True


class Lines:
    """The lines of a binary file, read after _PAD into one buffer that each call reuses."""

    def __init__(self, fh, head: bytes):
        self.fh = fh
        self.buf = _mapped(max(io.DEFAULT_BUFFER_SIZE, 2 * (len(_PAD) + len(head))))
        self.is_newline = np.frombuffer(_mapped(len(self.buf)), dtype=bool)  # take's scan, reused like buf
        self.buf[:len(_PAD) + len(head)] = _PAD + head
        self.start, self.end = len(_PAD), len(_PAD) + len(head)  # the bytes not yet taken
        self.stop = len(_PAD)  # where the lines taken last end

    def tell(self) -> int:
        """The file offset of the first line not taken."""
        return self.fh.tell() - (self.end - self.start)

    def seek(self, offset: int) -> None:
        self.fh.seek(offset)
        self.start = self.end = self.stop = len(_PAD)

    def take(self, n_lines: int) -> int:
        """Move the next n_lines lines to self.buf[len(_PAD):self.stop], each ending in "\\n",
        and return how many they are; fewer only at the end of the file, where a last line
        gets the "\\n" it lacks. They stay there until the next call."""
        self.buf.move(len(_PAD), self.start, self.end - self.start)
        self.end -= self.start - len(_PAD)
        taken, self.stop = 0, len(_PAD)
        while taken < n_lines:  # the "\n" bytes after stop, found in one numpy scan
            mask = np.equal(np.frombuffer(self.buf, np.uint8, self.end - self.stop, self.stop), ord("\n"),
                            out=self.is_newline[:self.end - self.stop])
            if (newlines := np.flatnonzero(mask)[:n_lines - taken]).size:
                taken, self.stop = taken + newlines.size, self.stop + int(newlines[-1]) + 1
                continue
            if self.end == len(self.buf):  # too small for n_lines lines: double it
                buf = _mapped(2 * len(self.buf))
                buf[:self.end] = self.buf[:self.end]
                self.buf, self.is_newline = buf, np.frombuffer(_mapped(len(buf)), dtype=bool)
            with memoryview(self.buf) as free:
                got = self.fh.readinto(free[self.end:])
            if not got and self.stop == self.end:
                break
            if not got:  # the last line gets the "\n" it lacks, and the next scan takes it
                self.buf[self.end:self.end + 1] = b"\n"
            self.end += got or 1
        self.start = self.stop
        return taken

    def data(self) -> bytes:
        """The bytes of the lines taken last."""
        return self.buf[len(_PAD):self.stop]


# save_run renders each value into a 40-byte slot: an unused byte, "0.000", 17 (digit, ".")
# pairs and the separator, at byte 39 in place of the 17th digit's ".", which "%.17g" never
# prints (at X = 16 there is no point; at X <= 15 it sits at byte 7 + 2X <= 37). A mask row per
# (decimal exponent X in -4..16, significant digit count 1..17), and one each for +0 and a
# fallback, keeps its "%.17g" bytes.
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


def _nearest_scaled(x: np.ndarray, s: np.ndarray, work: np.ndarray, out: np.ndarray) -> None:
    """Write into out the integer nearest x * 10**s, ties to even, for 0 <= s <= 20;
    work is (5, x.size) float64 scratch.

    From 2**53, the product p of _times_pow10 is an even integer, so p + rint(err)
    is the nearest integer. Smaller products are truncated, larger ones clipped:
    both stay out of [1e16, 1e17).
    """
    p, err = _times_pow10(x, s, work)
    np.minimum(p, 2e17, out=p)
    np.copyto(out, p, casting="unsafe")
    np.rint(err, out=err)
    rounded = work[2].view(np.int64)
    np.copyto(rounded, err, casting="unsafe")
    out += rounded


class Formatter:
    """Formats blocks of up to n_values values as "%.17g" text, into buffers that every
    block reuses, so that no block allocates one of its own."""

    def __init__(self, n_values: int):
        self.slots = np.empty((n_values, 5), dtype=np.uint64)
        self.kept = np.empty((n_values, 40), dtype=bool)
        self.text = np.empty(n_values * 40, dtype=np.uint8)
        self.work = np.empty((9, n_values), dtype=np.int64)

    def format(self, x: np.ndarray, seps: np.ndarray) -> np.ndarray:
        """The "%.17g" text of the values x as uint8, each followed by its separator in seps."""
        slots, kept, work = self.slots[:x.size], self.kept[:x.size], self.work[:, :x.size]
        heads, pairs, trailing_zeros, masks = _slot_tables()
        xs = np.minimum(x, 1e18, out=work[0].view(np.float64))  # larger values print in exponent form
        log = work[1].view(np.float64)
        log[:] = 0.0
        np.log10(xs, out=log, where=x > 0)
        np.floor(log, out=log)
        exp10 = work[2]
        np.copyto(exp10, log, casting="unsafe")
        np.clip(exp10, -4, 16, out=exp10)
        digits = work[3]
        _nearest_scaled(xs, np.subtract(16, exp10, out=work[1]), work[4:].view(np.float64), digits)
        # false below 1e-4 and from 1e17 (exp10 was clipped), where log10 is one off next to
        # a power of ten, and where the 17th digit carries into the next decade
        ok = (digits >= 10 ** 16) & (digits < 10 ** 17)
        np.copyto(digits, 10 ** 16, where=~ok)
        q, r = digits, work[0]
        groups = work[4:8]
        for g in groups:  # floor division by a scalar is libdivide's; np.divmod is not
            np.floor_divide(q, 10 ** 4, out=r)
            np.multiply(r, 10 ** 4, out=g)
            np.subtract(q, g, out=g)
            q, r = r, q
        g4, g3, g2, g1 = groups
        trailing = np.take(trailing_zeros, g4, out=r, mode="clip")
        for k, g in enumerate((g3, g2, g1), start=1):  # only values with 4k trailing zeros look further
            more = np.flatnonzero(trailing == 4 * k)
            trailing[more] += trailing_zeros[g[more]]
        codes = np.add(exp10, 4, out=work[1])
        codes *= 17
        codes += 16
        codes -= trailing
        np.copyto(codes, _FALLBACK, where=~ok)
        codes[(x == 0) & ~np.signbit(x)] = _ZERO
        word = work[8].view(np.uint64)
        for column, (table, g) in enumerate(((heads, q), (pairs, g1), (pairs, g2), (pairs, g3), (pairs, g4))):
            slots[:, column] = np.take(table, g, out=word, mode="clip")
        slots.view(np.uint8)[:, 39] = seps
        masks.take(codes, axis=0, out=kept, mode="clip")
        ends = np.take(masks.sum(axis=1), codes, out=work[2], mode="clip")
        np.cumsum(ends, out=ends)
        text = self.text[:ends[-1]]
        slab = -(-x.size // 8)  # np.compress indexes each kept byte with 8: at most the slots' bytes
        for start in range(0, x.size, slab):
            stop = min(start + slab, x.size)
            np.compress(kept[start:stop].ravel(), slots[start:stop].view(np.uint8).ravel(),
                        out=text[ends[start - 1] if start else 0:ends[stop - 1]])
        fallback = np.flatnonzero(codes == _FALLBACK)
        if fallback.size:  # exponent form (below 1e-4, from 1e17, subnormals), -0 and the rare carries
            pieces = ["%.17g" % v for v in x[fallback].tolist()]
            at = ends[fallback] - 1  # a fallback keeps its separator alone
            text = np.insert(text, np.repeat(at, [len(p) for p in pieces]),
                             np.frombuffer("".join(pieces).encode(), dtype=np.uint8))
        return text
