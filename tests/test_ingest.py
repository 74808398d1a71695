import decimal
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import evtlite as ev
from evtlite.ingest import NO_LEAP_MONTH_LENGTHS, READ_BLOCK_VALUES, SAVE_BLOCK_VALUES


def traced_peak_mb(call):
    """The peak of what tracemalloc traces while call() runs, numpy's buffers included, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def write_csv(tmp_path, rows, name="run.csv"):
    path = tmp_path / name
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
    return path


class TestCalendar:
    def test_default_is_noleap(self):
        cal = ev.Calendar()
        assert sum(cal.month_lengths) == 365
        assert cal.month_lengths == NO_LEAP_MONTH_LENGTHS

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            ev.Calendar(month_lengths=(31,) * 11)
        with pytest.raises(ValueError):
            ev.Calendar(month_lengths=(27,) + NO_LEAP_MONTH_LENGTHS[1:])

    def test_fold_over_year_boundary(self):
        months = ev.Calendar().months_for(400)
        # day 366 restarts the yearly pattern
        assert months[365] == 1
        # day 396 is the 31st day of year two, still January; 397 opens February
        assert months[395] == 1
        assert months[396] == 2
        assert months[0] == 1
        assert months[31] == 2  # day 32 = Feb 1

    def test_fold_is_pure(self):
        cal = ev.Calendar()
        assert np.array_equal(cal.months_for(500), cal.months_for(500))
        counts = np.bincount(cal.months_for(365), minlength=13)[1:]
        assert np.array_equal(counts, np.array(NO_LEAP_MONTH_LENGTHS))

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(28, 31), min_size=12, max_size=12),
           n_days=st.integers(1, 1500))
    def test_fold_equals_the_day_of_year_arithmetic(self, lengths, n_days):
        # day i (from 0) falls in the first month whose cumulative length exceeds i mod the year
        cal = ev.Calendar(tuple(lengths))
        day_of_year = np.arange(n_days, dtype=np.int64) % sum(lengths)
        want = np.searchsorted(np.cumsum(lengths), day_of_year, side="right").astype(np.int64) + 1
        got = cal.months_for(n_days)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("n_days", [0, -1])
    def test_no_days_refused(self, n_days):
        with pytest.raises(ValueError, match="n_days must be >= 1"):
            ev.Calendar().months_for(n_days)


class TestLoadRun:
    def test_four_day_zero_file(self, tmp_path):
        path = write_csv(tmp_path, [[0.0, 0.0]] * 4)
        series = ev.read_series(path, 1)
        assert series.n_days == 4 and series.run_id == 1 and series.order_k == 1
        assert np.array_equal(series.months, np.array([1, 1, 1, 1]))
        assert [(first, block.shape) for first, block in ev.read_blocks(path)] == [(0, (4, 2))]

    def test_negative_value_names_row(self, tmp_path):
        path = write_csv(tmp_path, [[0.1, 0.2], [0.3, 0.4], [-0.1, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="row 3"):
            ev.read_series(path, 1)

    def test_nan_rejected(self, tmp_path):
        path = write_csv(tmp_path, [[0.1, 0.2], [float("nan"), 0.4]])
        with pytest.raises(ValueError, match="row 2"):
            ev.read_series(path, 1)

    def test_malformed_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.2\n0.3,oops\n")
        with pytest.raises(ValueError, match="row 2"):
            ev.read_series(path, 1)

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.1,0.2\n0.3,0.4\n0.5,0.6,0.7\n")
        with pytest.raises(ValueError, match="row 3"):
            ev.read_series(path, 1)

    def test_header_flag(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("site_a,site_b\n0.1,0.2\n0.3,0.4\n")
        series = ev.read_series(path, 2, skip_header=True)
        assert series.values.tolist() == [0.2, 0.4]
        with pytest.raises(ValueError):
            ev.read_series(path, 1)

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.gamma(2.0, 1.5, size=(40, 3))
        path = write_csv(tmp_path, values.tolist())
        read = np.concatenate([block for _, block in ev.read_blocks(path)])
        assert np.array_equal(read, values)
        out = tmp_path / "copy.csv"
        ev.save_run(read, out)
        again = np.concatenate([block for _, block in ev.read_blocks(out)])
        assert read.tobytes() == again.tobytes()

    @pytest.mark.parametrize("cell", ["oops", "1_000", '"1"', "0x10", "", "\udcff"],
                             ids=["word", "underscore", "quoted", "hex", "empty", "undecodable-byte"])
    def test_cell_the_parser_refuses_names_row_and_column(self, tmp_path, cell):
        # float() reads 1_000 and csv.reader unquotes "1", but np.loadtxt takes neither
        path = tmp_path / "bad.csv"
        path.write_bytes(f"0.1,0.2\n0.3,{cell}\n".encode(errors="surrogateescape"))
        shown = "\ufffd" if cell == "\udcff" else cell  # as the ASCII reader replaces the byte
        with pytest.raises(ValueError) as info:
            ev.read_series(path, 1)
        assert str(info.value) == f"row 2: non-numeric value {shown!r} in column 2"

    @pytest.mark.parametrize("text, skip_header, message", [
        ("", False, "file contains no data rows"),
        ("site_a,site_b\n", True, "file contains no data rows"),
        ("\n\n", False, "row 1: empty row"),
    ], ids=["empty", "header-only", "blank-lines"])
    def test_no_data_refused_without_a_warning(self, tmp_path, text, skip_header, message):
        # np.loadtxt warns "input contained no data" on such input: no reader may call it so
        path = tmp_path / "run.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                ev.read_series(path, 1, skip_header=skip_header)
            assert str(info.value) == message

    def test_whole_blocks_read_without_a_warning(self, tmp_path):
        rows = READ_BLOCK_VALUES // 3
        values = np.arange(2 * rows * 3, dtype=np.float64).reshape(-1, 3)
        path = tmp_path / "run.csv"
        np.savetxt(path, values, delimiter=",", fmt="%.17g")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = list(ev.read_blocks(path))
            series = ev.read_series(path, 2)
        assert [first for first, _ in blocks] == [0, rows]
        assert np.array_equal(np.concatenate([b for _, b in blocks]), values)
        assert np.array_equal(series.values, values[:, 1])

    def test_wide_file_read_in_blocks_of_values(self, tmp_path):
        # blocks of 512 rows held 2.56 million of this file's values at once, 41 MB traced
        # (97 MB on a 1,200 x 5,000 run of 17-digit values)
        path = tmp_path / "wide.csv"
        path.write_text(("0.5," * 4999 + "0.5\n") * 700)
        assert [first for first, _ in ev.read_blocks(path)] == list(range(0, 700, READ_BLOCK_VALUES // 5000))
        assert traced_peak_mb(lambda: ev.read_series(path, 3)) <= 16


FAULTS = ("negative", "nan", "word", "underscore", "empty row", "extra column")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_sites=st.integers(1, 30), header=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_streamed_series_and_errors_equal_the_loaded_runs(tmp_path_factory, data, n_sites, header, seed):
    B = READ_BLOCK_VALUES // n_sites  # rows per block
    n_days = data.draw(st.sampled_from([1, B - 1, B, B + 1, 2 * B + 3]), label="n_days")
    rng = np.random.default_rng(seed)
    values = np.round(rng.gamma(0.5, 2.0, size=(n_days, n_sites)), 1)  # rounded: ties and zeros
    values[rng.random(values.shape) < 0.1] = -0.0
    path = tmp_path_factory.mktemp("blocks") / "run.csv"
    np.savetxt(path, values, delimiter=",", fmt="%.17g",
               header=",".join(f"site_{j}" for j in range(n_sites)) if header else "", comments="")
    k = data.draw(st.integers(1, n_sites), label="k")
    series = ev.read_series(path, k, run_id=3, skip_header=header)
    # the reference reads the whole file at once, with the parser the blocks use
    loaded = np.loadtxt(path, delimiter=",", skiprows=int(header), ndmin=2)
    expected = np.partition(loaded, k - 1, axis=1)[:, k - 1]
    assert series.values.tobytes() == expected.tobytes()
    assert np.array_equal(series.months, ev.Calendar().months_for(n_days))
    assert series.run_id == 3 and series.order_k == k

    # one fault on either side of the first block edge is named by its row and column in the file
    row = data.draw(st.sampled_from(sorted({min(B, n_days), min(B + 1, n_days)})), label="row")
    col = data.draw(st.integers(1, n_sites), label="col")
    fault = data.draw(st.sampled_from(FAULTS), label="fault")
    assume(fault != "extra column" or row >= 2)  # the first row sets the column count
    lines = path.read_text().splitlines(keepends=True)
    at = row - 1 + header
    cells = lines[at].rstrip("\n").split(",")
    if fault == "empty row":
        lines.insert(at, "\n")
        message = f"row {row}: empty row"
    elif fault == "extra column":
        lines[at] = ",".join(cells + ["1"]) + "\n"
        message = f"row {row}: expected {n_sites} columns, found {n_sites + 1}"
    else:
        cells[col - 1] = {"negative": "-2.5", "nan": "nan", "word": "oops", "underscore": "1_000"}[fault]
        lines[at] = ",".join(cells) + "\n"
        message = {"negative": f"row {row}: negative value -2.5 in column {col}",
                   "nan": f"row {row}: non-finite value nan in column {col}"}.get(
            fault, f"row {row}: non-numeric value {cells[col - 1]!r} in column {col}")
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        ev.read_series(path, k, skip_header=header)
    assert str(info.value) == message


_DOUBLES = st.floats(min_value=0, allow_nan=False, allow_infinity=False)
_TRICKY_CELLS = ["9007199254740993", "9007199254740993.0", "4503599627370497.5", "0.30000000000000004",
                 "1.7976931348623157e308", "2.2250738585072014e-308", "5e-324", "9223372036854775807",
                 "9223372036854775808", "8999999999999999999", "9000000000000000001", "123456789012345678.9",
                 "0.0000000000000000000001", "1" * 23, "1" * 24, ".5", "5.", "0.5", "1", "2", "1e22", "1e23",
                 "0.49999999999999997", "0.99999999999999994", "1.99999999999999985",  # just below a power of two
                 " 1.5", "1.5 ", "\t2", "+3", "\x0b4", "\x1c6", "1.e1", "+.5"]  # which float reads, or not


@st.composite
def cell_texts(draw):
    """A cell in one of the forms np.loadtxt reads: the writer's, Python's repr, fixed point,
    integers without a point, zeros, leading zeros, -0, exponent forms and midpoints of two
    doubles, exact or a hair off."""
    form = draw(st.sampled_from(["%.17g", "repr", "fixed", "integer", "zero", "leading zeros", "-0",
                                 "exponent", "midpoint", "tricky"]))
    if form == "%.17g":
        return "%.17g" % draw(_DOUBLES)
    if form == "repr":
        return repr(draw(_DOUBLES))
    if form == "fixed":
        return "%.*f" % (draw(st.integers(0, 25)), draw(st.floats(0, 1e6)))
    if form == "integer":
        return str(draw(st.integers(0, 10 ** draw(st.integers(1, 19)) - 1)))
    if form == "zero":
        return draw(st.sampled_from(["0", "00", "0.0", ".0", "0.", "0." + "0" * 21]))
    if form == "leading zeros":
        return "0" * draw(st.integers(1, 12)) + "%.*f" % (draw(st.integers(0, 8)), draw(st.floats(0, 1e4)))
    if form == "-0":
        return draw(st.sampled_from(["-0", "-0.0", "-0.000"]))
    if form == "exponent":  # rounded to fewer digits, the largest doubles would read as inf
        return draw(st.sampled_from(["%.17e", "%.3E", "%g"])) % draw(st.floats(0, 1e300))
    if form == "tricky":
        return draw(st.sampled_from(_TRICKY_CELLS))
    # the exact midpoint of a double and the next one up: a half-integer from 2**52, where
    # the digits fit in an int64, or the long expansion of any other double
    x = draw(st.one_of(st.floats(2.0 ** 52, 2.0 ** 62), _DOUBLES.filter(lambda v: v < 1e300)))
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        mid = (decimal.Decimal(x) + decimal.Decimal(float(np.nextafter(x, np.inf)))) / 2
        text = format(mid, "f")
    return text + draw(st.sampled_from(["", "0", "000", "0001"] if "." in text else ["", ".0", ".0001"]))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n_cols=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_cells_read_as_loadtxt_reads_them_bit_for_bit(tmp_path_factory, data, n_cols, seed):
    cells = data.draw(st.lists(cell_texts(), min_size=1, max_size=30), label="cells")
    n_rows = data.draw(st.integers(1, READ_BLOCK_VALUES // n_cols + 2), label="n_rows")  # up to past a block
    rng = np.random.default_rng(seed)
    table = np.array(cells, dtype=object)[rng.integers(len(cells), size=(n_rows, n_cols))]
    text = "".join(",".join(row) + "\n" for row in table)
    out = tmp_path_factory.mktemp("cells")
    (out / "lf.csv").write_text(text)
    (out / "crlf.csv").write_bytes(text.replace("\n", "\r\n").encode())
    read = np.concatenate([block for _, block in ev.read_blocks(out / "lf.csv")])
    assert read.tobytes() == np.loadtxt(out / "lf.csv", delimiter=",", ndmin=2, comments=None).tobytes()
    assert np.concatenate([block for _, block in ev.read_blocks(out / "crlf.csv")]).tobytes() == read.tobytes()


class TestSaveRun:
    @pytest.mark.parametrize("bad, message", [
        (np.nan, "row 3: non-finite value nan in column 2"),
        (-np.inf, "row 3: non-finite value -inf in column 2"),
        (-0.5, "row 3: negative value -0.5 in column 2"),
    ])
    def test_first_bad_value_named_by_row_column_and_value(self, tmp_path, bad, message):
        values = np.ones((5, 3))
        values[2, 1] = bad
        values[4, 0] = -1.0
        with pytest.raises(ValueError, match=message):
            ev.save_run(values, tmp_path / "run.csv")
        assert not (tmp_path / "run.csv").exists()

    def test_memory_bounded_by_a_block_of_values(self, tmp_path):
        # 10.2 MB of values; blocks of 4,096 rows of 48-byte slots traced 464.5 MB here
        values = np.random.default_rng(0).gamma(0.5, 2.0, size=(64, 20_000))
        assert traced_peak_mb(lambda: ev.save_run(values, tmp_path / "run.csv")) <= 16

    @pytest.mark.parametrize("shape", [(5,), (5, 0), (2, 3, 4)], ids=["1-D", "no-sites", "3-D"])
    def test_values_not_2d_with_a_site_refused(self, tmp_path, shape):
        with pytest.raises(ValueError, match=rf"2-D with >= 1 site, got shape \({shape[0]}"):
            ev.save_run(np.ones(shape), tmp_path / "run.csv")
        assert not (tmp_path / "run.csv").exists()


_POWERS = np.array([float(f"1e{k}") for k in range(-5, 19)])  # where %g switches form, log10 is close


def block_rows(n_sites):
    """Rows per save_run block at n_sites."""
    return SAVE_BLOCK_VALUES // n_sites


def fallbacks_across_a_block_edge(n_sites=25):
    """Values that "%" formats closing one save_run block and opening the next."""
    rows = block_rows(n_sites)
    values = np.random.default_rng(5).gamma(0.5, 2.0, size=(rows + 3, n_sites))
    values[rows - 1, -4:] = values[rows, :4] = [1e-5, 1e17, -0.0, 9.99999999999999999e-5]
    return values


@pytest.mark.parametrize("values", [
    np.zeros((5, 3)),
    np.array([[5e-324, 2.2250738585072014e-308, 1e-310, 1e300], [0.0, 1e-300, 7.5, 1.7976931348623157e308]]),
    np.array([[0.1]]),
    np.random.default_rng(1).gamma(0.5, 2.0, size=(block_rows(2) - 1, 2)),
    np.random.default_rng(2).gamma(0.5, 2.0, size=(block_rows(1), 1)),
    np.random.default_rng(3).gamma(0.5, 2.0, size=(block_rows(3) + 1, 3)),
    np.stack([np.nextafter(_POWERS, 0.0), _POWERS, np.nextafter(_POWERS, np.inf)], axis=1),
    np.array([[9.99999999999999999e-5, 0.000999999999999999999, 0.99999999999999999, 9.99999999999999999,
               99999.9999999999999, 9.99999999999999999e15, 99999999999999999.0]]),
    np.array([[2.0 ** 53 + 2, 2.0 ** 55 + 8, 12345678901234567.0, 2.0 ** 56 + 16, 99999999999999984.0]]),
    np.array([[12345 + 1 / 8192, 12345 + 3 / 8192, -0.0, 1e16, 0.0001, 100.5, 1234.0]]),
    np.random.default_rng(4).gamma(0.5, 2.0, size=(block_rows(25) + 5, 25)),
    fallbacks_across_a_block_edge(),
    np.random.default_rng(6).gamma(0.5, 2.0, size=(2, SAVE_BLOCK_VALUES + 1)),
], ids=["zeros", "subnormal-and-huge", "one-site-one-row", "a-row-short-of-a-block", "one-block",
        "a-row-past-a-block", "powers-of-ten-and-neighbours", "17th-digit-carries", "integers-above-2**53",
        "ties-and-signed-zero", "25-sites-across-a-block", "fallbacks-across-a-block-edge",
        "rows-wider-than-a-block"])
def test_save_run_bytes_equal_savetxt(tmp_path, values):
    ev.save_run(values, tmp_path / "run.csv")
    np.savetxt(tmp_path / "ref.csv", values, delimiter=",", fmt="%.17g")
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 6)),
              elements=st.floats(min_value=0, allow_nan=False, allow_infinity=False)))
def test_save_run_bytes_equal_savetxt_on_any_values(tmp_path_factory, values):
    out = tmp_path_factory.mktemp("save")
    ev.save_run(values, out / "run.csv")
    np.savetxt(out / "ref.csv", values, delimiter=",", fmt="%.17g")
    assert (out / "run.csv").read_bytes() == (out / "ref.csv").read_bytes()
