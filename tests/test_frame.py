"""Data ingestion, seasonal filtering, monthly aggregation, column dropping."""

import csv
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import daily_dates, make_frame
from hydrovarx import (
    Column,
    TimeSeriesFrame,
    aggregate_monthly,
    drop_columns,
    filter_season,
    load_csv,
    write_csv,
)
from hydrovarx.errors import (
    ColumnNotFoundError,
    ContractError,
    EmptyDataError,
    InputError,
    InvalidOperationError,
    NonFiniteError,
    UnsupportedResolutionError,
)
from hydrovarx.frame import _iso_days, _plain_columns


def _write(path, text):
    path.write_text(text)
    return path


def test_load_csv_basic(tmp_path):
    csv = _write(tmp_path / "d.csv",
                 "Date,WTD,Rainfall\n"
                 "2016-01-01,-50.5,0.0\n"
                 "2016-01-02,-51.0,12.5\n"
                 "2016-01-03,-52.25,0.1\n")
    frame = load_csv(csv, ["WTD"])
    assert frame.n == 3 and frame.k == 1 and frame.m == 1
    assert frame.target_names == ("WTD",)
    assert frame.exog_names == ("Rainfall",)
    np.testing.assert_array_equal(frame.targets[:, 0], [-50.5, -51.0, -52.25])
    np.testing.assert_array_equal(frame.exog[:, 0], [0.0, 12.5, 0.1])
    assert frame.dropped_rows == 0


def test_load_csv_drops_incomplete_rows(tmp_path):
    csv = _write(tmp_path / "d.csv",
                 "Date,WTD,Rainfall\n"
                 "2016-01-01,-50,0\n"
                 "2016-01-02,,1\n"          # empty cell
                 "2016-01-03,-52,NA\n"       # NA token
                 "2016-01-04,NaN,2\n"        # NaN token
                 "2016-01-05,-54,3\n")
    frame = load_csv(csv, ["WTD"])
    assert frame.n == 2
    assert frame.dropped_rows == 3
    np.testing.assert_array_equal(frame.targets[:, 0], [-50.0, -54.0])


def test_load_csv_sorts_by_date(tmp_path):
    csv = _write(tmp_path / "d.csv",
                 "Date,Y\n2016-01-03,3\n2016-01-01,1\n2016-01-02,2\n")
    frame = load_csv(csv, ["Y"])
    np.testing.assert_array_equal(frame.targets[:, 0], [1.0, 2.0, 3.0])


def test_load_csv_duplicate_date_rejected(tmp_path):
    csv = _write(tmp_path / "d.csv",
                 "Date,Y\n2016-01-01,1\n2016-01-01,2\n")
    with pytest.raises(InputError):
        load_csv(csv, ["Y"])


def test_load_csv_bad_cell_names_line_and_column(tmp_path):
    csv = _write(tmp_path / "d.csv",
                 "Date,Y\n2016-01-01,1\n2016-01-02,oops\n")
    with pytest.raises(InputError, match="line 3.*'Y'"):
        load_csv(csv, ["Y"])


def test_load_csv_missing_target_column(tmp_path):
    csv = _write(tmp_path / "d.csv", "Date,Y\n2016-01-01,1\n")
    with pytest.raises(ColumnNotFoundError):
        load_csv(csv, ["Nope"])


def test_load_csv_all_rows_missing(tmp_path):
    csv = _write(tmp_path / "d.csv",
                 "Date,Y\n2016-01-01,NA\n2016-01-02,\n")
    with pytest.raises(EmptyDataError):
        load_csv(csv, ["Y"])


def test_load_csv_explicit_exog_subset(tmp_path):
    csv = _write(tmp_path / "d.csv",
                 "Date,Y,a,b,c\n2016-01-01,1,2,3,4\n2016-01-02,5,6,7,8\n")
    frame = load_csv(csv, ["Y"], exog_columns=["c", "a"])
    assert frame.exog_names == ("c", "a")
    np.testing.assert_array_equal(frame.exog, [[4.0, 2.0], [8.0, 6.0]])


def test_load_csv_targets_keyword(tmp_path):
    csv_path = _write(tmp_path / "d.csv",
                      "Date,WTD,Rainfall\n2016-01-01,-50,0\n2016-01-02,-51,2\n")
    frame = load_csv(csv_path, targets=("WTD",))
    assert frame.target_names == ("WTD",)
    assert frame.exog_names == ("Rainfall",)


@pytest.mark.parametrize("token", ["NaT", "nat", "NAT", "today", "Today", "now", "NOW"])
@pytest.mark.parametrize("other_row", ["2016-01-02,2", "2016-01-02,NA"],
                         ids=["plain", "with-missing-cell"])
def test_load_csv_rejects_dates_naming_no_day(tmp_path, token, other_row):
    # a missing cell on a later line must not hide the error
    csv_path = _write(tmp_path / "d.csv",
                      f"Date,Y\n2016-01-01,1\n {token} ,3\n{other_row}\n")
    message = f"line 3: column 'Date': date '{token}' names no calendar day"
    with pytest.raises(InputError, match=message):
        load_csv(csv_path, ["Y"])


# numpy reads each of these as a day (the last with a timezone warning);
# none is written YYYY-MM-DD
NOT_ISO_DATES = ["20160101", "2016", "2016-01", "2016-01-01T12:30", "+2016-01-01",
                 "2016-01-01 00", "2016-01-02T00:00Z"]


@pytest.mark.parametrize("token", NOT_ISO_DATES)
@pytest.mark.parametrize("other_row", ["2016-01-02,2", "2016-01-02,NA"],
                         ids=["plain", "with-missing-cell"])
def test_load_csv_rejects_dates_not_written_yyyy_mm_dd(tmp_path, token, other_row):
    csv_path = _write(tmp_path / "d.csv",
                      f"Date,Y\n2016-01-01,1\n {token} ,3\n{other_row}\n")
    message = re.escape(f"line 3: column 'Date': bad date {token!r}")
    with pytest.raises(InputError, match=message):
        load_csv(csv_path, ["Y"])


def test_write_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    frame = make_frame(rng.normal(size=20) * 1e3, rng.normal(size=(20, 2)))
    path = tmp_path / "out.csv"
    write_csv(frame, path)
    back = load_csv(path, ["Y1"])
    np.testing.assert_array_equal(back.targets, frame.targets)
    np.testing.assert_array_equal(back.exog, frame.exog)
    np.testing.assert_array_equal(back.dates, frame.dates)


def reference_write_csv(frame, path):
    """``write_csv`` by ``csv.writer``, one row at a time: ``str`` of each
    date and ``repr`` of each value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Date", *frame.target_names, *frame.exog_names])
        both = np.hstack([frame.targets, frame.exog])
        for i in range(frame.n):
            writer.writerow([str(frame.dates[i])] + [repr(float(v)) for v in both[i]])


def _monthly_frame():
    months = np.arange("1999-11", "2000-03", dtype="datetime64[M]")
    dates = months.astype("datetime64[D]")
    return TimeSeriesFrame(dates, [[1.0], [-0.0], [2.5e-300], [1e22]],
                           [[0.1], [-1.5], [0.0], [3.0]],
                           (Column("Y", "target"), Column("rain, mm", "exog")),
                           resolution="monthly")


@pytest.mark.parametrize("frame", [
    make_frame(np.random.default_rng(1).normal(size=(30, 2)) * 1e3,
               np.random.default_rng(2).normal(size=(30, 3)),
               target_names=["Y1", 'say "hi"'], exog_names=["a,b", "c\nd", "x"]),
    make_frame([[-0.0, 0.0], [5e-324, -1.7976931348623157e308]], start="0999-12-31"),
    make_frame([1.0 / 3.0, 123456789.125, -2.0 ** -40]),
    _monthly_frame(),
], ids=["k2-quoted-names", "signed-zero-extremes", "k1", "monthly"])
def test_write_csv_bytes_equal_the_csv_writer(tmp_path, frame):
    write_csv(frame, tmp_path / "fast.csv")
    reference_write_csv(frame, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_frame_rejects_unsorted_dates():
    dates = np.array(["2016-01-02", "2016-01-01"], dtype="datetime64[D]")
    with pytest.raises(ContractError):
        TimeSeriesFrame(dates, np.zeros(2), np.zeros((2, 0)),
                        (Column("Y", role="target"),))


def test_frame_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        make_frame([1.0, np.inf, 3.0])


def test_frame_arrays_read_only():
    frame = make_frame([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        frame.targets[0, 0] = 9.0


def test_a_record_keeps_a_contiguous_float_array_and_copies_any_other():
    dates = daily_dates(3)
    columns = (Column("Y", role="target"), Column("x", role="exog"))
    targets = np.array([[1.0], [2.0], [3.0]])
    wide = np.arange(6.0).reshape(3, 2)
    frame = TimeSeriesFrame(dates, targets, wide[:, 1:], columns)
    # a C-contiguous float64 array is kept as it is, and made read-only
    assert frame.targets is targets
    assert not targets.flags.writeable
    # a non-contiguous view is copied, and the caller's array stays writable
    assert not np.shares_memory(frame.exog, wide)
    assert not frame.exog.flags.writeable
    wide[0, 1] = 9.0
    assert frame.exog[0, 0] == 1.0
    # so is an array of another dtype, converted first
    ints = np.array([[1], [2], [3]])
    frame = TimeSeriesFrame(dates, ints, wide[:, 1:], columns)
    assert not np.shares_memory(frame.targets, ints)
    assert ints.flags.writeable


def test_a_record_copies_a_view_of_a_writable_array_and_keeps_a_read_only_one():
    target = (Column("Y", role="target"),)
    # a 1-D target is reshaped to a column, a view of the caller's array; a
    # write to that array must not reach the frame
    t = np.array([1.0, 2.0, 3.0])
    frame = TimeSeriesFrame(daily_dates(3), t, np.zeros((3, 0)), target)
    t[0] = 99.0
    assert frame.targets[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert t.flags.writeable
    # so is a contiguous row slice
    rows = np.arange(4.0).reshape(4, 1)
    frame = TimeSeriesFrame(daily_dates(2), rows[2:], np.zeros((2, 0)), target)
    rows[2, 0] = -1.0
    assert frame.targets[:, 0].tolist() == [2.0, 3.0]
    # a view of a read-only array is kept: no write can reach it
    tail = TimeSeriesFrame(frame.dates[1:], frame.targets[1:],
                           frame.exog[1:], target)
    assert np.shares_memory(tail.targets, frame.targets)


def test_a_frame_of_no_rows_keeps_its_exogenous_columns():
    frame = make_frame(np.arange(3.0), np.zeros((3, 2)))
    empty = replace(frame, dates=frame.dates[:0], targets=frame.targets[:0],
                    exog=frame.exog[:0])
    assert empty.exog.shape == (0, 2) and empty.exog_names == ("x1", "x2")
    # a 1-D exog is one column, or none when empty
    target = (Column("Y", role="target"),)
    assert TimeSeriesFrame(daily_dates(3), np.zeros(3), [], target).exog.shape == (3, 0)
    assert TimeSeriesFrame(daily_dates(0), [], [], target).exog.shape == (0, 0)


def test_frame_rejects_no_target_and_repeated_names():
    with pytest.raises(ContractError, match="at least one target"):
        TimeSeriesFrame(daily_dates(3), np.zeros((3, 0)), np.zeros((3, 1)),
                        (Column("x"),))
    with pytest.raises(ContractError, match="column names repeat"):
        make_frame(np.zeros((3, 2)), target_names=["Y", "Y"])
    with pytest.raises(ContractError, match="column names repeat"):
        make_frame(np.zeros(3), np.zeros(3), target_names=["Y"], exog_names=["Y"])


@pytest.mark.parametrize("header, targets, exog_columns", [
    ("Date,Y,x", ["Y", "Y"], None),
    ("Date,Y,x", ["Y"], ["x", "x"]),
    ("Date,Y,x,x", ["Y"], None),
    ("Date,Y,x,x", ["Y"], ["x"]),
    ("Date,Y,Date", ["Y"], []),
])
def test_load_csv_rejects_a_column_named_twice(tmp_path, header, targets,
                                               exog_columns):
    # the body's bad cell would raise InputError: the names are checked first
    path = tmp_path / "twice.csv"
    path.write_text(header + "\n2001-01-01,oops" + ",1" * (header.count(",") - 1)
                    + "\n")
    with pytest.raises(ContractError, match="named twice"):
        load_csv(path, targets, exog_columns=exog_columns)


def test_load_csv_without_a_target_is_refused(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("Date,Y,x\n2001-01-01,1,2\n2001-01-02,3,4\n")
    with pytest.raises(ContractError, match="at least one target"):
        load_csv(path, [])


# -- load_csv against the per-line loop ---------------------------------------

def reference_load_csv(path, targets, date_column="Date", exog_columns=None):
    """A per-line loop, kept as the oracle of ``load_csv``'s column-wise
    reader: every row read by ``csv``, every cell stripped, checked and
    converted on its own, in line order."""
    def is_missing(token):
        return token.strip().lower() in {"", "na", "nan"}

    targets = list(targets)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if date_column not in header:
            raise ColumnNotFoundError(f"{path}: no date column {date_column!r}")
        for name in targets:
            if name not in header:
                raise ColumnNotFoundError(f"{path}: no target column {name!r}")
        if exog_columns is None:
            exog_columns = [h for h in header
                            if h != date_column and h not in targets]
        else:
            exog_columns = list(exog_columns)
            for name in exog_columns:
                if name not in header:
                    raise ColumnNotFoundError(f"{path}: no column {name!r}")
        overlap = set(targets) & set(exog_columns)
        if overlap:
            raise ContractError(f"columns {sorted(overlap)} listed as both "
                                "target and exogenous")

        date_idx = header.index(date_column)
        used = targets + exog_columns
        used_idx = [header.index(name) for name in used]

        dates, rows, dropped = [], [], 0
        for lineno, raw in enumerate(reader, start=2):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if len(raw) < len(header):
                raise InputError(f"{path}: line {lineno}: expected "
                                 f"{len(header)} fields, got {len(raw)}")
            token = raw[date_idx].strip()
            if is_missing(token):
                dropped += 1
                continue
            if token.lower() in {"nat", "today", "now"}:
                raise InputError(f"{path}: line {lineno}: column "
                                 f"{date_column!r}: date {token!r} names "
                                 "no calendar day")
            date = None
            if len(token) == 10 and token[4] == token[7] == "-":
                try:
                    date = np.datetime64(token, "D")
                except ValueError:
                    pass
            if date is None or str(date) != token:
                raise InputError(f"{path}: line {lineno}: column "
                                 f"{date_column!r}: bad date {token!r}")
            cells = [raw[i].strip() for i in used_idx]
            if any(is_missing(c) for c in cells):
                dropped += 1
                continue
            values = []
            for name, cell in zip(used, cells):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise InputError(f"{path}: line {lineno}: column {name!r}: "
                                     f"bad number {cell!r}") from None
            dates.append(date)
            rows.append(values)

    if not rows:
        raise EmptyDataError(f"{path}: no complete rows after dropping missing")
    date_arr = np.array(dates, dtype="datetime64[D]")
    order = np.argsort(date_arr, kind="stable")
    date_arr = date_arr[order]
    dup = np.flatnonzero(date_arr[1:] == date_arr[:-1])
    if dup.size:
        raise InputError(f"{path}: duplicate date {date_arr[dup[0]]}")
    data = np.asarray(rows, dtype=float)[order]
    k = len(targets)
    cols = tuple(Column(name, "target") for name in targets) \
        + tuple(Column(name, "exog") for name in exog_columns)
    return TimeSeriesFrame(
        dates=date_arr, targets=data[:, :k], exog=data[:, k:],
        columns=cols, resolution="daily", dropped_rows=dropped,
    )


_DAY0 = np.datetime64("2016-01-01", "D")
_PLAIN_VALUES = ["1e3", "-2.5E-3", "1_000", "+7", " 3.25 ", "\t-0.0",
                 "\xa04\u3000", "\uff11\uff12"]
_ODD_VALUES = st.one_of(
    st.sampled_from(["nan", " NaN ", "", "NA", "na"]),  # missing
    st.sampled_from(["-nan", "inf", "-Infinity", '"1.5"', '"1,5"', '""', "oops",
                     "1__0", "0x10"]))
_DATE_CHARS = "0123456789-+T:.Z "


@st.composite
def date_tokens(draw):
    """A YYYY-MM-DD date from years 1 to 10952, with up to three characters
    inserted, replaced or deleted."""
    chars = list(str(np.datetime64("0001-01-01") + draw(st.integers(0, 4 * 10**6))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(chars) - 1))
        op, char = draw(st.sampled_from("ird")), draw(st.sampled_from(_DATE_CHARS))
        if op == "i":
            chars.insert(at, char)
        elif op == "r":
            chars[at] = char
        elif len(chars) > 1:
            del chars[at]
    return "".join(chars)


_ODD_DATES = st.one_of(
    st.sampled_from(["NaT", "nat", " today ", "Now"]),  # no calendar day
    st.sampled_from(["", " ", "NA", "nan", "2016-02-30", "2016-01-03T12",
                     "+2016-01-04", "2016-1-5", "x", "0999-12-31", "10000-01-01",
                     *NOT_ISO_DATES]),
    date_tokens())


@st.composite
def csv_texts(draw):
    """A small CSV with target ``Y``: a plain file, its rows one field longer
    than the header or not, with no, one or three defects. A defect is an
    odd value (a missing spelling, NaN, inf, a quote, a bad token), an odd
    date (one that names no day, a missing or bad token), a short or
    over-long row, or a blank row. A plain file is split on commas, any
    other read by ``csv``."""
    names = ["Y", "a", "b"][:draw(st.integers(1, 3))]
    date_pos = draw(st.integers(0, len(names)))
    header = names[:date_pos] + ["Date"] + names[date_pos:]
    width = len(header) + draw(st.sampled_from([0, 0, 1]))
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.integers(-10**6, 10**6).map(str),
                      st.sampled_from(_PLAIN_VALUES))
    span = draw(st.sampled_from([10**5, 8]))  # a short span repeats dates
    date = st.builds(lambda pad, d: pad + str(_DAY0 + d) + pad,
                     st.sampled_from(["", " ", "\t"]), st.integers(0, span))
    rows = [[draw(value) for _ in range(width)] for _ in range(draw(st.integers(1, 12)))]
    for row in rows:
        row[date_pos] = draw(date)
    for _ in range(draw(st.sampled_from([0, 1, 1, 3]))):
        row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["value"] * 3 + ["date"] * 2 + ["length", "blank"]))
        cols = [i for i in range(len(row)) if i != date_pos]  # after earlier defects
        if kind == "value" and cols:
            row[draw(st.sampled_from(cols))] = draw(_ODD_VALUES)
        elif kind == "date" and date_pos < len(row):
            row[date_pos] = draw(_ODD_DATES)
        elif kind == "length":
            row.append("1") if not row or draw(st.booleans()) else row.pop()  # an emptied row can only grow
        else:
            row[:] = draw(st.sampled_from([[""], ["   "], [" ", " "], ["\t", ""]]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(load, path):
    """A loaded frame's bytes and metadata, or the error's type and message."""
    try:
        f = load(path, ["Y"])
    except Exception as exc:  # the error is the outcome under comparison
        return type(exc), str(exc)
    return (f.dates.tobytes(), f.targets.tobytes(), f.exog.tobytes(),
            f.targets.shape, f.exog.shape, f.columns, f.dropped_rows)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
@example(text="Date,Y,a\r\n2016-01-02,1.5,2\r\n2016-01-01,3,4\r\n")  # plain, unsorted
@example(text="Date,Y,a\n2016-01-02,1,2\n2016-01-01, nan ,3\n")  # NaN in a plain file
@example(text="a,Date,Y\n1,Today,2\n3,2016-01-01,4")  # no day in a plain file
@example(text="Date,Y\n2016-01-01,1\n \t,2\n")  # blank date in a plain file
@example(text="Date,Y\n2016-01-01,1\n20160101,2\n")  # the year 20160101
@example(text="Date,Y\n2016,1\n2016-02,2\n")  # a year, a month
@example(text="Date,Y\n+2016-01-01,1\n2016-01-02T12:30,2\n")  # sign, time
@example(text="Date,Y\n0999-12-31,1\n1000-01-01,2\n")  # loop-only year
@example(text="Date,Y\n2016-01-01,1\n2016-01-02T00:00Z,2\n")  # a timezone
@example(text="Date,Y\n2016-01-01,1\n\n1\n")  # an emptied row, and one grown again
@example(text="Date,Y,a\n2016-01-01,1,2\n2016-01-02,oops,NA\n")  # dropped, not bad
@example(text="Date,Y\n2016-01-01,1\n NA ,oops\n,x\n")  # no date: never converted
@example(text="Date,Y\n2016-01-02,oops\n2016-13-01,1\n")  # bad number, then bad date
@example(text="Date,Y,a\n2016-01-01,1,2\n  , \t,\n2016-01-02,NA,3\n")  # blank, gap
@example(text="Date,Y,a\n2016-01-01,NA,2\n2016-01-02,1\n")  # a short row after a gap
@example(text="Date,Y\n2016-01-01,1\n2016-01-02,2,3\n2016-01-03,3\n")  # one wide row
def test_load_csv_matches_per_line_loop(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    assert _outcome(load_csv, path) == _outcome(reference_load_csv, path)


@settings(max_examples=1000, deadline=None)
@given(token=st.one_of(date_tokens(), st.text(_DATE_CHARS, min_size=8, max_size=12)))
def test_fast_date_check_accepts_only_dates_written_yyyy_mm_dd(token):
    # the cheap test for a whole column (10 characters, "-" 5th and 8th,
    # years 1000-9999) must pass only dates the loop's str(date) == token accepts
    days = _iso_days([token.strip()])
    if days is not None:
        assert str(days[0]) == token.strip()


def test_load_csv_reports_undecodable_bytes_where_the_loop_meets_them(tmp_path):
    # a bad cell on line 3 is reported before bytes that do not decode some
    # 28 kB further on; bytes on the first data line fail to decode at once
    path = tmp_path / "d.csv"
    rows = "".join(f"{_DAY0 + d},{d}\n" for d in range(1, 2000))
    path.write_bytes(b"Date,Y\n2016-01-01,1\n2015-12-31,oops\n" + rows.encode()
                     + b"2030-01-01,\xff\n")
    assert _outcome(load_csv, path) == _outcome(reference_load_csv, path)
    with pytest.raises(InputError, match="line 3: column 'Y': bad number 'oops'"):
        load_csv(path, ["Y"])
    path.write_bytes(b"Date,Y\n2016-01-01,\xff\n")
    assert _outcome(load_csv, path) == _outcome(reference_load_csv, path)
    with pytest.raises(UnicodeDecodeError):
        load_csv(path, ["Y"])


_LONG_BODY = "".join(f"{_DAY0 + d},{d},0\n" for d in range(1, 2000))


@pytest.mark.parametrize("body,rows", [
    ("2016-01-02,1.5,2\r\n2016-01-01,3,4\r\n", 2),  # plain
    ("2016-01-01,1,2\n2016-01-02,NA,3\n2016-01-03,4,5\n", 2),  # a gap
    # bytes that do not decode 28 kB on: csv re-reads the file from its
    # start, and the bad number before them is reported
    ("2016-01-01,1,2\n2015-12-31,oops,3\n" + _LONG_BODY + "2030-01-01,\xff,4\n", None)],
    ids=["plain", "gapped", "undecodable"])
def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path, body, rows):
    # Excel's "CSV UTF-8" starts the header with a BOM, which once hid "Date"
    path = tmp_path / "d.csv"
    data = b"Date,Y,a\n" + body.encode("latin-1")
    path.write_bytes(data)
    plain = _outcome(load_csv, path)
    path.write_bytes(b"\xef\xbb\xbf" + data)
    assert _outcome(load_csv, path) == plain
    assert plain[3] == (rows, 1) if rows else plain[0] is InputError


@pytest.mark.parametrize("body, split", [
    ("2016-01-02, 1.5 ,3,y\r\n2016-01-01,1e3,-0,x\r\n", True),  # wider than the header
    ('2016-01-01,"1",2\n', False),                # quote
    ("2016-01-01,1,2\x852016-01-02,1,2", False),   # a break csv does not split on
    ("2016-01-01,1,2\n\n", False),                 # blank row
    ("2016-01-01,1,2\n  ,  ,  \n", True),          # whitespace-only row
    ("2016-01-01,1\n", False),                     # short row
    ("2016-01-01,1,2\n2016-01-02,1,2,3\n", False),  # rows of unequal length
    ("2016-01-01,1,NA\n", True),                   # missing cell
    ("2016-01-01,1, nan \n", True),                # NaN value
    ("NaT,1,2\n", True), ("today,1,2\n", True),     # no calendar day
    ("2016-13-01,1,2\n", True), ("2016-01-01,x,2\n", True),  # bad tokens
    ("2016-01-01,1," + "9" * (csv.field_size_limit() + 1) + "\n", False),
    ("", False)], ids=["wide", "quote", "nel", "blank-row", "whitespace-row",
                       "short-row", "unequal-rows", "na", "nan", "nat", "today",
                       "bad-date", "bad-number", "long-field", "empty"])
def test_load_csv_matches_the_loop_on_each_tokenizer_branch(tmp_path, body, split):
    # header Date,Y,a; a body the comma split takes must give csv's fields
    assert (_plain_columns(body, 3) is not None) == split
    path = tmp_path / "d.csv"
    path.write_bytes(("Date,Y,a\n" + body).encode())
    assert _outcome(load_csv, path) == _outcome(reference_load_csv, path)


# -- seasonal filtering -------------------------------------------------------

def test_season_boundary_spring():
    # Mar 31 is dormant; Apr 1 opens the growing season
    frame = make_frame([1.0, 2.0], start="2016-03-31")
    grow = filter_season(frame, "growing")
    assert grow.n == 1
    assert grow.dates[0] == np.datetime64("2016-04-01")
    dorm = filter_season(frame, "dormant")
    assert dorm.n == 1
    assert dorm.dates[0] == np.datetime64("2016-03-31")


def test_season_boundary_autumn():
    # Oct 31 closes the growing season; Nov 1 is dormant
    frame = make_frame([1.0, 2.0], start="2016-10-31")
    grow = filter_season(frame, "growing")
    assert grow.dates.tolist() == [np.datetime64("2016-10-31")]
    dorm = filter_season(frame, "dormant")
    assert dorm.dates.tolist() == [np.datetime64("2016-11-01")]


def test_seasons_partition_every_date():
    # 2016 (a leap year) and 2017: every date lands in exactly one season
    frame = make_frame(np.arange(366 * 2, dtype=float), start="2016-01-01")
    grow = filter_season(frame, "growing").dates
    dorm = filter_season(frame, "dormant").dates
    np.testing.assert_array_equal(np.sort(np.concatenate([grow, dorm])),
                                  frame.dates)
    edges = np.array(["2016-03-31", "2016-04-01", "2016-10-31", "2016-11-01",
                      "2016-02-29"], dtype="datetime64[D]")
    assert np.isin(edges, grow).tolist() == [False, True, True, False, False]
    assert np.isin(edges, dorm).tolist() == [True, False, False, True, True]


def test_feb_29_is_dormant():
    frame = make_frame([1.0], start="2016-02-29")
    assert filter_season(frame, "dormant").n == 1


def test_filter_all_is_identity():
    frame = make_frame([1.0, 2.0, 3.0])
    same = filter_season(frame, "all")
    np.testing.assert_array_equal(same.targets, frame.targets)


def test_filter_season_empty_result(tmp_path):
    frame = make_frame([1.0, 2.0], start="2016-06-01")
    with pytest.raises(EmptyDataError):
        filter_season(frame, "dormant")


def test_filter_monthly_resolution_rejected():
    frame = make_frame(np.arange(40, dtype=float), start="2016-06-01")
    monthly = aggregate_monthly(frame)
    with pytest.raises(UnsupportedResolutionError):
        filter_season(monthly, "growing")


def test_bad_season_mode_rejected():
    frame = make_frame([1.0, 2.0])
    with pytest.raises(ContractError):
        filter_season(frame, "summer")


# -- monthly aggregation ------------------------------------------------------

def test_aggregate_monthly_sum_and_mean():
    # 3 June days: Rainfall summed to 15, WTD averaged to -60
    frame = make_frame([-50.0, -60.0, -70.0], [[10.0], [0.0], [5.0]],
                       start="2016-06-01", target_names=["WTD"],
                       exog_names=["Rainfall"])
    monthly = aggregate_monthly(frame, sum_columns=("Rainfall",))
    assert monthly.n == 1
    assert monthly.resolution == "monthly"
    assert monthly.dates[0] == np.datetime64("2016-06-01")
    assert monthly.targets[0, 0] == -60.0
    assert monthly.exog[0, 0] == 15.0


def test_aggregate_monthly_single_day_month():
    frame = make_frame([-3.25], [[7.0]], start="2016-02-14")
    monthly = aggregate_monthly(frame, sum_columns=("x1",))
    assert monthly.targets[0, 0] == -3.25
    assert monthly.exog[0, 0] == 7.0


def test_aggregate_monthly_two_months():
    # 31 Jan days + 29 Feb days (2016 is a leap year)
    frame = make_frame(np.arange(60, dtype=float), start="2016-01-01")
    monthly = aggregate_monthly(frame)
    assert monthly.n == 2
    assert monthly.dates.tolist() == [np.datetime64("2016-01-01"),
                                      np.datetime64("2016-02-01")]


def test_aggregate_monthly_conservation():
    rng = np.random.default_rng(5)
    frame = make_frame(rng.normal(size=100), rng.uniform(0, 20, size=(100, 1)),
                       start="2016-03-10", exog_names=["Rainfall"])
    monthly = aggregate_monthly(frame, sum_columns=("Rainfall",))
    np.testing.assert_allclose(monthly.exog[:, 0].sum(), frame.exog[:, 0].sum(),
                               rtol=1e-12)


# -- column dropping ----------------------------------------------------------

def test_drop_columns_removes_data():
    frame = make_frame([1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]],
                       exog_names=["keep", "gone"])
    out = drop_columns(frame, ["gone"])
    assert out.exog_names == ("keep",)
    np.testing.assert_array_equal(out.exog, [[1.0], [3.0]])
    assert out.n == frame.n


def test_drop_columns_empty_set_identity():
    frame = make_frame([1.0, 2.0], [[1.0], [2.0]])
    out = drop_columns(frame, [])
    np.testing.assert_array_equal(out.exog, frame.exog)
    assert out.exog_names == frame.exog_names


def test_drop_columns_disjoint_sets_commute():
    frame = make_frame([1.0, 2.0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
                       exog_names=["a", "b", "c"])
    ab = drop_columns(drop_columns(frame, ["a"]), ["b"])
    ba = drop_columns(drop_columns(frame, ["b"]), ["a"])
    assert ab.exog_names == ba.exog_names == ("c",)
    np.testing.assert_array_equal(ab.exog, ba.exog)


def test_drop_target_rejected():
    frame = make_frame([1.0, 2.0], [[1.0], [2.0]])
    with pytest.raises(InvalidOperationError):
        drop_columns(frame, ["Y1"])


def test_drop_unknown_rejected():
    frame = make_frame([1.0, 2.0], [[1.0], [2.0]])
    with pytest.raises(ColumnNotFoundError):
        drop_columns(frame, ["mystery"])
