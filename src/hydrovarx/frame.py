"""Daily/monthly multivariate time-series container and CSV ingestion.

The on-disk convention is a plain CSV with one date column (ISO ``YYYY-MM-DD``)
and one numeric column per variable. A date must be written ``YYYY-MM-DD`` and
name a calendar day: other forms numpy's date parser reads (``2016``,
``20160101``, ``2016-01-01T12:30``, ``NaT``, ``today``, ``now``) are rejected.
Cells that are empty or read ``NA`` / ``NaN`` (case-insensitive) mark missing
values; any row with a missing value in a used column is dropped at load time,
so every retained row is complete.

``load_csv`` has one reader for every file. A per-line loop in
``tests/test_frame.py`` is its oracle: the same frame bytes, the same errors.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from itertools import repeat, zip_longest

import numpy as np

from .errors import (
    ColumnNotFoundError,
    ContractError,
    EmptyDataError,
    InputError,
    InvalidOperationError,
    NonFiniteError,
    UnsupportedResolutionError,
)

MISSING_TOKENS = frozenset({"", "na", "nan"})
#: date tokens numpy parses that name no calendar day (compared lowercased)
NOT_A_DAY = frozenset({"nat", "today", "now"})
#: 1000-01-01 and 9999-12-31 in days from 1970-01-01: the years 1000-9999
_FIRST_DAY, _LAST_DAY = -354285, 2932896
#: line breaks ``str.splitlines`` splits on and ``csv`` does not
_NON_CSV_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"

#: inclusive (month, day) windows; together they partition the calendar year
GROWING_WINDOW = ((4, 1), (10, 31))
DORMANT_WINDOW = ((11, 1), (3, 31))
#: the season names ``filter_season`` and ``ModelSpec`` accept
SEASONS = ("all", "growing", "dormant")


def freeze(record, **arrays) -> None:
    """Set each named array on the frozen dataclass ``record``, C-contiguous
    and read-only. A C-contiguous array that owns its data, or views a
    read-only one, is kept: a record keeps a caller's C-contiguous float64
    array itself and makes it read-only. Any other input is copied, so
    nothing can write to a record. (A copy of every array would hold a
    design's Z twice while the caller's is alive.)"""
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        # a view of a writable array (the view's own flag for a non-array base)
        if arr.base is not None and getattr(arr.base, "flags", arr.flags).writeable:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


def iso_day(token: str):
    """The day ``token`` names if it is written ``YYYY-MM-DD`` and names a
    calendar day, else None. numpy also reads 2016, 2016-01, 20160101 (a
    year) and +2016-01-01T12:30, and warns on a zone such as ...T00:00Z;
    only YYYY-MM-DD is 10 characters with a - 5th and 8th and prints back
    as itself."""
    if len(token) == 10 and token[4] == token[7] == "-":
        try:
            date = np.datetime64(token, "D")
        except ValueError:
            return None
        if str(date) == token:
            return date
    return None


def _iso_days(tokens: list[str]):
    """The days ``tokens`` name if every token is 10 characters long with a
    ``-`` 5th and 8th and numpy reads it as a day in the years 1000-9999,
    else None. Only dates written ``YYYY-MM-DD`` pass (``0001001-01``, the
    year 1001, is why the dashes are checked): none that ``iso_day`` refuses."""
    joined = "".join(tokens)
    if set(map(len, tokens)) - {10} \
            or (joined[4::10] + joined[7::10]).count("-") != 2 * len(tokens):
        return None
    try:
        dates = np.array(tokens, dtype="datetime64[D]")
    except ValueError:
        return None
    days = dates.view(np.int64)  # NaT, the smallest int64, falls outside too
    return dates if np.all((days >= _FIRST_DAY) & (days <= _LAST_DAY)) else None


def _floats(cells):
    """``float`` of each cell, NaN where ``float`` raises ValueError."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:  # again: list.extend keeps what converted before a raise
        values, rest = [], iter(cells)
    while len(values) < len(cells):
        try:
            values.extend(map(float, rest))
        except ValueError:
            values.append(np.nan)
    return values


def _plain_columns(text: str, width: int):
    """The body's fields as columns, if one split on ``,`` gives the fields
    ``csv.reader`` would: no quote or line break ``csv`` does not split on,
    and lines within ``csv``'s field limit, of one field count, at least
    ``width``. Else None. It reads a 3650-row, 4-column file 1.5 ms faster
    than ``csv`` (2-vCPU x86_64 host)."""
    if any(ch in text for ch in '"' + _NON_CSV_BREAKS):
        return None
    lines = text.splitlines()
    commas = set(map(str.count, lines, repeat(",")))
    if len(commas) != 1 or min(commas) + 1 < width \
            or max(map(len, lines)) > csv.field_size_limit():
        return None
    stride = commas.pop() + 1
    cells = ",".join(lines).split(",")  # row r's field i is cells[r * stride + i]
    return [cells[i::stride] for i in range(stride)]


@dataclass(frozen=True)
class Column:
    """Metadata for one variable: name and role."""

    name: str
    role: str = "exog"  # "target" | "exog"

    def __post_init__(self) -> None:
        if self.role not in ("target", "exog"):
            raise ContractError(f"unknown column role {self.role!r}")


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Immutable complete-case time series at daily or monthly resolution.

    ``targets`` holds the modeled variables (n x k), ``exog`` the candidate
    drivers (n x m). ``columns`` lists target metadata first, then exogenous,
    matching the matrix layout.
    """

    dates: np.ndarray
    targets: np.ndarray
    exog: np.ndarray
    columns: tuple[Column, ...]
    resolution: str = "daily"
    dropped_rows: int = 0

    def __post_init__(self) -> None:
        dates = np.asarray(self.dates, dtype="datetime64[D]")
        targets = np.asarray(self.targets, dtype=float)
        if targets.ndim == 1:
            targets = targets.reshape(-1, 1)
        exog = np.asarray(self.exog, dtype=float)
        if exog.ndim == 1:  # one column, or none when empty
            exog = exog.reshape(-1, 1) if exog.size else exog.reshape(len(dates), 0)

        if self.resolution not in ("daily", "monthly"):
            raise ContractError(f"unknown resolution {self.resolution!r}")
        n = len(dates)
        if targets.shape[0] != n or exog.shape[0] != n:
            raise ContractError("dates, targets and exog row counts differ")
        if n > 1 and not np.all(dates[1:] > dates[:-1]):
            raise ContractError("dates must be strictly increasing and unique")
        if len(self.columns) != targets.shape[1] + exog.shape[1]:
            raise ContractError("column metadata does not match matrix widths")
        roles = [c.role for c in self.columns]
        k = targets.shape[1]
        if roles != ["target"] * k + ["exog"] * exog.shape[1]:
            raise ContractError("columns must list targets first, then exogenous")
        if k == 0:
            raise ContractError("a frame needs at least one target column")
        names = [c.name for c in self.columns]
        if len(set(names)) < len(names):
            raise ContractError(f"column names repeat: {names}")
        if not (np.all(np.isfinite(targets)) and np.all(np.isfinite(exog))):
            raise NonFiniteError("frame contains non-finite values")

        freeze(self, dates=dates, targets=targets, exog=exog)

    # -- views ---------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.dates)

    @property
    def k(self) -> int:
        return self.targets.shape[1]

    @property
    def m(self) -> int:
        return self.exog.shape[1]

    @property
    def target_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns[: self.k])

    @property
    def exog_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns[self.k:])


def load_csv(path, targets, date_column: str = "Date",
             exog_columns=None) -> TimeSeriesFrame:
    """Load a daily CSV into a complete-case TimeSeriesFrame.

    Parameters
    ----------
    path : str or Path
        UTF-8 CSV file with a header row; a leading byte-order mark, as
        Excel's "CSV UTF-8" writes, is skipped.
    targets : sequence of str
        Names of the modeled variables, in the order they should appear.
    date_column : str
        Name of the ISO-date column.
    exog_columns : sequence of str, optional
        Exogenous columns to keep. Default: every other column in file order.

    Rows with a missing value (empty, ``NA`` or ``NaN``, case-insensitive) in
    any used column are dropped; the count is kept in ``dropped_rows``.
    Malformed numbers, dates not written ``YYYY-MM-DD``, and dates that name
    no calendar day (``NaT``, ``today``, ``now``), raise :class:`InputError`
    naming the line and column.
    Duplicate dates are rejected; rows are sorted by date. A column listed
    twice, or a used column the header names twice, raises
    :class:`ContractError` before the body is read.

    One reader serves every file. It splits the body into ``csv``'s fields,
    by one faster split on commas where no quote or odd line break can make
    that differ, then checks and converts them column by column. It raises
    the error a line-by-line reader meets first: lines in order, and within
    a line the date before the cells, a missing cell before a bad number.
    """
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
        used = targets + exog_columns
        twice = sorted({name for name in used if used.count(name) > 1}
                       | {name for name in [date_column, *used]
                          if header.count(name) > 1})
        if twice:
            raise ContractError(f"{path}: columns {twice} named twice")

        date_idx = header.index(date_column)
        used_idx = [header.index(name) for name in used]
        try:
            text = fh.read()
        except UnicodeDecodeError:
            text = None
            fh.seek(0)
            next(reader)  # the header, again
        columns = None if text is None else _plain_columns(text, len(header))
        # (row, used column or -1 for its date or length, message); row r is line r + 2
        errors, unread = [], None
        if columns is None:
            rows = []
            try:
                rows.extend(csv.reader(io.StringIO(text, newline="")
                                       if text is not None else fh))
            except (csv.Error, UnicodeDecodeError) as exc:
                unread = exc  # raised if no row read before it has an error
            # reading stops at the first short row that is not blank
            short = next((r for r, row in enumerate(rows)
                          if len(row) < len(header) and "".join(row).strip()), None)
            if short is not None:
                errors.append((short, -1, f"expected {len(header)} fields, "
                                          f"got {len(rows[short])}"))
                rows = rows[:short]
            columns = list(zip_longest(*rows, fillvalue=""))
            columns += [("",) * len(rows)] * (len(header) - len(columns))  # all blank

    tokens = [t.strip() for t in columns[date_idx]]
    gap = np.zeros(len(tokens), dtype=bool)  # a missing date or used cell: dropped
    dates = _iso_days(tokens)
    if dates is None:
        gap[:] = [t.lower() in MISSING_TOKENS for t in tokens]
        present = np.flatnonzero(~gap)
        dates = np.empty(len(gap), dtype="datetime64[D]")
        days = _iso_days([tokens[r] for r in present])
        # else some date is no YYYY-MM-DD day, or its year is before 1000
        dates[present] = [iso_day(tokens[r]) for r in present] if days is None else days
        for r in present[np.isnat(dates[present])][:1]:  # the first no-day
            what = "date {!r} names no calendar day" \
                if tokens[r].lower() in NOT_A_DAY else "bad date {!r}"
            errors.append((r, -1, f"column {date_column!r}: " + what.format(tokens[r])))

    data = np.array([_floats(columns[i]) for i in used_idx])
    for j, r in zip(*np.nonzero(np.isnan(data))):
        cell = columns[used_idx[j]][r].strip()
        if cell.lower() in MISSING_TOKENS:
            gap[r] = True
            continue
        try:  # float refuses some cells it takes stripped, such as "1\x1f"
            data[j, r] = float(cell)
        except ValueError:
            errors.append((r, j, f"column {used[j]!r}: bad number {cell!r}"))
    first = min((e for e in errors if e[1] < 0 or not gap[e[0]]), default=None)
    if first:  # in line order; a dropped row's cells are never checked
        raise InputError(f"{path}: line {first[0] + 2}: {first[2]}")
    if unread is not None:
        raise unread
    if gap.all():
        raise EmptyDataError(f"{path}: no complete rows after dropping missing")
    # a row whose cells are all blank (its date too) is skipped, not dropped
    dropped = int(gap.sum()) - sum(not "".join(col[r] for col in columns).strip()
                                   for r in np.flatnonzero(gap) if not tokens[r])
    # free the cells before the frame is made: held to the end, they left the
    # rest of a `hydrovarx fit` run 2-4% slower (paced, 3650 rows)
    del columns, tokens, text
    keep = np.flatnonzero(~gap)
    order = keep[np.argsort(dates[keep], kind="stable")]  # the kept rows, by date
    date_arr = dates[order]
    dup = np.flatnonzero(date_arr[1:] == date_arr[:-1])
    if dup.size:
        raise InputError(f"{path}: duplicate date {date_arr[dup[0]]}")
    data = data.take(order, axis=1).T

    k = len(targets)
    cols = tuple(Column(name, "target") for name in targets) \
        + tuple(Column(name, "exog") for name in exog_columns)
    return TimeSeriesFrame(
        dates=date_arr, targets=data[:, :k], exog=data[:, k:],
        columns=cols, resolution="daily", dropped_rows=dropped,
    )


def write_csv(frame: TimeSeriesFrame, path) -> None:
    """Write a frame back out in the same CSV convention ``load_csv`` reads,
    in UTF-8 without a byte-order mark, whatever the locale.

    Floats use shortest round-trip formatting, so load_csv(write_csv(f))
    reproduces the values exactly. Monthly frames serialize their
    first-of-month dates; resolution is not encoded in the file.

    The header goes through ``csv.writer``, which quotes a name as needed.
    The body is joined directly, with the writer's ``\r\n`` line ends: no
    ISO date or ``repr`` of a float holds a comma, a quote or a line break,
    so the writer would quote none of its fields. It is converted 256 rows
    at a time (one ``astype(str)`` and one ``tolist()`` each), so the Python
    objects alive at once stay few.
    """
    values = np.hstack([frame.targets, frame.exog])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["Date", *frame.target_names, *frame.exog_names])
        for rows in (slice(lo, lo + 256) for lo in range(0, frame.n, 256)):
            dates = frame.dates[rows].astype(str).tolist()
            fh.writelines(f"{date},{','.join(map(repr, row))}\r\n"
                          for date, row in zip(dates, values[rows].tolist()))


def filter_season(frame: TimeSeriesFrame, season: str) -> TimeSeriesFrame:
    """Restrict a daily frame to one seasonal window named in ``SEASONS``.

    Growing season runs Apr 1 - Oct 31; dormant runs Nov 1 - Mar 31, wrapping
    the year boundary (Feb 29 is dormant). Both windows align with month
    boundaries, so membership reduces to the month number. Monthly frames are
    rejected: the windows are day-resolved.
    """
    if season not in SEASONS:
        raise ContractError(f"unknown season mode {season!r}")
    if season == "all":
        return frame
    if frame.resolution != "daily":
        raise UnsupportedResolutionError(
            "seasonal filtering is defined for daily frames only")
    month_no = frame.dates.astype("datetime64[M]").astype(int) % 12 + 1
    growing = (month_no >= GROWING_WINDOW[0][0]) & (month_no <= GROWING_WINDOW[1][0])
    mask = growing if season == "growing" else ~growing
    if not mask.any():
        raise EmptyDataError(f"no rows fall in the {season} season")
    return replace(frame, dates=frame.dates[mask], targets=frame.targets[mask],
                   exog=frame.exog[mask])


def aggregate_monthly(frame: TimeSeriesFrame, sum_columns=()) -> TimeSeriesFrame:
    """Aggregate a daily frame to monthly resolution.

    Columns named in ``sum_columns`` (accumulation variables such as rainfall)
    are summed over the month; every other column is averaged. Output rows are
    dated the first of the month. Months with no retained days simply do not
    appear.
    """
    if frame.resolution != "daily":
        raise UnsupportedResolutionError("frame is already monthly")
    names = frame.target_names + frame.exog_names
    sum_columns = tuple(sum_columns)
    for name in sum_columns:
        if name not in names:
            raise ColumnNotFoundError(f"sum column {name!r} not in frame")
    take_sum = np.array([name in sum_columns for name in names])

    months = frame.dates.astype("datetime64[M]")
    uniq, inverse = np.unique(months, return_inverse=True)
    both = np.hstack([frame.targets, frame.exog])
    out = np.empty((len(uniq), both.shape[1]))
    for g in range(len(uniq)):
        rows = both[inverse == g]
        sums = rows.sum(axis=0)
        out[g] = np.where(take_sum, sums, sums / len(rows))
    return TimeSeriesFrame(
        dates=uniq.astype("datetime64[D]"), targets=out[:, : frame.k],
        exog=out[:, frame.k:], columns=frame.columns, resolution="monthly",
        dropped_rows=frame.dropped_rows,
    )


def drop_columns(frame: TimeSeriesFrame, names) -> TimeSeriesFrame:
    """Remove exogenous columns by name (used by ablation studies).

    Target columns cannot be dropped; asking raises InvalidOperationError.
    """
    names = list(names)
    if not names:
        return frame
    for name in names:
        if name in frame.target_names:
            raise InvalidOperationError(f"{name!r} is a target column")
        if name not in frame.exog_names:
            raise ColumnNotFoundError(f"no column named {name!r}")
    keep = [i for i, name in enumerate(frame.exog_names) if name not in names]
    cols = frame.columns[: frame.k] + tuple(frame.columns[frame.k + i] for i in keep)
    return replace(frame, exog=frame.exog[:, keep], columns=cols)
