"""Lag design construction, standardization, and lookahead auditing."""

import numpy as np
import pytest
from dataclasses import replace
from datetime import timedelta
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from conftest import daily_dates, make_frame
from hydrovarx import (
    DesignMatrix,
    LagSpec,
    Penalty,
    aggregate_monthly,
    build_design,
    fit,
    lookahead_violations,
    standardize,
)
from hydrovarx.design import _lag_indices, regressor_labels
from hydrovarx.errors import ContractError, InsufficientDataError


def test_labels_are_lag_major():
    labels = regressor_labels(("WTD", "Flow"), ("Rain", "Temp"), p=2, s=2)
    assert labels == ("Y1L1", "Y2L1", "Y1L2", "Y2L2",
                      "Rain1", "Temp1", "Rain2", "Temp2")


def test_label_counts():
    labels = regressor_labels(("Y1",), ("a", "b", "c"), p=4, s=2)
    assert len(labels) == 4 * 1 + 2 * 3


def test_build_design_hand_case():
    # y = [1..5], p = 2: rows start at the third day
    frame = make_frame([1.0, 2.0, 3.0, 4.0, 5.0])
    design = build_design(frame, LagSpec(p=2, s=0))
    np.testing.assert_array_equal(design.Y[:, 0], [3.0, 4.0, 5.0])
    np.testing.assert_array_equal(design.Z, [[2.0, 1.0],
                                             [3.0, 2.0],
                                             [4.0, 3.0]])
    np.testing.assert_array_equal(design.row_dates, frame.dates[2:])
    assert design.col_labels == ("Y1L1", "Y1L2")


def test_build_design_with_exog():
    frame = make_frame([1.0, 2.0, 3.0, 4.0], [[10.0], [20.0], [30.0], [40.0]])
    design = build_design(frame, LagSpec(p=1, s=2))
    # row for day 3 sees y(2), x(2), x(1)
    np.testing.assert_array_equal(design.Z, [[2.0, 20.0, 10.0],
                                             [3.0, 30.0, 20.0]])
    assert design.col_labels == ("Y1L1", "x11", "x12")


def test_calendar_equals_positional_on_contiguous_dates():
    rng = np.random.default_rng(1)
    frame = make_frame(rng.normal(size=30), rng.normal(size=(30, 2)))
    cal = build_design(frame, LagSpec(p=3, s=2, mode="calendar"))
    pos = build_design(frame, LagSpec(p=3, s=2, mode="positional"))
    np.testing.assert_array_equal(cal.Z, pos.Z)
    np.testing.assert_array_equal(cal.Y, pos.Y)
    np.testing.assert_array_equal(cal.row_dates, pos.row_dates)


def test_calendar_mode_respects_date_gaps():
    # drop one calendar day; the row right after the gap has no lag-1 date
    dates = np.delete(daily_dates(10), 5)
    values = np.delete(np.arange(10, dtype=float), 5)
    frame = make_frame(values[:, None].copy(), start="2001-01-01")
    frame = replace(frame, dates=dates, targets=values[:, None],
                    exog=np.zeros((9, 0)))
    cal = build_design(frame, LagSpec(p=1, s=0, mode="calendar"))
    pos = build_design(frame, LagSpec(p=1, s=0, mode="positional"))
    assert pos.n_eff == 8                      # adjacency ignores the gap
    assert cal.n_eff == 7                      # post-gap row is dropped
    assert dates[5] not in list(cal.row_dates)
    # the positional row crossing the gap uses a 2-day-old value
    gap_row = list(pos.row_dates).index(dates[5])
    assert pos.Z[gap_row, 0] == values[4]


def test_calendar_exog_lags_longer_than_target_lags_on_gapped_dates():
    # s > p: the exogenous lags alone decide which rows survive the gap
    dates = np.delete(daily_dates(12), 5)
    values = np.delete(np.arange(12, dtype=float), 5)
    frame = make_frame(values, 10 * values[:, None])
    frame = replace(frame, dates=dates)
    design = build_design(frame, LagSpec(p=1, s=3, mode="calendar"))
    # day t needs days t-1..t-3: days 0-2 lack history, 6-8 reach day 5
    assert design.n_eff == 5
    np.testing.assert_array_equal(design.row_dates, dates[[3, 4, 8, 9, 10]])
    np.testing.assert_array_equal(design.Z[2], [8.0, 80.0, 70.0, 60.0])
    assert lookahead_violations(design, frame) == 0


def reference_design(frame, p, s, mode):
    """Per-row reference of ``build_design``: each lag's source position
    per frame row (None when there is none), found in a dict of the frame's
    days (daily) or (year, month) pairs (monthly) in calendar mode, or by
    position in positional mode; and the frame rows with every source, and
    their cells, copied row by row."""
    if frame.resolution == "daily":
        keys = frame.dates.tolist()
        def back(day, lag):
            return day - timedelta(days=lag)
    else:
        keys = [(day.year, day.month) for day in frame.dates.tolist()]
        def back(ym, lag):
            year, month = divmod(12 * ym[0] + ym[1] - 1 - lag, 12)
            return year, month + 1
    pos = {key: i for i, key in enumerate(keys)}
    lags = range(1, max(p, s) + 1)
    sources = [[(t - lag if t >= lag else None) if mode == "positional"
                else pos.get(back(key, lag)) for t, key in enumerate(keys)]
               for lag in lags]
    rows = [t for t in range(frame.n) if all(src[t] is not None for src in sources)]
    Z = np.array([np.concatenate(
        [frame.targets[sources[lag - 1][t]] for lag in lags[:p]]
        + [frame.exog[sources[lag - 1][t]] for lag in lags[:s]]) for t in rows])
    return sources, rows, Z.reshape(len(rows), p * frame.k + s * frame.m)


@settings(max_examples=200, deadline=None)
@given(setting=st.sampled_from(["daily", "monthly", "positional"]),
       keep=st.lists(st.booleans(), min_size=1, max_size=40), long=st.booleans(),
       p=st.integers(1, 4), s=st.integers(0, 3), k=st.integers(1, 2),
       m=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
# dates d0, d2, d3: the lag-2 source of the row at d2 (row 1) is d0, though
# no row 1 - 2 exists to be tried first
@example(setting="daily", keep=[True, False, True, True], long=False,
         p=2, s=0, k=1, m=1, seed=0)
@example(setting="daily", keep=[True, False, True, True], long=True,
         p=2, s=0, k=1, m=1, seed=0)
# gaps right after the first row and right before the last
@example(setting="daily", keep=[True, False] + [True] * 6 + [False, True],
         long=False, p=1, s=2, k=1, m=2, seed=1)
@example(setting="daily", keep=[True, False] + [True] * 6 + [False, True],
         long=True, p=1, s=2, k=1, m=2, seed=1)
@example(setting="monthly", keep=[True, False] + [True] * 6 + [False, True],
         long=False, p=2, s=1, k=2, m=1, seed=2)
@example(setting="monthly", keep=[True, False] + [True] * 6 + [False, True],
         long=True, p=2, s=1, k=2, m=1, seed=2)
@example(setting="positional", keep=[True, False] + [True] * 6 + [False, True],
         long=False, p=3, s=3, k=1, m=1, seed=3)
# every fourth day missing: lag 1 finds most sources at row i - 1, lag 2
# misses most, so lags 2 and 3 are found by binary search for every row
@example(setting="daily", keep=[True, True, True, False] * 5 + [True],
         long=True, p=3, s=1, k=1, m=1, seed=4)
def test_build_design_matches_reference_rows_and_cells(setting, keep, long, p, s,
                                                       k, m, seed):
    # a design that dropped a usable row, kept an unusable one or misplaced a
    # cell differs here; test_lookahead_violations_match_reference checks
    # only the cells of the rows a design kept
    if long:  # past the 512 rows below which build_design searches every row
        keep = keep * (1000 // len(keep) + 1)
    rng = np.random.default_rng(seed)
    offsets = np.flatnonzero(keep)
    assume(len(offsets) > 0)
    frame = make_frame(rng.normal(size=(len(offsets), k)),
                       rng.normal(size=(len(offsets), m)))
    if setting == "monthly":
        months = np.datetime64("2001-11", "M") + offsets
        frame = replace(frame, dates=months.astype("datetime64[D]"),
                        resolution="monthly")
    else:
        frame = replace(frame, dates=daily_dates(len(keep))[offsets])
    mode = "positional" if setting == "positional" else "calendar"
    sources, rows, Z = reference_design(frame, p, s, mode)
    if mode == "calendar":
        lags = _lag_indices(frame.dates, len(sources), frame.resolution)
        assert len(lags) == len(sources)
        for (idx, valid), src in zip(lags, sources):
            assert valid.tolist() == [t is not None for t in src]
            assert idx[valid].tolist() == [t for t in src if t is not None]
    if not rows:
        with pytest.raises(InsufficientDataError):
            build_design(frame, LagSpec(p=p, s=s, mode=mode))
        return
    design = build_design(frame, LagSpec(p=p, s=s, mode=mode))
    np.testing.assert_array_equal(design.row_dates, frame.dates[rows])
    assert design.Z.tobytes() == Z.tobytes()
    np.testing.assert_array_equal(design.Y, frame.targets[rows])


def test_too_few_rows_rejected():
    frame = make_frame([1.0, 2.0, 3.0])
    with pytest.raises(InsufficientDataError):
        build_design(frame, LagSpec(p=3, s=0))


def test_calendar_all_rows_gapped_rejected():
    # every-other-day sampling leaves no complete daily lag-1 history
    dates = daily_dates(12)[::2]
    frame = make_frame(np.arange(6, dtype=float))
    frame = replace(frame, dates=dates)
    with pytest.raises(InsufficientDataError):
        build_design(frame, LagSpec(p=1, s=0, mode="calendar"))


def test_lagspec_validation():
    with pytest.raises(ContractError):
        LagSpec(p=0, s=1)
    with pytest.raises(ContractError):
        LagSpec(p=1, s=-1)
    with pytest.raises(ContractError):
        LagSpec(p=1, s=1, mode="sideways")
    # a bool is a numbers.Integral, but True is no lag order
    for p, s in ((2.5, 1), (2, 1.5), (2.0, 1), ("2", 1), (True, 1), (2, False)):
        with pytest.raises(ContractError, match="must be an integer"):
            LagSpec(p=p, s=s)
    # numpy's integers are integers
    assert LagSpec(p=np.int64(2), s=np.int32(1)).p == 2


def test_design_copies_a_view_of_a_writable_target():
    # a 1-D Y is reshaped to a column, a view of the caller's array; a
    # write to that array must not reach the design
    y = np.arange(5.0)
    design = DesignMatrix(Y=y, Z=np.ones((5, 1)), row_dates=daily_dates(5),
                          col_labels=("a",), target_names=("Y1",),
                          exog_names=(), p=1, s=0, mode="positional")
    y[0] = 99.0
    assert design.Y[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert y.flags.writeable


def test_take_slices_rows():
    frame = make_frame(np.arange(12, dtype=float))
    design = build_design(frame, LagSpec(p=2, s=0))
    head = design.take(slice(0, 4))
    assert head.n_eff == 4
    np.testing.assert_array_equal(head.Y, design.Y[:4])
    np.testing.assert_array_equal(head.Z, design.Z[:4])


def test_standardize_statistics():
    rng = np.random.default_rng(2)
    frame = make_frame(rng.normal(size=40), rng.normal(size=(40, 1)) * 5 + 3)
    design = build_design(frame, LagSpec(p=1, s=1))
    head = design.take(slice(0, 20))
    scaled, info = standardize(head)
    # stats come from the taken rows only, sample sd (ddof=1)
    np.testing.assert_allclose(info.z_mean, design.Z[:20].mean(axis=0))
    np.testing.assert_allclose(info.z_sd, design.Z[:20].std(axis=0, ddof=1))
    np.testing.assert_allclose(info.y_mean, design.Y[:20].mean(axis=0))
    np.testing.assert_allclose(scaled.Z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(scaled.Z.std(axis=0, ddof=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(scaled.Y.mean(axis=0), 0.0, atol=1e-12)
    # the transform is invertible back to the raw rows
    np.testing.assert_allclose(scaled.Z * info.z_sd + info.z_mean, head.Z,
                               atol=1e-10)


def test_standardize_constant_column_flagged():
    frame = make_frame(np.arange(10, dtype=float), np.full((10, 1), 7.0))
    design = build_design(frame, LagSpec(p=1, s=1))
    scaled, info = standardize(design)
    assert info.constant.tolist() == [False, True]
    assert info.z_sd[1] == 1.0
    np.testing.assert_allclose(scaled.Z[:, 1], 0.0, atol=1e-12)


def test_standardize_needs_two_rows():
    frame = make_frame(np.arange(6, dtype=float))
    design = build_design(frame, LagSpec(p=1, s=0))
    with pytest.raises(InsufficientDataError):
        standardize(design.take(slice(0, 1)))


def test_destandardize_round_trip():
    rng = np.random.default_rng(3)
    frame = make_frame(rng.normal(size=30) * 4 - 50, rng.normal(size=(30, 2)))
    design = build_design(frame, LagSpec(p=2, s=1))
    for standardize_design in (True, False):
        model = fit(design, Penalty(1.0, 0.5), standardize_design=standardize_design)
        info = model.scaling
        assert model.coeffs.shape == (1, design.q) and model.nu.shape == (1,)
        # raw_b = b / sd_z and raw_nu = mean_y + a - raw_b @ mean_z, to the bit
        raw = model.scaled_coeffs / info.z_sd
        np.testing.assert_array_equal(model.coeffs, raw)
        np.testing.assert_array_equal(
            model.nu, info.y_mean + model.scaled_intercept - raw @ info.z_mean)
        # identical fitted values through either parameterization
        scaled_Z = (design.Z - info.z_mean) / info.z_sd
        fit_scaled = scaled_Z @ model.scaled_coeffs.T + model.scaled_intercept \
            + info.y_mean
        fit_raw = design.Z @ model.coeffs.T + model.nu
        np.testing.assert_allclose(fit_raw, fit_scaled, atol=1e-10)


def test_duplicate_labels_rejected():
    frame = make_frame([1.0, 2.0, 3.0], [[1.0], [2.0], [3.0]],
                       exog_names=["Y1L"])  # collides with target label Y1L1
    with pytest.raises(ContractError):
        build_design(frame, LagSpec(p=1, s=1))


def test_lookahead_violations_zero_on_honest_design():
    rng = np.random.default_rng(4)
    frame = make_frame(rng.normal(size=25), rng.normal(size=(25, 2)))
    for mode in ("calendar", "positional"):
        design = build_design(frame, LagSpec(p=2, s=2, mode=mode))
        assert lookahead_violations(design, frame) == 0


def test_lookahead_violations_detects_tampering():
    rng = np.random.default_rng(5)
    frame = make_frame(rng.normal(size=25))
    design = build_design(frame, LagSpec(p=1, s=0))
    Z = design.Z.copy()
    Z[3, 0] = frame.targets[10, 0]   # smuggle in a future value
    tampered = DesignMatrix(Y=design.Y, Z=Z, row_dates=design.row_dates,
                            col_labels=design.col_labels,
                            target_names=design.target_names,
                            exog_names=design.exog_names,
                            p=design.p, s=design.s, mode=design.mode)
    assert lookahead_violations(tampered, frame) == 1


@pytest.mark.parametrize("mode", ["calendar", "positional"])
def test_lookahead_violations_counts_row_missing_from_frame(mode):
    rng = np.random.default_rng(6)
    frame = make_frame(rng.normal(size=30), rng.normal(size=(30, 2)))
    design = build_design(frame, LagSpec(p=2, s=1, mode=mode))
    # the last design row's date is gone, but every source of its cells is not
    short = replace(frame, dates=frame.dates[:-1], targets=frame.targets[:-1],
                    exog=frame.exog[:-1])
    assert lookahead_violations(design, short) == design.q


@pytest.mark.parametrize("mode, resolution", [("calendar", "daily"),
                                              ("positional", "daily"),
                                              ("calendar", "monthly")])
def test_lookahead_violations_counts_every_cell_against_an_empty_frame(mode,
                                                                       resolution):
    # a frame of no rows has no exogenous columns (TimeSeriesFrame makes an
    # empty exog block 0 wide)
    frame = make_frame(np.random.default_rng(7).normal(size=(20, 2)))
    design = build_design(frame, LagSpec(p=3, s=0, mode=mode))
    empty = replace(frame, dates=frame.dates[:0], targets=frame.targets[:0],
                    exog=frame.exog[:0], resolution=resolution)
    assert lookahead_violations(design, empty) == design.n_eff * design.q


def reference_violations(design, frame):
    """Per-row, per-lag reference audit: the loop the vectorized one replaced.

    Raises KeyError when a design row's date is not in the frame.
    """
    date_pos = {d: i for i, d in enumerate(frame.dates)}
    k, m = frame.k, frame.m
    bad = 0
    for r in range(design.n_eff):
        d = design.row_dates[r]
        t = date_pos[d]
        for lag in range(1, design.p + 1):
            if design.mode == "calendar":
                if frame.resolution == "daily":
                    src_date = d - np.timedelta64(lag, "D")
                else:
                    src_date = (d.astype("datetime64[M]") - lag).astype("datetime64[D]")
                src = date_pos.get(src_date)
            else:
                src = t - lag if t - lag >= 0 else None
            cells = design.Z[r, (lag - 1) * k: lag * k]
            if src is None or frame.dates[src] >= d:
                bad += k
            else:
                bad += int(np.sum(frame.targets[src] != cells))
        for lag in range(1, design.s + 1):
            if design.mode == "calendar":
                if frame.resolution == "daily":
                    src_date = d - np.timedelta64(lag, "D")
                else:
                    src_date = (d.astype("datetime64[M]") - lag).astype("datetime64[D]")
                src = date_pos.get(src_date)
            else:
                src = t - lag if t - lag >= 0 else None
            off = design.p * k + (lag - 1) * m
            cells = design.Z[r, off: off + m]
            if src is None or frame.dates[src] >= d:
                bad += m
            else:
                bad += int(np.sum(frame.exog[src] != cells))
    return bad


def _gappy_frame(rng, n_days, k, m, gap_rate, start="2001-01-01"):
    """Daily frame with small-integer values and randomly dropped days."""
    keep = rng.random(n_days) >= gap_rate
    n = int(keep.sum())
    frame = make_frame(rng.integers(-3, 4, size=(n, k)).astype(float),
                       rng.integers(-3, 4, size=(n, m)).astype(float),
                       start=start)
    return replace(frame, dates=daily_dates(n_days, start)[keep])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(setting=st.sampled_from(["daily", "monthly", "positional"]),
       p=st.integers(1, 4), s=st.integers(0, 3), k=st.integers(1, 2),
       m=st.integers(0, 2), n_bad=st.integers(0, 3), n_moved=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_lookahead_violations_match_reference(setting, p, s, k, m, n_bad,
                                              n_moved, seed):
    rng = np.random.default_rng(seed)
    if setting == "monthly":
        daily = _gappy_frame(rng, 1100, k, m, gap_rate=0.3)
        # drop a few whole months so some monthly lags are missing
        months = daily.dates.astype("datetime64[M]")
        gone = rng.choice(np.unique(months), size=3, replace=False)
        keep = ~np.isin(months, gone)
        daily = replace(daily, dates=daily.dates[keep],
                        targets=daily.targets[keep], exog=daily.exog[keep])
        frame = aggregate_monthly(daily)
    else:
        frame = _gappy_frame(rng, 60, k, m, gap_rate=rng.uniform(0.0, 0.3))
    mode = "positional" if setting == "positional" else "calendar"
    try:
        design = build_design(frame, LagSpec(p=p, s=s, mode=mode))
    except InsufficientDataError:
        assume(False)
    assert lookahead_violations(design, frame) == 0

    # overwrite up to three y-lag or x-lag cells with a value from any row,
    # future rows included; a draw that repeats the true value is no violation
    Z = design.Z.copy()
    both = np.hstack([frame.targets, frame.exog])
    for _ in range(n_bad):
        row, col = rng.integers(design.n_eff), rng.integers(design.q)
        Z[row, col] = both[rng.integers(frame.n), rng.integers(both.shape[1])]
    # and re-date up to two rows to any frame date, the earliest included
    dates = design.row_dates.copy()
    for _ in range(n_moved):
        dates[rng.integers(design.n_eff)] = frame.dates[rng.integers(frame.n)]
    tampered = replace(design, Z=Z, row_dates=dates)
    assert lookahead_violations(tampered, frame) \
        == reference_violations(tampered, frame)


@pytest.mark.parametrize("rows", [slice(3, 17), "mask", [0, 5, 6, 2, 19]],
                         ids=["slice", "mask", "index"])
def test_take_is_read_only_and_equals_a_validated_subset(rows):
    rng = np.random.default_rng(8)
    frame = make_frame(rng.normal(size=(30, 2)), rng.normal(size=(30, 2)))
    design = build_design(frame, LagSpec(p=2, s=1))
    if rows == "mask":
        rows = rng.random(design.n_eff) < 0.5
    sub = design.take(rows)
    old = DesignMatrix(
        Y=design.Y[rows], Z=design.Z[rows], row_dates=design.row_dates[rows],
        col_labels=design.col_labels, target_names=design.target_names,
        exog_names=design.exog_names, p=design.p, s=design.s, mode=design.mode)
    for name in ("Y", "Z", "row_dates"):
        got, want = getattr(sub, name), getattr(old, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        assert got.flags.c_contiguous and not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = got[0]
    for name in ("col_labels", "target_names", "exog_names", "p", "s", "mode"):
        assert getattr(sub, name) == getattr(old, name)
