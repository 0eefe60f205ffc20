"""One-step test-segment forecasting, error bands, and summary tables."""

import json

import numpy as np
import pytest

from conftest import make_frame
from hydrovarx import (
    ForecastSeries,
    LagSpec,
    Penalty,
    SplitPlan,
    build_design,
    fit,
    full_report,
    predict_rows,
    regression_line,
    rolling_forecast,
)
from hydrovarx.cli import _write_coefficients_csv, _write_forecast_csv
from hydrovarx.errors import ContractError, InsufficientDataError
from hydrovarx.simulate import SynthSpec, simulate


def _fitted(seed=0, n=120, noise=0.3):
    spec = SynthSpec(n=n, phi=np.array([0.7]), beta=np.array([[[0.6]]]),
                     noise_sd=noise, seed=seed)
    frame, _ = simulate(spec)
    design = build_design(frame, LagSpec(p=1, s=1))
    split = SplitPlan(design.n_eff)
    model = fit(design.take(slice(0, split.T2)), Penalty(0.5, 0.5))
    return model, design, split


def test_forecast_covers_exactly_the_test_rows():
    model, design, split = _fitted()
    series = rolling_forecast(model, design, split)
    assert series.n == design.n_eff - split.T2
    np.testing.assert_array_equal(series.dates,
                                  design.row_dates[split.T2:])
    np.testing.assert_array_equal(series.observed,
                                  design.Y[split.T2:])


def test_forecast_predictions_match_predict_rows():
    model, design, split = _fitted(1)
    series = rolling_forecast(model, design, split)
    test = design.take(split.test)
    np.testing.assert_array_equal(series.predicted, predict_rows(model, test))


def test_se_is_validation_rmse():
    model, design, split = _fitted(2)
    series = rolling_forecast(model, design, split)
    val = design.take(split.validate)
    err = predict_rows(model, val) - val.Y
    rmse = np.sqrt(np.mean(err ** 2, axis=0))
    np.testing.assert_allclose(series.se, rmse, atol=1e-12)


def test_bands_are_constant_width_multiples():
    model, design, split = _fitted(3)
    for mult in (1.0, 3.0):
        series = rolling_forecast(model, design, split, multiplier=mult)
        np.testing.assert_allclose(series.upper - series.predicted,
                                   np.broadcast_to(mult * series.se,
                                                   series.predicted.shape),
                                   atol=1e-12)
        np.testing.assert_allclose(series.predicted - series.lower,
                                   np.broadcast_to(mult * series.se,
                                                   series.predicted.shape),
                                   atol=1e-12)


def test_noiseless_series_gets_full_coverage():
    spec = SynthSpec(n=150, phi=np.array([0.9]), noise_sd=0.0,
                     burn_in=0, init_y=np.array([1.0]), seed=0)
    frame, _ = simulate(spec)
    design = build_design(frame, LagSpec(p=1, s=0))
    split = SplitPlan(design.n_eff)
    model = fit(design.take(slice(0, split.T2)), Penalty(0.0, 0.5))
    series = rolling_forecast(model, design, split)
    assert series.coverage() == 1.0
    np.testing.assert_allclose(series.se, 0.0, atol=1e-12)


def test_persistence_model_scores_cp_zero():
    # a model that forwards lag 1 unchanged is exactly the persistence
    # baseline, so the persistence index must vanish
    rng = np.random.default_rng(8)
    frame = make_frame(rng.normal(size=60).cumsum())
    design = build_design(frame, LagSpec(p=1, s=0))
    split = SplitPlan(design.n_eff)
    base = fit(design.take(slice(0, split.T2)), Penalty(0.0, 0.5))
    from dataclasses import replace
    persist = replace(base, nu=np.zeros(1), coeffs=np.ones((1, 1)))
    series = rolling_forecast(persist, design, split)
    rep = full_report((series.observed, series.predicted))
    np.testing.assert_allclose(rep.values["cp"], 0.0, atol=1e-12)


def test_multiplier_must_be_positive():
    model, design, split = _fitted(4)
    with pytest.raises(ContractError):
        rolling_forecast(model, design, split, multiplier=0.0)


@pytest.mark.parametrize("multiplier", [float("nan"), float("inf"), True])
def test_multiplier_must_be_finite(multiplier):
    # a NaN band would cover nothing, an infinite one everything; a bool is
    # no number
    model, design, split = _fitted(4)
    with pytest.raises(ContractError, match="finite"):
        rolling_forecast(model, design, split, multiplier=multiplier)


def test_a_forecast_copies_a_view_of_a_writable_array():
    # a 1-D array is reshaped to a column, a view of the caller's array; a
    # write to that array must not reach the series
    dates = np.datetime64("2010-01-01") + np.arange(3)
    obs = np.array([1.0, 2.0, 3.0])
    series = ForecastSeries(dates=dates, observed=obs, predicted=obs + 0.5,
                            lower=obs - 1, upper=obs + 1, se=np.array([1.0]),
                            multiplier=1.0)
    obs[0] = 99.0
    assert series.observed[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert obs.flags.writeable


def test_split_must_match_design():
    model, design, _ = _fitted(5)
    head = design.take(slice(0, 6))
    with pytest.raises(ContractError):
        rolling_forecast(model, head, SplitPlan(9))


def test_forecast_csv_round_trip(tmp_path):
    model, design, split = _fitted(6)
    series = rolling_forecast(model, design, split)
    path = tmp_path / "forecast.csv"
    _write_forecast_csv(path, series, ["# context line"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# context line"
    assert lines[1].startswith("# multiplier=")
    assert lines[2].startswith("# se=")
    assert lines[3] == "date,observed,predicted,lower,upper"
    assert len(lines) == 4 + series.n
    first = lines[4].split(",")
    assert first[0] == str(series.dates[0])
    np.testing.assert_allclose(float(first[2]), series.predicted[0, 0],
                               rtol=1e-9)


def test_regression_line_exact_on_affine_data():
    dates = np.datetime64("2010-01-01") + np.arange(5)
    pred = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    obs = 2.0 + 0.5 * pred
    series = ForecastSeries(dates=dates, observed=obs, predicted=pred,
                            lower=pred - 1, upper=pred + 1,
                            se=np.array([1.0]), multiplier=1.0,
                            target_names=("Y1",))
    line = regression_line(series)
    np.testing.assert_allclose(line.intercept[0], 2.0, atol=1e-12)
    np.testing.assert_allclose(line.slope[0], 0.5, atol=1e-12)


@pytest.mark.parametrize("level", [3.0, -41.7])
def test_regression_line_constant_predictions_flagged(level):
    # -41.7 repeated has a mean that rounds, so its deviations from the mean
    # are not all zero; constancy is decided on the values themselves
    n = 100
    dates = np.datetime64("2010-01-01") + np.arange(n)
    pred = np.column_stack([np.full(n, level), np.arange(n, dtype=float)])
    obs = pred * 0.5 + np.sin(np.arange(n))[:, None]
    series = ForecastSeries(dates=dates, observed=obs, predicted=pred,
                            lower=pred, upper=pred, se=np.array([0.0, 0.0]),
                            multiplier=1.0, target_names=("Y1", "Y2"))
    line = regression_line(series)
    assert np.isnan(line.slope[0]) and np.isnan(line.intercept[0])
    assert np.isfinite(line.slope[1]) and np.isfinite(line.intercept[1])
    assert json.loads(json.dumps(line.to_dict())) == {
        "intercept": [None, line.intercept[1]], "slope": [None, line.slope[1]]}


def test_regression_line_needs_three_rows():
    dates = np.datetime64("2010-01-01") + np.arange(2)
    vals = np.array([1.0, 2.0])
    series = ForecastSeries(dates=dates, observed=vals, predicted=vals,
                            lower=vals, upper=vals, se=np.array([0.0]),
                            multiplier=1.0, target_names=("Y1",))
    with pytest.raises(InsufficientDataError):
        regression_line(series)


def _coefficient_rows(model, tmp_path):
    path = tmp_path / "coefficients.csv"
    _write_coefficients_csv(path, model, [])
    return [line.split(",") for line in path.read_text().splitlines()]


def test_coefficient_report_layout(tmp_path):
    model, design, split = _fitted(7)
    rows = _coefficient_rows(model, tmp_path)
    assert rows[0] == ["label", "coefficient", "standardized"]
    assert [r[0] for r in rows[1:]] == ["intercept", *model.col_labels]
    raw, scaled = np.array([[float(v) for v in r[1:]] for r in rows[1:]]).T
    np.testing.assert_array_equal(raw[0], model.nu[0])
    np.testing.assert_array_equal(raw[1:], model.coeffs[0])
    np.testing.assert_array_equal(scaled[0],
                                  np.atleast_1d(model.scaled_intercept)[0])
    np.testing.assert_array_equal(scaled[1:], model.scaled_coeffs[0])


def test_coefficient_csv_lists_zeros_too(tmp_path):
    _, design, split = _fitted(8)
    model = fit(design.take(slice(0, split.T2)), Penalty(100.0, 1.0))
    assert 0.0 in model.coeffs and model.coeffs.any()
    rows = _coefficient_rows(model, tmp_path)
    # header, then the intercept and one row per label, zero or not
    assert rows[0] == ["label", "coefficient", "standardized"]
    assert [r[0] for r in rows[1:]] == ["intercept", *model.col_labels]
    raw, scaled = np.array([[float(v) for v in r[1:]] for r in rows[1:]]).T
    np.testing.assert_array_equal(raw, np.hstack([model.nu, model.coeffs[0]]))
    np.testing.assert_array_equal(
        scaled, np.hstack([model.scaled_intercept, model.scaled_coeffs[0]]))
