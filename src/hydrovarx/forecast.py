"""Test-segment forecasting and fit reporting.

Forecasts are strictly one step ahead: every prediction conditions on
observed lag values, never on earlier predictions. Uncertainty bands use a
constant half-width of ``multiplier * se`` where ``se`` is the root mean
squared one-step error over the validation segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .errors import (
    ContractError,
    DegenerateRegressionError,
    InsufficientDataError,
)
from .selection import SplitPlan, _check_split
from .solver import FittedModel, predict_rows


@dataclass(frozen=True)
class ForecastSeries:
    """Dated one-step forecasts with observations and constant-width bands."""

    dates: np.ndarray
    observed: np.ndarray
    predicted: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    se: np.ndarray
    multiplier: float
    target_names: tuple[str, ...] = ("Y1",)

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("observed", "predicted", "lower", "upper"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            arrays[name] = arr
        dates = np.asarray(self.dates, dtype="datetime64[D]")
        shape = arrays["observed"].shape
        if any(a.shape != shape for a in arrays.values()) or shape[0] != len(dates):
            raise ContractError("forecast arrays disagree on shape")
        se = np.asarray(self.se, dtype=float).reshape(-1)
        if se.shape[0] != shape[1]:
            raise ContractError("se must have one entry per target")
        for name, arr in {**arrays, "dates": dates, "se": se}.items():
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.dates)

    @property
    def k(self) -> int:
        return self.observed.shape[1]

    def coverage(self, target: int = 0) -> float:
        """Fraction of test rows whose observation falls inside the band."""
        inside = (self.observed[:, target] >= self.lower[:, target]) \
            & (self.observed[:, target] <= self.upper[:, target])
        return float(inside.mean())


def rolling_forecast(model: FittedModel, design: DesignMatrix, split: SplitPlan,
                     multiplier: float = 3.0) -> ForecastSeries:
    """One-step forecasts over the test segment with +/- multiplier*se bands.

    ``design`` must be the original-unit design whose rows the split indexes;
    the model is expected to have been fit on rows before the test segment.
    The band half-width is constant: multiplier times the RMSE of the model's
    one-step errors over the validation rows, per target.
    """
    _check_split(design, split)
    if multiplier <= 0:
        raise ContractError("band multiplier must be positive")
    if split.T2 >= design.n_eff:
        raise InsufficientDataError("test segment is empty")
    val = design.take(split.validate)
    err = predict_rows(model, val) - val.Y
    se = np.sqrt(np.mean(err * err, axis=0))

    test = design.take(split.test)
    pred = predict_rows(model, test)
    half = multiplier * se
    return ForecastSeries(
        dates=test.row_dates, observed=test.Y, predicted=pred,
        lower=pred - half, upper=pred + half, se=se, multiplier=multiplier,
        target_names=design.target_names,
    )


@dataclass(frozen=True)
class RegressionLine:
    """Per-target OLS line observed = intercept + slope * predicted."""

    intercept: np.ndarray
    slope: np.ndarray

    def __post_init__(self) -> None:
        for name in ("intercept", "slope"):
            arr = np.ascontiguousarray(
                np.asarray(getattr(self, name), dtype=float).reshape(-1))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def a(self) -> float:
        return float(self.intercept[0])

    @property
    def b(self) -> float:
        return float(self.slope[0])

    def to_dict(self) -> dict:
        return {"intercept": self.intercept.tolist(), "slope": self.slope.tolist()}


def regression_line(series: ForecastSeries) -> RegressionLine:
    """Least-squares line of observed on predicted over the forecast rows."""
    if series.n < 3:
        raise InsufficientDataError(
            f"regression line needs >= 3 rows; have {series.n}")
    intercepts = np.empty(series.k)
    slopes = np.empty(series.k)
    for t in range(series.k):
        x = series.predicted[:, t]
        y = series.observed[:, t]
        dev = x - x.mean()
        sxx = float(dev @ dev)
        if sxx == 0.0:
            raise DegenerateRegressionError(
                f"predictions for target {series.target_names[t]!r} are constant")
        slopes[t] = float(dev @ (y - y.mean())) / sxx
        intercepts[t] = y.mean() - slopes[t] * x.mean()
    return RegressionLine(intercept=intercepts, slope=slopes)


@dataclass(frozen=True)
class CoefficientTable:
    """Every coefficient (zeros included) with raw and standardized values.

    Rows are ordered intercept first, then the lag-major regressor labels —
    the same order the design matrix uses.
    """

    labels: tuple[str, ...]
    raw: np.ndarray
    scaled: np.ndarray
    target_names: tuple[str, ...]

    def __post_init__(self) -> None:
        raw = np.asarray(self.raw, dtype=float)
        scaled = np.asarray(self.scaled, dtype=float)
        if raw.shape != scaled.shape or raw.shape[0] != len(self.labels):
            raise ContractError("coefficient table shapes disagree")
        for name, arr in (("raw", raw), ("scaled", scaled)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def coefficient_report(model: FittedModel) -> CoefficientTable:
    """Labeled coefficient table in reporting order, zeros printed exactly."""
    labels = ("intercept",) + model.col_labels
    raw = np.vstack([model.nu.reshape(1, -1), model.coeffs.T])
    scaled = np.vstack([model.scaled_intercept.reshape(1, -1), model.scaled_coeffs.T])
    return CoefficientTable(labels=labels, raw=raw, scaled=scaled,
                            target_names=model.target_names)
