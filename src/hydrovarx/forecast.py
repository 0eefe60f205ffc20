"""Test-segment forecasting and the observed-on-predicted regression line.

Forecasts are strictly one step ahead: every prediction conditions on
observed lag values, never on earlier predictions. Uncertainty bands use a
constant half-width of ``multiplier * se`` where ``se`` is the root mean
squared one-step error over the validation segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .errors import ContractError, InsufficientDataError
from .frame import freeze
from .metrics import _constant
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
        freeze(self, **arrays, dates=dates, se=se)

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
    if isinstance(multiplier, bool) or not (math.isfinite(multiplier) and multiplier > 0):
        raise ContractError("band multiplier must be a finite number > 0")
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
    """Per-target OLS line observed = intercept + slope * predicted; NaN
    (``null`` in JSON) for a target whose predictions are constant."""

    intercept: np.ndarray
    slope: np.ndarray

    def __post_init__(self) -> None:
        freeze(self, intercept=np.asarray(self.intercept, dtype=float).reshape(-1),
               slope=np.asarray(self.slope, dtype=float).reshape(-1))

    def to_dict(self) -> dict:
        return {name: [None if np.isnan(v) else v for v in arr.tolist()]
                for name, arr in (("intercept", self.intercept),
                                  ("slope", self.slope))}


def regression_line(series: ForecastSeries) -> RegressionLine:
    """Least-squares line of observed on predicted over the forecast rows.

    A target whose predictions are all equal, as an intercept-only model's
    are, has no line: its slope and intercept are flagged NaN, as the
    metrics flag r for a constant simulation.
    """
    if series.n < 3:
        raise InsufficientDataError(
            f"regression line needs >= 3 rows; have {series.n}")
    intercepts = np.full(series.k, np.nan)
    slopes = np.full(series.k, np.nan)
    for t in range(series.k):
        x = series.predicted[:, t]
        y = series.observed[:, t]
        if _constant(x):
            continue
        dev = x - x.mean()
        slopes[t] = float(dev @ (y - y.mean())) / float(dev @ dev)
        intercepts[t] = y.mean() - slopes[t] * x.mean()
    return RegressionLine(intercept=intercepts, slope=slopes)
