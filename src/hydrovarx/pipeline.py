"""End-to-end modeling pipeline: preprocess, split, select, fit, forecast, score.

``run_pipeline`` wires the full protocol for one frame; ``score`` is its
test-third tail, shared with a stored model's evaluation. Errors raised inside
are tagged with the pipeline stage name (``exc.stage``) so callers can report
where a run failed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix, LagSpec, build_design, lookahead_violations
from .errors import ContractError, HydroVarxError
from .forecast import ForecastSeries, RegressionLine, regression_line, rolling_forecast
from .frame import TimeSeriesFrame, aggregate_monthly, drop_columns, filter_season
from .metrics import METRIC_ORDER, MetricsReport, full_report
from .selection import LambdaPath, ModelSpec, SplitPlan, select_lambda
from .solver import FittedModel, Penalty, fit, prepare


@contextmanager
def _stage(name: str):
    try:
        yield
    except HydroVarxError as exc:
        if exc.stage is None:
            exc.stage = name
        raise


@dataclass(frozen=True)
class EvaluationReport:
    """Everything a run produced, kept immutable for reporting and audits."""

    spec: ModelSpec
    dropped: tuple[str, ...]
    design: DesignMatrix
    split: SplitPlan
    lambda_path: LambdaPath
    model: FittedModel
    forecast: ForecastSeries
    metrics: tuple[MetricsReport, ...]
    regression: RegressionLine


def preprocess(frame: TimeSeriesFrame, spec: ModelSpec,
               dropped=()) -> TimeSeriesFrame:
    """Column drops, seasonal filtering, and optional monthly aggregation."""
    with _stage("drop-columns"):
        frame = drop_columns(frame, dropped)
    with _stage("season-filter"):
        frame = filter_season(frame, spec.season)
    if spec.aggregate == "monthly":
        with _stage("aggregate"):
            if spec.sum_columns is None:
                names = frame.target_names + frame.exog_names
                sum_cols = ("Rainfall",) if "Rainfall" in names else ()
            else:
                sum_cols = spec.sum_columns
            frame = aggregate_monthly(frame, sum_cols)
    return frame


def run_pipeline(frame: TimeSeriesFrame, spec: ModelSpec = ModelSpec(),
                 dropped=()) -> EvaluationReport:
    """Run the full protocol and return the complete evaluation report.

    Steps: preprocess -> lag design -> T/3 split -> lambda by validation MSFE
    -> refit on the first two thirds -> ``score`` on the test third.
    """
    dropped = tuple(dropped)
    frame = preprocess(frame, spec, dropped)
    with _stage("design"):
        design = build_design(frame, LagSpec(spec.p, spec.s, spec.lag_mode))
    with _stage("split"):
        split = SplitPlan(design.n_eff)
    with _stage("select-lambda"):
        path = select_lambda(design, split, spec)
    with _stage("fit"):
        model = fit(design.take(slice(0, split.T2)),
                    Penalty(path.chosen_lambda, spec.alpha),
                    standardize_design=spec.standardize,
                    tol=spec.tol, max_iter=spec.max_iter)
    series, reports, line = score(model, design, split, spec.ci_multiplier)
    return EvaluationReport(
        spec=spec, dropped=dropped, design=design, split=split,
        lambda_path=path, model=model, forecast=series, metrics=reports,
        regression=line,
    )


def score(model: FittedModel, design: DesignMatrix, split: SplitPlan,
          multiplier: float) -> tuple[ForecastSeries, tuple[MetricsReport, ...],
                                      RegressionLine]:
    """Score a model on the test third: one-step forecasts with bands, the
    metric suite per target, and the observed-on-predicted line."""
    with _stage("forecast"):
        series = rolling_forecast(model, design, split, multiplier)
    with _stage("metrics"):
        reports = tuple(full_report((series.observed[:, t], series.predicted[:, t]),
                                    n_predictors=len(model.support))
                        for t in range(design.k))
    with _stage("regression"):
        line = regression_line(series)
    return series, reports, line


@dataclass(frozen=True)
class AblationResult:
    """Paired full/reduced runs on identical rows, plus metric deltas."""

    full: EvaluationReport
    reduced: EvaluationReport
    dropped: tuple[str, ...]

    def delta_rows(self, target: int = 0) -> list[tuple[str, float, float, float]]:
        """(metric, full, reduced, reduced - full); NaN where either is flagged."""
        rows = []
        full_m = self.full.metrics[target]
        red_m = self.reduced.metrics[target]
        for key in METRIC_ORDER:
            fv = full_m.values[key]
            rv = red_m.values[key]
            rows.append((key, fv, rv, rv - fv))
        return rows


def ablation_run(frame: TimeSeriesFrame, spec: ModelSpec = ModelSpec(),
                 dropped=()) -> AblationResult:
    """Fit the protocol with and without some exogenous columns.

    Both runs see identical response rows and split dates (dropping columns
    never changes the rows of a complete-case frame), so metric deltas are
    attributable to the missing regressors alone.
    """
    full = run_pipeline(frame, spec, ())
    reduced = run_pipeline(frame, spec, tuple(dropped))
    if not np.array_equal(full.design.row_dates, reduced.design.row_dates):
        raise ContractError("ablation runs diverged on split dates")
    return AblationResult(full=full, reduced=reduced, dropped=tuple(dropped))


def leakage_audit(report: EvaluationReport,
                  frame: TimeSeriesFrame) -> dict[str, int]:
    """Count protocol violations in a finished run (all-zero dict = clean).

    Checks: no regressor cell draws on data dated at or after its row
    (recomputed from the source frame), forecast rows are exactly the test
    segment, train/validation/test share no integer day, and the final model's
    scaling statistics reproduce bit-for-bit from the pre-test rows alone.
    """
    spec = report.spec
    pre = preprocess(frame, spec, report.dropped)
    design, split = report.design, report.split

    counts = {}
    counts["lookahead"] = lookahead_violations(design, pre)

    test_dates = design.row_dates[split.test]
    dates = report.forecast.dates
    common = min(len(dates), len(test_dates))
    counts["forecast_dates"] = int(np.sum(dates[:common] != test_dates[:common])) \
        + abs(len(dates) - len(test_dates))

    days = design.row_dates.view(np.int64)
    train_d, val_d, test_d = (set(days[rows].tolist())
                              for rows in (split.train, split.validate, split.test))
    counts["split_overlap"] = len(train_d & val_d) + len(train_d & test_d) \
        + len(val_d & test_d)

    sc = report.model.scaling
    if sc.enabled:
        _, mean, (sd, constant) = prepare(design.take(slice(0, split.T2)))
        q = design.q
        redo = (mean[:q], sd, mean[q:], constant)
        counts["scaling"] = sum(int(np.sum(a != b)) for a, b in zip(
            redo, (sc.z_mean, sc.z_sd, sc.y_mean, sc.constant)))
    else:
        counts["scaling"] = 0
    return counts
