"""Sparse elastic-net VARX modeling for daily environmental time series.

The package fits vector autoregressive models with exogenous inputs by a
certified active-set method under an elastic-net penalty, selects the
penalty weight by rolling one-step forecast error on a chronological
train/validate/test split, selects lag orders by BIC, and scores held-out
forecasts with a broad suite of hydrological goodness-of-fit measures. A seeded synthetic generator
supports end-to-end validation against known ground truth.
"""

from .design import (
    DesignMatrix,
    LagSpec,
    ScalingInfo,
    build_design,
    lookahead_violations,
    standardize,
)
from .errors import (
    ColumnNotFoundError,
    CompatibilityError,
    ConfigError,
    ContractError,
    DataError,
    DegenerateFitError,
    EmptyDataError,
    HydroVarxError,
    InputError,
    InsufficientDataError,
    InvalidOperationError,
    NonFiniteError,
    NumericalError,
    UnsupportedResolutionError,
    exit_code_for,
)
from .forecast import ForecastSeries, RegressionLine, regression_line, rolling_forecast
from .frame import (
    DORMANT_WINDOW,
    GROWING_WINDOW,
    SEASONS,
    Column,
    TimeSeriesFrame,
    aggregate_monthly,
    drop_columns,
    filter_season,
    load_csv,
    write_csv,
)
from .metrics import METRIC_ORDER, MetricsReport, full_report
from .pipeline import (
    AblationResult,
    EvaluationReport,
    ablation_run,
    leakage_audit,
    preprocess,
    run_pipeline,
)
from .selection import (
    LambdaPath,
    ModelSpec,
    OrderScan,
    SplitPlan,
    bic,
    default_grid,
    select_lambda,
    select_order,
)
from .simulate import GroundTruth, SynthSpec, simulate
from .solver import (
    FittedModel,
    Penalty,
    fit,
    kkt_violation,
    predict_rows,
)

__version__ = "0.1.0"

__all__ = [
    "AblationResult", "Column", "ColumnNotFoundError", "CompatibilityError",
    "ConfigError", "ContractError", "DORMANT_WINDOW",
    "DataError", "DegenerateFitError",
    "DesignMatrix", "EmptyDataError", "EvaluationReport", "FittedModel",
    "ForecastSeries", "GROWING_WINDOW", "GroundTruth", "HydroVarxError",
    "InputError", "InsufficientDataError", "InvalidOperationError",
    "LagSpec", "LambdaPath", "METRIC_ORDER", "MetricsReport", "ModelSpec",
    "NonFiniteError", "NumericalError", "OrderScan", "Penalty",
    "RegressionLine", "SEASONS", "ScalingInfo", "SplitPlan",
    "SynthSpec", "TimeSeriesFrame", "UnsupportedResolutionError",
    "ablation_run", "aggregate_monthly", "bic", "build_design",
    "default_grid", "drop_columns",
    "exit_code_for", "filter_season", "fit", "full_report", "kkt_violation",
    "leakage_audit", "load_csv", "lookahead_violations",
    "predict_rows", "preprocess", "regression_line", "rolling_forecast",
    "run_pipeline", "select_lambda", "select_order",
    "simulate", "standardize", "write_csv",
]
