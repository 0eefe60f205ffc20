"""Sparse elastic-net VARX modeling for daily environmental time series.

The package fits vector autoregressive models with exogenous inputs by
coordinate descent under an elastic-net penalty, selects the penalty weight
by rolling one-step forecast error on a chronological train/validate/test
split, selects lag orders by BIC, and scores held-out forecasts with a broad
suite of hydrological goodness-of-fit measures. A seeded synthetic generator
supports end-to-end validation against known ground truth.
"""

from .design import (
    DesignMatrix,
    LagSpec,
    ScalingInfo,
    build_design,
    destandardize_coeffs,
    lookahead_violations,
    regressor_labels,
    standardize,
)
from .errors import (
    ColumnNotFoundError,
    CompatibilityError,
    ConfigError,
    ContractError,
    DataError,
    DegenerateFitError,
    DegenerateRegressionError,
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
from .forecast import (
    CoefficientTable,
    ForecastSeries,
    RegressionLine,
    coefficient_report,
    regression_line,
    rolling_forecast,
)
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
from .metrics import (
    METRIC_ORDER,
    MetricsReport,
    correlation_metrics,
    efficiency_metrics,
    error_metrics,
    full_report,
    kge_metrics,
)
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
from .simulate import GroundTruth, SynthSpec, companion_spectral_radius, simulate
from .solver import (
    FittedModel,
    Penalty,
    fit,
    kkt_violation,
    lambda_max,
    objective,
    predict_one_step,
    predict_rows,
)

__version__ = "0.1.0"

__all__ = [
    "AblationResult", "CoefficientTable", "Column", "ColumnNotFoundError",
    "CompatibilityError", "ConfigError", "ContractError", "DORMANT_WINDOW",
    "DataError", "DegenerateFitError", "DegenerateRegressionError",
    "DesignMatrix", "EmptyDataError", "EvaluationReport", "FittedModel",
    "ForecastSeries", "GROWING_WINDOW", "GroundTruth", "HydroVarxError",
    "InputError", "InsufficientDataError", "InvalidOperationError",
    "LagSpec", "LambdaPath", "METRIC_ORDER", "MetricsReport", "ModelSpec",
    "NonFiniteError", "NumericalError", "OrderScan", "Penalty",
    "RegressionLine", "SEASONS", "ScalingInfo", "SplitPlan",
    "SynthSpec", "TimeSeriesFrame", "UnsupportedResolutionError",
    "ablation_run", "aggregate_monthly", "bic", "build_design",
    "coefficient_report", "companion_spectral_radius", "correlation_metrics",
    "default_grid", "destandardize_coeffs", "drop_columns",
    "efficiency_metrics", "error_metrics", "exit_code_for", "filter_season",
    "fit", "full_report", "kge_metrics", "kkt_violation", "lambda_max",
    "leakage_audit", "load_csv", "lookahead_violations", "objective", "predict_one_step",
    "predict_rows", "preprocess", "regression_line", "regressor_labels",
    "rolling_forecast", "run_pipeline", "select_lambda", "select_order",
    "simulate", "standardize", "write_csv",
]
