"""Command-line pipeline driver.

Subcommands: ``fit``, ``evaluate``, ``ablate``, ``select-order``,
``simulate``. Each run writes fixed-name artifacts into the output directory
(model.json, lambda_path.csv, coefficients.csv, forecast.csv, metrics.csv,
regression_line.json, order_scan.csv, config.json) and embeds the fully
resolved configuration in every file header, so any artifact can be traced
back to the exact invocation. Outputs contain no timestamps: rerunning a
command with the same config and inputs reproduces every file byte for byte.

Exit codes: 0 success; 2 configuration or usage errors and failed leakage
checks; 3 data errors; 4 numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .design import LagSpec, build_design
from .errors import (
    CompatibilityError,
    ConfigError,
    ContractError,
    HydroVarxError,
    InputError,
    exit_code_for,
)
from .forecast import regression_line, rolling_forecast
from .frame import SEASONS, load_csv, write_csv
from .metrics import full_report
from .pipeline import _stage, ablation_run, leakage_audit, preprocess, run_pipeline
from .selection import ModelSpec, SplitPlan, select_order
from .simulate import SynthSpec, simulate
from .solver import FittedModel

ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: data binding plus a full ModelSpec's worth of knobs."""

    input: str
    out: str
    target: tuple[str, ...]
    exog: tuple[str, ...] | None = None   # None = every other column
    date_column: str = "Date"
    p: int = 4
    s: int = 2
    alpha: float = 0.5
    grid: str = "10:500:24:log"
    season: str = "all"
    aggregate: str = "none"
    sum_columns: tuple[str, ...] | None = None
    drop: tuple[str, ...] = ()
    lag_mode: str = "calendar"
    refit: str = "fixed"
    refit_every: int = 1
    standardize: bool = True
    ci_multiplier: float = 3.0
    tol: float = 1e-7
    max_iter: int = 10000

    def __post_init__(self) -> None:
        if not self.target:
            raise ConfigError("at least one target column is required")
        try:
            self.model_spec()
        except (ContractError, ValueError) as exc:
            raise ConfigError(str(exc)) from None

    def model_spec(self) -> ModelSpec:
        spec = {f.name: getattr(self, f.name) for f in fields(ModelSpec)}
        spec["grid"] = tuple(parse_grid(self.grid))
        return ModelSpec(**spec)

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            d[f.name] = list(v) if isinstance(v, tuple) else v
        return d


def parse_grid(text: str) -> np.ndarray:
    """Parse a lambda grid spec ``min:max:count[:log|linear]``."""
    parts = str(text).split(":")
    if len(parts) == 3:
        parts.append("log")
    if len(parts) != 4 or parts[3] not in ("log", "linear"):
        raise ConfigError(f"bad grid spec {text!r}; want min:max:count[:log|linear]")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"bad grid spec {text!r}: non-numeric field") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"bad grid spec {text!r}: min and max must be finite")
    if count < 1 or hi < lo or (count > 1 and hi == lo):
        raise ConfigError(f"bad grid spec {text!r}: empty or decreasing range")
    if parts[3] == "log":
        if lo <= 0:
            raise ConfigError("log-spaced grid requires min > 0")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _parse_range(text: str) -> list[int]:
    """Order range: ``1:4`` (inclusive) or ``1,2,4``."""
    try:
        if ":" in text:
            lo, hi = (int(v) for v in text.split(":"))
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad order range {text!r}; want lo:hi or a,b,c") from None


# --- artifact writers --------------------------------------------------------

def _header_lines(config: RunConfig, command: str) -> list[str]:
    blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return [f"# hydrovarx-artifact-version: {ARTIFACT_VERSION}",
            f"# command: {command}",
            f"# config: {blob}"]


def parse_artifact_header(path) -> dict:
    """Recover the resolved config embedded in an artifact (provenance check)."""
    with open(path) as fh:
        for line in fh:
            if line.startswith("# config: "):
                return json.loads(line[len("# config: "):])
    raise InputError(f"{path}: no config header found")


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _json_doc(config: RunConfig, command: str, body: dict) -> dict:
    return {"artifact_version": ARTIFACT_VERSION, "command": command,
            "config": config.to_dict(), **body}


def _write_table(path, lines, columns, rows) -> None:
    """The one CSV artifact format: the config header and ``# key=value``
    lines, then the column row and the data rows; every line ends in "\\n"."""
    with open(path, "w", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _g(value) -> str:
    """A float as artifacts print it: 10 significant digits."""
    return f"{value:.10g}"


def _per_target(fields, target_names) -> list[str]:
    """Column names for per-target fields: bare for one target, otherwise
    ``field_target``, field-major."""
    if len(target_names) == 1:
        return list(fields)
    return [f"{f}_{t}" for f in fields for t in target_names]


def _write_target_blocks(path, heads, columns, target_names, blocks) -> None:
    """One block of rows per target, led by a ``target`` column when k > 1."""
    prefix = ["target"] if len(target_names) > 1 else []
    rows = ([name] * len(prefix) + row
            for name, block in zip(target_names, blocks) for row in block)
    _write_table(path, heads, [*prefix, *columns], rows)


def _write_metrics_csv(path, reports, target_names, heads) -> None:
    """metric,value,flag rows in canonical order; one block per target."""
    _write_target_blocks(path, heads, ["metric", "value", "flag"], target_names,
                         ([[key, _g(value), flag] for key, value, flag in r.to_rows()]
                          for r in reports))


def _write_coefficients_csv(path, table, heads) -> None:
    """One row per label, zeros too, each value printed exactly."""
    cells = np.hstack([table.raw, table.scaled]).tolist()
    _write_table(path, heads,
                 ["label", *_per_target(("coefficient", "standardized"),
                                        table.target_names)],
                 ([label, *map(repr, row)] for label, row in zip(table.labels, cells)))


def _write_forecast_csv(path, series, heads) -> None:
    """Plot-ready rows: date, observed, predicted, lower, upper."""
    bands = ("observed", "predicted", "lower", "upper")
    cells = np.hstack([getattr(series, b) for b in bands])
    _write_table(path,
                 [*heads, f"# multiplier={_g(series.multiplier)}",
                  "# se=" + ",".join(map(_g, series.se))],
                 ["date", *_per_target(bands, series.target_names)],
                 ([str(date), *map(_g, row)] for date, row in zip(series.dates, cells)))


def _audit_or_die(report, frame) -> None:
    with _stage("audit"):
        counts = leakage_audit(report, frame)
        if any(counts.values()):
            raise ContractError(f"internal leakage audit failed: {counts}")


def _warn_outcomes(command: str, report, run: str = "") -> None:
    """Say on stderr what the artifacts leave unsaid: a lambda at the grid's
    edge, or a final fit that stopped at max_iter before converging."""
    where = f" ({run} run)" if run else ""
    path, model = report.lambda_path, report.model
    if path.at_edge:
        side = "smallest" if path.chosen_index == 0 else "largest"
        print(f"hydrovarx {command}: warning: chosen lambda "
              f"{path.chosen_lambda:.10g} is the {side} grid value{where}; "
              "the validation MSFE minimum may lie outside the grid",
              file=sys.stderr)
    if not model.converged:
        print(f"hydrovarx {command}: warning: final fit did not converge "
              f"within max_iter={report.spec.max_iter} sweeps{where} "
              f"(sweeps per equation: {list(model.n_iter)})", file=sys.stderr)


# --- commands ----------------------------------------------------------------

def _load_frame(config: RunConfig):
    with _stage("load"):
        return load_csv(config.input, config.target, config.date_column,
                        config.exog)


def _outdir(config: RunConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_fit(config: RunConfig) -> int:
    """load -> preprocess -> design -> select lambda -> fit; write artifacts."""
    frame = _load_frame(config)
    report = run_pipeline(frame, config.model_spec(), dropped=config.drop)
    _audit_or_die(report, frame)
    _warn_outcomes("fit", report)
    out = _outdir(config)
    heads = _header_lines(config, "fit")
    _write_json(out / "model.json",
                _json_doc(config, "fit", {"model": report.model.to_dict()}))
    lams, table = report.lambda_path, report.coefficients
    _write_table(out / "lambda_path.csv",
                 [*heads, f"# chosen_lambda={_g(lams.chosen_lambda)}"],
                 ["lambda", "msfe"], zip(map(_g, lams.grid), map(_g, lams.msfe)))
    _write_coefficients_csv(out / "coefficients.csv", table, heads)
    _write_json(out / "config.json", _json_doc(config, "fit", {}))
    return 0


def _load_model(path) -> FittedModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None
    body = doc.get("model", doc)  # accept bare model documents too
    try:
        return FittedModel.from_dict(body)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed model document: {exc}") from None


def cmd_evaluate(config: RunConfig, model_path) -> int:
    """Check the stored model's rows, forecast the test segment with it, and
    write metric artifacts."""
    model = _load_model(model_path)
    frame = _load_frame(config)
    pre = preprocess(frame, config.model_spec(), config.drop)
    with _stage("design"):
        design = build_design(pre, LagSpec(model.p, model.s, model.lag_mode))
    if design.col_labels != model.col_labels:
        extra = sorted(set(design.col_labels) - set(model.col_labels))
        missing = sorted(set(model.col_labels) - set(design.col_labels))
        raise CompatibilityError(
            f"data and model disagree on regressors; data-only={extra}, "
            f"model-only={missing}")
    with _stage("split"):
        split = SplitPlan(design.n_eff)
    with _stage("evaluate"):  # a stored model's fit rows must end by T2
        if model.n_rows > split.T2:
            raise ContractError(f"stored model uses rows past the validation "
                                f"segment (T2={split.T2}): n_rows={model.n_rows}")
    with _stage("forecast"):
        series = rolling_forecast(model, design, split, config.ci_multiplier)
    with _stage("metrics"):
        reports = tuple(full_report(series, n_predictors=len(model.support),
                                    target=t) for t in range(design.k))
    with _stage("regression"):
        line = regression_line(series)

    out = _outdir(config)
    heads = _header_lines(config, "evaluate")
    _write_metrics_csv(out / "metrics.csv", reports, design.target_names, heads)
    _write_forecast_csv(out / "forecast.csv", series, heads)
    _write_json(out / "regression_line.json",
                _json_doc(config, "evaluate", {"regression_line": line.to_dict()}))
    _write_json(out / "config.json", _json_doc(config, "evaluate", {}))
    return 0


def cmd_ablate(config: RunConfig) -> int:
    """Paired full/reduced pipeline runs; config.drop names the ablated columns."""
    frame = _load_frame(config)
    result = ablation_run(frame, config.model_spec(), dropped=config.drop)
    _audit_or_die(result.full, frame)
    _audit_or_die(result.reduced, frame)
    _warn_outcomes("ablate", result.full, "full")
    _warn_outcomes("ablate", result.reduced, "reduced")
    out = _outdir(config)
    heads = _header_lines(config, "ablate")
    _write_metrics_csv(out / "metrics_full.csv", result.full.metrics,
                       result.full.design.target_names, heads)
    _write_metrics_csv(out / "metrics_reduced.csv", result.reduced.metrics,
                       result.reduced.design.target_names, heads)
    names = result.full.design.target_names
    _write_target_blocks(out / "metrics_delta.csv", heads,
                         ["metric", "full", "reduced", "delta"], names,
                         ([[key, *map(_g, values)] for key, *values
                           in result.delta_rows(t)] for t in range(len(names))))
    _write_json(out / "config.json", _json_doc(config, "ablate", {}))
    return 0


def cmd_select_order(config: RunConfig, p_range, s_range) -> int:
    """BIC scan over candidate lag orders; writes order_scan.csv."""
    spec = config.model_spec()
    frame = _load_frame(config)
    pre = preprocess(frame, spec, config.drop)
    with _stage("select-order"):
        scan = select_order(pre, p_range, s_range, spec)
    out = _outdir(config)
    _write_table(out / "order_scan.csv",
                 [*_header_lines(config, "select-order"),
                  f"# chosen_p={scan.chosen_p}", f"# chosen_s={scan.chosen_s}"],
                 ["p", "s", "bic", "lambda"],
                 ([p, s, _g(bic), _g(lam)] for (p, s), bic, lam
                  in zip(scan.candidates, scan.bic, scan.lambdas)))
    _write_json(out / "config.json", _json_doc(config, "select-order", {}))
    return 0


def cmd_simulate(args) -> int:
    """Write a seeded synthetic dataset plus its ground truth."""
    k = args.k
    phi = np.asarray(_parse_floats(args.phi), dtype=float)
    try:
        phi = phi.reshape(args.p, k, k)
    except ValueError:
        raise ConfigError(f"--phi needs p*k*k = {args.p * k * k} values") from None
    beta = None
    if args.m and args.s:
        beta = np.asarray(_parse_floats(args.beta or ""), dtype=float)
        try:
            beta = beta.reshape(args.s, k, args.m)
        except ValueError:
            raise ConfigError(
                f"--beta needs s*k*m = {args.s * k * args.m} values") from None
    nu = None
    if args.nu:
        nu = np.asarray(_parse_floats(args.nu), dtype=float)
        if nu.shape != (k,):
            raise ConfigError(f"--nu needs k = {k} values")
    spec = SynthSpec(n=args.n, phi=phi, beta=beta, nu=nu,
                     noise_sd=args.noise_sd, exog_mode=args.exog_mode,
                     exog_rho=args.exog_rho, seed=args.seed,
                     burn_in=args.burn_in)
    frame, truth = simulate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(frame, out / "synth.csv")
    _write_json(out / "truth.json",
                {"artifact_version": ARTIFACT_VERSION, "command": "simulate",
                 "truth": truth.to_dict()})
    return 0


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad numeric list {text!r}") from None


# --- argument parsing --------------------------------------------------------

def _csv_tuple(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _add_run_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--config", help="JSON config file; flags override its keys")
    ap.add_argument("--input", help="input CSV path")
    ap.add_argument("--out", help="output directory (fixed artifact names inside)")
    ap.add_argument("--target", help="target column name(s), comma-separated")
    ap.add_argument("--exog", help="exogenous columns; default: all other columns")
    ap.add_argument("--date-column", dest="date_column")
    ap.add_argument("--p", type=int, help="target lag order (default 4)")
    ap.add_argument("--s", type=int, help="exogenous lag order (default 2)")
    ap.add_argument("--alpha", type=float, help="L1/L2 mix in [0,1] (default 0.5)")
    ap.add_argument("--grid", help="lambda grid min:max:count[:log|linear]")
    ap.add_argument("--season", choices=SEASONS)
    ap.add_argument("--aggregate", choices=["none", "monthly"])
    ap.add_argument("--sum-columns", dest="sum_columns",
                    help="columns summed (not averaged) by monthly aggregation")
    ap.add_argument("--drop", help="exogenous columns to exclude (ablate: to ablate)")
    ap.add_argument("--lag-mode", dest="lag_mode",
                    choices=["calendar", "positional"])
    ap.add_argument("--refit", choices=["fixed", "expanding"])
    ap.add_argument("--refit-every", dest="refit_every", type=int)
    ap.add_argument("--ci-multiplier", dest="ci_multiplier", type=float)
    ap.add_argument("--standardize", action=argparse.BooleanOptionalAction,
                    default=None)
    ap.add_argument("--tol", type=float)
    ap.add_argument("--max-iter", dest="max_iter", type=int)


_TUPLE_KEYS = ("target", "exog", "sum_columns", "drop")
_REQUIRED_KEYS = ("input", "out", "target")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults <- config file <- explicit flags, then validate."""
    data: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = sorted(set(file_cfg) - known)
        if unknown:
            raise ConfigError(f"{args.config}: unknown config keys {unknown}")
        data.update(file_cfg)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = value
    for key in _TUPLE_KEYS:
        if key in data and data[key] is not None:
            value = data[key]
            data[key] = _csv_tuple(value) if isinstance(value, str) \
                else tuple(value)
    missing = [k for k in _REQUIRED_KEYS if not data.get(k)]
    if missing:
        raise ConfigError(f"missing required options: {', '.join('--' + m for m in missing)}")
    try:
        return RunConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hydrovarx",
        description="Sparse elastic-net VARX modeling of daily environmental "
                    "time series: fit, evaluate, ablate, select lag orders.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="select lambda and fit; write model.json")
    _add_run_flags(p_fit)

    p_eval = sub.add_parser("evaluate",
                            help="forecast the test segment with a stored model")
    _add_run_flags(p_eval)
    p_eval.add_argument("--model", required=True, help="path to model.json")

    p_abl = sub.add_parser("ablate",
                           help="compare pipelines with and without --drop columns")
    _add_run_flags(p_abl)

    p_ord = sub.add_parser("select-order", help="BIC scan over lag orders")
    _add_run_flags(p_ord)
    p_ord.add_argument("--p-range", dest="p_range", required=True,
                       help="candidate p values: lo:hi or a,b,c")
    p_ord.add_argument("--s-range", dest="s_range", required=True,
                       help="candidate s values: lo:hi or a,b,c")

    p_sim = sub.add_parser("simulate", help="generate a seeded synthetic dataset")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--k", type=int, default=1)
    p_sim.add_argument("--m", type=int, default=0)
    p_sim.add_argument("--p", type=int, default=1)
    p_sim.add_argument("--s", type=int, default=0)
    p_sim.add_argument("--phi", required=True,
                       help="p*k*k coefficients, comma-separated, lag-major")
    p_sim.add_argument("--beta", help="s*k*m coefficients, comma-separated")
    p_sim.add_argument("--nu", help="k intercepts, comma-separated")
    p_sim.add_argument("--noise-sd", dest="noise_sd", type=float, default=1.0)
    p_sim.add_argument("--exog-mode", dest="exog_mode",
                       choices=["iid", "ar1"], default="iid")
    p_sim.add_argument("--exog-rho", dest="exog_rho", type=float, default=0.0)
    p_sim.add_argument("--burn-in", dest="burn_in", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        config = resolve_config(args)
        if args.command == "fit":
            return cmd_fit(config)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.model)
        if args.command == "ablate":
            return cmd_ablate(config)
        if args.command == "select-order":
            return cmd_select_order(config, _parse_range(args.p_range),
                                    _parse_range(args.s_range))
        raise ConfigError(f"unknown command {args.command!r}")
    except HydroVarxError as exc:
        stage = exc.stage or "setup"
        print(f"hydrovarx {args.command}: {stage}: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"hydrovarx {args.command}: io: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
