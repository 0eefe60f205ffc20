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
import functools
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
from .frame import SEASONS, load_csv, write_csv
from .pipeline import _stage, ablation_run, leakage_audit, preprocess, run_pipeline, score
from .selection import LAMBDA_GRID_DEFAULT, ModelSpec, SplitPlan, select_order
from .simulate import SynthSpec, simulate
from .solver import FittedModel

ARTIFACT_VERSION = 1
_GRID_DEFAULT = "{:g}:{:g}:{}:log".format(*LAMBDA_GRID_DEFAULT)  # as grid text


@dataclass(frozen=True, init=False)
class RunConfig:
    """Resolved invocation: the data binding, the lambda grid as written, and
    the ModelSpec. The constructor takes ModelSpec's settings as flat keywords."""

    input: str
    out: str
    target: tuple[str, ...]
    exog: tuple[str, ...] | None    # None = every other column
    date_column: str
    drop: tuple[str, ...]
    grid: str                       # the text; spec.grid holds its values
    spec: ModelSpec

    def __init__(self, input, out, target, exog=None, date_column="Date",
                 drop=(), grid=_GRID_DEFAULT, **settings) -> None:
        if not target:
            raise ConfigError("at least one target column is required")
        try:
            spec = ModelSpec(grid=tuple(parse_grid(grid)), **settings)
        except (ContractError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        # frozen: the fields are set through __dict__
        self.__dict__.update(input=input, out=out, target=target, exog=exog,
                             date_column=date_column, drop=drop, grid=grid, spec=spec)

    def to_dict(self) -> dict:
        """The flat settings the artifact headers write."""
        d = {f.name: getattr(self.spec, f.name) for f in fields(ModelSpec)}
        d.update((key, getattr(self, key)) for key in _BINDING)
        return {key: list(v) if isinstance(v, tuple) else v for key, v in d.items()}


# RunConfig's fields besides its spec, and every key a config file or a flag
# may set; each maps to its annotation, and the grid is text
_BINDING = {f.name: f.type for f in fields(RunConfig) if f.name != "spec"}
_SPEC_KEYS = {f.name: f.type for f in fields(ModelSpec)}
_KEYS = {**_SPEC_KEYS, **_BINDING}


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
    """Order range: ``1:4`` (inclusive) or ``1,2,4``; sorted, without repeats."""
    try:
        if ":" in text:
            lo, hi = (int(v) for v in text.split(":"))
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return sorted({int(v) for v in text.split(",")})
    except ValueError:
        raise ConfigError(f"bad order range {text!r}; want lo:hi or a,b,c") from None


# --- artifact writers --------------------------------------------------------

def _header_lines(settings: dict, command: str) -> list[str]:
    """The lines that open every CSV artifact; ``settings`` is the run's
    resolved configuration as written (``RunConfig.to_dict``)."""
    blob = json.dumps(settings, sort_keys=True, separators=(",", ":"))
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


def _json_doc(settings: dict, command: str, body: dict) -> dict:
    return {"artifact_version": ARTIFACT_VERSION, "command": command,
            "config": settings, **body}


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


def _write_coefficients_csv(path, model, heads) -> None:
    """The intercept row, then one row per regressor label, zeros too; raw
    then standardized values per target, each printed exactly."""
    cells = np.vstack([np.hstack([model.nu, model.scaled_intercept]),
                       np.hstack([model.coeffs.T, model.scaled_coeffs.T])]).tolist()
    _write_table(path, heads,
                 ["label", *_per_target(("coefficient", "standardized"),
                                        model.target_names)],
                 ([label, *map(repr, row)]
                  for label, row in zip(("intercept", *model.col_labels), cells)))


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


def _warn_unconverged_solves(command: str, work, max_iter: int,
                             where: str = "") -> None:
    """Warn when lambda-path solves (``work``: a ``LambdaPath`` or an
    ``OrderScan``) stopped at max_iter before converging."""
    if work.nonconverged:
        print(f"hydrovarx {command}: warning: {work.nonconverged} of "
              f"{work.solves} lambda-path solves did not converge within "
              f"max_iter={max_iter} iterations{where}", file=sys.stderr)


def _warn_outcomes(command: str, report, run: str = "") -> None:
    """Say on stderr what the artifacts leave unsaid: a lambda at the grid's
    edge, or lambda-path solves or a final fit that stopped at max_iter
    before converging."""
    where = f" ({run} run)" if run else ""
    path, model = report.lambda_path, report.model
    if path.at_edge:
        side = "smallest" if path.chosen_index == 0 else "largest"
        print(f"hydrovarx {command}: warning: chosen lambda "
              f"{path.chosen_lambda:.10g} is the {side} grid value{where}; "
              "the validation MSFE minimum may lie outside the grid",
              file=sys.stderr)
    _warn_unconverged_solves(command, path, report.spec.max_iter, where)
    if not model.converged:
        print(f"hydrovarx {command}: warning: final fit did not converge "
              f"within max_iter={report.spec.max_iter} iterations{where} "
              f"(iterations per equation: {list(model.n_iter)})", file=sys.stderr)


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
    report = run_pipeline(frame, config.spec, dropped=config.drop)
    _audit_or_die(report, frame)
    _warn_outcomes("fit", report)
    out = _outdir(config)
    settings = config.to_dict()
    heads = _header_lines(settings, "fit")
    _write_json(out / "model.json",
                _json_doc(settings, "fit", {"model": report.model.to_dict()}))
    lams = report.lambda_path
    _write_table(out / "lambda_path.csv",
                 [*heads, f"# chosen_lambda={_g(lams.chosen_lambda)}"],
                 ["lambda", "msfe"], zip(map(_g, lams.grid), map(_g, lams.msfe)))
    _write_coefficients_csv(out / "coefficients.csv", report.model, heads)
    _write_json(out / "config.json", _json_doc(settings, "fit", {}))
    return 0


def _load_model(path) -> tuple[FittedModel, dict]:
    """The stored model and the settings it was made with: its own p, s and lag
    mode, plus its other ModelSpec settings, ``exog`` and ``drop`` from
    ``config``, if any."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None
    try:
        model = FittedModel.from_dict(doc.get("model", doc))  # bare documents too
        made = {key: value for key, value in doc.get("config", {}).items()
                if key in ("exog", "drop") or key in _SPEC_KEYS}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed model document: {exc}") from None
    _check_file_types(path, made)
    return model, {**made, "p": model.p, "s": model.s, "lag_mode": model.lag_mode}


def cmd_evaluate(config: RunConfig, model_path, loaded=None) -> int:
    """Check the stored model's rows, forecast the test segment with it, and
    write metric artifacts. ``loaded`` is ``_load_model(model_path)``, when
    the caller has read it already."""
    model, made = loaded or _load_model(model_path)
    stored = RunConfig(config.input, config.out, config.target, **made)
    settings, want = config.to_dict(), stored.to_dict()
    # exog and drop are left to the design check; no fit artifact reads
    # ci_multiplier
    clash = [f"{key}={json.dumps(settings[key])} (model: {json.dumps(want[key])})"
             for key in made if key in _SPEC_KEYS and key != "ci_multiplier"
             and getattr(config.spec, key) != getattr(stored.spec, key)]
    if clash:
        raise ConfigError(f"{model_path} was made with other settings: "
                          + "; ".join(clash))
    frame = _load_frame(config)
    pre = preprocess(frame, config.spec, config.drop)
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
    series, reports, line = score(model, design, split, config.spec.ci_multiplier)
    out = _outdir(config)
    heads = _header_lines(settings, "evaluate")
    _write_metrics_csv(out / "metrics.csv", reports, design.target_names, heads)
    _write_forecast_csv(out / "forecast.csv", series, heads)
    _write_json(out / "regression_line.json",
                _json_doc(settings, "evaluate", {"regression_line": line.to_dict()}))
    _write_json(out / "config.json", _json_doc(settings, "evaluate", {}))
    return 0


def cmd_ablate(config: RunConfig) -> int:
    """Paired full/reduced pipeline runs; config.drop names the ablated columns."""
    frame = _load_frame(config)
    result = ablation_run(frame, config.spec, dropped=config.drop)
    _audit_or_die(result.full, frame)
    _audit_or_die(result.reduced, frame)
    _warn_outcomes("ablate", result.full, "full")
    _warn_outcomes("ablate", result.reduced, "reduced")
    out = _outdir(config)
    settings = config.to_dict()
    heads = _header_lines(settings, "ablate")
    _write_metrics_csv(out / "metrics_full.csv", result.full.metrics,
                       result.full.design.target_names, heads)
    _write_metrics_csv(out / "metrics_reduced.csv", result.reduced.metrics,
                       result.reduced.design.target_names, heads)
    names = result.full.design.target_names
    _write_target_blocks(out / "metrics_delta.csv", heads,
                         ["metric", "full", "reduced", "delta"], names,
                         ([[key, *map(_g, values)] for key, *values
                           in result.delta_rows(t)] for t in range(len(names))))
    _write_json(out / "config.json", _json_doc(settings, "ablate", {}))
    return 0


def cmd_select_order(config: RunConfig, p_range, s_range) -> int:
    """BIC scan over candidate lag orders; writes order_scan.csv."""
    spec = config.spec
    frame = _load_frame(config)
    pre = preprocess(frame, spec, config.drop)
    with _stage("select-order"):
        scan = select_order(pre, p_range, s_range, spec)
    _warn_unconverged_solves("select-order", scan, spec.max_iter)
    out = _outdir(config)
    # the scan reads the ranges, never the config's single p and s
    settings = {**config.to_dict(), "p_range": list(p_range),
                "s_range": list(s_range)}
    del settings["p"], settings["s"]
    _write_table(out / "order_scan.csv",
                 [*_header_lines(settings, "select-order"),
                  f"# chosen_p={scan.chosen_p}", f"# chosen_s={scan.chosen_s}"],
                 ["p", "s", "bic", "lambda"],
                 ([p, s, _g(bic), _g(lam)] for (p, s), bic, lam
                  in zip(scan.candidates, scan.bic, scan.lambdas)))
    _write_json(out / "config.json", _json_doc(settings, "select-order", {}))
    return 0


def cmd_simulate(args) -> int:
    """Write a seeded synthetic dataset plus its ground truth."""
    k = args.k
    if k < 1 or min(args.p, args.s, args.m) < 0:
        raise ConfigError("--k must be >= 1 and --p, --s, --m >= 0")
    phi = np.asarray(_parse_floats(args.phi), dtype=float)
    try:
        phi = phi.reshape(args.p, k, k)
    except ValueError:
        raise ConfigError(f"--phi needs p*k*k = {args.p * k * k} values") from None
    beta = np.asarray(_parse_floats(args.beta or ""), dtype=float)
    try:  # with s*m = 0 only an absent or empty --beta fits
        beta = beta.reshape(args.s, k, args.m)
    except ValueError:
        raise ConfigError(f"--beta needs s*k*m = {args.s * k * args.m} values") from None
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


_TUPLE_KEYS = tuple(key for key, kind in _KEYS.items() if kind.startswith("tuple"))
_REQUIRED_KEYS = ("input", "out", "target")
# a setting's annotation -> (JSON types a config file may give, description);
# a list must hold strings only, and a boolean is never an int or a float
_FILE_TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "tuple[str, ...]": ((str, list), "a string or a list of strings"),
    "tuple[str, ...] | None": ((str, list, type(None)),
                               "a string, a list of strings or null"),
}


def _check_file_types(path, file_cfg: dict) -> None:
    """Reject a config-file value whose JSON type does not fit its key."""
    for key, value in file_cfg.items():
        types, want = _FILE_TYPES[_KEYS[key]]
        ok = isinstance(value, types) and (bool in types or not isinstance(value, bool))
        if ok and isinstance(value, list):
            ok = all(isinstance(v, str) for v in value)
        if not ok:
            raise ConfigError(f"{path}: config key {key!r} must be {want}, "
                              f"not {json.dumps(value)}")


def resolve_config(args: argparse.Namespace, stored: dict | None = None) -> RunConfig:
    """Layer defaults <- ``stored`` (the settings a model was made with) <-
    config file <- explicit flags, then validate."""
    data = dict(stored or {})
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
        unknown = sorted(set(file_cfg) - set(_KEYS))
        if unknown:
            raise ConfigError(f"{args.config}: unknown config keys {unknown}")
        _check_file_types(args.config, file_cfg)
        data.update(file_cfg)
    for key in _KEYS:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    for key in _TUPLE_KEYS:
        value = data.get(key)
        if value is not None:
            data[key] = _csv_tuple(value) if isinstance(value, str) else tuple(value)
    missing = [k for k in _REQUIRED_KEYS if not data.get(k)]
    if missing:
        raise ConfigError(f"missing required options: {', '.join('--' + m for m in missing)}")
    try:
        return RunConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
        loaded = _load_model(args.model) if args.command == "evaluate" else None
        config = resolve_config(args, loaded and loaded[1])
        if args.command == "fit":
            return cmd_fit(config)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.model, loaded)
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
