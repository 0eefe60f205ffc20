"""Correctness gate for every op, computed apart from the program's own code.

The gate rebuilds the lagged design from the raw input arrays with plain
numpy, and judges the op's final model on it:

* KKT certificate of the elastic-net problem that ``fit`` solves on the
  standardized first two thirds of the rows (see ``kkt_violation``);
* the program's own test forecasts and RMSE metric agree with the gate's;
* the op's result is identical to the first op of the run (for the CLI
  workload: the artifact files are byte-identical);
* at the default seed and full size, the chosen lambda index, (p, s),
  support labels and test RMSE match the committed ``reference.json``.

Any breach raises ``GateFailure``; the run counts that op as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: coefficient step below which the solver stops (ModelSpec / CLI default)
SOLVER_TOL = 1e-7
#: relative agreement demanded of values the program reports twice
AGREE_RTOL = 1e-9
#: relative drift of test RMSE allowed against the committed reference
REFERENCE_RTOL = 1e-6

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class GateFailure(Exception):
    """The op's output is wrong; the message says which check failed."""


@dataclass(frozen=True)
class Outcome:
    """The part of an op's result the gate judges, in original units."""

    p: int
    s: int
    lam: float
    alpha: float
    lambda_index: int
    nu: np.ndarray            # (k,)
    coeffs: np.ndarray        # (k, q), lag-major like the design
    support: tuple[str, ...]
    col_labels: tuple[str, ...]
    fingerprint: str
    forecast: object = None   # ForecastSeries of pipeline ops
    metric_rmse: tuple = ()   # program's per-target test RMSE


@dataclass(frozen=True)
class Verdict:
    test_rmse: float
    test_rmse_rel: float
    kkt: float                # largest KKT violation, gradient units


def lag_design(targets, exog, p: int, s: int):
    """Lag-major (Y, Z) over rows max(p, s).. of consecutive daily data."""
    r0 = max(p, s)
    n = targets.shape[0]
    blocks = [targets[r0 - lag: n - lag] for lag in range(1, p + 1)]
    blocks += [exog[r0 - lag: n - lag] for lag in range(1, s + 1)]
    return targets[r0:], np.hstack(blocks)


def lag_labels(k: int, exog_names, p: int, s: int) -> tuple[str, ...]:
    labels = [f"Y{i + 1}L{lag}" for lag in range(1, p + 1) for i in range(k)]
    labels += [f"{name}{lag}" for lag in range(1, s + 1) for name in exog_names]
    return tuple(labels)


def kkt_violation(Y, Z, nu, coeffs, lam: float, alpha: float) -> float:
    """Largest optimality violation of (nu, coeffs) on the rows of (Y, Z).

    ``fit`` minimizes RSS + lam * (alpha * |b|_1 + (1 - alpha) * |b|^2) over
    standardized columns (mean and ddof=1 sd of these rows) with a free
    intercept. Halving the objective, with residual r and g_j = z_j'r -
    lam (1 - alpha) b_j on the standardized scale, optimality means
    g_j = (lam alpha / 2) sign(b_j) where b_j != 0, |g_j| <= lam alpha / 2
    where b_j = 0, and sum(r) = 0 for the intercept. Returns the largest
    breach, in the units of g.
    """
    mu = Z.mean(axis=0)
    sd = Z.std(axis=0, ddof=1)
    sd = np.where(sd <= 1e-12 * np.maximum(1.0, np.abs(mu)), 1.0, sd)
    Zs = (Z - mu) / sd
    resid = Y - nu - Z @ coeffs.T
    scaled = coeffs * sd
    grad = resid.T @ Zs - lam * (1.0 - alpha) * scaled
    thr = lam * alpha / 2.0
    viol = np.where(scaled != 0.0, np.abs(grad - thr * np.sign(scaled)),
                    np.maximum(np.abs(grad) - thr, 0.0))
    worst = float(viol.max()) if viol.size else 0.0
    return max(worst, float(np.abs(resid.sum(axis=0)).max()))


def kkt_tolerance(n_rows: int, q: int) -> float:
    """Scale-aware bound on the violation a converged fit can leave.

    The solver stops after a full sweep in which no coefficient moved by
    ``SOLVER_TOL`` or more. Each coordinate is exactly optimal right after
    its own update; the later updates of that sweep shift its gradient by at
    most |G_ji| * SOLVER_TOL each, and |G_ji| <= n_rows - 1 for standardized
    columns. So a converged fit satisfies violation <= q (n_rows - 1) tol.
    """
    return max(q, 1) * (n_rows - 1) * SOLVER_TOL


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _read_cli_outcome(out_dir: Path) -> Outcome:
    """Parse the artifacts ``hydrovarx fit`` wrote, without the program."""
    files = sorted(p for p in out_dir.iterdir() if p.is_file())
    if not files:
        raise GateFailure("hydrovarx fit wrote no artifacts")
    fingerprint = _digest(*(x for p in files for x in (p.name, p.read_bytes())))
    model = json.loads((out_dir / "model.json").read_text())["model"]
    p, s = int(model["p"]), int(model["s"])
    phi = np.asarray(model["phi"], dtype=float)
    beta = np.asarray(model["beta"], dtype=float)
    blocks = [phi[i] for i in range(p)] + [beta[j] for j in range(s)]
    chosen = None
    with open(out_dir / "lambda_path.csv", newline="") as fh:
        for line in fh:
            if line.startswith("# chosen_lambda="):
                chosen = float(line.split("=", 1)[1])
            elif not line.startswith("#"):
                break
        grid = [float(row["lambda"]) for row in csv.DictReader([line, *fh])]
    if chosen is None or not grid:
        raise GateFailure("lambda_path.csv has no chosen lambda or grid")
    index = int(np.argmin(np.abs(np.asarray(grid) - chosen)))
    if not np.isclose(grid[index], chosen, rtol=AGREE_RTOL, atol=0.0):
        raise GateFailure(f"chosen lambda {chosen} is not on the grid")
    return Outcome(p=p, s=s, lam=float(model["lambda"]),
                   alpha=float(model["alpha"]), lambda_index=index,
                   nu=np.asarray(model["nu"], dtype=float),
                   coeffs=np.hstack(blocks), support=tuple(model["support"]),
                   col_labels=tuple(model["col_labels"]),
                   fingerprint=fingerprint)


def _report_outcome(report, scan=None) -> Outcome:
    m, path = report.model, report.lambda_path
    extra = () if scan is None else (scan.bic.tobytes(), scan.lambdas.tobytes(),
                                     scan.chosen)
    fingerprint = _digest(m.coeffs.tobytes(), m.nu.tobytes(), path.msfe.tobytes(),
                          path.chosen_index, report.forecast.predicted.tobytes(),
                          *extra)
    return Outcome(p=m.p, s=m.s, lam=m.lam, alpha=m.alpha,
                   lambda_index=path.chosen_index, nu=m.nu, coeffs=m.coeffs,
                   support=m.support, col_labels=m.col_labels,
                   fingerprint=fingerprint, forecast=report.forecast,
                   metric_rmse=tuple(r.values["RMSE"] for r in report.metrics))


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Gate:
    """Judges the ops of one run on one input."""

    def __init__(self, workload, inputs, reference: dict | None):
        frame = inputs.frame
        step = np.diff(frame.dates).astype(int)
        if frame.n < 2 or np.any(step != 1):
            raise ValueError("the gate needs consecutive daily rows")
        self.workload = workload
        self.inputs = inputs
        self.targets = np.asarray(frame.targets)
        self.exog = np.asarray(frame.exog)
        self.reference = reference
        self.first_fingerprint = None

    def outcome(self, result) -> Outcome:
        kind = self.workload.kind
        if kind == "cli_fit":
            if result != 0:
                raise GateFailure(f"hydrovarx fit exited with code {result}")
            return _read_cli_outcome(self.inputs.out_dir)
        if kind == "pipeline":
            return _report_outcome(result)
        scan, report = result
        if (report.model.p, report.model.s) != scan.chosen:
            raise GateFailure("final run does not use the scan's chosen order")
        return _report_outcome(report, scan)

    def check(self, result) -> Verdict:
        """Raise GateFailure unless the op's result passes every check."""
        out = self.outcome(result)
        k = self.targets.shape[1]
        labels = lag_labels(k, self.workload.exog_names, out.p, out.s)
        if out.col_labels != labels:
            raise GateFailure("model columns are not the lag-major layout")
        Y, Z = lag_design(self.targets, self.exog, out.p, out.s)
        T = Y.shape[0]
        T2 = (2 * T) // 3

        kkt = kkt_violation(Y[:T2], Z[:T2], out.nu, out.coeffs, out.lam, out.alpha)
        tol = kkt_tolerance(T2, Z.shape[1])
        if not kkt <= tol:
            raise GateFailure(f"KKT violation {kkt:.3g} exceeds {tol:.3g}")
        nonzero = np.any(out.coeffs != 0.0, axis=0)
        if out.support != tuple(lb for lb, nz in zip(labels, nonzero) if nz):
            raise GateFailure("support labels disagree with the coefficients")

        pred = out.nu + Z[T2:] @ out.coeffs.T
        err = pred - Y[T2:]
        test_rmse = float(np.sqrt(np.mean(err * err)))
        if out.forecast is not None:
            self._check_forecast(out, pred, err, T2)
        oracle = self._oracle_error(max(out.p, out.s) + T2)
        test_rmse_rel = test_rmse / float(np.sqrt(np.mean(oracle * oracle)))

        if self.first_fingerprint is None:
            self.first_fingerprint = out.fingerprint
        elif out.fingerprint != self.first_fingerprint:
            raise GateFailure("result differs from the run's first op")
        if self.reference is not None:
            self._check_reference(out, test_rmse)
        return Verdict(test_rmse=test_rmse, test_rmse_rel=test_rmse_rel,
                       kkt=kkt)

    def _check_forecast(self, out: Outcome, pred, err, T2: int) -> None:
        fc = out.forecast
        dates = self.inputs.frame.dates[max(out.p, out.s) + T2:]
        if not np.array_equal(fc.dates, dates):
            raise GateFailure("forecast dates are not the test segment")
        scale = max(1.0, float(np.abs(pred).max()))
        if not np.allclose(fc.predicted, pred, rtol=AGREE_RTOL, atol=AGREE_RTOL * scale):
            raise GateFailure("program forecasts disagree with the final model")
        rmse = np.sqrt(np.mean(err * err, axis=0))
        if not np.allclose(out.metric_rmse, rmse, rtol=AGREE_RTOL, atol=0.0):
            raise GateFailure("program RMSE metric disagrees with the forecasts")

    def _oracle_error(self, start: int) -> np.ndarray:
        """One-step errors of the true generating process on rows start..."""
        truth, y, x = self.inputs.truth, self.targets, self.exog
        rows = np.arange(start, y.shape[0])
        pred = np.broadcast_to(truth.nu, (rows.size, y.shape[1])).copy()
        for lag, phi in enumerate(truth.phi, start=1):
            pred += y[rows - lag] @ phi.T
        for lag, beta in enumerate(truth.beta, start=1):
            pred += x[rows - lag] @ beta.T
        return pred - y[rows]

    def _check_reference(self, out: Outcome, test_rmse: float) -> None:
        ref = self.reference
        got = {"lambda_index": out.lambda_index, "p": out.p, "s": out.s,
               "support": list(out.support)}
        for key, value in got.items():
            if ref[key] != value:
                raise GateFailure(f"{key} {value!r} differs from reference {ref[key]!r}")
        if not np.isclose(test_rmse, ref["test_rmse"], rtol=REFERENCE_RTOL, atol=0.0):
            raise GateFailure(
                f"test_rmse {test_rmse!r} differs from reference {ref['test_rmse']!r}")
