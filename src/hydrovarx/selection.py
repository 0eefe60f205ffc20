"""Model selection: the T/3 split protocol, lambda by validation MSFE, (p, s) by BIC.

The usable rows are split chronologically into thirds: the first third trains,
the middle third validates lambda, the final third is held out for testing.
Lambda is scored by the one-step mean squared forecast error over the
validation segment, each forecast conditioning on *observed* lags only (no
recursion). Lag orders are compared by BIC on a common set of response rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix, LagSpec, build_design
from .errors import (
    ContractError,
    DegenerateFitError,
    InsufficientDataError,
)
from .frame import TimeSeriesFrame
from .solver import FittedModel, Penalty, fit, predict_rows, prepare

LAMBDA_GRID_DEFAULT = (10.0, 500.0, 24)  # (min, max, count), log-spaced


def default_grid() -> np.ndarray:
    """24 log-spaced penalty values on [10, 500]."""
    lo, hi, count = LAMBDA_GRID_DEFAULT
    return np.geomspace(lo, hi, count)


def check_grid(grid) -> np.ndarray:
    """A copy of a lambda grid, checked: 1-D, non-empty, finite, >= 0, increasing.

    A copy, so a ``LambdaPath`` can freeze its grid without freezing the
    caller's array.
    """
    grid = np.array(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ContractError("lambda grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(grid)) or np.any(grid < 0):
        raise ContractError(f"lambda grid values must be finite and >= 0: {grid}")
    if np.any(np.diff(grid) <= 0):
        raise ContractError("lambda grid must be strictly increasing")
    return grid


@dataclass(frozen=True)
class SplitPlan:
    """Chronological train / validation / test split over T usable rows.

    T1 = floor(T/3) and T2 = floor(2T/3); rows [0, T1) train, [T1, T2)
    validate, [T2, T) test. The segments are disjoint, contiguous, and
    exhaustive by construction.
    """

    T: int

    def __post_init__(self) -> None:
        if self.T < 3:
            raise InsufficientDataError(
                f"need at least 3 usable rows to split; have {self.T}")
        if not (1 <= self.T1 < self.T2 < self.T):
            raise InsufficientDataError(f"degenerate split for T = {self.T}")

    @property
    def T1(self) -> int:
        return self.T // 3

    @property
    def T2(self) -> int:
        return (2 * self.T) // 3

    @property
    def train(self) -> slice:
        return slice(0, self.T1)

    @property
    def validate(self) -> slice:
        return slice(self.T1, self.T2)

    @property
    def test(self) -> slice:
        return slice(self.T2, self.T)


@dataclass(frozen=True)
class LambdaPath:
    """MSFE per grid value and the chosen index (ties go to the larger lambda)."""

    grid: np.ndarray
    msfe: np.ndarray
    chosen_index: int

    def __post_init__(self) -> None:
        grid = check_grid(self.grid)
        msfe = np.asarray(self.msfe, dtype=float)
        if grid.shape != msfe.shape:
            raise ContractError("grid and msfe must be equal-length 1-D arrays")
        if not (0 <= self.chosen_index < grid.size):
            raise ContractError("chosen index out of range")
        for name, arr in (("grid", grid), ("msfe", msfe)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def chosen_lambda(self) -> float:
        return float(self.grid[self.chosen_index])

    @property
    def at_edge(self) -> bool:
        """True when the chosen lambda is the grid's first or last value.

        The validation-MSFE minimum may then lie outside the grid. A
        one-value grid fixes lambda and has no edge to hit.
        """
        return self.grid.size > 1 and self.chosen_index in (0, self.grid.size - 1)

    def write_csv(self, path, header_lines=()) -> None:
        """Audit table: one (lambda, msfe) row per grid point."""
        with open(path, "w", newline="") as fh:
            for line in header_lines:
                fh.write(line + "\n")
            fh.write(f"# chosen_lambda={self.chosen_lambda:.10g}\n")
            writer = csv.writer(fh)
            writer.writerow(["lambda", "msfe"])
            for lam, msfe in zip(self.grid, self.msfe):
                writer.writerow([f"{lam:.10g}", f"{msfe:.10g}"])


def _check_split(design: DesignMatrix, split: SplitPlan) -> None:
    if split.T != design.n_eff:
        raise ContractError(
            f"split was planned for {split.T} rows, design has {design.n_eff}")


def select_lambda(design: DesignMatrix, split: SplitPlan, alpha: float = 0.5,
                  grid=None, refit: str = "fixed", refit_every: int = 1, *,
                  standardize_design: bool = True, tol: float = 1e-7,
                  max_iter: int = 10000) -> LambdaPath:
    """Score every lambda on the validation segment; pick the MSFE minimizer.

    MSFE(lambda) = (1 / (T2 - T1 - 1)) * sum over t in [T1, T2) of
    ||yhat_(t) - y_(t)||^2, each prediction one step ahead from observed lags.
    With ``refit="fixed"`` coefficients are estimated once on the training
    rows; ``refit="expanding"`` re-estimates on [0, t) every ``refit_every``
    validation steps. Ties prefer the larger (sparser) lambda.
    """
    _check_split(design, split)
    grid = default_grid() if grid is None else check_grid(grid)
    if refit not in ("fixed", "expanding"):
        raise ContractError(f"unknown refit policy {refit!r}")
    if refit_every < 1:
        raise ContractError("refit_every must be >= 1")
    n_val = split.T2 - split.T1
    if n_val < 2:
        raise InsufficientDataError(
            f"validation segment has {n_val} rows; need >= 2")

    # fixed refit is one window that predicts the whole validation segment;
    # expanding refit re-fits on [0, t) every refit_every rows t
    fixed = refit == "fixed"
    if fixed:
        windows = [(split.T1, [design.take(split.validate)])]
    else:
        rows = [design.take(slice(t, t + 1)) for t in range(split.T1, split.T2)]
        windows = [(split.T1 + v, rows[v:v + refit_every])
                   for v in range(0, n_val, refit_every)]
    sse = [0.0] * grid.size
    last = [None] * grid.size  # each lambda's coefficients on its last window
    for stop, blocks in windows:
        problem = prepare(design.take(slice(0, stop)),
                          standardize_design=standardize_design)
        warm = None
        for gi in range(grid.size - 1, -1, -1):
            # the first window chains warm starts down the grid; later ones
            # start each lambda from its own previous window
            model = fit(problem, Penalty(float(grid[gi]), alpha),
                        standardize_design=standardize_design, tol=tol,
                        max_iter=max_iter,
                        warm_start=warm if last[gi] is None else last[gi])
            last[gi] = warm = model.scaled_coeffs
            for block in blocks:
                err = predict_rows(model, block) - block.Y
                sse[gi] += float(np.sum(err * err)) if fixed \
                    else float(err[0] @ err[0])
    msfe = np.array(sse) / (n_val - 1)

    chosen = int(grid.size - 1 - np.argmin(msfe[::-1]))
    return LambdaPath(grid=grid, msfe=msfe, chosen_index=chosen)


def bic(design: DesignMatrix, model: FittedModel) -> float:
    """Gaussian BIC with the error variance concentrated out.

    BIC = n * ln(RSS / n) + k_params * ln(n), where k_params counts the
    nonzero penalized coefficients plus one intercept per target equation.
    Additive constants are dropped; only differences across candidates that
    were fit on identical rows are meaningful.
    """
    n = design.n_eff
    k_params = len(model.support) + model.k
    if n < len(model.support) + 2:
        raise InsufficientDataError(
            f"BIC needs n >= |support| + 2; have n={n}, support={len(model.support)}")
    resid = design.Y - predict_rows(model, design)
    rss = float(np.sum(resid * resid))
    # an RSS at rounding-noise scale means an exact fit: the concentrated
    # likelihood diverges and BIC comparisons become meaningless
    scale = max(float(np.sum(design.Y * design.Y)), 1.0)
    if rss <= 1e-12 * scale:
        raise DegenerateFitError(
            "residual sum of squares is numerically zero (infinite likelihood)")
    return n * math.log(rss / n) + k_params * math.log(n)


@dataclass(frozen=True)
class OrderScan:
    """BIC for each candidate (p, s); ties prefer smaller p, then smaller s."""

    candidates: tuple[tuple[int, int], ...]
    bic: np.ndarray
    lambdas: np.ndarray
    chosen: tuple[int, int]

    def __post_init__(self) -> None:
        for name in ("bic", "lambdas"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def chosen_p(self) -> int:
        return self.chosen[0]

    @property
    def chosen_s(self) -> int:
        return self.chosen[1]

    def write_csv(self, path, header_lines=()) -> None:
        with open(path, "w", newline="") as fh:
            for line in header_lines:
                fh.write(line + "\n")
            fh.write(f"# chosen_p={self.chosen_p}\n# chosen_s={self.chosen_s}\n")
            writer = csv.writer(fh)
            writer.writerow(["p", "s", "bic", "lambda"])
            for (p, s), b, lam in zip(self.candidates, self.bic, self.lambdas):
                writer.writerow([p, s, f"{b:.10g}", f"{lam:.10g}"])


def select_order(frame: TimeSeriesFrame, p_range, s_range, alpha: float = 0.5,
                 grid=None, *, mode: str = "calendar", refit: str = "fixed",
                 refit_every: int = 1, standardize_design: bool = True,
                 tol: float = 1e-7, max_iter: int = 10000) -> OrderScan:
    """Scan lag orders; per candidate, re-select lambda and score BIC on train.

    All candidates are trimmed to the response rows usable under the largest
    orders in the scan, so their likelihoods are computed on identical rows
    and the BIC values compare cleanly.
    """
    p_range = sorted(set(int(p) for p in p_range))
    s_range = sorted(set(int(s) for s in s_range))
    if not p_range or not s_range:
        raise ContractError("p_range and s_range must be non-empty")
    p_max, s_max = p_range[-1], s_range[-1]
    common = build_design(frame, LagSpec(p_max, s_max, mode)).row_dates
    split = SplitPlan(len(common))

    candidates = [(p, s) for p in p_range for s in s_range]
    bics = np.empty(len(candidates))
    lams = np.empty(len(candidates))
    for ci, (p, s) in enumerate(candidates):
        d = build_design(frame, LagSpec(p, s, mode))
        d = d.take(np.isin(d.row_dates, common))
        if not np.array_equal(d.row_dates, common):
            raise ContractError("candidate rows do not cover the common row set")
        path = select_lambda(d, split, alpha, grid, refit, refit_every,
                             standardize_design=standardize_design,
                             tol=tol, max_iter=max_iter)
        train = d.take(split.train)
        model = fit(train, Penalty(path.chosen_lambda, alpha),
                    standardize_design=standardize_design,
                    tol=tol, max_iter=max_iter)
        bics[ci] = bic(train, model)
        lams[ci] = path.chosen_lambda

    best = 0
    for ci in range(1, len(candidates)):  # lexicographic order: first strict min wins
        if bics[ci] < bics[best]:
            best = ci
    return OrderScan(candidates=tuple(candidates), bic=bics, lambdas=lams,
                     chosen=candidates[best])
