"""Model selection: the T/3 split protocol, lambda by validation MSFE, (p, s) by BIC.

The usable rows are split chronologically into thirds: the first third trains,
the middle third validates lambda, the final third is held out for testing.
Lambda is scored by the one-step mean squared forecast error over the
validation segment, each forecast conditioning on *observed* lags only (no
recursion). Lag orders are compared by BIC on a common set of response rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix, LagSpec, _comoments, _is_int, build_design
from .errors import (
    ContractError,
    DegenerateFitError,
    InsufficientDataError,
)
from .frame import SEASONS, TimeSeriesFrame, freeze
from .solver import (
    FittedModel,
    Gram,
    Penalty,
    _moment_gram,
    _snap,
    check_stopping,
    predict_rows,
    solve,
)
from .solver import fit  # noqa: F401  perfbench traces hydrovarx.selection.fit

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
class ModelSpec:
    """Everything that defines one modeling run on a frame: ``run_pipeline``,
    ``select_lambda`` and ``select_order`` read their settings from it.

    ``grid`` of None means the default 24-point log grid on [10, 500];
    ``sum_columns`` of None sums a ``Rainfall`` column during monthly
    aggregation when one exists (pass an explicit tuple to control it).
    """

    p: int = 4
    s: int = 2
    alpha: float = 0.5
    grid: tuple | None = None
    season: str = "all"
    aggregate: str = "none"          # "none" | "monthly"
    sum_columns: tuple[str, ...] | None = None
    lag_mode: str = "calendar"
    refit: str = "fixed"
    refit_every: int = 1
    standardize: bool = True
    ci_multiplier: float = 3.0
    tol: float = 1e-7
    max_iter: int = 10000

    def __post_init__(self) -> None:
        LagSpec(self.p, self.s, self.lag_mode)  # validates p, s, mode
        Penalty(0.0, self.alpha)                # validates alpha
        if self.season not in SEASONS:
            raise ContractError(f"unknown season {self.season!r}")
        if self.aggregate not in ("none", "monthly"):
            raise ContractError(f"unknown aggregation {self.aggregate!r}")
        if self.refit not in ("fixed", "expanding"):
            raise ContractError(f"unknown refit policy {self.refit!r}")
        if not (_is_int(self.refit_every) and self.refit_every >= 1):
            raise ContractError("refit_every must be an int >= 1")
        if isinstance(self.ci_multiplier, bool) or not (
                math.isfinite(self.ci_multiplier) and self.ci_multiplier > 0):
            raise ContractError("ci_multiplier must be a finite number > 0")
        check_stopping(self.tol, self.max_iter)
        if self.grid is not None:
            grid = tuple(float(v) for v in check_grid(self.grid))
            object.__setattr__(self, "grid", grid)
        if self.sum_columns is not None:
            object.__setattr__(self, "sum_columns", tuple(self.sum_columns))


@dataclass(frozen=True)
class LambdaPath:
    """MSFE per grid value and the chosen index (ties go to the larger lambda),
    with the solver's work: one solve per (lambda, refit window), their
    iterations (``iterations``, counted as ``FittedModel.n_iter`` counts
    them), the solves that stopped at ``max_iter`` uncertified, and the
    largest KKT residual any solve returned."""

    grid: np.ndarray
    msfe: np.ndarray
    chosen_index: int
    solves: int = 0
    iterations: int = 0
    nonconverged: int = 0
    kkt_max: float = 0.0

    def __post_init__(self) -> None:
        grid = check_grid(self.grid)
        msfe = np.asarray(self.msfe, dtype=float)
        if grid.shape != msfe.shape:
            raise ContractError("grid and msfe must be equal-length 1-D arrays")
        if not (0 <= self.chosen_index < grid.size):
            raise ContractError("chosen index out of range")
        freeze(self, grid=grid, msfe=msfe)

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


def _check_split(design: DesignMatrix, split: SplitPlan) -> None:
    if split.T != design.n_eff:
        raise ContractError(
            f"split was planned for {split.T} rows, design has {design.n_eff}")


def select_lambda(design: DesignMatrix, split: SplitPlan,
                  spec: ModelSpec = ModelSpec()) -> LambdaPath:
    """Score every lambda on the validation segment; pick the MSFE minimizer.

    MSFE(lambda) = (1 / (T2 - T1 - 1)) * sum over t in [T1, T2) of
    ||yhat_(t) - y_(t)||^2, each prediction one step ahead from observed lags.
    With ``refit="fixed"`` coefficients are estimated once on the training
    rows; ``refit="expanding"`` re-estimates on [0, t) every ``refit_every``
    validation steps. Ties prefer the larger (sparser) lambda.

    Reads ``spec``'s ``alpha``, ``grid`` (None: ``default_grid()``),
    ``refit``, ``refit_every``, ``standardize``, ``tol`` and ``max_iter``,
    which ``ModelSpec`` has validated. The lag orders are the design's own;
    ``spec.p``, ``spec.s`` and ``spec.lag_mode`` are not read.
    """
    return _lambda_path(design, split, spec)[0][0]


def _merge(n, mean, M, X):
    """``(mean, M)`` of n rows, with the rows of X folded in, by the pairwise
    update of Chan, Golub & LeVeque (1983): with d the difference of the two
    parts' means, M = M_a + M_b + d d' n_a n_b / (n_a + n_b). Unlike
    S - n mean mean', it does not cancel. With n = 0 it is X's own."""
    n_x = len(X)
    if n_x == 1:
        # one row is its own mean, with zero co-moment
        d = X[0] - mean
        w = 1 / (n + 1)
        return mean + d * w, M + np.outer(d, d * (n * w))
    mean_x, M_x = _comoments(X)
    d = mean_x - mean
    w = n_x / (n + n_x)
    return mean + d * w, M + M_x + np.outer(d, d * (n * w))


def _windows(design: DesignMatrix, split: SplitPlan, spec: ModelSpec):
    """Each refit window: ``(start, stop, gram, mean, scales, rows)``, the
    problem ``(gram, mean, scales)`` of rows [0, start) (``prepare``'s
    form), and the rows [start, stop) it predicts, less the means, Z's
    columns divided by the sds: a solution b predicts them with the error
    zs @ b.T - ys.

    Fixed refit is one window, [0, T1), that predicts the whole validation
    segment; expanding refit re-fits on [0, t) every ``refit_every`` rows t.
    The running means and centered co-moments of [Z | Y] take in each
    window's new rows (``_merge``); each Gram is read off them by
    ``solver._moment_gram``. The first window's problem is ``prepare``'s on
    rows [0, T1) to the bit, a later one's up to rounding.
    [Z | Y] is stacked only up to the last window's start, so a fixed refit
    holds no validation row twice; the last window stacks its own rows.
    """
    if split.T1 < 2:  # before any row is merged or solved
        raise DegenerateFitError(f"cannot fit on {split.T1} rows")
    step = split.T2 - split.T1 if spec.refit == "fixed" else spec.refit_every
    last = range(split.T1, split.T2, step)[-1]
    q = design.q
    X = np.hstack([design.Z[:last], design.Y[:last]])
    n, mean, M = 0, 0.0, 0.0
    for start in range(split.T1, split.T2, step):
        stop = min(start + step, split.T2)
        mean, M = _merge(n, mean, M, X[n:start])
        n = start
        gram, mean, scales = _moment_gram(start, mean, M, q, spec.standardize)
        if start < last:
            rows = X[start:stop] - mean
        else:  # the last window's rows lie past X
            rows = np.hstack([design.Z[start:stop], design.Y[start:stop]])
            rows -= mean
        if scales is not None:
            rows[:, :q] /= scales[0]
        yield start, stop, gram, mean, scales, rows


def _cut(gram, idx):
    """The ``Gram`` of the columns ``idx`` of ``gram``'s design (None:
    ``gram`` itself). Centering and scaling are per column, so this is the
    G and c of those columns' rows alone, but for the rounding of the
    co-moment product, whose diagonal also gives the sds."""
    if idx is None:
        return gram
    return Gram(gram.G[np.ix_(idx, idx)], gram.c[:, idx])


def _sq_errors(F, X):
    """The column sums of (F @ X)^2 for the scaled rows F = [zs ys], taken
    through a factor R with R'R = F'F: F itself when it has at most as many
    rows as columns, else the R of its QR factorization. (A Gram form of
    the same sums would square the rows' conditioning.)"""
    if len(F) > F.shape[1]:
        F = np.linalg.qr(F, mode="r")
    E = F @ X
    return (E * E).sum(axis=0)


def _lambda_path(design: DesignMatrix, split: SplitPlan, spec: ModelSpec,
                 cuts=(None,)):
    """One ``select_lambda`` path per column cut of ``design``, all from one
    pass over its windows (``_windows``); a cut is an index array of the
    design's columns, and None is the whole design.

    In each window a cut's G and c are cut from the window's (``_cut``),
    and its grid is solved as ``select_lambda``'s: chained down the grid in
    the first window, then each lambda from its own previous window. The
    window's solutions, every cut's at every lambda, are kept in one array
    X, scored on its scaled rows in one product (``_sq_errors``), and the
    next window starts each solve from X.

    Returns the paths, then the first window's means and scales (the whole
    design's, as ``_windows`` yields them) and solutions, X's (q x cut x
    lambda x k) block, zero outside each cut. Under either refit policy
    the first window is [0, T1), the training segment ``split.train``, so
    these are the train fits at every lambda.
    """
    _check_split(design, split)
    grid = default_grid() if spec.grid is None else np.array(spec.grid)
    n_val = split.T2 - split.T1
    if n_val < 2:
        raise InsufficientDataError(
            f"validation segment has {n_val} rows; need >= 2")

    penalties = [Penalty(float(lam), spec.alpha) for lam in grid]
    q, k, n_cut, n_grid = design.q, design.k, len(cuts), grid.size
    # every solution of a window in the design's columns, over -I: a block
    # of k columns per (cut, lambda), so [zs ys] @ X holds their errors
    X = np.zeros((q + k, n_cut, n_grid, k))
    X[q:] = -np.eye(k)[:, None, None, :]
    sse = np.zeros((n_cut, n_grid))
    counts = [[0, 0, 0, 0.0] for _ in cuts]  # solves, iterations, nonconverged, kkt
    first = None
    for _, _, gram, mean, scales, rows in _windows(design, split, spec):
        for idx, count, Xc in zip(cuts, counts, X.swapaxes(0, 1)):
            sub = _cut(gram, idx)
            cols = slice(0, q) if idx is None else idx
            b = None
            for gi in range(n_grid - 1, -1, -1):
                # the first window chains warm starts down the grid; later
                # ones start each lambda from its own previous window
                b, n_iter, converged, kkt = solve(
                    sub, penalties[gi], spec.tol, spec.max_iter,
                    b if first is None else Xc[cols, gi].T)
                Xc[cols, gi] = b.T
                count[0] += 1
                count[1] += sum(n_iter)
                count[2] += not converged
                count[3] = max(count[3], kkt)
        if first is None:
            first = mean, scales, X[:q].copy()
        sse += _sq_errors(rows, X.reshape(q + k, -1)).reshape(
            n_cut, n_grid, k).sum(axis=2)

    paths = []
    for msfe, (solves, iterations, nonconverged, kkt_max) in zip(
            sse / (n_val - 1), counts):
        chosen = int(n_grid - 1 - np.argmin(msfe[::-1]))
        paths.append(LambdaPath(grid=grid, msfe=msfe, chosen_index=chosen,
                                solves=solves, iterations=iterations,
                                nonconverged=nonconverged, kkt_max=kkt_max))
    return paths, *first


def _bic(n: int, rss: float, support: int, k: int, yy: float) -> float:
    """``bic`` from its parts: n rows, their RSS, the support size, k
    target equations, and yy, the sum of the squared responses."""
    if n < support + 2:
        raise InsufficientDataError(
            f"BIC needs n >= |support| + 2; have n={n}, support={support}")
    # an RSS at rounding-noise scale means an exact fit: the concentrated
    # likelihood diverges and BIC comparisons become meaningless
    if rss <= 1e-12 * max(yy, 1.0):
        raise DegenerateFitError(
            "residual sum of squares is numerically zero (infinite likelihood)")
    return n * math.log(rss / n) + (support + k) * math.log(n)


def bic(design: DesignMatrix, model: FittedModel) -> float:
    """Gaussian BIC with the error variance concentrated out.

    BIC = n * ln(RSS / n) + k_params * ln(n), where k_params counts the
    nonzero penalized coefficients plus one intercept per target equation.
    Additive constants are dropped; only differences across candidates that
    were fit on identical rows are meaningful.
    """
    resid = design.Y - predict_rows(model, design)
    return _bic(design.n_eff, float(np.sum(resid * resid)), len(model.support),
                model.k, float(np.sum(design.Y * design.Y)))


def _order_bics(Z, Y, mean, scales, B) -> np.ndarray:
    """The ``bic`` of each train model of an order scan, fit on the rows Z
    and Y, with the rows' column means ``mean`` and Z's ``scales`` (None:
    not standardized). B (q x model x k) holds their scaled coefficients as
    ``_lambda_path`` keeps them, in the widest design's columns.

    The RSS come from one residual factor of the scaled rows
    (``_sq_errors``), the support from the snapped raw coefficients B / sd.
    """
    n, k = Y.shape
    F = np.hstack([Z, Y])
    F -= mean
    raw = B
    if scales is not None:
        F[:, :len(B)] /= scales[0]
        raw = B / scales[0][:, None, None]
    X = np.vstack([B.reshape(len(B), -1), np.tile(-np.eye(k), B.shape[1])])
    rss = _sq_errors(F, X).reshape(-1, k).sum(axis=1)
    support = (_snap(raw) != 0.0).any(axis=2).sum(axis=0)
    yy = float(np.sum(Y * Y))
    return np.array([_bic(n, float(r), int(sz), k, yy)
                     for r, sz in zip(rss, support)])


@dataclass(frozen=True)
class OrderScan:
    """BIC for each candidate (p, s); ties prefer smaller p, then smaller s.

    ``solves``, ``iterations`` and ``nonconverged`` sum the candidates' lambda
    paths (see ``LambdaPath``), and ``kkt_max`` is the largest of theirs;
    the train models are among those solves.
    """

    candidates: tuple[tuple[int, int], ...]
    bic: np.ndarray
    lambdas: np.ndarray
    chosen: tuple[int, int]
    solves: int
    iterations: int
    nonconverged: int
    kkt_max: float

    def __post_init__(self) -> None:
        freeze(self, bic=np.asarray(self.bic, dtype=float),
               lambdas=np.asarray(self.lambdas, dtype=float))

    @property
    def chosen_p(self) -> int:
        return self.chosen[0]

    @property
    def chosen_s(self) -> int:
        return self.chosen[1]


def select_order(frame: TimeSeriesFrame, p_range, s_range,
                 spec: ModelSpec = ModelSpec()) -> OrderScan:
    """Scan lag orders; per candidate, re-select lambda and score BIC on train.

    All candidates are trimmed to the response rows usable under the largest
    orders in the scan, so their likelihoods are computed on identical rows
    and the BIC values compare cleanly. On those rows each candidate's
    design is a column cut of the widest design, (p_max, s_max): its target
    lags 1..p, then its exogenous lags 1..s. A lag's columns do not depend on
    the other lags, so the cut equals the candidate's own design on the same
    rows, in either lag mode.

    Every candidate's lambda path comes from one pass over the widest
    design's windows (``_lambda_path`` with one cut per candidate), with the
    settings ``select_lambda`` reads from ``spec``; the design uses
    ``spec.lag_mode``. The train model is the path's train fit at the chosen
    lambda, not a refit: the first window of either refit policy is the
    training segment, solved warm from the next larger lambda (cold at the
    largest). Its BIC is ``bic``'s, taken from one residual factor of the
    training rows, scaled by the path's means and scales (``_order_bics``).
    The ranges, not ``spec.p`` and ``spec.s``, give the lag orders.
    """
    p_range, s_range = list(p_range), list(s_range)
    if not all(map(_is_int, p_range + s_range)):
        raise ContractError(f"lag orders must be integers: {p_range}, {s_range}")
    p_range, s_range = sorted(set(map(int, p_range))), sorted(set(map(int, s_range)))
    if not p_range or not s_range:
        raise ContractError("p_range and s_range must be non-empty")
    LagSpec(p_range[0], s_range[0], spec.lag_mode)  # the smallest orders, too
    p_max, s_max = p_range[-1], s_range[-1]
    wide = build_design(frame, LagSpec(p_max, s_max, spec.lag_mode))
    split = SplitPlan(wide.n_eff)
    k, m = wide.k, len(wide.exog_names)

    candidates = [(p, s) for p in p_range for s in s_range]
    cuts = [np.r_[0:p * k, p_max * k:p_max * k + s * m] for p, s in candidates]
    paths, mean, scales, X0 = _lambda_path(wide, split, spec, cuts)
    # each train model is its path's train solve at its lambda
    B = X0[:, np.arange(len(cuts)), [path.chosen_index for path in paths]]
    bics = _order_bics(wide.Z[split.train], wide.Y[split.train], mean, scales, B)

    # BICs within rounding of the minimum tie; the first in (p, s) order wins
    low = float(np.min(bics))
    best = int(np.flatnonzero(bics <= low + 1e-9 * max(1.0, abs(low)))[0])
    return OrderScan(candidates=tuple(candidates), bic=bics,
                     lambdas=[path.chosen_lambda for path in paths],
                     chosen=candidates[best],
                     solves=sum(path.solves for path in paths),
                     iterations=sum(path.iterations for path in paths),
                     nonconverged=sum(path.nonconverged for path in paths),
                     kkt_max=max(path.kkt_max for path in paths))
