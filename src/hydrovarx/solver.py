"""Elastic-net VARX estimation by cyclic coordinate descent.

The objective is the penalized residual sum of squares, exactly as stated
(RSS is not divided by the number of rows):

    min over (nu, B):  sum_t || y_t - nu - B z_t ||^2
                       + lambda * ( alpha * ||B||_1 + (1 - alpha) * ||B||_2^2 )

where z_t stacks the lagged targets and lagged exogenous drivers. The
intercept nu is never penalized. With standardization enabled (the default)
the penalty acts on the standardized coefficients, which keeps lambda
comparable across columns with different physical units.

The problem separates by target equation, so each row of B is solved
independently. Coordinate updates use the covariance form: with G = Zc'Zc and
c = Zc'y precomputed, each update costs O(q) and a full sweep O(q^2). The
coordinate-wise minimizer is the soft-threshold rule

    b_j <- S(z_j' r_(-j), lambda * alpha / 2) / (||z_j||^2 + lambda * (1 - alpha))

with S(u, t) = sign(u) * max(|u| - t, 0). Sweeps visit coordinates in fixed
order, so fitting is deterministic bit-for-bit.

``prepare`` standardizes and centers a design and forms G, c and their
list forms once; ``fit`` accepts that ``Problem`` in place of the design,
so a lambda grid over one training window builds its Gram problem once.

The kernel (``_cd_solve``) runs each sweep on Python floats and lists: the
coefficients, the partial residuals rho = c - G b and the columns of G are
lists, and an update subtracts G[:, j] * (new - old) from rho element by
element. Every sweep visits all coordinates; one that stays at zero costs a
single threshold test. Coordinate descent converges only linearly on
strongly correlated lag columns, so the kernel also takes an exact step on
the face of the iterate: with nonzero set A and signs s_A, it solves

    (G_AA + lambda (1 - alpha) I) x = c_A - (lambda alpha / 2) s_A

and moves to b_A = x (zero elsewhere, rho recomputed) only if x is finite
and sign(x) = s_A; a singular block or a sign change rejects the step and
plain sweeps go on. An accepted x minimizes the objective on the orthant
face holding the iterate, so the objective never increases. With
lambda * alpha = 0 there is no L1 term and any finite x is accepted: it
minimizes the objective on the subspace of A's coordinates. The step is
tried after each full sweep, once per face (x depends only on the face),
and the next sweep re-checks every coordinate. A fit converges after a
sweep whose largest step is below ``tol``; each fit reports its sweep count
per equation (``n_iter``, steps not counted) and whether every equation
converged.

Equivalence contract: the kernel reaches the same minimizer as plain
coordinate descent, not the same bits. The test suite keeps the plain
numpy-scalar kernel as an oracle: converged fits match it, run to
tol = 1e-13 (where it converges within 10000 sweeps), in zero pattern and
within 1e-9 * max(1, |b|) per coefficient.
``kkt_violation`` certifies a fit against its optimality conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix, ScalingInfo, _standardize_arrays, destandardize_coeffs
from .errors import (
    CompatibilityError,
    ContractError,
    DegenerateFitError,
    NumericalError,
)

#: back-transformed coefficients below this magnitude are reported as zero
SNAP_TOL = 1e-12


@dataclass(frozen=True)
class Penalty:
    """Elastic-net penalty: lam scales it, alpha mixes L1 vs squared L2."""

    lam: float
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ContractError(f"lambda must be finite and >= 0, got {self.lam}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ContractError(f"alpha must lie in [0, 1], got {self.alpha}")

    def value(self, coeffs: np.ndarray) -> float:
        """Penalty term for a coefficient array (any shape)."""
        b = np.asarray(coeffs, dtype=float).ravel()
        return float(self.lam * (self.alpha * np.abs(b).sum()
                                 + (1.0 - self.alpha) * (b @ b)))


@dataclass(frozen=True)
class FittedModel:
    """A fitted sparse VARX model in original units.

    ``coeffs`` is the (k x q) coefficient matrix over the design's lag-major
    regressor columns; ``phi`` and ``beta`` expose it as per-lag matrices.
    ``scaled_coeffs``/``scaled_intercept`` are the same solution on the
    standardized scale the solver actually minimized on (identical to the raw
    values when standardization was disabled).
    """

    nu: np.ndarray
    coeffs: np.ndarray
    scaled_intercept: np.ndarray
    scaled_coeffs: np.ndarray
    lam: float
    alpha: float
    sigma2: float
    support: tuple[str, ...]
    col_labels: tuple[str, ...]
    target_names: tuple[str, ...]
    exog_names: tuple[str, ...]
    p: int
    s: int
    lag_mode: str
    scaling: ScalingInfo
    n_rows: int
    converged: bool
    n_iter: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("nu", "coeffs", "scaled_intercept", "scaled_coeffs"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.coeffs.shape[0]

    @property
    def m(self) -> int:
        return len(self.exog_names)

    @property
    def phi(self) -> np.ndarray:
        """Autoregressive matrices, shape (p, k, k): phi[l-1] applies to lag l."""
        k = self.k
        return np.stack([self.coeffs[:, i * k:(i + 1) * k] for i in range(self.p)]) \
            if self.p else np.empty((0, k, k))

    @property
    def beta(self) -> np.ndarray:
        """Exogenous matrices, shape (s, k, m): beta[j-1] applies to lag j."""
        k, m = self.k, self.m
        off = self.p * k
        return np.stack([self.coeffs[:, off + j * m: off + (j + 1) * m]
                         for j in range(self.s)]) \
            if self.s and m else np.empty((self.s, k, m))

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        sc = self.scaling
        return {
            "version": 1,
            "p": self.p,
            "s": self.s,
            "lag_mode": self.lag_mode,
            "alpha": self.alpha,
            "lambda": self.lam,
            "nu": self.nu.tolist(),
            "phi": self.phi.tolist(),
            "beta": self.beta.tolist(),
            "support": list(self.support),
            "sigma2": self.sigma2,
            "scaling": {
                "enabled": bool(sc.enabled),
                "z_mean": sc.z_mean.tolist(),
                "z_sd": sc.z_sd.tolist(),
                "y_mean": sc.y_mean.tolist(),
                "constant": sc.constant.astype(int).tolist(),
            },
            "scaled_intercept": self.scaled_intercept.tolist(),
            "scaled_coeffs": self.scaled_coeffs.tolist(),
            "col_labels": list(self.col_labels),
            "target_names": list(self.target_names),
            "exog_names": list(self.exog_names),
            "n_rows": self.n_rows,
            "converged": self.converged,
            "n_iter": list(self.n_iter),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FittedModel":
        if d.get("version") != 1:
            raise CompatibilityError(f"unsupported model version {d.get('version')!r}")
        p, s = int(d["p"]), int(d["s"])
        k = len(d["nu"])
        phi = np.asarray(d["phi"], dtype=float).reshape(p, k, k)
        m = len(d["exog_names"])
        beta = np.asarray(d["beta"], dtype=float).reshape(s, k, m)
        blocks = [phi[i] for i in range(p)] + [beta[j] for j in range(s)]
        coeffs = np.hstack(blocks) if blocks else np.empty((k, 0))
        sc = d["scaling"]
        # documents written before stat_rows was dropped carry [0, n_rows]
        if sc.get("stat_rows") not in (None, [0, d["n_rows"]]):
            raise ValueError(f"scaling.stat_rows {sc['stat_rows']!r} is not "
                             f"[0, n_rows] = [0, {d['n_rows']!r}]")
        scaling = ScalingInfo(
            z_mean=np.asarray(sc["z_mean"], dtype=float),
            z_sd=np.asarray(sc["z_sd"], dtype=float),
            y_mean=np.asarray(sc["y_mean"], dtype=float),
            constant=np.asarray(sc["constant"], dtype=bool),
            enabled=bool(sc["enabled"]),
        )
        return cls(
            nu=np.asarray(d["nu"], dtype=float),
            coeffs=coeffs,
            scaled_intercept=np.asarray(d["scaled_intercept"], dtype=float),
            scaled_coeffs=np.asarray(d["scaled_coeffs"], dtype=float),
            lam=float(d["lambda"]), alpha=float(d["alpha"]),
            sigma2=float(d["sigma2"]), support=tuple(d["support"]),
            col_labels=tuple(d["col_labels"]),
            target_names=tuple(d["target_names"]),
            exog_names=tuple(d["exog_names"]),
            p=p, s=s, lag_mode=str(d.get("lag_mode", "calendar")),
            scaling=scaling, n_rows=int(d["n_rows"]),
            converged=bool(d["converged"]),
            n_iter=tuple(int(v) for v in d.get("n_iter", ())),
        )


@dataclass(frozen=True, eq=False)
class Problem:
    """The centered Gram problem of one design, shared by fits over a lambda grid.

    ``G = Zc'Zc`` and ``c[i] = Zc'(y_i - ybar_i)`` on the (standardized,
    when enabled) regressors centered over the design's rows; ``cols`` and
    ``diag`` are G's columns and diagonal as Python floats, the form the
    coordinate-descent kernel reads. Built by ``prepare``.
    """

    design: DesignMatrix
    info: ScalingInfo
    z_bar: np.ndarray
    y_bar: np.ndarray
    G: np.ndarray
    c: np.ndarray
    cols: list
    diag: list


def prepare(design: DesignMatrix, *, standardize_design: bool = True) -> Problem:
    """Standardize, center and form the Gram problem of ``design`` once."""
    n = design.n_eff
    if n < 2:
        raise DegenerateFitError(f"cannot fit on {n} rows")
    if standardize_design:
        Z, Y, info = _standardize_arrays(design)
    else:
        Z, Y = design.Z, design.Y
        info = ScalingInfo.identity(design.q, design.k)
    # center over the fitted rows; makes the unpenalized intercept exact
    z_bar = Z.sum(axis=0) / n
    y_bar = Y.sum(axis=0) / n
    Zc = Z - z_bar
    G = Zc.T @ Zc
    c = (Y - y_bar).T @ Zc
    return Problem(design=design, info=info, z_bar=z_bar, y_bar=y_bar, G=G, c=c,
                   cols=G.T.tolist(), diag=G.diagonal().tolist())


def _face_solve(G, c, face, signs, thr, ridge):
    """Minimizer of the objective on an orthant face, or None if it is off it.

    On the face {b_j = 0 off ``face``, sign(b_face) = ``signs``} the
    objective is a quadratic, stationary where
    (G_AA + ridge I) x = c_A - thr * signs. The solution is returned only if
    it is finite and keeps every sign; a singular block returns None. With
    thr = 0 there is no L1 term, the quadratic is the objective on the whole
    subspace of the face's coordinates, and any finite x is returned.
    """
    idx = np.array(face)
    M = G[idx[:, None], idx]
    M.flat[::len(face) + 1] += ridge
    try:
        x = np.linalg.solve(M, c[idx] - thr * np.array(signs))
    except np.linalg.LinAlgError:
        return None
    x = x.tolist()
    # each comparison fails on NaN, and the bounds exclude the infinities
    if thr == 0.0:
        ok = all(-math.inf < v < math.inf for v in x)
    else:
        ok = all(0.0 < v < math.inf if t > 0.0 else -math.inf < v < 0.0
                 for v, t in zip(x, signs))
    return x if ok else None


def _cd_solve(G, cols, diag, c, penalty, b, tol, max_iter):
    """Coordinate descent for one equation on centered data.

    ``cols`` and ``diag`` are G's columns and diagonal as lists of floats
    (G need not be bit-symmetric). Returns (b, sweeps, converged), b as a
    list of floats. See the module docstring for the exact face step.
    """
    q = len(c)
    lam, alpha = penalty.lam, penalty.alpha
    thr = lam * alpha / 2.0
    neg_thr = -thr
    ridge = lam * (1.0 - alpha)
    rho = (c - G @ b).tolist()
    den = [d + ridge for d in diag]
    b = b.tolist()
    sweeps = 0
    converged = False
    tried = None  # x depends only on the face: never retry the face just tried
    while sweeps < max_iter:
        delta = 0.0
        for j in range(q):
            dj = den[j]
            old = b[j]
            if dj > 0:
                u = rho[j] + diag[j] * old
                if u > thr:
                    new = (u - thr) / dj
                elif u < neg_thr:
                    new = (u + thr) / dj
                else:
                    new = 0.0
            else:
                new = 0.0
            if new != old:
                diff = new - old
                rho = [r - g * diff for r, g in zip(rho, cols[j])]
                b[j] = new
                step = abs(diff)
                if step > delta:
                    delta = step
        sweeps += 1
        if delta < tol:
            converged = True
            break
        face = [j for j in range(q) if b[j] != 0.0]
        signs = [1.0 if b[j] > 0.0 else -1.0 for j in face]
        if face and (face, signs) != tried:
            tried = face, signs
            x = _face_solve(G, c, face, signs, thr, ridge)
            if x is not None:
                b = [0.0] * q
                for j, v in zip(face, x):
                    b[j] = v
                rho = (c - G @ np.array(b)).tolist()
    return b, sweeps, converged


def fit(design, penalty: Penalty, *, standardize_design: bool = True,
        tol: float = 1e-7, max_iter: int = 10000, warm_start=None) -> FittedModel:
    """Fit the penalized VARX system on the rows of ``design``.

    ``design`` is in original units. With ``standardize_design`` (default) the
    regressors are centered/scaled by their sample statistics over these rows
    before solving, and the solution is mapped back, so reported coefficients
    are always in original units. The intercept is solved exactly (never
    penalized). ``design`` may also be a ``Problem`` from ``prepare``, so a
    lambda grid prepares its rows once; its standardization must match
    ``standardize_design``. ``warm_start`` accepts the ``scaled_coeffs`` of a
    previous fit on the same design to speed up paths over a lambda grid.

    Convergence: a sweep whose largest coefficient change is below ``tol``.
    """
    if isinstance(design, Problem):
        problem = design
        if problem.info.enabled != standardize_design:
            raise ContractError(
                f"problem was prepared with standardize_design="
                f"{problem.info.enabled}, fit asked for {standardize_design}")
    else:
        problem = prepare(design, standardize_design=standardize_design)
    design, info = problem.design, problem.info
    n, k, q = design.n_eff, design.k, design.q
    scaled_b = np.zeros((k, q))
    scaled_a = np.zeros(k)
    n_iter = []
    converged_all = True
    for i in range(k):
        b0 = np.array(warm_start[i], dtype=float) if warm_start is not None \
            else np.zeros(q)
        b, sweeps, ok = _cd_solve(problem.G, problem.cols, problem.diag,
                                  problem.c[i], penalty, b0, tol, max_iter)
        scaled_b[i] = b
        scaled_a[i] = problem.y_bar[i] - problem.z_bar @ scaled_b[i]
        n_iter.append(sweeps)
        converged_all &= ok

    raw_b, raw_nu = destandardize_coeffs(scaled_b, info, intercept=scaled_a)
    raw_b = np.where(np.abs(raw_b) < SNAP_TOL, 0.0, raw_b)
    nonzero = (raw_b != 0.0).any(axis=0)
    support = tuple(lbl for lbl, nz in zip(design.col_labels, nonzero) if nz)

    resid = design.Y - (raw_nu + design.Z @ raw_b.T)
    rss = float((resid * resid).sum())
    dof = max(1, n - len(support) - k)
    sigma2 = rss / dof

    return FittedModel(
        nu=raw_nu, coeffs=raw_b, scaled_intercept=scaled_a, scaled_coeffs=scaled_b,
        lam=penalty.lam, alpha=penalty.alpha, sigma2=sigma2, support=support,
        col_labels=design.col_labels, target_names=design.target_names,
        exog_names=design.exog_names, p=design.p, s=design.s,
        lag_mode=design.mode, scaling=info, n_rows=n,
        converged=converged_all, n_iter=tuple(n_iter),
    )


def kkt_violation(model: FittedModel, design: DesignMatrix) -> float:
    """Largest optimality breach of ``model`` on the rows it was fit on.

    Computed on the standardized problem the solver minimized: with
    g_j = c_j - (G b)_j - lambda (1 - alpha) b_j, a nonzero b_j needs
    g_j = (lambda alpha / 2) sign(b_j) and a zero one |g_j| <= lambda alpha / 2.
    A converged fit leaves at most q (n - 1) tol on standardized columns.
    """
    problem = prepare(design, standardize_design=model.scaling.enabled)
    b = model.scaled_coeffs
    thr = model.lam * model.alpha / 2.0
    grad = problem.c - b @ problem.G.T - model.lam * (1.0 - model.alpha) * b
    viol = np.where(b != 0.0, np.abs(grad - thr * np.sign(b)),
                    np.maximum(np.abs(grad) - thr, 0.0))
    return float(viol.max()) if viol.size else 0.0


def objective(design: DesignMatrix, model: FittedModel, penalty: Penalty) -> float:
    """Penalized RSS of ``model``'s original-unit coefficients on ``design``."""
    pred = predict_rows(model, design)
    resid = design.Y - pred
    return float(np.sum(resid * resid)) + penalty.value(model.coeffs)


def predict_rows(model: FittedModel, design: DesignMatrix) -> np.ndarray:
    """One-step predictions for every design row (original units)."""
    if design.col_labels != model.col_labels:
        raise CompatibilityError(
            "design regressors do not match the model: "
            f"{design.col_labels[:3]}... vs {model.col_labels[:3]}...")
    return model.nu + design.Z @ model.coeffs.T


def predict_one_step(model: FittedModel, lags_y, lags_x=None) -> np.ndarray:
    """One-step-ahead forecast from explicit lag values.

    ``lags_y`` has shape (p, k) with lag 1 first; ``lags_x`` has shape (s, m).
    Returns the (k,) prediction. No recursion: every lag must be observed.
    """
    lags_y = np.asarray(lags_y, dtype=float).reshape(model.p, model.k)
    if model.s and model.m:
        if lags_x is None:
            raise ContractError(f"model needs {model.s} exogenous lag rows")
        lags_x = np.asarray(lags_x, dtype=float).reshape(model.s, model.m)
    z = np.concatenate([lags_y.ravel()] +
                       ([lags_x.ravel()] if model.s and model.m else []))
    if not np.all(np.isfinite(z)):
        raise NumericalError("lag values must be finite")
    return model.nu + model.coeffs @ z


def lambda_max(design: DesignMatrix, alpha: float, *,
               standardize_design: bool = True) -> float:
    """Smallest lambda at which every coefficient is exactly zero.

    From the coordinate-wise stationarity condition at b = 0: coordinate j
    stays at zero iff |z_j'(y - ybar)| <= lambda * alpha / 2, hence
    lambda_max = 2 * max_ij |z_j'(y_i - ybar_i)| / alpha, read off the same
    ``c`` the kernel thresholds against.
    """
    if alpha <= 0:
        raise ContractError("lambda_max is defined for alpha > 0")
    c = prepare(design, standardize_design=standardize_design).c
    return float(2.0 * np.abs(c).max() / alpha)
