"""Seeded synthetic VARX data with known ground truth.

Series are generated by iterating

    y_t = nu + sum_l phi[l] y_(t-l) + sum_j beta[j] x_(t-j) + sigma * eps_t

with standard normal innovations from ``numpy.random.default_rng`` (PCG64 —
portable and fully determined by the seed). A burn-in prefix (default 500
steps) is discarded so the retained sample starts near stationarity; the
autoregressive part must be stable (companion-matrix spectral radius < 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import regressor_labels
from .errors import ContractError
from .frame import Column, TimeSeriesFrame

BURN_IN_DEFAULT = 500


def companion_spectral_radius(phi: np.ndarray) -> float:
    """Largest eigenvalue magnitude of the VAR companion matrix."""
    p, k = phi.shape[0], phi.shape[1]
    comp = np.zeros((k * p, k * p))
    for lag in range(p):
        comp[:k, lag * k:(lag + 1) * k] = phi[lag]
    if p > 1:
        comp[k:, :-k] = np.eye(k * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


@dataclass(frozen=True)
class SynthSpec:
    """Ground-truth process definition; the seed fully determines the output."""

    n: int
    phi: np.ndarray                      # (p, k, k), lag-major
    beta: np.ndarray | None = None       # (s, k, m); None means s = 0
    nu: np.ndarray | None = None         # (k,); default zeros
    noise_sd: float = 1.0
    exog_mode: str = "iid"               # "iid" | "ar1"
    exog_rho: float = 0.0
    seed: int = 0
    burn_in: int = BURN_IN_DEFAULT
    init_y: np.ndarray | None = None     # pre-sample lags, (p, k); lag 1 first
    start_date: str = "2000-01-01"
    target_names: tuple[str, ...] = ()
    exog_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim == 0:
            phi = phi.reshape(1, 1, 1)
        elif phi.ndim == 1:  # scalar AR coefficients, one per lag
            phi = phi.reshape(-1, 1, 1)
        if phi.ndim != 3 or phi.shape[1] != phi.shape[2]:
            raise ContractError("phi must have shape (p, k, k)")
        object.__setattr__(self, "phi", phi)
        k = phi.shape[1]

        beta = self.beta
        if beta is not None:
            beta = np.asarray(beta, dtype=float)
            if beta.ndim == 2:
                beta = beta.reshape(1, *beta.shape)
            if beta.ndim != 3 or beta.shape[1] != k:
                raise ContractError("beta must have shape (s, k, m)")
            object.__setattr__(self, "beta", beta)

        nu = np.zeros(k) if self.nu is None else np.asarray(self.nu, dtype=float)
        if nu.shape != (k,):
            raise ContractError(f"nu must have shape ({k},)")
        object.__setattr__(self, "nu", nu)

        if self.n < 1:
            raise ContractError("n must be >= 1")
        if self.noise_sd < 0:
            raise ContractError("noise_sd must be >= 0")
        if self.burn_in < 0:
            raise ContractError("burn_in must be >= 0")
        if self.exog_mode not in ("iid", "ar1"):
            raise ContractError(f"unknown exog mode {self.exog_mode!r}")
        if self.exog_mode == "ar1" and not abs(self.exog_rho) < 1:
            raise ContractError("exog AR(1) rho must satisfy |rho| < 1")

        radius = companion_spectral_radius(phi)
        if not radius < 1.0:
            raise ContractError(
                f"unstable autoregressive part: spectral radius {radius:.6g} >= 1")

        if self.init_y is not None:
            init = np.asarray(self.init_y, dtype=float)
            if init.ndim == 1:
                init = np.tile(init.reshape(1, -1), (self.p, 1))
            if init.shape != (self.p, k):
                raise ContractError(f"init_y must have shape ({self.p}, {k})")
            object.__setattr__(self, "init_y", init)

    @property
    def p(self) -> int:
        return self.phi.shape[0]

    @property
    def k(self) -> int:
        return self.phi.shape[1]

    @property
    def s(self) -> int:
        return 0 if self.beta is None else self.beta.shape[0]

    @property
    def m(self) -> int:
        return 0 if self.beta is None else self.beta.shape[2]

    def names(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        targets = self.target_names or tuple(f"Y{i+1}" for i in range(self.k))
        exog = self.exog_names or tuple(f"x{j+1}" for j in range(self.m))
        if len(targets) != self.k or len(exog) != self.m:
            raise ContractError("name tuples do not match k / m")
        return targets, exog


@dataclass(frozen=True)
class GroundTruth:
    """The generating parameters, plus the regressor labels that are nonzero."""

    phi: np.ndarray
    beta: np.ndarray
    nu: np.ndarray
    noise_sd: float
    support: tuple[str, ...]
    seed: int = 0

    def to_dict(self) -> dict:
        return {"phi": self.phi.tolist(), "beta": self.beta.tolist(),
                "nu": self.nu.tolist(), "noise_sd": self.noise_sd,
                "support": list(self.support), "seed": self.seed}


def simulate(spec: SynthSpec) -> tuple[TimeSeriesFrame, GroundTruth]:
    """Generate a synthetic frame and its ground truth.

    Draw order is fixed (exogenous paths first, then target innovations), so
    a given seed always produces the same frame bit for bit. Dates are
    consecutive days starting at ``spec.start_date``.
    """
    rng = np.random.default_rng(spec.seed)
    p, k, s, m = spec.p, spec.k, spec.s, spec.m
    total = spec.burn_in + spec.n

    if m:
        shocks = rng.standard_normal((total, m))
        if spec.exog_mode == "iid":
            x = shocks
        else:
            x = np.empty((total, m))
            prev = np.zeros(m)
            for t in range(total):
                prev = spec.exog_rho * prev + shocks[t]
                x[t] = prev
    else:
        x = np.zeros((total, 0))

    eps = rng.standard_normal((total, k)) * spec.noise_sd
    lags = np.zeros((p, k)) if spec.init_y is None else spec.init_y.copy()
    x_lags = np.zeros((max(s, 1), m))
    y = np.empty((total, k))
    beta = spec.beta if spec.beta is not None else np.zeros((0, k, 0))
    for t in range(total):
        val = spec.nu + eps[t]
        for lag in range(p):
            val = val + spec.phi[lag] @ lags[lag]
        for lag in range(s):
            val = val + beta[lag] @ x_lags[lag]
        y[t] = val
        if p:
            lags = np.vstack([val.reshape(1, -1), lags[:-1]])
        if s:
            x_lags = np.vstack([x[t].reshape(1, -1), x_lags[:-1]])

    y = y[spec.burn_in:]
    x = x[spec.burn_in:]
    start = np.datetime64(spec.start_date, "D")
    dates = start + np.arange(spec.n)

    target_names, exog_names = spec.names()
    columns = tuple(Column(nm, "target") for nm in target_names) \
        + tuple(Column(nm, "exog") for nm in exog_names)
    frame = TimeSeriesFrame(dates=dates, targets=y, exog=x, columns=columns)

    blocks = [spec.phi[lag] for lag in range(p)] + [beta[lag] for lag in range(s)]
    B = np.hstack(blocks) if blocks else np.empty((k, 0))
    labels = regressor_labels(target_names, exog_names, p, s)
    support = tuple(lbl for j, lbl in enumerate(labels) if np.any(B[:, j] != 0.0))
    truth = GroundTruth(phi=spec.phi.copy(), beta=np.asarray(beta).copy(),
                        nu=spec.nu.copy(), noise_sd=spec.noise_sd,
                        support=support, seed=spec.seed)
    return frame, truth
