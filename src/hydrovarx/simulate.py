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

from .design import _is_int, regressor_labels
from .errors import ContractError
from .frame import Column, TimeSeriesFrame

BURN_IN_DEFAULT = 500


def companion_spectral_radius(phi: np.ndarray) -> float:
    """Largest eigenvalue magnitude of the VAR companion matrix; 0.0 when
    there are no lags (p = 0)."""
    p, k = phi.shape[0], phi.shape[1]
    if p == 0:
        return 0.0
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
        if phi.ndim != 3 or phi.shape[1] != phi.shape[2] or phi.shape[1] < 1:
            raise ContractError("phi must have shape (p, k, k), k >= 1")
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

        for name in ("n", "burn_in", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ContractError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ContractError("n must be >= 1")
        if self.burn_in < 0:
            raise ContractError("burn_in must be >= 0")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")
        for name in ("phi", "beta", "nu", "init_y", "noise_sd", "exog_rho"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ContractError(f"{name} must be finite")
        if self.noise_sd < 0:
            raise ContractError("noise_sd must be >= 0")
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

    Every step rounds as the plain recursion does (``tests/conftest.py``
    keeps it as the oracle). The AR(1) drivers are elementwise, so they run
    on Python floats, as does the k = 1 recursion below. Those floats are
    read from and written to numpy's buffers through ``memoryview``, not
    held in lists, so no heap of float objects is left behind (one showed
    in the benchmark's peak RSS). A product of more than one term stays the
    numpy call it always was, one per step on a C-contiguous row: each
    exogenous term ``beta[lag] @ x_(t-1-lag)`` (mapped straight over the
    rows of x, which does not depend on y) and, for k >= 2, each AR term.
    BLAS may form those sums with fused multiply-adds (OpenBLAS does on
    x86_64), so neither a Python sum of products nor one batched product
    over all steps gives the same bits. With k = 1 an AR term is one
    multiplication, done on Python floats as numpy forms it: ``0.0 + a *
    b``, whose sum starts at +0.0. The terms are added in the same order:
    nu + eps_t, the AR lags, then the exogenous lags.
    """
    rng = np.random.default_rng(spec.seed)
    p, k, s, m = spec.p, spec.k, spec.s, spec.m
    total = spec.burn_in + spec.n

    if m:
        x = rng.standard_normal((total, m))
        if spec.exog_mode == "ar1":
            rho = float(spec.exog_rho)
            for j in range(m):
                prev, path = 0.0, memoryview(x[:, j])
                for t, e in enumerate(path):
                    prev = path[t] = rho * prev + e
    else:
        x = np.zeros((total, 0))

    base = spec.nu + rng.standard_normal((total, k)) * spec.noise_sd
    # x_t is row t + s of x_pad, after s zero rows, so exogenous term l of
    # step t, beta[l] @ x_(t-1-l), is the product with row t + s - 1 - l.
    # x_pad is C-contiguous: BLAS sums a strided row in another order
    beta = spec.beta if spec.beta is not None else np.zeros((0, k, 0))
    x_pad = np.zeros((s + total, m))
    x_pad[s:] = x
    terms = [map(beta[lag].__matmul__, x_pad[s - 1 - lag:]) for lag in range(s)]
    # y_t is row t + p of y, after p pre-sample rows (init_y, lag 1 last)
    y = np.zeros((p + total, k))
    if spec.init_y is not None:
        y[:p] = spec.init_y[::-1]
    if k == 1:
        phi, ys = spec.phi[:, 0, 0].tolist(), memoryview(y[:, 0])
        for t, (val, *xt) in enumerate(zip(memoryview(base[:, 0]), *terms)):
            for lag, a in enumerate(phi):
                val += 0.0 + a * ys[t + p - 1 - lag]
            for term in xt:
                val += term.item()
            ys[t + p] = val
    else:
        lagged = [y[p - 1 - lag:] for lag in range(p)]
        for val, out, *rest in zip(base, y[p:], *lagged, *terms):
            for a, row in zip(spec.phi, rest):
                val = val + a @ row
            for term in rest[p:]:
                val = val + term
            out[:] = val

    y = y[p + spec.burn_in:]
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
