"""Lagged design matrices for VARX fitting.

Regressor columns are laid out lag-major: all target lags at lag 1, ...,
all target lags at lag p, then all exogenous columns at lag 1, ..., lag s.
Labels follow the same convention used in reported coefficient tables:
``Y1L1`` is target 1 at lag 1, ``Rainfall2`` is the Rainfall column at lag 2.
A (k x q) coefficient matrix over these columns maps to per-lag blocks and
back only through ``split_lags`` and ``stack_lags``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InsufficientDataError, NonFiniteError
from .frame import TimeSeriesFrame, freeze


def _is_int(value) -> bool:
    """An integer that is not a ``bool`` (``True`` would pass as 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class LagSpec:
    """Lag orders and row-alignment mode.

    ``calendar`` mode treats lags as true calendar offsets (days for daily
    frames, months for monthly): a row is usable only if every lagged date is
    actually present, so data gaps shrink the design instead of silently
    misaligning it. ``positional`` mode lags over adjacent retained rows.
    """

    p: int = 4
    s: int = 2
    mode: str = "calendar"  # "calendar" | "positional"

    def __post_init__(self) -> None:
        for name, value in (("p", self.p), ("s", self.s)):
            if not _is_int(value):
                raise ContractError(f"{name} must be an integer, got {value!r}")
        if self.p < 1:
            raise ContractError("p must be >= 1")
        if self.s < 0:
            raise ContractError("s must be >= 0")
        if self.mode not in ("calendar", "positional"):
            raise ContractError(f"unknown lag mode {self.mode!r}")


@dataclass(frozen=True)
class DesignMatrix:
    """Response block Y (n_eff x k) and regressor block Z (n_eff x q)."""

    Y: np.ndarray
    Z: np.ndarray
    row_dates: np.ndarray
    col_labels: tuple[str, ...]
    target_names: tuple[str, ...]
    exog_names: tuple[str, ...]
    p: int
    s: int
    mode: str

    def __post_init__(self) -> None:
        Y = np.asarray(self.Y, dtype=float)
        if Y.ndim == 1:
            Y = Y.reshape(-1, 1)
        Z = np.asarray(self.Z, dtype=float)
        dates = np.asarray(self.row_dates, dtype="datetime64[D]")
        if Y.shape[0] != Z.shape[0] or Y.shape[0] != len(dates):
            raise ContractError("Y, Z and row_dates must agree on row count")
        if Z.shape[1] != len(self.col_labels):
            raise ContractError("col_labels must match Z width")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise ContractError("regressor labels collide; rename columns")
        if not (np.all(np.isfinite(Y)) and np.all(np.isfinite(Z))):
            raise NonFiniteError("design contains non-finite values")
        freeze(self, Y=Y, Z=Z, row_dates=dates)

    @property
    def n_eff(self) -> int:
        return self.Y.shape[0]

    @property
    def k(self) -> int:
        return self.Y.shape[1]

    @property
    def q(self) -> int:
        return self.Z.shape[1]

    def take(self, rows) -> "DesignMatrix":
        """Row subset (used by split-aware fitting).

        A row subset of a validated design is valid already, so the result
        skips revalidation: slices stay read-only views, and fancy-index
        copies (masks, index arrays) are marked read-only.
        """
        new = object.__new__(DesignMatrix)
        freeze(new, Y=self.Y[rows], Z=self.Z[rows], row_dates=self.row_dates[rows])
        for name in ("col_labels", "target_names", "exog_names", "p", "s", "mode"):
            object.__setattr__(new, name, getattr(self, name))
        return new


def regressor_labels(target_names, exog_names, p: int, s: int) -> tuple[str, ...]:
    """Lag-major regressor labels: Y blocks by lag, then exogenous by lag."""
    labels = [f"Y{i + 1}L{lag}" for lag in range(1, p + 1)
              for i in range(len(target_names))]
    labels += [f"{name}{lag}" for lag in range(1, s + 1) for name in exog_names]
    return tuple(labels)


def split_lags(coeffs: np.ndarray, p: int, s: int, m: int):
    """Views of a (k x q) lag-major coefficient matrix as its per-lag blocks
    ``phi`` (p, k, k) and ``beta`` (s, k, m), ``[l-1]`` of each at lag l."""
    k = coeffs.shape[0]
    phi = coeffs[:, :p * k].reshape(k, p, k).swapaxes(0, 1)
    beta = coeffs[:, p * k:].reshape(k, s, m).swapaxes(0, 1)
    return phi, beta


def stack_lags(phi: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The (k x q) lag-major coefficient matrix of ``split_lags``' blocks."""
    k = phi.shape[1]
    return np.hstack([phi.swapaxes(0, 1).reshape(k, -1),
                      beta.swapaxes(0, 1).reshape(k, -1)])


def _lag_indices(dates: np.ndarray, max_lag: int, resolution: str):
    """Positions of each date's predecessor at lags 1..max_lag, with masks.

    A lag-L predecessor is tried at row i - L, where a gap-free stretch holds
    it; dates strictly increase, so a match there is the only one. Misses are
    searched, and so is every row once most rows miss (misses grow with the
    lag), or in a frame under 512 rows, where searching is the cheaper.
    """
    pool = dates if resolution == "daily" else dates.astype("datetime64[M]")
    unit = np.timedelta64(1, "D" if resolution == "daily" else "M")
    lags, n, guess = [], len(pool), len(pool) >= 512
    for lag in range(1, max_lag + 1):
        wanted = pool - lag * unit
        if guess:
            idx, valid = np.arange(-lag, n - lag), np.zeros(n, dtype=bool)
            valid[lag:] = pool[:max(n - lag, 0)] == wanted[lag:]
            miss = np.flatnonzero(~valid)
            guess = 2 * len(miss) <= n
        if guess:  # a wanted date precedes its row's: searches stay in range
            idx[miss] = np.searchsorted(pool, wanted[miss])
            valid[miss] = pool[idx[miss]] == wanted[miss]
        else:
            idx = np.searchsorted(pool, wanted)
            valid = pool[idx] == wanted
        lags.append((idx, valid))
    return lags


def build_design(frame: TimeSeriesFrame, spec: LagSpec) -> DesignMatrix:
    """Build the lagged regression system for one frame.

    Raises InsufficientDataError when fewer than max(p, s) + 1 rows exist or
    (calendar mode) when gaps leave no row with a complete lag history.
    """
    p, s = spec.p, spec.s
    min_rows = max(p, s) + 1
    if frame.n < min_rows:
        raise InsufficientDataError(
            f"need at least {min_rows} rows for p={p}, s={s}; have {frame.n}")

    if spec.mode == "positional":
        r0 = max(p, s)
        y_blocks = [frame.targets[r0 - lag: frame.n - lag] for lag in range(1, p + 1)]
        x_blocks = [frame.exog[r0 - lag: frame.n - lag] for lag in range(1, s + 1)]
        usable = slice(r0, frame.n)
    else:
        # one lookup per lag serves the target blocks (lags 1..p) and the
        # exogenous blocks (lags 1..s)
        lags = _lag_indices(frame.dates, max(p, s), frame.resolution)
        usable = np.logical_and.reduce([ok for _, ok in lags])
        if not usable.any():
            raise InsufficientDataError(
                f"no row has a complete {spec.mode} lag history for "
                f"p={p}, s={s} (gaps too frequent)")
        y_blocks = [frame.targets[idx[usable]] for idx, _ in lags[:p]]
        x_blocks = [frame.exog[idx[usable]] for idx, _ in lags[:s]]

    Z = np.hstack(y_blocks + x_blocks)  # LagSpec keeps p >= 1
    return DesignMatrix(
        Y=frame.targets[usable], Z=Z, row_dates=frame.dates[usable],
        col_labels=regressor_labels(frame.target_names, frame.exog_names, p, s),
        target_names=frame.target_names, exog_names=frame.exog_names,
        p=p, s=s, mode=spec.mode,
    )


@dataclass(frozen=True)
class ScalingInfo:
    """Centering/scaling statistics used to standardize a design.

    Z columns are centered and scaled by the sample standard deviation
    (ddof=1) of the statistic rows; constant columns are flagged and left at
    scale 1. Y is centered only.
    """

    z_mean: np.ndarray
    z_sd: np.ndarray
    y_mean: np.ndarray
    constant: np.ndarray
    enabled: bool = True

    def __post_init__(self) -> None:
        freeze(self, z_mean=self.z_mean, z_sd=self.z_sd, y_mean=self.y_mean,
               constant=self.constant)

    @classmethod
    def identity(cls, q: int, k: int) -> "ScalingInfo":
        """No-op scaling (used when standardization is disabled)."""
        return cls(z_mean=np.zeros(q), z_sd=np.ones(q), y_mean=np.zeros(k),
                   constant=np.zeros(q, dtype=bool), enabled=False)


def _comoments(X):
    """The column means and centered co-moments (X - mean)'(X - mean) of
    X's rows, taken on X less its first row: there a column that is
    constant is exactly zero, so its mean is exact and its co-moments are
    exactly zero."""
    shift = X[0]
    dev = X - shift
    mean = dev.sum(axis=0) / len(X)
    dev -= mean
    return shift + mean, dev.T @ dev


def _sds(n, mean, M, q):
    """The scales of Z's columns and their constant flags, from n rows of
    [Z | Y], Z's q columns first, with column means ``mean`` and centered
    co-moments ``M``: each column's ddof=1 standard deviation, or 1 for a
    column whose sd is zero to rounding, relative to its mean."""
    sd = np.sqrt(M.diagonal()[:q] / (n - 1))
    constant = sd <= 1e-12 * np.maximum(1.0, np.abs(mean[:q]))
    return np.where(constant, 1.0, sd), constant


def _scaling(mean, q, sd, constant) -> ScalingInfo:
    """The ScalingInfo of rows of [Z | Y], Z's q columns first, with column
    means ``mean`` and Z's ``_sds`` ``sd`` and ``constant``."""
    return ScalingInfo(z_mean=mean[:q], z_sd=sd, y_mean=mean[q:],
                       constant=constant, enabled=True)


def standardize(design: DesignMatrix):
    """Standardize a design; returns (scaled design, ScalingInfo).

    The statistics come from every row of ``design``, from the same
    co-moments as ``solver.prepare``'s; standardize ``design.take(rows)``
    to keep other rows out of the scaling.
    """
    n = design.n_eff
    if n < 2:
        raise InsufficientDataError(
            f"need >= 2 statistic rows to standardize; have {n}")
    mean, M = _comoments(np.hstack([design.Z, design.Y]))
    info = _scaling(mean, design.q, *_sds(n, mean, M, design.q))
    scaled = DesignMatrix(
        Y=design.Y - info.y_mean, Z=(design.Z - info.z_mean) / info.z_sd,
        row_dates=design.row_dates, col_labels=design.col_labels,
        target_names=design.target_names, exog_names=design.exog_names,
        p=design.p, s=design.s, mode=design.mode,
    )
    return scaled, info


def lookahead_violations(design: DesignMatrix, frame: TimeSeriesFrame) -> int:
    """Recompute every regressor cell from the frame and count violations.

    A violation is a design cell whose source row is missing, is not strictly
    earlier than the design row, or holds a value that does not match the
    frame exactly. A design row whose own date is not in the frame counts all
    of its cells. Returns 0 for a clean design; used by leakage audits.

    Source rows are located independently of ``build_design``: by exact date
    lookup in the frame (calendar mode) or by position minus lag (positional
    mode), once per lag for both blocks, at column offsets of its own, not
    ``split_lags``'. Each date is tried first where a gap-free frame holds it
    (rows end-aligned, sources at row minus lag), and searched if not there.
    """
    if frame.n == 0:
        return design.Z.size
    dates = design.row_dates

    def locate(wanted, guess):
        """Frame position of each wanted date, and whether it is there."""
        pos = np.maximum(guess, 0)  # no guess lies past the frame's last row
        found = frame.dates[pos] == wanted
        miss = np.flatnonzero(~found)
        if len(miss):
            pos[miss] = np.minimum(np.searchsorted(frame.dates, wanted[miss]),
                                   frame.n - 1)
            found[miss] = frame.dates[pos[miss]] == wanted[miss]
        return pos, found

    row_pos, row_found = locate(dates, np.arange(len(dates)) + frame.n - len(dates))
    k, m, p, s = frame.k, frame.m, design.p, design.s
    bad = 0
    for lag in range(1, max(p, s) + 1):
        if design.mode == "positional":
            src, ok = np.maximum(row_pos - lag, 0), row_pos >= lag
        elif frame.resolution == "daily":
            src, ok = locate(dates - np.timedelta64(lag, "D"), row_pos - lag)
        else:
            months = dates.astype("datetime64[M]") - lag
            src, ok = locate(months.astype("datetime64[D]"), row_pos - lag)
        # a row whose source is missing or not earlier counts every cell
        not_ok = ~(ok & row_found & (frame.dates[src] < dates))[:, None]
        for source, width, off, top in (
                (frame.targets, k, (lag - 1) * k, p),
                (frame.exog, m, p * k + (lag - 1) * m, s)):
            if lag <= top:
                cells = design.Z[:, off: off + width]
                bad += int(np.count_nonzero((source[src] != cells) | not_ok))
    return bad
