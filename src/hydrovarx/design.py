"""Lagged design matrices for VARX fitting.

Regressor columns are laid out lag-major: all target lags at lag 1, ...,
all target lags at lag p, then all exogenous columns at lag 1, ..., lag s.
Labels follow the same convention used in reported coefficient tables:
``Y1L1`` is target 1 at lag 1, ``Rainfall2`` is the Rainfall column at lag 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InsufficientDataError, NonFiniteError
from .frame import TimeSeriesFrame


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
        for name, arr in (("Y", Y), ("Z", Z), ("row_dates", dates)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
        for name in ("Y", "Z", "row_dates"):
            arr = np.ascontiguousarray(getattr(self, name)[rows])
            arr.setflags(write=False)
            object.__setattr__(new, name, arr)
        for name in ("col_labels", "target_names", "exog_names", "p", "s", "mode"):
            object.__setattr__(new, name, getattr(self, name))
        return new


def regressor_labels(target_names, exog_names, p: int, s: int) -> tuple[str, ...]:
    """Lag-major regressor labels: Y blocks by lag, then exogenous by lag."""
    labels = [f"Y{i + 1}L{lag}" for lag in range(1, p + 1)
              for i in range(len(target_names))]
    labels += [f"{name}{lag}" for lag in range(1, s + 1) for name in exog_names]
    return tuple(labels)


def _lag_indices(dates: np.ndarray, lag: int, resolution: str):
    """Positions of each date's lag-`lag` predecessor, with a validity mask."""
    if resolution == "daily":
        wanted = dates - np.timedelta64(lag, "D")
        pool = dates
    else:
        pool = dates.astype("datetime64[M]")
        wanted = pool - lag
    idx = np.searchsorted(pool, wanted)
    idx_c = np.minimum(idx, len(pool) - 1)
    valid = pool[idx_c] == wanted
    return idx_c, valid


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
        lags = [_lag_indices(frame.dates, lag, frame.resolution)
                for lag in range(1, max(p, s) + 1)]
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
        for name in ("z_mean", "z_sd", "y_mean", "constant"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name)))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def identity(cls, q: int, k: int) -> "ScalingInfo":
        """No-op scaling (used when standardization is disabled)."""
        return cls(z_mean=np.zeros(q), z_sd=np.ones(q), y_mean=np.zeros(k),
                   constant=np.zeros(q, dtype=bool), enabled=False)


def _standardize_arrays(design: DesignMatrix):
    """Scaled Z, centered Y and their ScalingInfo, statistics over every row."""
    # mean and ddof=1 standard deviation, spelled out as the operations
    # numpy's mean and std run (same bits), without their per-call overhead
    n = design.n_eff
    mu = design.Z.sum(axis=0) / n
    dev = design.Z - mu
    sd = np.sqrt((dev * dev).sum(axis=0) / (n - 1))
    constant = sd <= 1e-12 * np.maximum(1.0, np.abs(mu))
    sd_used = np.where(constant, 1.0, sd)
    y_mean = design.Y.sum(axis=0) / n
    info = ScalingInfo(z_mean=mu, z_sd=sd_used, y_mean=y_mean,
                       constant=constant, enabled=True)
    return dev / sd_used, design.Y - y_mean, info


def standardize(design: DesignMatrix):
    """Standardize a design; returns (scaled design, ScalingInfo).

    The statistics come from every row of ``design``; standardize
    ``design.take(rows)`` to keep other rows out of the scaling.
    """
    if design.n_eff < 2:
        raise InsufficientDataError(
            f"need >= 2 statistic rows to standardize; have {design.n_eff}")
    Z, Y, info = _standardize_arrays(design)
    scaled = DesignMatrix(
        Y=Y, Z=Z, row_dates=design.row_dates, col_labels=design.col_labels,
        target_names=design.target_names, exog_names=design.exog_names,
        p=design.p, s=design.s, mode=design.mode,
    )
    return scaled, info


def destandardize_coeffs(coeffs: np.ndarray, info: ScalingInfo,
                         intercept=0.0, equation: int = 0):
    """Map coefficients fit on the scaled system back to original units.

    For one equation with scaled coefficients b and scaled intercept a:
    raw_b = b / sd_z and raw_intercept = mean_y + a - sum_j raw_b_j * mean_z_j.
    Accepts a (q,) vector (``equation`` picks the target whose mean applies)
    or a (k, q) matrix with a (k,) intercept vector. The fitted residuals are
    identical under both parameterizations.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 1:
        raw = coeffs / info.z_sd
        raw_int = float(info.y_mean[equation] + intercept - raw @ info.z_mean)
        return raw, raw_int
    raw = coeffs / info.z_sd
    raw_int = info.y_mean + np.asarray(intercept, dtype=float) - raw @ info.z_mean
    return raw, raw_int


def lookahead_violations(design: DesignMatrix, frame: TimeSeriesFrame) -> int:
    """Recompute every regressor cell from the frame and count violations.

    A violation is a design cell whose source row is missing, is not strictly
    earlier than the design row, or holds a value that does not match the
    frame exactly. A design row whose own date is not in the frame counts all
    of its cells. Returns 0 for a clean design; used by leakage audits.

    Source rows are located independently of ``build_design``: by exact date
    lookup in the frame (calendar mode) or by position minus lag (positional
    mode), one whole-column pass per (lag, block).
    """
    dates = design.row_dates

    def locate(wanted):
        """Frame position of each wanted date, and whether it is there."""
        pos = np.searchsorted(frame.dates, wanted)
        found = pos < frame.n
        found[found] = frame.dates[pos[found]] == wanted[found]
        return pos, found

    row_pos, row_found = locate(dates)
    k, m, p = frame.k, frame.m, design.p
    entries = [(lag, frame.targets, k, (lag - 1) * k) for lag in range(1, p + 1)]
    entries += [(lag, frame.exog, m, p * k + (lag - 1) * m)
                for lag in range(1, design.s + 1)]
    bad = 0
    for lag, source, width, off in entries:
        if design.mode == "positional":
            src, ok = row_pos - lag, row_pos >= lag
        elif frame.resolution == "daily":
            src, ok = locate(dates - np.timedelta64(lag, "D"))
        else:
            months = dates.astype("datetime64[M]") - lag
            src, ok = locate(months.astype("datetime64[D]"))
        ok &= row_found
        ok[ok] = frame.dates[src[ok]] < dates[ok]
        cells = design.Z[ok, off: off + width]
        bad += width * int(np.count_nonzero(~ok)) \
            + int(np.count_nonzero(source[src[ok]] != cells))
    return bad
