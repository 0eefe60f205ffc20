"""Goodness-of-fit metrics for forecast evaluation.

All 27 report keys, in canonical order::

    ME MAE MSE RMSE ubRMSE NRMSE% PBIAS% RSR rSD
    NSE NNSE mNSE rNSE wNSE d dr md rd cp
    r R2 adjR2 bR2 KGE KGElf KGEnp VE

Conventions: errors are sim - obs (positive ME = overprediction); standard
deviations are the sample kind (ddof=1); series are evaluated exactly as
given — depth series are typically negative and no metric silently flips or
clips them. A metric whose formula is undefined for the given data (zero
variance, zero totals, zeros in a denominator series...) is *flagged*: its
value is NaN and the report records the reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

METRIC_ORDER = (
    "ME", "MAE", "MSE", "RMSE", "ubRMSE", "NRMSE%", "PBIAS%", "RSR", "rSD",
    "NSE", "NNSE", "mNSE", "rNSE", "wNSE", "d", "dr", "md", "rd", "cp",
    "r", "R2", "adjR2", "bR2", "KGE", "KGElf", "KGEnp", "VE",
)


@dataclass(frozen=True)
class MetricsReport:
    """Metric name -> value, plus a flag map for undefined metrics.

    Flagged metrics hold NaN in ``values`` and a human-readable reason in
    ``flags``. Reports merge with ``|`` and serialize in canonical order.
    """

    values: dict[str, float] = field(default_factory=dict)
    flags: dict[str, str] = field(default_factory=dict)

    def __or__(self, other: "MetricsReport") -> "MetricsReport":
        return MetricsReport(values={**self.values, **other.values},
                             flags={**self.flags, **other.flags})

    def to_rows(self) -> list[tuple[str, float, str]]:
        """(metric, value, flag) rows in canonical table order."""
        return [(k, self.values[k], self.flags.get(k, ""))
                for k in METRIC_ORDER if k in self.values]


def _pair(obs, sim, min_n: int = 2):
    obs = np.asarray(obs, dtype=float).ravel()
    sim = np.asarray(sim, dtype=float).ravel()
    if obs.shape != sim.shape:
        raise ContractError(f"length mismatch: obs {obs.shape[0]}, sim {sim.shape[0]}")
    if obs.shape[0] < min_n:
        raise ContractError(f"need at least {min_n} points, got {obs.shape[0]}")
    if not (np.all(np.isfinite(obs)) and np.all(np.isfinite(sim))):
        raise ContractError("series contain missing or non-finite values")
    return obs, sim


def _constant(x: np.ndarray) -> bool:
    # all values equal: deviations from a rounded mean need not be zero
    return bool(x.min() == x.max())


def _centered(x: np.ndarray) -> tuple[float, np.ndarray]:
    """The mean of x and x's deviations from it, exactly zero if x is constant."""
    mean = float(x[0] if _constant(x) else x.mean())
    return mean, x - mean


def _sd(x: np.ndarray) -> float:
    return 0.0 if _constant(x) else float(np.std(x, ddof=1))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their ranks.

    Each tie group's rank is first + 1 + (count - 1) / 2, which does not
    depend on how the sort orders equal values.
    """
    order = np.argsort(x)
    y = x[order]
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    counts = np.diff(np.r_[starts, len(y)])
    ranks = np.empty(len(y))
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


class _Report:
    """Mutable builder so metric code reads as `put`/`flag` one-liners."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.flags: dict[str, str] = {}

    def put(self, key: str, value: float) -> None:
        self.values[key] = float(value)

    def flag(self, key: str, reason: str) -> None:
        self.values[key] = math.nan
        self.flags[key] = reason

    def done(self) -> MetricsReport:
        return MetricsReport(values=self.values, flags=self.flags)


def error_metrics(obs, sim) -> MetricsReport:
    """Bias and error magnitude: ME, MAE, MSE, RMSE, ubRMSE, NRMSE%, PBIAS%, RSR, rSD.

    ubRMSE = sqrt(MSE - ME^2) isolates random error from systematic bias;
    NRMSE% and RSR normalize RMSE by the sample sd of the observations.
    """
    obs, sim = _pair(obs, sim)
    e = sim - obs
    me = float(e.mean())
    mse = float((e * e).mean())
    rmse = math.sqrt(mse)
    r = _Report()
    r.put("ME", me)
    r.put("MAE", float(np.abs(e).mean()))
    r.put("MSE", mse)
    r.put("RMSE", rmse)
    r.put("ubRMSE", math.sqrt(max(mse - me * me, 0.0)))
    sd_obs = _sd(obs)
    if sd_obs > 0:
        r.put("NRMSE%", 100.0 * rmse / sd_obs)
        r.put("RSR", rmse / sd_obs)
        r.put("rSD", _sd(sim) / sd_obs)
    else:
        for key in ("NRMSE%", "RSR", "rSD"):
            r.flag(key, "sd(obs) = 0")
    total = float(obs.sum())
    if total != 0.0:
        r.put("PBIAS%", 100.0 * float(e.sum()) / total)
    else:
        r.flag("PBIAS%", "sum(obs) = 0")
    return r.done()


def efficiency_metrics(obs, sim) -> MetricsReport:
    """Efficiency and agreement family: NSE variants, Willmott indices, cp, VE.

    NSE = 1 - sum((sim-obs)^2) / sum((obs-mean)^2); NNSE = 1/(2-NSE) maps it
    to (0, 1]. The modified forms (mNSE, md) use absolute deviations; the
    relative forms (rNSE, rd) use observation-relative residuals and are
    undefined when any observation or the observed mean is zero. cp compares
    against the lag-1 persistence forecast. VE = 1 - sum|sim-obs| / sum(obs).
    """
    obs, sim = _pair(obs, sim)
    e = sim - obs
    obar, dev = _centered(obs)
    sse = float(e @ e)
    sst = float(dev @ dev)
    r = _Report()

    if sst > 0:
        nse = 1.0 - sse / sst
        r.put("NSE", nse)
        r.put("NNSE", 1.0 / (2.0 - nse))
    else:
        r.flag("NSE", "constant observations")
        r.flag("NNSE", "constant observations")

    abs_dev = float(np.abs(dev).sum())
    if abs_dev > 0:
        r.put("mNSE", 1.0 - float(np.abs(e).sum()) / abs_dev)
    else:
        r.flag("mNSE", "constant observations")

    if np.any(obs == 0.0) or obar == 0.0:
        r.flag("rNSE", "zero observation under relative residuals")
        r.flag("rd", "zero observation under relative residuals")
    else:
        rel_den = float(np.sum((dev / obar) ** 2))
        if rel_den > 0:
            r.put("rNSE", 1.0 - float(np.sum((e / obs) ** 2)) / rel_den)
        else:
            r.flag("rNSE", "constant observations")
        rd_den = float(np.sum(((np.abs(sim - obar) + np.abs(dev)) / obar) ** 2))
        if rd_den > 0:
            r.put("rd", 1.0 - float(np.sum((e / obs) ** 2)) / rd_den)
        else:
            r.flag("rd", "degenerate agreement denominator")

    w_den = float(np.sum(obs * dev * dev))
    if w_den != 0.0:
        r.put("wNSE", 1.0 - float(np.sum(obs * e * e)) / w_den)
    else:
        r.flag("wNSE", "zero weighted variance")

    d_den = float(np.sum((np.abs(sim - obar) + np.abs(dev)) ** 2))
    if d_den > 0:
        r.put("d", 1.0 - sse / d_den)
    else:
        r.flag("d", "degenerate agreement denominator")

    md_den = float(np.sum(np.abs(sim - obar) + np.abs(dev)))
    if md_den > 0:
        r.put("md", 1.0 - float(np.abs(e).sum()) / md_den)
    else:
        r.flag("md", "degenerate agreement denominator")

    # refined index: dr = 1 - A/B when A <= B else B/A - 1, with B = 2*sum|dev|
    A = float(np.abs(e).sum())
    B = 2.0 * abs_dev
    if B > 0:
        r.put("dr", 1.0 - A / B if A <= B else B / A - 1.0)
    elif A == 0.0:
        r.put("dr", 1.0)
    else:
        r.flag("dr", "constant observations")

    if len(obs) < 3:
        r.flag("cp", "need at least 3 points")
    else:
        cp_den = float(np.sum(np.diff(obs) ** 2))
        if cp_den > 0:
            r.put("cp", 1.0 - float(np.sum(e[1:] ** 2)) / cp_den)
        else:
            r.flag("cp", "zero persistence denominator")

    total = float(obs.sum())
    if total != 0.0:
        r.put("VE", 1.0 - float(np.abs(e).sum()) / total)
    else:
        r.flag("VE", "sum(obs) = 0")
    return r.done()


def correlation_metrics(obs, sim, n_predictors: int = 1) -> MetricsReport:
    """Pearson r, R2 (the 1 - SSE/SST definition), adjusted R2, and bR2.

    R2 here is one minus the ratio of squared prediction error to observed
    variance — identical to NSE, and different from r^2 whenever the fit is
    biased. bR2 = |b| * r^2 weights r^2 by the OLS slope b of sim on obs.
    """
    obs, sim = _pair(obs, sim)
    if n_predictors < 0:
        raise ContractError("n_predictors must be >= 0")
    n = len(obs)
    _, dev_o = _centered(obs)
    _, dev_s = _centered(sim)
    sso = float(dev_o @ dev_o)
    sss = float(dev_s @ dev_s)
    r = _Report()

    if sso > 0 and sss > 0:
        pearson = float((dev_o @ dev_s) / math.sqrt(sso * sss))
        r.put("r", pearson)
        slope = float((dev_o @ dev_s) / sso)
        r.put("bR2", abs(slope) * pearson * pearson)
    else:
        reason = "constant simulations" if sso > 0 else "constant observations"
        r.flag("r", reason)
        r.flag("bR2", reason)

    if sso > 0:
        e = sim - obs
        r2 = 1.0 - float(e @ e) / sso
        r.put("R2", r2)
        if n - n_predictors - 1 > 0:
            r.put("adjR2", 1.0 - (1.0 - r2) * (n - 1) / (n - n_predictors - 1))
        else:
            r.flag("adjR2", f"n = {n} too small for {n_predictors} predictors")
    else:
        r.flag("R2", "constant observations")
        r.flag("adjR2", "constant observations")
    return r.done()


def _kge_terms(obs, sim):
    """(KGE value, reason) for the 2009 sd-ratio form; reason is None if defined."""
    if obs.mean() == 0.0 or sim.mean() == 0.0:
        return math.nan, "zero mean"
    sd_o, sd_s = _sd(obs), _sd(sim)
    if sd_o == 0.0 or sd_s == 0.0:
        return math.nan, "zero variance"
    dev_o = obs - obs.mean()
    dev_s = sim - sim.mean()
    pearson = float((dev_o @ dev_s)
                    / math.sqrt(float(dev_o @ dev_o) * float(dev_s @ dev_s)))
    alpha = sd_s / sd_o
    beta = float(sim.mean() / obs.mean())
    return 1.0 - math.sqrt((pearson - 1) ** 2 + (alpha - 1) ** 2 + (beta - 1) ** 2), None


def kge_metrics(obs, sim) -> MetricsReport:
    """Kling-Gupta efficiency: KGE (2009), low-flow KGElf, non-parametric KGEnp.

    KGElf applies KGE to 1/(x + eps) with eps = mean(obs)/100, stressing low
    values; it is flagged whenever the transform hits a non-positive value
    (the usual case for negative-valued depth series). KGEnp replaces r by
    Spearman's rho and the sd ratio by the overlap of normalized sorted
    series; rho is Pearson's r of the average ranks (tied values share
    their mean rank), computed without scipy.
    """
    obs, sim = _pair(obs, sim)
    r = _Report()

    kge, reason = _kge_terms(obs, sim)
    if reason is None:
        r.put("KGE", kge)
    else:
        r.flag("KGE", reason)

    eps = float(obs.mean()) / 100.0
    to, ts = obs + eps, sim + eps
    if np.any(to <= 0.0) or np.any(ts <= 0.0):
        r.flag("KGElf", "non-positive values under low-flow transform")
    else:
        kge_lf, reason = _kge_terms(1.0 / to, 1.0 / ts)
        if reason is None:
            r.put("KGElf", kge_lf)
        else:
            r.flag("KGElf", f"transformed series: {reason}")

    if obs.mean() == 0.0 or sim.mean() == 0.0:
        r.flag("KGEnp", "zero mean")
    elif _constant(obs) or _constant(sim):
        r.flag("KGEnp", "constant series")
    else:
        rank_o = _average_ranks(obs)
        rank_s = _average_ranks(sim)
        dev_o = rank_o - rank_o.mean()
        dev_s = rank_s - rank_s.mean()
        rho = float((dev_o @ dev_s)
                    / math.sqrt(float(dev_o @ dev_o) * float(dev_s @ dev_s)))
        n = len(obs)
        fdc_o = np.sort(obs) / (n * obs.mean())
        fdc_s = np.sort(sim) / (n * sim.mean())
        alpha_np = 1.0 - 0.5 * float(np.abs(fdc_s - fdc_o).sum())
        beta = float(sim.mean() / obs.mean())
        r.put("KGEnp", 1.0 - math.sqrt((rho - 1) ** 2 + (alpha_np - 1) ** 2
                                       + (beta - 1) ** 2))
    return r.done()


def full_report(pair, n_predictors: int = 1) -> MetricsReport:
    """All 27 metrics for an (obs, sim) pair of arrays.

    Every key is present; undefined ones carry flags.
    """
    obs, sim = pair
    report = (error_metrics(obs, sim)
              | efficiency_metrics(obs, sim)
              | correlation_metrics(obs, sim, n_predictors)
              | kge_metrics(obs, sim))
    missing = [k for k in METRIC_ORDER if k not in report.values]
    if missing:  # defensive: canonical order and producers must stay in sync
        raise ContractError(f"metrics missing from report: {missing}")
    return report
