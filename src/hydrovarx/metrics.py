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
value is NaN and the report records the reason. So is a metric that needs
a sum outside the float range: one that overflows, or one whose terms
have lost digits to underflow (``_in_range``).
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
    ``flags``. Reports serialize in canonical order.
    """

    values: dict[str, float] = field(default_factory=dict)
    flags: dict[str, str] = field(default_factory=dict)

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


#: the smallest normal float
_TINY = np.finfo(float).tiny
#: the reason a metric is flagged when a sum it needs left the float range
OUT_OF_RANGE = "sum outside the float range"


def _in_range(total: float, *factors: np.ndarray) -> bool:
    """Whether ``total``, the sum of the products of the n entries of
    ``factors``, is within the float range: finite, and, below n times the
    smallest normal float in magnitude (where its mean is subnormal), with
    no term below that bound but a zero factor's; such a term can have lost
    digits to underflow. A small sum of larger terms is cancellation, and
    stays in range."""
    if not math.isfinite(total):
        return False
    low = _TINY * len(factors[0])
    if abs(total) >= low:
        return True
    terms, nonzero = factors[0], factors[0] != 0.0
    for f in factors[1:]:
        terms = terms * f
        nonzero &= f != 0.0
    return not (nonzero & (np.abs(terms) < low)).any()


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


def _pearson(dev_x: np.ndarray, dev_y: np.ndarray) -> float:
    """Pearson's r of two series, from their deviations about their means.
    Each is first scaled by a power of two to a largest magnitude in [0.5,
    1): that is exact, and keeps the sums within the float range."""
    dev_x, dev_y = (np.ldexp(d, -np.frexp(np.abs(d).max())[1])
                    for d in (dev_x, dev_y))
    return float((dev_x @ dev_y)
                 / math.sqrt(float(dev_x @ dev_x) * float(dev_y @ dev_y)))


def _kge(r: float, alpha: float, beta: float) -> float:
    """The KGE of Gupta et al. (2009): one less the distance of (r, alpha,
    beta) from the ideal point (1, 1, 1); -inf when a term is too large
    for its square to be a float."""
    try:
        return 1.0 - math.sqrt((r - 1) ** 2 + (alpha - 1) ** 2 + (beta - 1) ** 2)
    except OverflowError:
        return -math.inf


def _moments(x: np.ndarray) -> tuple[float, np.ndarray, float, float, bool]:
    """x's mean and deviations (as ``_centered``), its sample sd, the sum
    of its squared deviations, and whether that sum and the sd are within
    the float range (``_in_range``)."""
    mean, dev = _centered(x)
    sd = _sd(x)
    ss = float(dev @ dev)
    return mean, dev, sd, ss, math.isfinite(sd) and _in_range(ss, dev, dev)


def _kge_terms(mo, ms):
    """(KGE value, reason) for the 2009 sd-ratio form, from the ``_moments``
    of the observed and the simulated series; reason is None if defined."""
    (mean_o, dev_o, sd_o, _, ok_o), (mean_s, dev_s, sd_s, _, ok_s) = mo, ms
    if mean_o == 0.0 or mean_s == 0.0:
        return math.nan, "zero mean"
    if not (ok_o and ok_s):
        return math.nan, OUT_OF_RANGE
    if sd_o == 0.0 or sd_s == 0.0:
        return math.nan, "zero variance"
    return _kge(_pearson(dev_o, dev_s), sd_s / sd_o, mean_s / mean_o), None


# a sum outside the float range flags the metrics that need it, in place
# of numpy's warnings
@np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore")
def full_report(pair, n_predictors: int = 1) -> MetricsReport:
    """All 27 metrics for an (obs, sim) pair of arrays.

    Every key is present; undefined ones carry flags. With e = sim - obs
    and dev = obs - mean(obs): ubRMSE = sqrt(MSE - ME^2) is the error less
    its bias; NRMSE% and RSR divide RMSE by sd(obs), and rSD is the sd ratio.
    NSE = R2 = 1 - sum(e^2) / sum(dev^2), which is not r^2 when the fit is
    biased, and NNSE = 1/(2 - NSE). mNSE and md use absolute deviations;
    rNSE and rd divide by the observations, so a zero observation or mean
    flags them. dr is Willmott's refined index, cp scores against the lag-1
    persistence forecast, VE = 1 - sum|e| / sum(obs), and bR2 = |b| r^2
    with b the OLS slope of sim on obs. KGE (Gupta et al. 2009) combines r,
    the sd ratio and the mean ratio. KGElf applies it to 1/(x + eps) with
    eps = mean(obs)/100, and is flagged when that meets a non-positive value,
    as depth series below a datum do. KGEnp (Pool, Vis & Seibert 2018) puts
    Spearman's rho (r of the average ranks) and the overlap of the
    normalized sorted series in place of r and the sd ratio. A metric that
    needs a sum outside the float range is flagged ``OUT_OF_RANGE``.
    """
    obs, sim = _pair(*pair)
    if n_predictors < 0:
        raise ContractError("n_predictors must be >= 0")
    n = len(obs)
    e = sim - obs
    sum_e = float(e.sum())
    sum_abs_e = float(np.abs(e).sum())
    # MSE sums e^2 with numpy's pairwise sum and the SSE ratios with a dot
    # product; the two round differently, so each keeps its own
    sum_sq_e = float((e * e).sum())
    mse = sum_sq_e / n
    sse = float(e @ e)
    total = float(obs.sum())
    mo, ms = _moments(obs), _moments(sim)
    (obar, dev, sd_obs, sst, spread_o), (sbar, dev_s, sd_sim, sss, spread_s) = mo, ms
    abs_dev = np.abs(dev)
    sum_abs_dev = float(abs_dev.sum())
    agree = np.abs(sim - obar) + abs_dev
    r = _Report()
    lost = set()

    def need(ok, *keys):
        if not ok:
            lost.update(keys)

    need(math.isfinite(sum_e), "ME", "ubRMSE", "PBIAS%")
    need(math.isfinite(sum_abs_e), "MAE", "VE", "mNSE", "dr", "md")
    need(_in_range(sum_sq_e, e, e), "MSE", "RMSE", "ubRMSE", "NRMSE%", "RSR")
    need(_in_range(sse, e, e), "NSE", "NNSE", "R2", "adjR2", "d")
    need(math.isfinite(total), "PBIAS%", "VE")
    need(spread_o, "NRMSE%", "RSR", "rSD", "NSE", "NNSE", "R2", "adjR2", "bR2")
    need(spread_s, "rSD", "bR2")
    need(math.isfinite(sum_abs_dev), "mNSE", "dr")

    me = sum_e / n
    rmse = math.sqrt(mse)
    r.put("ME", me)
    r.put("MAE", sum_abs_e / n)
    r.put("MSE", mse)
    r.put("RMSE", rmse)
    r.put("ubRMSE", math.sqrt(max(mse - me * me, 0.0)))
    if sd_obs > 0:
        r.put("NRMSE%", 100.0 * rmse / sd_obs)
        r.put("RSR", rmse / sd_obs)
        r.put("rSD", sd_sim / sd_obs)
    else:
        for key in ("NRMSE%", "RSR", "rSD"):
            r.flag(key, "sd(obs) = 0")
    if total != 0.0:
        r.put("PBIAS%", 100.0 * sum_e / total)
        r.put("VE", 1.0 - sum_abs_e / total)
    else:
        r.flag("PBIAS%", "sum(obs) = 0")
        r.flag("VE", "sum(obs) = 0")

    if sst > 0:
        nse = 1.0 - sse / sst
        r.put("NSE", nse)
        r.put("NNSE", 1.0 / (2.0 - nse))
        r.put("R2", nse)
        if n - n_predictors - 1 > 0:
            r.put("adjR2", 1.0 - (1.0 - nse) * (n - 1) / (n - n_predictors - 1))
        else:
            r.flag("adjR2", f"n = {n} too small for {n_predictors} predictors")
    else:
        for key in ("NSE", "NNSE", "R2", "adjR2"):
            r.flag(key, "constant observations")
    if sum_abs_dev > 0:
        r.put("mNSE", 1.0 - sum_abs_e / sum_abs_dev)
    else:
        r.flag("mNSE", "constant observations")
    if np.any(obs == 0.0) or obar == 0.0:
        r.flag("rNSE", "zero observation under relative residuals")
        r.flag("rd", "zero observation under relative residuals")
    else:
        rel, rel_dev, rel_agree = e / obs, dev / obar, agree / obar
        rel_sse = float(np.sum(rel ** 2))
        rel_den = float(np.sum(rel_dev ** 2))
        rd_den = float(np.sum(rel_agree ** 2))
        need(_in_range(rel_sse, rel, rel), "rNSE", "rd")
        need(_in_range(rel_den, rel_dev, rel_dev), "rNSE")
        need(_in_range(rd_den, rel_agree, rel_agree), "rd")
        if rel_den > 0:
            r.put("rNSE", 1.0 - rel_sse / rel_den)
        else:
            r.flag("rNSE", "constant observations")
        if rd_den > 0:
            r.put("rd", 1.0 - rel_sse / rd_den)
        else:
            r.flag("rd", "degenerate agreement denominator")
    w_den = float(np.sum(obs * dev * dev))
    w_num = float(np.sum(obs * e * e))
    need(_in_range(w_den, obs, dev, dev) and _in_range(w_num, obs, e, e), "wNSE")
    if w_den != 0.0:
        r.put("wNSE", 1.0 - w_num / w_den)
    else:
        r.flag("wNSE", "zero weighted variance")
    d_den = float(np.sum(agree ** 2))
    need(_in_range(d_den, agree, agree), "d")
    if d_den > 0:
        r.put("d", 1.0 - sse / d_den)
    else:
        r.flag("d", "degenerate agreement denominator")
    # refined index: dr = 1 - A/B when A <= B else B/A - 1, with B = 2*sum|dev|
    B = 2.0 * sum_abs_dev
    if B > 0:
        r.put("dr", 1.0 - sum_abs_e / B if sum_abs_e <= B else B / sum_abs_e - 1.0)
    elif sum_abs_e == 0.0:
        r.put("dr", 1.0)
    else:
        r.flag("dr", "constant observations")
    md_den = float(np.sum(agree))
    need(math.isfinite(md_den), "md")
    if md_den > 0:
        r.put("md", 1.0 - sum_abs_e / md_den)
    else:
        r.flag("md", "degenerate agreement denominator")
    if n < 3:
        r.flag("cp", "need at least 3 points")
    else:
        step, e_next = np.diff(obs), e[1:]
        cp_den = float(np.sum(step ** 2))
        cp_num = float(np.sum(e_next ** 2))
        need(_in_range(cp_den, step, step) and _in_range(cp_num, e_next, e_next),
             "cp")
        if cp_den > 0:
            r.put("cp", 1.0 - cp_num / cp_den)
        else:
            r.flag("cp", "zero persistence denominator")

    # r scales the deviations first (_pearson): it needs them finite, but no
    # sum in range
    flat_o, flat_s = _constant(obs), _constant(sim)
    if not (flat_o or flat_s):
        pearson = _pearson(dev, dev_s)
        cov = dev @ dev_s
        need(np.isfinite(dev).all() and np.isfinite(dev_s).all(), "r")
        need(_in_range(float(cov), dev, dev_s), "bR2")
        r.put("r", pearson)
        # a numpy division: an sst lost to underflow is 0
        r.put("bR2", abs(float(cov / sst)) * pearson * pearson)
    else:
        reason = "constant observations" if flat_o else "constant simulations"
        r.flag("r", reason)
        r.flag("bR2", reason)

    kge, reason = _kge_terms(mo, ms)
    if reason is None:
        r.put("KGE", kge)
    else:
        r.flag("KGE", reason)
    # the plain mean: _centered takes a constant series' first value instead
    eps = float(obs.mean()) / 100.0
    to, ts = obs + eps, sim + eps
    if np.any(to <= 0.0) or np.any(ts <= 0.0):
        r.flag("KGElf", "non-positive values under low-flow transform")
    else:
        kge_lf, reason = _kge_terms(_moments(1.0 / to), _moments(1.0 / ts))
        if reason is None:
            r.put("KGElf", kge_lf)
        else:
            r.flag("KGElf", f"transformed series: {reason}")
    if obar == 0.0 or sbar == 0.0:
        r.flag("KGEnp", "zero mean")
    elif flat_o or flat_s:
        r.flag("KGEnp", "constant series")
    else:
        need(math.isfinite(n * obar) and math.isfinite(n * sbar), "KGEnp")
        rho = _pearson(_centered(_average_ranks(obs))[1],
                       _centered(_average_ranks(sim))[1])
        fdc_o = np.sort(obs) / (n * obar)
        fdc_s = np.sort(sim) / (n * sbar)
        alpha_np = 1.0 - 0.5 * float(np.abs(fdc_s - fdc_o).sum())
        r.put("KGEnp", _kge(rho, alpha_np, sbar / obar))
    for key in METRIC_ORDER:
        if key in lost:
            r.flag(key, OUT_OF_RANGE)

    report = r.done()
    missing = [k for k in METRIC_ORDER if k not in report.values]
    if missing:  # defensive: canonical order and producers must stay in sync
        raise ContractError(f"metrics missing from report: {missing}")
    return report
