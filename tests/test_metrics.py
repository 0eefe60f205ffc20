"""Goodness-of-fit metric tests: frozen fixtures, identities, flags, bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from hydrovarx import METRIC_ORDER, full_report
from hydrovarx.errors import ContractError
from hydrovarx.metrics import (
    OUT_OF_RANGE,
    MetricsReport,
    _Report,
    _average_ranks,
    _centered,
    _constant,
    _pair,
    _pearson,
    _sd,
)

OBS = np.array([1.0, 2.0, 3.0])
SIM_CONST = np.array([2.0, 2.0, 2.0])
SIM_HALF = np.array([1.5, 2.0, 2.5])

# Hand-derived values for obs=[1,2,3], sim=[2,2,2]. Correlation-family
# metrics are undefined there (constant simulation) and must be flagged.
FIXTURE_CONST = {
    "ME": 0.0,
    "MAE": 2.0 / 3.0,
    "MSE": 2.0 / 3.0,
    "RMSE": math.sqrt(2.0 / 3.0),        # 0.816497
    "ubRMSE": math.sqrt(2.0 / 3.0),
    "NRMSE%": 100.0 * math.sqrt(2.0 / 3.0),
    "PBIAS%": 0.0,
    "RSR": math.sqrt(2.0 / 3.0),
    "rSD": 0.0,
    "NSE": 0.0,
    "NNSE": 0.5,
    "mNSE": 0.0,
    "rNSE": -11.0 / 9.0,
    "wNSE": 0.0,
    "d": 0.0,
    "dr": 0.5,
    "md": 0.0,
    "rd": -11.0 / 9.0,
    "cp": 0.5,
    "R2": 0.0,
    "adjR2": -1.0,
    "VE": 2.0 / 3.0,
}
FLAGGED_CONST = ("r", "bR2", "KGE", "KGElf", "KGEnp")

# Hand-derived values for obs=[1,2,3], sim=[1.5,2.0,2.5] (perfectly
# correlated, half the amplitude). KGElf frozen from an exact-rational
# evaluation of KGE on 1/(x + mean(obs)/100).
FIXTURE_HALF = {
    "ME": 0.0,
    "MAE": 1.0 / 3.0,
    "MSE": 1.0 / 6.0,
    "RMSE": math.sqrt(1.0 / 6.0),        # 0.408248
    "ubRMSE": math.sqrt(1.0 / 6.0),
    "NRMSE%": 100.0 * math.sqrt(1.0 / 6.0),
    "PBIAS%": 0.0,
    "RSR": math.sqrt(1.0 / 6.0),
    "rSD": 0.5,
    "NSE": 0.75,
    "NNSE": 0.8,
    "mNSE": 0.5,
    "rNSE": 4.0 / 9.0,
    "wNSE": 0.75,
    "d": 8.0 / 9.0,
    "dr": 0.75,
    "md": 2.0 / 3.0,
    "rd": 61.0 / 81.0,
    "cp": 0.875,
    "r": 1.0,
    "R2": 0.75,
    "adjR2": 0.5,
    "bR2": 0.5,
    "KGE": 0.5,
    "KGElf": 0.374118892891430,
    "KGEnp": 11.0 / 12.0,
    "VE": 5.0 / 6.0,
}


def test_metric_order_has_27_unique_keys():
    assert len(METRIC_ORDER) == 27
    assert len(set(METRIC_ORDER)) == 27


def test_fixture_constant_simulation():
    rep = full_report((OBS, SIM_CONST), n_predictors=1)
    for key, want in FIXTURE_CONST.items():
        np.testing.assert_allclose(rep.values[key], want, atol=1e-12,
                                   err_msg=key)
        assert not rep.flags.get(key), key
    for key in FLAGGED_CONST:
        assert rep.flags[key], key
        assert math.isnan(rep.values[key]), key


# a flat water table at -41.7, which has no exact binary form: the mean of
# its 100 copies rounds, so deviations from that mean are not zero
FLAT = np.full(100, -41.7)
VARYING = -41.7 + np.sin(np.arange(100) / 5.0)


def test_flat_observations_are_constant_when_their_mean_rounds():
    rep = full_report((FLAT, VARYING))
    for key in ("NRMSE%", "RSR", "rSD", "NSE", "NNSE", "mNSE", "rNSE", "dr",
                "r", "bR2", "R2", "adjR2", "KGE", "KGEnp"):
        assert rep.flags[key] and math.isnan(rep.values[key]), key
    assert rep.flags["NSE"] == rep.flags["r"] == "constant observations"
    assert rep.flags["KGE"] == "zero variance"


def test_flat_simulations_are_constant_when_their_mean_rounds():
    rep = full_report((VARYING, FLAT))
    assert rep.flags["r"] == rep.flags["bR2"] == "constant simulations"
    assert rep.flags["KGE"] == "zero variance"
    assert rep.flags["KGEnp"] == "constant series"
    assert rep.values["rSD"] == 0.0


@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (0, 0)])
def test_flat_series_flag_alike_whether_or_not_their_mean_rounds(pair):
    # -41.5 is exact in binary, so its mean and deviations are too
    def flags(level):
        series = (np.full(100, level), level + np.sin(np.arange(100) / 5.0))
        return full_report((series[pair[0]], series[pair[1]])).flags
    assert flags(-41.7) == flags(-41.5)


def test_fixture_half_amplitude():
    rep = full_report((OBS, SIM_HALF), n_predictors=1)
    assert not any(rep.flags.values())
    for key, want in FIXTURE_HALF.items():
        np.testing.assert_allclose(rep.values[key], want, atol=1e-12,
                                   err_msg=key)


def test_report_covers_every_key():
    rep = full_report((OBS, SIM_HALF))
    assert set(rep.values) == set(METRIC_ORDER)
    rows = rep.to_rows()
    assert [row[0] for row in rows] == list(METRIC_ORDER)


def test_perfect_prediction():
    obs = np.array([3.0, -1.0, 4.0, 1.0, -5.0])
    rep = full_report((obs, obs.copy()))
    for key in ("NSE", "d", "dr", "md", "r", "R2", "KGE", "KGEnp", "VE",
                "NNSE", "mNSE", "cp"):
        np.testing.assert_allclose(rep.values[key], 1.0, atol=1e-12,
                                   err_msg=key)
    for key in ("ME", "MAE", "MSE", "RMSE", "ubRMSE", "PBIAS%", "RSR"):
        np.testing.assert_allclose(rep.values[key], 0.0, atol=1e-12,
                                   err_msg=key)


def test_identities_on_random_series():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        obs = rng.normal(rng.normal(0, 3), rng.uniform(0.5, 4), n)
        sim = obs + rng.normal(0, rng.uniform(0.1, 2), n)
        rep = full_report((obs, sim))
        v = rep.values
        assert abs(v["NRMSE%"] - 100.0 * v["RSR"]) < 1e-9
        assert abs(v["R2"] - v["NSE"]) < 1e-12
        assert abs(v["NNSE"] - 1.0 / (2.0 - v["NSE"])) < 1e-12
        assert abs(v["ubRMSE"] ** 2 + v["ME"] ** 2 - v["MSE"]) < 1e-10


def test_bounds_on_random_series():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        obs = rng.uniform(1.0, 10.0, n)   # positive: VE <= 1 only then
        sim = obs + rng.normal(0, 1.0, n)
        v = full_report((obs, sim)).values
        assert v["NSE"] <= 1.0 and v["R2"] <= 1.0
        assert 0.0 < v["NNSE"] <= 1.0
        assert 0.0 <= v["d"] <= 1.0 and 0.0 <= v["md"] <= 1.0
        assert -1.0 <= v["dr"] <= 1.0
        assert -1.0 <= v["r"] <= 1.0
        assert v["KGE"] <= 1.0 and v["KGEnp"] <= 1.0
        assert v["VE"] <= 1.0
        assert v["RMSE"] >= v["ubRMSE"] - 1e-12
        assert v["MAE"] <= v["RMSE"] + 1e-12


def test_error_metrics_sign_convention():
    # errors are sim - obs, so uniform overprediction gives positive ME
    # and positive PBIAS under this sign convention
    obs = np.array([1.0, 2.0, 3.0, 4.0])
    sim = obs + 1.0
    v = full_report((obs, sim)).values
    assert v["ME"] == 1.0
    assert v["PBIAS%"] == pytest.approx(100.0 * 4.0 / 10.0)


def test_r_translation_and_scale_invariance():
    rng = np.random.default_rng(3)
    obs = rng.normal(size=30)
    sim = rng.normal(size=30)
    r0 = full_report((obs, sim)).values["r"]
    r1 = full_report((obs * 3.0 - 7.0, sim * 0.5 + 2.0)).values["r"]
    np.testing.assert_allclose(r0, r1, atol=1e-12)


def test_adjusted_r2_depends_on_predictor_count():
    obs = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    sim = np.array([1.1, 2.2, 2.9, 4.0, 5.3, 5.8])
    r1 = full_report((obs, sim), n_predictors=1).values["adjR2"]
    r3 = full_report((obs, sim), n_predictors=3).values["adjR2"]
    assert r3 < r1


def test_zero_in_observations_flags_relative_metrics():
    obs = np.array([0.0, 1.0, 2.0])
    sim = np.array([0.1, 1.1, 1.9])
    rep = full_report((obs, sim))
    assert rep.flags["rNSE"]
    assert rep.flags["rd"]


def test_negative_values_flag_kgelf():
    obs = np.array([-50.0, -60.0, -55.0])
    sim = np.array([-52.0, -58.0, -56.0])
    rep = full_report((obs, sim))
    assert rep.flags["KGElf"]
    assert math.isnan(rep.values["KGElf"])
    assert not rep.flags.get("KGE")


def test_ve_can_exceed_one_for_negative_totals():
    # with sum(obs) < 0 the VE ratio flips sign, so values above 1 are valid
    obs = np.array([-10.0, -20.0, -30.0])
    sim = np.array([-11.0, -19.0, -31.0])
    v = full_report((obs, sim)).values["VE"]
    assert v > 1.0


def test_cp_needs_three_points():
    rep = full_report((np.array([1.0, 2.0]), np.array([1.0, 2.0])))
    assert rep.flags["cp"]


def test_length_mismatch_rejected():
    with pytest.raises(ContractError):
        full_report((np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0])))


def test_single_point_rejected():
    with pytest.raises(ContractError):
        full_report((np.array([1.0]), np.array([1.0])))


def test_nonfinite_rejected():
    with pytest.raises(ContractError):
        full_report((np.array([1.0, np.nan, 3.0]), np.array([1.0, 2.0, 3.0])))


# few distinct values force ties; 0.0 and -0.0 are one value
_TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, 7.0])
_ROUNDED = st.floats(-10, 10).map(lambda v: round(v, 1))
_VALUE = st.one_of(_TIED, _ROUNDED, st.floats(-1e6, 1e6))


@settings(max_examples=200, deadline=None)
@given(st.lists(_VALUE, min_size=2, max_size=300))
def test_average_ranks_equal_scipy_rankdata_to_the_bit(values):
    x = np.array(values)
    assert np.array_equal(_average_ranks(x).view(np.int64),
                          rankdata(x).view(np.int64))


@pytest.mark.parametrize("k", [-530, 600])
def test_pearson_is_unchanged_by_scales_near_the_float_range(k):
    # near 1e-160 the sums' product underflows to 0 and near 1e180 the sums
    # overflow, unless each series is scaled first
    rng = np.random.default_rng(21)
    x = rng.normal(size=40)
    y = x + rng.normal(size=40)
    dx, dy = x - x.mean(), y - y.mean()
    want = _pearson(dx, dy)
    assert 0.0 < want < 1.0
    assert _pearson(np.ldexp(dx, k), np.ldexp(dy, k)) == want


def test_kgenp_on_tied_series():
    # the value KGEnp gave when it ranked with scipy.stats.rankdata
    obs = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 5.0, 5.0, 6.0])
    sim = np.array([1.5, 2.0, 2.0, 2.0, 3.5, 3.0, 4.0, 4.0, 6.0, 5.5])
    assert full_report((obs, sim)).values["KGEnp"] == 0.9145380778350165


# --- oracle: the suite as four families, each validating its own pair ---------
# A copy of the families that full_report merged before it became the one
# implementation, changed in three places: a KGE term whose square
# overflows gives -inf (``_reference_distance``), where it raised
# OverflowError; Pearson's r scales each series' deviations by a power of
# two first (``_reference_pearson``), which changes no bit unless a sum of
# squares would leave the float range; and a metric that needs a sum
# outside the float range (``_reference_lost``) is flagged OUT_OF_RANGE,
# and r is undefined only for a constant series.


def _reference_distance(r, alpha, beta):
    try:
        return 1.0 - math.sqrt((r - 1) ** 2 + (alpha - 1) ** 2 + (beta - 1) ** 2)
    except OverflowError:
        return -math.inf


def _reference_pearson(dev_o, dev_s):
    def scaled(dev):
        e = math.frexp(float(np.abs(dev).max()))[1]
        return np.array([math.ldexp(v, -e) for v in dev.tolist()])

    dev_o, dev_s = scaled(dev_o), scaled(dev_s)
    return float((dev_o @ dev_s)
                 / math.sqrt(float(dev_o @ dev_o) * float(dev_s @ dev_s)))


def _reference_lost(total, *factors):
    """Whether the sum ``total`` of the products of the n entries of
    ``factors`` left the float range: it is not finite, or it is below n
    times the smallest normal float while a term with no zero factor is,
    too (underflow)."""
    total = float(total)
    low = np.finfo(float).tiny * len(factors[0])
    if not math.isfinite(total):
        return True
    if abs(total) >= low:
        return False
    for values in zip(*factors):
        term = math.prod(values)
        if all(v != 0.0 for v in values) and abs(term) < low:
            return True
    return False


def _reference_spread_lost(x):
    """Whether x's sample sd, or its sum of squared deviations, left the
    float range."""
    dev = _centered(x)[1]
    return not math.isfinite(_sd(x)) or _reference_lost(dev @ dev, dev, dev)


def _reference_flag_lost(r, lost):
    for key in lost:
        r.flag(key, OUT_OF_RANGE)
    return r.done()


def reference_error_metrics(obs, sim) -> MetricsReport:
    """Bias and error magnitude: ME, MAE, MSE, RMSE, ubRMSE, NRMSE%, PBIAS%, RSR, rSD.

    ubRMSE = sqrt(MSE - ME^2) isolates random error from systematic bias;
    NRMSE% and RSR normalize RMSE by the sample sd of the observations.
    """
    obs, sim = _pair(obs, sim)
    e = sim - obs
    me = float(e.mean())
    mse = float((e * e).mean())
    rmse = math.sqrt(mse)
    lost = set()
    if not math.isfinite(float(e.sum())):
        lost |= {"ME", "ubRMSE", "PBIAS%"}
    if not math.isfinite(float(np.abs(e).sum())):
        lost.add("MAE")
    if _reference_lost((e * e).sum(), e, e):
        lost |= {"MSE", "RMSE", "ubRMSE", "NRMSE%", "RSR"}
    if _reference_spread_lost(obs):
        lost |= {"NRMSE%", "RSR", "rSD"}
    if _reference_spread_lost(sim):
        lost.add("rSD")
    if not math.isfinite(float(obs.sum())):
        lost.add("PBIAS%")
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
    return _reference_flag_lost(r, lost)


def reference_efficiency_metrics(obs, sim) -> MetricsReport:
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
    agree = np.abs(sim - obar) + np.abs(dev)
    lost = set()
    if _reference_lost(sse, e, e):
        lost |= {"NSE", "NNSE", "d"}
    if _reference_spread_lost(obs):
        lost |= {"NSE", "NNSE"}
    if not math.isfinite(float(np.abs(e).sum())):
        lost |= {"mNSE", "md", "dr", "VE"}
    if not math.isfinite(float(np.abs(dev).sum())):
        lost |= {"mNSE", "dr"}
    if not math.isfinite(float(obs.sum())):
        lost.add("VE")
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
        rel, rel_dev, rel_agree = e / obs, dev / obar, agree / obar
        if _reference_lost(np.sum(rel ** 2), rel, rel):
            lost |= {"rNSE", "rd"}
        if _reference_lost(np.sum(rel_dev ** 2), rel_dev, rel_dev):
            lost.add("rNSE")
        if _reference_lost(np.sum(rel_agree ** 2), rel_agree, rel_agree):
            lost.add("rd")
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
    if (_reference_lost(w_den, obs, dev, dev)
            or _reference_lost(np.sum(obs * e * e), obs, e, e)):
        lost.add("wNSE")
    if w_den != 0.0:
        r.put("wNSE", 1.0 - float(np.sum(obs * e * e)) / w_den)
    else:
        r.flag("wNSE", "zero weighted variance")

    d_den = float(np.sum((np.abs(sim - obar) + np.abs(dev)) ** 2))
    if _reference_lost(d_den, agree, agree):
        lost.add("d")
    if d_den > 0:
        r.put("d", 1.0 - sse / d_den)
    else:
        r.flag("d", "degenerate agreement denominator")

    md_den = float(np.sum(np.abs(sim - obar) + np.abs(dev)))
    if not math.isfinite(md_den):
        lost.add("md")
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
        step = np.diff(obs)
        cp_den = float(np.sum(np.diff(obs) ** 2))
        if (_reference_lost(cp_den, step, step)
                or _reference_lost(np.sum(e[1:] ** 2), e[1:], e[1:])):
            lost.add("cp")
        if cp_den > 0:
            r.put("cp", 1.0 - float(np.sum(e[1:] ** 2)) / cp_den)
        else:
            r.flag("cp", "zero persistence denominator")

    total = float(obs.sum())
    if total != 0.0:
        r.put("VE", 1.0 - float(np.abs(e).sum()) / total)
    else:
        r.flag("VE", "sum(obs) = 0")
    return _reference_flag_lost(r, lost)


def reference_correlation_metrics(obs, sim, n_predictors: int = 1) -> MetricsReport:
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
    e = sim - obs
    lost = set()
    if _reference_spread_lost(obs):
        lost |= {"bR2", "R2", "adjR2"}
    if _reference_spread_lost(sim):
        lost.add("bR2")
    if _reference_lost(e @ e, e, e):
        lost |= {"R2", "adjR2"}
    r = _Report()

    flat_o, flat_s = np.all(obs == obs[0]), np.all(sim == sim[0])
    if not (flat_o or flat_s):
        if not (np.all(np.isfinite(dev_o)) and np.all(np.isfinite(dev_s))):
            lost.add("r")
        if _reference_lost(dev_o @ dev_s, dev_o, dev_s):
            lost.add("bR2")
        pearson = _reference_pearson(dev_o, dev_s)
        r.put("r", pearson)
        slope = float((dev_o @ dev_s) / sso)
        r.put("bR2", abs(slope) * pearson * pearson)
    else:
        reason = "constant observations" if flat_o else "constant simulations"
        r.flag("r", reason)
        r.flag("bR2", reason)

    if sso > 0:
        r2 = 1.0 - float(e @ e) / sso
        r.put("R2", r2)
        if n - n_predictors - 1 > 0:
            r.put("adjR2", 1.0 - (1.0 - r2) * (n - 1) / (n - n_predictors - 1))
        else:
            r.flag("adjR2", f"n = {n} too small for {n_predictors} predictors")
    else:
        r.flag("R2", "constant observations")
        r.flag("adjR2", "constant observations")
    return _reference_flag_lost(r, lost)


def _reference_kge_terms(obs, sim):
    """(KGE value, reason) for the 2009 sd-ratio form; reason is None if defined."""
    if obs.mean() == 0.0 or sim.mean() == 0.0:
        return math.nan, "zero mean"
    if _reference_spread_lost(obs) or _reference_spread_lost(sim):
        return math.nan, OUT_OF_RANGE
    sd_o, sd_s = _sd(obs), _sd(sim)
    if sd_o == 0.0 or sd_s == 0.0:
        return math.nan, "zero variance"
    dev_o = obs - obs.mean()
    dev_s = sim - sim.mean()
    pearson = _reference_pearson(dev_o, dev_s)
    alpha = sd_s / sd_o
    beta = float(sim.mean() / obs.mean())
    return _reference_distance(pearson, alpha, beta), None


def reference_kge_metrics(obs, sim) -> MetricsReport:
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

    kge, reason = _reference_kge_terms(obs, sim)
    if reason is None:
        r.put("KGE", kge)
    else:
        r.flag("KGE", reason)

    eps = float(obs.mean()) / 100.0
    to, ts = obs + eps, sim + eps
    if np.any(to <= 0.0) or np.any(ts <= 0.0):
        r.flag("KGElf", "non-positive values under low-flow transform")
    else:
        kge_lf, reason = _reference_kge_terms(1.0 / to, 1.0 / ts)
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
        rho = _reference_pearson(dev_o, dev_s)
        n = len(obs)
        fdc_o = np.sort(obs) / (n * obs.mean())
        fdc_s = np.sort(sim) / (n * sim.mean())
        alpha_np = 1.0 - 0.5 * float(np.abs(fdc_s - fdc_o).sum())
        beta = float(sim.mean() / obs.mean())
        r.put("KGEnp", _reference_distance(rho, alpha_np, beta))
        if not (math.isfinite(n * obs.mean()) and math.isfinite(n * sim.mean())):
            r.flag("KGEnp", OUT_OF_RANGE)
    return r.done()


def reference_full_report(pair, n_predictors=1):
    obs, sim = pair
    parts = (reference_error_metrics(obs, sim),
             reference_efficiency_metrics(obs, sim),
             reference_correlation_metrics(obs, sim, n_predictors),
             reference_kge_metrics(obs, sim))
    return MetricsReport(
        values={k: v for part in parts for k, v in part.values.items()},
        flags={k: v for part in parts for k, v in part.flags.items()})


def _bits(report):
    """A report's values as int64 bit patterns, every NaN as one pattern."""
    return {key: -1 if math.isnan(v) else int(np.float64(v).view(np.int64))
            for key, v in report.values.items()}


def _assert_same(got, want):
    assert _bits(got) == _bits(want)
    assert got.flags == want.flags


#: magnitudes whose sums of squares leave the float range: they overflow
#: near 1e200 and underflow near 1e-160
_SCALES = st.sampled_from([1.0, 1.0, 1e200, -3e199, 1e-160, 7e-162, 1e-300])


@st.composite
def _pairs(draw):
    obs = draw(st.lists(_VALUE, min_size=2, max_size=300))
    sim = draw(st.lists(_VALUE, min_size=len(obs), max_size=len(obs)))
    scale_o, scale_s = draw(_SCALES), draw(_SCALES)
    return np.array(obs) * scale_o, np.array(sim) * scale_s


@settings(max_examples=400, deadline=None)
@given(_pairs(), st.integers(0, 5))
def test_full_report_equals_the_reference_to_the_bit(pair, n_predictors):
    with np.errstate(all="ignore"):  # the reference warns where sums leave the range
        want = reference_full_report(pair, n_predictors)
    # full_report flags those sums instead of warning
    _assert_same(full_report(pair, n_predictors), want)


def test_full_report_rejects_a_negative_predictor_count():
    with pytest.raises(ContractError, match="n_predictors"):
        full_report((OBS, SIM_HALF), n_predictors=-1)


def test_sums_outside_the_float_range_flag_their_metrics():
    # near 1e200 the sums of squares overflow, near 1e-160 they underflow;
    # numpy's warnings would fail this test (warnings are errors)
    obs, sim = np.array([1.0, 2.0, 4.0]), np.array([1.5, 2.0, 3.5])
    want = full_report((obs, sim))
    for scale, lost in ((1e200, ("NSE", "bR2", "KGE", "MSE", "wNSE", "d", "cp")),
                        (1e-160, ("KGElf", "wNSE", "NSE", "MSE", "KGE"))):
        got = full_report((obs * scale, sim * scale))
        for key in lost:
            assert math.isnan(got.values[key])
            assert got.flags[key].endswith(OUT_OF_RANGE)
        # r, the ratios of linear sums and KGEnp need no sum of squares
        for key in ("r", "mNSE", "md", "dr", "VE", "PBIAS%", "rNSE", "rd", "KGEnp"):
            assert key not in got.flags
            assert got.values[key] == pytest.approx(want.values[key], rel=1e-12)
        assert -1.0 <= got.values["r"] <= 1.0
    # a subnormal ME^2 beside a normal MSE leaves ubRMSE exact to rounding
    got = full_report((np.array([1.0, 2.0, 0.0]), np.array([2.0, 1.0, 1e-200])))
    assert "ubRMSE" not in got.flags
    assert got.values["ubRMSE"] == math.sqrt(2.0 / 3.0)
    # a weighted variance that cancels to zero is still flagged as zero
    assert full_report((np.array([1.0, -1.0]), np.zeros(2))).flags["wNSE"] \
        == "zero weighted variance"


@pytest.mark.parametrize("obs, sim, lost, kept", [
    # e / obs overflows at a tiny observation: the relative SSE
    ([1e-160, 2, 3, 4], [1, 2.5, 2.5, 4.5], {"rNSE", "rd"}, {"MSE", "NSE", "d"}),
    # dev / mean overflows at a tiny mean: rNSE's denominator, and rd's
    ([1, -1, 1e-300], [1.5, -0.5, 1e-300], {"rNSE", "rd"}, {"MSE", "NSE", "d"}),
    # (|sim - mean| + |dev|) / mean overflows and dev / mean does not: rd's
    # denominator alone
    ([-1e152, 1e152, 1], [5e153, -5e153, 1], {"rd"}, {"rNSE", "MSE", "NSE", "d"}),
    # sum(e) overflows
    ([0, 0, 1], [1.5e308, 1.5e308, 1], {"ME", "ubRMSE", "PBIAS%"}, set()),
    # sum|e| overflows and sum(e) does not
    ([1, 2, 3], [1.5e308, -1.5e308, 1e308], {"MAE", "VE", "mNSE", "dr", "md"},
     {"ME"}),
    # sum(obs) overflows, and so does the mean; sim = obs
    ([1.5e308, 1.5e308, 1e308], None, {"PBIAS%", "VE", "KGEnp"},
     {"ME", "MAE", "MSE"}),
    # a deviation overflows: sum|dev|, and r's deviations
    ([1.7e308, -1.7e308, -1.7e308], None, {"mNSE", "dr", "r"}, {"ME", "MAE", "MSE"}),
    # sum(|sim - mean| + |dev|) overflows and sum|dev| does not
    ([-6e307, 6e307, 0], None, {"md", "d"}, {"mNSE", "dr", "MAE"}),
    # the terms of the co-moment dev @ dev_s underflow and cancel
    ([1, -1, 0, 0], [1e-308, 1e-308, 1, -1], {"bR2"}, {"r", "MSE", "NSE"}),
])
def test_each_checked_sum_flags_its_metrics(obs, sim, lost, kept):
    obs = np.array(obs, dtype=float)
    got = full_report((obs, obs if sim is None else np.array(sim, dtype=float)))
    for key in lost:
        assert math.isnan(got.values[key]), key
        assert got.flags[key] == OUT_OF_RANGE, key
    for key in kept:
        assert key not in got.flags and math.isfinite(got.values[key]), key


#: the power of two each metric scales by when both series scale by 2^k
_SCALE_POWER = {"ME": 1, "MAE": 1, "RMSE": 1, "ubRMSE": 1, "MSE": 2}
# values of at least 1e-6 in magnitude, so that no difference of them, and
# no mean, is subnormal at the scales drawn
_NORMAL = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.5, 7.0]), _ROUNDED,
                    st.floats(-1e6, 1e6).filter(lambda v: v == 0 or abs(v) >= 1e-6))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_NORMAL, _NORMAL), min_size=2, max_size=100),
       st.integers(-880, 990), st.integers(0, 3))
def test_metrics_scale_or_flag_their_range(rows, k, n_predictors):
    # scaling both series by 2^k is exact, and each metric is scale-free (or
    # scales by 2^k or 4^k): at any scale it must match its value at scale
    # 1 to rounding, or be flagged. A sum kept in range can still round
    # differently, as terms far below it underflow, but by no more than that
    obs, sim = np.array(rows).T
    base = full_report((obs, sim), n_predictors)
    got = full_report((np.ldexp(obs, k), np.ldexp(sim, k)), n_predictors)
    for key in METRIC_ORDER:
        if got.flags.get(key, "").endswith(OUT_OF_RANGE):
            # within about 1e+-30 of the drawn magnitudes no sum leaves it
            assert abs(k) > 100, key
            continue
        assert got.flags.get(key) == base.flags.get(key), key
        if key not in got.flags:
            value = math.ldexp(got.values[key], -_SCALE_POWER.get(key, 0) * k)
            want = base.values[key]
            assert value == want \
                or abs(value - want) <= 1e-12 * max(1.0, abs(want)), key
            if abs(k) <= 100:  # no term underflows: the bits scale exactly
                assert _bits(MetricsReport({key: value})) \
                    == _bits(MetricsReport({key: want})), key
