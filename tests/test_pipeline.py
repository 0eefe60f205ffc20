"""Full-protocol orchestration: staging, ablation pairing, leakage audit."""

import dataclasses

import numpy as np
import pytest

from hydrovarx import (
    METRIC_ORDER,
    ModelSpec,
    SynthSpec,
    ablation_run,
    leakage_audit,
    preprocess,
    run_pipeline,
    simulate,
    standardize,
)
from hydrovarx.errors import ContractError, InsufficientDataError

from conftest import daily_dates, make_frame

SMALL_GRID = tuple(np.geomspace(0.5, 50.0, 6))


def _synth_frame(n=240, seed=3, noise=0.3):
    spec = SynthSpec(n=n, phi=np.array([0.5]),
                     beta=np.array([[[0.8]], [[0.0]]]),
                     noise_sd=noise, seed=seed)
    return simulate(spec)[0]


def test_report_is_internally_consistent():
    frame = _synth_frame()
    spec = ModelSpec(p=2, s=1, grid=SMALL_GRID)
    report = run_pipeline(frame, spec)

    design, split = report.design, report.split
    assert split.T == design.n_eff
    assert report.spec is spec and report.dropped == ()
    assert report.lambda_path.chosen_lambda in SMALL_GRID
    # forecast rows are exactly the held-out final third
    np.testing.assert_array_equal(report.forecast.dates,
                                  design.row_dates[split.T2:])
    assert len(report.metrics) == design.k
    assert set(report.model.support) <= set(design.col_labels)
    assert report.coefficients.labels == ("intercept",) + design.col_labels
    assert np.isfinite(report.regression.slope)


def test_metrics_match_direct_recomputation():
    from hydrovarx import full_report

    frame = _synth_frame(seed=8)
    report = run_pipeline(frame, ModelSpec(p=1, s=1, grid=SMALL_GRID))
    direct = full_report(report.forecast,
                         n_predictors=len(report.model.support), target=0)
    assert direct.values == report.metrics[0].values


def test_honest_run_audits_clean():
    frame = _synth_frame(seed=11)
    report = run_pipeline(frame, ModelSpec(p=2, s=1, grid=SMALL_GRID))
    counts = leakage_audit(report, frame)
    assert set(counts) == {"lookahead", "forecast_dates", "split_overlap",
                           "scaling"}
    assert all(v == 0 for v in counts.values())


def test_audit_catches_scaling_fit_on_test_rows():
    frame = _synth_frame(seed=13)
    report = run_pipeline(frame, ModelSpec(p=2, s=1, grid=SMALL_GRID))
    # forge a model whose scaling stats were taken from *all* rows,
    # test segment included
    full_rows = report.design.take(slice(0, report.split.T))
    leaky = standardize(full_rows)[1]
    forged_model = dataclasses.replace(report.model, scaling=leaky)
    forged = dataclasses.replace(report, model=forged_model)
    counts = leakage_audit(forged, frame)
    assert counts["scaling"] > 0


@pytest.mark.parametrize("field", ["z_mean", "z_sd", "y_mean"])
def test_audit_counts_one_nudged_scaling_statistic(field):
    frame = _synth_frame(seed=14)
    report = run_pipeline(frame, ModelSpec(p=2, s=1, grid=SMALL_GRID))
    values = getattr(report.model.scaling, field).copy()
    values[-1] = np.nextafter(values[-1], np.inf)   # one ulp off
    scaling = dataclasses.replace(report.model.scaling, **{field: values})
    forged = dataclasses.replace(
        report, model=dataclasses.replace(report.model, scaling=scaling))
    counts = leakage_audit(forged, frame)
    assert counts["scaling"] == 1
    assert counts["lookahead"] == 0


def test_audit_counts_one_corrupted_design_cell():
    frame = _synth_frame(seed=15)
    report = run_pipeline(frame, ModelSpec(p=2, s=1, grid=SMALL_GRID))
    Z = report.design.Z.copy()
    Z[7, -1] = frame.exog[-1, 0]      # an x-lag cell fed from the last day
    forged = dataclasses.replace(
        report, design=dataclasses.replace(report.design, Z=Z))
    assert leakage_audit(forged, frame)["lookahead"] == 1


def test_unstandardized_run_audits_clean():
    frame = _synth_frame(seed=17)
    report = run_pipeline(frame, ModelSpec(p=1, s=1, grid=SMALL_GRID,
                                           standardize=False))
    assert not report.model.scaling.enabled
    assert leakage_audit(report, frame)["scaling"] == 0


def test_ablation_with_nothing_dropped_is_bitwise_identical():
    frame = _synth_frame(seed=21)
    result = ablation_run(frame, ModelSpec(p=1, s=1, grid=SMALL_GRID), ())
    np.testing.assert_array_equal(result.full.model.coeffs,
                                  result.reduced.model.coeffs)
    assert result.full.metrics[0].values == result.reduced.metrics[0].values
    assert result.dropped == ()


def test_ablation_delta_rows_arithmetic():
    frame = _synth_frame(seed=23, noise=0.15)
    result = ablation_run(frame, ModelSpec(p=1, s=1, grid=SMALL_GRID),
                          ("x1",))
    rows = result.delta_rows()
    assert [r[0] for r in rows] == list(METRIC_ORDER)
    for key, fv, rv, dv in rows:
        assert dv == rv - fv or (np.isnan(dv) and (np.isnan(fv) or np.isnan(rv)))
    # x1 carries real signal, so removing it must cost accuracy
    by_key = {r[0]: r for r in rows}
    assert by_key["NSE"][2] < by_key["NSE"][1]


def test_ablation_keeps_rows_aligned():
    spec = SynthSpec(n=240, phi=np.array([0.5]),
                     beta=np.array([[[0.8, 0.2]]]), noise_sd=0.3, seed=29)
    frame = simulate(spec)[0]
    result = ablation_run(frame, ModelSpec(p=2, s=2, grid=SMALL_GRID),
                          ("x2",))
    np.testing.assert_array_equal(result.full.design.row_dates,
                                  result.reduced.design.row_dates)
    assert "x2" not in {lab[:2] for lab in result.reduced.design.col_labels}


def test_preprocess_drops_then_filters():
    rng = np.random.default_rng(0)
    frame = make_frame(rng.normal(size=(400, 1)),
                       exog=rng.normal(size=(400, 2)),
                       exog_names=("Rainfall", "Temp"))
    spec = ModelSpec(season="growing")
    out = preprocess(frame, spec, dropped=("Temp",))
    assert out.exog_names == ("Rainfall",)
    months = out.dates.astype("datetime64[M]").astype(int) % 12 + 1
    assert set(months.tolist()) <= {4, 5, 6, 7, 8, 9, 10}


def test_preprocess_monthly_sums_rainfall_by_default():
    dates = daily_dates(60, start="2016-01-01")
    wtd = np.full((60, 1), -50.0)
    rain = np.ones((60, 2))
    frame = make_frame(wtd, exog=rain, start="2016-01-01",
                       exog_names=("Rainfall", "Temp"))
    out = preprocess(frame, ModelSpec(aggregate="monthly"))
    assert out.n == 2
    rain_col = out.exog[:, out.exog_names.index("Rainfall")]
    np.testing.assert_allclose(rain_col, [31.0, 29.0])      # summed
    temp_col = out.exog[:, out.exog_names.index("Temp")]
    np.testing.assert_allclose(temp_col, [1.0, 1.0])        # averaged
    np.testing.assert_allclose(out.targets[:, 0], [-50.0, -50.0])
    assert dates[0] == out.dates[0]


def test_preprocess_explicit_sum_columns_override():
    wtd = np.full((60, 1), -50.0)
    rain = np.ones((60, 1))
    frame = make_frame(wtd, exog=rain, start="2016-01-01",
                       exog_names=("Rainfall",))
    spec = ModelSpec(aggregate="monthly", sum_columns=())
    out = preprocess(frame, spec)
    np.testing.assert_allclose(out.exog[:, 0], [1.0, 1.0])  # averaged now


def test_errors_carry_the_stage_name():
    rng = np.random.default_rng(1)
    # 4 rows leave no row with all p=4 lags: fails while building the design
    with pytest.raises(InsufficientDataError) as exc_info:
        run_pipeline(make_frame(rng.normal(size=(4, 1))), ModelSpec())
    assert exc_info.value.stage == "design"
    # 5 rows give exactly one usable row: the T/3 split is what rejects it
    with pytest.raises(InsufficientDataError) as exc_info:
        run_pipeline(make_frame(rng.normal(size=(5, 1))), ModelSpec())
    assert exc_info.value.stage == "split"


def test_spec_rejects_bad_fields():
    with pytest.raises(ContractError):
        ModelSpec(p=0)
    with pytest.raises(ContractError):
        ModelSpec(season="monsoon")
    with pytest.raises(ContractError):
        ModelSpec(aggregate="weekly")
    with pytest.raises(ContractError):
        ModelSpec(refit="sliding")
    with pytest.raises(ContractError):
        ModelSpec(refit_every=0)
    with pytest.raises(ContractError):
        ModelSpec(ci_multiplier=0.0)
    for grid in ((5.0, 1.0), np.array([10.0, 5.0])):  # tuple or ndarray
        with pytest.raises(ContractError):
            ModelSpec(grid=grid)
    with pytest.raises(ContractError):
        ModelSpec(alpha=1.5)
    for grid in ((-1.0, 1.0), (1.0, float("nan")), (1.0, float("inf"))):
        with pytest.raises(ContractError):
            ModelSpec(grid=grid)
