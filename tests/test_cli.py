"""Command-line driver: artifacts, config layering, exit codes, reproducibility."""

import argparse
import dataclasses
import json
import warnings

import numpy as np
import pytest

import hydrovarx.cli
from hydrovarx.cli import (
    RunConfig,
    _parse_range,
    main,
    parse_artifact_header,
    parse_grid,
)
from hydrovarx.design import LagSpec, build_design, standardize
from hydrovarx.errors import ConfigError
from hydrovarx.forecast import rolling_forecast
from hydrovarx.frame import load_csv
from hydrovarx.metrics import METRIC_ORDER
from hydrovarx.pipeline import ModelSpec, preprocess
from hydrovarx.selection import SplitPlan, default_grid, select_order
from hydrovarx.solver import FittedModel

GRID = "0.5:50:6"


def _simulate(out, n):
    rc = main(["simulate", "--out", str(out), "--n", str(n), "--k", "1",
               "--m", "1", "--p", "1", "--s", "1", "--phi", "0.5",
               "--beta", "0.8", "--noise-sd", "0.3", "--seed", "7"])
    assert rc == 0
    return out / "synth.csv"


@pytest.fixture()
def synth_csv(tmp_path):
    return _simulate(tmp_path / "sim", 300)


@pytest.fixture()
def two_year_csv(tmp_path):
    # two growing seasons, so --season growing leaves a gap between them
    return _simulate(tmp_path / "sim2", 700)


def _fit(synth_csv, out, extra=()):
    return main(["fit", "--input", str(synth_csv), "--out", str(out),
                 "--target", "Y1", "--p", "2", "--s", "1", "--grid", GRID,
                 *extra])


def test_simulate_writes_data_and_truth(synth_csv):
    truth_path = synth_csv.parent / "truth.json"
    assert synth_csv.exists() and truth_path.exists()
    truth = json.loads(truth_path.read_text())["truth"]
    assert truth["support"] == ["Y1L1", "x11"]
    assert truth["seed"] == 7
    header = synth_csv.read_text().splitlines()[0]
    assert header == "Date,Y1,x1"


def _table(path):
    """An artifact's column row and data rows, split on commas."""
    return [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]


def test_fit_then_evaluate_roundtrip(synth_csv, tmp_path):
    fit_dir = tmp_path / "fit"
    assert _fit(synth_csv, fit_dir) == 0
    for name in ("model.json", "lambda_path.csv", "coefficients.csv",
                 "config.json"):
        assert (fit_dir / name).exists()
    model = FittedModel.from_dict(
        json.loads((fit_dir / "model.json").read_text())["model"])
    # intercept first, then one row per label, zero or not, each value exact
    rows = _table(fit_dir / "coefficients.csv")
    assert rows[0] == ["label", "coefficient", "standardized"]
    assert [r[0] for r in rows[1:]] == ["intercept", *model.col_labels]
    raw, scaled = np.array([[float(v) for v in r[1:]] for r in rows[1:]]).T
    np.testing.assert_array_equal(raw, np.hstack([model.nu, model.coeffs[0]]))
    np.testing.assert_array_equal(
        scaled, np.hstack([model.scaled_intercept, model.scaled_coeffs[0]]))

    eval_dir = tmp_path / "eval"
    rc = main(["evaluate", "--model", str(fit_dir / "model.json"),
               "--input", str(synth_csv), "--out", str(eval_dir),
               "--target", "Y1", "--grid", GRID])
    assert rc == 0
    for name in ("metrics.csv", "forecast.csv", "regression_line.json",
                 "config.json"):
        assert (eval_dir / name).exists()

    rows = _table(eval_dir / "metrics.csv")
    assert rows[0] == ["metric", "value", "flag"]
    table = {r[0]: r[1] for r in rows[1:]}
    assert set(table) == set(METRIC_ORDER)
    assert float(table["NSE"]) > 0.5  # strong AR+exog signal must be learnable

    design = build_design(preprocess(load_csv(synth_csv, ["Y1"]), ModelSpec()),
                          LagSpec(model.p, model.s, model.lag_mode))
    series = rolling_forecast(model, design, SplitPlan(design.n_eff))
    lines = (eval_dir / "forecast.csv").read_text().splitlines()
    assert lines[0].startswith("# hydrovarx-artifact-version: ")
    assert lines[1] == "# command: evaluate"
    assert lines[2].startswith("# config: ")
    assert lines[3] == "# multiplier=3"
    assert lines[4] == f"# se={series.se[0]:.10g}"
    assert lines[5] == "date,observed,predicted,lower,upper"
    assert len(lines) == 6 + series.n
    first = lines[6].split(",")
    assert first[0] == str(series.dates[0])
    np.testing.assert_allclose(float(first[2]), series.predicted[0, 0], rtol=1e-9)

    reg = json.loads((eval_dir / "regression_line.json").read_text())
    assert np.isfinite(reg["regression_line"]["slope"])


def test_artifact_headers_embed_resolved_config(synth_csv, tmp_path):
    fit_dir = tmp_path / "fit"
    _fit(synth_csv, fit_dir)
    for name in ("lambda_path.csv", "coefficients.csv"):
        cfg = parse_artifact_header(fit_dir / name)
        assert cfg["p"] == 2 and cfg["s"] == 1
        assert cfg["target"] == ["Y1"]
        assert cfg["grid"] == GRID
        assert cfg["input"] == str(synth_csv)
    doc = json.loads((fit_dir / "config.json").read_text())
    assert doc["command"] == "fit"
    assert doc["config"] == parse_artifact_header(fit_dir / "lambda_path.csv")


def test_reruns_are_byte_identical(synth_csv, tmp_path):
    fit_dir = tmp_path / "fit"
    names = ("model.json", "lambda_path.csv", "coefficients.csv", "config.json")
    _fit(synth_csv, fit_dir)
    first = {n: (fit_dir / n).read_bytes() for n in names}
    _fit(synth_csv, fit_dir)
    assert all((fit_dir / n).read_bytes() == first[n] for n in names)

    eval_dir = tmp_path / "eval"
    eval_args = ["evaluate", "--model", str(fit_dir / "model.json"),
                 "--input", str(synth_csv), "--out", str(eval_dir),
                 "--target", "Y1", "--grid", GRID]
    assert main(eval_args) == 0
    snap = {p.name: p.read_bytes() for p in eval_dir.iterdir()}
    assert main(eval_args) == 0
    assert {p.name: p.read_bytes() for p in eval_dir.iterdir()} == snap


def _stretch_stat_rows(model):
    # model.json no longer writes stat_rows; older files carry [0, n_rows]
    model["scaling"]["stat_rows"] = [0, model["n_rows"] + 1]


def _stretch_n_rows(model):
    model["n_rows"] += 1


@pytest.mark.parametrize("edit, field, code, where", [
    pytest.param(_stretch_stat_rows, "stat_rows", 3,
                 "setup: {path}: malformed model document",
                 id="_stretch_stat_rows-stat_rows"),
    pytest.param(_stretch_n_rows, "n_rows", 2, "evaluate: ",
                 id="_stretch_n_rows-n_rows")])
def test_evaluate_rejects_model_fit_on_test_rows(synth_csv, tmp_path, capsys,
                                                 edit, field, code, where):
    fit_dir = tmp_path / "fit"
    assert _fit(synth_csv, fit_dir) == 0
    path = fit_dir / "model.json"
    doc = json.loads(path.read_text())
    edit(doc["model"])          # now reaches one row into the test segment
    path.write_text(json.dumps(doc))
    eval_dir = tmp_path / "eval"
    rc = main(["evaluate", "--model", str(path), "--input", str(synth_csv),
               "--out", str(eval_dir), "--target", "Y1", "--grid", GRID])
    assert rc == code
    err = capsys.readouterr().err
    assert f"hydrovarx evaluate: {where.format(path=path)}" in err and field in err
    assert not eval_dir.exists()


def test_ablate_audits_the_reduced_run(synth_csv, tmp_path, capsys, monkeypatch):
    real = hydrovarx.cli.ablation_run

    def ablation_run(*args, **kwargs):
        # forge a reduced run whose scaling statistics saw the test rows
        result = real(*args, **kwargs)
        red = result.reduced
        model = dataclasses.replace(red.model,
                                    scaling=standardize(red.design)[1])
        return dataclasses.replace(
            result, reduced=dataclasses.replace(red, model=model))

    monkeypatch.setattr(hydrovarx.cli, "ablation_run", ablation_run)
    out = tmp_path / "abl"
    rc = main(["ablate", "--input", str(synth_csv), "--out", str(out),
               "--target", "Y1", "--p", "1", "--s", "1", "--grid", GRID,
               "--drop", "x1"])
    assert rc != 0
    err = capsys.readouterr().err
    assert "hydrovarx ablate: audit:" in err and "'scaling'" in err
    assert not (out / "metrics_reduced.csv").exists()


def _snapshot(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("extra, needle", [
    (["--grid", "1e4:1e6:3"], "is the largest grid value"),
    (["--grid", "0.5:50:6", "--max-iter", "3"],
     "final fit did not converge within max_iter=3 iterations"),
])
def test_fit_warns_on_edge_lambda_or_unconverged_fit(synth_csv, tmp_path, capsys,
                                                     monkeypatch, extra, needle):
    # p=6, s=4 over this grid picks an interior lambda and converges: silent
    args = ["fit", "--input", str(synth_csv), "--target", "Y1",
            "--p", "6", "--s", "4"]
    assert main([*args, "--grid", "0.5:50:6", "--out", str(tmp_path / "ok")]) == 0
    assert "warning" not in capsys.readouterr().err

    out = tmp_path / "fit"
    assert main([*args, *extra, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    unconverged = "--max-iter" in extra  # which stops lambda-path solves too
    assert err.count("hydrovarx fit: warning:") == 1 + unconverged and needle in err
    assert ("lambda-path solves did not converge within max_iter=3 iterations"
            in err) == unconverged
    warned = _snapshot(out)
    assert all(b"warning" not in blob for blob in warned.values())
    # the warning goes to stderr only: the artifacts are those of a silent run
    monkeypatch.setattr(hydrovarx.cli, "_warn_outcomes", lambda *a: None)
    assert main([*args, *extra, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert _snapshot(out) == warned


def test_intercept_only_model_gets_a_flagged_regression_line(synth_csv, tmp_path):
    # lambda = 1e6 at the grid's top edge leaves only the intercept, so the
    # test predictions are all equal and have no line
    args = ["--input", str(synth_csv), "--target", "Y1", "--p", "6", "--s", "4",
            "--grid", "1e4:1e6:3"]
    fit_dir = tmp_path / "fit"
    assert main(["fit", *args, "--out", str(fit_dir)]) == 0
    model = json.loads((fit_dir / "model.json").read_text())["model"]
    assert model["lambda"] == 1e6 and model["support"] == []
    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--model", str(fit_dir / "model.json"), *args,
                 "--out", str(eval_dir)]) == 0
    reg = json.loads((eval_dir / "regression_line.json").read_text())
    assert reg["regression_line"] == {"intercept": [None], "slope": [None]}


def test_ablate_warns_for_each_run(synth_csv, tmp_path, capsys, monkeypatch):
    out = tmp_path / "abl"
    args = ["ablate", "--input", str(synth_csv), "--out", str(out),
            "--target", "Y1", "--p", "1", "--s", "1", "--grid", "1:1000:4",
            "--max-iter", "1", "--drop", "x1"]
    assert main(args) == 0, capsys.readouterr().err
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 6
    assert all(line.startswith("hydrovarx ablate: warning:") for line in err)
    for i, run in ((0, "full"), (3, "reduced")):
        assert f"smallest grid value ({run} run)" in err[i]
        assert f"of 4 lambda-path solves did not converge within max_iter=1 " \
            f"iterations ({run} run)" in err[i + 1]
        assert f"final fit did not converge within max_iter=1 iterations ({run} run)" \
            in err[i + 2]
    warned = _snapshot(out)
    monkeypatch.setattr(hydrovarx.cli, "_warn_outcomes", lambda *a: None)
    assert main(args) == 0
    assert _snapshot(out) == warned


def test_config_errors_exit_2_before_reading_input(tmp_path, capsys):
    # input path does not exist, but the bad order must be caught first
    rc = main(["fit", "--input", str(tmp_path / "ghost.csv"),
               "--out", str(tmp_path / "o"), "--target", "Y", "--p", "0"])
    assert rc == 2
    assert "hydrovarx fit: setup:" in capsys.readouterr().err

    rc = main(["fit", "--input", str(tmp_path / "ghost.csv"),
               "--out", str(tmp_path / "o"), "--target", "Y",
               "--grid", "50:5:3"])
    assert rc == 2
    # a negative grid used to pass setup and fail only after loading data
    rc = main(["fit", "--input", str(tmp_path / "ghost.csv"),
               "--out", str(tmp_path / "o"), "--target", "Y",
               "--grid=-5:5:3:linear"])
    assert rc == 2
    assert "hydrovarx fit: setup:" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [{"target": 5}, {"p": 2.5}, {"p": True},
                                   {"tol": "x"}, {"standardize": "no"}],
                         ids=["target-5", "p-2.5", "p-true", "tol-x", "standardize-no"])
def test_config_file_value_of_wrong_type_exits_2(entry, tmp_path, capsys):
    # caught at setup, before the (missing) input is read
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "input": str(tmp_path / "ghost.csv"), "out": str(tmp_path / "o"),
        "target": ["Y"], "grid": GRID, **entry}))
    assert main(["fit", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "hydrovarx fit: setup:" in err
    assert f"config key {next(iter(entry))!r} must be" in err


def test_config_file_accepts_each_json_form(synth_csv, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "input": str(synth_csv), "out": str(tmp_path / "fit"), "target": "Y1",
        "exog": ["x1"], "sum_columns": None, "drop": [], "p": 2, "s": 1,
        "alpha": 1, "tol": 1e-7, "standardize": True, "grid": GRID}))
    assert main(["fit", "--config", str(cfg_path)]) == 0


@pytest.mark.parametrize("grid", ["-5:5:3:linear", "1:inf:3", "nan:1:1"])
def test_negative_or_non_finite_grid_is_a_config_error(grid):
    with pytest.raises(ConfigError):
        RunConfig(input="in.csv", out="o", target=("Y",), grid=grid)


@pytest.mark.parametrize("setting", [{"tol": -1.0}, {"max_iter": -1},
                                     {"ci_multiplier": float("nan")}])
def test_a_setting_the_solver_cannot_keep_is_a_config_error(setting):
    with pytest.raises(ConfigError):
        RunConfig(input="in.csv", out="o", target=("Y",), **setting)


def test_missing_input_exits_3(tmp_path, capsys):
    rc = main(["fit", "--input", str(tmp_path / "ghost.csv"),
               "--out", str(tmp_path / "o"), "--target", "Y", "--grid", GRID])
    assert rc == 3
    assert "io" in capsys.readouterr().err


def test_unknown_column_exits_3(synth_csv, tmp_path, capsys):
    rc = main(["fit", "--input", str(synth_csv), "--out", str(tmp_path / "o"),
               "--target", "NoSuch", "--grid", GRID])
    assert rc == 3
    assert "load" in capsys.readouterr().err


def test_target_named_twice_exits_2_and_writes_nothing(synth_csv, tmp_path,
                                                       capsys):
    out = tmp_path / "o"
    rc = main(["fit", "--input", str(synth_csv), "--out", str(out),
               "--target", "Y1,Y1", "--grid", GRID])
    assert rc == 2
    assert "columns ['Y1'] named twice" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_cell_exits_4(tmp_path):
    bad = tmp_path / "bad.csv"
    lines = ["Date,Y"] + [f"2001-01-{d:02d},{v}" for d, v in
                          zip(range(1, 11), [1, 2, "inf", 4, 5, 6, 7, 8, 9, 10])]
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["fit", "--input", str(bad), "--out", str(tmp_path / "o"),
               "--target", "Y", "--grid", GRID])
    assert rc == 4


def test_date_naming_no_day_exits_3(tmp_path, capsys):
    # a NaT date used to load and fail later as a contract error, exit 2
    bad = tmp_path / "bad.csv"
    bad.write_text("Date,Y\n2001-01-01,1\nNaT,2\n2001-01-03,3\n")
    rc = main(["fit", "--input", str(bad), "--out", str(tmp_path / "o"),
               "--target", "Y", "--grid", GRID])
    assert rc == 3
    assert "line 3: column 'Date': date 'NaT' names no calendar day" \
        in capsys.readouterr().err


def test_evaluate_rejects_mismatched_columns(synth_csv, tmp_path, capsys):
    fit_dir = tmp_path / "fit"
    _fit(synth_csv, fit_dir)
    rc = main(["evaluate", "--model", str(fit_dir / "model.json"),
               "--input", str(synth_csv), "--out", str(tmp_path / "e"),
               "--target", "Y1", "--grid", GRID, "--drop", "x1"])
    assert rc == 3
    assert "hydrovarx evaluate: design: data and model disagree on regressors; " \
        "data-only=[], model-only=['x11']" in capsys.readouterr().err


def test_evaluate_names_the_design_stage(synth_csv, tmp_path, capsys):
    # every other day leaves no row with a complete calendar lag history
    fit_dir = tmp_path / "fit"
    assert _fit(synth_csv, fit_dir) == 0
    lines = synth_csv.read_text().splitlines()
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("\n".join(lines[:1] + lines[1::2]) + "\n")
    run = ["--input", str(sparse), "--out", str(tmp_path / "o"), "--target", "Y1",
           "--p", "2", "--s", "1", "--grid", GRID]
    for args in (["fit", *run],
                 ["evaluate", *run, "--model", str(fit_dir / "model.json")]):
        assert main(args) == 3
        assert f"hydrovarx {args[0]}: design: no row has a complete calendar " \
            "lag history" in capsys.readouterr().err


def _fit_growing(csv, fit_dir):
    assert main(["fit", "--input", str(csv), "--out", str(fit_dir), "--target",
                 "Y1", "--p", "2", "--s", "1", "--grid", GRID,
                 "--season", "growing"]) == 0
    return fit_dir / "model.json"


def _evaluate(model, csv, out, *flags):
    return main(["evaluate", "--model", str(model), "--input", str(csv),
                 "--out", str(out), "--target", "Y1", *flags])


def _unbound(settings):
    return {key: value for key, value in settings.items() if key != "out"}


def test_evaluate_takes_its_settings_from_the_model(two_year_csv, tmp_path):
    model = _fit_growing(two_year_csv, tmp_path / "fit")
    out = tmp_path / "eval"
    assert _evaluate(model, two_year_csv, out) == 0
    # only growing-season test rows are scored, as many as the fit's design has
    design = build_design(
        preprocess(load_csv(two_year_csv, ["Y1"]), ModelSpec(season="growing")),
        LagSpec(2, 1))
    split = SplitPlan(design.n_eff)
    dates = [row[0] for row in _table(out / "forecast.csv")[1:]]
    assert dates == [str(d) for d in design.row_dates[split.test]]
    assert all(4 <= int(d[5:7]) <= 10 for d in dates)
    fitted = parse_artifact_header(tmp_path / "fit" / "lambda_path.csv")
    for name in ("metrics.csv", "forecast.csv"):
        assert _unbound(parse_artifact_header(out / name)) == _unbound(fitted)


@pytest.mark.parametrize("flags, named", [
    (["--alpha", "0.9", "--lag-mode", "positional"],
     ["alpha=0.9 (model: 0.5)", 'lag_mode="positional" (model: "calendar")']),
    (["--p", "3"], ["p=3 (model: 2)"]),
], ids=["alpha-lag-mode", "p"])
def test_evaluate_rejects_settings_that_contradict_the_model(
        two_year_csv, tmp_path, capsys, flags, named):
    model = _fit_growing(two_year_csv, tmp_path / "fit")
    capsys.readouterr()
    out = tmp_path / "eval"
    assert _evaluate(model, two_year_csv, out, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("hydrovarx evaluate: setup: ")
    assert all(name in err for name in named), err
    assert not out.exists()


def test_evaluate_may_change_the_band_multiplier(two_year_csv, tmp_path):
    model = _fit_growing(two_year_csv, tmp_path / "fit")
    out = tmp_path / "eval"
    # the grid is compared by value: "0.5:50:6" and "0.5:50:6:log" agree
    assert _evaluate(model, two_year_csv, out, "--ci-multiplier", "2",
                     "--grid", "0.5:50:6:log") == 0
    assert "# multiplier=2" in (out / "forecast.csv").read_text().splitlines()
    settings = parse_artifact_header(out / "forecast.csv")
    assert settings["ci_multiplier"] == 2 and settings["grid"] == "0.5:50:6:log"
    assert settings["season"] == "growing"


def test_evaluate_of_a_bare_model_reads_flags_and_defaults(synth_csv, tmp_path):
    fit_dir = tmp_path / "fit"
    assert _fit(synth_csv, fit_dir) == 0
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(json.loads((fit_dir / "model.json").read_text())["model"]))
    out = tmp_path / "eval"
    assert _evaluate(bare, synth_csv, out, "--alpha", "0.9") == 0
    settings = parse_artifact_header(out / "metrics.csv")
    # p, s and lag mode still come from the model, the rest from flags or defaults
    assert (settings["p"], settings["s"], settings["lag_mode"]) == (2, 1, "calendar")
    assert (settings["alpha"], settings["grid"]) == (0.9, "10:500:24:log")


def test_evaluate_reads_the_model_once(synth_csv, tmp_path, monkeypatch):
    fit_dir = tmp_path / "fit"
    assert _fit(synth_csv, fit_dir) == 0
    loads = []
    load = hydrovarx.cli._load_model
    monkeypatch.setattr(hydrovarx.cli, "_load_model",
                        lambda path: loads.append(path) or load(path))
    assert _evaluate(fit_dir / "model.json", synth_csv, tmp_path / "eval") == 0
    assert loads == [str(fit_dir / "model.json")]


@pytest.mark.parametrize("fit_flags", [
    ["--exog", "x1"],
    ["--exog", "x1,x2", "--drop", "x2"],
], ids=["exog", "exog-and-drop"])
def test_evaluate_takes_exog_from_the_model(tmp_path, capsys, fit_flags):
    rc = main(["simulate", "--out", str(tmp_path / "sim"), "--n", "300", "--k", "1",
               "--m", "2", "--p", "1", "--s", "1", "--phi", "0.5",
               "--beta", "0.8,0.4", "--noise-sd", "0.3", "--seed", "7"])
    assert rc == 0
    csv = tmp_path / "sim" / "synth.csv"
    fit_dir = tmp_path / "fit"
    assert _fit(csv, fit_dir, fit_flags) == 0
    out = tmp_path / "eval"
    assert _evaluate(fit_dir / "model.json", csv, out) == 0
    fitted = parse_artifact_header(fit_dir / "lambda_path.csv")
    assert _unbound(parse_artifact_header(out / "metrics.csv")) == _unbound(fitted)
    # a restated binding that differs from the model's fails in design, as
    # a different --drop does
    capsys.readouterr()
    assert _evaluate(fit_dir / "model.json", csv, out, "--exog", "x1,x2",
                     "--drop", "") == 3
    assert "hydrovarx evaluate: design: data and model disagree on regressors; " \
        "data-only=['x21'], model-only=[]" in capsys.readouterr().err


@pytest.mark.parametrize("config, code, needle", [
    ("x", 3, "malformed model document"),
    ({"alpha": "high"}, 2, "config key 'alpha' must be a number"),
], ids=["config-not-an-object", "alpha-not-a-number"])
def test_evaluate_rejects_a_malformed_stored_config(synth_csv, tmp_path, capsys,
                                                    config, code, needle):
    fit_dir = tmp_path / "fit"
    assert _fit(synth_csv, fit_dir) == 0
    path = fit_dir / "model.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "config": config}))
    assert _evaluate(path, synth_csv, tmp_path / "eval") == code
    err = capsys.readouterr().err
    assert f"hydrovarx evaluate: setup: {path}: " in err and needle in err


def test_select_order_names_its_stage(synth_csv, tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("\n".join(synth_csv.read_text().splitlines()[:6]) + "\n")
    rc = main(["select-order", "--input", str(short), "--out", str(tmp_path / "o"),
               "--target", "Y1", "--grid", GRID, "--p-range", "1", "--s-range", "0"])
    assert rc == 3
    assert "hydrovarx select-order: select-order: validation segment has 1 rows" \
        in capsys.readouterr().err


def test_config_file_with_flag_override(synth_csv, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "input": str(synth_csv), "out": str(tmp_path / "fit"),
        "target": ["Y1"], "p": 3, "s": 1, "grid": GRID}))
    rc = main(["fit", "--config", str(cfg_path), "--p", "2"])
    assert rc == 0
    cfg = parse_artifact_header(tmp_path / "fit" / "lambda_path.csv")
    assert cfg["p"] == 2      # flag beats the file
    assert cfg["s"] == 1      # file beats the default


def test_unknown_config_key_exits_2(synth_csv, tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "input": str(synth_csv), "out": str(tmp_path / "o"),
        "target": ["Y1"], "lambda_grid": GRID}))
    assert main(["fit", "--config", str(cfg_path)]) == 2
    assert "lambda_grid" in capsys.readouterr().err


def test_seed_is_not_a_run_option(synth_csv, tmp_path, capsys):
    # fitting is deterministic: only simulate takes a seed
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "input": str(synth_csv), "out": str(tmp_path / "o"),
        "target": ["Y1"], "grid": GRID, "seed": 0}))
    assert main(["fit", "--config", str(cfg_path)]) == 2
    assert "seed" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc_info:
        main(["fit", "--config", str(cfg_path), "--seed", "1"])
    assert exc_info.value.code == 2


def test_run_flags_cover_every_setting():
    # the flags are the one hand-kept list of settings: every binding field and
    # every ModelSpec field has a flag, and no flag sets anything else
    ap = argparse.ArgumentParser()
    hydrovarx.cli._add_run_flags(ap)
    dests = {action.dest for action in ap._actions} - {"help"}
    binding = {f.name for f in dataclasses.fields(RunConfig)} - {"spec"}
    spec = {f.name for f in dataclasses.fields(ModelSpec)}
    assert dests == binding | spec | {"config"}
    # the CLI writes the default grid as text; it must be the library's grid
    default = RunConfig(input="in.csv", out="o", target=("Y",))
    assert parse_grid(default.grid).tobytes() == default_grid().tobytes()
    config = RunConfig(input="in.csv", out="o", target=("Y",), p=3,
                       grid="1:8:4", refit="expanding", tol=1e-6)
    assert config.spec == ModelSpec(
        p=3, grid=(1.0, 2.0, 4.0, 8.0), refit="expanding", tol=1e-6)


def test_missing_required_options_exit_2(capsys):
    assert main(["fit", "--target", "Y"]) == 2
    err = capsys.readouterr().err
    assert "--input" in err and "--out" in err


def test_ablate_writes_paired_artifacts(synth_csv, tmp_path):
    out = tmp_path / "abl"
    rc = main(["ablate", "--input", str(synth_csv), "--out", str(out),
               "--target", "Y1", "--p", "1", "--s", "1", "--grid", GRID,
               "--drop", "x1"])
    assert rc == 0
    for name in ("metrics_full.csv", "metrics_reduced.csv",
                 "metrics_delta.csv", "config.json"):
        assert (out / name).exists()
    rows = _table(out / "metrics_delta.csv")
    assert rows[0] == ["metric", "full", "reduced", "delta"]
    assert [r[0] for r in rows[1:]] == list(METRIC_ORDER)
    table = {r[0]: r for r in rows[1:]}
    # x1 carries signal, so the reduced model must lose accuracy
    assert float(table["NSE"][2]) < float(table["NSE"][1])
    full_v, red_v, delta = (float(x) for x in table["MSE"][1:])
    assert delta == pytest.approx(red_v - full_v, abs=1e-9)


def test_ablate_writes_a_delta_block_per_target(tmp_path):
    src = tmp_path / "sim"
    assert main(["simulate", "--out", str(src), "--n", "300", "--k", "2",
                 "--m", "2", "--p", "1", "--s", "1", "--phi", "0.5,0.1,0.0,0.4",
                 "--beta", "0.8,0,0,0.5", "--noise-sd", "0.3", "--seed", "7"]) == 0
    out = tmp_path / "abl"
    assert main(["ablate", "--input", str(src / "synth.csv"), "--out", str(out),
                 "--target", "Y1,Y2", "--p", "1", "--s", "1", "--grid", GRID,
                 "--drop", "x1"]) == 0
    rows = _table(out / "metrics_delta.csv")
    assert rows[0] == ["target", "metric", "full", "reduced", "delta"]
    assert len(rows[1:]) == 2 * len(METRIC_ORDER)
    assert [r[:2] for r in rows[1:]] == [[t, key] for t in ("Y1", "Y2")
                                         for key in METRIC_ORDER]
    full = {tuple(r[:2]): r[2] for r in _table(out / "metrics_full.csv")[1:]}
    reduced = {tuple(r[:2]): r[2] for r in _table(out / "metrics_reduced.csv")[1:]}
    for target, key, *cells in rows[1:]:
        assert cells[:2] == [full[target, key], reduced[target, key]]
        full_v, red_v, delta = map(float, cells)
        if np.isnan(red_v - full_v):
            assert np.isnan(delta)
        else:  # each cell is printed to 10 significant digits
            assert delta == pytest.approx(red_v - full_v,
                                          abs=1e-9 * (abs(full_v) + abs(red_v)))


# every model setting select-order reads, each away from its default
_ORDER_SETTINGS = {"alpha": 0.8, "grid": "1:50:5", "refit": "expanding",
                   "refit_every": 7, "standardize": False, "tol": 1e-6,
                   "max_iter": 50, "lag_mode": "positional", "season": "growing"}
_ORDER_FLAGS = ["--alpha", "0.8", "--grid", "1:50:5", "--refit", "expanding",
                "--refit-every", "7", "--no-standardize", "--tol", "1e-6",
                "--max-iter", "50", "--lag-mode", "positional",
                "--season", "growing"]


def _scan_rows(synth_csv, **settings):
    """order_scan.csv's data rows, computed by the library for these settings."""
    spec = RunConfig(input=str(synth_csv), out="unused", target=("Y1",),
                     **{"grid": GRID, **settings}).spec
    frame = preprocess(load_csv(synth_csv, ["Y1"]), spec)
    scan = select_order(frame, [1, 2], [0, 1], spec)
    return [f"{p},{s},{b:.10g},{lam:.10g}"
            for (p, s), b, lam in zip(scan.candidates, scan.bic, scan.lambdas)]


@pytest.mark.parametrize("flags, settings", [([], {}),
                                             (_ORDER_FLAGS, _ORDER_SETTINGS)],
                         ids=["defaults", "settings"])
def test_select_order_scan(two_year_csv, tmp_path, flags, settings):
    out = tmp_path / "ord"
    rc = main(["select-order", "--input", str(two_year_csv), "--out", str(out),
               "--target", "Y1", "--grid", GRID,
               "--p-range", "1:2", "--s-range", "0:1", *flags])
    assert rc == 0
    text = (out / "order_scan.csv").read_text().splitlines()
    chosen = [l for l in text if l.startswith("# chosen_")]
    assert len(chosen) == 2
    rows = [l for l in text if l and not l.startswith("#")]
    assert rows[0] == "p,s,bic,lambda"
    assert len(rows) == 1 + 4  # header + 2x2 candidates
    # the scan honours every setting: a dropped one would match the defaults
    assert rows[1:] == _scan_rows(two_year_csv, **settings)
    if settings:
        assert rows[1:] != _scan_rows(two_year_csv)


def test_order_scan_records_the_scanned_ranges(two_year_csv, tmp_path):
    out = tmp_path / "ord"
    assert main(["select-order", "--input", str(two_year_csv), "--out", str(out),
                 "--target", "Y1", "--grid", GRID,
                 "--p-range", "3,1,2,1", "--s-range", "0:2"]) == 0
    # the recorded config holds the ranges the scan read, not the unread p, s
    cfg = parse_artifact_header(out / "order_scan.csv")
    assert (cfg["p_range"], cfg["s_range"]) == ([1, 2, 3], [0, 1, 2])
    assert "p" not in cfg and "s" not in cfg
    assert json.loads((out / "config.json").read_text())["config"] == cfg


@pytest.mark.parametrize("flag, value, msg", [("--p-range", "0:2", "p must be >= 1"),
                                              ("--s-range", "-1,0,1", "s must be >= 0")])
def test_select_order_rejects_out_of_range_orders(two_year_csv, tmp_path, capsys,
                                                  flag, value, msg):
    out = tmp_path / "ord"
    ranges = {"--p-range": "1:2", "--s-range": "0:1", flag: value}
    rc = main(["select-order", "--input", str(two_year_csv), "--out", str(out),
               "--target", "Y1", "--grid", GRID,
               *(f"{k}={v}" for k, v in ranges.items())])
    assert rc == 2
    assert f"hydrovarx select-order: select-order: {msg}" in capsys.readouterr().err
    assert not (out / "order_scan.csv").exists()


def test_select_order_warns_on_unconverged_solves(two_year_csv, tmp_path, capsys,
                                                   monkeypatch):
    args = ["select-order", "--input", str(two_year_csv), "--target", "Y1",
            "--grid", GRID, "--p-range", "1:2", "--s-range", "0:1"]
    assert main([*args, "--out", str(tmp_path / "ok")]) == 0
    assert capsys.readouterr().err == ""

    out = tmp_path / "capped"
    assert main([*args, "--max-iter", "1", "--out", str(out)]) == 0
    # 4 candidates x 6 lambdas, one fixed-refit window each
    assert capsys.readouterr().err == (
        "hydrovarx select-order: warning: 24 of 24 lambda-path solves did not "
        "converge within max_iter=1 iterations\n")
    warned = _snapshot(out)
    monkeypatch.setattr(hydrovarx.cli, "_warn_unconverged_solves", lambda *a: None)
    assert main([*args, "--max-iter", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert _snapshot(out) == warned


def test_parser_is_built_once():
    assert hydrovarx.cli.build_parser() is hydrovarx.cli.build_parser()


def test_artifacts_end_every_line_in_lf(tmp_path):
    for k, targets in ((1, "Y1"), (2, "Y1,Y2")):
        src = tmp_path / f"sim{k}"
        assert main(["simulate", "--out", str(src), "--n", "300", "--k", str(k),
                     "--m", "2", "--p", "1", "--s", "1",
                     "--phi", "0.5" if k == 1 else "0.5,0.1,0.0,0.4",
                     "--beta", "0.8,-0.3" if k == 1 else "0.8,0,0,0.5",
                     "--noise-sd", "0.3", "--seed", "7"]) == 0
        run = ["--input", str(src / "synth.csv"), "--target", targets,
               "--grid", GRID]
        out = tmp_path / f"k{k}"
        assert main(["fit", *run, "--out", str(out / "fit"), "--p", "2"]) == 0
        assert main(["evaluate", *run, "--out", str(out / "eval"), "--p", "2",
                     "--model", str(out / "fit" / "model.json")]) == 0
        assert main(["ablate", *run, "--out", str(out / "abl"), "--p", "2",
                     "--drop", "x1"]) == 0
        assert main(["select-order", *run, "--out", str(out / "ord"),
                     "--p-range", "1:2", "--s-range", "0:1"]) == 0
        artifacts = sorted(out.rglob("*.*"))
        assert len(artifacts) == 14  # 4 fit, 4 evaluate, 4 ablate, 2 select-order
        assert [str(p.relative_to(out)) for p in artifacts
                if b"\r" in p.read_bytes()] == []


def test_simulate_writes_exogenous_columns_without_lags(tmp_path):
    out = tmp_path / "s"
    assert main(["simulate", "--out", str(out), "--n", "20", "--m", "2",
                 "--s", "0", "--phi", "0.5"]) == 0
    assert (out / "synth.csv").read_text().splitlines()[0] == "Date,Y1,x1,x2"


def test_simulate_rejects_beta_without_exogenous_lags(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "s"), "--n", "20", "--m", "2",
               "--s", "0", "--phi", "0.5", "--beta", "0.8"])
    assert rc == 2
    assert "hydrovarx simulate: setup: --beta needs s*k*m = 0 values" \
        in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("counts", [["--s", "-1", "--m", "2"], ["--m", "-1"],
                                    ["--k", "0"]])
def test_simulate_rejects_negative_counts(counts, tmp_path, capsys):
    # a negative --s used to reshape as -1 and quietly become a lag order
    rc = main(["simulate", "--out", str(tmp_path / "s"), "--n", "20",
               "--phi", "0.5", "--beta", "0.8,0.3", *counts])
    assert rc == 2
    assert "hydrovarx simulate: setup: --k must be >= 1" in capsys.readouterr().err


def test_simulate_rejects_wrong_phi_count(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "s"), "--n", "50",
               "--p", "2", "--phi", "0.5"])
    assert rc == 2
    assert "p*k*k" in capsys.readouterr().err


def test_simulate_without_autoregressive_lags(tmp_path):
    # its own check allows --p 0; the stability check used to crash on it
    out = tmp_path / "s"
    assert main(["simulate", "--out", str(out), "--n", "20", "--p", "0",
                 "--phi=", "--m", "1", "--s", "1", "--beta", "0.5"]) == 0
    assert len((out / "synth.csv").read_text().splitlines()) == 21
    truth = json.loads((out / "truth.json").read_text())["truth"]
    assert truth["phi"] == [] and truth["support"] == ["x11"]


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be >= 0"),
    (["--phi", "nan"], "phi must be finite"),
    (["--noise-sd", "inf"], "noise_sd must be finite"),
])
def test_simulate_refuses_bad_settings_before_drawing(flags, message, tmp_path,
                                                     capsys):
    # each of these used to end in a traceback (exit 1)
    rc = main(["simulate", "--out", str(tmp_path / "s"), "--n", "20",
               "--phi", "0.5", *flags])
    assert rc == 2
    assert f"hydrovarx simulate: setup: {message}" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_parse_grid_forms():
    np.testing.assert_allclose(parse_grid("10:500:24"),
                               np.geomspace(10, 500, 24))
    np.testing.assert_allclose(parse_grid("1:100:5:linear"),
                               np.linspace(1, 100, 5))
    np.testing.assert_allclose(parse_grid("7:7:1"), [7.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a non-finite bound used to warn first
        for bad in ("5:1:3", "1:10:0", "a:b:c", "1:10:5:cubic", "0:10:3:log", "1:2",
                    "1:inf:3", "nan:1:1", "-inf:5:3:linear"):
            with pytest.raises(ConfigError):
                parse_grid(bad)


def test_parse_order_ranges():
    assert _parse_range("1:4") == [1, 2, 3, 4]
    assert _parse_range("1,3,7") == [1, 3, 7]
    with pytest.raises(ConfigError):
        _parse_range("4:1")
    with pytest.raises(ConfigError):
        _parse_range("one:two")
