"""The equivalence harness (tools/equivalence.py) digests a run and holds
two digests to a contract."""

import copy
import importlib.util
import io
import json
from pathlib import Path

import pytest

from hydrovarx import METRIC_ORDER

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "equivalence", ROOT / "tools" / "equivalence.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


equivalence = _load_tool()


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    out = tmp_path_factory.mktemp("digest") / "tiny.json"
    assert equivalence.main(["digest", "--set", "tiny", "--out", str(out),
                             "--src", str(ROOT / "src")]) == 0
    return out


def test_a_digest_holds_to_itself_under_every_contract(tiny, capsys):
    doc = json.loads(tiny.read_text())
    cli = {key: entry["cli"] for key, entry in doc["datasets"].items()
           if key.startswith("tiny/cli/")}
    assert sorted(set(doc["datasets"]) - set(cli)) == [
        "tiny/expanding", "tiny/expanding-raw", "tiny/fixed", "tiny/fixed-raw",
        "tiny/scan", "tiny/scan-raw"]
    runs = ["simulate", "fit-fixed", "fit-expanding", "fit-growing", "fit-raw",
            "evaluate", "evaluate-expanding", "evaluate-raw", "ablate",
            "select-order"]
    simulate_only = ["tiny/cli/k1-iid/simulate", "tiny/cli/k3-ar1/simulate"]
    assert sorted(cli) == sorted([f"tiny/cli/k{k}/{run}" for k in (1, 2)
                                  for run in runs] + simulate_only)
    assert {entry["rc"] for entry in cli.values()} == {0}
    for key in simulate_only:
        assert sorted(cli[key]["sha256"]) == ["synth.csv", "truth.json"]
    assert sorted(cli["tiny/cli/k2/evaluate"]["sha256"]) == [
        "config.json", "forecast.csv", "metrics.csv", "regression_line.json"]
    fixed = doc["datasets"]["tiny/fixed"]
    assert fixed["audit"] == {"lookahead": 0, "forecast_dates": 0,
                              "split_overlap": 0, "scaling": 0}
    assert fixed["lambda_path"]["solves"] == 4
    # the lag blocks model.json stores, in the coefficients' lag-major order
    # (k = m = 1, p = 2, s = 1)
    phi, beta = fixed["model"]["phi"], fixed["model"]["beta"]
    assert [len(phi), len(beta)] == [2, 1]
    assert phi[0][0] + phi[1][0] + beta[0][0] == fixed["model"]["coeffs"][0]
    assert all(doc["datasets"][key]["model"]["round_trip"]
               for key in ("tiny/fixed", "tiny/fixed-raw", "tiny/expanding"))
    for contract in equivalence.CONTRACTS:
        assert equivalence.main(["compare", str(tiny), str(tiny),
                                 "--contract", contract]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "HOLDS"


def _verdicts(old, new, contract):
    """The contract's verdict and the fields it failed."""
    out = io.StringIO()
    holds = equivalence.compare(old, new, contract, out=out)
    failed = [line.split()[0] for line in out.getvalue().splitlines()
              if line.endswith("FAIL")]
    return holds, failed


@pytest.mark.parametrize("shift, bit, kernel", [
    (1e-12, False, True),   # rounding: within the kernel tolerance
    (1e-6, False, False),   # a different solution
])
def test_coefficient_moves_are_judged_by_size(tiny, shift, bit, kernel):
    old = json.loads(tiny.read_text())
    new = copy.deepcopy(old)
    new["datasets"]["tiny/fixed"]["model"]["coeffs"][0][0] += shift
    assert _verdicts(old, new, "bit") == (bit, ["model.coeffs"])
    assert _verdicts(old, new, "kernel") == (kernel, [] if kernel else ["model.coeffs"])


def test_metrics_and_the_regression_line_are_digested(tiny):
    old = json.loads(tiny.read_text())
    fixed = old["datasets"]["tiny/fixed"]
    assert list(fixed["metrics"]) == list(METRIC_ORDER)
    assert all(len(values) == 1 for values in fixed["metrics"].values())
    assert [len(flags) for flags in fixed["metric_flags"]] == [len(METRIC_ORDER)]
    assert [len(fixed["regression"][key]) for key in ("slope", "intercept")] == [1, 1]
    # (field, the list whose first item changes, its new value, kernel verdict)
    for field, path, value, kernel in (
            ("metrics.RMSE", ("metrics", "RMSE"),       # rounding: within tolerance
             fixed["metrics"]["RMSE"][0] + 1e-12, True),
            ("metric_flags", ("metric_flags", 0), "sd(obs) = 0", False),
            ("regression.slope", ("regression", "slope"),
             fixed["regression"]["slope"][0] + 1e-6, False)):
        new = copy.deepcopy(old)
        entry = new["datasets"]["tiny/fixed"]
        entry[path[0]][path[1]][0] = value
        assert _verdicts(old, new, "bit") == (False, [field])
        assert _verdicts(old, new, "kernel") == (kernel, [] if kernel else [field])


def test_kernel_contract_holds_counts_and_choices_exactly(tiny):
    old = json.loads(tiny.read_text())
    for field, edit in (
            ("lambda_path.iterations",
             lambda d: d["tiny/expanding"]["lambda_path"].update(
                 iterations=d["tiny/expanding"]["lambda_path"]["iterations"] + 1)),
            ("model.support",
             lambda d: d["tiny/fixed"]["model"]["support"].append("x12")),
            ("scan.chosen", lambda d: d["tiny/scan"]["scan"].update(chosen=[9, 9]))):
        new = copy.deepcopy(old)
        edit(new["datasets"])
        assert _verdicts(old, new, "kernel") == (False, [field])
    # a dataset that only one digest has fails the contract too
    new = copy.deepcopy(old)
    del new["datasets"]["tiny/scan"]
    assert _verdicts(old, new, "kernel") == (False, [])


def test_artifact_hashes_and_exit_codes_are_exact_under_every_contract(tiny):
    old = json.loads(tiny.read_text())
    for field, edit in (
            ("cli.sha256.model.json",
             lambda d: d["tiny/cli/k1/fit-expanding"]["cli"]["sha256"].update(
                 {"model.json": "0" * 64})),
            ("cli.rc", lambda d: d["tiny/cli/k2/ablate"]["cli"].update(rc=1))):
        new = copy.deepcopy(old)
        edit(new["datasets"])
        for contract in equivalence.CONTRACTS:
            assert _verdicts(old, new, contract) == (False, [field])


def test_cli_artifacts_do_not_depend_on_the_working_directory(tiny, tmp_path,
                                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    again = tmp_path / "again.json"
    assert equivalence.main(["digest", "--set", "tiny", "--out", str(again),
                             "--src", str(ROOT / "src")]) == 0
    assert _verdicts(json.loads(tiny.read_text()),
                     json.loads(again.read_text()), "bit") == (True, [])
