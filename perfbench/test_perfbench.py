"""Self-tests of the benchmark: smoke runs on small inputs, and mutation
checks showing that the gate counts a wrong result as a failed op.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pace
import run

run._import_program()  # puts this checkout's sources on sys.path

import spans  # noqa: E402
import hydrovarx.design  # noqa: E402
import hydrovarx.pipeline  # noqa: E402
import hydrovarx.selection  # noqa: E402
import hydrovarx.solver  # noqa: E402

WORKLOADS = ("fit_audit_daily", "expanding_refit", "order_scan_wide")


def _tiny(name, trace=False, seconds=0.5):
    result, _ = run.run(name, seed=3, seconds=seconds, trace=trace, tiny=True,
                        setup_repeats=1)
    return result


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(name):
    result = _tiny(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_smoke_reports_every_layer_and_restores_names(name):
    originals = (hydrovarx.selection.fit, hydrovarx.pipeline.lookahead_violations,
                 hydrovarx.design.DesignMatrix.take)
    result = _tiny(name, trace=True, seconds=1.0)
    assert result["correct"]
    assert set(result["metrics"]) == set(spans.UNITS)
    assert result["metrics"]["solver.fit.calls"]["value"] > 0
    assert result["metrics"]["trace.coverage"]["value"] > 0.95
    assert (hydrovarx.selection.fit, hydrovarx.pipeline.lookahead_violations,
            hydrovarx.design.DesignMatrix.take) == originals
    assert hydrovarx.selection.fit is hydrovarx.solver.fit


def test_pacer_integrates_speed_between_samples_and_skips_their_time():
    pacer = pace.Pacer()
    # (start, end, speed): full speed, then half speed from t=2.5 on
    pacer.samples = [(0.0, 0.5, 1.0), (2.5, 3.0, 0.5), (5.0, 5.5, 0.5)]
    pacer._integrate()
    assert pacer.seconds(0.5, 2.5) == pytest.approx(2.0 * 0.75)
    assert pacer.seconds(2.5, 3.0) == 0.0      # a sample does no program work
    assert pacer.seconds(3.0, 5.0) == pytest.approx(1.0)
    assert pacer.seconds(1.5, 4.0) == pytest.approx(0.75 + 0.5)
    with pytest.raises(ValueError):
        pacer.seconds(0.5, 6.0)


def test_pacer_samples_while_started_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Pacer() as pacer:
        t0 = time.perf_counter()
        end = t0 + 0.2
        while time.perf_counter() < end:
            pass
        t1 = time.perf_counter()
    assert len(pacer.samples) >= 4
    assert 0.0 < pacer.seconds(t0, t1) and pacer.slowdown() > 0.0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _corrupt_final_coefficient(monkeypatch):
    real_fit = hydrovarx.pipeline.fit

    def fit(*args, **kwargs):
        model = real_fit(*args, **kwargs)
        coeffs = model.coeffs.copy()
        coeffs[0, 0] += 1e-3
        return dataclasses.replace(model, coeffs=coeffs)

    monkeypatch.setattr(hydrovarx.pipeline, "fit", fit)


def _corrupt_design_cell(monkeypatch):
    real_build = hydrovarx.pipeline.build_design

    def build_design(*args, **kwargs):
        design = real_build(*args, **kwargs)
        Z = design.Z.copy()
        Z[5, 0] += 1.0
        return dataclasses.replace(design, Z=Z)

    monkeypatch.setattr(hydrovarx.pipeline, "build_design", build_design)


@pytest.mark.parametrize("corrupt", [_corrupt_final_coefficient, _corrupt_design_cell])
@pytest.mark.parametrize("name", WORKLOADS)
def test_gate_counts_wrong_results_as_failed(name, corrupt, monkeypatch):
    corrupt(monkeypatch)
    result = _tiny(name)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_audit_daily",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
