"""The A/B tool (tools/abtest.py) pairs runs by seed and summarizes them."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("abtest", ROOT / "tools" / "abtest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


abtest = _load_tool()


def _run(side, seed, p50, rate, correct=True, failed=0):
    metrics = {"op_s_p50": {"value": p50, "unit": "s"},
               "ops_per_s": {"value": rate, "unit": "1/s"}}
    return {"side": side, "workload": "w", "seed": seed, "trace": 0,
            "first": "parent", "rc": 0,
            "result": {"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


def test_seed_lists_and_plans_parse():
    assert abtest._seeds("301-304,310") == [301, 302, 303, 304, 310]
    assert abtest._plan("expanding_refit:7") == ("expanding_refit", [7])


def test_summary_pairs_runs_by_seed_and_reads_each_metrics_direction():
    runs = [_run("parent", 1, 0.020, 50.0), _run("change", 1, 0.018, 55.0),
            _run("change", 2, 0.017, 50.0), _run("parent", 2, 0.021, 50.0),
            _run("parent", 3, 0.019, 40.0), _run("change", 3, 0.020, 45.0,
                                                  correct=False, failed=1),
            # an unfinished pair is left out
            _run("parent", 4, 0.5, 1.0)]
    runs[-1]["result"] = None
    summary = abtest.summarize(runs, {"op_s_p50": "lower", "ops_per_s": "higher"})
    w = summary["w"]
    assert w["seeds"] == [1, 2, 3, 4]
    assert w["attempted_ops"] == {"parent": 30, "change": 30}
    assert w["failed_ops"] == {"parent": 0, "change": 1}
    assert w["correct"] == {"parent": True, "change": False}
    p50 = w["op_s_p50"]
    assert p50["pairs"] == 3
    assert p50["change_better_pairs"] == 2 and p50["tied_pairs"] == 0
    assert p50["parent"] == {"median": 0.020, "q1": 0.0195, "q3": 0.0205, "n": 3}
    assert abs(p50["median_change_rel"] - (0.018 / 0.020 - 1.0)) < 1e-15
    rate = w["ops_per_s"]
    assert rate["change_better_pairs"] == 2 and rate["tied_pairs"] == 1
