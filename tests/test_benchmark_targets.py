"""The names the benchmark traces, runs and patches still exist in the program.

``perfbench/spans.py`` wraps each function it names by ``getattr`` when it
traces a run, ``perfbench/workloads.py`` calls the program through module
attributes, and ``perfbench/test_perfbench.py`` patches and compares some of
them. Deleting or renaming one of them breaks the benchmark; these checks
keep that visible in the main suite.
"""

import importlib
import importlib.util
from pathlib import Path

import hydrovarx.selection
import hydrovarx.solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    assert spans.TARGETS and spans.METHOD_TARGETS
    for name, home, attr, _info in spans.TARGETS:
        assert callable(getattr(home, attr, None)), name
    for name, cls, attr in spans.METHOD_TARGETS:
        assert callable(getattr(cls, attr, None)), name


# the module attributes that perfbench/workloads.py and
# perfbench/test_perfbench.py read, by module
USED = {
    "pipeline": ("ModelSpec", "run_pipeline", "fit", "build_design",
                 "lookahead_violations"),
    "selection": ("select_order",),
    "cli": ("main",),
}


def test_every_name_the_benchmark_runs_resolves():
    for module, names in USED.items():
        home = importlib.import_module(f"hydrovarx.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"
    # the traced smoke test checks that tracing restores this name
    assert hydrovarx.selection.fit is hydrovarx.solver.fit
