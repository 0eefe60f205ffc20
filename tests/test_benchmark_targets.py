"""The names the benchmark traces still exist in the program.

``perfbench/spans.py`` wraps each function it names by ``getattr`` when it
traces a run, so deleting or renaming one of them breaks traced benchmark
runs; this check keeps that visible in the main suite.
"""

import importlib.util
from pathlib import Path

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
