"""Span tracing from outside the program, by rebinding its public names.

``Tracer.install`` wraps each traced function and rebinds every
``hydrovarx`` module attribute that refers to it (for example
``hydrovarx.selection.fit`` and ``hydrovarx.pipeline.fit``), plus
``DesignMatrix.take`` on its class. ``restore`` puts every original back.
Spans (id, parent id, name, start, end, info) stay in memory until
``write`` saves them at the end of the run.
"""

from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import hydrovarx.cli
import hydrovarx.design
import hydrovarx.forecast
import hydrovarx.frame
import hydrovarx.metrics
import hydrovarx.pipeline
import hydrovarx.selection
import hydrovarx.solver


def _fit_info(args, kwargs, model):
    return (sum(model.n_iter), model.converged)


def _audit_info(args, kwargs, counts):
    return sum(counts.values())


def _cells_info(args, kwargs, result):
    design = args[0]
    return design.n_eff * design.q


def _path_info(args, kwargs, path):
    return (path.grid.size, path.chosen_index)


# (span name, module that defines it, attribute, info taken from the call)
TARGETS = (
    ("frame.load_csv", hydrovarx.frame, "load_csv", None),
    ("design.build_design", hydrovarx.design, "build_design", None),
    ("design.standardize", hydrovarx.design, "standardize", None),
    ("design.lookahead_violations", hydrovarx.design, "lookahead_violations",
     _cells_info),
    ("solver.fit", hydrovarx.solver, "fit", _fit_info),
    ("solver.predict_rows", hydrovarx.solver, "predict_rows", None),
    ("selection.select_lambda", hydrovarx.selection, "select_lambda", _path_info),
    ("selection.select_order", hydrovarx.selection, "select_order", None),
    ("forecast.rolling_forecast", hydrovarx.forecast, "rolling_forecast", None),
    ("metrics.full_report", hydrovarx.metrics, "full_report", None),
    ("pipeline.run_pipeline", hydrovarx.pipeline, "run_pipeline", None),
    ("pipeline.leakage_audit", hydrovarx.pipeline, "leakage_audit", _audit_info),
    ("cli.main", hydrovarx.cli, "main", None),
)
#: methods traced on their class rather than through module attributes
METHOD_TARGETS = (("design.take", hydrovarx.design.DesignMatrix, "take"),)

# span record layout
ID, PARENT, NAME, START, END, INFO = range(6)


class Tracer:
    """Records nested spans of the traced calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, info=None):
        """A span the benchmark opens itself, around one op."""
        rec = self._open(name, info)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str, info=None) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1,
               name, 0.0, 0.0, info]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, info_fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if info_fn is not None:
                rec[INFO] = info_fn(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced name in every loaded hydrovarx module."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "hydrovarx" or name.startswith("hydrovarx.")]
        try:
            for name, home, attr, info_fn in TARGETS:
                original = getattr(home, attr)
                wrapped = self._wrap(name, original, info_fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
            for name, cls, attr in METHOD_TARGETS:
                self._patch(cls, attr, self._wrap(name, getattr(cls, attr), None))
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every original, last rebinding first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def infos(self, name: str, since: int = 0) -> list:
        """The info of each span called ``name``, from span ``since`` on."""
        return [rec[INFO] for rec in self.spans[since:] if rec[NAME] == name]

    def write(self, path) -> None:
        """Save the spans as gzipped tab-separated text, one span a line."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart\tend\tinfo\n")
            for rec in self.spans:
                fh.write("\t".join(str(v) for v in rec) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so children never overlap each other.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


#: spans whose call count and busy time are reported
COUNTED = ("frame.load_csv", "design.lookahead_violations", "design.standardize",
           "design.take", "design.build_design", "solver.fit", "solver.predict_rows")


def _units() -> dict[str, str]:
    units = {}
    for name in COUNTED:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.busy_s"] = "s/op"
    units.update({
        "design.lookahead_violations.cells_per_s": "cells/s",
        "solver.fit.self_s": "s/op",
        "solver.sweeps": "sweeps/op",
        "solver.sweeps_per_fit": "sweeps/fit",
        "solver.sweep_us": "us/sweep",
        "solver.nonconverged": "fits/op",
        "solver.kkt_max": "grad",
        "selection.select_lambda.busy_s": "s/op",
        "selection.select_lambda.self_s": "s/op",
        "selection.select_order.busy_s": "s/op",
        "selection.select_order.self_s": "s/op",
        "selection.fits_per_lambda": "fits/lambda",
        "selection.lambda_at_edge": "share",
        "forecast.rolling_forecast.busy_s": "s/op",
        "metrics.full_report.busy_s": "s/op",
        "pipeline.run_pipeline.self_s": "s/op",
        "pipeline.leakage_audit.busy_s": "s/op",
        "pipeline.leakage_audit.self_s": "s/op",
        "cli.main.self_s": "s/op",
        "trace.coverage": "share",
        "trace.overhead_frac": "ratio",
        "pace.slowdown": "ratio",
    })
    return units


#: every per-layer metric, with its unit; ``solver.kkt_max`` (from the gate),
#: ``trace.overhead_frac`` (traced against untraced ops) and ``pace.slowdown``
#: (the machine's mean slowdown over the run, see pace.py) come from run.py
UNITS = _units()


def layer_metrics(spans, op_name: str) -> dict[str, float]:
    """Per-op layer figures from the spans of the traced ops.

    Counts and seconds are divided by the number of ops traced. Ratios with
    a zero base (a layer the workload never calls) are reported as 0.
    """
    selfs = self_times(spans)
    n_ops = sum(1 for rec in spans if rec[NAME] == op_name) or 1
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    for rec, st in zip(spans, selfs):
        calls[rec[NAME]] += 1
        busy[rec[NAME]] += rec[END] - rec[START]
        own[rec[NAME]] += st

    def ratio(num, den):
        return num / den if den else 0.0

    fits = [rec for rec in spans if rec[NAME] == "solver.fit"]
    sweeps = sum(rec[INFO][0] for rec in fits)
    paths = [rec for rec in spans if rec[NAME] == "selection.select_lambda"]
    path_ids = {rec[ID] for rec in paths}
    path_fits = sum(1 for rec in fits if rec[PARENT] in path_ids)
    grid_points = sum(rec[INFO][0] for rec in paths)
    at_edge = sum(1 for rec in paths if rec[INFO][1] in (0, rec[INFO][0] - 1))
    cells = sum(rec[INFO] for rec in spans
                if rec[NAME] == "design.lookahead_violations")
    op_busy = busy[op_name]

    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = calls[name] / n_ops
        out[f"{name}.busy_s"] = busy[name] / n_ops
    out["design.lookahead_violations.cells_per_s"] = ratio(
        cells, busy["design.lookahead_violations"])
    out["solver.fit.self_s"] = own["solver.fit"] / n_ops
    out["solver.sweeps"] = sweeps / n_ops
    out["solver.sweeps_per_fit"] = ratio(sweeps, len(fits))
    out["solver.sweep_us"] = 1e6 * ratio(own["solver.fit"], sweeps)
    out["solver.nonconverged"] = sum(1 for rec in fits if not rec[INFO][1]) / n_ops
    for name in ("selection.select_lambda", "selection.select_order"):
        out[f"{name}.busy_s"] = busy[name] / n_ops
        out[f"{name}.self_s"] = own[name] / n_ops
    out["selection.fits_per_lambda"] = ratio(path_fits, grid_points)
    out["selection.lambda_at_edge"] = ratio(at_edge, len(paths))
    out["forecast.rolling_forecast.busy_s"] = busy["forecast.rolling_forecast"] / n_ops
    out["metrics.full_report.busy_s"] = busy["metrics.full_report"] / n_ops
    out["pipeline.run_pipeline.self_s"] = own["pipeline.run_pipeline"] / n_ops
    out["pipeline.leakage_audit.busy_s"] = busy["pipeline.leakage_audit"] / n_ops
    out["pipeline.leakage_audit.self_s"] = own["pipeline.leakage_audit"] / n_ops
    out["cli.main.self_s"] = own["cli.main"] / n_ops
    out["trace.coverage"] = ratio(op_busy - own[op_name], op_busy)
    return out
