"""Equivalence harness: digest what one source tree computes, and compare two digests.

Run from the repository root:

    python tools/equivalence.py digest --out old.json --src ../old/src
    python tools/equivalence.py digest --out new.json
    python tools/equivalence.py compare old.json new.json --contract kernel

``digest`` imports hydrovarx from ``--src`` (default: this checkout's
``src``) and runs it on fixed datasets. Per dataset it records the lambda
path (grid, MSFE, chosen index and the solver's counters), the final
model (lambda, support, ``n_iter``, ``converged``, raw and scaled
coefficients and intercepts, the raw coefficients again as the per-lag
blocks ``phi`` and ``beta`` that ``model.json`` stores, sigma2, and
``round_trip``: whether ``FittedModel.from_dict`` of the model's own
``to_dict`` document, through JSON, writes that document again, its raw
copy derived from the scaled one by the back-transform), the test
forecasts and their se, per target every metric of ``METRIC_ORDER`` and
its flag, the regression line's slope and intercept, the leakage-audit
counts, and for an order scan its candidates, BICs, lambdas, chosen (p, s)
and counters. The dataset sets (``--set``):

- ``perfbench``: every dataset of the pools of ``perfbench/workloads.py``
  for ``--seeds``, each run as the workload's op runs it (the CLI fit of
  ``fit_audit_daily`` as the ``run_pipeline`` it wraps);
- ``acceptance06``: the 40 order scans of acceptance check 06;
- ``tiny``: one small series, run with fixed and expanding refit and
  scanned over a few orders, each standardized and not, for a quick
  self-check; and a fixed set of command-line runs at k = 1 and k = 2
  (``simulate``; ``fit`` with fixed and with expanding refit, over the
  growing season and unstandardized; ``evaluate`` of the fixed, the
  expanding and the unstandardized model; ``ablate``; ``select-order``) plus
  two more ``simulate`` runs (k = 1 with iid drivers over two lags, and
  k = 3 with AR(1) drivers), whose exit codes and the sha256 of every
  artifact they write are recorded.
  They run in one temporary working directory with relative paths,
  because the artifacts record the paths.

``compare`` checks a new digest against an old one under a contract and
prints, per field, how many datasets differ and the largest deviation,
absolute and relative to max(1, |old|). It exits 1 when the contract fails.

- ``bit``: every field equal to the bit (NaN equals NaN; the sign of a zero
  counts).
- ``kernel``: the same lambda grid, chosen index and lambda, support,
  (p, s), candidates and their chosen lambdas, solves, iterations and
  ``n_iter``, non-converged counts, ``converged``, ``round_trip``, audit
  counts, metric flags, and command-line exit codes and artifact hashes;
  every other number, coefficients and metrics included, within
  1e-9 * max(1, |old|).

BLAS and OpenMP pools are pinned to one thread before numpy loads, so a
digest does not depend on the machine's core count.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
KERNEL_TOL = 1e-9
#: fields held exactly under the kernel contract; every other number is
#: held to KERNEL_TOL * max(1, |old|)
KERNEL_EXACT = {
    "lambda_path.grid", "lambda_path.chosen_index", "lambda_path.solves",
    "lambda_path.iterations", "lambda_path.nonconverged",
    "model.lambda", "model.support", "model.n_iter", "model.converged",
    "model.round_trip",
    "scan.candidates", "scan.lambdas", "scan.chosen", "scan.solves",
    "scan.iterations", "scan.nonconverged", "metric_flags", "cli.rc",
}
CONTRACTS = ("bit", "kernel")
SETS = ("perfbench", "acceptance06", "tiny")


# --- digest --------------------------------------------------------------------

def _path_digest(path) -> dict:
    return {"grid": path.grid.tolist(), "msfe": path.msfe.tolist(),
            "chosen_index": path.chosen_index, "solves": path.solves,
            "iterations": path.iterations, "nonconverged": path.nonconverged,
            "kkt_max": path.kkt_max}


def _report_digest(report, frame) -> dict:
    from hydrovarx import METRIC_ORDER, FittedModel, leakage_audit

    model, series, line = report.model, report.forecast, report.regression
    doc = model.to_dict()
    return {
        "lambda_path": _path_digest(report.lambda_path),
        "model": {"lambda": model.lam, "support": list(model.support),
                  "n_iter": list(model.n_iter), "converged": model.converged,
                  "coeffs": model.coeffs.tolist(), "nu": model.nu.tolist(),
                  "phi": model.phi.tolist(), "beta": model.beta.tolist(),
                  "scaled_coeffs": model.scaled_coeffs.tolist(),
                  "scaled_intercept": model.scaled_intercept.tolist(),
                  "sigma2": model.sigma2,
                  "round_trip": FittedModel.from_dict(
                      json.loads(json.dumps(doc))).to_dict() == doc},
        "forecast": {"predicted": series.predicted.tolist(),
                     "se": series.se.tolist()},
        "metrics": {key: [m.values[key] for m in report.metrics]
                    for key in METRIC_ORDER},
        "metric_flags": [[m.flags.get(key, "") for key in METRIC_ORDER]
                         for m in report.metrics],
        "regression": {"slope": line.slope.tolist(),
                       "intercept": line.intercept.tolist()},
        "audit": leakage_audit(report, frame),
    }


def _scan_digest(scan) -> dict:
    return {"candidates": [list(c) for c in scan.candidates],
            "bic": scan.bic.tolist(), "lambdas": scan.lambdas.tolist(),
            "chosen": list(scan.chosen), "solves": scan.solves,
            "iterations": scan.iterations, "nonconverged": scan.nonconverged,
            "kkt_max": scan.kkt_max}


def _workloads():
    """``perfbench/workloads.py``, read from this checkout; it imports the
    hydrovarx already on ``sys.path``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _perfbench(seeds):
    from hydrovarx import ModelSpec, run_pipeline, select_order, simulate

    wl = _workloads()
    for name, w in wl.WORKLOADS.items():
        for seed in seeds:
            for i in range(w.pool):
                frame, _ = simulate(w.synth_spec(seed * w.pool + i))
                key = f"{name}/seed{seed}/{i}"
                if w.kind == "order_scan":
                    scan = select_order(frame, w.p_range, w.s_range)
                    spec = ModelSpec(p=scan.chosen_p, s=scan.chosen_s)
                    report = run_pipeline(frame, spec)
                    yield key, {"scan": _scan_digest(scan),
                                **_report_digest(report, frame)}
                    continue
                spec = ModelSpec(p=w.p, s=w.s, grid=w.grid, refit=w.refit,
                                 refit_every=1)
                yield key, _report_digest(run_pipeline(frame, spec), frame)


def _noise_frame(seed):
    """Acceptance 06's white-noise series: 400 daily values from 2001-01-01."""
    from hydrovarx import Column, TimeSeriesFrame

    values = np.random.default_rng(1000 + seed).normal(size=(400, 1))
    dates = np.datetime64("2001-01-01", "D") + np.arange(400)
    return TimeSeriesFrame(dates, values, np.zeros((400, 0)),
                           (Column("Y1", role="target"),))


def _acceptance06():
    from hydrovarx import SynthSpec, select_order, simulate

    for seed in range(20):
        frame, _ = simulate(SynthSpec(n=700, phi=np.array([0.5, 0.3]),
                                      beta=np.array([[[0.9]], [[0.0]]]),
                                      noise_sd=1.0, seed=seed))
        scan = select_order(frame, range(1, 4), range(0, 3))
        yield f"acceptance06/strong/{seed}", {"scan": _scan_digest(scan)}
    for seed in range(20):
        scan = select_order(_noise_frame(seed), range(1, 5), [0])
        yield f"acceptance06/noise/{seed}", {"scan": _scan_digest(scan)}


def _tiny():
    from hydrovarx import ModelSpec, SynthSpec, run_pipeline, select_order, simulate

    frame, _ = simulate(SynthSpec(n=120, phi=np.array([0.6]),
                                  beta=np.array([[[0.8]]]), noise_sd=0.5,
                                  seed=3))
    grid = tuple(np.geomspace(0.5, 50.0, 4))
    for standardize, tag in ((True, ""), (False, "-raw")):
        for refit in ("fixed", "expanding"):
            spec = ModelSpec(p=2, s=1, grid=grid, refit=refit, refit_every=3,
                             standardize=standardize)
            yield (f"tiny/{refit}{tag}",
                   _report_digest(run_pipeline(frame, spec), frame))
        scan = select_order(frame, [1, 2], [0, 1],
                            ModelSpec(grid=grid, standardize=standardize))
        yield f"tiny/scan{tag}", {"scan": _scan_digest(scan)}
    yield from _cli_runs()


#: simulate flags per target count k
_CLI_DATA = {
    1: ["--k", "1", "--phi", "0.6", "--beta", "0.8"],
    2: ["--k", "2", "--phi", "0.5,0.1,0.2,0.4", "--beta", "0.8,-0.5"],
}
#: simulate-only runs, so that each branch of simulate's recursion (k = 1
#: and k >= 2, iid and AR(1) drivers) writes a hashed file
_CLI_SIMULATE_ONLY = {
    "k1-iid": ["--k", "1", "--m", "1", "--p", "2", "--s", "2",
               "--phi", "0.5,0.2", "--beta", "0.8,-0.3", "--nu", "-0.5",
               "--exog-mode", "iid"],
    "k3-ar1": ["--k", "3", "--m", "2", "--p", "2", "--s", "2",
               "--phi", "0.4,0.1,0,0,0.3,0.1,0.1,0,0.2,0.1,0,0,0,0.1,0,0,0,0.1",
               "--beta", "0.5,0,0,-0.3,0.2,0.1,0.1,0,0,0,0,0.2",
               "--nu", "1,-1,0", "--exog-mode", "ar1", "--exog-rho", "-0.4"],
}
#: (run name, command) run on each simulated set; ``{k}`` is its directory
_CLI_RUNS = (
    ("fit-fixed", "fit"),
    ("fit-expanding", "fit --refit expanding --refit-every 5"),
    ("fit-growing", "fit --season growing"),
    ("fit-raw", "fit --no-standardize"),
    ("evaluate", "evaluate --model {k}/fit-fixed/model.json"),
    ("evaluate-expanding", "evaluate --model {k}/fit-expanding/model.json"),
    ("evaluate-raw", "evaluate --model {k}/fit-raw/model.json"),
    ("ablate", "ablate --drop x1"),
    ("select-order", "select-order --p-range 1:3 --s-range 0:1"),
)


def _cli_runs():
    """Run the command-line set in a temporary working directory and yield
    each run's exit code and the sha256 of every file it wrote."""
    from hydrovarx.cli import main as cli

    def run(name, argv):
        with contextlib.redirect_stderr(io.StringIO()):  # edge-lambda warnings
            rc = cli(argv)
        out = Path(name)
        hashes = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                  for f in sorted(out.iterdir())} if out.is_dir() else {}
        return f"tiny/cli/{name}", {"cli": {"rc": rc, "sha256": hashes}}

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for k, flags in _CLI_DATA.items():
                yield run(f"k{k}/simulate", [
                    "simulate", "--out", f"k{k}/simulate", "--n", "730",
                    "--m", "1", "--p", "1", "--s", "1", *flags,
                    "--noise-sd", "0.5", "--seed", "7"])
                common = ["--input", f"k{k}/simulate/synth.csv",
                          "--target", ",".join(f"Y{i + 1}" for i in range(k)),
                          "--p", "2", "--s", "1", "--grid", "0.5:50:4"]
                for name, command in _CLI_RUNS:
                    argv = command.format(k=f"k{k}").split()
                    yield run(f"k{k}/{name}",
                              [*argv, *common, "--out", f"k{k}/{name}"])
            for name, flags in _CLI_SIMULATE_ONLY.items():
                yield run(f"{name}/simulate", [
                    "simulate", "--out", f"{name}/simulate", "--n", "730",
                    *flags, "--seed", "7"])
        finally:
            os.chdir(home)


def digest(sets, seeds) -> dict:
    runs = {"perfbench": lambda: _perfbench(seeds),
            "acceptance06": _acceptance06, "tiny": _tiny}
    return {"sets": list(sets), "seeds": list(seeds),
            "datasets": {key: entry for name in sets for key, entry in runs[name]()}}


# --- compare -------------------------------------------------------------------

def _flatten(entry: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in entry.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, name + "."))
        else:
            out[name] = value
    return out


def _deviation(old, new, rule):
    """(equal under ``rule``, largest |new - old|, largest relative to
    max(1, |old|)) for one field of one dataset."""
    a, b = np.asarray(old), np.asarray(new)
    if a.shape != b.shape:
        return False, np.inf, np.inf
    if a.dtype.kind not in "biuf" or b.dtype.kind not in "biuf":
        same = a.tolist() == b.tolist()
        return same, 0.0 if same else np.inf, 0.0 if same else np.inf
    a, b = a.astype(float), b.astype(float)
    nan = np.isnan(a) & np.isnan(b)
    with np.errstate(invalid="ignore"):
        d = np.where(nan, 0.0, np.abs(b - a))
    d = np.where(np.isnan(d), np.inf, d)
    rel = d / np.maximum(1.0, np.abs(np.where(nan, 0.0, a)))
    if rule == "exact":
        ok = bool(np.all(nan | ((a == b) & (np.signbit(a) == np.signbit(b)))))
    else:
        ok = bool(np.all(rel <= KERNEL_TOL))
    return ok, float(d.max(initial=0.0)), float(rel.max(initial=0.0))


def _rule(field: str, contract: str) -> str:
    if (contract == "bit" or field in KERNEL_EXACT
            or field.startswith(("audit.", "cli.sha256."))):
        return "exact"
    return f"rel {KERNEL_TOL:g}"


def compare(old: dict, new: dict, contract: str, out=None) -> bool:
    """Print the per-field deviations of ``new`` from ``old`` to ``out``
    (None: standard output); True when ``contract`` holds."""
    out = out or sys.stdout
    old_sets, new_sets = old["datasets"], new["datasets"]
    shared = [key for key in old_sets if key in new_sets]
    lonely = sorted(set(old_sets) ^ set(new_sets))
    stats: dict[str, list] = {}  # field -> [rule, differing, n, max |d|, max rel, ok]
    for key in shared:
        a, b = _flatten(old_sets[key]), _flatten(new_sets[key])
        for field in sorted(set(a) | set(b)):
            rule = _rule(field, contract)
            row = stats.setdefault(field, [rule, 0, 0, 0.0, 0.0, True])
            row[2] += 1
            if field in a and field in b:
                ok, dev, rel = _deviation(a[field], b[field], rule)
            else:
                ok, dev, rel = False, np.inf, np.inf
            row[1] += dev > 0.0 or not ok
            row[3], row[4] = max(row[3], dev), max(row[4], rel)
            row[5] &= ok
    holds = not lonely and all(row[5] for row in stats.values())
    print(f"contract {contract}: {len(shared)} datasets in both digests, "
          f"{len(lonely)} in only one", file=out)
    for key in lonely:
        print(f"  only in {'old' if key in old_sets else 'new'}: {key}", file=out)
    print(f"{'field':32} {'rule':10} {'differ':>9} {'max |d|':>10} "
          f"{'max rel':>10}  verdict", file=out)
    for field, (rule, differ, n, dev, rel, ok) in stats.items():
        print(f"{field:32} {rule:10} {f'{differ}/{n}':>9} {dev:10.3g} "
              f"{rel:10.3g}  {'ok' if ok else 'FAIL'}", file=out)
    print("HOLDS" if holds else "FAILS", file=out)
    return holds


# --- command line ----------------------------------------------------------------

def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    dg = sub.add_parser("digest", help="run one source tree, write its digest")
    dg.add_argument("--out", required=True, help="digest JSON to write")
    dg.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the hydrovarx package to run")
    dg.add_argument("--set", dest="sets", action="append", choices=SETS,
                    help="dataset set (repeatable; default perfbench and "
                         "acceptance06)")
    dg.add_argument("--seeds", type=_seeds, default=_seeds("0-3"),
                    help="perfbench seeds, as lo-hi or one seed (default 0-3)")
    cp = sub.add_parser("compare", help="check a new digest against an old one")
    cp.add_argument("old")
    cp.add_argument("new")
    cp.add_argument("--contract", choices=CONTRACTS, required=True)
    args = ap.parse_args(argv)

    if args.mode == "digest":
        sys.path.insert(0, args.src)
        result = digest(args.sets or ["perfbench", "acceptance06"], args.seeds)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"{len(result['datasets'])} datasets -> {args.out}")
        return 0
    old, new = (json.loads(Path(p).read_text()) for p in (args.old, args.new))
    return 0 if compare(old, new, args.contract) else 1


if __name__ == "__main__":
    sys.exit(main())
