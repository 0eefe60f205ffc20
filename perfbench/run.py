"""hydrovarx benchmark: one process, one caller, a closed loop of ops.

Run from the repository root:

    python3 perfbench/run.py --workload fit_audit_daily --seed 0 --seconds 30 --trace 0

A pool of datasets is generated from ``--seed`` (``workloads.py``); the loop
then calls the workload's op back to back, cycling over the pool, for about
``--seconds`` seconds, and checks every op with the correctness gate
(``gate.py``). ``setup_s`` is the median of three fresh processes that each
import the program and generate the pool. With ``--trace 0`` nothing is
patched and the end-to-end metrics are reported.

Times are paced (``pace.py``): the host's cores change speed by up to 1.6x
from second to second, so every timed interval is converted to seconds at a
fixed reference speed, measured by sampling this thread's speed while it
runs. ``op_s_p50``, ``ops_per_s``, ``setup_s`` and the per-layer seconds
are in those seconds; the plain wall figures and the machine's slowdown are
printed beside them.

With ``--trace 1`` untraced and traced cycles over the pool alternate
(``spans.py``); the per-layer metrics are reported, per op, and the spans
(in wall seconds) are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS and OpenMP pools are pinned to one thread before numpy is imported, so
the figures measure the program and not the scheduler.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import pace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
#: percentiles considered for the tail figure, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


class UsageError(Exception):
    """The benchmark cannot run here as asked."""


def _import_program():
    """Import the program from this checkout's sources (fails if absent)."""
    if not (SRC / "hydrovarx" / "__init__.py").is_file():
        raise UsageError(f"no hydrovarx sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gate
    import spans
    import workloads
    return gate, spans, workloads


def _setup_probe(workload_name: str, seed: int, tiny: bool) -> str:
    """Import time plus input generation, timed in this fresh process;
    returns "<paced seconds> <wall seconds>"."""
    work = OUT / f"setup-{os.getpid()}"
    try:
        # numpy is not loaded yet, so the pacer's kernel is plain Python
        with pace.Pacer("python") as pacer:
            t0 = time.perf_counter()
            _, _, wl = _import_program()
            workload = wl.WORKLOADS[workload_name]
            if tiny:
                workload = wl.tiny(workload)
            wl.make_inputs(workload, seed, work)
            t1 = time.perf_counter()
        return f"{pacer.seconds(t0, t1)!r} {t1 - t0!r}"
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _child_setup_seconds(workload_name: str, seed: int,
                         tiny: bool) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    paced, wall = done.stdout.strip().splitlines()[-1].split()
    return float(paced), float(wall)


def tail_percentile(durations):
    """(percentile, value) of the highest percentile with >= 10 ops beyond it."""
    n = len(durations)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            cuts = statistics.quantiles(durations, n=1000, method="inclusive")
            return pct, cuts[int(round(pct * 10)) - 1]
    return None


class Loop:
    """Closed loop of ops cycling over the dataset pool, each op gated."""

    def __init__(self, workload, pool, gates, wl, tracer=None):
        self.workload, self.pool, self.gates, self.wl = workload, pool, gates, wl
        self.tracer = tracer
        self.windows: list[tuple[int, float, float]] = []  # (dataset, t0, t1)
        self.wall: list[float] = []
        # paced seconds per op, filled in by ``pace``
        self.durations: list[float] = []
        self.by_dataset: list[list[float]] = [[] for _ in pool]
        self.verdicts = []
        self.failures: list[str] = []

    def pace(self, pacer) -> None:
        """Convert every op's wall interval to paced seconds."""
        for index, t0, t1 in self.windows:
            took = pacer.seconds(t0, t1)
            self.durations.append(took)
            self.by_dataset[index].append(took)

    def cycle(self) -> float:
        """One op on each dataset of the pool, so every dataset weighs the
        same in the figures; returns the seconds the ops took."""
        return sum(self._one(index) for index in range(len(self.pool)))

    def op_seconds(self) -> float:
        """Median seconds per op on each dataset, averaged over the pool.

        The datasets of a pool cost different amounts of solver work, so
        the median of all ops together would sit in a gap between datasets
        and jump with noise; per-dataset medians do not.
        """
        return statistics.fmean(statistics.median(d) for d in self.by_dataset)

    def run(self, seconds: float) -> None:
        """As many whole cycles as fit in ``seconds`` of wall time (at
        least one)."""
        start = time.perf_counter()
        while True:
            took = self.cycle()
            if time.perf_counter() - start + took > seconds:
                break

    def _one(self, index: int) -> float:
        wl, tracer = self.wl, self.tracer
        inputs = self.pool[index]
        wl.prepare_op(self.workload, inputs)
        first_span = len(tracer.spans) if tracer else 0
        error = result = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = wl.run_op(self.workload, inputs)
            else:
                with tracer.span("op", len(self.wall)):
                    result = wl.run_op(self.workload, inputs)
        except Exception as exc:  # an op that raises is a failed op
            error = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        took = t1 - t0
        self.windows.append((index, t0, t1))
        self.wall.append(took)
        if error is None and tracer is not None:
            leaks = sum(tracer.infos("pipeline.leakage_audit", since=first_span))
            if leaks:
                error = f"leakage audit counted {leaks} violations"
        if error is None:
            try:
                self.verdicts.append(self.gates[index].check(result))
            except Exception as exc:  # any breach, or output it cannot read
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(
                f"op {len(self.wall) - 1} (dataset {index}): {error}")
        return took


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, setup_repeats: int = SETUP_REPEATS):
    """Run one workload; returns (result dict, human-readable lines)."""
    gate_mod, spans, wl = _import_program()
    if workload_name not in wl.WORKLOADS:
        raise UsageError(f"unknown workload {workload_name!r}; "
                         f"choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[workload_name]
    references = [None] * workload.pool
    if tiny:
        workload = wl.tiny(workload)
    elif seed == wl.DEFAULT_SEED:
        references = gate_mod.load_reference()[workload_name]

    work = OUT / f"{workload_name}-{os.getpid()}"
    try:
        setup = [_child_setup_seconds(workload_name, seed, tiny)
                 for _ in range(setup_repeats)]
        pool = wl.make_inputs(workload, seed, work / "input")

        # one untimed op on small inputs first, so lazy imports are done
        warm = wl.tiny(wl.WORKLOADS[workload_name])
        warm_inputs = wl.make_inputs(warm, seed, work / "warm")[0]
        wl.prepare_op(warm, warm_inputs)
        wl.run_op(warm, warm_inputs)

        gates = [gate_mod.Gate(workload, inputs, ref)
                 for inputs, ref in zip(pool, references)]
        plain = Loop(workload, pool, gates, wl)
        traced = None
        pacer = pace.Pacer().start()
        try:
            if trace:
                # untraced and traced cycles alternate, and so does which of
                # the two goes first, so the order does not bias
                # trace.overhead_frac
                tracer = spans.Tracer()
                traced = Loop(workload, pool, gates, wl, tracer)
                start = time.perf_counter()
                for pair in itertools.count():
                    took = 0.0
                    for loop in (plain, traced) if pair % 2 == 0 else (traced, plain):
                        if loop is traced:
                            tracer.install()
                        try:
                            took += loop.cycle()
                        finally:
                            tracer.restore()
                    if time.perf_counter() - start + took > seconds:
                        break
            else:
                plain.run(seconds)
        finally:
            pacer.stop()
        if trace:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{workload_name}-seed{seed}.tsv.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    loops = [plain] + ([traced] if traced else [])
    for loop in loops:
        loop.pace(pacer)
    attempted = sum(len(lp.durations) for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    verdicts = [v for lp in loops for v in lp.verdicts]
    lines = [f"hydrovarx benchmark: workload {workload_name}, seed {seed}, "
             f"{seconds:g} s, trace {int(trace)}" + (", tiny inputs" if tiny else "")]
    lines += [f"  FAILED {f}" for f in failures]
    lines.append(f"  error_rate = {len(failures) / attempted:.4g} "
                 f"({len(failures)} of {attempted} ops failed)")

    if trace:
        # span ends in paced seconds too, so layer seconds are steady as well
        paced_spans = [rec[:spans.START] + [pacer.work_at(rec[spans.START]),
                                            pacer.work_at(rec[spans.END])]
                       + rec[spans.END + 1:] for rec in tracer.spans]
        metrics = spans.layer_metrics(paced_spans, "op")
        traced_kkt = [v.kkt for v in traced.verdicts]
        metrics["solver.kkt_max"] = max(traced_kkt) if traced_kkt else 0.0
        metrics["trace.overhead_frac"] = traced.op_seconds() / plain.op_seconds()
        metrics["pace.slowdown"] = pacer.slowdown()
        units = spans.UNITS
        lines.append(f"  per op, over {len(traced.durations)} traced ops "
                     f"(untraced: {len(plain.durations)} ops)")
    else:
        d = plain.durations
        rmse = statistics.median(v.test_rmse for v in verdicts) if verdicts else 0.0
        metrics = {
            "setup_s": statistics.median(paced for paced, _ in setup),
            "ops_per_s": len(d) / sum(d),
            "op_s_p50": plain.op_seconds(),
            "test_rmse_rel": (statistics.median(v.test_rmse_rel for v in verdicts)
                              if verdicts else 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        lines.append(f"  setup_s over {len(setup)} set-ups; op timings over {len(d)} ops")
        medians = ", ".join(f"{statistics.median(x):.4g}" for x in plain.by_dataset)
        lines.append(f"  op seconds (paced): min {min(d):.4g}, max {max(d):.4g}, "
                     f"median per dataset {medians}")
        lines.append(f"  wall: median op {statistics.median(plain.wall):.4g} s, "
                     f"ops_per_s {len(d) / sum(plain.wall):.4g} 1/s, setup_s "
                     f"{statistics.median(wall for _, wall in setup):.4g} s; "
                     f"machine slowdown {pacer.slowdown():.3f}x")
        tail = tail_percentile(d)
        if tail is not None:
            lines.append(f"  op_s_tail = p{tail[0]:g} {tail[1]:.6g} s "
                         f"({len(d)} ops)")
        else:
            lines.append(f"  op_s_tail omitted: {len(d)} ops leave fewer than "
                         "10 beyond p75")
        lines.append(f"  test_rmse = {rmse:.6g} (target units)")
    for name, value in metrics.items():
        lines.append(f"  {name} = {value:.6g} {units[name]}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s",
                    "test_rmse_rel": "ratio", "peak_rss_mb": "MB"}




def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs (smoke test; no reference check)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(_setup_probe(args.workload, args.seed, args.tiny))
            return 0
        result, lines = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.tiny)
    except (UsageError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc!r}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
