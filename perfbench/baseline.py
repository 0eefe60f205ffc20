"""Record a baseline: every workload on several seeds, with the machine.

    python3 perfbench/baseline.py --seeds 1-10 --traced-seeds 1-3 \\
        --repeat-seeds 0-9 --out perfbench/BASELINE.json

Each run is a separate ``run.py`` process, made one after another. For each
end-to-end metric the file keeps the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median. The spread is printed beside the
metric's bound from ``BENCHMARK.json``; a steady benchmark keeps it below a
third of the bound. Traced runs add the per-layer medians. A repeat set,
run after all the others, shows how far each median moves between two sets
of runs of the same code (``shift``: the change in the metric's worse
direction, as a share of the first median).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seed_range(text: str) -> list[int]:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import numpy
    import scipy

    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seeds", default="1-3")
    ap.add_argument("--repeat-seeds", default="")
    ap.add_argument("--workloads", help="comma-separated; default: all")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    _, _, wl = run._import_program()
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    names = args.workloads.split(",") if args.workloads else list(whys)
    seeds, traced_seeds = _seed_range(args.seeds), _seed_range(args.traced_seeds)
    repeat_seeds = _seed_range(args.repeat_seeds)

    doc = {"date": time.strftime("%Y-%m-%d"), "machine": machine(),
           "threads": {var: "1" for var in run.THREAD_VARS},
           "run_seconds": seconds, "seeds": seeds, "traced_seeds": traced_seeds,
           "workloads": {}}
    for name in names:
        plain = [run_once(name, seed, seconds, 0) for seed in seeds]
        traced = [run_once(name, seed, seconds, 1) for seed in traced_seeds]
        workload = wl.WORKLOADS[name]
        entry = {"why": whys[name], "params": workload.params(),
                 "layers_predicted_to_move": list(workload.moves),
                 "attempted": sum(r["attempted"] for r in plain + traced),
                 "failed": sum(r["failed"] for r in plain + traced),
                 "end_to_end": {}, "per_layer": {}}
        print(f"{name}: {entry['failed']} of {entry['attempted']} ops failed")
        for metric in bench["end_to_end"]:
            key = metric["name"]
            stats = summary([r["metrics"][key]["value"] for r in plain])
            entry["end_to_end"][key] = {"unit": metric["unit"],
                                        "bound": metric["bound"], **stats}
            steady = "steady" if stats["spread"] < metric["bound"] / 3 else "NOT steady"
            print(f"  {key:16s} median {stats['median']:.6g} {metric['unit']:6s} "
                  f"spread {stats['spread']:.4f} bound {metric['bound']} {steady}")
        if traced:
            for metric in bench["per_layer"]:
                key = metric["name"]
                values = [r["metrics"][key]["value"] for r in traced]
                entry["per_layer"][key] = {"unit": metric["unit"],
                                           "median": statistics.median(values),
                                           "values": values}
        doc["workloads"][name] = entry
    if repeat_seeds:
        doc["repeat"] = {"seeds": repeat_seeds, "workloads": {}}
        for name in names:
            runs = [run_once(name, seed, seconds, 0) for seed in repeat_seeds]
            entry = {"attempted": sum(r["attempted"] for r in runs),
                     "failed": sum(r["failed"] for r in runs)}
            print(f"{name} repeat: {entry['failed']} of {entry['attempted']} ops failed")
            for metric in bench["end_to_end"]:
                key = metric["name"]
                stats = summary([r["metrics"][key]["value"] for r in runs])
                first = doc["workloads"][name]["end_to_end"][key]["median"]
                sign = 1.0 if metric["better"] == "lower" else -1.0
                stats["shift"] = sign * (stats["median"] - first) / first
                entry[key] = {"unit": metric["unit"], "bound": metric["bound"], **stats}
                print(f"  {key:16s} median {stats['median']:.6g} {metric['unit']:6s} "
                      f"spread {stats['spread']:.4f} shift {stats['shift']:+.4f} "
                      f"bound {metric['bound']}")
            doc["repeat"]["workloads"][name] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
