"""Paced A/B of two source trees on the perfbench workloads.

Run from the repository root:

    python tools/abtest.py --parent ../old --change ../new \
        --plan expanding_refit:301-310 --plan fit_audit_daily:311-312 \
        --out BENCH_23.json --change-text "..." --claim "..."

``--parent`` and ``--change`` are checkouts (whole trees, each with its own
``perfbench/`` and ``src/``). Every ``--plan WORKLOAD:SEEDS`` runs one pair
per seed: ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0``, T being ``BENCHMARK.json``'s ``run_seconds``, in each
checkout, one run at a time, with the side that runs first alternating
from pair to pair (the parent first in the first pair). The last line
each run prints is its result.

The output has the keys ``change``, ``command``, ``protocol``, ``host``,
``claim``, ``summary`` and ``runs``, and is rewritten after every run, so
an interrupted A/B keeps the pairs it finished. Per workload, ``summary``
holds the seeds, the attempted and failed ops and whether every op was
correct, per side; and per end-to-end metric of ``BENCHMARK.json`` each
side's median, quartiles (``statistics.quantiles``, inclusive) and run
count, the pairs where the change is better or tied, the change's median
relative to the parent's (``median_change_rel``), and the median over pairs
of each pair's change / parent - 1 (``median_pair_rel``). A pair's two runs
are neighbours in time, so the paired figure cancels host drift slower than
one pair, which moves both medians alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    """"301-304" or "301,305" or a mix of both."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _plan(text: str) -> tuple[str, list[int]]:
    workload, sep, seeds = text.partition(":")
    if not sep or not workload:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {text!r}")
    return workload, _seeds(seeds)


def _command(workload: str, seed, seconds: float) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> tuple[int, dict | None]:
    """One perfbench run in ``tree``: its exit code and the result it printed."""
    proc = subprocess.run(_command(workload, seed, seconds), cwd=tree,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


def _stats(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """The summary of ``runs`` per workload; ``metrics`` maps each
    end-to-end metric to the direction that is better ("lower"/"higher")."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [p for p in by_seed.values()
                 if all(p.get(side) is not None for side in SIDES)]
        entry = {"seeds": sorted(by_seed)}
        for key, field in (("attempted_ops", "attempted"), ("failed_ops", "failed")):
            entry[key] = {side: sum(p[side][field] for p in pairs) for side in SIDES}
        entry["correct"] = {side: all(p[side]["correct"] for p in pairs)
                            for side in SIDES}
        for name, better in metrics.items() if pairs else ():
            values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                      for side in SIDES}
            sign = 1.0 if better == "higher" else -1.0
            diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            stats = {side: _stats(values[side]) for side in SIDES}
            entry[name] = {
                **stats,
                "change_better_pairs": sum(d > 0 for d in diffs),
                "tied_pairs": sum(d == 0 for d in diffs),
                "pairs": len(pairs),
                "median_change_rel": (stats["change"]["median"]
                                      / stats["parent"]["median"] - 1.0),
                "median_pair_rel": statistics.median(
                    c / p - 1.0 for p, c in zip(values["parent"], values["change"])),
            }
        summary[workload] = entry
    return summary


def _host() -> str:
    return (f"{platform.machine()} {platform.system()}, {os.cpu_count()} vCPUs, "
            f"Python {platform.python_version()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="changed checkout")
    ap.add_argument("--plan", type=_plan, action="append", required=True,
                    help="WORKLOAD:SEEDS, e.g. expanding_refit:301-310")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--change-text", default="", help="what the change is")
    ap.add_argument("--claim", default="", help="the gain the change claims")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    plans = ", then ".join(f"{w} on seeds {s[0]}-{s[-1]}" for w, s in args.plan)
    doc = {
        "change": args.change_text,
        "command": " ".join(_command("W", "S", seconds)),
        "protocol": (
            "parent commit and change run from separate checkouts, each with "
            f"its own perfbench code; {plans}; each pair alternates which side "
            "runs first, the parent first in the first pair; one run at a time; "
            "times are paced seconds (perfbench/pace.py); quartiles are "
            "statistics.quantiles(method='inclusive'); each entry of 'runs' is "
            "the last line perfbench/run.py printed"),
        "host": _host(),
        "claim": args.claim,
        "summary": {},
        "runs": [],
    }
    for workload, seeds in args.plan:
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                rc, result = run_one(trees[side], workload, seed, seconds)
                doc["runs"].append({"side": side, "workload": workload,
                                    "seed": seed, "trace": 0, "first": order[0],
                                    "result": result, "rc": rc})
                doc["summary"] = summarize(doc["runs"], metrics)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                p50 = result["metrics"]["op_s_p50"]["value"] if result else None
                print(f"{workload} seed {seed} {side}: rc {rc}, op_s_p50 {p50}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
