"""Workload definitions: seeded inputs and the one call each op makes.

Every workload turns ``--seed`` into a pool of synthetic daily
datasets with ``hydrovarx.simulate`` (fully seeded VARX processes with AR(1)
drivers), and hands the program only a frame, or the CSV written from it.
An op is one call into the program's public API on one dataset; the ops of a
run cycle through the pool, so the solver work that varies from dataset to
dataset averages out within a run. ``run_op`` returns what the correctness
gate needs to judge the op.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import hydrovarx.cli as cli
import hydrovarx.pipeline as pipeline
import hydrovarx.selection as selection
from hydrovarx.frame import write_csv
from hydrovarx.simulate import SynthSpec, simulate

DEFAULT_SEED = 0
#: datasets generated per run unless a workload sets ``pool``; dataset i of
#: seed s is simulated with seed s * pool + i
POOL = 4
#: lambda grid of the expanding workload: the default range, 4 points, so an
#: op is well under a second and a run holds a whole pool of 16 of them
EXPANDING_GRID = tuple(np.geomspace(10.0, 500.0, 4))

# one target with two AR lags, driven by two AR(1) inputs at lags 1 and 2
_DAILY_PHI = np.array([0.55, 0.2])
_DAILY_BETA = np.array([[[0.6, -0.4]], [[0.2, 0.0]]])

# two coupled targets, six AR(1) drivers of which four matter
_WIDE_PHI = np.array([[[0.5, 0.1], [0.0, 0.4]],
                      [[0.15, 0.0], [0.1, 0.2]]])
_WIDE_BETA = np.zeros((2, 2, 6))
_WIDE_BETA[0, 0, 0] = 0.5
_WIDE_BETA[0, 0, 2] = -0.3
_WIDE_BETA[0, 1, 1] = 0.4
_WIDE_BETA[0, 1, 4] = 0.2
_WIDE_BETA[1, 0, 0] = 0.2


@dataclass(frozen=True)
class Workload:
    """One named input shape plus the program call an op makes on it."""

    name: str
    kind: str                     # "cli_fit" | "pipeline" | "order_scan"
    n: int
    phi: np.ndarray
    beta: np.ndarray
    noise_sd: float
    exog_rho: float
    target_names: tuple[str, ...]
    exog_names: tuple[str, ...]
    p: int = 0                    # fixed lag orders (cli_fit, pipeline)
    s: int = 0
    refit: str = "fixed"
    grid: tuple | None = None     # None: the program's default grid
    p_range: tuple[int, ...] = ()  # candidate orders (order_scan)
    s_range: tuple[int, ...] = ()
    moves: tuple[str, ...] = ()   # layers predicted to move this workload
    pool: int = POOL              # datasets per run

    def synth_spec(self, seed: int) -> SynthSpec:
        return SynthSpec(n=self.n, phi=self.phi, beta=self.beta,
                         noise_sd=self.noise_sd, exog_mode="ar1",
                         exog_rho=self.exog_rho, seed=seed,
                         target_names=self.target_names,
                         exog_names=self.exog_names)

    def params(self) -> dict:
        """Plain description of the inputs, for the recorded baseline."""
        d = {"kind": self.kind, "n": self.n, "k": len(self.target_names),
             "m": len(self.exog_names), "noise_sd": self.noise_sd,
             "exog": f"AR(1), rho={self.exog_rho}", "refit": self.refit,
             "grid": ("default 24-point log grid on [10, 500]" if self.grid is None
                      else f"{len(self.grid)}-point log grid on [10, 500]"),
             "datasets_per_run": self.pool}
        if self.kind == "order_scan":
            d["p_range"] = list(self.p_range)
            d["s_range"] = list(self.s_range)
        else:
            d["p"], d["s"] = self.p, self.s
        return d


WORKLOADS = {
    "fit_audit_daily": Workload(
        name="fit_audit_daily", kind="cli_fit", n=3650,
        phi=_DAILY_PHI, beta=_DAILY_BETA, noise_sd=1.0, exog_rho=0.6,
        target_names=("WTD",), exog_names=("Rainfall", "PET"), p=8, s=4,
        moves=("design.lookahead_violations", "pipeline.leakage_audit",
               "frame.load_csv", "solver.fit", "cli.main")),
    "expanding_refit": Workload(
        name="expanding_refit", kind="pipeline", n=600,
        phi=_DAILY_PHI, beta=_DAILY_BETA, noise_sd=1.0, exog_rho=0.6,
        target_names=("WTD",), exog_names=("Rainfall", "PET"), p=4, s=2,
        refit="expanding", grid=EXPANDING_GRID,
        moves=("solver.fit", "design.standardize", "design.take",
               "selection.select_lambda", "solver.predict_rows"),
        # solver work varies by about 12% (sd) from dataset to dataset at
        # n=600, against about 5% on the other workloads, so it takes a
        # larger pool for the mean over a run to vary by 3% from seed to seed
        pool=16),
    "order_scan_wide": Workload(
        name="order_scan_wide", kind="order_scan", n=3650,
        phi=_WIDE_PHI, beta=_WIDE_BETA, noise_sd=1.0, exog_rho=0.5,
        target_names=("Y1", "Y2"), exog_names=tuple(f"x{j}" for j in range(1, 7)),
        p_range=tuple(range(1, 7)), s_range=tuple(range(0, 4)),
        moves=("solver.fit", "design.build_design", "selection.select_order",
               "selection.select_lambda")),
}

# the same calls on small inputs, for warm-up and the self-tests
TINY = {
    "fit_audit_daily": dict(n=240, p=3, s=2),
    "expanding_refit": dict(n=90, p=2, s=1),
    "order_scan_wide": dict(n=240, p_range=(1, 2), s_range=(0, 1)),
}


def tiny(workload: Workload) -> Workload:
    """The workload's call on a small input of the same shape."""
    return replace(workload, **TINY[workload.name])


@dataclass
class Inputs:
    """One dataset of the pool: the frame, its truth, and (CLI) the CSV path."""

    frame: object
    truth: object
    csv_path: Path | None
    out_dir: Path | None


def make_inputs(workload: Workload, seed: int, work_dir: Path) -> list[Inputs]:
    """Generate the run's dataset pool; the CLI workload also writes CSVs."""
    pool = []
    for i in range(workload.pool):
        frame, truth = simulate(workload.synth_spec(seed * workload.pool + i))
        csv_path = out_dir = None
        if workload.kind == "cli_fit":
            data_dir = work_dir / f"d{i}"
            data_dir.mkdir(parents=True, exist_ok=True)
            csv_path = data_dir / "input.csv"
            write_csv(frame, csv_path)
            out_dir = data_dir / "fit"
        pool.append(Inputs(frame=frame, truth=truth, csv_path=csv_path,
                           out_dir=out_dir))
    return pool


def prepare_op(workload: Workload, inputs: Inputs) -> None:
    """Untimed step before an op: clear the CLI's output directory, so an
    op that writes nothing cannot pass on stale artifacts."""
    if inputs.out_dir is not None and inputs.out_dir.exists():
        shutil.rmtree(inputs.out_dir)


def run_op(workload: Workload, inputs: Inputs):
    """One op. Names are looked up on the modules at call time, so a traced
    run sees its rebound wrappers and an untraced run sees the originals."""
    if workload.kind == "cli_fit":
        return cli.main(["fit", "--input", str(inputs.csv_path),
                         "--target", ",".join(workload.target_names),
                         "--out", str(inputs.out_dir),
                         "--p", str(workload.p), "--s", str(workload.s)])
    if workload.kind == "pipeline":
        spec = pipeline.ModelSpec(p=workload.p, s=workload.s, grid=workload.grid,
                                  refit=workload.refit, refit_every=1)
        return pipeline.run_pipeline(inputs.frame, spec)
    scan = selection.select_order(inputs.frame, workload.p_range,
                                  workload.s_range)
    report = pipeline.run_pipeline(
        inputs.frame, pipeline.ModelSpec(p=scan.chosen_p, s=scan.chosen_s))
    return scan, report
