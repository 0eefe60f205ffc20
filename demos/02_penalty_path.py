"""
Walking the penalty path
========================

How the regularization weight is chosen: every lambda on the grid is fitted
on the first third of the data and scored by its mean squared one-step
forecast error over the second third. Heavier penalties mean smaller
supports; the winner balances fit against parsimony, and ties go to the
heavier penalty.
"""

import numpy as np

from hydrovarx import (
    LagSpec,
    ModelSpec,
    Penalty,
    SplitPlan,
    SynthSpec,
    build_design,
    fit,
    select_lambda,
    simulate,
)

spec = SynthSpec(n=900, phi=np.array([0.5]),
                 beta=np.array([[[0.9, 0.0, 0.4, 0.0]]]),
                 noise_sd=0.6, seed=11)
frame, truth = simulate(spec)
print("true support:", ", ".join(truth.support))

design = build_design(frame, LagSpec(p=2, s=2))
split = SplitPlan(design.n_eff)
print(f"{design.n_eff} usable rows -> train {split.T1}, "
      f"validate {split.T2 - split.T1}, test {split.T - split.T2}")

# --- score a log-spaced grid on the validation third ---------------------------
grid = np.geomspace(1.0, 400.0, 12)
path = select_lambda(design, split, ModelSpec(alpha=0.5, grid=grid))

print("\n  lambda      MSFE   support")
for lam, msfe in zip(path.grid, path.msfe):
    model = fit(design.take(slice(0, split.T1)), Penalty(lam, 0.5))
    marker = "  <- chosen" if lam == path.chosen_lambda else ""
    print(f"{lam:8.2f}  {msfe:8.4f}   {len(model.support):3d}{marker}")

# --- the chosen model, refitted on train+validation ----------------------------
final = fit(design.take(slice(0, split.T2)),
            Penalty(path.chosen_lambda, 0.5))
print(f"\nrefit on first two thirds keeps {len(final.support)} columns:")
print("  " + ", ".join(final.support))
print("residual variance estimate:", np.round(final.sigma2, 4))
