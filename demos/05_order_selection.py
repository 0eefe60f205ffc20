"""
Choosing lag orders with BIC
============================

How many of its own lags does the target need, and how many driver lags?
Scan a grid of candidate orders; each candidate re-selects its penalty on
the validation third and is scored by BIC on the training third, with the
training fit its penalty path already made. All candidates see identical
response rows, so the scores compare cleanly.
"""

import numpy as np

from hydrovarx import ModelSpec, SynthSpec, select_order, simulate

# truth: two autoregressive lags, drivers act with a one-day delay only
spec = SynthSpec(n=900, phi=np.array([0.5, 0.3]),
                 beta=np.array([[[0.9]], [[0.0]]]),
                 noise_sd=1.0, seed=3)
frame, _ = simulate(spec)
print("generating orders: p=2 (0.5, 0.3), s=1 (0.9)")

# every candidate uses the same model settings: here the defaults (alpha
# 0.5, the 24-point lambda grid, fixed refit, calendar lags)
scan = select_order(frame, range(1, 5), range(0, 3), ModelSpec())

print("\n   p  s        BIC     lambda")
for (p, s), b, lam in zip(scan.candidates, scan.bic, scan.lambdas):
    marker = "  <- chosen" if (p, s) == (scan.chosen_p, scan.chosen_s) else ""
    print(f"  {p:2d} {s:2d} {b:10.2f} {lam:10.2f}{marker}")

print(f"\nchosen (p, s) = ({scan.chosen_p}, {scan.chosen_s})")

delta = scan.bic - scan.bic.min()
runners = sorted(zip(delta, scan.candidates))[:3]
print("closest runners-up by BIC gap:")
for gap, (p, s) in runners[1:]:
    print(f"  (p={p}, s={s}) trails by {gap:.2f}")
