"""Fit the NPMLE to simulated counts and compare shrinkage rules.

Draws n counts whose means come from a sparse two-point prior (80% zeros,
20% at theta = 5), fits the mixing distribution by maximum likelihood, and
tabulates what each estimator would report for small observed counts next to
the exact posterior mean.  Runs in a couple of seconds.
"""

import numpy as np

from poisson_eb import (
    CountHistogram,
    PriorSpec,
    fit_npmle,
    npmle_eb,
    resolve,
    robbins,
    robbins_truncated,
)

N = 500
SEED = 7

resolved = resolve(PriorSpec("two_point", {"eps": 0.2, "a": 5.0}), p=2.0)
theta, y = resolved.sample_counts(SEED, N)
data = CountHistogram.from_samples(y)

print(f"simulated n = {N} counts; distinct values {data.ys.tolist()}")
print(f"true prior: 0.8 at theta=0, 0.2 at theta=5; sample mean {y.mean():.3f}\n")

fit = fit_npmle(data)
order = np.argsort(fit.prior.weights)[::-1]
print(f"NPMLE fit: {fit.prior.n_atoms} atoms, certificate gap {fit.kkt_gap:.2e}, "
      f"{fit.iterations} weight-solve steps")
for i in order[:4]:
    print(f"    theta = {fit.prior.atoms[i]:7.4f}   weight = {fit.prior.weights[i]:.4f}")
print()

# side-by-side estimates for the first few observable counts
y_show = range(9)
oracle = resolved.oracle_table(max(y_show))
print(f"{'y':>3} {'N(y)':>5} {'oracle':>8} {'npmle':>8} {'robbins':>8} "
      f"{'addone':>8} {'trunc y0=4':>10}")
for yv in y_show:
    n_y = int(data.cnts[data.ys == yv][0]) if yv in data.ys else 0
    plain = robbins(data, yv).value
    addone = robbins(data, yv, addone=True).value
    trunc = robbins_truncated(data, yv, y0=4)
    mix = npmle_eb(fit, yv)
    print(f"{yv:>3} {n_y:>5} {oracle[yv]:>8.3f} {mix:>8.3f} {plain:>8.3f} "
          f"{addone:>8.3f} {trunc:>10.3f}")

print("\nThe mixture rule tracks the oracle's jump from ~0 to ~5; the raw")
print("frequency ratio is erratic wherever N(y) is small, which is exactly")
print("what the truncated variant switches off.")
