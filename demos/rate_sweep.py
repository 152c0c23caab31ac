"""Scaled-down Monte Carlo sweep: density risk and regret vs sample size.

Runs the same harness the acceptance battery uses, but with a quarter-size
n-grid and 8 replicates so it finishes in well under a minute.  One plan
scores both metrics, and both read the same fits: each replicate's NPMLE,
fitted once to its training counts, gives the squared-Hellinger row and the
mixture rule's regret row.  Expect the squared-Hellinger slope near -0.8 and
the regret slopes to separate (the mixture rule falls faster than the
truncated frequency-ratio rule); with this few replicates the fitted slopes
wobble by ~0.1.  The interval printed beside a slope is slope +- 1.96 x its
OLS residual standard error over the four per-n means: 2 degrees of freedom
and no replicate spread, so no 95% CI.
"""

from poisson_eb.experiments import ExperimentPlan, run_plan
from poisson_eb.priors import PriorSpec

N_GRID = (316, 1000, 3162, 10000)   # just over 1.5 decades, enough for a slope
REPS = 8

plan = ExperimentPlan(
    name="demo-rates",
    prior=PriorSpec("heavy_tail", {"p": 2.0}),
    p=2.0,
    n_grid=N_GRID,
    replicates=REPS,
    methods=("npmle", "robbins-trunc"),
    metrics=("hellinger_sq", "individual_regret"),
    seed=11,
)
report = run_plan(plan)
print(f"rate sweep: {len(report.rows)} rows in {report.runtime_seconds:.1f}s")
print("density risk:")
for n, mean in report.mean_by_n("npmle", "hellinger_sq").items():
    print(f"    n = {n:>6}   mean H^2 = {mean:.3e}")
print("regret:")
for method in plan.methods:
    means = report.mean_by_n(method, "individual_regret")
    line = "   ".join(f"{n}: {v:.2e}" for n, v in means.items())
    print(f"    {method:13s} {line}")
for s in report.slopes:
    print(f"    {s.method:13s} {s.metric:17s} slope {s.slope:+.3f}  "
          f"(+-1.96 OLS SE {s.ci_lo:+.3f} .. {s.ci_hi:+.3f})")
