"""Compress a prior to few atoms, and watch a Bayes risk diverge.

Act one replaces a several-hundred-atom discretized heavy-tailed prior by a
few dozen atoms chosen so the induced Poisson mixture pmf moves by less than
eta anywhere below M: local moment matching on a partition whose windows
widen quadratically.  Act two evaluates the partial sums of
f(y) Var(theta | y) for a mixing density with a bare 1/a^2 tail: each
doubling of the summation range adds about log 2, so the sums climb without
bound -- a prior whose empirical-Bayes target exists pointwise but whose
Bayes risk does not.
"""

import warnings

import numpy as np

from poisson_eb import PriorSpec, divergent_mmse_diagnostic, resolve
from poisson_eb.mixtures import pmf_table
from poisson_eb.moment_match import local_moment_match

src = resolve(PriorSpec("heavy_tail", {"p": 2.0}), p=2.0).discretization
print(f"source prior: {src.n_atoms} atoms on [{src.atoms[0]:.3g}, {src.atoms[-1]:.3g}]")

rep = None
for M, eta in ((64.0, 1e-2), (256.0, 1e-3)):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # desk-scale M
        rep = local_moment_match(src, M, eta)
    print(f"  M = {M:5g}, eta = {eta:g}:  {rep.atom_count:4d} atoms "
          f"(budget {rep.budget:6.1f}), sup pmf error {rep.achieved_sup_error:.2e}")

f_src = pmf_table(src, 1e-11).values
f_cmp = pmf_table(rep.approximant, 1e-11).values
print(f"  largest pmf gap on y <= 20 for the last match: "
      f"{np.abs(f_src[:21] - f_cmp[:21]).max():.2e}\n")

print("partial Bayes-risk sums for the 1/a^2 mixing density:")
prev = None
for y_cap, s in divergent_mmse_diagnostic(y_cap=4096):
    step = "" if prev is None else f"   (+{s - prev:.4f})"
    print(f"  S({y_cap:>4}) = {s:7.4f}{step}")
    prev = s
print(f"\nincrements hover around log 2 = {np.log(2):.4f}: no plateau in sight.")
