"""Empirical Bayes for Poisson counts.

Core pieces: discrete mixing distributions and their Poisson mixtures
(`mixtures`), the nonparametric maximum-likelihood mixing estimator with a
first-order certificate (`npmle`), plug-in estimation rules from Robbins'
formula to the regularized mixture rule (`rules`), reference priors and
certified discretizations (`priors`), local moment-matching compression of
priors (`moment_match`), and a reproducible Monte Carlo harness
(`experiments`).
"""

# numpy loads numpy.random on first use (sampling): import it here, so that no trial pays
import numpy.random  # noqa: F401

from ._version import __version__
from .errors import (
    DegenerateSupportError,
    InvalidInputError,
    NumericalFailureError,
    PoissonEBError,
    TailCoverageError,
    UnsupportedRegimeError,
)
from .mixtures import (
    DiscretePrior,
    MixturePmf,
    bayes_rule,
    hellinger_sq,
    log_poisson_pmf,
    mixture_tail_bound,
    mmse_exact,
    pmf_table,
    posterior_moment_table,
)
from .npmle import (
    CountHistogram,
    NpmleFit,
    fit_npmle,
    grid_spec,
    kkt_gap_on_grid,
    load_count_data,
    log_likelihood,
)
from .rules import (
    EstimatorConfig,
    FittedRule,
    fit_rule,
    npmle_eb,
    robbins,
    robbins_truncated,
    tuned_config,
)
from .priors import (
    PriorSpec,
    ResolvedPrior,
    assouad_prior,
    divergent_mmse_diagnostic,
    parse_prior_spec,
    resolve,
)
from .experiments import (
    ExperimentPlan,
    ExperimentReport,
    density_risk_trial,
    fit_rate,
    individual_regret_trial,
    parse_plan,
    run_plan,
    total_regret_trial,
)

__all__ = [
    "__version__",
    # errors
    "PoissonEBError", "InvalidInputError", "DegenerateSupportError",
    "TailCoverageError", "UnsupportedRegimeError", "NumericalFailureError",
    # mixtures
    "DiscretePrior", "MixturePmf", "log_poisson_pmf", "pmf_table",
    "bayes_rule", "posterior_moment_table", "mmse_exact",
    "hellinger_sq", "mixture_tail_bound",
    # npmle
    "CountHistogram", "NpmleFit", "fit_npmle", "grid_spec",
    "kkt_gap_on_grid", "log_likelihood", "load_count_data",
    # rules
    "EstimatorConfig", "FittedRule", "robbins", "robbins_truncated",
    "npmle_eb", "fit_rule", "tuned_config",
    # priors
    "PriorSpec", "ResolvedPrior", "parse_prior_spec", "resolve",
    "assouad_prior", "divergent_mmse_diagnostic",
    # moment matching
    "QuadraticPartition", "local_moment_match", "MatchReport",
    # experiments
    "ExperimentPlan", "ExperimentReport", "parse_plan", "run_plan",
    "density_risk_trial", "individual_regret_trial", "total_regret_trial",
    "fit_rate",
]

# Names served on first access (PEP 562), name -> defining submodule: only
# `peb moment-match` and library callers use these, so a sweep never compiles
# or runs them.  The submodule's own name maps to itself.
_LAZY = dict.fromkeys(("moment_match", "MatchReport", "QuadraticPartition",
                       "local_moment_match"), "moment_match")


def __getattr__(name: str):
    from importlib import import_module

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
