"""Empirical-Bayes decision rules for Poisson means.

Every rule maps an observed count y to an estimate of the underlying mean.
The frequency-ratio (Robbins-type) rules plug the empirical counts N(y) into
the posterior-mean identity theta(y) = (y+1) f(y+1) / f(y):

* plain:      (y+1) N(y+1) / N(y)          (unstable: can divide by zero)
* add-one:    (y+1) N(y+1) / (N(y) + 1)    (never blows up)
* truncated:  add-one for y <= y0, the identity y beyond

The mixture-based rule evaluates the same identity under a fitted mixing
distribution, with the denominator floored at rho and the estimate clamped
at zero:

    (y+1) * ((f(y+1) - f(y)) / max(f(y), rho) + 1),   y <= y0;   y otherwise.

`fit_rule` tabulates each data-driven rule on y = 0..y_cap, from training
counts or a fitted mixing distribution, and is the only place these formulas
live.  `robbins`, `robbins_truncated` and `npmle_eb` are pointwise views of it
(tabulate up to y, read cell y); leave-one-out callers feed its
frequency-ratio helper `ratio_table` with N(y) - 1.  The oracle, the Bayes
rule theta_G(y) of the true prior, reads no data: its table is
`ResolvedPrior.oracle_table`, and `fit_rule` refuses it.

`tuned_config` maps a method name to the rule a trial runs: its truncation
and regularization knobs as functions of the sample size and the assumed
finite p-th moment of the mean distribution (tuned only for p > 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, UnsupportedRegimeError
from .mixtures import DiscretePrior, _whole, pmf_on_range
from .npmle import CountHistogram, NpmleFit

__all__ = [
    "ESTIMATOR_KINDS",
    "CLI_KIND_NAMES",
    "EstimatorConfig",
    "RobbinsEstimate",
    "FittedRule",
    "ratio_table",
    "fit_rule",
    "robbins",
    "robbins_truncated",
    "npmle_eb",
    "bounded_beyond_table",
    "tuned_config",
]

ESTIMATOR_KINDS = ("oracle", "robbins_plain", "robbins_addone", "robbins_trunc", "npmle_eb")

# mapping used by the command-line interface and plan files
CLI_KIND_NAMES = {
    "oracle": "oracle",
    "robbins": "robbins_plain",
    "robbins-addone": "robbins_addone",
    "robbins-trunc": "robbins_trunc",
    "npmle": "npmle_eb",
}


@dataclass(frozen=True)
class EstimatorConfig:
    """Which rule to use and its truncation/regularization knobs.

    y0 may be 0 (truncate everywhere except y=0) up to infinity (never
    truncate, the only value for oracle, plain and add-one Robbins); rho is
    the pmf floor of the mixture-based rule.  `fit_rule` never fits: a
    caller passes its own tolerance to `fit_npmle`.
    """

    kind: str
    y0: float = math.inf
    rho: float = 1e-6

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise InvalidInputError(
                f"unknown estimator kind {self.kind!r}; choose from {ESTIMATOR_KINDS}"
            )
        if self.y0 != math.inf:
            _whole(self.y0, "y0")  # a finite y0 is a whole number >= 0
            if self.kind not in ("robbins_trunc", "npmle_eb"):
                raise InvalidInputError(f"kind {self.kind!r} never truncates; y0 must be inf")
        if not (0 < self.rho <= 1 / math.e):
            raise InvalidInputError("rho must lie in (0, 1/e]")


class RobbinsEstimate(NamedTuple):
    """A frequency-ratio estimate plus its hazard flag (None when clean)."""

    value: float
    flag: str | None


# ---------------------------------------------------------------------------
# tabulated rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FittedRule:
    """A rule tabulated on y = 0..y_cap, with its hazard flags.

    `flags` maps a hazard name to its count: for the plain frequency ratio,
    "degenerate" and "infinite" cells below the largest training count; for
    the mixture rule, "solver_not_converged" 1 when its fit is uncertified.
    """

    config: EstimatorConfig
    table: np.ndarray
    flags: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 1 or table.size == 0:
            raise InvalidInputError("rule table must be nonempty 1-d")
        if not table.min() >= 0:  # the min is NaN when any estimate is; inf passes
            raise InvalidInputError("rule estimates must be nonnegative")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


def _robbins_counts(train: CountHistogram, y_cap: int) -> np.ndarray:
    counts = np.zeros(y_cap + 2)
    inside = train.ys <= y_cap + 1
    counts[train.ys[inside]] = train.cnts[inside]
    return counts


def ratio_table(
    config: EstimatorConfig,
    ys: np.ndarray,
    top: np.ndarray,
    bot: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """A frequency-ratio rule at the cells ys, given top = (y+1) N(y+1) and bot = N(y).

    Returns (estimates, hazards).  For the plain rule, hazards maps
    "degenerate" (0/0, estimate 0) and "infinite" (N(y) = 0 < N(y+1)) to
    boolean masks over the cells; the add-one kinds have no hazards.  A
    leave-one-out estimate at an observed y is the same formula with bot =
    N(y) - 1, since removing one point at y lowers only N(y).  Neither input
    is written to.
    """
    if config.kind == "robbins_plain":
        with np.errstate(divide="ignore", invalid="ignore"):
            table = np.divide(top, bot)
        degenerate = (bot == 0) & (top == 0)
        infinite = (bot == 0) & (top > 0)
        table[degenerate] = 0.0
        return table, {"degenerate": degenerate, "infinite": infinite}
    table = np.add(bot, 1.0)
    np.divide(top, table, out=table)
    if config.kind == "robbins_trunc":
        np.copyto(table, ys, where=ys > config.y0)
    return table, {}


def fit_rule(
    config: EstimatorConfig,
    y_cap: int,
    train: CountHistogram | None = None,
    fit: NpmleFit | DiscretePrior | None = None,
) -> FittedRule:
    """Tabulate a configured data-driven rule on y = 0..y_cap.

    The frequency-ratio kinds need `train` (the training counts); ``npmle_eb``
    needs `fit` (an NpmleFit or DiscretePrior).  The ``oracle`` kind is
    refused: its table is `ResolvedPrior.oracle_table`.  The truncation
    contract is enforced here: entries beyond y0 are exactly y.
    """
    y_cap = _whole(y_cap, "y_cap")
    ys = np.arange(y_cap + 1, dtype=float)
    flags: dict = {}

    if config.kind in ("robbins_plain", "robbins_addone", "robbins_trunc"):
        if train is None:
            raise InvalidInputError("frequency-ratio rules need training counts")
        counts = _robbins_counts(train, y_cap)
        top = ys + 1.0
        top *= counts[1:]
        table, hazards = ratio_table(config, ys, top, counts[:-1])
        # cells from y_max on are 0/0 or the last count: counting them measures the table
        flags = {name: int(mask[: train.y_max].sum()) for name, mask in hazards.items()}

    elif config.kind == "npmle_eb":
        src = fit.prior if isinstance(fit, NpmleFit) else fit
        if not isinstance(src, DiscretePrior):
            raise InvalidInputError("npmle_eb rule needs a fit or prior")
        k = int(min(y_cap, config.y0)) + 1  # cells 0..y0 by the formula, then y itself
        f = pmf_on_range(src, k)
        head = (ys[:k] + 1.0) * ((f[1:] - f[:-1]) / np.maximum(f[:-1], config.rho) + 1.0)
        table = np.concatenate([np.maximum(head, 0.0), ys[k:]])
        if isinstance(fit, NpmleFit) and not fit.converged:
            flags["solver_not_converged"] = 1

    else:  # the oracle: kinds are validated in EstimatorConfig
        raise InvalidInputError("the oracle rule reads no data; its table is "
                                "ResolvedPrior.oracle_table")

    return FittedRule(config=config, table=table, flags=flags)


def robbins(data: CountHistogram, y: int, addone: bool = False) -> RobbinsEstimate:
    """Plain or add-one frequency-ratio estimate at y.

    Plain version hazards: N(y) = 0 with N(y+1) > 0 gives an infinite
    estimate (flag "infinite"); 0/0 returns 0 with flag "degenerate".
    """
    y = _whole(y, "y")
    config = EstimatorConfig("robbins_addone" if addone else "robbins_plain")
    value = float(fit_rule(config, y, train=data).table[y])
    if addone or data.count_of(y) > 0:
        return RobbinsEstimate(value, None)
    return RobbinsEstimate(value, "infinite" if value == math.inf else "degenerate")


def robbins_truncated(data: CountHistogram, y: int, y0: float) -> float:
    """Add-one frequency ratio below the truncation level, identity beyond."""
    y = _whole(y, "y")
    return float(fit_rule(EstimatorConfig("robbins_trunc", y0=y0), y, train=data).table[y])


def npmle_eb(fit, y: int, y0: float = math.inf, rho: float = 1e-6) -> float:
    """Regularized mixture-based rule at y, given a fitted mixing distribution.

    `fit` may be an NpmleFit or a bare DiscretePrior.  Below the truncation
    level the estimate is (y+1)((f(y+1)-f(y))/max(f(y), rho) + 1) clamped at
    zero; beyond it, the identity y.
    """
    y = _whole(y, "y")
    config = EstimatorConfig("npmle_eb", y0=y0, rho=rho)
    return float(fit_rule(config, y, fit=fit).table[y])


def bounded_beyond_table(config: EstimatorConfig) -> bool:
    """Whether the rule's estimates stay bounded for y beyond any tabulated range.

    The frequency-ratio rules predict 0 above the largest training count
    (plain and add-one always; truncated only when it never truncates, y0 =
    inf).  The oracle tracks theta_G(y), and the mixture rule tends to y + 1
    once the fitted pmf drops below its floor rho > 0, so neither is bounded.
    Against a prior with E theta^2 = inf a bounded rule has infinite regret.
    """
    if config.kind in ("robbins_plain", "robbins_addone"):
        return True
    if config.kind == "robbins_trunc":
        return config.y0 == math.inf
    return False


# ---------------------------------------------------------------------------
# tuning
# ---------------------------------------------------------------------------

def tuned_config(method: str, n: int, p: float, m_p: float = 1.0,
                 c: float = 1.0) -> EstimatorConfig:
    """The rule a trial runs for `method` (a CLI name) at sample size n.

    Oracle, plain and add-one Robbins take no knobs.  The truncated
    frequency-ratio rule takes y0 = ceil(c (n / (log n)^3)^{1/(p+2)}), and
    refuses p <= 1 (below that no truncation level rescues it).  The
    mixture-based rule takes rho = n^{-10} and y0 = ceil(c (n m_p)^{2/(2p+1)});
    at p <= 1 it runs untruncated with rho = 1e-10 (fixed-prior plans often
    carry p as a mere label).
    """
    if method not in CLI_KIND_NAMES:
        raise InvalidInputError(f"unknown method {method!r}; choose from {tuple(CLI_KIND_NAMES)}")
    kind = CLI_KIND_NAMES[method]
    if kind in ("oracle", "robbins_plain", "robbins_addone"):
        return EstimatorConfig(kind)
    n = _whole(n, "n", 2)
    if not (m_p > 0):
        raise InvalidInputError("m_p must be positive")
    if not (0 < c < math.inf):  # NaN too
        raise InvalidInputError("c must be positive and finite")
    if not (p > 1):
        if kind == "npmle_eb":
            return EstimatorConfig(kind, rho=1e-10)
        raise UnsupportedRegimeError(
            f"tuning requires p > 1 (got p = {p}); no supported schedule below"
        )
    if kind == "robbins_trunc":
        return EstimatorConfig(kind, y0=math.ceil(c * (n / math.log(n) ** 3) ** (1.0 / (p + 2.0))))
    e = 2.0 / (2.0 * p + 1.0)
    return EstimatorConfig(kind, y0=math.ceil(c * (n ** e) * (m_p ** e)),
                           rho=max(float(n) ** -10.0, 1e-300))
