"""Monte Carlo harness: density risk, regret metrics, rate fits, CSV reports.

A plan names a prior, a sample-size grid, replicate count, estimators, and
metrics.  Running it produces one row per (n, replicate, method, metric) in a
deterministic fold order, with all randomness drawn from counter-based
streams keyed by (plan seed, n, replicate, purpose) — so reruns are
byte-identical and rows never depend on execution order.

Conventions
-----------
* Individual regret E(rule(Y) - theta_G(Y))^2 is computed by *exact*
  summation over y against the certified reference mixture: the training
  sample (size n-1, matching the leave-one-out convention) is random, the
  test variable is integrated out.  Mass beyond the working cap y_cap is
  summed separately and reported in the std_error column as a deterministic
  tail term.  The oracle reads no training sample, so its trial draws none;
  every other method trains on the sample drawn from the replicate's key,
  drawn and histogrammed once for all of them
  (`ResolvedPrior.count_histogram`: the zero atom's draws count at y = 0
  with no Poisson draw, and only the rest are sorted, with no length-n theta
  or count array; the histogram equals that of `sample_counts`' Y).  The
  squared errors and their products with the pmf are built in place.  The
  sums are numpy reductions, not BLAS dots, whose rounding would depend on
  the BLAS thread count.
* Divergent regret is reported as infinite, never as a windowed partial sum.
  When the prior has E theta^2 = inf, so does theta_G(Y), and a rule that
  stays bounded beyond its table (`rules.bounded_beyond_table`: plain and
  add-one Robbins, and truncated Robbins with y0 = inf) has regret
  E(rule(Y) - theta_G(Y))^2 = inf at every n.  Such a trial returns value
  and tail term inf, flagged ``divergent_regret``; a direct leave-one-out
  row for it keeps its sampled value and carries the same flag.
* Total regret is n times individual regret; plans may additionally enable
  the direct leave-one-out path sum_i (rule_{-i}(Y_i) - theta_i)^2 - n mmse,
  whose agreement with the first path is a standing consistency check.
* Infinite plain-Robbins estimates contribute squared error capped at 1e12
  and are counted in the row's flags.
* The caller owns the stream keys.  `run_plan` keys each draw by
  (plan seed, n, replicate, purpose) and hands the key to the public trial
  function, which uses it as given; no function derives one key from
  another.  A row is therefore reproduced by calling its trial function with
  the row's keys and the plan's ``tuning_c``.  A key is a tuple of whole
  numbers >= 0, checked where its generator is built (`priors._entropy`).
* Every NPMLE fit runs to the KKT tolerance SOLVER_TOL and the exact regret
  sum stops at the reference's 1 - Y_CAP_EPS quantile; the header records both.
"""

from __future__ import annotations

import csv
import io
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .errors import InvalidInputError
from .mixtures import _whole, hellinger_sq, pmf_table
from .npmle import CountHistogram, fit_npmle, load_solver
from .priors import PriorSpec, ResolvedPrior, _moment_index, parse_prior_spec, resolve
from .rules import (
    EstimatorConfig,
    _robbins_counts,
    bounded_beyond_table,
    fit_rule,
    ratio_table,
    tuned_config,
)

__all__ = [
    "METRICS",
    "ExperimentPlan",
    "ExperimentRow",
    "RateFit",
    "ExperimentReport",
    "csv_text",
    "parse_plan",
    "density_risk_trial",
    "individual_regret_trial",
    "total_regret_trial",
    "fit_rate",
    "run_plan",
]

METRICS = ("hellinger_sq", "individual_regret", "total_regret")

SQERR_CAP = 1e12

SOLVER_TOL = 1e-6  # KKT tolerance of every NPMLE fit in a trial
Y_CAP_EPS = 1e-9  # reference mass beyond the exact regret sum

DIVERGENT_FLAG = "divergent_regret"


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentPlan:
    """Everything a sweep needs, in one reproducible record."""

    prior: PriorSpec
    p: float
    n_grid: tuple
    replicates: int
    methods: tuple = ()
    metrics: tuple = ("individual_regret",)
    seed: int = 0
    name: str = "plan"
    disc_tol: float = 1e-6
    tuning_c: float = 1.0
    direct_total: bool = False

    def __post_init__(self) -> None:
        n_grid = tuple(_whole(n, "sample size", 10) for n in self.n_grid)
        if not n_grid or list(n_grid) != sorted(set(n_grid)):
            raise InvalidInputError("n_grid must be ascending distinct sample sizes")
        object.__setattr__(self, "n_grid", n_grid)
        object.__setattr__(self, "replicates", _whole(self.replicates, "replicates", 1))
        object.__setattr__(self, "seed", _whole(self.seed, "seed"))
        if not 0 < self.tuning_c < math.inf:
            raise InvalidInputError("tuning_c must be finite and > 0")
        if self.direct_total not in (0, 1):  # a flag: 0, 1, False or True
            raise InvalidInputError(f"direct_total must be 0 or 1 (got {self.direct_total!r})")
        for m in self.metrics:
            if m not in METRICS:
                raise InvalidInputError(f"unknown metric {m!r}; choose from {METRICS}")
        for key, names in (("methods", self.methods), ("metrics", self.metrics)):
            if len(set(names)) != len(names):  # a repeat would write each of its rows twice
                raise InvalidInputError(f"{key} must be distinct (got {','.join(names)})")
        for meth in self.methods:  # a method whose rule cannot be tuned at p fails every row
            tuned_config(meth, self.n_grid[0], self.p)
        needs_rules = {"individual_regret", "total_regret"} & set(self.metrics)
        if needs_rules and not self.methods:
            raise InvalidInputError("regret metrics need at least one method")
        if self.direct_total and "total_regret" not in self.metrics:
            raise InvalidInputError("direct_total = 1 needs total_regret among the metrics")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "direct_total", bool(self.direct_total))
        if "npmle" in self.methods or "hellinger_sq" in self.metrics:  # the plan fits NPMLEs:
            load_solver()  # its solver's import is set-up, not the first trial's cost


_PLAN_KEYS = {
    "name": str,
    "prior": str,
    "p": float,
    "n_grid": lambda text: tuple(int(tok) for tok in text.split(",")),
    "replicates": int,
    "methods": str,
    "metrics": str,
    "seed": int,
    "disc_tol": float,
    "tuning_c": float,
    "direct_total": int,
}


def parse_plan(text: str) -> ExperimentPlan:
    """Parse a key=value plan file (one pair per line, # comments allowed).

    Keys (an unknown or repeated key is an error; the first three are required):

    ============  =========================================================
    prior         prior spec, e.g. ``family=heavy_tail p=2``
    n_grid        ascending distinct sample sizes >= 10, comma-separated
    replicates    trials per sample size, >= 1
    name          label in the report header (default ``plan``)
    p             moment index that tuning reads (default the prior's
                  own: heavy_tail's ``p``, assouad's ``p`` or 2, else 1)
    methods       distinct rules from oracle, robbins, robbins-addone,
                  robbins-trunc, npmle, comma-separated (default none)
    metrics       distinct from hellinger_sq, individual_regret,
                  total_regret, comma-separated (default individual_regret)
    seed          plan seed >= 0, the first part of every stream key (default 0)
    disc_tol      absolute pmf tolerance of the discretization (1e-6)
    tuning_c      finite c > 0 of the tuned truncation levels (default 1)
    direct_total  0 or 1; 1 adds a total_regret_direct row, the direct
                  leave-one-out path, after each total_regret row, and
                  needs total_regret among the metrics (default 0)
    ============  =========================================================

    ``demos/plans/regret_small.plan`` is an example.
    """
    raw: dict = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"plan lines must be key = value (got {line!r})")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _PLAN_KEYS:
            raise InvalidInputError(f"unknown plan key {key!r}")
        if key in raw:
            raise InvalidInputError(f"plan key {key!r} is set twice")
        try:
            raw[key] = _PLAN_KEYS[key](val.strip())
        except ValueError:
            raise InvalidInputError(f"plan key {key!r}: malformed number {val.strip()!r}") from None
    if "prior" not in raw or "n_grid" not in raw or "replicates" not in raw:
        raise InvalidInputError("plan needs at least prior, n_grid, replicates")
    prior = parse_prior_spec(raw.pop("prior"))
    methods = tuple(tok.strip() for tok in raw.pop("methods", "").split(",") if tok.strip())
    metrics = tuple(
        tok.strip() for tok in raw.pop("metrics", "individual_regret").split(",") if tok.strip()
    )
    return ExperimentPlan(
        prior=prior,
        p=_moment_index(prior, raw.pop("p", None)),  # popped before **raw is unpacked
        methods=methods,
        metrics=metrics,
        **raw,
    )


# ---------------------------------------------------------------------------
# rows and reports
# ---------------------------------------------------------------------------

def csv_text(header_lines: list[str], columns: list[str], records) -> str:
    """The header lines, then `columns` and `records` as CSV rows, in one string."""
    buf = io.StringIO()
    buf.writelines(line + "\n" for line in header_lines)
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows(records)
    return buf.getvalue()


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    replicate: int
    method: str
    metric: str
    value: float
    std_error: float
    flags: str = ""


@dataclass(frozen=True)
class RateFit:
    method: str
    metric: str
    slope: float
    ci_lo: float
    ci_hi: float
    n_points: int


@dataclass(eq=False)
class ExperimentReport:
    plan: ExperimentPlan
    rows: list
    slopes: list
    runtime_seconds: float  # in-memory only; never serialized (reruns stay byte-identical)

    def header_lines(self) -> list[str]:
        cfg = (
            f"prior={self.plan.prior.describe()} p={self.plan.p:g} "
            f"n_grid={','.join(str(n) for n in self.plan.n_grid)} "
            f"replicates={self.plan.replicates} seed={self.plan.seed} "
            f"methods={','.join(self.plan.methods) or '-'} "
            f"metrics={','.join(self.plan.metrics)} "
            f"tuning_c={self.plan.tuning_c:g} disc_tol={self.plan.disc_tol:g} "
            f"solver_tol={SOLVER_TOL:g} y_cap_eps={Y_CAP_EPS:g} "
            f"direct_total={int(self.plan.direct_total)}"
        )
        return [
            f"# poisson_eb {__version__} experiment report",
            f"# plan {self.plan.name}: {cfg}",
        ]

    def rows_csv(self) -> str:
        return csv_text(
            self.header_lines(), ["n", "replicate", "method", "metric", "value", "std_error", "flags"],
            ([r.n, r.replicate, r.method, r.metric, repr(r.value), repr(r.std_error), r.flags]
             for r in self.rows))

    def slopes_csv(self) -> str:
        return csv_text(
            self.header_lines(), ["method", "metric", "slope", "ci_lo", "ci_hi", "n_points"],
            ([s.method, s.metric, repr(s.slope), repr(s.ci_lo), repr(s.ci_hi), s.n_points]
             for s in self.slopes))

    def mean_by_n(self, method: str, metric: str) -> dict:
        acc: dict = {}
        for r in self.rows:
            if r.method == method and r.metric == metric:
                acc.setdefault(r.n, []).append(r.value)
        return {n: float(np.mean(v)) for n, v in sorted(acc.items())}


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

# purpose codes for the per-trial substreams
_PURPOSE_DENSITY = 0
_PURPOSE_TRAIN = 1
_PURPOSE_DIRECT = 2


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------

def density_risk_trial(
    resolved: ResolvedPrior,
    n: int,
    seed,
) -> tuple[float, list[str]]:
    """Squared Hellinger distance of the fitted mixture pmf from the reference.

    Draws n counts, fits the NPMLE, and compares pmf tables on a shared
    certified range.  Returns (H^2, flags); an uncertified fit is flagged
    ``solver_not_converged``.
    """
    _whole(n, "n", 10)
    fit = fit_npmle(resolved.count_histogram(seed, n), tol=SOLVER_TOL)
    ref = resolved.pmf()
    fit_table = pmf_table(fit.prior, tail_tol=ref.tail_tol, min_len=ref.values.size)
    value = hellinger_sq(fit_table, ref)
    flags = [] if fit.converged else ["solver_not_converged"]
    return value, flags


def _regret_diverges(resolved: ResolvedPrior, config: EstimatorConfig) -> bool:
    return not resolved.second_moment_finite and bounded_beyond_table(config)


def _capped_sqerr(est: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared errors capped at SQERR_CAP, and the mask of the non-finite ones.

    Both are new arrays; the inputs are not written to."""
    with np.errstate(invalid="ignore"):  # inf - inf
        sq = np.subtract(est, truth)
    sq *= sq
    capped = ~np.isfinite(sq)
    np.minimum(sq, SQERR_CAP, out=sq)
    sq[capped] = SQERR_CAP
    return sq, capped


def _regret_from_table(
    resolved: ResolvedPrior,
    table: np.ndarray,
    rule_flags: list[str],
    y_cap: int,
) -> tuple[float, float, list[str]]:
    f = resolved.pmf().values  # `table` spans the reference pmf's range
    terms, capped = _capped_sqerr(table, resolved.oracle_table(f.size - 1))
    terms *= f
    value = float(np.sum(terms[: y_cap + 1]))  # not a BLAS dot: Conventions
    tail_term = float(np.sum(terms[y_cap + 1 :]))
    n_capped = int(np.count_nonzero(capped[: y_cap + 1]))
    return value, tail_term, ([f"capped={n_capped}"] if n_capped else []) + rule_flags


def individual_regret_trial(
    resolved: ResolvedPrior,
    n: int,
    method: str,
    seed,
    tuning_c: float = 1.0,
) -> tuple[float, float, list[str]]:
    """E(rule(Y) - theta_G(Y))^2 for one random training sample of size n-1.

    The rule is `rules.tuned_config` at n, scaled by `tuning_c`.  The expectation
    over the test count is an exact weighted sum against the reference mixture
    up to y_cap (its 1 - Y_CAP_EPS quantile); the remainder of the reference
    table is returned as the deterministic tail term.
    The oracle reads the prior's cached theta_G table and draws no sample.
    When the prior has E theta^2 = inf and the rule stays bounded beyond its
    table, the full expectation is infinite: the result is then
    (inf, inf, rule flags + ["divergent_regret"]) rather than a partial sum
    set by the window.
    Returns (value, tail_term, flags).
    """
    _whole(n, "n", 10)
    config = tuned_config(method, n, resolved.p, m_p=resolved.p_moment, c=tuning_c)
    y_hi = resolved.pmf().y_max
    if config.kind == "oracle":
        table, rule_flags = resolved.oracle_table(y_hi), []
    else:
        train = resolved.count_histogram(seed, n - 1)
        fit = fit_npmle(train, tol=SOLVER_TOL) if config.kind == "npmle_eb" else None
        rule = fit_rule(config, y_hi, train=train, fit=fit)
        table, rule_flags = rule.table, [f"{name}={v}" for name, v in rule.flags.items() if v]
    if _regret_diverges(resolved, config):
        return math.inf, math.inf, rule_flags + [DIVERGENT_FLAG]
    return _regret_from_table(resolved, table, rule_flags, resolved.quantile_y(Y_CAP_EPS))


def total_regret_trial(
    resolved: ResolvedPrior,
    n: int,
    method: str,
    seed,
    tuning_c: float = 1.0,
    direct_seed=None,
) -> dict:
    """The regret rows of one trial: ``{metric: (value, tail_term, flags)}``.

    ``individual_regret`` is :func:`individual_regret_trial` on the sample
    drawn from `seed`; ``total_regret``, the product path, is n times it.
    With `direct_seed`, ``total_regret_direct`` draws (theta_i, Y_i) pairs
    from that stream, estimates each Y_i from the other n-1 observations and
    subtracts n times the reference Bayes risk.  The two total-regret paths
    agree in expectation: a standing consistency check on the pipeline.
    """
    ind, tail, flags = individual_regret_trial(resolved, n, method, seed, tuning_c)
    out = {"individual_regret": (ind, tail, flags), "total_regret": (n * ind, n * tail, flags)}
    if direct_seed is not None:
        config = tuned_config(method, n, resolved.p, m_p=resolved.p_moment, c=tuning_c)
        out["total_regret_direct"] = _direct_total(resolved, n, config, direct_seed)
    return out


def _direct_total(
    resolved: ResolvedPrior,
    n: int,
    config: EstimatorConfig,
    seed,
) -> tuple[float, float, list[str]]:
    """The direct leave-one-out total regret row (value, 0.0, flags) on fresh (theta_i, Y_i).

    The sampled value is finite even where the regret diverges; such a value
    carries the ``divergent_regret`` flag.
    """
    theta, y = resolved.sample_counts(seed, n)
    hist = CountHistogram.from_samples(y)
    est, dflags = _loo_estimates(resolved, config, hist)
    sq, _ = _capped_sqerr(est[np.searchsorted(hist.ys, y)], theta)
    mmse_val, _ = resolved.mmse_ref()
    if _regret_diverges(resolved, config):
        dflags.append(DIVERGENT_FLAG)
    return float(sq.sum() - n * mmse_val), 0.0, dflags


def _loo_estimates(
    resolved: ResolvedPrior,
    config: EstimatorConfig,
    data: CountHistogram,
) -> tuple[np.ndarray, list[str]]:
    """The leave-one-out estimate at each distinct observed y (ascending), flagged "name@y".

    The oracle reads the prior's cached theta_G table.  Removing a point at y
    lowers only N(y), so the frequency-ratio kinds are one closed-form table;
    only the NPMLE is refitted per y, warm-started on the full-data fit.
    """
    ys = data.ys
    if config.kind == "oracle":
        return resolved.oracle_table(data.y_max)[ys], []
    if config.kind == "npmle_eb":
        warm = fit_npmle(data, tol=SOLVER_TOL)
        est, flags = [], []
        for y in ys.tolist():
            refit = fit_npmle(data.remove_one(y), tol=SOLVER_TOL, init_prior=warm.prior)
            rule = fit_rule(config, y, fit=refit)
            est.append(rule.table[y])
            flags += [f"{name}@{y}" for name, v in rule.flags.items() if v]
        return np.array(est), flags
    counts = _robbins_counts(data, data.y_max)
    est, hazards = ratio_table(config, ys.astype(float), (ys + 1.0) * counts[ys + 1],
                               data.cnts - 1.0)
    flags = [f"{name}@{y}" for i, y in enumerate(ys.tolist())
             for name, mask in hazards.items() if mask[i]]
    return est, flags


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------

def fit_rate(ns, values, method: str = "", metric: str = "") -> RateFit:
    """OLS slope of log(value) on log(n), with a normal-theory 95% CI.

    Requires finite, positive n and >= 4 usable points spanning at least
    1.5 decades of n.  Nonpositive and infinite values cannot enter the log
    fit; they are excluded with a warning.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.shape != values.shape or ns.ndim != 1:
        raise InvalidInputError("ns and values must be matching 1-d arrays")
    if not np.all((ns > 0) & (ns < math.inf)):
        raise InvalidInputError("sample sizes n must be finite and positive")
    ok = (values > 0) & (values < math.inf)
    if not np.all(ok):
        warnings.warn(
            f"excluding {int((~ok).sum())} nonpositive or infinite values from the rate fit",
            RuntimeWarning, stacklevel=2,
        )
    ns, values = ns[ok], values[ok]
    distinct = len(set(ns.tolist()))
    if distinct < 4:
        raise InvalidInputError("rate fit needs >= 4 distinct sample sizes")
    span = math.log10(ns.max() / ns.min())
    if span < 1.5:
        raise InvalidInputError(f"n range spans only {span:.2f} decades (< 1.5)")
    x = np.log(ns)
    z = np.log(values)
    xm = x - x.mean()
    slope = float((xm @ (z - z.mean())) / (xm @ xm))
    intercept = float(z.mean() - slope * x.mean())
    resid = z - (intercept + slope * x)
    dof = max(x.size - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / float(xm @ xm))
    return RateFit(
        method=method, metric=metric, slope=slope,
        ci_lo=slope - 1.96 * se, ci_hi=slope + 1.96 * se,
        n_points=distinct,
    )


# ---------------------------------------------------------------------------
# the sweep driver
# ---------------------------------------------------------------------------

def run_plan(plan: ExperimentPlan, resolved: ResolvedPrior | None = None) -> ExperimentReport:
    """Execute a plan: all rows in deterministic (n, replicate, method, metric) order.

    Each row is the public trial call with the row's stream keys and the
    plan's ``tuning_c``.  Every scheduled row is produced; a trial
    that raises yields NaN rows flagged ``failed:<exception>`` for all the
    metrics it would have produced, rather than silently vanishing.
    """
    t0 = time.perf_counter()
    if resolved is None:
        resolved = resolve(plan.prior, p=plan.p, disc_tol=plan.disc_tol, seed=plan.seed)

    def density(n, rep, _method):
        key = (plan.seed, n, rep, _PURPOSE_DENSITY)
        value, flags = density_risk_trial(resolved, n, key)
        return {"hellinger_sq": (value, 0.0, flags)}

    def regret(n, rep, method):
        return total_regret_trial(
            resolved, n, method, (plan.seed, n, rep, _PURPOSE_TRAIN), plan.tuning_c,
            direct_seed=(plan.seed, n, rep, _PURPOSE_DIRECT) if plan.direct_total else None,
        )

    regret_metrics = [m for m in ("individual_regret", "total_regret") if m in plan.metrics]
    regret_metrics += ["total_regret_direct"] if plan.direct_total else []
    cells = [(density, "npmle", ["hellinger_sq"])] if "hellinger_sq" in plan.metrics else []
    if regret_metrics:
        cells += [(regret, method, regret_metrics) for method in plan.methods]
    rows: list[ExperimentRow] = []
    for n in plan.n_grid:
        for rep in range(plan.replicates):
            for trial, method, metrics in cells:
                try:
                    results = trial(n, rep, method)
                except Exception as exc:  # noqa: BLE001 - every row must exist
                    failed = (math.nan, 0.0, [f"failed:{type(exc).__name__}"])
                    results = dict.fromkeys(metrics, failed)
                for metric in metrics:
                    value, se, flags = results[metric]
                    rows.append(ExperimentRow(n, rep, method, metric, value, se, ";".join(flags)))

    report = ExperimentReport(plan=plan, rows=rows, slopes=[], runtime_seconds=0.0)
    for method, metric in sorted({(r.method, r.metric) for r in rows
                                  if r.metric != "total_regret_direct"}):
        means = report.mean_by_n(method, metric)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                report.slopes.append(fit_rate(list(means), list(means.values()),
                                              method=method, metric=metric))
            except InvalidInputError:
                pass
    report.runtime_seconds = time.perf_counter() - t0
    return report
