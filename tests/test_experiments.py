import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from identities import ak_sequence, charlier, diff_table, finite_diff, forward_weighted_diff_sum
from poisson_eb.errors import InvalidInputError, UnsupportedRegimeError
from poisson_eb import experiments as ex
from poisson_eb.experiments import (
    ExperimentPlan,
    ExperimentReport,
    ExperimentRow,
    density_risk_trial,
    fit_rate,
    individual_regret_trial,
    parse_plan,
    run_plan,
    total_regret_trial,
)
from poisson_eb.mixtures import (
    DiscretePrior,
    bayes_rule,
    pmf_and_moment_tables,
    pmf_table,
    posterior_moment_table,
)
from poisson_eb.npmle import CountHistogram, fit_npmle
from poisson_eb.priors import (
    PriorSpec,
    ResolvedPrior,
    divergent_mixture_pmf,
    parse_prior_spec,
    resolve,
)
from poisson_eb.rules import (
    CLI_KIND_NAMES,
    EstimatorConfig,
    fit_rule,
    npmle_eb,
    robbins,
    robbins_truncated,
    tuned_config,
)

TP_SPEC = PriorSpec("two_point", {"eps": 0.2, "a": 5.0})
TP = resolve(TP_SPEC)

PLAN_TEXT = """\
# rate comparison at desk scale
name = demo
prior = family=two_point eps=0.2 a=5
p = 2
n_grid = 20,40
replicates = 2
methods = robbins,robbins-addone
metrics = individual_regret,total_regret
seed = 11
"""


def small_plan(**kw):
    base = dict(
        prior=TP_SPEC,
        p=2.0,
        n_grid=(20, 40),
        replicates=2,
        methods=("robbins", "robbins-addone"),
        metrics=("individual_regret", "total_regret"),
        seed=11,
    )
    base.update(kw)
    return ExperimentPlan(**base)


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def test_plan_validation():
    with pytest.raises(InvalidInputError):
        small_plan(n_grid=(40, 20))                     # not ascending
    with pytest.raises(InvalidInputError):
        small_plan(n_grid=(20, 20))                     # not distinct
    with pytest.raises(InvalidInputError):
        small_plan(n_grid=(5, 20))                      # too small
    with pytest.raises(InvalidInputError):
        small_plan(replicates=0)
    with pytest.raises(InvalidInputError):
        small_plan(metrics=("mse",))
    with pytest.raises(InvalidInputError):
        small_plan(methods=("james-stein",))
    with pytest.raises(InvalidInputError):
        small_plan(methods=(), metrics=("individual_regret",))
    with pytest.raises(InvalidInputError, match="methods must be distinct"):
        small_plan(methods=("robbins-addone", "robbins-addone"))   # rows written twice
    with pytest.raises(InvalidInputError, match="metrics must be distinct"):
        small_plan(metrics=("individual_regret", "individual_regret"))
    assert small_plan(methods=(), metrics=("hellinger_sq",)).methods == ()


def test_parse_plan_round_trip():
    plan = parse_plan(PLAN_TEXT)
    assert plan.name == "demo"
    assert plan.prior.family == "two_point"
    assert plan.p == 2.0
    assert plan.n_grid == (20, 40)
    assert plan.replicates == 2
    assert plan.methods == ("robbins", "robbins-addone")
    assert plan.metrics == ("individual_regret", "total_regret")
    assert plan.seed == 11
    assert plan.direct_total is False


def test_parse_plan_defaults():
    plan = parse_plan(
        "prior = family=heavy_tail p=1.5\n"
        "n_grid = 100,1000\n"
        "replicates = 1\n"
        "methods = npmle\n"
    )
    assert plan.p == 1.5          # inherited from the prior parameters
    assert plan.metrics == ("individual_regret",)
    assert (plan.seed, plan.tuning_c, plan.direct_total) == (0, 1.0, False)


def test_parse_plan_docstring_lists_every_key():
    table = parse_plan.__doc__.split("====\n", 1)[1].split("    ====")[0]
    keys = [line.split()[0] for line in table.splitlines() if line[4:5].strip()]
    assert sorted(keys) == sorted(ex._PLAN_KEYS)


def test_parse_plan_errors():
    with pytest.raises(InvalidInputError):
        parse_plan("prior = family=two_point eps=0.2 a=5\n")     # missing keys
    with pytest.raises(InvalidInputError):
        parse_plan("voltage = 9\n" + PLAN_TEXT)                  # unknown key
    with pytest.raises(InvalidInputError):
        parse_plan("just a line\n")


@pytest.mark.parametrize("line, key", [
    ("replicates = 50", "replicates"),
    ("prior = family=heavy_tail p=2", "prior"),
    ("tuning_c = 2\ntuning_c = 3", "tuning_c"),
])
def test_parse_plan_refuses_a_repeated_key(line, key):
    # a second value must not silently replace the first
    with pytest.raises(InvalidInputError, match=f"plan key '{key}' is set twice"):
        parse_plan(PLAN_TEXT + line + "\n")


@pytest.mark.parametrize("key, value", [
    ("replicates", "2.5"),
    ("n_grid", "20,4x"),
    ("seed", "abc"),
    ("p", "two"),
    ("direct_total", "0.5"),
    ("prior", "family=two_point eps=0.2 a=zz"),
])
def test_parse_plan_names_the_key_of_a_malformed_number(key, value):
    # a library caller catching PoissonEBError sees the key and the value
    text = "".join(f"{key} = {value}\n" if line.startswith(f"{key} =") else line + "\n"
                   for line in PLAN_TEXT.splitlines())
    if f"{key} =" not in PLAN_TEXT:
        text += f"{key} = {value}\n"
    with pytest.raises(InvalidInputError, match=key if key != "prior" else "a='zz'"):
        parse_plan(text)


@pytest.mark.parametrize("line, message", [
    ("direct_total = 7", "direct_total must be 0 or 1"),
    ("direct_total = -1", "direct_total must be 0 or 1"),
    ("tuning_c = inf", "tuning_c must be finite"),
])
def test_parse_plan_refuses_a_value_it_would_misread(line, message):
    with pytest.raises(InvalidInputError, match=message):
        parse_plan(PLAN_TEXT + line + "\n")


def test_direct_total_needs_total_regret():
    with pytest.raises(InvalidInputError, match="direct_total = 1 needs total_regret"):
        small_plan(metrics=("individual_regret", "hellinger_sq"), direct_total=True)
    assert small_plan(metrics=("total_regret",), direct_total=True).direct_total is True


def test_plan_refuses_robbins_trunc_at_p_at_most_1():
    # its tuned y0 needs p > 1, so every robbins-trunc row would fail
    with pytest.raises(UnsupportedRegimeError, match="tuning requires p > 1"):
        small_plan(methods=("robbins-trunc", "npmle"), p=1.0)
    assert small_plan(methods=("npmle",), p=1.0).p == 1.0  # the untruncated rule


def test_plan_and_resolve_build_the_same_assouad_prior():
    # a plan's default p was 1 and set the construction's p, where resolve's was 2:
    # 49 atoms against 16
    spec = "family=assouad n=10000 c_p=30"
    plan = parse_plan(f"prior = {spec}\nn_grid = 100\nreplicates = 1\nmethods = oracle\n")
    direct = resolve(parse_prior_spec(spec), seed=plan.seed)
    via_plan = resolve(plan.prior, p=plan.p, disc_tol=plan.disc_tol, seed=plan.seed)
    assert plan.p == via_plan.p == direct.p == 2.0
    np.testing.assert_array_equal(via_plan.discretization.atoms, direct.discretization.atoms)


def test_tuning_c_reaches_the_trial_rows():
    tp2 = resolve(TP_SPEC, p=2.0)  # tuning needs p > 1

    def rows(c):
        plan = small_plan(methods=("robbins-trunc", "npmle"), metrics=("total_regret",),
                          direct_total=True, replicates=1, tuning_c=c)
        return run_plan(plan, resolved=tp2).rows

    wide, narrow = rows(4.0), rows(1.0)
    for row in wide:
        key = (11, row.n, row.replicate, ex._PURPOSE_TRAIN)
        direct = (11, row.n, row.replicate, ex._PURPOSE_DIRECT)
        trial = total_regret_trial(tp2, row.n, row.method, key, tuning_c=4.0, direct_seed=direct)
        assert math.isfinite(row.value) and row.value == trial[row.metric][0], row
    for cell in {(r.method, r.metric) for r in wide}:  # both methods, both total paths
        assert ([r.value for r in wide if (r.method, r.metric) == cell]
                != [r.value for r in narrow if (r.method, r.metric) == cell]), cell


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------

def test_fit_rate_recovers_exact_power_law():
    ns = np.array([100.0, 1000.0, 10_000.0, 100_000.0])
    fit = fit_rate(ns, 3.0 * ns ** -1.0, method="m", metric="k")
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.ci_lo <= -1.0 <= fit.ci_hi
    assert fit.ci_hi - fit.ci_lo < 1e-9
    assert fit.n_points == 4


def test_fit_rate_excludes_nonpositive_with_warning():
    ns = np.array([100.0, 1000.0, 10_000.0, 100_000.0, 100_000.0])
    vals = np.array([3e-2, 3e-3, 3e-4, 3e-5, -1.0])
    with pytest.warns(RuntimeWarning, match="nonpositive"):
        fit = fit_rate(ns, vals)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("bad_n", [math.nan, math.inf, 0.0, -10.0])
def test_fit_rate_refuses_nonfinite_and_nonpositive_n(bad_n):
    # NaN used to give a NaN slope, and a negative n a bare ValueError
    with pytest.raises(InvalidInputError, match="finite and positive"):
        fit_rate([bad_n, 10, 100, 1000, 1e4], [1.0] * 5)


def test_fit_rate_demands_span_and_points():
    with pytest.raises(InvalidInputError):
        fit_rate([100, 1000, 10_000], [1.0, 0.1, 0.01])          # 3 points
    # 100 -> 3162 is 1.49997 decades: just under the bar
    with pytest.raises(InvalidInputError):
        fit_rate([100, 300, 1000, 3162], [1, 2, 3, 4.0])
    with pytest.raises(InvalidInputError):
        fit_rate([100, 1000], [1.0, 2.0, 3.0])                   # shape clash


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------

def test_oracle_method_has_zero_regret():
    value, tail, flags = individual_regret_trial(TP, 50, "oracle", (1, 2))
    assert value == 0.0
    assert tail == 0.0
    assert flags == []


def test_regret_caps_each_squared_error_and_counts_the_non_finite():
    f = TP.pmf().values
    truth = TP.oracle_table(f.size - 1)
    y_cap = TP.quantile_y(1e-9)
    assert y_cap + 1 < f.size
    table = truth.copy()
    table[:4] = [math.inf, math.nan, truth[2] + 2e6, truth[3] + 1e3]
    table[y_cap + 1] = math.inf  # a tail cell: capped, but not counted in the flag
    given = table.copy()
    value, tail, flags = ex._regret_from_table(TP, table, ["infinite=1"], y_cap)
    # inf and NaN are capped and counted; a finite error past the cap is only capped
    assert flags == ["capped=2", "infinite=1"]
    want = ex.SQERR_CAP * (f[0] + f[1] + f[2]) + (table[3] - truth[3]) ** 2 * f[3]
    assert value == pytest.approx(want, rel=1e-14)
    assert tail == pytest.approx(ex.SQERR_CAP * f[y_cap + 1], rel=1e-14)
    np.testing.assert_array_equal(table, given)  # the rule's table is not written to
    # with nothing to cap there is no flag
    assert ex._regret_from_table(TP, truth, [], y_cap) == (0.0, 0.0, [])


def test_oracle_regret_trial_draws_no_sample(monkeypatch):
    # the oracle reads no training counts, so its trial must not draw them
    calls = []
    real_sample = ResolvedPrior.sample_counts

    def spy(self, seed, size):
        calls.append(size)
        return real_sample(self, seed, size)

    monkeypatch.setattr(ResolvedPrior, "sample_counts", spy)
    assert individual_regret_trial(TP, 50, "oracle", (1, 2)) == (0.0, 0.0, [])
    assert calls == []


def test_methods_sharing_a_key_share_one_draw(monkeypatch):
    # each replicate draws its training counts once and fits the NPMLE once, for all its rows
    r = resolve(TP_SPEC, p=2.0)
    draws, fits = [], []
    real_atom_counts = ResolvedPrior._atom_counts  # every draw's one multinomial
    real_fit = ex.fit_npmle

    def spy_draw(self, seed, size):
        draws.append((seed, size))
        return real_atom_counts(self, seed, size)

    def spy_fit(data, **kw):
        fits.append(kw.get("init_prior"))  # None on a full fit
        return real_fit(data, **kw)

    monkeypatch.setattr(ResolvedPrior, "_atom_counts", spy_draw)
    monkeypatch.setattr(ex, "fit_npmle", spy_fit)
    plan = small_plan(methods=("npmle", "robbins-trunc", "oracle"), seed=3, n_grid=(50, 60),
                      metrics=("hellinger_sq", "individual_regret"))
    rows = run_plan(plan, resolved=r).rows
    keys = [(3, n, rep, ex._PURPOSE_TRAIN) for n in (50, 60) for rep in range(2)]
    assert draws == [(key, key[1] - 1) for key in keys]
    assert fits == [None] * len(keys)
    monkeypatch.undo()
    # the shared draw scores as a fresh prior's own draws do
    for row in rows:
        key, fresh = (3, row.n, row.replicate, ex._PURPOSE_TRAIN), resolve(TP_SPEC, p=2.0)
        if row.metric == "hellinger_sq":
            value, flags = density_risk_trial(fresh, row.n, key)
            assert (row.value, row.flags) == (value, ";".join(flags))
        else:
            value, tail, flags = individual_regret_trial(fresh, row.n, row.method, key)
            assert (row.value, row.std_error, row.flags) == (value, tail, ";".join(flags))
    hist = r.count_histogram((3, 5), 59)
    fresh = CountHistogram.from_samples(r.sample_counts((3, 5), 59)[1])
    np.testing.assert_array_equal(hist.ys, fresh.ys)
    np.testing.assert_array_equal(hist.cnts, fresh.cnts)


def test_regret_sums_do_not_depend_on_the_blas_thread_count():
    # y_cap is 23,311 on heavy_tail p=1.5: long enough for BLAS to split a dot product
    src = str(Path(ex.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "from poisson_eb.experiments import individual_regret_trial\n"
            "from poisson_eb.priors import PriorSpec, resolve\n"
            "r = resolve(PriorSpec('heavy_tail', {'p': 1.5}), p=1.5)\n"
            "print(repr(individual_regret_trial(r, 1000, 'robbins-trunc', (1, 1000, 0, 1))))\n"
            "print(repr(r.mmse_ref()))\n"  # the direct path subtracts n times this
            # the mixture kernel's row sums are matrix products
            "import hashlib; from poisson_eb.mixtures import posterior_moment_table\n"
            "y = r.pmf().y_max\n"
            "print(hashlib.sha256(r.oracle_table(y).tobytes()).hexdigest())\n"
            "print(hashlib.sha256(posterior_moment_table(r.discretization, y, 2).tobytes())"
            ".hexdigest())")
    out = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS=threads)).stdout
           for threads in ("1", "2")]
    assert out[0] == out[1]
    assert "inf" not in out[0] and "nan" not in out[0]


def test_individual_regret_trial_is_deterministic():
    a = individual_regret_trial(TP, 50, "robbins", (3, 4))
    b = individual_regret_trial(TP, 50, "robbins", (3, 4))
    c = individual_regret_trial(TP, 50, "robbins", (3, 5))
    assert a == b
    assert a != c
    assert a[0] >= 0.0 and math.isfinite(a[0])


def test_npmle_method_runs_for_label_moment_p1():
    # p = 1 has no tuning schedule; the mixture rule must fall back rather
    # than refuse fixed-prior plans
    r = resolve(TP_SPEC, p=1.0)
    value, tail, flags = individual_regret_trial(r, 30, "npmle", (9, 9))
    assert math.isfinite(value) and value >= 0.0


def test_total_regret_product_and_direct_paths():
    out = total_regret_trial(TP, 40, "robbins-addone", (7, 1), direct_seed=(7, 1, 2))
    ind = individual_regret_trial(TP, 40, "robbins-addone", (7, 1))
    assert out["individual_regret"] == ind
    assert out["total_regret"][0] == pytest.approx(40 * ind[0])
    assert out["total_regret_direct"][1] == 0.0
    assert math.isfinite(out["total_regret_direct"][0])
    # direct path re-run reproduces itself
    again = total_regret_trial(TP, 40, "robbins-addone", (7, 1), direct_seed=(7, 1, 2))
    assert out["total_regret_direct"] == again["total_regret_direct"]
    assert set(total_regret_trial(TP, 40, "robbins-addone", (7, 1))) == {
        "individual_regret", "total_regret"}


def test_direct_total_regret_is_finite_on_a_point_mass_at_zero():
    # f(y) = 0 for every y > 0, and the direct row subtracts n times mmse_ref
    r = resolve(PriorSpec("point_mass", {"value": 0.0}))
    value, tail, flags = total_regret_trial(r, 50, "robbins", (1, 2),
                                            direct_seed=(1, 3))["total_regret_direct"]
    assert math.isfinite(value) and math.isfinite(tail)


def test_bounded_rule_regret_diverges_on_infinite_second_moment(heavy_tail_15):
    # E theta^2 = inf and add-one predicts 0 above its largest training count:
    # the regret is infinite at every n, not a partial sum set by the window
    ind = individual_regret_trial(heavy_tail_15, 200, "robbins-addone", (5, 1))
    assert ind == (math.inf, math.inf, ["divergent_regret"])
    assert individual_regret_trial(heavy_tail_15, 200, "robbins-addone", (5, 1)) == ind
    # the rule's own flags are kept
    plain = individual_regret_trial(heavy_tail_15, 200, "robbins", (5, 1))
    assert plain[0] == math.inf
    assert plain[2][-1] == "divergent_regret"
    train = heavy_tail_15.count_histogram((5, 1), 199)
    census = sum(1 for v in range(train.y_max) if train.count_of(v) == 0 < train.count_of(v + 1))
    assert f"infinite={census}" in plain[2]
    out = total_regret_trial(heavy_tail_15, 200, "robbins-addone", (5, 1),
                             direct_seed=(5, 1, 2))
    assert out["total_regret"] == (math.inf, math.inf, ["divergent_regret"])
    direct, _, direct_flags = out["total_regret_direct"]
    assert math.isfinite(direct)
    assert direct_flags == ["divergent_regret"]


def test_unbounded_rules_stay_finite_on_infinite_second_moment(heavy_tail_15):
    value, tail, flags = individual_regret_trial(heavy_tail_15, 200, "robbins-trunc", (5, 1))
    assert math.isfinite(value) and math.isfinite(tail) and value > 0.0
    assert "divergent_regret" not in flags
    assert individual_regret_trial(heavy_tail_15, 200, "oracle", (5, 1)) == (0.0, 0.0, [])


def test_bounded_rule_stays_finite_on_finite_second_moment():
    ht2 = resolve(PriorSpec("heavy_tail", {"p": 2.0}), p=2.0)
    value, tail, flags = individual_regret_trial(ht2, 200, "robbins-addone", (5, 1))
    assert math.isfinite(value) and math.isfinite(tail) and value > 0.0
    assert "divergent_regret" not in flags


def test_leave_one_out_tables_match_per_y_refits():
    # gaps next to singletons: removing the point at 1 or 4 empties N(y) under
    # a nonempty N(y+1) (infinite), at 5 or 10 it leaves 0/0 (degenerate)
    hist = CountHistogram.from_counts({0: 3, 1: 1, 2: 2, 4: 1, 5: 1, 9: 2, 10: 1})
    for config in (EstimatorConfig("robbins_plain"), EstimatorConfig("robbins_addone"),
                   EstimatorConfig("robbins_trunc", y0=4), EstimatorConfig("oracle")):
        est, flags = ex._loo_estimates(TP, config, hist)
        ref_est, ref_flags = [], []
        for y in hist.ys.tolist():
            if config.kind == "oracle":
                ref_est.append(posterior_moment_table(TP.discretization, y)[y])
                continue
            train = hist.remove_one(y)
            value = fit_rule(config, y, train=train).table[y]
            ref_est.append(value)
            if config.kind == "robbins_plain" and train.count_of(y) == 0:
                ref_flags.append(f"{'infinite' if value == math.inf else 'degenerate'}@{y}")
        if config.kind == "oracle":
            np.testing.assert_allclose(est, ref_est, rtol=1e-12)
        else:
            np.testing.assert_array_equal(est, ref_est)
        assert flags == ref_flags, config
    _, flags = ex._loo_estimates(TP, EstimatorConfig("robbins_plain"), hist)
    assert flags == ["infinite@1", "infinite@4", "degenerate@5", "degenerate@10"]


def test_solver_tol_reaches_density_regret_and_loo_fits(monkeypatch):
    calls = []
    real_fit = ex.fit_npmle

    def spy(data, **kw):
        calls.append((kw.get("init_prior") is not None, kw["tol"]))
        return real_fit(data, **kw)

    monkeypatch.setattr(ex, "fit_npmle", spy)
    plan = small_plan(methods=("npmle",), metrics=("hellinger_sq", "total_regret"),
                      direct_total=True, n_grid=(20,), replicates=1)
    run_plan(plan, resolved=TP)
    assert {restricted for restricted, _ in calls} == {False, True}   # full fits and refits
    assert {tol for _, tol in calls} == {ex.SOLVER_TOL}


def test_density_risk_trial_bounds():
    value, flags = density_risk_trial(TP, 60, (2, 8))
    assert 0.0 <= value <= 2.0
    assert isinstance(flags, list)
    with pytest.raises(InvalidInputError):
        density_risk_trial(TP, 5, (2, 8))


_HIST = CountHistogram.from_samples([0, 1, 1, 2])
_POINT = DiscretePrior([1.0], [1.0])
_SIZED_CALLS = {  # each call with a whole-number argument: a size, table end, n, order, y or seed
    "count_histogram": lambda k: TP.count_histogram(3, k),
    "sample_counts": lambda k: TP.sample_counts(3, k),
    "oracle_table": lambda k: TP.oracle_table(k),
    "fit_rule": lambda k: fit_rule(EstimatorConfig("robbins_plain"), k, train=_HIST),
    "individual_regret_trial": lambda k: individual_regret_trial(TP, k, "robbins", 3),
    "density_risk_trial": lambda k: density_risk_trial(TP, k, 3),
    "tuned_config": lambda k: tuned_config("npmle", k, 2.0),
    "plan_n_grid": lambda k: small_plan(n_grid=(k, 40)),
    "plan_replicates": lambda k: small_plan(replicates=k),
    "plan_seed": lambda k: small_plan(seed=k),
    "stream_key": lambda k: TP.sample_counts((11, 20, k, 1), 12),
    "estimator_y0": lambda k: EstimatorConfig("robbins_trunc", y0=k),
    "robbins": lambda k: robbins(_HIST, k),
    "robbins_truncated": lambda k: robbins_truncated(_HIST, k, 3),
    "npmle_eb": lambda k: npmle_eb(_POINT, k),
    "fit_npmle_max_iter": lambda k: fit_npmle(_HIST, max_iter=k),
    "bayes_rule": lambda k: bayes_rule(pmf_table(_POINT, min_len=20), k),
    "pmf_and_moment_tables": lambda k: pmf_and_moment_tables(_POINT, 1e-10, min_len=k),
    "finite_diff_order": lambda k: finite_diff([1.0, 2.0], k, "forward", 0),
    "finite_diff_y": lambda k: finite_diff([1.0, 2.0], 1, "forward", k),  # no lower bound
    "diff_table": lambda k: diff_table([1.0, 2.0], k),
    "charlier": lambda k: charlier(k, 3.0, 2.0),
    "ak_sequence": lambda k: ak_sequence(_POINT, DiscretePrior([2.0], [1.0]), 0.1, k),
    "forward_weighted_diff_sum": lambda k: forward_weighted_diff_sum(_POINT, k),
    "divergent_mixture_pmf": lambda k: divergent_mixture_pmf(k),
}


@pytest.mark.parametrize("name", sorted(_SIZED_CALLS))
def test_a_fractional_size_is_refused(name):
    # fractional sizes once drew int(size), and fractional ends raised a bare TypeError
    call = _SIZED_CALLS[name]
    for k in (2.5, 10.5, 12.7, True):  # a bool is no count
        with pytest.raises(InvalidInputError,
                           match=f"must be >= (-inf|[0-9]+) and whole \\(got {k}\\)"):
            call(k)
    call(np.int64(12))  # numpy integers are whole
    call(12.0)


# ---------------------------------------------------------------------------
# the sweep driver
# ---------------------------------------------------------------------------

def test_run_plan_layout_and_determinism():
    plan = small_plan()
    rep1 = run_plan(plan, resolved=TP)
    rep2 = run_plan(plan, resolved=TP)
    assert rep1.rows == rep2.rows
    assert rep1.rows_csv() == rep2.rows_csv()
    assert rep1.slopes_csv() == rep2.slopes_csv()
    # every scheduled row exists, in (n, replicate, method, metric) fold order
    assert len(rep1.rows) == 2 * 2 * 2 * 2
    keys = [(r.n, r.replicate, r.method, r.metric) for r in rep1.rows]
    assert keys == sorted(
        keys,
        key=lambda k: (k[0], k[1], plan.methods.index(k[2]), k[3] != "individual_regret"),
    )
    # runtime is measured but never serialized
    assert rep1.runtime_seconds > 0.0
    assert "runtime" not in rep1.rows_csv()


def test_run_plan_total_is_n_times_individual():
    rep = run_plan(small_plan(), resolved=TP)
    for r in rep.rows:
        if r.metric == "total_regret":
            (ind,) = [
                q.value for q in rep.rows
                if (q.n, q.replicate, q.method) == (r.n, r.replicate, r.method)
                and q.metric == "individual_regret"
            ]
            assert r.value == r.n * ind


@pytest.mark.parametrize("change", [
    {"direct_total": True},
    {"tuning_c": 2.0},
    {"disc_tol": 1e-7},
], ids=lambda change: "-".join(change))
def test_header_records_every_plan_setting(change):
    def head(plan):
        return ExperimentReport(plan, [], [], 0.0).header_lines()

    assert head(small_plan()) != head(small_plan(**change))


def test_header_prints_the_solver_and_cap_constants():
    line = ExperimentReport(small_plan(), [], [], 0.0).header_lines()[1]
    assert line.endswith(
        "tuning_c=1 disc_tol=1e-06 solver_tol=1e-06 y_cap_eps=1e-09 direct_total=0"
    )


def test_run_plan_header_and_accessors():
    rep = run_plan(small_plan(), resolved=TP)
    head = "\n".join(rep.header_lines())
    assert "two_point" in head and "seed=11" in head and "poisson_eb" in head
    means = rep.mean_by_n("robbins", "individual_regret")
    assert sorted(means) == [20, 40]
    assert means[20] == pytest.approx(float(np.mean(
        [r.value for r in rep.rows
         if (r.n, r.method, r.metric) == (20, "robbins", "individual_regret")]
    )))
    assert sum((r.n, r.method, r.metric) == (40, "robbins-addone", "total_regret")
               for r in rep.rows) == 2


def test_run_plan_direct_total_rows():
    plan = small_plan(methods=("robbins-addone",), direct_total=True, n_grid=(20,),
                      replicates=1, metrics=("total_regret",))
    rep = run_plan(plan, resolved=TP)
    metrics = [r.metric for r in rep.rows]
    assert metrics == ["total_regret", "total_regret_direct"]
    assert all(math.isfinite(r.value) for r in rep.rows)


def test_run_plan_rows_are_the_public_trial_calls():
    plan = small_plan(methods=tuple(CLI_KIND_NAMES), n_grid=(20,), replicates=2,
                      metrics=("hellinger_sq", "individual_regret", "total_regret"),
                      direct_total=True)
    tp2 = resolve(TP_SPEC, p=2.0)          # robbins-trunc's tuning needs p > 1
    expected = []
    for rep in range(plan.replicates):
        train, direct = ((plan.seed, 20, rep, purpose)
                         for purpose in (ex._PURPOSE_TRAIN, ex._PURPOSE_DIRECT))
        value, flags = density_risk_trial(tp2, 20, train)  # read off the training draw's fit
        expected.append(ExperimentRow(20, rep, "npmle", "hellinger_sq", value, 0.0,
                                      ";".join(flags)))
        for method in plan.methods:
            out = total_regret_trial(tp2, 20, method, train, direct_seed=direct)
            for metric in ("individual_regret", "total_regret", "total_regret_direct"):
                value, tail, flags = out[metric]
                expected.append(ExperimentRow(20, rep, method, metric, value, tail,
                                              ";".join(flags)))
    assert run_plan(plan, resolved=tp2).rows == expected


def test_run_plan_reports_divergent_regret_as_infinite(heavy_tail_15):
    plan = ExperimentPlan(
        prior=PriorSpec("heavy_tail", {"p": 1.5}), p=1.5, n_grid=(50,), replicates=2,
        methods=("robbins-addone", "robbins-trunc", "oracle"),
        metrics=("individual_regret", "total_regret"), seed=3, direct_total=True,
    )
    rep = run_plan(plan, resolved=heavy_tail_15)
    assert run_plan(plan, resolved=heavy_tail_15).rows_csv() == rep.rows_csv()
    assert len(rep.rows) == 2 * 3 * 3
    for r in rep.rows:
        divergent = r.method == "robbins-addone"
        assert ("divergent_regret" in r.flags) is divergent, r
        if r.metric == "total_regret_direct":
            assert math.isfinite(r.value), r       # the sampled value is kept
        elif divergent:
            assert r.value == r.std_error == math.inf, r
        else:
            assert math.isfinite(r.value) and math.isfinite(r.std_error), r
            assert (r.value == 0.0) is (r.method == "oracle"), r
    assert "50,0,robbins-addone,individual_regret,inf,inf,divergent_regret" in rep.rows_csv()


def test_run_plan_hellinger_rows():
    plan = small_plan(methods=(), metrics=("hellinger_sq",), n_grid=(30,), replicates=2)
    rep = run_plan(plan, resolved=TP)
    assert [r.method for r in rep.rows] == ["npmle", "npmle"]
    assert all(0.0 <= r.value <= 2.0 for r in rep.rows)


def _boom(*a, **k):
    raise ValueError("synthetic failure")


def test_run_plan_failed_trials_leave_flagged_rows(monkeypatch):
    monkeypatch.setattr(ex, "_regret_from_table", _boom)
    rep = run_plan(small_plan(), resolved=TP)
    assert len(rep.rows) == 2 * 2 * 2 * 2
    for r in rep.rows:
        assert math.isnan(r.value)
        assert r.flags == "failed:ValueError"


def _fit_rule_failing_on_robbins_trunc(config, *a, **k):
    if config.kind == "robbins_trunc":
        raise ValueError("synthetic failure")
    return fit_rule(config, *a, **k)


@pytest.mark.parametrize("target, patch, failed", [
    # a fit that raises fails the rows that read it: npmle's and hellinger_sq's
    (ex, ("fit_npmle", _boom), {"npmle"}),
    # a rule that raises fails its own method's rows
    (ex, ("fit_rule", _fit_rule_failing_on_robbins_trunc), {"robbins-trunc"}),
    # a draw that raises fails every row of the replicate, the oracle's too
    (ResolvedPrior, ("count_histogram", _boom), None),
], ids=["fit", "rule", "draw"])
def test_run_plan_fails_only_the_rows_a_failure_reaches(monkeypatch, target, patch, failed):
    plan = small_plan(methods=("robbins-addone", "npmle", "robbins-trunc", "oracle"),
                      metrics=("hellinger_sq", "individual_regret"), n_grid=(30,))
    tp2 = resolve(TP_SPEC, p=2.0)  # robbins-trunc's tuning needs p > 1
    want = run_plan(plan, resolved=tp2).rows
    monkeypatch.setattr(target, *patch)
    rows = run_plan(plan, resolved=tp2).rows
    assert len(rows) == len(want) == 2 * (1 + 4)
    for got, row in zip(rows, want):
        if failed is None or row.method in failed:
            assert (got.n, got.replicate, got.method, got.metric) == (
                row.n, row.replicate, row.method, row.metric)
            assert math.isnan(got.value) and got.flags == "failed:ValueError", got
        else:
            assert got == row


def test_run_plan_skips_slopes_for_short_grids():
    rep = run_plan(small_plan(), resolved=TP)       # 2 n-values: ineligible
    assert rep.slopes == []


def test_run_plan_emits_slopes_for_wide_grids():
    plan = small_plan(
        methods=("robbins-addone",), metrics=("individual_regret",),
        n_grid=(20, 60, 200, 700), replicates=2,
    )
    rep = run_plan(plan, resolved=TP)
    assert len(rep.slopes) == 1
    s = rep.slopes[0]
    assert s.method == "robbins-addone" and s.metric == "individual_regret"
    assert s.n_points == 4
    assert "slope" in rep.slopes_csv().splitlines()[2]


def test_regret_small_plan_runs_clean_with_warnings_as_errors():
    # uncertified fits are flagged, never warned about: no row fails on a warning
    plan = parse_plan((Path(__file__).resolve().parents[1] / "demos" / "plans"
                       / "regret_small.plan").read_text())
    plan = replace(plan, n_grid=(316, 1000), replicates=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = run_plan(plan)
    assert len(rep.rows) == 2 * 2
    assert not [r.flags for r in rep.rows if r.flags.startswith("failed:")]
