"""End-to-end acceptance battery.

Slower than the unit suites (a few minutes of Monte Carlo in total): each
test here drives the public surface the way a study script would, with every
seed frozen so reruns are directly comparable.  The identity and bound checks
assert their stated tolerances; the rate and regret sweeps assert
the slope bands and orderings the estimators are expected to reproduce at
desk scale.
"""

import importlib
import math
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binomtest

from identities import ak_sequence, forward_weighted_diff_sum
from poisson_eb.experiments import ExperimentPlan, parse_plan, run_plan
from poisson_eb.mixtures import DiscretePrior
from poisson_eb.moment_match import local_moment_match
from poisson_eb.npmle import CountHistogram, fit_npmle, kkt_gap_on_grid
from poisson_eb.priors import PriorSpec, divergent_mmse_diagnostic, resolve


# ---------------------------------------------------------------------------
# binomial moment identities, by exact enumeration
# ---------------------------------------------------------------------------

def test_binomial_moment_identities():
    # exact: E[(n-X)/(X+1)] = ((1-p)/p) P(X >= 1) for X ~ Bin(n, p); and
    # E[(n-X)/(X+1)^2] within a factor 8 of ((1-p)/p^2) P(Bin(n+1, p) >= 2)/(n+1)
    for n in range(1, 31):
        k = np.arange(n + 1)
        for p in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9):
            pmf = np.array([math.comb(n, j) for j in k]) * p ** k * (1.0 - p) ** (n - k)
            lhs1 = float(pmf @ ((n - k) / (k + 1.0)))
            rhs1 = (1.0 - p) / p * float(1.0 - pmf[0])
            assert abs(lhs1 - rhs1) <= 1e-12 * max(abs(rhs1), 1e-30), (n, p)
            lhs2 = float(pmf @ ((n - k) / (k + 1.0) ** 2))
            tail2 = 1.0 - (1.0 - p) ** (n + 1) - (n + 1) * p * (1.0 - p) ** n
            rhs2 = (1.0 - p) / p ** 2 * tail2 / (n + 1.0)
            if rhs2 > 0 and lhs2 > 0:
                assert 1 / 8 <= lhs2 / rhs2 <= 8, (n, p, lhs2 / rhs2)


# ---------------------------------------------------------------------------
# weighted-difference caps on random prior pairs
# ---------------------------------------------------------------------------

def _random_discrete_prior(rng) -> DiscretePrior:
    m = int(rng.integers(2, 7))
    atoms = np.sort(rng.uniform(0.0, 12.0, size=m))
    weights = rng.dirichlet(np.ones(m))
    return DiscretePrior(atoms, weights)


def test_weighted_difference_caps_on_random_pairs():
    # 50 random pairs, both floors: A_k^2 <= 4 k^k / rho for k = 1..10, and
    # the floor-free even-k forward bound sum (y+1)^k (D^k f)^2 <= 2^{3k} k!.
    rng = np.random.default_rng(20240816)
    for _ in range(50):
        g1, g2 = _random_discrete_prior(rng), _random_discrete_prior(rng)
        for rho in (1e-4, 1e-6):
            ak_sq = ak_sequence(g1, g2, rho, k_max=10)
            for k in range(1, 11):
                cap = 4.0 * k ** k / rho
                assert ak_sq[k] <= cap, (k, rho, ak_sq[k] / cap)
        for g in (g1, g2):
            for k in (2, 4, 6, 8, 10):
                fb = forward_weighted_diff_sum(g, k)
                assert fb <= 2.0 ** (3 * k) * math.factorial(k), (k, fb)


# ---------------------------------------------------------------------------
# solver certificates across a mixed fit suite
# ---------------------------------------------------------------------------

def _certificate_suite() -> list:
    canned = [
        CountHistogram([3], [40]),
        CountHistogram([0, 1, 2, 3, 5], [10, 22, 18, 9, 2]),
        CountHistogram([0, 4, 9], [30, 15, 5]),
        CountHistogram([1, 2], [7, 13]),
        # one count far from the rest: a full weight step can drop its only atom
        CountHistogram.from_counts({0: 956, 1: 1, 2: 12, 3: 11, 4: 8, 5: 3, 6: 4, 7: 3,
                                    10: 1, 66: 1}),
        CountHistogram(np.r_[0:40, 81, 499], [  # a Pareto draw: at 499, D/n > e^709
            421, 869, 982, 774, 536, 375, 257, 184, 119, 107, 89, 65, 52, 47, 40, 33, 36, 32, 17,
            20, 16, 12, 8, 18, 11, 16, 11, 10, 11, 5, 6, 6, 5, 8, 7, 5, 7, 9, 6, 4, 1, 1]),
    ]
    sources = [
        resolve(PriorSpec("two_point", {"eps": 0.2, "a": 5.0}), p=2.0),
        resolve(PriorSpec("discrete", {"atoms": (0.5, 2.0, 6.0),
                                       "weights": (0.5, 0.3, 0.2)}), p=2.0),
        resolve(PriorSpec("heavy_tail", {"p": 2.0}), p=2.0),
    ]
    sampled = []
    for idx, src in enumerate(sources):
        for n in (100, 1000):
            for rep in range(2):
                _, y = src.sample_counts((20240818, idx, n, rep), n)
                sampled.append(CountHistogram.from_samples(y))
    return canned + sampled


def test_solver_certificates_survive_finer_grids():
    for data in _certificate_suite():
        fit = fit_npmle(data)
        assert fit.kkt_gap <= 1e-4, (data.ys.tolist(), fit.kkt_gap)
        lo, hi = fit.grid[0], fit.grid[-1]
        fine = np.linspace(math.sqrt(max(lo, 1e-12)), math.sqrt(hi),
                           10 * fit.grid.size) ** 2
        fine_gap = kkt_gap_on_grid(fit.prior, data, fine)
        assert fine_gap <= 1e-4, (data.ys.tolist(), fine_gap)


def test_constant_data_recovers_point_mass():
    for y_val, count in ((3, 40), (7, 25)):
        fit = fit_npmle(CountHistogram([y_val], [count]), tol=1e-8)
        top = float(fit.prior.atoms[np.argmax(fit.prior.weights)])
        assert abs(top - y_val) <= 1e-6, (y_val, top)


# ---------------------------------------------------------------------------
# moment-match compression: measured error and atom budget
# ---------------------------------------------------------------------------

def test_moment_match_error_within_target_and_budget():
    uniform_400 = DiscretePrior(np.linspace(0.0125, 9.9875, 400),
                                np.full(400, 1.0 / 400))
    sources = [
        ("uniform-0-10", uniform_400),
        ("heavy-tail-p2", resolve(PriorSpec("heavy_tail", {"p": 2.0}), p=2.0).discretization),
    ]
    for name, src in sources:
        for M in (64.0, 256.0):
            for eta in (1e-2, 1e-3):
                with warnings.catch_warnings():
                    # desk-scale M sits below the (log 1/eta)^7 guarantee
                    # threshold; the match must still hit the target
                    warnings.simplefilter("ignore", RuntimeWarning)
                    rep = local_moment_match(src, M, eta)
                budget = 5.0 * math.sqrt(M) * math.log(1.0 / eta) ** 1.5
                assert rep.achieved_sup_error <= eta, (name, M, eta, rep.achieved_sup_error)
                assert rep.atom_count <= budget, (name, M, eta, rep.atom_count, budget)


# ---------------------------------------------------------------------------
# density-estimation risk: log-log slope of E H^2 vs n
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def density_rate_report():
    plan = ExperimentPlan(
        name="density-rate",
        prior=PriorSpec("heavy_tail", {"p": 2.0}),
        p=2.0,
        n_grid=(1000, 3162, 10000, 31623, 100000),
        replicates=50,
        methods=(),
        metrics=("hellinger_sq",),
        seed=20240811,
    )
    return run_plan(plan)


def test_density_risk_slope_in_band(density_rate_report):
    slopes = [s for s in density_rate_report.slopes if s.metric == "hellinger_sq"]
    assert len(slopes) == 1
    assert -1.0 <= slopes[0].slope <= -0.60, slopes[0]


# ---------------------------------------------------------------------------
# regret rates: mixture rule vs truncated frequency-ratio rule
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def regret_separation_report():
    plan = ExperimentPlan(
        name="regret-separation",
        prior=PriorSpec("heavy_tail", {"p": 2.0}),
        p=2.0,
        n_grid=(1000, 3162, 10000, 31623, 100000),
        replicates=50,
        methods=("npmle", "robbins-trunc"),
        metrics=("individual_regret",),
        seed=20240812,
    )
    return run_plan(plan)


def test_regret_slopes_in_bands(regret_separation_report):
    slopes = {s.method: s.slope for s in regret_separation_report.slopes
              if s.metric == "individual_regret"}
    assert -0.6 <= slopes["npmle"] <= -0.2, slopes
    assert -0.45 <= slopes["robbins-trunc"] <= -0.05, slopes


def test_npmle_beats_truncated_robbins_at_largest_n(regret_separation_report):
    rows = regret_separation_report.rows
    npm = {r.replicate: r.value for r in rows
           if r.n == 100000 and r.method == "npmle" and r.metric == "individual_regret"}
    rob = {r.replicate: r.value for r in rows
           if r.n == 100000 and r.method == "robbins-trunc" and r.metric == "individual_regret"}
    assert np.median(list(npm.values())) < np.median(list(rob.values()))
    wins = sum(1 for rep in npm if npm[rep] < rob[rep])
    assert binomtest(wins, len(npm), 0.5, alternative="greater").pvalue < 0.05


# ---------------------------------------------------------------------------
# untruncated frequency-ratio rule on a heavier tail
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def untruncated_addone_report():
    plan = ExperimentPlan(
        name="untruncated-addone",
        prior=PriorSpec("heavy_tail", {"p": 1.5}),
        p=1.5,
        n_grid=(1000, 10000, 100000),
        replicates=60,
        methods=("robbins-addone", "npmle"),
        metrics=("individual_regret",),
        seed=20240813,
    )
    return run_plan(plan)


def _median_by_n(report, method) -> list:
    meds = []
    for n in report.plan.n_grid:
        vals = [r.value for r in report.rows if r.n == n and r.method == method]
        meds.append(float(np.median(vals)))
    return meds


def test_untruncated_addone_regret_does_not_shrink(untruncated_addone_report):
    meds = _median_by_n(untruncated_addone_report, "robbins-addone")
    assert all(b >= a for a, b in zip(meds, meds[1:])), meds


def test_npmle_regret_shrinks_on_heavier_tail(untruncated_addone_report):
    meds = _median_by_n(untruncated_addone_report, "npmle")
    assert all(b < a for a, b in zip(meds, meds[1:])), meds


# ---------------------------------------------------------------------------
# every scheduled sweep row is computed, none replaced by a failure row
# ---------------------------------------------------------------------------

def test_sweeps_have_no_failed_rows(density_rate_report, regret_separation_report,
                                    untruncated_addone_report):
    for report in (density_rate_report, regret_separation_report,
                   untruncated_addone_report):
        failed = [r for r in report.rows if r.flags.startswith("failed:")]
        assert not failed, (report.plan.name, failed[:3])


# ---------------------------------------------------------------------------
# total regret: direct leave-one-out path vs n x individual path
# ---------------------------------------------------------------------------

def _two_path_plans() -> list:
    return [
        ExperimentPlan(
            name="two-path-twopoint",
            prior=PriorSpec("two_point", {"eps": 0.2, "a": 5.0}),
            p=2.0,
            n_grid=(100,),
            replicates=24,
            methods=("oracle", "robbins-addone", "robbins-trunc", "npmle"),
            metrics=("total_regret",),
            seed=20240814,
            direct_total=True,
        ),
        ExperimentPlan(
            name="two-path-threeatom",
            prior=PriorSpec("discrete", {"atoms": (0.5, 2.0, 6.0),
                                         "weights": (0.5, 0.3, 0.2)}),
            p=2.0,
            n_grid=(150,),
            replicates=24,
            methods=("robbins-addone", "robbins-trunc", "npmle"),
            metrics=("total_regret",),
            seed=20240815,
            direct_total=True,
        ),
    ]


def test_two_total_regret_paths_agree():
    for plan in _two_path_plans():
        report = run_plan(plan)
        for method in plan.methods:
            prod = np.array([r.value for r in report.rows
                             if r.method == method and r.metric == "total_regret"])
            dire = np.array([r.value for r in report.rows
                             if r.method == method and r.metric == "total_regret_direct"])
            assert prod.size == dire.size == plan.replicates
            se = math.hypot(prod.std(ddof=1) / math.sqrt(prod.size),
                            dire.std(ddof=1) / math.sqrt(dire.size))
            diff = abs(float(prod.mean() - dire.mean()))
            assert diff <= 3.0 * se, (plan.name, method, diff, se)


# ---------------------------------------------------------------------------
# divergent Bayes risk: partial sums keep growing
# ---------------------------------------------------------------------------

def test_partial_bayes_risk_sums_keep_growing():
    diag = divergent_mmse_diagnostic(y_cap=4096)
    ys = [y for y, _ in diag]
    assert ys == [2 ** k for k in range(4, 13)]
    sums = np.array([s for _, s in diag])
    inc = np.diff(sums)
    assert np.all(inc > 0)
    # each doubling adds a non-vanishing amount (~log 2), not a decaying tail
    assert inc.min() >= 0.5 * float(np.median(inc))


# ---------------------------------------------------------------------------
# reruns are byte-identical
# ---------------------------------------------------------------------------

def test_rerun_reproduces_csv_byte_for_byte():
    plan = ExperimentPlan(
        name="rerun-determinism",
        prior=PriorSpec("two_point", {"eps": 0.3, "a": 4.0}),
        p=2.0,
        n_grid=(50, 100),
        replicates=2,
        methods=("robbins-addone", "npmle"),
        metrics=("hellinger_sq", "individual_regret", "total_regret"),
        seed=20240819,
        direct_total=True,
    )
    first, second = run_plan(plan), run_plan(plan)
    assert first.rows_csv().encode() == second.rows_csv().encode()
    assert first.slopes_csv().encode() == second.slopes_csv().encode()


def _same_cell(got: str, want: str) -> bool:
    # not 0: another numpy build may round the last bits of a sum differently
    try:
        return got == want or math.isclose(float(got), float(want), rel_tol=1e-12, abs_tol=0.0)
    except ValueError:  # text and flags compare exactly
        return False


def test_outputs_match_the_pinned_files():
    # tests/data/golden/regenerate.py wrote the CSVs; a change that moves a row
    # reruns it and states the drift
    plans = sorted((Path(__file__).parent / "data" / "golden").glob("*.plan"))
    assert len(plans) == 3
    for plan_path in plans:
        report = run_plan(parse_plan(plan_path.read_text()))
        for got, suffix in ((report.rows_csv(), ".rows.csv"), (report.slopes_csv(), ".slopes.csv")):
            got_lines = got.splitlines()
            want_lines = plan_path.with_suffix(suffix).read_text().splitlines()
            assert len(got_lines) == len(want_lines), plan_path.with_suffix(suffix).name
            for got_line, want_line in zip(got_lines, want_lines):
                assert got_line.count(",") == want_line.count(",") and all(
                    _same_cell(g, w) for g, w in zip(got_line.split(","), want_line.split(","))
                ), (got_line, want_line)


def test_public_namespace_resolves():
    import poisson_eb

    modules = [poisson_eb] + [importlib.import_module(f"poisson_eb.{m.name}")
                              for m in pkgutil.iter_modules(poisson_eb.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"
