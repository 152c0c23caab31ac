import importlib.machinery
import json
import math
import sys
import types
import warnings

import numpy as np
import pytest

import scipy.optimize
from scipy.special import softmax

from poisson_eb import npmle
from poisson_eb.errors import InvalidInputError
from poisson_eb.mixtures import WEIGHT_FLOOR, DiscretePrior, _log_mix, log_poisson_pmf
from poisson_eb.npmle import (
    CountHistogram,
    NpmleFit,
    _line_search,
    _unique_first,
    directional_derivative,
    fit_npmle,
    grid_spec,
    kkt_gap_on_grid,
    load_count_data,
    log_likelihood,
)
from poisson_eb.priors import PriorSpec, resolve

# the solver runs in one error-state scope; a statement left outside it warns
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MIXED = CountHistogram.from_counts({0: 30, 4: 15, 9: 5})


# ---------------------------------------------------------------------------
# histogram container
# ---------------------------------------------------------------------------

def test_histogram_from_samples():
    h = CountHistogram.from_samples([3, 0, 3, 1])
    np.testing.assert_array_equal(h.ys, [0, 1, 3])
    np.testing.assert_array_equal(h.cnts, [1, 1, 2])
    assert h.n == 4
    assert h.distinct == 3
    assert h.y_max == 3
    assert h.mean == pytest.approx(7.0 / 4.0)
    assert h.count_of(3) == 2
    assert h.count_of(2) == 0


def test_histogram_counts_round_trip():
    h = CountHistogram.from_counts({5: 2, 0: 7})
    np.testing.assert_array_equal(h.ys, [0, 5])
    # the JSON count-file form, with string keys, gives the same histogram
    text = json.dumps({"counts": {str(y): c for y, c in zip(h.ys.tolist(), h.cnts.tolist())}})
    h2 = load_count_data(text)
    np.testing.assert_array_equal(h2.ys, h.ys)
    np.testing.assert_array_equal(h2.cnts, h.cnts)


def test_histogram_remove_one():
    h = CountHistogram.from_counts({0: 2, 3: 1})
    h2 = h.remove_one(0)
    np.testing.assert_array_equal(h2.ys, [0, 3])
    np.testing.assert_array_equal(h2.cnts, [1, 1])
    h3 = h2.remove_one(3)          # bin empties out
    np.testing.assert_array_equal(h3.ys, [0])
    with pytest.raises(InvalidInputError):
        h.remove_one(7)
    single = CountHistogram.from_counts({2: 1})
    with pytest.raises(InvalidInputError):
        single.remove_one(2)


def test_histogram_validation():
    with pytest.raises(InvalidInputError):
        CountHistogram(np.array([-1, 2]), np.array([1, 1]))
    with pytest.raises(InvalidInputError):
        CountHistogram(np.array([0, 2]), np.array([1, 0]))   # zero count
    with pytest.raises(InvalidInputError):
        CountHistogram(np.array([2, 0]), np.array([1, 1]))   # unsorted
    with pytest.raises(InvalidInputError):
        CountHistogram(np.array([0.5]), np.array([1]))       # non-integer y
    with pytest.raises(InvalidInputError, match="matching nonempty 1-d"):
        CountHistogram(np.array([0, 1]), np.array([1]))      # shapes differ
    with pytest.raises(InvalidInputError):
        CountHistogram.from_samples([])


@pytest.mark.parametrize("counts", [{2 ** 63: 1}, {1: 2 ** 63}, {5: 2 ** 62, 6: 2 ** 62},
                                    {1: 2 ** 62, 2: 2 ** 62, 3: 2 ** 62, 4: 2 ** 62}])
def test_histogram_refuses_what_int64_cannot_hold(counts):
    # a value, a count or the total n at or past 2^63 (the last total wraps to 0 in int64)
    with pytest.raises(InvalidInputError, match=r"below 2\^63"):
        CountHistogram.from_counts(counts)


def test_histogram_mean_does_not_overflow():
    assert CountHistogram.from_counts({2 ** 62: 4, 1: 1}).mean == (4 * 2 ** 62 + 1) / 5
    assert CountHistogram.from_counts({0: 30, 4: 15, 9: 5}).mean == 2.1


@pytest.mark.parametrize("samples", [
    [1000000.5, 3.00001, 2],   # within np.allclose of whole numbers
    [2.0, 2.000001],
    [1.0, math.nan],
    [1.0, math.inf],
])
def test_histogram_refuses_float_samples_that_are_not_whole(samples):
    # a float observation is a count only if it equals its floor: nothing is rounded
    with pytest.raises(InvalidInputError, match="whole numbers"):
        CountHistogram.from_samples(samples)
    with pytest.raises(InvalidInputError, match="whole numbers"):
        fit_npmle(np.array(samples))


@pytest.mark.parametrize("samples", [
    ["1", "2"],                                  # strings
    np.array([True, False, True]),               # booleans are no counts
    [1.0, 1e19],                                 # a whole float at or beyond 2^63
    [1, -1, 10 ** 19],                           # numpy makes these floats
    np.array([1, 2 ** 63], dtype=np.uint64),
    [1, 2, 10 ** 20],                            # numpy keeps these as Python ints
])
def test_histogram_refuses_samples_that_are_no_int64_counts(samples):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning on the way to the refusal
        with pytest.raises(InvalidInputError, match=r"whole numbers below 2\^63"):
            CountHistogram.from_samples(samples)


def test_histogram_refuses_counts_beyond_int64():
    with pytest.raises(InvalidInputError, match=r"below 2\^63"):
        CountHistogram(np.array([1, 2]), np.array([3, 2 ** 63], dtype=np.uint64))


def test_histogram_keeps_the_largest_int64_count():
    h = CountHistogram.from_samples(np.array([2 ** 63 - 1, 3], dtype=np.uint64))
    assert h.ys.dtype == np.int64 and h.ys.tolist() == [3, 2 ** 63 - 1]


@pytest.mark.parametrize("text", ["1 2 100000000000000000000", "1 2 10000000000000000000"])
def test_load_count_data_refuses_counts_beyond_int64(text):
    with pytest.raises(InvalidInputError, match=r"below 2\^63"):
        load_count_data(text)


def test_load_count_data_lines_and_json():
    h = load_count_data("3\n0\n3\n1\n")
    assert h.n == 4 and h.count_of(3) == 2
    h2 = load_count_data(json.dumps({"counts": {"0": 2, "3": 1}}))
    assert h2.n == 3 and h2.count_of(0) == 2
    with pytest.raises(InvalidInputError):
        load_count_data("")
    with pytest.raises(InvalidInputError):
        load_count_data("{not json")
    with pytest.raises(InvalidInputError):
        load_count_data('{"atoms": []}')
    with pytest.raises(InvalidInputError):
        load_count_data("1\ntwo\n")


@pytest.mark.parametrize("counts", [
    [5, 3],                    # not a mapping
    {"3": 2.5, "0": 4},        # fractional count
    {"3": True, "0": 4},       # boolean count
    {"3": "2", "0": 4},        # string count
    {"x": 1, "0": 4},          # non-integer key
    {"3.5": 1},
])
def test_from_counts_refuses_malformed_mappings(counts):
    with pytest.raises(InvalidInputError):
        CountHistogram.from_counts(counts)
    with pytest.raises(InvalidInputError):
        load_count_data(json.dumps({"counts": counts}))


def test_from_counts_accepts_whole_float_counts():
    h = CountHistogram.from_counts({"3": 2.0, "0": 4})
    np.testing.assert_array_equal(h.ys, [0, 3])
    np.testing.assert_array_equal(h.cnts, [4, 2])


# ---------------------------------------------------------------------------
# likelihood and certificate machinery
# ---------------------------------------------------------------------------

def test_log_likelihood_point_mass_oracle():
    # log f(0) under a unit mass at 1 is exactly -1
    g = DiscretePrior([1.0], [1.0])
    h = CountHistogram.from_counts({0: 1})
    assert log_likelihood(g, h) == pytest.approx(-1.0, rel=1e-14)


def test_log_likelihood_two_atom_oracle():
    # 2 log f(0) + log f(3) under 0.5 d1 + 0.5 d5, enumerated separately
    g = DiscretePrior([1.0, 5.0], [0.5, 0.5])
    h = CountHistogram.from_counts({0: 2, 3: 1})
    assert log_likelihood(g, h) == pytest.approx(-5.644179299740829, rel=1e-12)


def test_directional_derivative_at_point_mass_optimum():
    # for constant data the NPMLE is the unit mass at y-bar and D(y-bar) = n
    h = CountHistogram.from_counts({3: 8})
    g = DiscretePrior([3.0], [1.0])
    d = directional_derivative(g, h, np.array([3.0, 1.0, 6.0]))
    assert d[0] == pytest.approx(8.0, rel=1e-12)
    assert d[1] < 8.0 and d[2] < 8.0


def test_grid_spec_covers_data():
    g = grid_spec(MIXED)
    assert np.all(np.diff(g) > 0)
    assert g[0] <= 0.5 and g[-1] >= 1.5 * MIXED.y_max - 1e-9


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def test_fit_constant_data_recovers_point_mass():
    fit = fit_npmle([3, 3, 3, 3])
    assert fit.converged
    assert fit.prior.n_atoms == 1
    assert fit.prior.atoms[0] == pytest.approx(3.0, abs=1e-6)
    # maximized likelihood = 4 log Poi(3; 3)
    target = 4 * (3 * math.log(3.0) - 3.0 - math.log(6.0))
    assert fit.log_likelihood == pytest.approx(target, rel=1e-9)
    assert fit.kkt_gap <= fit.tol


def test_fit_mixed_data_certificate():
    fit = fit_npmle(MIXED)
    assert fit.converged
    assert fit.kkt_gap <= fit.tol
    # revalidate the certificate on a much finer grid than the solver used
    fine = np.linspace(0.0, 1.2 * math.sqrt(1.5 * MIXED.y_max), 2_000) ** 2
    gap = kkt_gap_on_grid(fit.prior, MIXED, fine)
    assert gap <= 1e-4
    # NPMLE beats any fixed candidate prior on its own data
    for cand in (
        DiscretePrior([MIXED.mean], [1.0]),
        DiscretePrior([1.0, 5.0], [0.5, 0.5]),
    ):
        assert fit.log_likelihood >= log_likelihood(cand, MIXED) - 1e-9


def test_fit_likelihood_trace_monotone():
    fit = fit_npmle(MIXED)
    trace = np.array(fit.ll_trace)
    assert trace.size >= 1
    assert np.all(np.diff(trace) >= -1e-7 * np.abs(trace[:-1]))


def test_fit_accepts_warm_start():
    fit = fit_npmle(MIXED)
    refit = fit_npmle(MIXED, init_prior=fit.prior)
    assert refit.converged
    assert refit.iterations < fit.iterations  # the start is used, not rebuilt
    assert refit.log_likelihood == pytest.approx(fit.log_likelihood, rel=1e-9)


def test_fit_converges_on_heavy_tail_draw_with_far_counts(heavy_tail_15):
    # 99,999 draws reaching y = 11,928: Poi/f ratios there overflow a
    # linear-domain weight step
    _, y = heavy_tail_15.sample_counts((20240813, 100000, 6, 1), 99_999)
    fit = fit_npmle(y)
    assert fit.converged
    assert fit.kkt_gap <= fit.tol


def test_fit_returns_uncertified_fit_without_warning():
    # whether an uncertified fit is an error is the caller's decision
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_npmle(MIXED, tol=1e-15, max_iter=200)
    assert not fit.converged
    assert fit.kkt_gap > fit.tol


def test_fit_stops_when_support_outgrows_the_data():
    # at a tol it cannot reach, each iteration used to insert near-copies of
    # atoms at weight ~1e-13 that the weight solve never pruned: 558 atoms
    # after 300 iterations
    data = CountHistogram.from_counts({0: 25, 1: 8, 2: 4, 3: 3, 4: 2, 5: 2, 6: 3, 7: 1, 9: 1})
    fit = fit_npmle(data, tol=1e-14, max_iter=300)    # the cap keeps a regression quick
    assert not fit.converged
    assert len(fit.ll_trace) <= 50
    assert fit.prior.n_atoms <= 2 * data.distinct + 16
    assert fit.kkt_gap < 1e-10                 # still a near-optimal fit


@pytest.mark.parametrize("n", [316, 1000])
def test_fit_stops_when_the_likelihood_stops_rising(n):
    # regret_small.plan's training samples at a tol below what the
    # certificate resolves used to spin for thousands of outer iterations,
    # each accepting a weight step that did not raise the likelihood
    heavy_tail_2 = resolve(PriorSpec("heavy_tail", {"p": 2}), p=2)
    _, y = heavy_tail_2.sample_counts((11, n, 0, 1), n - 1)
    fit = fit_npmle(y, tol=1e-15)
    assert not fit.converged
    assert len(fit.ll_trace) <= 100
    assert fit.kkt_gap < 1e-11


def test_weight_solve_stops_when_its_gain_is_below_rounding():
    # at tol 1e-15 the first weight solve used to spend all 10,000 steps: D/n
    # on the support was within 1.3e-13 of 1 after 20 steps, and each later
    # step passed the Armijo test on a gain the recomputed likelihood missed
    data = CountHistogram.from_counts({0: 308, 2: 2, 5: 1, 6: 2, 7: 1, 30: 1})
    fit = fit_npmle(data, tol=1e-15)
    assert fit.iterations <= 100
    assert fit.kkt_gap < 1e-11


@pytest.mark.parametrize("counts", [{0: 50}, {7: 20}, {5: 1}, {0: 999, 300: 1}],
                         ids=["all-zero", "one-value", "one-draw", "far-count"])
def test_fit_from_the_counts_handles_edge_data(counts):
    # the cold start is the counts' own distribution, one atom per distinct y
    data = CountHistogram.from_counts(counts)
    fit = fit_npmle(data)
    assert fit.converged
    assert fit.kkt_gap <= fit.tol
    assert _fine_grid_gap(fit, data) <= fit.tol


def test_fit_validation():
    with pytest.raises(InvalidInputError):
        fit_npmle(MIXED, tol=0.0)
    with pytest.raises(InvalidInputError):
        fit_npmle(MIXED, max_iter=0)
    with pytest.raises(InvalidInputError):
        NpmleFit(
            prior=DiscretePrior([1.0], [1.0]),
            log_likelihood=-1.0,
            kkt_gap=-0.5,
            iterations=1,
            converged=True,
            tol=1e-5,
            grid=np.array([1.0]),
            ll_trace=(),
        )


def test_fit_to_dict_layout():
    fit = fit_npmle([2, 2])
    doc = fit.to_dict()
    assert set(doc) == {
        "prior",
        "log_likelihood",
        "kkt_gap",
        "iterations",
        "converged",
        "tol",
        "grid_size",
    }
    assert doc["prior"]["atoms"] == [pytest.approx(2.0, abs=1e-6)]


# ---------------------------------------------------------------------------
# joint insertion: certificates on random data, and the line search
# ---------------------------------------------------------------------------

RANDOM_KINDS = ("gamma", "pareto", "few_atoms", "zeros_far")


def _random_histogram(kind: str, seed: int) -> CountHistogram:
    rng = np.random.default_rng([20261018, RANDOM_KINDS.index(kind), seed])
    n = int(round(10 ** rng.uniform(1.0, 4.5)))
    if kind == "gamma":
        theta = rng.gamma(rng.uniform(0.3, 3.0), rng.uniform(0.5, 10.0), n)
    elif kind == "pareto":  # y_max reaches 35,298 at n = 28,344
        theta = (rng.pareto(rng.uniform(1.0, 2.5), n) + 1.0) * rng.uniform(0.2, 3.0)
    elif kind == "few_atoms":
        k = int(rng.integers(1, 5))
        theta = rng.choice(rng.uniform(0.0, 40.0, k), n, p=rng.dirichlet(np.ones(k)))
    else:  # zeros plus one or two far counts
        far = rng.integers(30, 301, int(rng.integers(1, 3)))
        return CountHistogram.from_samples(np.concatenate([np.zeros(n - far.size, int), far]))
    return CountHistogram.from_samples(rng.poisson(theta))


def _fine_grid_gap(fit: NpmleFit, data: CountHistogram) -> float:
    s = np.linspace(0.0, 1.2 * math.sqrt(1.5 * data.y_max), 20_000)
    return kkt_gap_on_grid(fit.prior, data, s * s)


@pytest.mark.parametrize("kind", RANDOM_KINDS)
def test_random_fits_certify_on_a_fine_grid(kind):
    failed = []
    for seed in range(25):
        data = _random_histogram(kind, seed)
        fit = fit_npmle(data)
        gap = _fine_grid_gap(fit, data)
        if not (fit.converged and fit.kkt_gap <= fit.tol and gap <= fit.tol):
            failed.append((seed, data.n, data.y_max, fit.kkt_gap, gap))
    assert not failed


# Pareto draws kept below 40 and 70, plus two far counts.  On the first outer
# iteration D/n at the far peak exceeds e^709, so D/n - 1 overflows unless
# the insertion weights are formed in logs.
FAR_OUTLIER_PARETO = {
    "81-499": {
        0: 421, 1: 869, 2: 982, 3: 774, 4: 536, 5: 375, 6: 257, 7: 184, 8: 119, 9: 107,
        10: 89, 11: 65, 12: 52, 13: 47, 14: 40, 15: 33, 16: 36, 17: 32, 18: 17, 19: 20,
        20: 16, 21: 12, 22: 8, 23: 18, 24: 11, 25: 16, 26: 11, 27: 10, 28: 11, 29: 5,
        30: 6, 31: 6, 32: 5, 33: 8, 34: 7, 35: 5, 36: 7, 37: 9, 38: 6, 39: 4, 81: 1, 499: 1,
    },
    "140-540": {
        0: 40, 1: 178, 2: 279, 3: 319, 4: 280, 5: 226, 6: 188, 7: 139, 8: 84, 9: 52,
        10: 34, 11: 23, 12: 25, 13: 15, 14: 10, 15: 14, 16: 6, 17: 5, 18: 4, 19: 4,
        20: 4, 21: 5, 22: 5, 23: 3, 24: 2, 25: 1, 27: 1, 28: 1, 29: 1, 30: 1, 32: 1,
        33: 1, 34: 2, 35: 1, 40: 1, 42: 2, 47: 1, 48: 1, 49: 1, 54: 1, 57: 1, 140: 1, 540: 1,
    },
}


@pytest.mark.parametrize("name", sorted(FAR_OUTLIER_PARETO))
def test_far_outlier_pareto_fits_certify(name):
    data = CountHistogram.from_counts(FAR_OUTLIER_PARETO[name])
    fit = fit_npmle(data)
    assert fit.converged
    assert fit.kkt_gap <= fit.tol
    assert _fine_grid_gap(fit, data) <= fit.tol


def _phi(a, logf, logp, cnts):
    top = np.maximum(logf, logp)
    f, p = np.exp(logf - top), np.exp(logp - top)
    with np.errstate(divide="ignore"):
        return np.log(np.outer(1.0 - a, f) + np.outer(a, p)) @ cnts


def _line_search_case(name):
    ys = np.arange(41.0)
    mix = 0.6 * np.exp(log_poisson_pmf(ys, 2.0)) + 0.4 * np.exp(log_poisson_pmf(ys, 9.0))
    if name == "interior":  # G = delta_2 against delta_9 on a 60/40 mix of both
        cnts, new, c = np.round(5000 * mix), np.array([9.0]), np.array([1.0])
    elif name == "boundary":  # the data sit at the new atom only
        cnts, new, c = np.round(5000 * np.exp(log_poisson_pmf(ys, 10.0))), np.array([10.0]), np.array([1.0])
    else:  # a far count dominates; f there underflows beside the scaled p
        ys = np.append(ys, 499.0)
        cnts = np.append(np.round(5000 * np.exp(log_poisson_pmf(ys[:-1], 2.0))), 1.0)
        new, c = np.array([499.0, 3.0, 5.0]), softmax([0.0, -690.0, -690.0])
    keep = cnts > 0
    ys, cnts = ys[keep], cnts[keep]
    logf = log_poisson_pmf(ys, 2.0)
    logp = _log_mix(log_poisson_pmf(ys[:, None], new[None, :]), c)
    return logf, logp, cnts, c


@pytest.mark.parametrize("name", ["interior", "boundary", "dominant"])
def test_line_search_matches_brute_force(name):
    logf, logp, cnts, c = _line_search_case(name)
    a = _line_search(logf, logp, cnts)
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0 - 1e-9, 20_001),
                                     np.geomspace(1e-12, 1.0 - 1e-9, 20_001)]))
    phi = _phi(grid, logf, logp, cnts)
    i = int(phi.argmax())
    assert _phi(np.array([a]), logf, logp, cnts)[0] >= phi.max() - 1e-9 * abs(phi.max())
    if name == "boundary":
        assert a == 1.0 - 1e-9 == grid[i]
    else:
        assert grid[i - 1] <= a <= grid[i + 1]
    if name == "dominant":
        assert c[1] < 1e-299 and a * c[0] >= WEIGHT_FLOOR > a * c[1]


def test_fit_restores_the_error_state(monkeypatch):
    before = np.geterr()
    fit_npmle(MIXED)
    assert np.geterr() == before

    def failing_nnls(*args, **kwargs):
        raise ValueError("weight step failed")

    monkeypatch.setattr(npmle, "nnls", failing_nnls)  # _solve_weights does not catch it
    with pytest.raises(ValueError, match="weight step failed"):
        fit_npmle(MIXED)
    assert np.geterr() == before


_SCAN = grid_spec(MIXED)
_PEAKS = np.array([2.25, 9.0, 2.25 * (1.0 + 1e-13), 2.25 * (1.0 - 1e-13), 9.0 + 1e-12])


@pytest.mark.parametrize("values", [
    np.array([3.0, 1.0, 3.0, 2.0, 1.0, 1.0]),
    np.concatenate([_SCAN, [4.0, _SCAN[5], 0.5 * (_SCAN[2] + _SCAN[3]), 9.0]]),
    np.round(np.sqrt(_PEAKS), 9),
    np.array([]),
], ids=["ties", "atoms-on-scan", "rounded-peaks", "empty"])
def test_unique_first_matches_np_unique(values):
    got_values, got_first = _unique_first(values)
    want_values, want_first = np.unique(values, return_index=True)
    np.testing.assert_array_equal(got_values, want_values)
    np.testing.assert_array_equal(got_first, want_first)


def test_unique_first_cases_hold_what_they_claim():
    assert {4.0, 9.0, _SCAN[5]} <= set(_SCAN.tolist())  # these atoms sit on scan points
    assert np.unique(_PEAKS).size == 5
    assert np.unique(np.round(np.sqrt(_PEAKS), 9)).size == 2


# ---------------------------------------------------------------------------
# the NNLS solver: scipy's compiled routine, bound without scipy.optimize
# ---------------------------------------------------------------------------

def _nnls_problems():
    rng = np.random.default_rng(2023)
    for i in range(400):
        m, k = (int(v) for v in rng.integers(2, 40, size=2))
        if i % 2:  # columns scaled by e^+-20
            A = rng.standard_normal((m, k)) * np.exp(rng.uniform(-20.0, 20.0, size=k))
        else:  # nonnegative, like the Poi/f columns of a weight step
            A = rng.random((m, k))
        yield A, rng.standard_normal(m)


def _solve(solver, A, b):
    try:
        x, rnorm = solver(A, b)
    except RuntimeError:
        return "iteration cap"
    return x.tobytes(), rnorm


def test_load_solver_binds_the_compiled_routine(monkeypatch):
    monkeypatch.setattr(npmle, "nnls", npmle.nnls)
    monkeypatch.delitem(sys.modules, npmle._NNLS_MODULE)  # load it from its file again
    npmle.load_solver()
    assert npmle._NNLS_MODULE in sys.modules
    assert npmle.nnls is not scipy.optimize.nnls
    assert npmle.nnls.__module__ == npmle.__name__


def test_nnls_equals_scipy_bit_for_bit():
    npmle.load_solver()
    assert npmle.nnls is not scipy.optimize.nnls
    for A, b in _nnls_problems():
        assert _solve(npmle.nnls, A, b) == _solve(scipy.optimize.nnls, A, b)


@pytest.mark.parametrize("where", ["A", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nnls_refuses_non_finite_input(where, bad):
    npmle.load_solver()
    A, b = np.eye(3), np.ones(3)
    (A if where == "A" else b)[1] = bad
    with pytest.raises(ValueError):
        npmle.nnls(A, b)


def test_nnls_raises_at_the_iteration_cap(monkeypatch):
    calls = []

    def capped(A, b, maxiter):
        calls.append(maxiter)
        return np.zeros(A.shape[1]), 0.0, 3

    monkeypatch.setattr(npmle, "nnls", npmle.nnls)
    monkeypatch.setitem(sys.modules, npmle._NNLS_MODULE, types.SimpleNamespace(nnls=capped))
    npmle.load_solver()
    with pytest.raises(RuntimeError):
        npmle.nnls(np.ones((4, 3)), np.ones(4))
    assert calls == [9]  # scipy's default cap, 3 per column
    assert isinstance(fit_npmle(MIXED), NpmleFit)  # a weight step stops at the cap


_EMPTY_NNLS = """
import types
import numpy as np
import scipy.optimize
from poisson_eb import npmle
if {fallback}:  # a scipy build without the compiled routine's file
    sys.modules[npmle._NNLS_MODULE] = types.SimpleNamespace()
calls, scipy_nnls = [], scipy.optimize.nnls
scipy.optimize.nnls = lambda A, b: calls.append(A.shape) or scipy_nnls(A, b)
npmle.load_solver()
for shape in [(3, 0), (0, 3), (0, 0)]:
    x, rnorm = npmle.nnls(np.zeros(shape), np.full(shape[0], 2.0))
    print(shape, x.tolist(), repr(rnorm))
npmle.nnls(np.eye(2), np.ones(2))
print(calls)
"""


@pytest.mark.parametrize("fallback", [False, True])
def test_nnls_of_an_empty_matrix_is_zero_on_both_routes(in_fresh_interpreter, fallback):
    # scipy's routine aborts the process on a matrix with no columns (and returns
    # uninitialized memory on one with no rows), so a regression kills only the child
    out = in_fresh_interpreter(_EMPTY_NNLS.format(fallback=fallback)).splitlines()
    assert out == ["(3, 0) [] 3.4641016151377544", "(0, 3) [0.0, 0.0, 0.0] 0.0",
                   "(0, 0) [] 0.0", "[(2, 2)]" if fallback else "[]"]


@pytest.mark.parametrize("lookup", ["no file", "no routine"])
def test_load_solver_falls_back_to_scipy_optimize(monkeypatch, lookup):
    npmle.load_solver()
    want = fit_npmle(MIXED).to_dict()
    monkeypatch.setattr(npmle, "nnls", npmle.nnls)
    if lookup == "no file":
        monkeypatch.delitem(sys.modules, npmle._NNLS_MODULE)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    else:
        monkeypatch.setitem(sys.modules, npmle._NNLS_MODULE, types.SimpleNamespace())
    calls, scipy_nnls = [], scipy.optimize.nnls
    monkeypatch.setattr(scipy.optimize, "nnls", lambda A, b: calls.append(1) or scipy_nnls(A, b))
    npmle.load_solver()
    assert fit_npmle(MIXED).to_dict() == want
    assert calls  # the fit solved through scipy.optimize.nnls
