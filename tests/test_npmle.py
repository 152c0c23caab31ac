import json
import math

import numpy as np
import pytest

from poisson_eb.errors import InvalidInputError, NumericalFailureError
from poisson_eb.mixtures import DiscretePrior
from poisson_eb.npmle import (
    CountHistogram,
    NpmleFit,
    directional_derivative,
    fit_npmle,
    grid_spec,
    kkt_gap_on_grid,
    load_count_data,
    log_likelihood,
)

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
    h2 = CountHistogram.from_counts(
        {int(k): v for k, v in h.to_dict()["counts"].items()}
    )
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
    with pytest.raises(InvalidInputError):
        CountHistogram.from_samples([])


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
    assert grid_spec(MIXED, 8.0).size > g.size


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
    fine = grid_spec(MIXED, 40.0)
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
    refit = fit_npmle(MIXED, grid=fit.grid, init_prior=fit.prior)
    assert refit.converged
    assert refit.iterations <= fit.iterations
    assert refit.log_likelihood == pytest.approx(fit.log_likelihood, rel=1e-9)


def test_fit_converges_on_heavy_tail_draw_with_far_counts(heavy_tail_15):
    # 99,999 draws reaching y = 11,928: Poi/f ratios there overflow a
    # linear-domain weight step
    _, y = heavy_tail_15.sample_counts((20240813, 100000, 6, 1), 99_999)
    fit = fit_npmle(y)
    assert fit.converged
    assert fit.kkt_gap <= fit.tol


def test_fit_rejects_grid_that_cannot_fit_positive_counts():
    with pytest.raises(InvalidInputError):
        fit_npmle([0, 1], grid=np.array([0.0]))
    assert fit_npmle([0, 0], grid=np.array([0.0])).prior.atoms.tolist() == [0.0]


def test_fit_user_grid_restricts_support():
    fit = fit_npmle([3, 3, 3], grid=np.array([1.0, 2.0, 3.0, 4.0]))
    assert fit.converged
    assert fit.prior.n_atoms == 1
    assert fit.prior.atoms[0] == 3.0
    np.testing.assert_array_equal(fit.grid, [1.0, 2.0, 3.0, 4.0])


def test_fit_strict_mode_raises_on_unreachable_tol():
    with pytest.raises(NumericalFailureError):
        fit_npmle(MIXED, tol=1e-12, max_iter=200, strict=True)


def test_fit_lenient_mode_warns_instead():
    with pytest.warns(RuntimeWarning, match="did not reach"):
        fit = fit_npmle(MIXED, tol=1e-12, max_iter=200)
    assert not fit.converged
    assert fit.kkt_gap > 1e-12


def test_fit_validation():
    with pytest.raises(InvalidInputError):
        fit_npmle(MIXED, tol=0.0)
    with pytest.raises(InvalidInputError):
        fit_npmle(MIXED, max_iter=0)
    with pytest.raises(InvalidInputError):
        fit_npmle(MIXED, grid=np.array([-1.0, 2.0]))
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
