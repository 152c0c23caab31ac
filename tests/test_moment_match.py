import math

import numpy as np
import pytest

from poisson_eb.errors import InvalidInputError
from poisson_eb.mixtures import DiscretePrior, pmf_on_range
from poisson_eb.moment_match import QuadraticPartition, _stieltjes_gauss, local_moment_match


# ---------------------------------------------------------------------------
# the partition
# ---------------------------------------------------------------------------

def test_partition_edges():
    part = QuadraticPartition(M=50.0, eta=1e-2, C=1.0)
    eta_bar = math.log(100.0)
    assert part.eta_bar == pytest.approx(eta_bar)
    assert part.edges[0] == 0.0
    assert part.edges[-1] == 100.0
    # interior edges are C eta_bar i^2
    for i, e in enumerate(part.edges[1:-1], start=1):
        assert e == pytest.approx(eta_bar * i * i)
    assert part.n_windows == part.edges.size - 1
    lo, hi = part.window(0)
    assert (lo, hi) == (0.0, pytest.approx(eta_bar))


def test_partition_validation():
    with pytest.raises(InvalidInputError):
        QuadraticPartition(M=10.0, eta=0.5, C=1.0)    # eta too large
    with pytest.raises(InvalidInputError):
        QuadraticPartition(M=0.0, eta=1e-3, C=1.0)
    with pytest.raises(InvalidInputError):
        QuadraticPartition(M=10.0, eta=1e-3, C=0.0)
    for big_m in (math.inf, 1e300, 1e7 + 1):  # inf and 1e300 once never returned
        with pytest.raises(InvalidInputError, match="M must lie in"):
            QuadraticPartition(M=big_m, eta=1e-3, C=1.0)
    QuadraticPartition(M=10.0, eta=1e-2, C=1.0)       # boundary eta allowed


def test_partition_refuses_too_many_windows():
    # C = 1e-300 once built windows without end; the count ceil(sqrt(2M / (C
    # eta_bar))) is refused above 10^5 before any edge is built
    for C in (1e-300, 5e-324, 4.3e-4):
        with pytest.raises(InvalidInputError, match=r"windows, over 1e\+05"):
            QuadraticPartition(M=1e7, eta=1e-2, C=C)
    part = QuadraticPartition(M=1e7, eta=1e-2, C=4.4e-4)
    assert part.n_windows == math.ceil(math.sqrt(2e7 / (4.4e-4 * math.log(100.0)))) <= 100_000


# ---------------------------------------------------------------------------
# Gauss rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_stieltjes_gauss_reproduces_leading_moments(n):
    # an n-point Gauss rule integrates polynomials of degree <= 2n - 1 exactly
    rng = np.random.default_rng(11)
    atoms = np.sort(rng.uniform(2.0, 10.0, size=400))
    weights = rng.uniform(0.5, 1.5, size=400) * 1e-3
    nodes, wts = _stieltjes_gauss(atoms, weights, n, 2.0, 10.0)
    assert nodes.size == n
    assert np.all((nodes >= 2.0) & (nodes <= 10.0)) and np.all(wts > 0)
    for k in range(2 * n):
        assert wts @ nodes ** k == pytest.approx(weights @ atoms ** k, rel=1e-9)


def test_stieltjes_gauss_stops_where_the_measure_runs_out():
    # on 1/2 delta_1 + 1/2 delta_3 the recurrence's norm is exactly 0 at k = 1:
    # the rule asked for 3 nodes is the exact 2-node one computed so far
    nodes, wts = _stieltjes_gauss(np.array([1.0, 3.0]), np.array([0.5, 0.5]), 3, 0.0, 4.0)
    np.testing.assert_allclose(nodes, [1.0, 3.0], rtol=1e-15)
    np.testing.assert_allclose(wts, [0.5, 0.5], rtol=1e-15)


# ---------------------------------------------------------------------------
# the local matcher
# ---------------------------------------------------------------------------

def test_small_sources_pass_through_verbatim():
    src = DiscretePrior([1.0, 5.0], [0.5, 0.5])
    with pytest.warns(RuntimeWarning, match="below the guarantee threshold"):
        report = local_moment_match(src, M=16.0, eta=1e-2)
    np.testing.assert_array_equal(report.approximant.atoms, src.atoms)
    np.testing.assert_array_equal(report.approximant.weights, src.weights)
    assert report.achieved_sup_error == 0.0
    assert "outside_guarantee_regime" in report.fallbacks


def test_match_is_idempotent():
    rng = np.random.default_rng(5)
    atoms = np.sort(rng.uniform(0.0, 30.0, size=300))
    weights = np.full(300, 1.0 / 300.0)
    src = DiscretePrior(atoms, weights)
    with pytest.warns(RuntimeWarning):
        first = local_moment_match(src, M=16.0, eta=1e-2)
    with pytest.warns(RuntimeWarning):
        second = local_moment_match(first.approximant, M=16.0, eta=1e-2)
    np.testing.assert_allclose(
        second.approximant.atoms, first.approximant.atoms, rtol=1e-12
    )
    np.testing.assert_allclose(
        second.approximant.weights, first.approximant.weights, rtol=1e-9
    )


def test_match_compresses_and_stays_accurate():
    rng = np.random.default_rng(6)
    atoms = np.sort(rng.uniform(0.0, 30.0, size=500))
    weights = np.full(500, 1.0 / 500.0)
    src = DiscretePrior(atoms, weights)
    with pytest.warns(RuntimeWarning):
        report = local_moment_match(src, M=16.0, eta=1e-2)
    assert report.atom_count < 100
    assert report.atom_count == report.approximant.n_atoms
    assert report.achieved_sup_error <= 1e-4
    assert report.budget == pytest.approx(5.0 * 4.0 * math.log(100.0) ** 1.5)
    assert len(report.degrees) == report.partition.n_windows


def test_far_mass_lumps_at_twice_m():
    src = DiscretePrior([1.0, 50.0], [0.7, 0.3])
    with pytest.warns(RuntimeWarning):
        report = local_moment_match(src, M=10.0, eta=1e-2)
    assert report.approximant.atoms[-1] == 20.0
    i = np.searchsorted(report.approximant.atoms, 20.0)
    assert report.approximant.weights[i] == pytest.approx(0.3)


def test_match_report_dict_layout():
    src = DiscretePrior([1.0], [1.0])
    with pytest.warns(RuntimeWarning):
        report = local_moment_match(src, M=4.0, eta=1e-2)
    doc = report.to_dict()
    assert {"approximant", "atom_count", "achieved_sup_error", "budget",
            "edges", "degrees", "fallbacks", "source"} <= set(doc)


def test_match_validation():
    with pytest.raises(InvalidInputError):
        local_moment_match("not a prior", M=4.0, eta=1e-2)


# ---------------------------------------------------------------------------
# independent pmf-gap route
# ---------------------------------------------------------------------------

def sup_pmf_gap_direct(g1: DiscretePrior, g2: DiscretePrior, y_hi: int) -> float:
    """Independent route to sup_{y<=y_hi} |f_{g1}(y) - f_{g2}(y)|.

    Computes each mixture pmf in plain linear arithmetic (explicit products,
    no log-domain shortcuts) so it can cross-check the table-based path.
    """
    ys = np.arange(y_hi + 1)

    def plain_pmf(g: DiscretePrior) -> np.ndarray:
        out = np.zeros(y_hi + 1)
        for theta, w in zip(g.atoms, g.weights):
            if theta == 0.0:
                out[0] += w
                continue
            terms = np.empty(y_hi + 1)
            terms[0] = math.exp(-theta)
            for y in ys[1:]:
                terms[y] = terms[y - 1] * theta / y
            out += w * terms
        return out

    return float(np.max(np.abs(plain_pmf(g1) - plain_pmf(g2))))


def test_sup_pmf_gap_direct_matches_table_route():
    g1 = DiscretePrior([1.0, 5.0], [0.5, 0.5])
    g2 = DiscretePrior([1.2, 5.0], [0.5, 0.5])
    direct = sup_pmf_gap_direct(g1, g2, 40)
    table = float(np.max(np.abs(pmf_on_range(g1, 40) - pmf_on_range(g2, 40))))
    assert direct == pytest.approx(table, rel=1e-12)
    assert sup_pmf_gap_direct(g1, g1, 40) == 0.0
