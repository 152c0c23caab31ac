import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import comb, gammaln

from identities import (
    ak_recursion_residuals,
    ak_sequence,
    charlier,
    charlier_explicit,
    diff_table,
    finite_diff,
    forward_weighted_diff_sum,
    summation_by_parts,
)
from poisson_eb.errors import InvalidInputError
from poisson_eb.mixtures import DiscretePrior, pmf_on_range

# differences and weighted sums run under scoped error states; a stray overflow warns
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TRI = np.array([1.0, 3.0, 6.0, 10.0])  # triangular numbers


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_finite_diff_hand_values():
    assert finite_diff(TRI, 0, "forward", 2) == 6.0
    assert finite_diff(TRI, 1, "forward", 0) == 2.0
    assert finite_diff(TRI, 1, "forward", 2) == 4.0
    assert finite_diff(TRI, 1, "forward", 3) == -10.0     # zero extension
    assert finite_diff(TRI, 2, "forward", 0) == 1.0       # 6 - 2*3 + 1
    assert finite_diff(TRI, 1, "backward", 0) == 1.0      # f(-1) = 0
    assert finite_diff(TRI, 1, "backward", 2) == 3.0
    assert finite_diff([], 0, "forward", 0) == 0.0        # empty: all zero extension
    assert finite_diff([], 2, "backward", 3) == 0.0


def test_finite_diff_validation():
    with pytest.raises(InvalidInputError):
        finite_diff(TRI, -1, "forward", 0)
    with pytest.raises(InvalidInputError):
        finite_diff(TRI, 1, "sideways", 0)
    with pytest.raises(InvalidInputError):
        finite_diff(np.ones((2, 2)), 1, "forward", 0)
    with pytest.raises(InvalidInputError, match="values must be 1-d"):
        diff_table(np.ones((2, 2)), 1)


def test_forward_diff_matches_binomial_dot():
    # D^k f(y) = sum_j (-1)^{k-j} C(k,j) f(y+j); integer data keeps both
    # routes exact, so the comparison is equality
    rng = np.random.default_rng(11)
    f = rng.integers(0, 10, size=12).astype(float)
    for k in range(6):
        for y in range(-1, 14):
            direct = sum(
                (-1) ** (k - j) * comb(k, j, exact=True) * (f[y + j] if 0 <= y + j < 12 else 0.0)
                for j in range(k + 1)
            )
            assert finite_diff(f, k, "forward", y) == direct


def test_backward_diff_matches_binomial_dot():
    rng = np.random.default_rng(12)
    f = rng.integers(0, 10, size=12).astype(float)
    for k in range(6):
        for y in range(0, 15):
            direct = sum(
                (-1) ** j * comb(k, j, exact=True) * (f[y - j] if 0 <= y - j < 12 else 0.0)
                for j in range(k + 1)
            )
            assert finite_diff(f, k, "backward", y) == direct


def test_backward_is_shifted_forward_bit_exact():
    rng = np.random.default_rng(13)
    f = rng.standard_normal(20)
    for k in range(5):
        for y in range(0, 25):
            assert finite_diff(f, k, "backward", y) == finite_diff(f, k, "forward", y - k)


def test_diff_table_alignment():
    rng = np.random.default_rng(14)
    f = rng.standard_normal(15)
    for k in range(4):
        fwd = diff_table(f, k, "forward")
        bwd = diff_table(f, k, "backward")
        assert fwd.size == f.size
        assert bwd.size == f.size
        for y in range(f.size):
            assert fwd[y] == finite_diff(f, k, "forward", y)
            assert bwd[y] == finite_diff(f, k, "backward", y)


@settings(max_examples=60)
@given(
    f=st.lists(st.floats(-5, 5), min_size=1, max_size=10),
    g=st.lists(st.floats(-5, 5), min_size=1, max_size=10),
)
def test_summation_by_parts_property(f, g):
    lhs, rhs = summation_by_parts(f, g)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_summation_by_parts_hand_case():
    # f = [1, 2], g = [3, 5]: Dg = [2, -5, 0...]; lhs = 1*2 + 2*(-5) = -8
    # Bf = [1, 1, -2]; rhs = -(3*1 + 5*1 + 0) = -8
    lhs, rhs = summation_by_parts([1.0, 2.0], [3.0, 5.0])
    assert lhs == -8.0
    assert rhs == -8.0


# ---------------------------------------------------------------------------
# Charlier polynomials
# ---------------------------------------------------------------------------

def test_charlier_low_orders():
    assert charlier(0, 7.0, 3.0) == 1.0
    # p_1(y; theta) = (theta - y) / sqrt(theta)
    assert charlier(1, 2.0, 2.0) == 0.0
    assert charlier(1, 0.0, 4.0) == pytest.approx(2.0, rel=1e-15)
    assert charlier(1, 5.0, 1.0) == pytest.approx(-4.0, rel=1e-15)


def test_charlier_frozen_values():
    # frozen from the explicit finite-sum expansion (descending factorials)
    assert charlier(2, 3.0, 1.5) == pytest.approx(-0.3535533905932739, rel=1e-12)
    assert charlier(4, 0.0, 2.0) == pytest.approx(0.816496580927726, rel=1e-12)
    assert charlier(3, 6.0, 0.5) == pytest.approx(-91.65435523385308, rel=1e-12)


def test_charlier_orthonormal_under_poisson():
    theta, k_hi, y_hi = 1.5, 5, 80
    ys = np.arange(y_hi + 1, dtype=float)
    pmf = pmf_on_range(DiscretePrior([theta], [1.0]), y_hi)
    P = np.vstack([charlier(k, ys, theta) for k in range(k_hi + 1)])
    gram = (P * pmf) @ P.T
    np.testing.assert_allclose(gram, np.eye(k_hi + 1), rtol=0, atol=1e-10)
    # k <= 8 under scipy's log y! weights, not the kernel's, and the recurrence
    # against the explicit expansion at scattered points
    pts = np.array([0.0, 1.0, 3.0, 7.0, 19.0])
    for theta in (0.5, 1.0, 5.0, 20.0):
        ys = np.arange(int(theta + 30.0 * math.sqrt(theta + 1.0) + 120.0) + 1)
        w = np.exp(ys * math.log(theta) - theta - gammaln(ys + 1.0))
        P = np.vstack([charlier(k, ys, theta) for k in range(9)])
        np.testing.assert_allclose((P * w) @ P.T, np.eye(9), rtol=0, atol=1e-8)
        for k in range(9):
            direct = charlier_explicit(k, pts, theta)
            err = np.abs(charlier(k, pts, theta) - direct) / np.maximum(np.abs(direct), 1.0)
            assert err.max() <= 1e-8, (theta, k, err.max())


def test_charlier_array_input_and_validation():
    out = charlier(2, np.array([0.0, 1.0, 2.0]), 1.0)
    assert out.shape == (3,)
    with pytest.raises(InvalidInputError):
        charlier(-1, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        charlier(2, 0.0, 0.0)


# ---------------------------------------------------------------------------
# weighted difference statistics
# ---------------------------------------------------------------------------

D23 = (DiscretePrior([2.0], [1.0]), DiscretePrior([3.0], [1.0]))
CANNED_PAIRS = [
    (DiscretePrior([1.0], [1.0]), DiscretePrior([3.0], [1.0])),
    (DiscretePrior([0.5, 4.0], [0.3, 0.7]), DiscretePrior([1.0, 6.0], [0.6, 0.4])),
    (DiscretePrior([2.0], [1.0]), DiscretePrior([2.0, 9.0], [0.9, 0.1])),
    (DiscretePrior(np.linspace(0.2, 8.0, 7), np.full(7, 1 / 7)),
     DiscretePrior(np.linspace(0.1, 10.0, 5), np.full(5, 0.2))),
]


def test_ak_sequence_frozen_point_mass_pair():
    # direct sums over y <= 170 (terms below float underflow beyond), rho=1e-4
    ak_sq = ak_sequence(*D23, rho=1e-4, k_max=2)
    assert ak_sq.shape == (3,)
    assert ak_sq[1] == pytest.approx(0.2498507491189233, rel=1e-10)
    assert ak_sq[2] == pytest.approx(0.5638484578761382, rel=1e-10)


def test_ak_sequence_identical_mixtures_vanish():
    g = DiscretePrior([1.0, 4.0], [0.3, 0.7])
    np.testing.assert_array_equal(ak_sequence(g, g, rho=1e-5, k_max=4), np.zeros(5))


def test_ak_cap_bound():
    # A_k^2 <= 4 k^k / rho for k = 1..10
    pairs = [
        D23,
        (DiscretePrior([0.5, 6.0], [0.5, 0.5]), DiscretePrior([1.0], [1.0])),
    ] + CANNED_PAIRS
    for rho in (1e-3, 1e-5):
        for g1, g2 in pairs:
            ak_sq = ak_sequence(g1, g2, rho=rho, k_max=10)
            for k in range(1, 11):
                assert ak_sq[k] <= 4.0 * k ** k / rho


def test_ak_recursion_residual_scale():
    # the residual at k stays within 100 log(1/rho) + k; NaN only where A_k vanishes
    cases = [(D23, 1e-4, 8)] + [(pair, rho, 10) for rho in (1e-3, 1e-5) for pair in CANNED_PAIRS]
    for (g1, g2), rho, k_max in cases:
        res = ak_recursion_residuals(ak_sequence(g1, g2, rho=rho, k_max=k_max))
        for k, r in enumerate(res, start=1):
            assert not r > 100.0 * math.log(1.0 / rho) + k, (rho, k, r)


def test_ak_validation():
    with pytest.raises(InvalidInputError):
        ak_sequence(*D23, rho=0.5)            # rho > 1/e
    with pytest.raises(InvalidInputError):
        ak_sequence(*D23, rho=0.0)
    with pytest.raises(InvalidInputError):
        ak_sequence(*D23, rho=1e-4, k_max=0)
    with pytest.raises(InvalidInputError, match="k_max must lie in 1..30"):
        ak_sequence(*D23, rho=1e-4, k_max=31)
    with pytest.raises(InvalidInputError):
        ak_recursion_residuals(ak_sequence(*D23, rho=1e-4, k_max=1))


def test_plain_weighted_diff_bounds():
    priors = [
        DiscretePrior([1.0], [1.0]),
        DiscretePrior([0.2, 8.0], [0.4, 0.6]),
        DiscretePrior([3.0, 5.0, 11.0], [0.2, 0.5, 0.3]),
    ] + [g for pair in CANNED_PAIRS for g in pair]
    for g in priors:
        for k in range(0, 11):
            fb = forward_weighted_diff_sum(g, k)
            assert fb <= 2.0 * math.factorial(k), (k, fb)
            assert k % 2 or fb <= 2.0 ** (3 * k) * math.factorial(k), (k, fb)


def test_forward_sum_equals_its_backward_form():
    # sum_y (y+1)^k (D^k f)^2 == sum_{y>=k} (y-k+1)^k (B^k f)^2, as B^k f(y) = D^k f(y-k)
    priors = [
        DiscretePrior([1.0], [1.0]),
        DiscretePrior([0.2, 8.0], [0.4, 0.6]),
        DiscretePrior([3.0, 5.0, 11.0], [0.2, 0.5, 0.3]),
    ]
    for g in priors:
        for k in range(0, 11):
            b = diff_table(pmf_on_range(g, 400), k, "backward")
            ys = np.arange(k, b.size)
            backward = math.fsum((ys - k + 1.0) ** k * b[k:] ** 2)
            assert forward_weighted_diff_sum(g, k) == pytest.approx(backward, rel=1e-12)
