import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson_eb import mixtures, priors
from poisson_eb.errors import DegenerateSupportError, InvalidInputError, TailCoverageError
from poisson_eb.mixtures import (
    WEIGHT_FLOOR,
    DiscretePrior,
    MixturePmf,
    bayes_rule,
    generating_function_check,
    hellinger_sq,
    log_poisson_pmf,
    mixture_tail_bound,
    mmse_exact,
    pmf_and_moment_tables,
    pmf_table,
    poisson_divergences,
    posterior_moment_table,
)

# the kernel works in place; an unscoped log(0) or 0/0 in it warns
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

G15 = DiscretePrior([1.0, 5.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# DiscretePrior container behavior
# ---------------------------------------------------------------------------

def test_prior_merges_duplicate_atoms():
    g = DiscretePrior([2.0, 2.0, 3.0], [0.25, 0.25, 0.5])
    assert g.n_atoms == 2
    np.testing.assert_allclose(g.atoms, [2.0, 3.0])
    np.testing.assert_allclose(g.weights, [0.5, 0.5])


def test_prior_rejects_bad_weights():
    with pytest.raises(InvalidInputError):
        DiscretePrior([1.0], [0.5])          # mass far from 1
    with pytest.raises(InvalidInputError):
        DiscretePrior([1.0, 2.0], [1.2, -0.2])
    with pytest.raises(InvalidInputError):
        DiscretePrior([-1.0], [1.0])         # negative atom
    with pytest.raises(InvalidInputError, match="at least one atom"):
        DiscretePrior([], [])
    with pytest.raises(InvalidInputError, match="equal length"):
        DiscretePrior([1.0, 2.0], [1.0])
    with pytest.raises(InvalidInputError, match="mass must be positive"):
        DiscretePrior([1.0, 2.0], [0.0, 0.0])


def test_prior_moments_and_mean():
    assert G15.moment(1) == pytest.approx(3.0)
    assert G15.moment(2) == pytest.approx(13.0)
    assert G15.moment(0) == pytest.approx(1.0)
    g0 = DiscretePrior([0.0], [1.0])
    assert g0.moment(1) == 0.0


def test_prior_dict_round_trip():
    g2 = DiscretePrior(**G15.to_dict())
    np.testing.assert_allclose(g2.atoms, G15.atoms)
    np.testing.assert_allclose(g2.weights, G15.weights)


@given(
    atoms=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6),
    raw=st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6),
)
def test_prior_normalization_property(atoms, raw):
    w = np.array(raw[: len(atoms)])
    g = DiscretePrior(atoms, w / w.sum())
    assert g.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(g.atoms) > 0)


# ---------------------------------------------------------------------------
# pmf machinery
# ---------------------------------------------------------------------------

def test_log_poisson_pmf_at_zero_rate():
    # theta = 0 concentrates on y = 0 exactly
    assert log_poisson_pmf(np.array([0.0]), np.array([0.0]))[0] == 0.0
    assert log_poisson_pmf(np.array([3.0]), np.array([0.0]))[0] == -math.inf


def test_pmf_table_sums_to_one():
    t = pmf_table(G15, tail_tol=1e-12)
    assert t.values.sum() + t.tail_mass == pytest.approx(1.0, abs=1e-10)
    assert t.tail_mass <= 1e-12 + 1e-15


def test_pmf_table_matches_direct_mixture():
    t = pmf_table(G15)
    # direct two-term mixture at a few y
    for y in (0, 1, 4, 11):
        direct = 0.5 * math.exp(-1.0) / math.factorial(y) + 0.5 * math.exp(
            y * math.log(5.0) - 5.0 - math.lgamma(y + 1)
        )
        assert t.values[y] == pytest.approx(direct, rel=1e-12)


def test_pmf_min_len_extends_table():
    t = pmf_table(G15, min_len=500)
    assert t.values.size >= 500


def test_mixture_pmf_validates_mass():
    with pytest.raises(InvalidInputError):
        MixturePmf(values=np.array([0.5, 0.2]), tail_mass=0.0)
    with pytest.raises(InvalidInputError, match="nonempty 1-d"):
        MixturePmf(values=np.full((2, 1), 0.5), tail_mass=0.0)
    with pytest.raises(InvalidInputError, match="values must lie in"):
        MixturePmf(values=np.array([1.5, -0.5]), tail_mass=0.0)
    with pytest.raises(InvalidInputError, match="tail_mass must lie in"):
        MixturePmf(values=np.array([0.0]), tail_mass=1.5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: pmf_table([1.0]), InvalidInputError, "expects a DiscretePrior"),
    (lambda: pmf_table(G15, tail_tol=0.0), InvalidInputError, "tail_tol must lie in"),
    (lambda: pmf_table(G15, tail_tol=1.0), InvalidInputError, "tail_tol must lie in"),
    (lambda: bayes_rule(pmf_table(G15), pmf_table(G15).y_max), InvalidInputError,
     "so that f\\(y\\+1\\) is tabulated"),
    (lambda: bayes_rule(MixturePmf(values=np.array([1.0, 0.0, 0.0]), tail_mass=0.0), 1),
     DegenerateSupportError, "f\\(1\\) = 0"),
    (lambda: poisson_divergences(1.0, 0.0), InvalidInputError, "lam2 > 0"),
    (lambda: generating_function_check(G15, 1.5), InvalidInputError, "z must lie in"),
], ids=["no_prior", "tail_tol_0", "tail_tol_1", "bayes_rule_past_table", "bayes_rule_f_0",
        "lam2_0", "z_past_1"])
def test_tables_refuse_what_they_cannot_build(call, error, message):
    with pytest.raises(error, match=message):
        call()


# ---------------------------------------------------------------------------
# posterior quantities: hand-enumerated two-atom oracle values
# ---------------------------------------------------------------------------

def test_bayes_rule_against_enumeration():
    t = pmf_table(G15)
    # sum_w w Poi(y;t) t / f(y), enumerated separately
    assert bayes_rule(t, 0) == pytest.approx(1.0719448398483662, rel=1e-10)
    assert bayes_rule(t, 1) == pytest.approx(1.3355808861328318, rel=1e-10)
    assert bayes_rule(t, 3) == pytest.approx(3.783993041730812, rel=1e-10)
    assert bayes_rule(t, 7) == pytest.approx(4.997206526954597, rel=1e-10)


def test_posterior_mean_table_agrees_with_bayes_rule():
    t = pmf_table(G15)
    tab = posterior_moment_table(G15, 10)
    for y in range(10):
        assert tab[y] == pytest.approx(bayes_rule(t, y), rel=1e-9)


def test_mmse_exact_enumeration_oracle():
    val, rem = mmse_exact(G15, tail_tol=1e-13)
    assert val == pytest.approx(1.2450205804710435, rel=1e-9)
    assert rem <= 1e-11


def test_mmse_bounded_by_prior_variance():
    var = G15.moment(2) - G15.moment(1) ** 2
    val, _ = mmse_exact(G15)
    assert 0.0 < val < var


def test_mmse_exact_skips_rows_of_zero_mass():
    # a point mass at 0 gives f(y) = 0 for y > 0, where the posterior moments
    # are NaN; those rows add nothing to the Bayes risk
    resolved = priors.resolve(priors.PriorSpec("point_mass", {"value": 0.0}))
    assert resolved.mmse_ref() == (0.0, 0.0)


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def test_poisson_divergences_closed_forms():
    chi, hell = poisson_divergences(2.0, 1.0)
    assert chi == pytest.approx(math.e - 1.0, rel=1e-12)        # exp((2-1)^2/1) - 1
    chi14, hell14 = poisson_divergences(1.0, 4.0)
    assert hell14 == pytest.approx(0.3934693402873666, rel=1e-12)  # 1 - exp(-0.5)
    assert poisson_divergences(3.0, 3.0) == (0.0, 0.0)


def test_hellinger_sq_unnormalized_is_twice_normalized():
    # table route on point masses = plain Poisson pmfs
    f = pmf_table(DiscretePrior([1.0], [1.0]), tail_tol=1e-14)
    g = pmf_table(DiscretePrior([4.0], [1.0]), tail_tol=1e-14)
    h2 = hellinger_sq(f, g)
    assert h2 == pytest.approx(0.786938680574733, rel=1e-9)  # 2 (1 - e^{-1/2})
    _, hnorm = poisson_divergences(1.0, 4.0)
    assert h2 == pytest.approx(2.0 * hnorm, rel=1e-9)


def test_hellinger_sq_range():
    g = pmf_table(DiscretePrior([30.0], [1.0]), tail_tol=1e-13)
    f = pmf_table(DiscretePrior([0.5], [1.0]), tail_tol=1e-13, min_len=g.values.size)
    h2 = hellinger_sq(f, g)
    assert 0.0 <= h2 <= 2.0 + 1e-12


def test_hellinger_identical_tables_zero():
    f = pmf_table(G15, tail_tol=1e-12)
    assert hellinger_sq(f, f) == pytest.approx(0.0, abs=1e-14)


def test_hellinger_rejects_fat_joint_tails():
    fv = np.array([0.5, 0.3])
    f = MixturePmf(values=fv, tail_mass=0.2)
    g = MixturePmf(values=fv, tail_mass=0.2)
    with pytest.raises(TailCoverageError):
        hellinger_sq(f, g)


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

def test_poisson_tail_bound_value():
    # a one-atom prior: exp(-t^2 / (2 (theta + t))) at theta = 1, t = y - theta = 10
    bound = mixture_tail_bound(DiscretePrior([1.0], [1.0]), 11.0)
    assert bound == pytest.approx(0.010615346461976673, rel=1e-12)


def test_poisson_tail_bound_dominates_exact_tail():
    theta = 4.0
    pmf = np.exp(log_poisson_pmf(np.arange(200, dtype=float), np.array(theta)))
    for t in (2.0, 5.0, 10.0, 25.0):
        exact = float(pmf[int(theta + t) + 1 :].sum())
        assert exact <= mixture_tail_bound(DiscretePrior([theta], [1.0]), theta + t) + 1e-15


def test_mixture_tail_bound_dominates():
    # exact tail past y=20 enumerated: 4.0546e-08; the per-atom Chernoff-style
    # bound is loose (1.86e-3) but must sit above
    b = mixture_tail_bound(G15, 20)
    assert b == pytest.approx(0.0018634629705914718, rel=1e-9)
    assert b >= 4.054625229944444e-08


# ---------------------------------------------------------------------------
# generating function identity
# ---------------------------------------------------------------------------

@settings(max_examples=50)
@given(
    z=st.floats(0.0, 1.0),
    a1=st.floats(0.0, 12.0),
    a2=st.floats(0.0, 12.0),
    w=st.floats(0.01, 0.99),
)
def test_generating_function_identity(z, a1, a2, w):
    g = DiscretePrior([a1, a2], [w, 1.0 - w]) if abs(a1 - a2) > 1e-9 else DiscretePrior([a1], [1.0])
    lhs, rhs = generating_function_check(g, z)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# banded kernel against full rows
# ---------------------------------------------------------------------------

def _full_rows(prior, y_hi, r=None):
    """Reference: every atom against every y, log-sum-exp or softmax per row."""
    log_w = np.log(prior.weights)
    out = np.empty(y_hi + 1)
    for start in range(0, y_hi + 1, 1024):
        ys = np.arange(start, min(start + 1024, y_hi + 1), dtype=float)
        terms = log_poisson_pmf(ys[:, None], prior.atoms[None, :]) + log_w
        with np.errstate(divide="ignore", invalid="ignore"):
            top = terms.max(axis=1, keepdims=True)
            e = np.exp(terms - np.where(np.isfinite(top), top, 0.0))
            if r is None:
                out[start:start + ys.size] = top[:, 0] + np.log(e.sum(axis=1))
            else:
                out[start:start + ys.size] = (e / e.sum(axis=1, keepdims=True)) @ prior.atoms ** r
    return out


def _kernel_case(name, request):
    if name == "heavy_tail_15":
        r = request.getfixturevalue("heavy_tail_15")  # checked over its certificate's rows
        return r.discretization, priors._ContinuousLayout.of(r.spec, r.disc_tol).y_check
    return {
        "two_point_gap": (DiscretePrior([0.0, 5e4], [0.5, 0.5]), 60_000),
        "point_mass_zero": (DiscretePrior([0.0], [1.0]), 600),
        "floor_weight": (DiscretePrior([3.0, 40.0, 900.0],
                                       [WEIGHT_FLOOR, 0.6, 0.4 - WEIGHT_FLOOR]), 1500),
        "fallback": (DiscretePrior([0.5, 22000.0, 30500.0], [0.5, 0.3, 0.2]), 5000),
    }[name]


@pytest.mark.parametrize(
    "name", ["heavy_tail_15", "two_point_gap", "point_mass_zero", "floor_weight", "fallback"]
)
def test_banded_kernel_matches_full_rows(name, request):
    prior, y_hi = _kernel_case(name, request)
    if name == "floor_weight":
        assert prior.n_atoms == 3
    # assert_allclose with atol=0 also requires -inf (and NaN, for rows of
    # zero mass) exactly where the reference has them
    np.testing.assert_allclose(mixtures._mixture_rows(prior, y_hi)[0],
                               _full_rows(prior, y_hi), rtol=1e-13, atol=0)
    with np.errstate(invalid="ignore"):
        for r in (1, 2):
            np.testing.assert_allclose(posterior_moment_table(prior, y_hi, r),
                                       _full_rows(prior, y_hi, r), rtol=1e-13, atol=0)


# y values checked against 40-digit sums over every atom, and the kernel's
# relative error bounds on (log f, E[theta | y], E[theta^2 | y]): about twice
# the worst error measured, and at least two ulps (measured with Loader's form:
# heavy_tail_15 2.5e-15, 4.4e-16, 4.1e-16; two_point_gap 1.2e-16 in log f;
# floor_weight 1.2e-15, 3.7e-16, 8.2e-16)
_MP_CHECKS = {
    "heavy_tail_15": ((0, 1, 37, 4_000, 20_000, 42_073), (5e-15, 8.9e-16, 8.9e-16)),
    "two_point_gap": ((0, 1, 25_000, 50_000, 60_000), (4.4e-16, 4.4e-16, 4.4e-16)),
    "floor_weight": ((0, 10, 100, 500, 1_500), (2.4e-15, 7.4e-16, 1.6e-15)),
}


@pytest.mark.parametrize("name", sorted(_MP_CHECKS))
def test_kernel_matches_40_digit_sums(name, request):
    mp = pytest.importorskip("mpmath")
    ys, bounds = _MP_CHECKS[name]
    prior = _kernel_case(name, request)[0]
    log_f, (m1, m2) = mixtures._mixture_rows(prior, max(ys), (1, 2))
    with mp.workdps(40):
        for y in ys:
            sums = [mp.mpf(0)] * 3  # sum_j w_j Poi(y; theta_j) theta_j^k, k = 0, 1, 2
            for theta, w in zip(prior.atoms.tolist(), prior.weights.tolist()):
                if theta > 0:
                    term = w * mp.exp(y * mp.log(theta) - theta - mp.loggamma(y + 1))
                else:
                    term = mp.mpf(w if y == 0 else 0)
                sums = [s + term * mp.mpf(theta) ** k for k, s in enumerate(sums)]
            want = (mp.log(sums[0]), sums[1] / sums[0], sums[2] / sums[0])
            for got, exact, bound in zip((log_f[y], m1[y], m2[y]), want, bounds):
                assert abs(got - float(exact)) <= bound * abs(float(exact)), (y, got, exact)


def test_kernel_refuses_negative_range_and_order():
    # an atom at 0 would turn a negative order into inf / NaN rows
    prior = DiscretePrior([0.0, 2.0], [0.5, 0.5])
    for call in (lambda: mixtures.pmf_on_range(prior, -1),
                 lambda: posterior_moment_table(prior, -1),
                 lambda: posterior_moment_table(prior, 3, r=-1),
                 lambda: posterior_moment_table(prior, 3, r=math.nan),
                 lambda: pmf_and_moment_tables(prior, 1e-10, (-1,)),
                 lambda: pmf_and_moment_tables(prior, 1e-10, (2, -0.5))):
        with pytest.raises(InvalidInputError):
            call()


def test_kernel_refuses_a_fractional_range_and_a_nan_moment_order():
    prior = DiscretePrior([0.0, 2.0], [0.5, 0.5])
    for call in (lambda: mixtures.pmf_on_range(prior, 2.5),
                 lambda: posterior_moment_table(prior, 2.5),
                 lambda: posterior_moment_table(prior, math.inf),
                 lambda: prior.moment(math.nan)):
        with pytest.raises(InvalidInputError):
            call()


def test_posterior_mean_is_nan_where_the_mixture_vanishes():
    # under a point mass at 0, f_G(y) = 0 for y >= 1: no posterior, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tab = posterior_moment_table(DiscretePrior([0.0], [1.0]), 4)
    np.testing.assert_array_equal(tab, [0.0, np.nan, np.nan, np.nan, np.nan])


def _count_columns(monkeypatch):
    """The atoms of each kernel pass, recorded as `_cells` is called."""
    columns, cells = [], mixtures._cells

    def spy(a, *args):
        columns.append(a.shape[1])  # a holds one coefficient per atom and segment
        return cells(a, *args)

    monkeypatch.setattr(mixtures, "_cells", spy)
    return columns


def test_banded_kernel_falls_back_to_full_rows(monkeypatch):
    # the block y = 0..21759 keeps the atoms 0.5 and 22000 (its right
    # neighbour); the bound on the atom at 30500 is not 2^-60 below f(y) deep
    # in the gap, so the block is summed again over all three atoms
    prior, y_hi = _kernel_case("fallback", None)
    columns = _count_columns(monkeypatch)
    mixtures.pmf_on_range(prior, y_hi)
    assert columns == [2, 3]


def test_band_bound_holds_on_every_row_of_its_block():
    # the band leaves an atom out on log w - bd0(y*, theta), y* the point of the
    # block nearest theta: log Poi(y; theta) may not exceed -bd0(y*, theta) on
    # any row, for the zero atom, tiny atoms, and atoms inside and far outside
    rng = np.random.default_rng(2028)
    for first in [0, 0, 1, 255, 256] + rng.integers(1, 10 ** 6, 20).tolist():
        last = first + int(rng.integers(0, 2048))
        atoms = np.unique(np.concatenate([
            [0.0, 5e-324, 1e-300, 1e-3],
            rng.uniform(first, last, 4),  # inside
            first * rng.uniform(0.0, 1.0, 4),  # below
            (last + 1) * rng.uniform(1.0, 30.0, 4),  # above
        ]))
        with np.errstate(divide="ignore"):
            bound = mixtures._band_exponent(atoms, np.log(atoms), first, last)
        ys = np.arange(first, last + 1, dtype=float)[:, None]
        assert np.all(log_poisson_pmf(ys, atoms) <= -bound), first


def test_shared_pass_equals_the_separate_tables(heavy_tail_15):
    # the reference pmf and the oracle table come from one pass over the prior
    prior = heavy_tail_15.discretization
    ref = heavy_tail_15.pmf()
    alone = pmf_table(prior, 1e-11)
    np.testing.assert_array_equal(ref.values, alone.values)
    assert (ref.tail_mass, ref.tail_tol) == (alone.tail_mass, alone.tail_tol)
    np.testing.assert_array_equal(heavy_tail_15.oracle_table(ref.y_max),
                                  posterior_moment_table(prior, ref.y_max))


def test_shared_pass_falls_back_per_output(monkeypatch):
    # on y = 0..46 the atom at 25000 is left out; the w sum certifies without
    # it, and so does the w theta sum, but the w theta^2 sum does not
    prior, y_hi = DiscretePrior([0.5, 22000.0, 25000.0], [0.5, 0.49, 0.01]), 46
    columns = _count_columns(monkeypatch)
    log_f, (m1, m2) = mixtures._mixture_rows(prior, y_hi, (1, 2))
    assert columns == [2, 3]
    np.testing.assert_array_equal(log_f, mixtures._mixture_rows(prior, y_hi)[0])
    np.testing.assert_array_equal(m1, posterior_moment_table(prior, y_hi, 1))
    np.testing.assert_array_equal(m2, posterior_moment_table(prior, y_hi, 2))
    assert columns[2:] == [2, 2, 2, 3]  # pmf banded, r = 1 banded, r = 2 over all atoms
    np.testing.assert_allclose(m2, _full_rows(prior, y_hi, 2), rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", ["G15", "heavy_tail_15"])
def test_one_pass_mmse_equals_three_passes(name, request):
    prior = G15 if name == "G15" else request.getfixturevalue(name).discretization
    table = pmf_table(prior, 1e-13)
    m1 = posterior_moment_table(prior, table.y_max)
    m2 = posterior_moment_table(prior, table.y_max, r=2)
    value = float(np.sum(table.values * np.maximum(m2 - m1 * m1, 0.0)))
    assert mmse_exact(prior, tail_tol=1e-13)[0] == value
    shared, (s1, s2) = pmf_and_moment_tables(prior, 1e-13, (1, 2))
    np.testing.assert_array_equal(shared.values, table.values)
    np.testing.assert_array_equal(s1, m1)
    np.testing.assert_array_equal(s2, m2)


def test_resolve_certificate_matches_full_rows(heavy_tail_15, monkeypatch):
    assert heavy_tail_15.discretization.n_atoms == 685
    monkeypatch.setattr(priors, "pmf_on_range",
                        lambda prior, y_hi: np.exp(_full_rows(prior, y_hi)))
    banded = priors._mixture_rows  # the certificate reads its log f, not its moments
    monkeypatch.setattr(priors, "_mixture_rows", lambda prior, y_hi, orders: (
        _full_rows(prior, y_hi), banded(prior, y_hi, orders)[1]))
    ref = priors.resolve(heavy_tail_15.spec, p=1.5)
    # ref.disc_error is the full-row sup-gap plus the tail drop
    np.testing.assert_array_equal(ref.discretization.atoms, heavy_tail_15.discretization.atoms)
    np.testing.assert_array_equal(ref.discretization.weights, heavy_tail_15.discretization.weights)
    assert heavy_tail_15.disc_error == pytest.approx(ref.disc_error, rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# log Poi(y; theta) in Loader's form, and log y! from its pieces
# ---------------------------------------------------------------------------

# a log-uniform sample of y up to 10^6, with the ends of the table of small y
_LOG_POISSON_YS = np.unique(np.concatenate([
    np.floor(np.exp(np.random.default_rng(2022).uniform(0.0, math.log(1e6), 60))),
    [1.0, 2.0, 15.0, 16.0, 17.0, 1e6],
]))


def test_log_poisson_pmf_matches_40_digit_mpmath():
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(40):
        for y in _LOG_POISSON_YS.tolist():
            # far below and above y, and one standard deviation either side of it
            for theta in (y / 1000, y / 10, y - math.sqrt(y), y, y + math.sqrt(y), 10 * y, 1000 * y):
                if theta > 0:
                    exact = y * mp.log(theta) - theta - mp.loggamma(y + 1)
                    worst = max(worst, abs(float(log_poisson_pmf(y, theta) / exact) - 1.0))
    # 3.8e-16 measured; y log theta - theta - log y! errs by 9e-11 relative at y = theta = 10^6
    assert worst <= 8e-16


def test_log_poisson_pmf_is_exact_at_its_edges():
    thetas = np.array([0.0, 5e-324, 1e-300, 0.5, 7.0, 1e6])
    np.testing.assert_array_equal(log_poisson_pmf(0.0, thetas), -thetas)  # exp(-theta) at y = 0
    np.testing.assert_array_equal(log_poisson_pmf(np.arange(4.0), 0.0), [0.0] + [-math.inf] * 3)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):  # the smallest double stays finite: y log theta - log y!
        for y in (0, 1, 20):
            exact = float(y * mp.log(5e-324) - mp.mpf(5e-324) - mp.loggamma(y + 1))
            got = log_poisson_pmf(float(y), 5e-324)
            assert np.isfinite(got) and abs(got - exact) <= np.spacing(abs(exact)), (y, got, exact)


# log y! has one seam, where `_log_norm` leaves its table of y < 16 for the Stirling
# series: these rows pin it, with the table's ends and the largest y
_LOG_FACTORIAL_EDGES = [0.0, 1.0, 2.0, 15.0, 16.0, 17.0, 1e9]
# a log-uniform sample up to 1e9, with those rows
_LOG_FACTORIAL_YS = np.unique(np.concatenate([
    np.floor(np.exp(np.random.default_rng(2022).uniform(0.0, math.log(1e9), 20_000))),
    _LOG_FACTORIAL_EDGES,
]))


def test_log_factorial_matches_40_digit_mpmath():
    mp = pytest.importorskip("mpmath")
    ys = np.union1d(_LOG_FACTORIAL_YS[::10], _LOG_FACTORIAL_EDGES)
    got = mixtures._log_factorial(ys)
    assert np.all(got[ys <= 1] == 0.0)
    with mp.workdps(40):  # the error against the unrounded value
        worst = max(abs(g / mp.loggamma(mp.mpf(y) + 1) - 1)
                    for y, g in zip(ys[ys > 1].tolist(), got[ys > 1].tolist()))
    assert worst <= 4e-16  # gammaln's is 3.0e-16 on these rows
    # one call over rows on both sides of the table of small y gives each row's own value
    singles = np.array([mixtures._log_factorial(y) for y in _LOG_FACTORIAL_YS.tolist()])
    np.testing.assert_array_equal(mixtures._log_factorial(_LOG_FACTORIAL_YS), singles)


@pytest.mark.parametrize("y", [2.5, -1.0, [3.0, -2.0], math.nan, math.inf, 2.0 ** 16 + 0.5])
def test_log_factorial_refuses_what_is_not_a_whole_count(y):
    with pytest.raises(InvalidInputError, match="whole y >= 0"):
        mixtures._log_factorial(y)
