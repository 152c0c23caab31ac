import dataclasses
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from poisson_eb import mixtures, priors
from poisson_eb.errors import InvalidInputError, NumericalFailureError, UnsupportedRegimeError
from poisson_eb.mixtures import (
    DiscretePrior,
    mixture_tail_bound,
    mmse_exact,
    pmf_on_range,
    pmf_table,
    posterior_moment_table,
)
from poisson_eb.npmle import CountHistogram
from poisson_eb.priors import (
    PriorSpec,
    assouad_prior,
    divergent_mixture_pmf,
    divergent_mmse_diagnostic,
    heavy_tail_normalizer,
    parse_prior_spec,
    resolve,
)

# the quadrature and certificate run in error-state scopes; a stray log(0) warns
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

HT2 = resolve(PriorSpec("heavy_tail", {"p": 2.0}))
TP = resolve(PriorSpec("two_point", {"eps": 0.2, "a": 5.0}))


# ---------------------------------------------------------------------------
# specs and parsing
# ---------------------------------------------------------------------------

def test_spec_validation_and_round_trip():
    with pytest.raises(InvalidInputError):
        PriorSpec("lognormal")
    spec = PriorSpec("two_point", {"eps": 0.2, "a": 5.0})
    assert parse_prior_spec("family=two_point eps=0.2 a=5.0") == spec
    assert "two_point" in spec.describe()


def test_parse_prior_spec():
    spec = parse_prior_spec("family=heavy_tail p=2")
    assert spec.family == "heavy_tail"
    assert spec.params == {"p": 2}
    spec = parse_prior_spec("family=discrete atoms=1,5 weights=0.5,0.5")
    assert spec.params["atoms"] == [1, 5]
    assert spec.params["weights"] == [0.5, 0.5]
    with pytest.raises(InvalidInputError):
        parse_prior_spec("p=2")                   # no family
    with pytest.raises(InvalidInputError):
        parse_prior_spec("family=heavy_tail p")   # not key=value


@pytest.mark.parametrize("text, key", [
    ("family=heavy_tail p=2 p=3", "p"),
    ("family=heavy_tail family=two_point eps=0.2 a=5", "family"),
    ("family=discrete atoms=1,5 weights=0.5,0.5 atoms=2,6", "atoms"),
])
def test_parse_prior_spec_refuses_a_repeated_key(text, key):
    # a second value must not silently replace the first
    with pytest.raises(InvalidInputError, match=f"sets '{key}' twice"):
        parse_prior_spec(text)


@pytest.mark.parametrize("family, params, missing", [
    ("heavy_tail", {}, "p"),
    ("two_point", {"a": 5.0}, "eps"),
    ("two_point", {"eps": 0.2}, "a"),
    ("moment_class_extremal", {"m1": 2.0}, "u"),
    ("discrete", {"atoms": [1.0, 5.0]}, "weights"),
    ("assouad", {"p": 2.0}, "n"),
])
def test_resolve_names_a_missing_parameter(family, params, missing):
    with pytest.raises(InvalidInputError, match=f"{family} needs parameter '{missing}'"):
        resolve(PriorSpec(family, params))


@pytest.mark.parametrize("family, params, unknown", [
    ("point_mass", {"valu": 3.0}, "valu"),
    ("heavy_tail", {"p": 2.0, "q": 1.0}, "q"),
    ("sqrt_cauchy", {"p": 1.0}, "p"),
    ("two_point", {"eps": 0.2, "a": 5.0, "m1": 1.0}, "m1"),
    ("assouad", {"n": 10_000, "taus": 1}, "taus"),
])
def test_spec_refuses_an_unknown_parameter(family, params, unknown):
    with pytest.raises(InvalidInputError, match=f"{family} takes no parameter '{unknown}'"):
        PriorSpec(family, params)


@pytest.mark.parametrize("text, shown", [
    ("family=heavy_tail p=abc", "p='abc'"),
    ("family=discrete atoms=1,x weights=0.5,0.5", "atoms=[1, 'x']"),
    ("family=two_point eps=0.2 a=zz", "a='zz'"),
    ("family=point_mass value=", "value=''"),
])
def test_a_prior_parameter_that_is_no_number_is_named(text, shown):
    with pytest.raises(InvalidInputError, match=re.escape(f"{shown} is no number")):
        resolve(parse_prior_spec(text))


def test_parse_prior_spec_refuses_a_misspelt_parameter():
    with pytest.raises(InvalidInputError, match="point_mass takes no parameter 'valu'"):
        parse_prior_spec("family=point_mass valu=3")


# ---------------------------------------------------------------------------
# simple atomic families
# ---------------------------------------------------------------------------

def test_point_mass_resolution():
    r = resolve(PriorSpec("point_mass", {"value": 2.5}), p=2.0)
    assert r.disc_error == 0.0
    assert r.discretization.atoms.tolist() == [2.5]
    assert r.p_moment == pytest.approx(6.25)


@pytest.mark.parametrize("spec", [
    PriorSpec("point_mass", {"value": 2.5}),
    PriorSpec("two_point", {"eps": 0.3, "a": 12.5}),
    PriorSpec("moment_class_extremal", {"u": 4.0, "m1": 2.0}),
    PriorSpec("discrete", {"atoms": [0.5, 2.0, 6.0], "weights": [0.5, 0.3, 0.2]}),
    PriorSpec("assouad", {"n": 10_000, "p": 2.0, "c_p": 30.0}),
], ids=lambda spec: spec.family)
def test_exact_families_are_their_own_discretization(spec):
    r = resolve(spec, p=1.5 if spec.family != "assouad" else None, seed=2)
    assert r.disc_error == 0.0
    assert r.second_moment_finite is True
    assert r.p_moment == r.discretization.moment(r.p)
    assert np.all(np.isin(r.sample_counts(7, 500)[0], r.discretization.atoms))


def test_two_point_structure_and_oracle():
    d = TP.discretization
    np.testing.assert_allclose(d.atoms, [0.0, 5.0])
    np.testing.assert_allclose(d.weights, [0.8, 0.2])
    # posterior mean enumerated separately: only the zero atom competes at y=0
    tab = TP.oracle_table(3)
    assert tab[0] == pytest.approx(0.008408270129235638, rel=1e-10)
    assert tab[1] == pytest.approx(5.0, rel=1e-12)
    val, _ = TP.mmse_ref()
    assert val == pytest.approx(0.03363308051694264, rel=1e-9)


def test_moment_class_extremal_structure():
    r = resolve(PriorSpec("moment_class_extremal", {"u": 4.0, "m1": 2.0}))
    d = r.discretization
    np.testing.assert_allclose(d.atoms, [0.0, 8.0])
    np.testing.assert_allclose(d.weights, [0.75, 0.25])
    assert d.moment(1) == pytest.approx(2.0)
    with pytest.raises(InvalidInputError):
        resolve(PriorSpec("moment_class_extremal", {"u": 1.0}))


def test_oracle_table_matches_posterior_mean_table():
    np.testing.assert_allclose(
        TP.oracle_table(12), posterior_moment_table(TP.discretization, 12), rtol=1e-12
    )
    val, rem = TP.mmse_ref()
    exact, _ = mmse_exact(TP.discretization, tail_tol=1e-13)
    assert val == pytest.approx(exact, rel=1e-12)


def test_oracle_table_is_read_only():
    r = resolve(PriorSpec("two_point", {"eps": 0.2, "a": 5.0}))
    for y_hi in (5, r.pmf().y_max + 10):  # the cached table, then its extension
        tab = r.oracle_table(y_hi)
        assert not tab.flags.writeable
        with pytest.raises(ValueError):
            tab[0] = 1.0


def test_oracle_table_refuses_a_negative_end():
    # a negative end once sliced from the back: oracle_table(-5) gave 58 of 62 rows
    r = resolve(PriorSpec("two_point", {"eps": 0.2, "a": 5.0}))
    for y_hi in (-1, -5, math.nan):
        with pytest.raises(InvalidInputError, match="y_hi must be >= 0"):
            r.oracle_table(y_hi)
    assert r.oracle_table(0).shape == (1,)


def test_reference_pmf_and_oracle_table_come_from_one_pass(monkeypatch):
    calls = []
    real = priors.pmf_and_moment_tables

    def spy(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(priors, "pmf_and_moment_tables", spy)
    monkeypatch.setattr(priors, "posterior_moment_table", None)  # no separate oracle pass
    r = resolve(PriorSpec("two_point", {"eps": 0.2, "a": 5.0}))
    r.oracle_table(3)
    r.pmf()
    r.oracle_table(r.pmf().y_max)
    r.quantile_y(1e-9)
    assert calls == [(1e-11, (1,))]


@pytest.mark.parametrize("spec", [None, PriorSpec("heavy_tail", {"p": 2.0}),
                                  PriorSpec("heavy_tail", {"p": 3.0}),
                                  PriorSpec("sqrt_cauchy")])
def test_certification_pass_gives_the_reference_tables(spec, heavy_tail_15):
    # resolve's one coarse pass yields the certificate and the reference tables,
    # bit for bit what their own passes give; p = 3 and sqrt_cauchy have
    # y_ref > y_check, p = 1.5 and p = 2 the reverse
    r = heavy_tail_15 if spec is None else resolve(spec)
    table, (oracle,) = mixtures.pmf_and_moment_tables(r.discretization, 1e-11, (1,))
    np.testing.assert_array_equal(r.pmf().values, table.values)
    assert (r.pmf().tail_mass, r.pmf().tail_tol) == (table.tail_mass, table.tail_tol)
    np.testing.assert_array_equal(r.oracle_table(r.pmf().y_max), oracle)

    # the certificate: sup |f_K - f_4K| over 0..y_check plus the dropped mass,
    # with K the layout's quadrature at its base panel count
    layout = priors._ContinuousLayout.of(r.spec, r.disc_tol)
    coarse = layout.prior(layout.base_panels)
    np.testing.assert_array_equal(coarse.atoms, r.discretization.atoms)
    np.testing.assert_array_equal(coarse.weights, r.discretization.weights)
    fine, y_check = layout.prior(4 * layout.base_panels), layout.y_check
    gap = np.max(np.abs(pmf_on_range(coarse, y_check) - pmf_on_range(fine, y_check)))
    assert r.disc_error == float(gap) + layout.drop


def test_certificate_doubles_panels_until_it_passes():
    # at one panel heavy_tail p = 2 misses 1e-6; the certificate doubles once
    # and returns the layout's K at two panels, with that K's reference tables
    layout = dataclasses.replace(priors._ContinuousLayout.of(HT2.spec, 1e-6), base_panels=1)
    coarse, fine = layout.prior(1), layout.prior(4)
    gap = np.max(np.abs(pmf_on_range(coarse, layout.y_check) - pmf_on_range(fine, layout.y_check)))
    assert float(gap) + layout.drop > 1e-6
    prior, bound, (table, (oracle,)) = priors._certified_continuous_prior(layout, 1e-6)
    refined = layout.prior(2)
    np.testing.assert_array_equal(prior.atoms, refined.atoms)
    np.testing.assert_array_equal(prior.weights, refined.weights)
    assert layout.drop < bound <= 1e-6
    ref_table, (ref_oracle,) = mixtures.pmf_and_moment_tables(refined, 1e-11, (1,))
    np.testing.assert_array_equal(table.values, ref_table.values)
    np.testing.assert_array_equal(oracle, ref_oracle)


def test_certificate_refuses_a_drop_above_the_tolerance():
    # no panel count can certify a dropped mass of 2e-6 to 1e-6: after three
    # doublings the refusal names the prior, the last bound and its panel count
    layout = dataclasses.replace(priors._ContinuousLayout.of(PriorSpec("heavy_tail", {"p": 3.0}),
                                                             1e-6), drop=2e-6, base_panels=1)
    with pytest.raises(NumericalFailureError, match=r"could not certify heavy_tail\(p=3.0\) "
                       r"discretization to 1e-06 \(last bound 2.000e-06 with 8 panels\)"):
        priors._certified_continuous_prior(layout, 1e-6)


@pytest.mark.parametrize("spec", [PriorSpec("heavy_tail", {"p": 2.0}), PriorSpec("sqrt_cauchy")])
def test_continuous_reference_tables_need_no_pass_after_resolve(monkeypatch, spec):
    r = resolve(spec)
    calls = []
    real = mixtures._mixture_rows

    def spy(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(mixtures, "_mixture_rows", spy)
    monkeypatch.setattr(priors, "_mixture_rows", spy)
    r.pmf()
    r.oracle_table(r.pmf().y_max)
    r.quantile_y(1e-9)
    assert calls == []
    resolve(PriorSpec("two_point", {"eps": 0.2, "a": 5.0})).pmf()  # an exact family's one pass
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# heavy-tail family
# ---------------------------------------------------------------------------

def test_heavy_tail_normalizer_frozen():
    # quadrature of a^{-(p+1)} (log a)^{-2} over [e, inf), done independently
    assert heavy_tail_normalizer(2.0) == pytest.approx(26.642324945207406, rel=1e-10)
    assert heavy_tail_normalizer(1.5) == pytest.approx(13.67974337011199, rel=1e-10)
    with pytest.raises(InvalidInputError):
        heavy_tail_normalizer(0.0)


@pytest.mark.parametrize("p", [705.0, 710.0, math.inf])
def test_heavy_tail_refuses_an_overflowing_normalizer(p):
    # 1/E_2(p) overflows near p = 703, and E_2(p) itself underflows to 0 past 709.78
    with pytest.raises(InvalidInputError, match="too large"):
        heavy_tail_normalizer(p)
    with pytest.raises(InvalidInputError, match="too large"):
        resolve(PriorSpec("heavy_tail", {"p": p}))


def test_heavy_tail_refuses_a_check_range_over_ten_million_rows():
    # p = 0.7 would certify over 2.8e9 pmf rows; the refusal comes before any table
    start = time.process_time()
    with pytest.raises(UnsupportedRegimeError, match=r"heavy_tail\(p=0.7\) needs 2.77e\+09"):
        resolve(PriorSpec("heavy_tail", {"p": 0.7}))
    assert time.process_time() - start < 1.0


def test_heavy_tail_zero_mass_and_moment():
    # eps = 1 - 1/c0; the p-th moment is 1 by normalization
    assert HT2.discretization.atoms[0] == 0.0
    assert HT2.discretization.weights[0] == pytest.approx(0.9624657381795095, abs=1e-6)
    assert HT2.p_moment == pytest.approx(1.0, rel=1e-9)
    assert HT2.p == 2.0


def test_heavy_tail_discretization_certified():
    assert HT2.disc_error > 0.0  # the dropped tail mass
    assert HT2.disc_error <= HT2.disc_tol
    # rebuild the certified rule from its quadrature, then re-check it against
    # one with twice and eight times the panels
    layout = priors._ContinuousLayout.of(HT2.spec, HT2.disc_tol)

    def quadrature(k):
        return layout.prior(k * layout.base_panels)

    np.testing.assert_array_equal(quadrature(1).atoms, HT2.discretization.atoms)
    np.testing.assert_array_equal(quadrature(1).weights, HT2.discretization.weights)
    y = min(HT2.quantile_y(1e-9), layout.y_check)
    for k in (2, 8):
        gap = np.abs(pmf_on_range(HT2.discretization, y) - pmf_on_range(quadrature(k), y))
        assert float(np.max(gap)) <= HT2.disc_tol


def test_heavy_tail_higher_moment_is_infinite():
    with pytest.raises(UnsupportedRegimeError):
        resolve(PriorSpec("heavy_tail", {"p": 2.0}), p=3.0)


def test_heavy_tail_sampler_mass_split():
    draws = HT2.sample_counts(123, 20_000)[0]
    frac_zero = float(np.mean(draws == 0.0))
    assert frac_zero == pytest.approx(0.96246, abs=0.01)
    body = draws[draws > 0]
    assert body.min() >= math.e - 1e-12


# ---------------------------------------------------------------------------
# sqrt-Cauchy family
# ---------------------------------------------------------------------------

def test_sqrt_cauchy_first_moment_closed_form():
    # E sqrt(|C|) = (2/pi) * pi / sqrt(2) = sqrt(2)
    r = resolve(PriorSpec("sqrt_cauchy"), p=1.0)
    assert r.p_moment == pytest.approx(math.sqrt(2.0), rel=1e-8)
    assert r.disc_error <= r.disc_tol


def test_sqrt_cauchy_second_moment_is_infinite():
    with pytest.raises(UnsupportedRegimeError):
        resolve(PriorSpec("sqrt_cauchy"), p=2.0)


@pytest.mark.parametrize("spec", [
    PriorSpec("heavy_tail", {"p": 2.0}),
    PriorSpec("sqrt_cauchy"),
    PriorSpec("point_mass", {"value": 2.5}),
    PriorSpec("two_point", {"eps": 0.3, "a": 12.5}),
], ids=lambda spec: spec.family)
def test_moment_order_is_nonnegative_and_zeroth_is_one(spec):
    # heavy_tail's atom at 0 makes every negative moment infinite; all
    # families count 0^0 = 1, as DiscretePrior.moment does
    with pytest.raises(InvalidInputError):
        resolve(spec, p=-3.0)
    assert resolve(spec, p=0.0).p_moment == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("spec", [
    PriorSpec("heavy_tail", {"p": 2.0}),
    PriorSpec("two_point", {"eps": 0.3, "a": 12.5}),
], ids=lambda spec: spec.family)
def test_moment_order_nan_is_refused(spec):
    with pytest.raises(InvalidInputError, match="nonnegative"):
        resolve(spec, p=math.nan)


def test_second_moment_finiteness_recorded(heavy_tail_15):
    # the family's E theta^2, not that of its (finitely supported) discretization
    assert heavy_tail_15.second_moment_finite is False
    assert resolve(PriorSpec("sqrt_cauchy"), p=1.0).second_moment_finite is False
    assert HT2.second_moment_finite is True      # p = 2: E theta^2 = 1 exactly
    assert resolve(PriorSpec("heavy_tail", {"p": 3.0})).second_moment_finite is True
    assert TP.second_moment_finite is True


# ---------------------------------------------------------------------------
# sampling determinism
# ---------------------------------------------------------------------------

def test_sampler_determinism_and_seed_sensitivity():
    a = TP.sample_counts((5, 7), 1000)[0]
    b = TP.sample_counts((5, 7), 1000)[0]
    c = TP.sample_counts((5, 8), 1000)[0]
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert set(np.unique(a)) <= {0.0, 5.0}
    with pytest.raises(InvalidInputError):
        TP.sample_counts(0, 0)[0]


@pytest.mark.parametrize("spec", [
    PriorSpec("heavy_tail", {"p": 2.0}),
    PriorSpec("sqrt_cauchy"),
    PriorSpec("point_mass", {"value": 2.5}),
    PriorSpec("two_point", {"eps": 0.3, "a": 12.5}),
    PriorSpec("moment_class_extremal", {"u": 4.0, "m1": 2.0}),
    PriorSpec("discrete", {"atoms": [0.5, 2.0, 6.0], "weights": [0.5, 0.3, 0.2]}),
    PriorSpec("assouad", {"n": 10_000, "p": 2.0, "c_p": 30.0}),
], ids=lambda spec: spec.family)
def test_every_family_draws_only_atoms_of_its_discretization(spec):
    r = resolve(spec, p=1.5 if spec.family != "assouad" else None, seed=2)
    draws = r.sample_counts(7, 500)[0]
    assert draws.shape == (500,)
    assert np.all(np.isin(draws, r.discretization.atoms))
    assert np.all(np.diff(draws) >= 0.0)  # grouped by atom, in atom order


def test_heavy_tail_draws_follow_the_discretization_weights(heavy_tail_15):
    # the zero atom and four theta-blocks: each frequency within 4 SE of the
    # block's summed weight (the last block's expects about 25 draws)
    d = heavy_tail_15.discretization
    n = 1_000_000
    draws = heavy_tail_15.sample_counts((2026, 10, 20), n)[0]
    edges = [0.0, 4.0, 10.0, 100.0, math.inf]
    blocks = [(d.atoms == 0.0, draws == 0.0)] + [
        ((d.atoms > lo) & (d.atoms <= hi), (draws > lo) & (draws <= hi))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    for in_block, drawn in blocks:
        mass = float(d.weights[in_block].sum())
        assert 0.0 < mass < 1.0
        assert abs(drawn.mean() - mass) <= 4.0 * math.sqrt(mass * (1.0 - mass) / n)


def test_sample_counts_pairs():
    theta, y = TP.sample_counts(99, 5000)
    assert theta.shape == y.shape == (5000,)
    assert np.issubdtype(y.dtype, np.integer)
    # zero means force zero counts
    assert np.all(y[theta == 0.0] == 0)
    theta2, y2 = TP.sample_counts(99, 5000)
    np.testing.assert_array_equal(y, y2)


@pytest.fixture(scope="module")
def drawn_priors(heavy_tail_15):
    return {
        "heavy_tail_15": heavy_tail_15,
        "two_point": TP,
        "point_mass_zero": resolve(PriorSpec("point_mass", {"value": 0.0})),
        "discrete_no_zero": resolve(PriorSpec("discrete", {"atoms": [0.5, 3.0, 40.0],
                                                           "weights": [0.3, 0.5, 0.2]})),
        "sqrt_cauchy": resolve(PriorSpec("sqrt_cauchy", {}), p=1.5),
        # counts far beyond the sample size: a table indexed by y would not fit
        "two_point_far": resolve(PriorSpec("two_point", {"eps": 0.5, "a": 1e7})),
    }


@pytest.mark.parametrize("size", [1, 10, 999, 10**5])
@pytest.mark.parametrize("name", ["heavy_tail_15", "two_point", "point_mass_zero",
                                  "discrete_no_zero", "sqrt_cauchy", "two_point_far"])
def test_zero_atom_draws_skip_the_poisson_stream_bit_for_bit(drawn_priors, name, size):
    # the counts of the zero atom's draws (a prefix of theta) are 0 without a
    # Poisson draw; the rows rely on numpy's Poisson returning 0 at rate 0
    # without touching its bit generator, so Y is one Poisson draw per theta
    r, seed = drawn_priors[name], (27, size)
    ref_theta = np.repeat(r.discretization.atoms, r._atom_counts(seed, size))
    want = priors._generator(seed, 0x9E37).poisson(ref_theta)
    theta, y = r.sample_counts(seed, size)
    np.testing.assert_array_equal(theta, ref_theta)
    assert y.dtype == want.dtype and y.tobytes() == want.tobytes()
    hist, fresh = r.count_histogram(seed, size), CountHistogram.from_samples(want)
    np.testing.assert_array_equal(hist.ys, fresh.ys)
    np.testing.assert_array_equal(hist.cnts, fresh.cnts)


def test_count_histogram_keeps_no_length_n_count_array(heavy_tail_15):
    heavy_tail_15.count_histogram((1, 10), 10)  # evicts any cached draw, so the next one runs
    tracemalloc.start()
    try:
        hist = heavy_tail_15.count_histogram((1, 10**6), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist.n == 10**6
    # theta alone is 8 MB, and a draw that formed it peaked at 9.9 MB; drawn
    # without it, only the 7% of draws off the zero atom take memory (1.3 MB;
    # 1.9 MB when the zero bin was made by appending to a copy of their counts)
    assert peak < 1.6e6


def test_quantile_y_behavior():
    r = resolve(PriorSpec("point_mass", {"value": 1.0}))
    q_loose = r.quantile_y(1e-3)
    q_tight = r.quantile_y(1e-9)
    assert q_loose < q_tight
    # Poi(1): P(Y > 7) ~ 1e-6, P(Y > 13) ~ 1e-12
    assert 5 <= q_tight <= 20


@pytest.mark.parametrize("name,eps", [("heavy_tail_15", 3e-9), ("HT2", 4e-10)])
def test_quantile_y_reads_the_shared_reference_table(name, eps, request, monkeypatch):
    r = request.getfixturevalue("heavy_tail_15") if name == "heavy_tail_15" else HT2
    r.pmf()
    # an independent, longer table gives the same quantile
    tail = 1.0 - np.cumsum(pmf_table(r.discretization, 1e-12).values)
    expected = int(np.nonzero(tail <= eps)[0][0])

    def no_new_table(*args, **kwargs):
        raise AssertionError("quantile_y built a second reference table")

    monkeypatch.setattr(priors, "pmf_and_moment_tables", no_new_table)
    assert r.quantile_y(eps) == expected


def test_quantile_y_resolves_eps_down_to_the_reference_tail():
    # the smallest eps the 1e-11 reference table answers; 1 - cumsum would
    # bottom out near 4e-14 here, the suffix sum has no such floor
    r = resolve(PriorSpec("assouad", {"n": 10_000, "c_p": 30.0}), seed=2)
    for eps in (1e-12, 0.0, math.nan):
        with pytest.raises(InvalidInputError, match="eps must be >= 1e-11"):
            r.quantile_y(eps)
    eps = 1e-11
    q = r.quantile_y(eps)
    assert q < r.pmf().y_max
    longer = pmf_table(r.discretization, 1e-16)
    beyond = math.fsum(longer.values[q + 1:]) + mixture_tail_bound(r.discretization, longer.y_max)
    assert beyond <= eps
    assert math.fsum(longer.values[q:]) > eps  # and q is the smallest such y


# ---------------------------------------------------------------------------
# near-black interval prior
# ---------------------------------------------------------------------------

def test_assouad_collapses_at_small_budget():
    with pytest.raises(UnsupportedRegimeError):
        assouad_prior([0], 10_000, 2.0)          # c_p = 0.1 default


@pytest.mark.parametrize("params", [
    {"n": math.inf},
    {"n": 10_000.5},                  # not a whole number
    {"n": 10_000, "m_p": -1},
    {"n": 10_000, "p": -0.5},
    {"n": 10_000, "c_p": math.inf},
], ids=["n_inf", "n_fractional", "m_p_negative", "p_negative", "c_p_inf"])
def test_assouad_refuses_out_of_range_parameters(params):
    with pytest.raises(InvalidInputError, match="assouad needs"):
        resolve(PriorSpec("assouad", {"c_p": 30.0, **params}))


def test_assouad_structure():
    n, p, c_p = 10_000, 2.0, 30.0
    log2n = math.log(n) ** 2
    g0 = assouad_prior([0] * 15, n, p, c_p=c_p)
    g1 = assouad_prior([1] * 15, n, p, c_p=c_p)
    assert g0.atoms[0] == 0.0
    np.testing.assert_allclose(g0.weights, g1.weights)
    assert np.all(g1.atoms[1:] > g0.atoms[1:])
    # every atom sits inside its interval [i^2, (i+1)^2] (log n)^2, i = 6..20
    for g in (g0, g1):
        idx = np.arange(6, 21, dtype=float)
        assert np.all(g.atoms[1:] >= idx ** 2 * log2n)
        assert np.all(g.atoms[1:] <= (idx + 1.0) ** 2 * log2n)
    with pytest.raises(InvalidInputError):
        assouad_prior([0, 1], n, p, c_p=c_p)     # wrong bit count


def test_assouad_moment_index_is_the_callers_p():
    # the spec alone builds the prior: the caller's p = 2 is only the moment
    # index, where it once read the spec's p = 3
    spec = PriorSpec("assouad", {"n": 10_000, "p": 3.0, "c_p": 30.0})
    own, at_2 = resolve(spec, seed=2), resolve(spec, p=2.0, seed=2)
    assert (own.p, at_2.p) == (3.0, 2.0)
    np.testing.assert_array_equal(at_2.discretization.atoms, own.discretization.atoms)
    np.testing.assert_array_equal(at_2.discretization.weights, own.discretization.weights)
    assert at_2.p_moment == own.discretization.moment(2.0)


def test_assouad_resolution_deterministic():
    spec = PriorSpec("assouad", {"n": 10_000, "p": 2.0, "c_p": 30.0})
    r1 = resolve(spec, seed=3)
    r2 = resolve(spec, seed=3)
    r3 = resolve(spec, seed=4)
    np.testing.assert_array_equal(r1.discretization.atoms, r2.discretization.atoms)
    assert not np.array_equal(r1.discretization.atoms, r3.discretization.atoms)


@pytest.mark.parametrize("tau", [0.5, 0.7, float("nan"), [0.5], "1"])
def test_assouad_refuses_a_tau_that_is_not_a_bit(tau):
    # checked before any cast, which would truncate 0.5 to the bit 0
    with pytest.raises(InvalidInputError, match="tau must be 1 bits"):
        resolve(PriorSpec("assouad", {"n": 10_000, "c_p": 1.5, "tau": tau}))
    for bits in ([0.5, 0.5], [0, 0.7]):
        with pytest.raises(InvalidInputError, match="tau must be 2 bits"):
            assouad_prior(bits, 10_000, 2.0, 1.0, 3.0)


def test_assouad_whole_bits_build_the_same_prior():
    # scalar and list, int and whole float: the same atoms and weights, bit for bit
    for tau in (1, 1.0, [1]):
        d = resolve(PriorSpec("assouad", {"n": 10_000, "c_p": 1.5, "tau": tau})).discretization
        assert d.atoms.tolist() == [0.0, 212.07912428279]
        assert d.weights.tolist() == [0.9999995285109385, 4.714890614371891e-07]
    spec = PriorSpec("assouad", {"n": 10_000, "p": 2.0, "c_p": 3.0, "tau": [0, 1]})
    for g in (assouad_prior([0, 1], 10_000, 2.0, 1.0, 3.0), resolve(spec).discretization):
        assert g.atoms.tolist() == [0.0, 212.07592441913596, 551.4116217446285]
        assert g.weights.tolist() == [0.999999466421844, 4.714890614371891e-07,
                                      6.208909451024713e-08]


# ---------------------------------------------------------------------------
# divergent-Bayes-risk diagnostic
# ---------------------------------------------------------------------------

def test_divergent_pmf_frozen_values():
    # quadrature of integral_1^inf Poi(y; a) a^-2 da, independent of the
    # closed incomplete-gamma forms used in the implementation
    f = divergent_mixture_pmf(5)
    assert f[0] == pytest.approx(0.14849550677592194, rel=1e-10)
    assert f[1] == pytest.approx(0.2193839343955205, rel=1e-10)
    assert f[2] == pytest.approx(0.18393972058572122, rel=1e-10)
    assert f[3] == pytest.approx(0.12262648039048078, rel=1e-10)
    assert f[4] == pytest.approx(0.07664155024405049, rel=1e-10)
    assert f[5] == pytest.approx(0.049050592156192306, rel=1e-10)
    with pytest.raises(InvalidInputError):
        divergent_mixture_pmf(1)


def test_divergent_pmf_quadratic_decay():
    f = divergent_mixture_pmf(1000)
    assert 1000.0 ** 2 * f[1000] == pytest.approx(1.0, rel=0.01)


def test_divergent_partial_sums_grow_like_log():
    out = divergent_mmse_diagnostic(y_cap=4096)
    ys = [y for y, _ in out]
    vals = np.array([v for _, v in out])
    assert ys == [16 * 2 ** k for k in range(9)]
    assert np.all(np.diff(vals) > 0)
    # doubling increments approach log 2
    increments = np.diff(vals)
    assert increments[-1] == pytest.approx(math.log(2.0), abs=0.01)


def test_divergent_diagnostic_regime_guard():
    with pytest.raises(InvalidInputError):
        divergent_mmse_diagnostic(y_cap=8)


# ---------------------------------------------------------------------------
# E_2 without scipy
# ---------------------------------------------------------------------------

_E2_GRID = np.geomspace(1e-6, 700.0, 400)  # the series up to x = 1, the continued fraction above


def test_e2_matches_40_digit_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        worst = max(abs(priors._e2(x) / mp.expint(2, x) - 1) for x in _E2_GRID.tolist())
    assert worst <= 2e-15  # scipy's expn(2, x) errs by 1.2e-15 on this grid
    assert priors._e2(0.0) == 1.0
    assert priors._e2(709.79) == 0.0  # exp(-x) underflows


def test_e2_matches_scipy_expn():
    from scipy.special import expn

    got = np.array([priors._e2(x) for x in _E2_GRID.tolist()])
    want = expn(2, _E2_GRID)
    assert np.all(np.abs(got - want) <= np.spacing(want))
