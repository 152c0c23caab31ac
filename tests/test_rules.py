import dataclasses
import math

import numpy as np
import pytest

from poisson_eb.errors import InvalidInputError, UnsupportedRegimeError
from poisson_eb.mixtures import DiscretePrior, pmf_on_range, pmf_table, posterior_moment_table
from poisson_eb.npmle import CountHistogram, fit_npmle
from poisson_eb.priors import PriorSpec, resolve
from poisson_eb.rules import (
    CLI_KIND_NAMES,
    ESTIMATOR_KINDS,
    EstimatorConfig,
    FittedRule,
    bounded_beyond_table,
    fit_rule,
    npmle_eb,
    robbins,
    robbins_truncated,
    tune_defaults,
)

# ten observations: N = [2, 4, 2, 1, 1] on y = 0..4
TRAIN = CountHistogram.from_counts({0: 2, 1: 4, 2: 2, 3: 1, 4: 1})
G15 = DiscretePrior([1.0, 5.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# pointwise frequency-ratio rules
# ---------------------------------------------------------------------------

def test_robbins_plain_hand_values():
    assert robbins(TRAIN, 0).value == 2.0        # 1*4/2
    assert robbins(TRAIN, 1).value == 1.0        # 2*2/4
    assert robbins(TRAIN, 2).value == 1.5        # 3*1/2
    assert robbins(TRAIN, 3).value == 4.0        # 4*1/1
    assert robbins(TRAIN, 4).value == 0.0        # 5*0/1
    assert all(robbins(TRAIN, y).flag is None for y in range(5))


def test_robbins_plain_hazards():
    gappy = CountHistogram.from_counts({1: 3})
    est = robbins(gappy, 0)                      # N(0)=0, N(1)=3
    assert est.value == math.inf and est.flag == "infinite"
    est = robbins(gappy, 5)                      # 0/0
    assert est.value == 0.0 and est.flag == "degenerate"


def test_robbins_addone_hand_values():
    vals = [robbins(TRAIN, y, addone=True).value for y in range(5)]
    assert vals == pytest.approx([4.0 / 3.0, 0.8, 1.0, 2.0, 0.0])
    assert robbins(TRAIN, 0, addone=True).flag is None
    # add-one never blows up, even at a gap
    gappy = CountHistogram.from_counts({1: 3})
    assert robbins(gappy, 0, addone=True).value == 3.0   # 1*3/(0+1)


def test_robbins_truncated_identity_beyond_cutoff():
    assert robbins_truncated(TRAIN, 1, y0=2) == pytest.approx(0.8)
    assert robbins_truncated(TRAIN, 2, y0=2) == 1.0
    assert robbins_truncated(TRAIN, 3, y0=2) == 3.0
    assert robbins_truncated(TRAIN, 17, y0=2) == 17.0
    with pytest.raises(InvalidInputError):
        robbins_truncated(TRAIN, 1, y0=-1)
    with pytest.raises(InvalidInputError):
        robbins(TRAIN, -1)


def test_npmle_eb_matches_posterior_ratio_when_floor_inactive():
    # with f(y) far above rho the regularized form telescopes back to the
    # posterior-mean ratio (y+1) f(y+1) / f(y)
    table = pmf_table(G15)
    for y in range(6):
        est = npmle_eb(G15, y, rho=1e-12)
        assert est == pytest.approx((y + 1) * table.values[y + 1] / table.values[y], rel=1e-10)


def test_npmle_eb_floor_and_truncation():
    f = pmf_on_range(G15, 1)
    rho = 0.3
    expected = (f[1] - f[0]) / rho + 1.0
    assert npmle_eb(G15, 0, rho=rho) == pytest.approx(expected, rel=1e-12)
    assert npmle_eb(G15, 9, y0=4) == 9.0
    with pytest.raises(InvalidInputError):
        npmle_eb(G15, 0, rho=0.5)       # rho > 1/e
    with pytest.raises(InvalidInputError):
        npmle_eb("not a fit", 0)


# ---------------------------------------------------------------------------
# tabulated rules
# ---------------------------------------------------------------------------

def test_fit_rule_plain_table_and_flags():
    rule = fit_rule(EstimatorConfig("robbins_plain"), y_cap=5, train=TRAIN)
    np.testing.assert_allclose(rule.table[:5], [2.0, 1.0, 1.5, 4.0, 0.0])
    assert rule.table[5] == 0.0                       # 0/0 cell
    assert rule.flags == {"degenerate": 0, "infinite": 0}   # cell 5 lies beyond y_max = 4
    assert rule.table.size == 6


def test_plain_degenerate_count_ignores_the_table_length(heavy_tail_15):
    # 0/0 cells count only below the largest training count
    config = EstimatorConfig("robbins_plain")
    for size in (199, 1999):
        _, y = heavy_tail_15.sample_counts((5, 1), size)
        train = CountHistogram.from_samples(y)
        short = fit_rule(config, train.y_max, train=train)
        long = fit_rule(config, 40 * train.y_max, train=train)
        gaps = sum(1 for v in range(train.y_max)
                   if train.count_of(v) == 0 and train.count_of(v + 1) == 0)
        assert short.flags == long.flags
        assert long.flags["degenerate"] == gaps <= train.y_max
    assert gaps > 0


def test_fit_rule_plain_infinite_count_is_the_empty_cell_census():
    # a heavy-tailed sample of 100 counts (a sqrt_cauchy draw) leaves empty
    # cells below its max; each y with N(y) = 0 < N(y+1) is one infinite
    # plain-Robbins cell
    hist = CountHistogram.from_counts({0: 39, 1: 25, 2: 16, 3: 4, 4: 7, 5: 3, 6: 1, 8: 3,
                                       10: 1, 12: 1})
    rule = fit_rule(EstimatorConfig("robbins_plain"), hist.y_max, train=hist)
    observed = set(hist.ys.tolist())
    census = sum(1 for v in range(hist.y_max) if v not in observed and v + 1 in observed)
    assert rule.flags["infinite"] == census >= 1


def test_fit_rule_addone_table():
    rule = fit_rule(EstimatorConfig("robbins_addone"), y_cap=4, train=TRAIN)
    np.testing.assert_allclose(rule.table, [4.0 / 3.0, 0.8, 1.0, 2.0, 0.0])
    assert rule.flags == {}


def test_fit_rule_trunc_contract():
    rule = fit_rule(EstimatorConfig("robbins_trunc", y0=2), y_cap=8, train=TRAIN)
    np.testing.assert_allclose(rule.table[:3], [4.0 / 3.0, 0.8, 1.0])
    np.testing.assert_array_equal(rule.table[3:], np.arange(3.0, 9.0))


def test_fit_rule_oracle_is_posterior_mean():
    # the oracle reads no data: fit_rule refuses it, and its table is the
    # resolved prior's posterior-mean table
    with pytest.raises(InvalidInputError, match="ResolvedPrior.oracle_table"):
        fit_rule(EstimatorConfig("oracle"), y_cap=7, train=TRAIN, fit=G15)
    resolved = resolve(PriorSpec("discrete", {"atoms": [1.0, 5.0], "weights": [0.5, 0.5]}))
    np.testing.assert_allclose(resolved.oracle_table(7), posterior_moment_table(G15, 7),
                               rtol=1e-12)


def test_fit_rule_npmle_eb_matches_pointwise_and_is_nonnegative():
    cfg = EstimatorConfig("npmle_eb", y0=4, rho=1e-6)
    rule = fit_rule(cfg, y_cap=8, fit=G15)
    for y in range(9):
        assert rule.table[y] == pytest.approx(
            npmle_eb(G15, y, y0=4, rho=1e-6), rel=1e-12
        )
    assert np.all(rule.table >= 0.0)
    np.testing.assert_array_equal(rule.table[5:], np.arange(5.0, 9.0))
    # the cells up to y0 do not depend on how far the table reaches
    full = fit_rule(EstimatorConfig("npmle_eb", rho=1e-6), y_cap=40, fit=G15)
    np.testing.assert_array_equal(rule.table[:5], full.table[:5])


def test_fit_rule_records_solver_certificate():
    fit = fit_npmle([2, 2, 2])
    rule = fit_rule(EstimatorConfig("npmle_eb"), y_cap=4, fit=fit)
    assert fit.converged and "solver_not_converged" not in rule.flags
    uncertified = dataclasses.replace(fit, converged=False)
    rule = fit_rule(EstimatorConfig("npmle_eb"), y_cap=4, fit=uncertified)
    assert rule.flags == {"solver_not_converged": 1}
    # a bare prior carries no certificate to flag
    assert fit_rule(EstimatorConfig("npmle_eb"), y_cap=4, fit=fit.prior).flags == {}


def test_bounded_beyond_table_covers_every_kind():
    bounded = {
        EstimatorConfig("robbins_plain"): True,
        EstimatorConfig("robbins_addone"): True,
        EstimatorConfig("robbins_trunc"): True,              # y0 = inf: never truncates
        EstimatorConfig("robbins_trunc", y0=3): False,
        EstimatorConfig("npmle_eb"): False,                   # floor rho: tends to y + 1
        EstimatorConfig("npmle_eb", y0=3): False,
        EstimatorConfig("oracle"): False,                     # tracks theta_G(y)
    }
    assert {c.kind for c in bounded} == set(ESTIMATOR_KINDS)
    for config, expected in bounded.items():
        assert bounded_beyond_table(config) is expected, config
        if config.kind == "oracle":
            continue
        # the tables bear the predicate out far above the data's largest count 4
        rule = fit_rule(config, y_cap=200, train=TRAIN, fit=G15)
        tail = rule.table[100:]
        if expected:
            assert np.all(tail == 0.0), config
        else:
            assert np.all(tail >= np.arange(100.0, 201.0)), config


def test_fit_rule_requirements():
    with pytest.raises(InvalidInputError):
        fit_rule(EstimatorConfig("robbins_plain"), y_cap=3)      # no train
    with pytest.raises(InvalidInputError):
        fit_rule(EstimatorConfig("npmle_eb"), y_cap=3)           # no fit
    with pytest.raises(InvalidInputError, match="y_cap"):
        fit_rule(EstimatorConfig("robbins_addone"), y_cap=-1, train=TRAIN)


def test_fitted_rule_validation():
    cfg = EstimatorConfig("oracle")
    with pytest.raises(InvalidInputError):
        FittedRule(config=cfg, table=np.array([1.0, -0.5]))
    with pytest.raises(InvalidInputError):
        FittedRule(config=cfg, table=np.array([]))


def test_fitted_rule_refuses_nan_and_accepts_inf():
    cfg = EstimatorConfig("robbins_plain")
    for bad in ([1.0, math.nan], [-math.inf, 1.0], [math.nan, math.inf]):
        with pytest.raises(InvalidInputError, match="nonnegative"):
            FittedRule(config=cfg, table=np.array(bad))
    # a plain frequency ratio is inf where N(y) = 0 < N(y+1): a valid estimate
    rule = FittedRule(config=cfg, table=np.array([0.0, math.inf, 2.0]))
    assert rule.table.tolist() == [0.0, math.inf, 2.0]
    assert not rule.table.flags.writeable


# ---------------------------------------------------------------------------
# configuration and tuning
# ---------------------------------------------------------------------------

def test_estimator_config_validation():
    with pytest.raises(InvalidInputError):
        EstimatorConfig("posterior")                   # unknown kind
    with pytest.raises(InvalidInputError):
        EstimatorConfig("robbins_trunc", y0=2.5)       # non-integer cutoff
    with pytest.raises(InvalidInputError):
        EstimatorConfig("robbins_trunc", y0=math.nan)
    with pytest.raises(InvalidInputError):
        EstimatorConfig("npmle_eb", rho=0.9)
    with pytest.raises(InvalidInputError):
        EstimatorConfig("npmle_eb", npmle_tol=2.0)
    for kind in ("oracle", "robbins_plain", "robbins_addone"):   # never truncate
        with pytest.raises(InvalidInputError, match="never truncates"):
            EstimatorConfig(kind, y0=2)
        assert EstimatorConfig(kind, y0=math.inf).y0 == math.inf
    assert EstimatorConfig("robbins_trunc", y0=0).y0 == 0
    assert EstimatorConfig("npmle_eb", y0=0).y0 == 0


def test_cli_names_cover_all_kinds():
    # one CLI name per kind, so the map inverts
    assert set(CLI_KIND_NAMES.values()) == set(ESTIMATOR_KINDS)
    assert len(CLI_KIND_NAMES) == len(ESTIMATOR_KINDS)


def test_tune_defaults_frozen_reference_point():
    t = tune_defaults(10_000, 2.0)
    assert t.npmle_y0 == 40          # ceil(10^1.6)
    assert t.npmle_rho == pytest.approx(1e-40, rel=1e-12)
    assert t.robbins_y0 == 2         # ceil((n / log^3 n)^{1/4})
    # truncation level grows with n and shrinks with p
    assert tune_defaults(100_000, 2.0).npmle_y0 > t.npmle_y0
    assert tune_defaults(10_000, 4.0).npmle_y0 < t.npmle_y0


def test_tune_defaults_regime_guards():
    with pytest.raises(UnsupportedRegimeError):
        tune_defaults(10_000, 1.0)
    with pytest.raises(UnsupportedRegimeError):
        tune_defaults(10_000, 0.5)
    with pytest.raises(InvalidInputError):
        tune_defaults(1, 2.0)
    with pytest.raises(InvalidInputError):
        tune_defaults(100, 2.0, m_p=0.0)
    for c in (-1.0, math.inf, math.nan):  # inf would overflow math.ceil in every tuned trial
        with pytest.raises(InvalidInputError):
            tune_defaults(100, 2.0, c=c)
