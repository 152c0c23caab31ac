import math

import numpy as np
import pytest

from poisson_eb import differences, mixtures, verify
from poisson_eb.errors import InvalidInputError
from poisson_eb.verify import CHECKS, CheckResult, binomial_identity_check, run_all


@pytest.fixture(scope="module")
def all_results():
    return run_all()


def test_every_check_passes(all_results):
    failed = [r for r in all_results if not r.passed]
    assert not failed, "\n".join(str(r) for r in failed)
    assert len(all_results) == len(CHECKS) == 6


def test_check_names_are_distinct(all_results):
    names = [r.name for r in all_results]
    assert len(set(names)) == len(names)
    for r in all_results:
        assert math.isfinite(r.worst_error)
        assert r.worst_error >= 0.0


def test_result_formatting():
    ok = CheckResult("identity", True, 1.25e-12, "detail here")
    bad = CheckResult("identity", False, 2.0)
    assert str(ok).startswith("[ok  ] identity: worst=1.250e-12")
    assert str(bad).startswith("[FAIL]")


def test_binomial_identity_guard():
    with pytest.raises(InvalidInputError):  # a PoissonEBError, as errors.py promises of every failure
        binomial_identity_check(n_max=100)      # enumeration cap


# ---------------------------------------------------------------------------
# mutation probes: a corrupted formula must be caught, not absorbed
# ---------------------------------------------------------------------------

def test_divergence_check_catches_formula_drift(monkeypatch):
    true_fn = mixtures.poisson_divergences

    def skewed(lam, lam2):
        chi, hell = true_fn(lam, lam2)
        return chi * 1.001, hell                # 0.1% multiplicative error

    monkeypatch.setattr(mixtures, "poisson_divergences", skewed)
    result = verify.check_divergences()
    assert not result.passed


def test_charlier_check_catches_recurrence_drift(monkeypatch):
    true_fn = differences.charlier

    def drifted(k, y, theta):
        out = true_fn(k, y, theta)
        return out + (1e-6 if k == 3 else 0.0) * np.ones_like(np.asarray(y, float))

    monkeypatch.setattr(differences, "charlier", drifted)
    result = verify.check_charlier()
    assert not result.passed


def test_run_all_reports_crashes_as_failures(monkeypatch):
    def explode():
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(verify, "CHECKS", (explode,) + CHECKS[1:])
    results = verify.run_all()
    assert len(results) == 6
    assert not results[0].passed
    assert "synthetic crash" in results[0].detail
    assert results[0].worst_error == math.inf
