"""Self-check battery: closed-form identities, bound sweeps, solver certificates.

Every check recomputes a quantity two independent ways (closed form vs direct
enumeration, recurrence vs explicit expansion, solver output vs certificate)
and reports pass/fail with a measured worst-case error.  Checks deliberately
call through the module namespaces (``mixtures.poisson_divergences`` and so
on) so that a perturbation of any library formula is caught here rather than
silently accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import differences, errors, mixtures, npmle
from .mixtures import DiscretePrior

__all__ = ["CheckResult", "binomial_identity_check", "run_all", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_error: float
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        return f"[{mark}] {self.name}: worst={self.worst_error:.3e} {self.detail}"


# ---------------------------------------------------------------------------
# Charlier orthonormality + explicit-expansion cross-check
# ---------------------------------------------------------------------------

def _charlier_explicit(k: int, y: np.ndarray, theta: float) -> np.ndarray:
    # Hypergeometric expansion sum_j (-1)^j C(k,j) y^(j)_falling theta^(-j),
    # normalized by sqrt(theta^k / k!) to make the family orthonormal under
    # Poisson(theta) weights.  Recurrence-free, so it is an independent route.
    y = np.asarray(y, dtype=float)
    total = np.zeros_like(y)
    falling = np.ones_like(y)
    for j in range(k + 1):
        coef = math.comb(k, j) * (-1.0) ** j * theta ** (-j)
        total += coef * falling
        falling = falling * (y - j)
    norm = math.sqrt(theta ** k / math.factorial(k))
    return total * norm


def check_charlier() -> CheckResult:
    from scipy.special import gammaln  # scipy's log y!, not the kernel's
    worst = 0.0
    for theta in (0.5, 1.0, 5.0, 20.0):
        y_hi = int(theta + 30.0 * math.sqrt(theta + 1.0) + 120.0)
        y = np.arange(y_hi + 1)
        w = np.exp(y * math.log(theta) - theta - gammaln(y + 1.0))
        polys = np.stack([differences.charlier(k, y, theta) for k in range(9)])
        gram = (polys * w) @ polys.T
        worst = max(worst, float(np.abs(gram - np.eye(9)).max()))
        # independent explicit expansion at scattered points
        pts = np.array([0.0, 1.0, 3.0, 7.0, 19.0])
        for k in range(9):
            direct = _charlier_explicit(k, pts, theta)
            via_rec = differences.charlier(k, pts, theta)
            scale = np.maximum(np.abs(direct), 1.0)
            worst = max(worst, float((np.abs(via_rec - direct) / scale).max()))
    return CheckResult("charlier_orthonormality", worst <= 1e-8, worst,
                       "k,l <= 8 at theta in {0.5,1,5,20}")


# ---------------------------------------------------------------------------
# Poisson divergence closed forms vs direct summation
# ---------------------------------------------------------------------------

def check_divergences() -> CheckResult:
    from scipy.special import gammaln, logsumexp
    pairs = [
        (0.3, 0.7), (0.7, 0.3), (1.0, 2.0), (2.0, 1.0), (1.0, 1.0),
        (5.0, 3.0), (3.0, 5.0), (10.0, 10.0), (0.1, 4.0), (4.0, 0.1),
        (2.5, 2.6), (8.0, 12.0), (12.0, 8.0), (0.5, 0.5), (6.0, 1.0),
        (1.0, 6.0), (9.0, 14.0), (14.0, 9.0), (0.2, 0.9), (0.9, 0.2),
    ]
    worst = 0.0
    for lam, lam2 in pairs:
        chi, hell = mixtures.poisson_divergences(lam, lam2)
        # The direct sum runs in log space: chi^2 + 1 = sum f^2/g has terms
        # spanning hundreds of orders of magnitude for well-separated rates
        # (for (4, 0.1) the sum is ~e^152), so linear-space enumeration would
        # underflow exactly where the mass lives.
        y_hi = int(20 * max(lam, lam2) * max(lam, lam2) / max(min(lam, lam2), 0.05)
                   + 40 * max(lam, lam2) + 400)
        y = np.arange(y_hi + 1)
        logf = y * math.log(lam) - lam - gammaln(y + 1.0)
        logg = y * math.log(lam2) - lam2 - gammaln(y + 1.0)
        log_sum_ffg = float(logsumexp(2.0 * logf - logg))
        closed_log = (lam - lam2) ** 2 / lam2
        worst = max(worst, abs(math.log1p(chi) - log_sum_ffg) / max(1.0, closed_log))
        if closed_log < 30:  # linear-space comparison is meaningful here too
            chi_direct = math.expm1(log_sum_ffg)
            worst = max(worst, abs(chi - chi_direct) / max(chi_direct, 1.0))
        hell_direct = -math.expm1(float(logsumexp((logf + logg) / 2.0)))
        worst = max(worst, abs(hell - hell_direct))
    return CheckResult("poisson_divergence_closed_forms", worst <= 1e-10, worst,
                       f"{len(pairs)} (lam, lam') pairs")


# ---------------------------------------------------------------------------
# binomial moment identities (exact enumeration for n <= 60)
# ---------------------------------------------------------------------------

def binomial_identity_check(n_max: int = 30) -> CheckResult:
    """Enumerated binomial moments vs their closed forms.

    First identity, exact: E[(n-X)/(X+1)] = ((1-p)/p) P(X >= 1).
    Second, two-sided comparison: E[(n-X)/(X+1)^2] against
    ((1-p)/p^2) P(X(n+1) >= 2)/(n+1), required only to lie within a
    fixed wide band [1/8, 8] of it.
    """
    n_max = mixtures._whole(n_max, "n_max", 1)
    if n_max > 60:
        raise errors.InvalidInputError("exact enumeration is only supported for n_max <= 60")
    ps = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9)
    worst = 0.0
    worst_ratio = 1.0
    for n in range(1, n_max + 1):
        k = np.arange(n + 1)
        for p in ps:
            pmf = np.array([math.comb(n, j) for j in k]) * p ** k * (1.0 - p) ** (n - k)
            lhs1 = float(pmf @ ((n - k) / (k + 1.0)))
            rhs1 = (1.0 - p) / p * float(1.0 - pmf[0])
            worst = max(worst, abs(lhs1 - rhs1) / max(abs(rhs1), 1e-30))
            lhs2 = float(pmf @ ((n - k) / (k + 1.0) ** 2))
            tail2 = 1.0 - (1.0 - p) ** (n + 1) - (n + 1) * p * (1.0 - p) ** n
            rhs2 = (1.0 - p) / p ** 2 * tail2 / (n + 1.0)
            if rhs2 > 0 and lhs2 > 0:
                r = lhs2 / rhs2
                worst_ratio = max(worst_ratio, r, 1.0 / r)
    ok = worst <= 1e-12 and worst_ratio <= 8.0
    return CheckResult("binomial_moment_identities", ok, worst,
                       f"n <= {n_max}; worst 2nd-moment ratio {worst_ratio:.3f}")


# ---------------------------------------------------------------------------
# weighted difference sequence bounds
# ---------------------------------------------------------------------------

def _canned_prior_pairs():
    return [
        (DiscretePrior([1.0], [1.0]), DiscretePrior([3.0], [1.0])),
        (DiscretePrior([0.5, 4.0], [0.3, 0.7]), DiscretePrior([1.0, 6.0], [0.6, 0.4])),
        (DiscretePrior([2.0], [1.0]), DiscretePrior([2.0, 9.0], [0.9, 0.1])),
        (DiscretePrior(np.linspace(0.2, 8.0, 7), np.full(7, 1 / 7)),
         DiscretePrior(np.linspace(0.1, 10.0, 5), np.full(5, 0.2))),
    ]


def check_ak_bounds() -> CheckResult:
    worst = 0.0
    detail = []
    for rho in (1e-3, 1e-5):
        for g1, g2 in _canned_prior_pairs():
            ak_sq = differences.ak_sequence(g1, g2, rho, k_max=10)
            for k in range(1, ak_sq.size):
                cap = 4.0 * k ** k / rho
                excess = ak_sq[k] / cap
                worst = max(worst, excess)
                if excess > 1.0:
                    detail.append(f"A_{k}^2 over cap at rho={rho}")
            resid = differences.ak_recursion_residuals(ak_sq)
            for k, r in enumerate(resid, start=1):
                budget = 100.0 * math.log(1.0 / rho) + k
                if r > budget:
                    detail.append(f"recursion residual {r:.2e} > {budget:.2e} at k={k}")
            for g in (g1, g2):
                for k in range(1, 11):
                    if differences.forward_weighted_diff_sum(g, k) > 2.0 * math.factorial(k):
                        detail.append(f"weighted diff sum over 2 k! at k={k}")
    ok = worst <= 1.0 and not detail
    return CheckResult("weighted_difference_bounds", ok, worst,
                       "; ".join(detail) if detail else "all caps respected")


# ---------------------------------------------------------------------------
# summation by parts + generating function
# ---------------------------------------------------------------------------

def check_sbp_and_gf() -> CheckResult:
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 40))
        f = rng.standard_normal(m)
        g = rng.standard_normal(m)
        lhs, rhs = differences.summation_by_parts(f, g)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    for _ in range(100):
        m = int(rng.integers(1, 6))
        atoms = rng.uniform(0.0, 15.0, size=m)
        w = rng.dirichlet(np.ones(m))
        prior = DiscretePrior(atoms, w)
        z = float(rng.uniform(0.0, 1.0))
        lhs, rhs = mixtures.generating_function_check(prior, z)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-12))
    return CheckResult("sbp_and_generating_function", worst <= 1e-10, worst,
                       "100 random instances each")


# ---------------------------------------------------------------------------
# NPMLE certificates on canned data
# ---------------------------------------------------------------------------

def check_npmle_certificates() -> CheckResult:
    datasets = [
        npmle.CountHistogram([3], [40]),
        npmle.CountHistogram([0, 1, 2, 3, 5], [10, 22, 18, 9, 2]),
        npmle.CountHistogram([0, 4, 9], [30, 15, 5]),
        npmle.CountHistogram([1, 2], [7, 13]),
        npmle.CountHistogram([0, 1, 2, 3, 4, 5, 6, 7, 10, 66],
                             [956, 1, 12, 11, 8, 3, 4, 3, 1, 1]),  # isolated count
        npmle.CountHistogram(np.r_[0:40, 81, 499], [  # Pareto draw: at 499, D/n > e^709
            421, 869, 982, 774, 536, 375, 257, 184, 119, 107, 89, 65, 52, 47, 40, 33, 36, 32, 17,
            20, 16, 12, 8, 18, 11, 16, 11, 10, 11, 5, 6, 6, 5, 8, 7, 5, 7, 9, 6, 4, 1, 1]),
    ]
    worst = 0.0
    detail = []
    for data in datasets:
        fit = npmle.fit_npmle(data)
        worst = max(worst, fit.kkt_gap)
        if fit.kkt_gap > 1e-4:
            detail.append(f"kkt_gap {fit.kkt_gap:.2e}")
        lo, hi = fit.grid[0], fit.grid[-1]
        fine = np.linspace(math.sqrt(max(lo, 1e-12)), math.sqrt(hi),
                           10 * fit.grid.size) ** 2  # sqrt-uniform refinement
        fine_gap = npmle.kkt_gap_on_grid(fit.prior, data, fine)
        worst = max(worst, fine_gap)
        if fine_gap > 1e-4:
            detail.append(f"fine-grid gap {fine_gap:.2e}")
    const_fit = npmle.fit_npmle(npmle.CountHistogram([3], [40]), tol=1e-8)
    top = const_fit.prior.atoms[np.argmax(const_fit.prior.weights)]
    atom_err = abs(top - 3.0)
    worst = max(worst, atom_err)
    if atom_err > 1e-6:
        detail.append(f"constant-data atom error {atom_err:.2e}")
    ok = not detail
    return CheckResult("npmle_certificates", ok, worst,
                       "; ".join(detail) if detail else "gaps <= 1e-4, exact atom recovery")


CHECKS = (
    check_charlier,
    check_divergences,
    binomial_identity_check,
    check_ak_bounds,
    check_sbp_and_gf,
    check_npmle_certificates,
)


def run_all() -> list[CheckResult]:
    """Run every check; never raises, always returns the full list."""
    out = []
    for chk in CHECKS:
        try:
            out.append(chk())
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            out.append(CheckResult(chk.__name__, False, math.inf,
                                   f"crashed: {type(exc).__name__}: {exc}"))
    return out
