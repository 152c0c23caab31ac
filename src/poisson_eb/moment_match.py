"""Local moment matching: compress a prior to few atoms per window.

The partition of [0, 2M) has quadratically growing windows
``[C eta_bar i^2, C eta_bar (i+1)^2)`` with ``eta_bar = log(1/eta)`` — equal
width in the sqrt(theta) scale, which is what makes a fixed number of matched
moments per window give a uniformly small mixture-pmf error.  Within each
window the conditional distribution is replaced by a Gauss-type quadrature
rule matching its leading moments; mass at or beyond 2M is lumped at exactly
2M.  The report carries the *measured* sup-norm pmf error over y = 0..M, not
the theoretical bound.

Two construction paths:

* :func:`local_moment_match` knows the conditional atoms, so it builds each
  window's recurrence coefficients by discrete Stieltjes orthogonalization
  (numerically stable at any practical degree).
* :func:`quadrature_from_moments` starts from raw moments alone (the public,
  data-agnostic entry point) and goes through the Hankel-Cholesky route; it
  reports non-positive-definite moment sequences as degeneracy errors.  Raw
  power moments condition badly beyond degree ~20; that is inherent to the
  input format and documented rather than hidden.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    InvalidInputError,
    MomentDegeneracyError,
    NumericalFailureError,
)
from .mixtures import DiscretePrior, pmf_on_range

__all__ = [
    "MeasureFragment",
    "QuadraticPartition",
    "MatchReport",
    "quadrature_from_moments",
    "local_moment_match",
    "sup_pmf_gap_direct",
]

_DEGREE_CAP = 40  # most moments matched in one window
_BUDGET_K = 5.0  # K in the atom budget K sqrt(M) (log 1/eta)^{3/2}


# ---------------------------------------------------------------------------
# fragments and partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MeasureFragment:
    """A nonnegative measure with finitely many atoms (mass need not be 1)."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.size == 0 or atoms.shape != weights.shape:
            raise InvalidInputError("fragment needs matching nonempty arrays")
        if np.any(weights < 0):
            raise InvalidInputError("fragment weights must be nonnegative")
        order = np.argsort(atoms)
        atoms, weights = atoms[order], weights[order]
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def moment(self, r: int) -> float:
        return float(self.weights @ self.atoms ** r)


@dataclass(frozen=True, eq=False)
class QuadraticPartition:
    """Windows [C eta_bar i^2, C eta_bar (i+1)^2) covering [0, 2M)."""

    M: float
    eta: float
    C: float
    edges: np.ndarray = field(init=False, default=None)

    def __post_init__(self) -> None:
        if not (self.M > 0):
            raise InvalidInputError("M must be positive")
        if not (0 < self.eta <= 1e-2):
            raise InvalidInputError("eta must lie in (0, 1e-2]")
        if not (self.C > 0):
            raise InvalidInputError("C must be positive")
        eta_bar = math.log(1.0 / self.eta)
        two_m = 2.0 * self.M
        edges = [0.0]
        i = 1
        while self.C * eta_bar * i * i < two_m:
            edges.append(self.C * eta_bar * i * i)
            i += 1
        edges.append(two_m)
        arr = np.asarray(edges)
        arr.setflags(write=False)
        object.__setattr__(self, "edges", arr)

    @property
    def eta_bar(self) -> float:
        return math.log(1.0 / self.eta)

    @property
    def n_windows(self) -> int:
        return self.edges.size - 1

    def window(self, i: int) -> tuple[float, float]:
        return float(self.edges[i]), float(self.edges[i + 1])


# ---------------------------------------------------------------------------
# Gauss rules
# ---------------------------------------------------------------------------

def _gauss_from_recurrence(alphas: np.ndarray, betas: np.ndarray, mass: float,
                           radau_at: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights from three-term recurrence coefficients (Golub-Welsch).

    alphas has length n, betas length n-1 (positive).  With `radau_at` set,
    the last diagonal entry is replaced so that `radau_at` becomes a node
    (Gauss-Radau): alpha'_{n-1} = a - b_{n-1} pi_{n-2}(a) / pi_{n-1}(a) with
    pi the monic orthogonal polynomials and b = beta^2.
    """
    alphas = np.asarray(alphas, dtype=float).copy()
    betas = np.asarray(betas, dtype=float)
    n = alphas.size
    if radau_at is not None and n >= 2:
        a = float(radau_at)
        b = betas ** 2
        pi_prev, pi = 0.0, 1.0
        for k in range(n - 1):
            pi_prev, pi = pi, (a - alphas[k]) * pi - (b[k - 1] if k > 0 else 0.0) * pi_prev
        if pi == 0.0:
            raise MomentDegeneracyError("Radau modification hit a polynomial zero")
        alphas[n - 1] = a - b[n - 2] * pi_prev / pi
    elif radau_at is not None:  # n == 1
        alphas[0] = float(radau_at)
    if n == 1:
        return alphas.copy(), np.array([mass])
    vals, vecs = eigh_tridiagonal(alphas, betas)
    return vals, mass * vecs[0, :] ** 2


def _recurrence_from_tmoments(nu: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi recurrence coefficients from probability moments nu_0..nu_{2n-1}.

    Hankel-Cholesky route: H = L L^T with H_{ij} = nu_{i+j}, then
    J = L^{-1} H' L^{-T} with H'_{ij} = nu_{i+j+1} is the symmetric
    tridiagonal Jacobi matrix.  Raises :class:`MomentDegeneracyError` when H
    is not numerically positive definite.
    """
    idx = np.add.outer(np.arange(n), np.arange(n))
    H = nu[idx]
    Hs = nu[idx + 1]
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise MomentDegeneracyError(
            f"moment Hankel matrix of order {n} is not positive definite"
        ) from exc
    # J = L^{-1} Hs L^{-T}
    tmp = np.linalg.solve(L, Hs)
    J = np.linalg.solve(L, tmp.T).T
    J = 0.5 * (J + J.T)
    alphas = np.diag(J).copy()
    betas = np.diag(J, 1).copy()
    if np.any(betas <= 0):
        raise MomentDegeneracyError("moment sequence yields nonpositive recurrence weights")
    return alphas, betas


def quadrature_from_moments(
    moments,
    lo: float,
    hi: float,
    mass: float = 1.0,
) -> MeasureFragment:
    """Few-atom measure on [lo, hi] matching the given raw moments m_1..m_L.

    Uses at most ceil((L+1)/2) atoms: a Gauss rule for odd L, a Gauss-Radau
    rule anchored at `lo` for even L.  The result's first L moments are
    verified to match to 1e-9 relative accuracy; a moment sequence that is
    not strictly positive definite raises :class:`MomentDegeneracyError`
    (callers typically retry with fewer moments).
    """
    m = np.asarray(moments, dtype=float).ravel()
    L = m.size
    if L < 1:
        raise InvalidInputError("need at least one moment")
    if not (mass > 0):
        raise InvalidInputError("mass must be positive")
    if not (lo < hi):
        raise InvalidInputError("need lo < hi")
    mu = np.concatenate([[1.0], m / mass])  # probability moments mu_0..mu_L

    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # binomial transform to t = (x - mid)/half moments; fine for moderate
    # intervals, ill-conditioned for very high L (inherent to raw moments)
    n = (L + 1) // 2 if L % 2 == 1 else L // 2 + 1
    need = 2 * n  # nu_0..nu_{2n-1}; for even L the top one is a placeholder
    nu = np.zeros(need)
    for k in range(need):
        if k <= L:
            acc = 0.0
            for j in range(k + 1):
                acc += math.comb(k, j) * mu[j] * (-mid) ** (k - j)
            nu[k] = acc / half ** k
        else:
            nu[k] = 0.0  # unused: Radau replaces the entry that touches it
    alphas, betas = _recurrence_from_tmoments(nu, n)
    radau = -1.0 if L % 2 == 0 else None
    t_nodes, t_weights = _gauss_from_recurrence(alphas, betas, 1.0, radau_at=radau)
    if np.any(t_nodes < -1.0 - 1e-8) or np.any(t_nodes > 1.0 + 1e-8):
        raise MomentDegeneracyError(
            "reconstructed nodes escape the interval; moments are inconsistent with [lo, hi]"
        )
    nodes = mid + half * np.clip(t_nodes, -1.0, 1.0)
    weights = mass * np.maximum(t_weights, 0.0)
    frag = MeasureFragment(nodes, weights)

    # verification pass: first L raw moments to 1e-9 relative
    for k in range(1, L + 1):
        got = frag.moment(k)
        ref = float(m[k - 1])
        scale = max(abs(ref), mass * max(abs(lo), abs(hi)) ** k * 1e-12, 1e-300)
        if abs(got - ref) > 1e-9 * scale:
            raise NumericalFailureError(
                f"moment {k} mismatch after reconstruction: {got!r} vs {ref!r}"
            )
    return frag


def _stieltjes_gauss(atoms: np.ndarray, weights: np.ndarray, n: int,
                     lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for a discrete measure by Stieltjes orthogonalization.

    Works in the affinely mapped coordinate t in [-1, 1] for conditioning.
    Matches the first 2n-1 moments of the (probability-normalized) measure.
    """
    mass = weights.sum()
    w = weights / mass
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t = (atoms - mid) / half
    alphas = np.empty(n)
    betas = np.empty(max(n - 1, 0))
    p_prev = np.zeros_like(t)
    p = np.ones_like(t)
    for k in range(n):
        alphas[k] = float(w @ (t * p * p))
        if k == n - 1:
            break
        q = (t - alphas[k]) * p - (betas[k - 1] if k > 0 else 0.0) * p_prev
        norm2 = float(w @ (q * q))
        if norm2 <= 0:
            raise MomentDegeneracyError("discrete measure exhausted before target degree")
        betas[k] = math.sqrt(norm2)
        p_prev, p = p, q / betas[k]
    t_nodes, t_weights = _gauss_from_recurrence(alphas, betas[: n - 1], 1.0)
    nodes = mid + half * np.clip(t_nodes, -1.0, 1.0)
    return nodes, mass * t_weights


# ---------------------------------------------------------------------------
# the local matcher
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MatchReport:
    """Outcome of a local moment match.

    achieved_sup_error is measured (max_y |f_source(y) - f_approx(y)| over
    y = 0..M), never assumed from theory; budget is the K sqrt(M)
    (log 1/eta)^{3/2} atom allowance the construction is expected to respect.
    """

    approximant: DiscretePrior
    atom_count: int
    achieved_sup_error: float
    budget: float
    partition: QuadraticPartition
    degrees: tuple
    fallbacks: tuple
    source_desc: str

    def to_dict(self) -> dict:
        return {
            "approximant": self.approximant.to_dict(),
            "atom_count": self.atom_count,
            "achieved_sup_error": self.achieved_sup_error,
            "budget": self.budget,
            "edges": self.partition.edges.tolist(),
            "degrees": list(self.degrees),
            "fallbacks": list(self.fallbacks),
            "source": self.source_desc,
        }


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


def local_moment_match(
    source: DiscretePrior,
    M: float,
    eta: float,
    C: float = 1.0,
) -> MatchReport:
    """Compress `source` to few atoms per window of a quadratic partition.

    Within window i the conditional distribution is replaced by a Gauss rule
    matching its first L_i moments, where L_i = ceil((i+1)^2 eta_bar^2) for
    i <= M^{1/6} and ceil(9 C eta_bar^2) beyond, both capped at 40.  The
    report's budget is 5 sqrt(M) eta_bar^{3/2} atoms.  Windows whose
    conditional already has few enough atoms are kept verbatim (making the
    operation idempotent); mass at or past 2M is lumped at exactly 2M.

    The guarantee regime is M >= (log 1/eta)^7; outside it the match is
    still performed but a warning is recorded.  Degenerate windows fall back
    to fewer matched moments, also recorded.
    """
    if not isinstance(source, DiscretePrior):
        raise InvalidInputError("source must be a DiscretePrior")
    part = QuadraticPartition(M, eta, C)
    eta_bar = part.eta_bar
    fallbacks: list[str] = []
    if M < eta_bar ** 7:
        msg = (
            f"M = {M:g} is below the guarantee threshold (log 1/eta)^7 = "
            f"{eta_bar ** 7:.3g}; error target not guaranteed"
        )
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
        fallbacks.append("outside_guarantee_regime")

    two_m = 2.0 * M
    small_limit = M ** (1.0 / 6.0)
    in_body = source.atoms < two_m
    lump_mass = float(source.weights[~in_body].sum())

    new_atoms: list[np.ndarray] = []
    new_weights: list[np.ndarray] = []
    degrees: list[int] = []
    window_idx = np.searchsorted(part.edges, source.atoms[in_body], side="right") - 1
    for i in range(part.n_windows):
        sel = window_idx == i
        if not np.any(sel):
            degrees.append(0)
            continue
        atoms_i = source.atoms[in_body][sel]
        weights_i = source.weights[in_body][sel]
        if i <= small_limit:
            L = math.ceil((i + 1) ** 2 * eta_bar ** 2)
        else:
            L = math.ceil(9.0 * C * eta_bar ** 2)
        L = int(min(max(L, 1), _DEGREE_CAP))
        n_pts = (L + 1 + 1) // 2  # ceil((L+1)/2)
        degrees.append(L)
        if atoms_i.size <= n_pts:
            new_atoms.append(atoms_i)
            new_weights.append(weights_i)
            continue
        lo, hi = part.window(i)
        for n_try in range(n_pts, 0, -1):
            try:
                nodes, wts = _stieltjes_gauss(atoms_i, weights_i, n_try, lo, hi)
                break
            except MomentDegeneracyError:
                continue
        else:  # pragma: no cover - n_try = 1 cannot degenerate
            raise MomentDegeneracyError(f"window {i} irreducibly degenerate")
        if n_try < n_pts:
            fallbacks.append(f"window_{i}_degree_reduced_to_{2 * n_try - 1}")
        new_atoms.append(nodes)
        new_weights.append(np.maximum(wts, 0.0))

    if lump_mass > 0:
        new_atoms.append(np.array([two_m]))
        new_weights.append(np.array([lump_mass]))

    approx = DiscretePrior(np.concatenate(new_atoms), np.concatenate(new_weights))
    y_hi = int(math.ceil(M))
    sup_err = float(
        np.max(np.abs(pmf_on_range(source, y_hi) - pmf_on_range(approx, y_hi)))
    )
    return MatchReport(
        approximant=approx,
        atom_count=approx.n_atoms,
        achieved_sup_error=sup_err,
        budget=_BUDGET_K * math.sqrt(M) * eta_bar ** 1.5,
        partition=part,
        degrees=tuple(degrees),
        fallbacks=tuple(fallbacks),
        source_desc=source.describe(),
    )
