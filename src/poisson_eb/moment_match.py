"""Local moment matching: compress a prior to few atoms per window.

The partition of [0, 2M) has quadratically growing windows
``[C eta_bar i^2, C eta_bar (i+1)^2)`` with ``eta_bar = log(1/eta)`` — equal
width in the sqrt(theta) scale, which is what makes a fixed number of matched
moments per window give a uniformly small mixture-pmf error.  Within each
window the conditional distribution is replaced by a Gauss quadrature
rule matching its leading moments; mass at or beyond 2M is lumped at exactly
2M.  The report carries the *measured* sup-norm pmf error over y = 0..M, not
the theoretical bound.

Each window's recurrence coefficients come from discrete Stieltjes
orthogonalization of its conditional atoms, which is numerically stable at
any practical degree; a window whose measure runs out of support before the
target degree falls back to fewer matched moments, and the report says so.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .mixtures import DiscretePrior, pmf_on_range

__all__ = [
    "QuadraticPartition",
    "MatchReport",
    "local_moment_match",
]

_DEGREE_CAP = 40  # most moments matched in one window
_BUDGET_K = 5.0  # K in the atom budget K sqrt(M) (log 1/eta)^{3/2}
_MAX_M = 10_000_000  # largest M: the match tabulates the pmf over y = 0..M


# ---------------------------------------------------------------------------
# the partition
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadraticPartition:
    """Windows [C eta_bar i^2, C eta_bar (i+1)^2) covering [0, 2M).

    M must lie in (0, 10^7]: `local_moment_match` measures its error over
    y = 0..M, and a non-finite M would never close the partition.  A C that
    makes the window count ceil(sqrt(2M / (C eta_bar))) exceed 10^5 is refused.
    """

    M: float
    eta: float
    C: float
    edges: np.ndarray = field(init=False, default=None)

    def __post_init__(self) -> None:
        if not (0 < self.M <= _MAX_M):  # NaN and inf too
            raise InvalidInputError(f"M must lie in (0, {_MAX_M:.0e}] (got {self.M!r})")
        if not (0 < self.eta <= 1e-2):
            raise InvalidInputError("eta must lie in (0, 1e-2]")
        if not (self.C > 0):
            raise InvalidInputError("C must be positive")
        eta_bar = math.log(1.0 / self.eta)
        two_m = 2.0 * self.M
        windows = math.sqrt(two_m / (self.C * eta_bar))  # the count is its ceiling
        if not windows <= 1e5:
            raise InvalidInputError(f"C={self.C!r} gives {windows:.4g} windows, over 1e+05")
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

def _stieltjes_gauss(atoms: np.ndarray, weights: np.ndarray, n: int,
                     lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for a discrete measure by Stieltjes orthogonalization.

    Works in the affinely mapped coordinate t in [-1, 1] for conditioning.
    Matches the first 2m-1 moments of the (probability-normalized) measure with
    m = n nodes, or m < n when the recurrence's norm stops being positive first
    (the measure ran out of support): the rule from the recurrence so far.
    """
    mass = weights.sum()
    w = weights / mass
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t = (atoms - mid) / half
    alphas: list[float] = []
    betas: list[float] = []
    p_prev = np.zeros_like(t)
    p = np.ones_like(t)
    for k in range(n):
        alphas.append(float(w @ (t * p * p)))
        if k == n - 1:
            break
        q = (t - alphas[k]) * p - (betas[k - 1] if k > 0 else 0.0) * p_prev
        norm2 = float(w @ (q * q))
        if norm2 <= 0:
            break
        betas.append(math.sqrt(norm2))
        p_prev, p = p, q / betas[k]
    from scipy.linalg import eigh_tridiagonal
    # Golub-Welsch: nodes are the Jacobi matrix's eigenvalues, weights the
    # squared first components of its eigenvectors
    t_nodes, vecs = eigh_tridiagonal(np.array(alphas), np.array(betas))
    nodes = mid + half * np.clip(t_nodes, -1.0, 1.0)
    return nodes, mass * vecs[0, :] ** 2


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
        nodes, wts = _stieltjes_gauss(atoms_i, weights_i, n_pts, *part.window(i))
        if nodes.size < n_pts:
            fallbacks.append(f"window_{i}_degree_reduced_to_{2 * nodes.size - 1}")
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
