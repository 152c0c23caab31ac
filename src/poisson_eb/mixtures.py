"""Discrete priors, Poisson mixture pmf tables, and exact mixture functionals.

The objects here are the substrate for everything else in the package: a
mixing distribution with finitely many atoms (`DiscretePrior`), its Poisson
mixture pmf tabulated on ``y = 0..y_max`` with a certified tail bound
(`MixturePmf`), and the exact quantities built from them — the posterior-mean
(Bayes) rule, the Bayes risk, Hellinger/chi-square divergences, and the
probability generating function identity used as a self-check.

Conventions
-----------
* ``Poi(y; theta) = exp(-theta) theta^y / y!``, with ``theta = 0`` meaning a
  unit mass at ``y = 0``.
* log y! (`log_factorial`) is cephes' ``lgam``, as in scipy's ``gammaln``:
  exact for y < 12, else (x - 1/2) log x - x + log sqrt(2 pi) at x = y + 1
  plus cephes' 5-term series in 1/x^2 (x < 1000) or 3-term one (x <= 10^8),
  tabulated once for y < 2^16.  Where numpy's ``log`` rounds apart from libm's
  it sits 1-2 ulp from ``gammaln`` (2 table rows).  A deviance form may replace it.
* pmf tables are truncated at a ``y_max`` chosen from the Poisson deviation
  bound ``P(|X - theta| > t) <= exp(-t^2 / (2(theta + t)))`` applied atom by
  atom, so the neglected tail is provably below the requested tolerance.
* Mixture tables sum each block of ``max(256, 2^16 // atoms)`` rows (few-atom
  priors, such as fitted NPMLEs, take few blocks) over the atoms whose
  deviation bound is near the block's best.  That bound, summed over the atoms
  left out, must be 2^-60 below every kept row sum, else the block sums all
  atoms: a table equals the all-atom sum to within the rounding of a double.
* One pass over the blocks gives the pmf and any posterior moments
  (`pmf_and_moment_tables`).  One exponential per cell, E = w Poi / e^top
  with top the row's largest log term, is shared by the pmf and every
  moment: log f = top + log sum E, and moment r is the theta^r-weighted
  row sum of E over the row mass sum E.  Each output keeps its own
  certificate: the pmf sums all atoms only where the w sum fails, moment r
  where the w sum or the w theta^r sum fails.  So each table equals the one
  its own call gives.
* Squared Hellinger distance between pmfs is the *unnormalized* sum
  ``sum_y (sqrt f - sqrt g)^2``, which lives in ``[0, 2]``.  The closed forms
  in :func:`poisson_divergences` use the 1/2-normalized convention in
  ``[0, 1]``; multiply by 2 to land in the unnormalized one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSupportError,
    InvalidInputError,
    TailCoverageError,
)

__all__ = [
    "WEIGHT_FLOOR",
    "DiscretePrior",
    "MixturePmf",
    "log_factorial",
    "log_poisson_pmf",
    "mixture_tail_bound",
    "pmf_on_range",
    "pmf_table",
    "pmf_and_moment_tables",
    "bayes_rule",
    "posterior_moment_table",
    "mmse_exact",
    "hellinger_sq",
    "poisson_divergences",
    "generating_function_check",
]

# Weights below this are dropped at construction time and the rest renormalized.
WEIGHT_FLOOR = 1e-15

_WEIGHT_SUM_TOL = 1e-12
_BLOCK = 256  # fewest rows per block when tabulating mixtures
_BLOCK_CELLS = 2 ** 16  # a block spans max(_BLOCK, _BLOCK_CELLS // atoms) rows
_BAND_NATS = 200.0  # atoms whose bound is this far below a block's best are left out
_CERT_LOG = 60.0 * math.log(2.0)  # left-out mass must sit 2^-60 below every kept sum


# ---------------------------------------------------------------------------
# prior
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DiscretePrior:
    """Finitely supported mixing distribution on [0, inf).

    Atoms are sorted strictly increasing after merging duplicates; weights are
    positive, pruned below :data:`WEIGHT_FLOOR`, and renormalized to sum to 1.
    Construction raises :class:`InvalidInputError` when that cannot be done.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.atleast_1d(np.asarray(self.atoms, dtype=float)).ravel()
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float)).ravel()
        if atoms.size == 0:
            raise InvalidInputError("prior needs at least one atom")
        if atoms.shape != weights.shape:
            raise InvalidInputError("atoms and weights must have equal length")
        if not np.all(np.isfinite(atoms)) or np.any(atoms < 0):
            raise InvalidInputError("atoms must be finite and nonnegative")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise InvalidInputError("weights must be finite and nonnegative")

        # merge duplicate atoms, then prune tiny weights and renormalize
        atoms, inverse = np.unique(atoms, return_inverse=True)
        weights = np.bincount(inverse, weights=weights, minlength=atoms.size)
        total = weights.sum()
        if not (total > 0):
            raise InvalidInputError("total prior mass must be positive")
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise InvalidInputError(
                f"weights must sum to 1 within {_WEIGHT_SUM_TOL:g} (got {total!r})"
            )
        weights = weights / total
        keep = weights >= WEIGHT_FLOOR
        if not np.any(keep):
            raise InvalidInputError("all weights fell below the pruning floor")
        atoms, weights = atoms[keep], weights[keep]
        weights = weights / weights.sum()

        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    # -- basic queries ------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return int(self.atoms.size)

    def moment(self, r: float) -> float:
        """E theta^r under the prior, for r >= 0 (0^0 counted as 1)."""
        if not (r >= 0):  # NaN too
            raise InvalidInputError("moment order must be nonnegative")
        return float(self.weights @ self.atoms ** r)

    def describe(self) -> str:
        if self.n_atoms == 1:
            return f"point_mass({self.atoms[0]:g})"
        return f"discrete({self.n_atoms} atoms on [{self.atoms[0]:g}, {self.atoms[-1]:g}])"

    def to_dict(self) -> dict:
        return {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}


# ---------------------------------------------------------------------------
# Poisson pmf and tail machinery
# ---------------------------------------------------------------------------

def _stirling_log_factorial(y: np.ndarray) -> np.ndarray:
    x = y + 1.0  # cephes lgam(x) for x >= 13; see the module Conventions
    p = 1.0 / (x * x)
    near = np.polyval([8.11614167470508450300e-4, -5.95061904284301438324e-4,
                       7.93650340457716943945e-4, -2.77777777730099687205e-3,
                       8.33333333333331927722e-2], p)
    far = np.polyval([7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                      0.0833333333333333333333], p)
    tail = np.where(x < 1e3, near, np.where(x > 1e8, 0.0, far))
    return (x - 0.5) * np.log(x) - x + 0.91893853320467274178 + tail / x


_LOG_FACTORIALS = np.concatenate([[math.log(math.factorial(k)) for k in range(12)],
                                  _stirling_log_factorial(np.arange(12.0, 2.0 ** 16))])


def log_factorial(y):
    """log y! for whole y >= 0, broadcasting; anything else is an input error."""
    y, rows = np.asarray(y, dtype=float), _LOG_FACTORIALS.size
    # the table's rows are the y that clamping to [0, last row] and flooring leave
    # unchanged; NaN is not equal to itself, so only rows are cast
    if not np.count_nonzero(np.floor(np.minimum(np.maximum(y, 0.0), rows - 1.0)) != y):
        return _LOG_FACTORIALS[y.astype(np.intp)]
    if not (np.isfinite(y) & (y >= 0) & (y == np.floor(y))).all():
        raise InvalidInputError("log_factorial needs whole y >= 0")
    return np.where(y < rows, _LOG_FACTORIALS[np.minimum(y, rows - 1).astype(np.intp)],
                    _stirling_log_factorial(y))


def log_poisson_pmf(y, theta):
    """log Poi(y; theta), broadcasting, with theta = 0 handled exactly.

    The zero atom gives a unit mass at y = 0 (log pmf 0 there, -inf
    elsewhere), which the generic formula would turn into NaN.
    """
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = y * np.log(theta) - theta - log_factorial(y)
    if np.any(theta == 0):
        at_zero = np.where(y == 0, 0.0, -np.inf)
        out = np.where(theta == 0, at_zero, out)
    return out


def _deviation_exponent(theta, t: np.ndarray) -> np.ndarray:
    """t^2 / (2(theta + t)), the exponent of the Poisson deviation bound; 0 where t <= 0."""
    return np.divide(t * t, 2.0 * (theta + t), out=np.zeros_like(t), where=t > 0)


def mixture_tail_bound(prior: DiscretePrior, y: float) -> float:
    """Certified upper bound on P(Y > y) for the Poisson mixture of `prior`.

    Applies the one-sided deviation bound exp(-t^2 / (2(theta + t))) per atom
    with t = y - theta (atoms at or above y contribute their full weight); a
    one-atom prior gives the bound for Poi(theta) itself.
    """
    return float(prior.weights @ np.exp(-_deviation_exponent(prior.atoms, y - prior.atoms)))


def _y_max_for_tail(prior: DiscretePrior, tail_tol: float) -> int:
    # Solve exp(-t^2/(2(theta+t))) = tail_tol per atom: t = L + sqrt(L^2 + 2 theta L)
    # with L = log(1/tail_tol); then each atom's tail is <= tail_tol, hence so
    # is the mixture's (weights sum to one).
    L = math.log(1.0 / tail_tol)
    t = L + np.sqrt(L * L + 2.0 * prior.atoms * L)
    y_max = int(math.ceil(float(np.max(prior.atoms + t))))
    while mixture_tail_bound(prior, y_max) > tail_tol:  # safety; rarely taken
        y_max += max(1, y_max // 8)
    return y_max


def _log_mix(logP: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log sum_j w_j exp(logP[:, j]) per row; a row of zero mass stays at -inf."""
    with np.errstate(divide="ignore"):
        terms = logP + np.log(w)
        top = terms.max(axis=1)
        top = np.where(np.isfinite(top), top, 0.0)
        return top + np.log(np.exp(terms - top[:, None]).sum(axis=1))


def _mixture_rows(prior: DiscretePrior, y_hi: int, orders=()) -> tuple[np.ndarray, list]:
    """log f_G(y) and E[theta^r | Y = y] for each r in `orders`, y = 0..y_hi, in one pass.

    A block keeps the run of atoms whose bound ``log w_j - t^2/(2(theta_j + t))``,
    t the distance from theta_j to the block, is within _BAND_NATS of the best,
    plus the nearest atom on each side.  Its kernel E = w Poi / e^top takes one
    exponential per cell, shared by every output: log f is top + log of the row
    mass sum E, and moment r the theta^r-weighted row sum of E over that mass.
    Each output keeps its own certificate of the module Conventions: log f needs
    the w sum, moment r the w sum and the w theta^r sum.  An output whose sums
    fail takes the block over all atoms, with the band freed first, so each
    table equals the one a pass for it alone would give.
    """
    if not (y_hi >= 0 and y_hi % 1 == 0):  # NaN and inf too
        raise InvalidInputError("y_hi must be a whole number >= 0")
    y_hi = int(y_hi)
    if not all(r >= 0 for r in orders):  # NaN too
        raise InvalidInputError("moment order must be nonnegative")
    atoms, w = prior.atoms, prior.weights
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
        log_coefs = [np.log(w * atoms ** r) for r in orders]
    log_f = np.empty(y_hi + 1)
    moments = [np.empty(y_hi + 1) for _ in orders]
    rows = max(_BLOCK, _BLOCK_CELLS // atoms.size)
    for start in range(0, y_hi + 1, rows):
        stop = min(start + rows, y_hi + 1)
        ys = np.arange(start, stop, dtype=float)[:, None]
        drop = _deviation_exponent(atoms, np.maximum(start - atoms, atoms - (stop - 1)))
        near = np.flatnonzero(log_w - drop >= np.max(log_w - drop) - _BAND_NATS)
        lo = min(near[0], max(np.searchsorted(atoms, start) - 1, 0))
        hi = max(near[-1], min(np.searchsorted(atoms, stop - 1, side="right"), atoms.size - 1)) + 1
        left_out = np.r_[0:lo, hi:atoms.size]

        def certified(log_c, log_kept):
            return not left_out.size or not (
                _log_mix((log_c - drop)[None, left_out], 1.0)[0] > log_kept.min() - _CERT_LOG)

        redo = [True] * (1 + len(orders))  # log f, then each moment: still to (re)compute
        for band, cols in ((True, slice(lo, hi)), (False, slice(None))):
            e = log_poisson_pmf(ys, atoms[cols])  # becomes E = exp(log Poi + log w - top)
            e += log_w[cols]
            top = e.max(axis=1)
            top[~np.isfinite(top)] = 0.0  # a row of zero mass
            e -= top[:, None]
            mass = np.exp(e, out=e).sum(axis=1)
            # rows of zero mass give log f = -inf and NaN moments
            with np.errstate(divide="ignore", invalid="ignore"):
                if redo[0]:
                    log_f[start:stop] = top + np.log(mass)
                    redo[0] = band and not certified(log_w, log_f[start:stop])
                for i, r in enumerate(orders):
                    if redo[i + 1]:
                        num = e @ atoms[cols] ** r
                        moments[i][start:stop] = num / mass
                        redo[i + 1] = band and (
                            redo[0] or not certified(log_coefs[i], top + np.log(num)))
            del e  # free the band before the full rows
            if not any(redo):
                break
    return log_f, moments


def pmf_on_range(prior: DiscretePrior, y_hi: int) -> np.ndarray:
    """f_G(y) for y = 0..y_hi (inclusive), over the atoms near each y."""
    return np.exp(_mixture_rows(prior, y_hi)[0])


# ---------------------------------------------------------------------------
# pmf tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MixturePmf:
    """Tabulated mixture pmf on y = 0..y_max with a certified tail bound.

    ``values[y] = f_G(y)``; ``tail_mass`` upper-bounds P(Y > y_max) and is no
    larger than the tolerance the table was built with.
    """

    values: np.ndarray
    tail_mass: float
    tail_tol: float = field(default=float("nan"))

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise InvalidInputError("pmf table must be a nonempty 1-d array")
        if np.any(values < 0) or np.any(values > 1) or not np.all(np.isfinite(values)):
            raise InvalidInputError("pmf values must lie in [0, 1]")
        if not (0 <= self.tail_mass <= 1):
            raise InvalidInputError("tail_mass must lie in [0, 1]")
        total = values.sum() + self.tail_mass
        if abs(total - 1.0) > 1e-10:
            raise InvalidInputError(
                f"pmf head + tail must account for all mass (got {total!r})"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def y_max(self) -> int:
        return self.values.size - 1


def pmf_table(
    prior: DiscretePrior,
    tail_tol: float = 1e-10,
    min_len: int | None = None,
) -> MixturePmf:
    """Tabulate the Poisson mixture pmf of `prior` with tail below `tail_tol`.

    The truncation point comes from the per-atom deviation bound, so
    ``tail_mass <= tail_tol`` is certified, not estimated.  ``min_len`` can
    force a longer table (useful when two tables must share a range).

    Parameters
    ----------
    prior : DiscretePrior
    tail_tol : float in (0, 1)
    min_len : optional minimum table length (y_max >= min_len - 1).
    """
    return pmf_and_moment_tables(prior, tail_tol, min_len=min_len)[0]


def pmf_and_moment_tables(
    prior: DiscretePrior,
    tail_tol: float,
    orders=(),
    min_len: int | None = None,
) -> tuple[MixturePmf, list]:
    """`pmf_table` and, on its range, E[theta^r | Y = y] for each r in `orders`.

    One pass over the mixture gives every table, each equal to what its own
    call (`pmf_table`, `posterior_moment_table`) would give.
    """
    if not isinstance(prior, DiscretePrior):
        raise InvalidInputError("pmf_table expects a DiscretePrior")
    if not (0.0 < tail_tol < 1.0):
        raise InvalidInputError("tail_tol must lie in (0, 1)")
    y_max = _y_max_for_tail(prior, tail_tol)
    if min_len is not None:
        y_max = max(y_max, int(min_len) - 1)
    log_f, moments = _mixture_rows(prior, y_max, orders)
    return _closed_pmf(prior, log_f, tail_tol), moments


def _closed_pmf(prior: DiscretePrior, log_f: np.ndarray, tail_tol: float) -> MixturePmf:
    """The `MixturePmf` of the rows log f_G(y), y = 0..y_max, of `prior`.

    The analytic bound at y_max certifies the tolerance; 1 - sum is the
    sharper (essentially exact) value of the same tail, so the smaller of the
    two is stored.  Both keep head + tail within 1e-10 of one.
    """
    values = np.exp(log_f)
    analytic = mixture_tail_bound(prior, values.size - 1)
    tail_mass = min(max(0.0, 1.0 - float(values.sum())), analytic)
    return MixturePmf(values=values, tail_mass=tail_mass, tail_tol=tail_tol)


# ---------------------------------------------------------------------------
# Bayes rule and Bayes risk
# ---------------------------------------------------------------------------

def bayes_rule(pmf: MixturePmf, y: int) -> float:
    """Posterior mean E[theta | Y = y] via the ratio form (y+1) f(y+1) / f(y).

    Requires y + 1 to be inside the table.  Raises
    :class:`DegenerateSupportError` when f(y) = 0 (in exact arithmetic the
    posterior is undefined there).
    """
    y = int(y)
    if not 0 <= y <= pmf.y_max - 1:
        raise InvalidInputError(
            f"need 0 <= y <= {pmf.y_max - 1} so that f(y+1) is tabulated"
        )
    fy = pmf.values[y]
    if fy == 0.0:
        raise DegenerateSupportError(f"f({y}) = 0: posterior mean undefined")
    return (y + 1) * float(pmf.values[y + 1]) / float(fy)


def posterior_moment_table(prior: DiscretePrior, y_hi: int, r: int = 1) -> np.ndarray:
    """E[theta^r | Y = y] for y = 0..y_hi (r = 1: the Bayes rule theta_G), in log domain.

    Unlike the pmf-ratio form this stays accurate arbitrarily far into the
    tail: it is a ratio of row sums over atoms shifted by each row's largest
    log term, never a ratio of underflowed marginals.  Rows where f_G(y) = 0
    are NaN: the posterior is undefined there (and `bayes_rule` raises).
    """
    return _mixture_rows(prior, y_hi, (r,))[1][0]


def mmse_exact(prior: DiscretePrior, tail_tol: float = 1e-12) -> tuple[float, float]:
    """Bayes risk E(theta_G(Y) - theta)^2 by deterministic summation.

    Returns ``(value, remainder_bound)`` where the remainder bounds the
    neglected tail contribution: each tail term is f(y) Var(theta | y), and
    the posterior variance never exceeds (atom range / 2)^2.
    """
    table, (m1, m2) = pmf_and_moment_tables(prior, tail_tol, (1, 2))
    var = np.where(table.values > 0.0, np.maximum(m2 - m1 * m1, 0.0), 0.0)  # moments NaN at f = 0
    value = float(np.sum(table.values * var))  # a BLAS dot would round by thread count
    half_range = 0.5 * float(prior.atoms[-1] - prior.atoms[0])
    remainder = table.tail_mass * half_range * half_range
    return value, remainder


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def hellinger_sq(f: MixturePmf, g: MixturePmf) -> float:
    """Unnormalized squared Hellinger distance sum_y (sqrt f - sqrt g)^2.

    Sums over the shared table range and adds a certified tail correction.
    The joint uncovered mass must be <= 1e-10, otherwise a
    :class:`TailCoverageError` asks for tables built with a smaller tail
    tolerance.
    """
    n = min(f.values.size, g.values.size)
    tail_f = float(f.values[n:].sum()) + f.tail_mass
    tail_g = float(g.values[n:].sum()) + g.tail_mass
    if tail_f + tail_g > 1e-10:
        raise TailCoverageError(
            "joint uncovered mass {:.3e} exceeds 1e-10; rebuild the pmf tables "
            "with a smaller tail_tol / longer range".format(tail_f + tail_g)
        )
    head = float(np.sum((np.sqrt(f.values[:n]) - np.sqrt(g.values[:n])) ** 2))
    # (sqrt tail_f - sqrt tail_g)^2 lower-bounds the tail contribution and is
    # itself bounded by the joint tail mass, so adding it keeps the result
    # within the certified window.
    correction = (math.sqrt(tail_f) - math.sqrt(tail_g)) ** 2
    return head + correction


def poisson_divergences(lam: float, lam2: float) -> tuple[float, float]:
    """Closed forms for a pair of Poisson pmfs.

    Returns ``(chi_sq, hellinger_sq_normalized)`` where

    * ``chi_sq = exp((lam - lam2)^2 / lam2) - 1`` is the chi-square divergence
      of Poi(lam) from Poi(lam2), and
    * ``hellinger_sq_normalized = 1 - exp(-(sqrt lam - sqrt lam2)^2 / 2)`` is
      the 1/2-normalized squared Hellinger distance (in [0, 1]); the
      unnormalized table convention of :func:`hellinger_sq` is twice this.
    """
    if not (lam >= 0 and lam2 > 0):
        raise InvalidInputError("need lam >= 0 and lam2 > 0")
    chi_sq = math.expm1((lam - lam2) ** 2 / lam2)
    hell = -math.expm1(-0.5 * (math.sqrt(lam) - math.sqrt(lam2)) ** 2)
    return chi_sq, hell


# ---------------------------------------------------------------------------
# generating function identity
# ---------------------------------------------------------------------------

def generating_function_check(prior: DiscretePrior, z: float) -> tuple[float, float]:
    """Both sides of E z^Y = E exp((z - 1) theta) for z in [0, 1].

    The left side sums the tabulated mixture pmf against z^y (the neglected
    tail contributes at most the table's tail mass since z <= 1); the right
    side evaluates the prior's moment generating function at z - 1.  The two
    should agree to ~1e-10.
    """
    if not (0.0 <= z <= 1.0):
        raise InvalidInputError("z must lie in [0, 1]")
    table = pmf_table(prior, tail_tol=1e-13)
    with np.errstate(under="ignore"):
        lhs = float(table.values @ np.power(z, np.arange(table.values.size, dtype=float)))
        rhs = float(prior.weights @ np.exp((z - 1.0) * prior.atoms))
    return lhs, rhs
