"""Discrete priors, Poisson mixture pmf tables, and exact mixture functionals.

The objects here are the substrate for everything else in the package: a
mixing distribution with finitely many atoms (`DiscretePrior`), its Poisson
mixture pmf tabulated on ``y = 0..y_max`` with a certified tail bound
(`MixturePmf`), and the exact quantities built from them — the posterior-mean
(Bayes) rule, the Bayes risk and the squared Hellinger distance.

Conventions
-----------
* ``Poi(y; theta) = exp(-theta) theta^y / y!``, with ``theta = 0`` meaning a
  unit mass at ``y = 0``.
* log Poi(y; theta) (`log_poisson_pmf`) is Loader's (2000) deviance form
  -stirlerr(y) - log sqrt(2 pi y) - bd0(y, theta), bd0 = y log(y/theta) +
  theta - y taken by its series near y = theta: within 4e-16 relative of
  40-digit values up to y = 10^6, where y log theta - theta - log y! errs by
  2e-11 to 4e-11 absolute near y = theta = 4 10^4 and by 7e-10 at 10^6.
  y = 0 (-theta) and theta = 0 are exact, and the smallest theta stays
  finite.  log y! (`_log_factorial`) is built from the same pieces.
* pmf tables are truncated at a ``y_max`` chosen from the Poisson deviation
  bound ``P(|X - theta| > t) <= exp(-t^2 / (2(theta + t)))`` applied atom by
  atom, so the neglected tail is provably below the requested tolerance.
* Mixture tables sum each block of whole 256-row segments, about
  ``max(256, 2^16 // atoms)`` rows (few-atom priors, such as fitted NPMLEs,
  take few blocks), over its band: the atoms whose bound log w_j - bd0(y*,
  theta_j), y* the point of the block nearest theta_j, is within 200 nats of
  the block's best, and the nearest atom either side of the block.
  Poi(y; theta) <= exp(-bd0(y, theta)) for every y, so the bound is rigorous.
  One vectorized pass chooses every band (`_bands`): the better score of the
  two atoms either side of the block start bounds the best below, and
  bd0(y, theta) >= (y - theta)^2 / (2 max(y, theta)) turns that into a window
  of theta outside which no atom scores near the best, so only the window's
  atoms are scored and the band is the one a scan of all atoms finds.  The
  left-out atoms' bounds, summed as count x max, must be 2^-60 below every
  kept row sum, else the block sums all atoms.  The pass bounds the atoms
  beyond the window by the window's edge, which is looser; only where that
  bound fails is the exact bound over all atoms taken, and it decides.  So
  every band and certificate decision, hence every cell and sum, is the
  scan's, and a table equals the all-atom sum to within rounding.
* A cell is log(w_j Poi(y; theta_j)) less the row term log Poi(y; c), c the
  centre of the row's segment: (y - c) log(theta_j / c) + log w_j - bd0(c,
  theta_j), one multiply-add per cell.  The first segment is not centred (row
  term -log y!), so row 0 is exact.  A cell rounds by about 2^-53 (bd0(c,
  theta_j) + 128 |log(theta_j / c)|), small where the mixture has mass near
  c; in a gap of the prior the moments are taken cell by cell in Loader's
  form (`_GAP_NATS`).  No row's value depends on the length of its table.
* One pass over the blocks gives the pmf and any posterior moments
  (`pmf_and_moment_tables`).  One exponential per cell, E = w Poi / (Poi(y; c)
  e^top) with top the row's largest cell (found by argmax), is shared by the pmf and every
  moment: log f = log Poi(y; c) + top + log sum E, and moment r is the
  theta^r-weighted row sum of E over the row mass sum E.  Each output keeps
  its own certificate: the pmf sums all atoms only where the w sum fails,
  moment r where the w sum or the w theta^r sum fails.  So each table equals
  the one its own call gives.
* Squared Hellinger distance between pmfs is the *unnormalized* sum
  ``sum_y (sqrt f - sqrt g)^2``, which lives in ``[0, 2]``: twice the
  1/2-normalized convention in ``[0, 1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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
    "log_poisson_pmf",
    "mixture_tail_bound",
    "pmf_on_range",
    "pmf_table",
    "pmf_and_moment_tables",
    "bayes_rule",
    "posterior_moment_table",
    "mmse_exact",
    "hellinger_sq",
]

# Weights below this are dropped at construction time and the rest renormalized.
WEIGHT_FLOOR = 1e-15

_WEIGHT_SUM_TOL = 1e-12
_BLOCK = 256  # rows of a kernel segment, the fewest a block spans
_BLOCK_CELLS = 2 ** 16  # a block spans the most whole segments with at most this many cells
_BAND_NATS = 200.0  # atoms whose bound is this far below a block's best are left out
_OFFSETS = np.arange(_BLOCK) - 0.5 * (_BLOCK - 1)  # y - c on a segment centred at c
# A row is in a gap of the prior where f(y) is this many nats below max_theta Poi(y; theta):
# every atom that counts there is far from the centre c, and the rounding of d a_j + b_j,
# which grows with |theta_j - c|, shows in moments that split between far atoms.
_GAP_NATS = 64.0
_CERT_LOG = 60.0 * math.log(2.0)  # left-out mass must sit 2^-60 below every kept sum
_MAX_ROWS = 10 ** 7  # the most y rows a rule table or a discretization certificate may span


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

# log y! = y log y - y + stirlerr(y) + log sqrt(2 pi y) (Loader 2000).  Below y = 16 the
# table holds stirlerr(y) + log sqrt(2 pi y) = log y! - y log y + y (0 at y = 0, and 1 at
# y = 1, so that log 1! = 0 exactly), made with mpmath 1.3.0 at 40 digits and rounded
# once to a double:  float(mp.loggamma(y + 1) - y * mp.log(y) + y) for y = 1..15.
_LOG_NORM = np.array([
    0.0, 1.0, 1.3068528194400546, 1.4959226032237258, 1.6328763858683832,
    1.7403021806115442, 1.828694396641771, 1.9037903176782212, 1.9690705693065629,
    2.0268062840554952, 2.0785616431350586, 2.12545984509181, 2.168334698205882,
    2.207822206123445, 2.244418568125061, 2.2785183673077407,
])
# Above the table, stirlerr(y) = sum_k B_2k / (2k (2k - 1) y^(2k - 1)), k = 1..5,
# in powers of 1/y^2; the first term left out is below 1.2e-16 at y = 16.
_STIRLING = [1.0 / 1188, -1.0 / 1680, 1.0 / 1260, -1.0 / 360, 1.0 / 12]
# Near y = theta, bd0 = s v^2 (1 + v (1 + v) sum_k v^(2k-2) / (2k+1)), s = y + theta and
# v = (y - theta) / s, k = 1..8; for |v| < 1/10 the first term left out is below 2^-60.
_BD0_SERIES = [1.0 / (2 * k + 1) for k in range(8, 0, -1)]


def _log_norm(y: np.ndarray) -> np.ndarray:
    """stirlerr(y) + log sqrt(2 pi y) for whole y >= 0 (0 at y = 0): log y! less y log y - y."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv2 = 1.0 / (y * y)
        series = _STIRLING[0]
        for coef in _STIRLING[1:]:
            series = series * inv2 + coef
        small = _LOG_NORM[np.minimum(y, _LOG_NORM.size - 1).astype(np.intp)]
        return np.where(y < _LOG_NORM.size, small, series / y + 0.5 * np.log(2.0 * np.pi * y))


def _bd0(y, theta) -> np.ndarray:
    """Loader's deviance term y log(y / theta) + theta - y >= 0, broadcasting.

    Near y = theta (|v| < 1/10, v = (y - theta) / (y + theta)) it is the series
    in v, which keeps its relative accuracy where the direct form cancels;
    elsewhere y log1p((y - theta) / theta) + theta - y, with log y - log theta
    where y / theta overflows, so a tiny theta stays finite.  It is theta at
    y = 0 and inf at theta = 0 < y.  It makes few temporaries, since large
    ones cost page faults.
    """
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diff = np.asarray(y - theta)
        out = np.asarray(diff / theta)  # u = y / theta - 1
        near = (out > -2.0 / 11.0) & (out < 2.0 / 9.0)
        if near.any():
            u = out[near]
            total = np.broadcast_to(theta, near.shape)[near] * (2.0 + u)
            v = u / (2.0 + u)
        np.log1p(out, out=out)
        if theta.min(initial=np.inf) < 1e-290:  # y / theta can overflow
            np.copyto(out, np.log(y) - np.log(theta), where=~np.isfinite(out))
        out *= y
        out -= diff
        if near.any():
            v2 = v * v
            series = _BD0_SERIES[0]
            for coef in _BD0_SERIES[1:]:
                series = series * v2 + coef
            out[near] = total * v2 * (1.0 + v * (1.0 + v) * series)
        if not y.all():
            np.copyto(out, theta, where=y == 0)
    return out


def _whole(value, name: str, least=0) -> int:
    """`value` as an int: a whole number >= `least`, else an input error.

    The one check of a scalar count, size, order, index or seed.  An int, a
    whole float or a numpy integer passes; a bool, a string, NaN and inf do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not (value >= least and value % 1 == 0):  # NaN and inf too
        raise InvalidInputError(f"{name} must be >= {least} and whole (got {value!r})")
    return int(value)


def _whole_counts(y, caller: str) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not (y.min(initial=0.0) >= 0 and y.max(initial=0.0) < np.inf and (np.floor(y) == y).all()):
        raise InvalidInputError(f"{caller} needs whole y >= 0")
    return y


def _log_factorial(y):
    """log y! for whole y >= 0, broadcasting; anything else is an input error.

    stirlerr(y) + log sqrt(2 pi y) + y log y - y, the pieces of `log_poisson_pmf`.
    """
    y = _whole_counts(y, "log y!")
    return (_log_norm(y) + (y * np.log(np.maximum(y, 1.0)) - y))[()]


def log_poisson_pmf(y, theta):
    """log Poi(y; theta) for whole y >= 0, broadcasting; anything else is an input error.

    Loader's (2000) form -stirlerr(y) - log sqrt(2 pi y) - bd0(y, theta): no
    term grows with y log theta, so the result keeps its relative accuracy
    at large y.  y = 0 gives -theta exactly, and theta = 0 a unit mass at
    y = 0 (log pmf 0 there, -inf elsewhere).
    """
    y = _whole_counts(y, "log_poisson_pmf")
    out = _bd0(y, theta)
    out += _log_norm(y)
    return np.negative(out, out=out)[()]


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
        _, top, mass = _softmax_rows(logP + np.log(w))
        return top + np.log(mass)


def _band_exponent(atoms: np.ndarray, log_atoms: np.ndarray, first, last) -> np.ndarray:
    """bd0(y*, theta_j), y* the point of [first, last] nearest theta_j, by its direct form;
    the ends may be arrays, one per atom.

    Poi(y; theta_j) <= exp(-bd0(y*, theta_j)) on every row of the span: log Poi
    is -bd0(y, theta) less stirlerr(y) + log sqrt(2 pi y) >= 0 (0 at y = 0),
    and bd0(., theta) is convex with its minimum at theta.
    """
    t = np.clip(atoms, first, last)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmax(t * (np.log(t) - log_atoms) + (atoms - t), 0.0)  # 0 * NaN at t = theta = 0


def _bands(atoms: np.ndarray, log_atoms: np.ndarray, log_coefs: list, y_hi: int,
           rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, bounds) of the blocks of `rows` rows from y = 0 up to y_hi, in one pass.

    Block i keeps the atoms lo[i]..hi[i]-1 (the band of the module Conventions).
    With M = max log w - (the better score of the atoms either side of the
    block start) + _BAND_NATS, only the atoms in [start - sqrt(2 M start),
    last + M + sqrt(M^2 + 2 M last)] (a nat of slack added for rounding) can
    score near the best, and only they are scored.  bounds[k, i] bounds
    log(count x max) of the left-out atoms' log c_j - bd0(y*, theta_j), c =
    exp(log_coefs[k]): exact inside the window, max log c - M beyond it, so
    never below `_left_out_bound`.
    """
    n, log_w = atoms.size, log_coefs[0]
    starts = np.arange(0, y_hi + 1, rows, dtype=float)
    lasts = starts + (rows - 1)
    above = np.searchsorted(atoms, starts)
    left, right = np.maximum(above - 1, 0), np.minimum(above, n - 1)  # either side of start
    if starts.size == 1:  # one block: a window would cost more than it saves
        reach, wlo, whi = math.inf, np.zeros_like(left), np.full_like(right, n)
    else:
        sides = np.stack([left, right])
        floor = (log_w[sides] - _band_exponent(atoms[sides], log_atoms[sides], starts,
                                               lasts)).max(0)
        reach = log_w.max() - floor + _BAND_NATS  # M; inf where both neighbours score -inf
        m = reach + 1.0  # a nat of slack for rounding
        with np.errstate(invalid="ignore"):  # inf x 0 at start 0 gives NaN, and fmax takes 0
            wlo = np.searchsorted(atoms, np.fmax(starts - np.sqrt(2.0 * m * starts), 0.0))
        whi = np.searchsorted(atoms, lasts + m + np.sqrt(m * (m + 2.0 * lasts)), "right")
        wlo, whi = np.minimum(wlo, left), np.maximum(whi, right + 1)  # so no window is empty
    # the window's pairs, flattened as `_mixture_rows`' centring pairs are
    width = whi - wlo
    firsts = np.cumsum(width) - width
    pairs = np.arange(width.sum()) + np.repeat(wlo - firsts, width)
    block = np.repeat(np.arange(starts.size), width)
    drop = _band_exponent(atoms[pairs], log_atoms[pairs], starts[block], lasts[block])
    score = log_w[pairs] - drop
    near = score >= np.repeat(np.maximum.reduceat(score, firsts), width) - _BAND_NATS
    lo = np.minimum(np.minimum.reduceat(np.where(near, pairs, n), firsts), left)
    hi = np.maximum(np.maximum.reduceat(np.where(near, pairs, -1), firsts),
                    np.minimum(np.searchsorted(atoms, lasts, "right"), n - 1)) + 1
    # count x max, the count's log taken as `_left_out_bound` takes it
    log_count = np.array([math.log(k) if k else -math.inf for k in (lo + n - hi).tolist()])
    out = (pairs < lo[block]) | (pairs >= hi[block])
    beyond = (wlo > 0) | (whi < n)  # some atom lies outside the window
    bounds = np.empty((len(log_coefs), starts.size))
    for k, log_c in enumerate(log_coefs):
        inside = np.maximum.reduceat(np.where(out, log_c[pairs] - drop, -np.inf), firsts)
        bounds[k] = log_count + np.where(beyond, np.fmax(inside, log_c.max() - reach), inside)
    return lo, hi, bounds


def _left_out_bound(atoms: np.ndarray, log_atoms: np.ndarray, log_c: np.ndarray, first: int,
                    last: int, lo: int, hi: int) -> float:
    """log(count x max) of log c_j - bd0(y*, theta_j) over the atoms outside lo..hi-1, y*
    the point of [first, last] nearest theta_j: the exact bound `_bands` bounds above."""
    out = np.r_[0:lo, hi:atoms.size]
    if not out.size:
        return -math.inf
    return math.log(out.size) + (log_c - _band_exponent(atoms, log_atoms, first, last))[out].max()


@lru_cache(maxsize=4)  # tables of one length recur: every fit's pmf on the reference range
def _row_terms(y_hi: int) -> np.ndarray:
    """(shift, peak) for y = 0..y_hi, read-only: the row term log Poi(y; c) of `_cells`,
    c the centre of y's _BLOCK-row segment (-log y! on the first, which is not
    centred), and log Poi(y; y), the largest any Poisson pmf is at y."""
    ys = np.arange(y_hi + 1, dtype=float)
    peak = -_log_norm(ys)
    shift = peak - _bd0(ys, ys // _BLOCK * _BLOCK + 0.5 * (_BLOCK - 1))
    shift[:_BLOCK] = -_log_factorial(ys[:_BLOCK])
    rows = np.array([shift, peak])
    rows.setflags(write=False)
    return rows


def _centring(theta, log_w, c) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the cells d a + b of a segment centred at c, elementwise in theta, log w
    and c: a = log(theta / c), by log1p near c, and b = log w - bd0(c, theta).  The zero
    atom gets a = 0 and b = -inf.  c = 0 stands for the first segment, which is not
    centred: a = log theta and b = log w - theta, with d = y."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # theta - c is exact for theta >= c / 2
        a = np.where(theta < 0.5 * c, np.log(theta) - np.log(c), np.log1p((theta - c) / c))
        a = np.where(c > 0, np.where(theta > 0, a, 0.0), np.log(theta))
        return a, log_w - _bd0(c, theta)  # bd0(0, theta) = theta


def _cells(a: np.ndarray, b: np.ndarray, centres: np.ndarray, rows: int) -> np.ndarray:
    """log(w_j Poi(y; theta_j)) less the row's shift (`_row_terms`) on `rows` rows: whole
    segments of _BLOCK rows (the last may be clipped) with their `centres` and the (a, b)
    of `_centring`.  A segment centred at c gives d a_j + b_j, d = y - c; the first,
    not centred, gives y log theta_j + log w_j - theta_j, exact at row 0."""
    d = _OFFSETS + np.where(centres == 0, 0.5 * (_BLOCK - 1), 0.0)[:, None]
    with np.errstate(invalid="ignore"):  # 0 log 0 at row 0 is NaN, and set to b there
        e = np.multiply(d[:, :, None], a[:, None, :])
        e += b[:, None, :]
    e = e.reshape(-1, a.shape[1])[:rows]
    if centres[0] == 0:
        e[0] = b[0]
    return e


def _softmax_rows(e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, top, mass), E = exp(e - top) formed in place in e: top is each row's largest
    entry (0 on a row of zero mass) and mass the row sum of E.

    The top is read at the argmax, which costs about half a max on rows of a
    few cells.  It is the max bit for bit, but on a tie of -0 and +0
    it may take the other sign; E and mass are the same, and so is top + log
    mass, since log mass >= +0.
    """
    top = e[np.arange(len(e)), e.argmax(axis=1)]
    top[~np.isfinite(top)] = 0.0
    e -= top[:, None]
    np.exp(e, out=e)
    return e, top, e.sum(axis=1)


def _mixture_rows(prior: DiscretePrior, y_hi: int, orders=()) -> tuple[np.ndarray, list]:
    """log f_G(y) and E[theta^r | Y = y] for each r in `orders`, y = 0..y_hi, in one pass.

    Blocks of whole _BLOCK-row segments each keep the band of atoms whose
    bound ``log w_j - bd0(y*, theta_j)`` (`_band_exponent` over the block's
    nominal span) is within _BAND_NATS of the best, plus the nearest atom on
    each side.  `_bands` chooses every band in one pass, scoring only the
    atoms of a window that bd0(y, theta) >= (y - theta)^2 / (2 max(y, theta))
    draws around each block; its left-out bound is exact inside the window
    and looser beyond it.  A certificate that the looser bound fails takes
    the exact bound over all atoms (`_left_out_bound`), so every band and
    decision is a scan's over all atoms, and every table the same bits.  One
    call gives every segment's centring over its block's band.  A block's
    kernel E = w Poi / (Poi(y; c) e^top) (`_cells`) takes one
    exponential per cell, shared by every output: log f is top + shift + log
    of the row mass sum E, and moment r the theta^r-weighted row sum of E over
    that mass.  Each output keeps its own certificate of the module
    Conventions: log f needs the w sum, moment r the w sum and the w theta^r
    sum.  An output whose sums fail takes the block over all atoms, with the
    band freed first, so each table equals the one a pass for it alone would
    give.  No row's value depends on y_hi.
    """
    y_hi = _whole(y_hi, "y_hi")
    if not all(r >= 0 for r in orders):  # NaN too
        raise InvalidInputError("moment order must be nonnegative")
    atoms, w = prior.atoms, prior.weights
    with np.errstate(divide="ignore"):
        log_w, log_atoms = np.log(w), np.log(atoms)
        log_coefs = [log_w] + [np.log(w * atoms ** r) for r in orders]  # log f, then each moment
    ys = np.arange(y_hi + 1, dtype=float)
    centres = ys[::_BLOCK] + 0.5 * (_BLOCK - 1)
    centres[0] = 0.0  # the first segment is not centred
    row_terms = _row_terms(y_hi)
    segments = max(1, _BLOCK_CELLS // (_BLOCK * atoms.size))
    rows = segments * _BLOCK

    los, his, bounds = _bands(atoms, log_atoms, log_coefs, y_hi, rows)
    # every segment's centring over its block's band, in one call
    lo_seg = np.repeat(los, segments)[:centres.size]
    width = np.repeat(his - los, segments)[:centres.size]
    ends = np.cumsum(width)  # segment k's pairs are ends[k] - width[k] .. ends[k] - 1
    pairs = np.arange(ends[-1]) + np.repeat(lo_seg - (ends - width), width)  # their atoms
    a_all, b_all = _centring(atoms[pairs], log_w[pairs], np.repeat(centres, width))

    log_f = np.empty(y_hi + 1)
    moments = [np.empty(y_hi + 1) for _ in orders]
    for i in range(los.size):
        start, stop = i * rows, min((i + 1) * rows, y_hi + 1)
        first, last = i * segments, min((i + 1) * segments, centres.size)
        lo, hi = int(los[i]), int(his[i])

        def certified(k, log_kept):  # left-out mass <= count x max: the window's bound, else exact
            least = log_kept.min() - _CERT_LOG
            return not (bounds[k, i] > least) or not (_left_out_bound(
                atoms, log_atoms, log_coefs[k], start, start + rows - 1, lo, hi) > least)

        redo = [True] * (1 + len(orders))  # log f, then each moment: still to (re)compute
        shift, peak = row_terms[:, start:stop]
        segment_starts = np.arange(0, stop - start, _BLOCK)
        for band in (True, False):
            if band:
                cols, span = slice(lo, hi), slice(ends[first] - width[first], ends[last - 1])
                a, b = (x[span].reshape(last - first, hi - lo) for x in (a_all, b_all))
            else:
                cols = slice(None)
                a, b = _centring(atoms, log_w, centres[first:last, None])
            e, top, mass = _softmax_rows(_cells(a, b, centres[first:last], stop - start))
            # rows of zero mass give log f = -inf and NaN moments
            with np.errstate(divide="ignore", invalid="ignore"):
                log_mass = shift + top + np.log(mass)
                if redo[0]:
                    log_f[start:stop] = log_mass
                    redo[0] = band and not certified(0, log_mass)
                if any(redo[1:]):
                    # the moments of a segment with a row in a gap of the prior come from
                    # log w_j + log Poi(y; theta_j) cell by cell (see _GAP_NATS)
                    gaps = np.logical_or.reduceat(log_mass < peak - _GAP_NATS, segment_starts)
                    exact = []
                    for s in start + segment_starts[gaps]:
                        cells = log_poisson_pmf(ys[s:s + _BLOCK, None], atoms[cols]) + log_w[cols]
                        exact.append((slice(s - start, s - start + _BLOCK),) + _softmax_rows(cells))
                for k, r in enumerate(orders, 1):
                    if redo[k]:
                        coef = atoms[cols] ** r
                        num = e @ coef
                        moment, log_kept = num / mass, shift + top + np.log(num)
                        for seg, e_seg, top_seg, mass_seg in exact:
                            num = e_seg @ coef
                            moment[seg], log_kept[seg] = num / mass_seg, top_seg + np.log(num)
                        moments[k - 1][start:stop] = moment
                        redo[k] = band and (redo[0] or not certified(k, log_kept))
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
        y_max = max(y_max, _whole(min_len, "min_len") - 1)
    log_f, moments = _mixture_rows(prior, y_max, orders)
    return _closed_pmf(prior, log_f, tail_tol), moments


def _closed_pmf(prior: DiscretePrior, log_f: np.ndarray, tail_tol: float) -> MixturePmf:
    """The `MixturePmf` of the rows log f_G(y), y = 0..y_max, of `prior`.

    The analytic bound at y_max certifies the tolerance; 1 - sum is the
    sharper (essentially exact) value of the same tail, so the smaller of the
    two is stored.  Both keep head + tail within 1e-10 of one.
    """
    values = np.exp(np.minimum(log_f, 0.0))  # log f(0) rounds above 0 when all atoms are near 0
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
    y = _whole(y, "y")
    if y >= pmf.y_max:
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
