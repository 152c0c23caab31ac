"""Nonparametric maximum-likelihood mixing distribution for Poisson counts.

Maximizes ``sum_y N(y) log f_G(y)`` over all mixing distributions G on
[0, inf) by the constrained Newton method of Wang (2007), which adds every
new support point in one step.  G is optimal iff

    D(theta) = sum_y N(y) Poi(y; theta) / f_G(y)

satisfies D <= n for every theta >= 0, with equality on the support of G
(Lindsay 1983); that support has at most one atom per distinct count, all in
[y_min, y_max], so a cold fit starts from the counts' own distribution.
``kkt_gap = max(D/n - 1, 0)`` is taken over a sqrt(theta) scan and the local
maxima of D refined in theta, in cold and warm starts alike (:func:`fit_npmle`).

The solver's arrays are small, so per-call overhead is its cost: a fit and the
helpers it calls run in one error-state scope (divide, overflow and invalid
ignored), and explicit finiteness checks guard them: the start's likelihood,
``_RATIO_FLOOR``, the ascent tests and D >= n (1 - tol) on the atoms.
Each weight step's NNLS solve is scipy's compiled Lawson-Hanson routine, loaded
from its own file without ``scipy.optimize``; a scipy build that lacks that file
falls back to ``scipy.optimize.nnls`` (`load_solver`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .mixtures import WEIGHT_FLOOR, DiscretePrior, _log_factorial, _log_mix, _whole

__all__ = [
    "CountHistogram",
    "NpmleFit",
    "load_count_data",
    "grid_spec",
    "log_likelihood",
    "directional_derivative",
    "kkt_gap_on_grid",
    "fit_npmle",
    "load_solver",
]

_SUM_ROW_WEIGHT = 1e3  # NNLS weight of the sum-to-one row, times sqrt(n)
_RATIO_FLOOR = math.exp(-600.0)  # NNLS columns whose largest Poi/f is lower get weight 0
_NEWTON_STEPS = 40  # bisection alone shrinks a bracket by 2^-40
_GRID_DENSITY = 4.0  # scan points per unit of sqrt(theta)
_SUPPORT_SLACK = 16  # atoms past the distinct-y count, which bounds an NPMLE's support
_NNLS_MODULE = "scipy.optimize._slsqplib"  # the compiled routine behind scipy.optimize.nnls


def _compiled_nnls():
    """scipy's compiled ``nnls(A, b, maxiter) -> (x, rnorm, info)``, loaded from its
    file so that no ``__init__.py`` of scipy (scipy.optimize's loads scipy.linalg)
    runs: the package is found, not imported."""
    lib = sys.modules.get(_NNLS_MODULE)
    if lib is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None or not scipy.submodule_search_locations:
            raise ImportError("scipy is not installed")
        stem = os.path.join(scipy.submodule_search_locations[0], "optimize", "_slsqplib")
        paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(stem + suffix)]
        if not paths:
            raise ImportError(f"scipy has no compiled {_NNLS_MODULE}")
        spec = importlib.util.spec_from_file_location(_NNLS_MODULE, paths[0])
        lib = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(lib)
    return lib.nnls


def load_solver() -> None:
    """Bind `nnls`, so that only NPMLE fits load it, and they load no ``scipy.optimize``.

    It wraps scipy's compiled routine as ``scipy.optimize.nnls`` does (finiteness
    check, 3 iterations per column, RuntimeError at that cap), so every solve is
    the same; a scipy build without that routine calls ``scipy.optimize.nnls``.
    On either route an empty A gives x = 0 and ||b|| without calling scipy,
    whose routine aborts the process with a double free on a matrix with no
    columns and returns uninitialized memory on one with no rows.
    """
    global nnls
    try:
        routine = _compiled_nnls()
    except (ImportError, AttributeError):
        from scipy.optimize import nnls as scipy_nnls

        def nnls(A, b):
            """``scipy.optimize.nnls``; returns (x, ||Ax - b||)."""
            A = np.asarray(A)
            if A.ndim == 2 and A.size == 0:
                return np.zeros(A.shape[1]), float(np.linalg.norm(b))
            return scipy_nnls(A, b)
        return

    def nnls(A, b):
        """argmin ||Ax - b|| over x >= 0 by Lawson-Hanson; returns (x, ||Ax - b||)."""
        A = np.asarray_chkfinite(A, dtype=np.float64, order="C")
        b = np.asarray_chkfinite(b, dtype=np.float64)
        if A.size == 0:
            return np.zeros(A.shape[1]), float(np.linalg.norm(b))
        x, rnorm, info = routine(A, b, 3 * A.shape[1])
        if info == 3:
            raise RuntimeError("Maximum number of iterations reached.")
        return x, rnorm


def nnls(A, b):
    """scipy's NNLS, loaded by this first call (see `load_solver`)."""
    load_solver()
    return nnls(A, b)


# ---------------------------------------------------------------------------
# data container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CountHistogram:
    """Histogram N(y) of nonnegative integer observations; n = sum N(y)."""

    ys: np.ndarray
    cnts: np.ndarray

    def __post_init__(self) -> None:
        ys = np.asarray(self.ys)
        cnts = np.asarray(self.cnts)
        if ys.ndim != 1 or cnts.shape != ys.shape or ys.size == 0:
            raise InvalidInputError("histogram needs matching nonempty 1-d arrays")
        _check_observed_kind(ys)
        if ys.dtype.kind == "f" and not (np.isfinite(ys) & (ys == np.floor(ys))).all():
            raise InvalidInputError("observed values must be whole numbers")  # 2.5 is no count
        if ys.dtype.kind != "i" and not ys.max() < 2 ** 63:  # int64 holds every count below
            raise InvalidInputError("observed values must be whole numbers below 2^63")
        ys = ys.astype(np.int64)
        if np.any(ys < 0):
            raise InvalidInputError("observed values must be nonnegative")
        if np.any(np.diff(ys) <= 0):
            raise InvalidInputError("ys must be strictly increasing (use from_samples)")
        if not np.issubdtype(cnts.dtype, np.integer) or np.any(cnts < 1) \
                or not cnts.max() < 2 ** 63:
            raise InvalidInputError("counts must be positive integers below 2^63")
        cnts = cnts.astype(np.int64)
        # n = sum N(y) is an int64 too; a float sum below 2^62 cannot hide a total of 2^63
        if cnts.sum(dtype=float) >= 2.0 ** 62 and sum(cnts.tolist()) >= 2 ** 63:
            raise InvalidInputError("counts must total below 2^63")
        ys.setflags(write=False)
        cnts.setflags(write=False)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "cnts", cnts)

    @property
    def n(self) -> int:
        return int(self.cnts.sum())

    @property
    def distinct(self) -> int:
        return int(self.ys.size)

    @property
    def y_max(self) -> int:
        return int(self.ys[-1])

    @property
    def mean(self) -> float:
        if self.y_max * self.n < 2 ** 63:  # no product or sum leaves int64
            return float((self.ys * self.cnts).sum() / self.n)
        return sum(y * c for y, c in zip(self.ys.tolist(), self.cnts.tolist())) / self.n

    def count_of(self, y: int) -> int:
        i = np.searchsorted(self.ys, y)
        if i < self.ys.size and self.ys[i] == y:
            return int(self.cnts[i])
        return 0

    @classmethod
    def from_samples(cls, samples) -> "CountHistogram":
        samples = np.asarray(samples)
        if samples.size == 0:
            raise InvalidInputError("empty sample")
        _check_observed_kind(samples)  # before np.unique, which may not sort them
        ys, cnts = np.unique(samples, return_counts=True)
        return cls(ys, cnts)

    @classmethod
    def from_counts(cls, counts) -> "CountHistogram":
        """Histogram from a dict y -> N(y): keys are integers or integer
        strings, counts whole numbers (booleans and strings are refused)."""
        if not isinstance(counts, dict) or not counts:
            raise InvalidInputError("counts must be a nonempty mapping of y to N(y)")
        pairs = []
        for y, cnt in counts.items():
            if isinstance(y, str) and y.strip().lstrip("-").isdecimal():
                y = int(y)  # a JSON key; any other string is refused below
            pairs.append((_whole(y, "observed value"), _whole(cnt, "count", 1)))
        ys, cnts = zip(*sorted(pairs))
        # numpy's own integer type: one at or past 2^63 makes a uint64 or object array,
        # which the constructor refuses
        return cls(np.array(ys), np.array(cnts))

    def remove_one(self, y: int) -> "CountHistogram":
        """Histogram with one observation at y removed (leave-one-out)."""
        i = np.searchsorted(self.ys, y)
        if i >= self.ys.size or self.ys[i] != y:
            raise InvalidInputError(f"no observation at y = {y} to remove")
        if self.n == 1:
            raise InvalidInputError("cannot empty the histogram")
        cnts = self.cnts.copy()
        cnts[i] -= 1
        keep = cnts > 0
        return CountHistogram(self.ys[keep], cnts[keep])


def _check_observed_kind(values: np.ndarray) -> None:
    """Refuse observed values that are not numbers: a bool, string or object
    array (numpy makes one of ints at or beyond 2^64) is no array of counts."""
    if values.dtype.kind not in "iuf":
        raise InvalidInputError("observed values must be whole numbers below 2^63")


def load_count_data(text: str) -> CountHistogram:
    """Parse observation data: newline-separated integers, or a JSON object
    ``{"counts": {"y": N(y), ...}}``."""
    stripped = text.strip()
    if not stripped:
        raise InvalidInputError("empty data")
    if stripped.startswith("{"):
        import json

        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"bad JSON data: {exc}") from exc
        if "counts" not in obj:
            raise InvalidInputError('JSON data must contain a "counts" object')
        return CountHistogram.from_counts(obj["counts"])
    try:
        values = [int(tok) for tok in stripped.split()]
    except ValueError as exc:
        raise InvalidInputError(f"non-integer observation: {exc}") from exc
    return CountHistogram.from_samples(values)


# ---------------------------------------------------------------------------
# candidate grid
# ---------------------------------------------------------------------------

def grid_spec(data: CountHistogram) -> np.ndarray:
    """Candidate atom grid: uniform in sqrt(theta) over the data range.

    Covers [max(1e-3, y_min/2), max(1.5 y_max, 1)] with _GRID_DENSITY points
    per unit of sqrt(theta), augmented with the exact observed values and the
    sample mean (so pure point-mass data can be fit with zero atom-location
    error); the observed values bring the point 0 whenever N(0) > 0.  Sorted,
    duplicates dropped.
    """
    s_lo = math.sqrt(max(1e-3, 0.5 * float(data.ys[0])))
    s_hi = math.sqrt(max(1.5 * float(data.ys[-1]), 1.0))
    k = max(1, int(math.ceil((s_hi - s_lo) * _GRID_DENSITY)))
    grid = (s_lo + (1.0 / _GRID_DENSITY) * np.arange(k + 1)) ** 2
    return _unique_first(np.concatenate([grid, data.ys, [data.mean]]))[0]


# ---------------------------------------------------------------------------
# likelihood pieces
# ---------------------------------------------------------------------------

def _log_mixture_at(prior: DiscretePrior, data: CountHistogram) -> np.ndarray:
    ys = data.ys.astype(float)
    return _log_mix(_log_kernel(ys, _log_factorial(ys), prior.atoms), prior.weights)


def log_likelihood(prior: DiscretePrior, data: CountHistogram) -> float:
    """sum_y N(y) log f_G(y); -inf when the prior gives an observed y zero mass."""
    return float(data.cnts @ _log_mixture_at(prior, data))


def directional_derivative(prior: DiscretePrior, data: CountHistogram, thetas) -> np.ndarray:
    """D(theta) = sum_y N(y) Poi(y; theta) / f_G(y) for each candidate theta."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    ys = data.ys.astype(float)
    lgam = _log_factorial(ys)
    logf = _log_mix(_log_kernel(ys, lgam, prior.atoms), prior.weights)
    logp = _log_kernel(ys, lgam, thetas)
    with np.errstate(under="ignore"):
        ratio = np.exp(logp - logf[:, None])
    return data.cnts @ ratio


def kkt_gap_on_grid(prior: DiscretePrior, data: CountHistogram, grid) -> float:
    """max(D(theta)/n - 1, 0) over an arbitrary validation grid."""
    d = directional_derivative(prior, data, grid)
    return max(float(d.max()) / data.n - 1.0, 0.0)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NpmleFit:
    """Result of an NPMLE solve, with its optimality certificate."""

    prior: DiscretePrior
    log_likelihood: float
    kkt_gap: float
    iterations: int
    converged: bool
    tol: float
    grid: np.ndarray
    ll_trace: tuple

    def __post_init__(self) -> None:
        if not (self.kkt_gap >= 0):
            raise InvalidInputError("kkt_gap must be >= 0")

    def to_dict(self) -> dict:
        return {
            "prior": self.prior.to_dict(),
            "log_likelihood": self.log_likelihood,
            "kkt_gap": self.kkt_gap,
            "iterations": self.iterations,
            "converged": self.converged,
            "tol": self.tol,
            "grid_size": int(self.grid.size),
        }


def _unique_first(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_index=True)`` for NaN-free 1-d input: one stable
    sort, and each run of equal values keeps its first occurrence."""
    order = values.argsort(kind="mergesort")
    values = values[order]
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first], order[first]


def _line_search(logf: np.ndarray, logp: np.ndarray, cnts: np.ndarray) -> float:
    # Exact line search for a mix (1-a) f + a p: maximize the concave
    # phi(a) = sum N(y) log((1-a) f + a p) over [0, 1 - 1e-9].  lo < a* < hi:
    # -(1-a) phi' and a phi' are concave and vanish at a*, so Newton's step on
    # the first from lo, and on the second from hi, cannot cross a*; nor can
    # EM's, a (1-a) phi'/n.  Each end takes the longer step: EM's crosses the
    # pole of phi' at a = 1 (rows where p << f), where Newton's only doubles 1-a.
    fp = np.exp(np.column_stack([logf, logp]) - np.maximum(logf, logp)[:, None])  # rows peak at 1
    diff = fp[:, 1] - fp[:, 0]
    gain, n, lo, hi = cnts * diff, float(cnts.sum()), 0.0, 1.0 - 1e-9
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            r = 1.0 / (fp @ np.array([[1.0 - lo, 1.0 - hi], [lo, hi]]))
            (g_lo, g_hi), (c_lo, c_hi) = (gain @ r).tolist(), ((gain * diff) @ (r * r)).tolist()
            if not (g_lo > 0.0 and g_hi < 0.0):  # an end reached a* (first pass: a = 0 or a_hi)
                return lo if g_lo <= 0.0 else hi
            step_lo = 0.0 if g_lo == math.inf else max(  # f = 0 on a row at a = 0
                lo * (1.0 - lo) * g_lo / n, (1.0 - lo) * g_lo / (g_lo + (1.0 - lo) * c_lo))
            step_hi = max(hi * (1.0 - hi) * -g_hi / n, hi * g_hi / (g_hi - hi * c_hi))
            lo, hi = lo + step_lo, hi - step_hi
            done_lo, done_hi = step_lo < 1e-9 * min(lo, 1.0 - lo), step_hi < 1e-9 * min(hi, 1.0 - hi)
            if done_lo or done_hi:  # Newton's step converges quadratically: a* is met
                return hi if done_hi else lo
    return hi


def _solve_weights(
    logP: np.ndarray, w: np.ndarray, cnts: np.ndarray, n: float, tol: float, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Weights on a fixed support, solved to optimality by constrained Newton steps.

    A step solves the quadratic model of sum N(y) log f(y) by NNLS (rows
    sqrt(N(y)) Poi/f scaled per column, target 2 sqrt(N(y)), a heavy
    sum-to-one row) and backtracks towards it until the Armijo test on the
    exact gain passes.  Columns with no representable Poi/f get weight 0;
    atoms below WEIGHT_FLOOR leave at once (D at a zeroed one can be
    astronomical).  Stops when n (1 - tol) <= D <= n (1 + tol) on the support,
    when no step ascends, when a step leaves the recomputed log-likelihood no
    higher (its gain is below rounding; the step is dropped), or after
    `budget` accepted steps.  Returns (kept atom indices, w, log f, log D,
    steps), all of one state.
    """
    sqrt_c = np.sqrt(cnts)
    sum_row = _SUM_ROW_WEIGHT * math.sqrt(n)
    rhs = np.concatenate([2.0 * sqrt_c, [sum_row]])
    log_lo, log_hi = math.log(n) + math.log1p(-tol), math.log(n) + math.log1p(tol)
    kept = (w >= WEIGHT_FLOOR).nonzero()[0]  # the weights a DiscretePrior keeps
    logP, w = logP[:, kept], w[kept]
    logf = _log_mix(logP, w)
    ll = float(cnts @ logf)
    steps = 0
    while True:
        S = np.exp(logP - logf[:, None])  # Poi/f <= 1/w <= 1/WEIGHT_FLOOR
        logD = np.log(cnts @ S)
        if steps >= budget or ((logD >= log_lo) & (logD <= log_hi)).all():
            break
        top = S.max(axis=0)
        live = top >= _RATIO_FLOOR
        scale = 1.0 / top[live]
        try:
            v = nnls(np.concatenate([sqrt_c[:, None] * S[:, live] * scale,
                                     (sum_row * scale)[None, :]]), rhs)[0]
        except RuntimeError:  # NNLS iteration cap
            break
        target = np.zeros_like(w)
        target[live] = v * scale
        d = target / target.sum() - w
        u = S @ d  # f(w + t d) / f(w) = 1 + t u
        u[S @ target == 0.0] = -1.0  # exactly, where the target leaves no mass
        slope = float(cnts @ u)  # directional derivative of the log-likelihood
        t = 1.0
        while slope > 0.0 and t > 1e-10 and not cnts @ np.log1p(t * u) >= t * slope / 3.0:
            t *= 0.5
        if not (slope > 0.0 and t > 1e-10):
            break
        w_new = np.maximum(w + t * d, 0.0)
        keep = w_new >= WEIGHT_FLOOR
        w_new = w_new[keep] / w_new[keep].sum()
        logf_new = _log_mix(logP[:, keep], w_new)
        ll_new = float(cnts @ logf_new)
        if not ll_new > ll:
            break
        steps += 1
        w, logP, kept, logf, ll = w_new, logP[:, keep], kept[keep], logf_new, ll_new
    return kept, w, logf, logD, steps


def _log_kernel(ys: np.ndarray, lgam: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """log Poi(y; theta) on (distinct y) x theta as y log theta - theta - log y!, the
    form of every NPMLE quantity here (`_refine_peaks` too), with lgam = log y!.

    Its rounding, about 2^-53 of y log theta, is far below any KKT tolerance.
    With `log_poisson_pmf` (Loader's form) here instead, the `sweep-p2` bench
    read sweep_s 13% higher, in 10 of 10 alternating pairs (`BENCH_28.json`).
    The zero atom is a unit mass at y = 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ys[:, None] * np.log(theta) - theta - lgam[:, None]
    if not theta.all():
        out[:, theta == 0] = np.where(ys == 0, 0.0, -np.inf)[:, None]
    return out


def _refine_peaks(
    theta: np.ndarray, scan: np.ndarray, ys: np.ndarray, lgam: np.ndarray, log_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Maxima of D near theta refined together by safeguarded Newton steps in s = sqrt(theta).

    Each is bracketed by the neighbours of its nearest scan point (an atom
    may sit a rounding error beside one while the peak has moved); the
    bracket keeps dD/ds > 0 at its left end, and a step that is not concave
    or leaves it bisects.  D, D', D'' come from one (distinct y x peaks)
    block of N(y) Poi / f, log_r = log N(y) - log f(y).  Returns (theta, log D).
    """
    j = scan.searchsorted(theta).clip(1, scan.size - 1)
    k = np.where(theta - scan[j - 1] < scan[j] - theta, j - 1, j)
    lo, hi = scan[np.maximum(k - 1, 0)], scan[np.minimum(k + 1, scan.size - 1)]
    x, lo, hi = np.sqrt(theta), np.sqrt(np.minimum(lo, theta)), np.sqrt(np.maximum(hi, theta))
    y2, base = 2.0 * ys[:, None], (log_r - lgam)[:, None]
    for _ in range(_NEWTON_STEPS):
        s = np.maximum(x, 1e-100)  # D is even in s; its slope at 0 is read just above
        logu = base + y2 * np.log(s) - s * s
        top = logu.max(axis=0)
        u = np.exp(logu - top)
        g = y2 / s - 2.0 * s  # d log u / ds
        d1 = (u * g).sum(axis=0)
        d2 = (u * (g * g - y2 / (s * s) - 2.0)).sum(axis=0)
        mass, found = u.sum(axis=0), theta
        logD = top + np.log(mass)
        rising = d1 > 0.0
        lo, hi = np.where(rising, x, lo), np.where(rising, hi, x)
        newton = x - d1 / d2
        ok = (d2 < 0.0) & (newton >= lo) & (newton <= hi)
        x_new = np.where(ok, newton, 0.5 * (lo + hi))
        # done where s moves by under 1e-13, or Newton's step raises D by under 5e-15 of it
        if ((np.abs(x_new - x) <= 1e-13 * (1.0 + x)) | (ok & (d1 * d1 <= -1e-14 * d2 * mass))).all():
            break
        x, theta = x_new, x_new * x_new
    return found, logD


def fit_npmle(
    data,
    tol: float = 1e-6,
    max_iter: int = 10_000,
    init_prior: DiscretePrior | None = None,
) -> NpmleFit:
    """Fit the NPMLE mixing distribution by the constrained Newton method.

    Each outer iteration (one ``ll_trace`` entry) 1. solves the weights on
    the support to optimality, 2. prunes zero weights, 3. computes log D on
    the scan ``grid_spec(data)`` and at the atoms, 4. refines its
    local maxima and the points where D' turns down by Newton steps in
    sqrt(theta) within their scan neighbours, 5. stops, converged, when
    D <= n (1 + tol) there and D >= n (1 - tol) on every atom, and 6. else
    mixes all peaks with D > n in at once, (1 - a) G + a sum_j c_j delta_theta_j
    with c_j proportional to D_j/n - 1, by one exact line search in a.

    data : CountHistogram or array of integer samples.
    tol : KKT tolerance of the certificate above.
    max_iter : cap on the weight-solve steps, reported as ``iterations``.
    init_prior : optional warm start, ignored if it gives an observed count
        zero mass; the cold start puts (N(y) + 1) / (n + distinct) on each y.

    The fit's ``grid`` is the scan plus the fitted atoms.  The loop also ends,
    unconverged, when an iteration adds no atom and does not raise the
    likelihood, at the ``max_iter`` cap, or when the support outgrows the
    distinct counts by ``_SUPPORT_SLACK`` atoms.  An uncertified fit is
    returned as it stands, with ``converged=False`` and its ``kkt_gap``:
    whether that is an error is the caller's decision.
    """
    if not isinstance(data, CountHistogram):
        data = CountHistogram.from_samples(data)
    if not (0 < tol < 1):
        raise InvalidInputError("tol must lie in (0, 1)")
    max_iter = _whole(max_iter, "max_iter", 1)
    scan = grid_spec(data)

    start = init_prior
    if start is None or not np.isfinite(log_likelihood(start, data)):
        start = DiscretePrior(data.ys, (data.cnts + 1.0) / (data.n + data.distinct))
    atoms, w = start.atoms, start.weights

    ys, cnts = data.ys.astype(float), data.cnts.astype(float)
    n, log_n = float(data.n), math.log(data.n)
    lgam = _log_factorial(ys)
    logP = _log_kernel(ys, lgam, atoms)
    # D on the scan is one product with the row-scaled kernel
    logP_scan = _log_kernel(ys, lgam, scan)
    row_top = logP_scan.max(axis=1)
    P_scan = np.exp(logP_scan - row_top[:, None])
    log_c = np.log(cnts)
    iterations = 0
    ll_trace: list[float] = []
    inserted = True
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            kept, w, logf, logD_atoms, steps = _solve_weights(
                logP, w, cnts, n, tol, max_iter - iterations)
            iterations += steps
            atoms, logP = atoms[kept], logP[:, kept]
            ll_trace.append(float(cnts @ logf))

            log_r = log_c - logf
            b = log_r + row_top
            v = np.exp(b - b.max())
            mass = v @ P_scan
            # the atoms join the scan: two peaks of D can share a scan cell
            pts, first = _unique_first(np.concatenate([scan, atoms]))
            logD_scan = b.max() + np.log(mass)
            logD_pts = np.concatenate([logD_scan, logD_atoms])[first]
            edged = np.concatenate([[-np.inf], logD_pts, [-np.inf]])
            rise = edged[1:] - edged[:-1]
            idx = ((rise[:-1] >= 0.0) & (rise[1:] < 0.0)).nonzero()[0]
            # refinement starts at these maxima and where D' turns from + to - on the scan
            rising = (v * ys) @ P_scan > scan * mass
            turn = (rising[:-1] & ~rising[1:]).nonzero()[0]
            starts = _unique_first(np.concatenate([pts[idx], scan[turn]]))[0]
            peaks, logD_peaks = _refine_peaks(starts, scan, ys, lgam, log_r)
            # starts that reach the same maximum give one atom
            first = _unique_first(np.round(np.sqrt(peaks), 9))[1]
            peaks, logD_peaks = peaks[first], logD_peaks[first]
            log_top = max(float(logD_pts.max()), float(logD_peaks.max(initial=-np.inf)))
            kkt_gap = max(math.expm1(min(log_top - log_n, 709.0)), 0.0)
            converged = kkt_gap <= tol and bool((logD_atoms >= log_n + math.log1p(-tol)).all())
            stalled = not inserted and (steps == 0 or ll_trace[-1] <= ll_trace[-2])  # no progress
            crowded = atoms.size > data.distinct + _SUPPORT_SLACK
            if converged or stalled or crowded or max(iterations, len(ll_trace)) >= max_iter:
                break
            # every peak with D > n enters at once, with c_j proportional to
            # D_j/n - 1 > 0, formed in logs: D/n can overflow at a far count
            up = logD_peaks > log_n
            inserted = bool(up.any())
            if inserted:
                excess = logD_peaks[up] - log_n
                c = excess + np.log(-np.expm1(-excess))
                c = np.exp(c - c.max())  # softmax
                c = c / c.sum()
                logp_new = _log_kernel(ys, lgam, peaks[up])
                a = _line_search(logf, _log_mix(logp_new, c), cnts)
                inserted = bool((a * c >= WEIGHT_FLOOR).any())  # a new atom survives the prune
                atoms = np.concatenate([atoms, peaks[up]])
                w = np.concatenate([(1.0 - a) * w, a * c])
                logP = np.concatenate([logP, logp_new], axis=1)  # _solve_weights recomputes log f

    prior = DiscretePrior(atoms, w)
    return NpmleFit(prior=prior, log_likelihood=log_likelihood(prior, data), kkt_gap=kkt_gap,
                    iterations=iterations, converged=converged, tol=tol,
                    grid=_unique_first(np.concatenate([scan, prior.atoms]))[0],
                    ll_trace=tuple(ll_trace))
