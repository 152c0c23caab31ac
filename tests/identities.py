"""Devices of the regret analysis that the tests check numerically.

Finite differences, Poisson-orthogonal (Charlier) polynomials, the weighted
difference statistics A_k, the closed-form Poisson divergences and the
generating-function identity.  No experiment reads them; the tests recompute
each two independent ways.

Sequences are indexed from 0 and zero-extended outside their stored range, so
the forward and backward difference operators are exact adjoints of one
another: ``sum_y f(y) (Dg)(y) = - sum_y g(y) (Bf)(y)`` where ``D`` is the
forward difference and ``B`` the backward one (the boundary term vanishes
because f(-1) = 0).  That summation-by-parts identity, and the orthonormal
polynomial family it generates under a Poisson weight, are the backbone of
the weighted difference statistics ``A_k`` computed here: `ak_sequence`
returns the array of A_k^2, indexed by k.
"""

import math

import numpy as np

from poisson_eb.errors import InvalidInputError
from poisson_eb.mixtures import DiscretePrior, _whole, mixture_tail_bound, pmf_on_range, pmf_table


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def finite_diff(f, order: int, direction: str, y: int) -> float:
    """k-th forward or backward difference of a zero-extended sequence at y.

    ``forward``:  D^k f(y) = D^{k-1} f(y+1) - D^{k-1} f(y)
    ``backward``: B^k f(y) = B^{k-1} f(y) - B^{k-1} f(y-1)

    read off :func:`diff_table` on the window of k+1 values the result
    depends on, which makes identities such as ``B f(y) == D f(y-1)`` hold
    to the last bit.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise InvalidInputError("f must be a 1-d sequence")
    # y has no lower bound: y < 0 reads the zero extension
    order, y = _whole(order, "order"), _whole(y, "y", -math.inf)
    start = y if direction == "forward" else y - order
    idx = np.arange(start, start + order + 1)
    padded = np.append(f, 0.0)  # index f.size reads the zero extension, even when f is empty
    window = padded[np.where((idx >= 0) & (idx < f.size), idx, f.size)]
    return float(diff_table(window, order, direction)[0 if direction == "forward" else -1])


def diff_table(values, order: int, direction: str = "forward") -> np.ndarray:
    """All k-th differences of a zero-extended sequence, aligned with it.

    Entry y of the result is D^k f(y) (forward) or B^k f(y) (backward),
    the k-th order ``np.diff`` of the zero-padded sequence.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise InvalidInputError("values must be 1-d")
    order = _whole(order, "order")
    if direction == "forward":
        arr = np.concatenate([values, np.zeros(order)])
    elif direction == "backward":
        arr = np.concatenate([np.zeros(order), values])
    else:
        raise InvalidInputError("direction must be 'forward' or 'backward'")
    return np.diff(arr, order)


def summation_by_parts(f, g) -> tuple[float, float]:
    """Both sides of sum f * (Dg) = - sum g * (Bf) for zero-extended arrays.

    Returns ``(lhs, rhs)``; they agree exactly up to float roundoff.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    n = max(f.size, g.size) + 1
    fp = np.concatenate([f, np.zeros(n - f.size)])
    gp = np.concatenate([g, np.zeros(n - g.size)])
    lhs = float(np.sum(fp * diff_table(gp, 1, "forward")))
    rhs = -float(np.sum(gp * diff_table(fp, 1, "backward")))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Charlier polynomials (orthonormal under Poi(theta))
# ---------------------------------------------------------------------------

def charlier(k: int, y, theta: float):
    """Orthonormal Charlier polynomial p_k(y; theta).

    Defined so that E[p_j(Y) p_k(Y)] = delta_{jk} when Y ~ Poi(theta), with
    p_0 = 1 and p_1(y) = (theta - y) / sqrt(theta).  Evaluated by the
    three-term recurrence

        sqrt(j+1) p_{j+1}(y) = ((j + theta - y)/sqrt(theta)) p_j(y)
                               - sqrt(j) p_{j-1}(y),

    which is numerically stable for the orders used here (k <= ~30).
    Accepts scalar or array y.
    """
    k = _whole(k, "polynomial order")
    if not (theta > 0):
        raise InvalidInputError("theta must be positive")
    y = np.asarray(y, dtype=float)
    sqrt_t = math.sqrt(theta)
    p_prev = np.zeros_like(y)
    p = np.ones_like(y)
    for j in range(k):
        p_next = (((j + theta - y) / sqrt_t) * p - math.sqrt(j) * p_prev) / math.sqrt(j + 1)
        p_prev, p = p, p_next
    return p if p.ndim else float(p)


def charlier_explicit(k: int, y, theta: float) -> np.ndarray:
    """`charlier` without the recurrence: the hypergeometric expansion
    sum_j (-1)^j C(k,j) y^(j)_falling theta^(-j), scaled by sqrt(theta^k / k!)."""
    y = np.asarray(y, dtype=float)
    total = np.zeros_like(y)
    falling = np.ones_like(y)
    for j in range(k + 1):
        total += math.comb(k, j) * (-1.0) ** j * theta ** (-j) * falling
        falling = falling * (y - j)
    return total * math.sqrt(theta ** k / math.factorial(k))


# ---------------------------------------------------------------------------
# weighted difference statistics
# ---------------------------------------------------------------------------

def _summation_end(crude, k: int) -> int:
    """Summation endpoint past which every weighted term is provably < 1e-25.

    y walks 32, 1.25 y + 1, ... to the first point where the crude per-term
    envelope `crude(y)` drops below 1e-25; the endpoint adds a margin past it.
    """
    y = 32
    while not crude(y) < 1e-25:
        y = int(y * 1.25) + 1
    return int(y * 1.25) + k + 1


def ak_sequence(
    g1: DiscretePrior,
    g2: DiscretePrior,
    rho: float,
    k_max: int = 10,
) -> np.ndarray:
    """Weighted squared-difference statistics A_k^2, entry k for k = 0..k_max.

    A_k^2 = sum_y (y+1)^k (D^k f_1(y) - D^k f_2(y))^2 / (f_1(y) v rho + f_2(y) v rho),
    so the weight at y is 1 / (max(f_1(y), rho) + max(f_2(y), rho)); the sum is
    truncated only where a certified envelope proves the remaining terms are
    below 1e-25 in aggregate significance.
    """
    if not (0 < rho <= 1 / math.e):
        raise InvalidInputError("rho must lie in (0, 1/e]")
    k_max = _whole(k_max, "k_max", 1)
    if k_max > 30:
        raise InvalidInputError("k_max must lie in 1..30")
    # The envelope (y+1+k)^k 4^k env(y)^2 / (2 rho), env the certified tail
    # envelope of both mixtures, decays superexponentially; its endpoint lands
    # far beyond the point where both pmfs fall under rho * 1e-6.
    def crude(y: int) -> float:
        env = mixture_tail_bound(g1, y - 1) + mixture_tail_bound(g2, y - 1)
        return (y + 1 + k_max) ** k_max * 4.0 ** k_max * env * env / (2.0 * rho)

    y_end = _summation_end(crude, k_max)
    f1 = pmf_on_range(g1, y_end + k_max)
    f2 = pmf_on_range(g2, y_end + k_max)
    w = 1.0 / (np.maximum(f1, rho) + np.maximum(f2, rho))
    ys = np.arange(f1.size, dtype=float)
    out = np.empty(k_max + 1)
    d1, d2 = f1.copy(), f2.copy()
    for k in range(0, k_max + 1):
        if k > 0:
            d1 = diff_table(d1, 1, "forward")
            d2 = diff_table(d2, 1, "forward")
        with np.errstate(over="ignore", under="ignore"):
            terms = (ys + 1.0) ** k * (d1 - d2) ** 2 * w
        out[k] = terms.sum()
    return out


def ak_recursion_residuals(ak_sq: np.ndarray) -> np.ndarray:
    """Diagnostic residuals (A_k^2 - A_{k-1} A_{k+1}) / (A_k A_{k-1}) of `ak_sequence`'s array.

    One entry per interior k (1 <= k <= k_max - 1).  NaN where a denominator
    vanishes (identical mixtures).
    """
    if len(ak_sq) < 3:
        raise InvalidInputError("need at least k = 0, 1, 2 to form a residual")
    a = np.sqrt(np.asarray(ak_sq, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        res = (a[1:-1] ** 2 - a[:-2] * a[2:]) / (a[1:-1] * a[:-2])
    return res


def forward_weighted_diff_sum(prior: DiscretePrior, k: int) -> float:
    """sum_y (y+1)^k (D^k f_G(y))^2, bounded by 2 k! at every k.

    Since B^k f(y) = D^k f(y-k), the sum equals its backward form
    sum_{y >= k} (y-k+1)^k (B^k f_G(y))^2.  The range ends where the
    envelope (y+1+k)^k (2^k env(y))^2 falls below 1e-25.
    """
    k = _whole(k, "k")
    y_end = _summation_end(lambda y: (y + 1 + k) ** k
                           * (2.0 ** k * mixture_tail_bound(prior, y - 1)) ** 2, k)
    f = pmf_on_range(prior, y_end + k)
    d = diff_table(f, k, "forward")
    ys = np.arange(f.size, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        return float(np.sum((ys + 1.0) ** k * d * d))


# ---------------------------------------------------------------------------
# closed forms for Poisson pmfs and their mixtures
# ---------------------------------------------------------------------------

def poisson_divergences(lam: float, lam2: float) -> tuple[float, float]:
    """Closed forms for a pair of Poisson pmfs.

    Returns ``(chi_sq, hellinger_sq_normalized)`` where

    * ``chi_sq = exp((lam - lam2)^2 / lam2) - 1`` is the chi-square divergence
      of Poi(lam) from Poi(lam2), and
    * ``hellinger_sq_normalized = 1 - exp(-(sqrt lam - sqrt lam2)^2 / 2)`` is
      the 1/2-normalized squared Hellinger distance (in [0, 1]); the
      unnormalized table convention of `mixtures.hellinger_sq` is twice this.

    ``chi_sq`` is inf once (lam - lam2)^2 / lam2 passes log(max double), about
    709.78 (as for (30, 1) or (100, 0.1)): the divergence then exceeds every double.
    """
    if not (0 <= lam < math.inf and 0 < lam2 < math.inf):  # NaN too
        raise InvalidInputError("need finite lam >= 0 and lam2 > 0")
    gap = float(lam - lam2)
    try:
        chi_sq = math.expm1(gap * gap / lam2)  # a float product overflows to inf, not an error
    except OverflowError:
        chi_sq = math.inf
    hell = -math.expm1(-0.5 * (math.sqrt(lam) - math.sqrt(lam2)) ** 2)
    return chi_sq, hell


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
