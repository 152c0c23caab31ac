"""Prior families: specifications and certified discretizations.

A `PriorSpec` names a mixing-distribution family and its parameters; `resolve`
turns it into a `ResolvedPrior` carrying

* a finitely supported stand-in K (`DiscretePrior`).  A continuous family's
  K is Gauss-Legendre quadrature in log theta laid out by `_ContinuousLayout`;
  its ``disc_error`` <= ``disc_tol`` bounds the absolute gap sup |f_K - f_4K|
  to a 4x refinement over rows 0..y_check (at most 20,000 for sqrt_cauchy),
  plus the dropped mass, which alone is the reading at the default
  ``disc_tol``.  It misses f_K's relative error at large y (up to 0.28 on
  heavy_tail p = 1.5, 0.74 on sqrt_cauchy): ROADMAP item 1,
* the p-th moment of the family, for p >= 0 with 0^0 counted as 1 (in
  closed form: E_2(p_family - p) for heavy_tail at p > 0, 1/cos(pi p/4) for
  sqrt_cauchy, a finite sum for the exact families), and
* whether its second moment E theta^2 is finite (when it is not, every rule
  that stays bounded in the far tail has infinite regret; see
  `poisson_eb.experiments`).

The exact families (point_mass, two_point, discrete, assouad,
moment_class_extremal) are their own discretization, with ``disc_error`` 0.
`quantile_y(eps)` reads the shared 1e-11 reference pmf table, whose range
contains the quantile for every eps >= 1e-11; a smaller eps is refused.
That table and the oracle posterior-mean table over its range come from one
pass over the discretization: for a continuous family, the pass that
certifies it.

Every theta is drawn from K, the certified discretization that every score
is taken against: one multinomial over K's atoms (the conditional binomial
draw of Devroye 1986, ch. XI) on a Philox stream keyed by the seed, the
draws grouped by atom.  numpy forms each conditional probability by
subtracting from 1, which moves an atom's probability off its weight by at
most 8e-16 (in either atom order; measured on heavy_tail p = 1.5, p = 3 and
sqrt_cauchy).  K leaves out a continuous family's mass ``drop`` beyond
theta_max (set by `_ContinuousLayout`), and its count law is within
1.8e-10 (heavy_tail p = 1.5) and 1.05e-9 (sqrt_cauchy) in total variation
of a 16x refinement's.

Y | theta is Poisson on a second stream of the same key.  The zero atom's
draws lead theta and consume no Poisson variates: their Y are 0, which is
what numpy's Poisson returns at rate 0 without touching its bit generator,
so Y is bit for bit one Poisson draw per theta.  `count_histogram` forms no
theta: it reads the zero atom's draws off the multinomial's per-atom counts,
repeats only the other atoms as Poisson rates, sorts only their counts and
adds the zero atom's at y = 0, with no length-n array.  heavy_tail puts 0.93
(p = 1.5) to 0.99 (p = 3) of its mass at 0, so a draw's memory is about
that much smaller.  Only `sample_counts` forms theta.

Families
--------
``point_mass(value)`` | ``two_point(eps, a)`` | ``discrete(atoms, weights)``
| ``heavy_tail(p)``: eps at 0 plus density c0 a^{-(p+1)} (log a)^{-2} on
  [e, inf), normalized so the p-th moment is exactly 1; p from about 0.96
  (at most 10^7 certified pmf rows) to about 703 (c0 = 1/E_2(p) overflows)
| ``sqrt_cauchy``: theta = sqrt(|C|) with C standard Cauchy (tail index 2)
| ``assouad(n, p, m_p, c_p, tau)``: the near-black two-point-per-interval
  construction for lower bounds; n a whole number >= 3, p, m_p, c_p in (0, inf).
  Its construction p comes from the spec (default 2), never from `resolve`'s p
| ``moment_class_extremal(u, m1)``: (1 - 1/u) at 0 plus 1/u at u*m1, the
  sparse two-point prior extremal for the first-moment class.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import (
    InvalidInputError,
    NumericalFailureError,
    UnsupportedRegimeError,
)
from .mixtures import (
    DiscretePrior,
    MixturePmf,
    _MAX_ROWS,
    _closed_pmf,
    _mixture_rows,
    _whole,
    _y_max_for_tail,
    mmse_exact,
    pmf_and_moment_tables,
    pmf_on_range,
    posterior_moment_table,
)
from .npmle import CountHistogram

__all__ = [
    "FAMILIES",
    "PriorSpec",
    "parse_prior_spec",
    "ResolvedPrior",
    "resolve",
    "heavy_tail_density",
    "heavy_tail_normalizer",
    "assouad_prior",
    "divergent_mixture_pmf",
    "divergent_mmse_diagnostic",
]

# the parameter names each family accepts; any other name is an input error
_PARAMS = {
    "point_mass": ("value",),
    "two_point": ("eps", "a"),
    "discrete": ("atoms", "weights"),
    "heavy_tail": ("p",),
    "sqrt_cauchy": (),
    "assouad": ("n", "p", "m_p", "c_p", "tau"),
    "moment_class_extremal": ("u", "m1"),
}
FAMILIES = tuple(_PARAMS)

_LIST_PARAMS = {"discrete": ("atoms", "weights"), "assouad": ("tau",)}

_REFERENCE_TAIL = 1e-11  # tail of the shared reference pmf, whose range the oracle table shares


# ---------------------------------------------------------------------------
# specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriorSpec:
    """A named prior family plus its parameter dict (JSON-able)."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidInputError(
                f"unknown prior family {self.family!r}; choose from {FAMILIES}"
            )
        for key, value in self.params.items():
            if key not in _PARAMS[self.family]:
                raise InvalidInputError(
                    f"prior family {self.family} takes no parameter {key!r}; "
                    f"it takes {_PARAMS[self.family] or 'none'}"
                )
            if isinstance(value, list) and key not in _LIST_PARAMS.get(self.family, ()):
                raise InvalidInputError(f"prior parameter {key!r} takes one value, not a list")
            try:
                np.asarray(value, dtype=float)
            except (TypeError, ValueError):
                raise InvalidInputError(f"prior parameter {key}={value!r} is no number") from None

    def param(self, key: str):
        """The required parameter `key`; a missing one is an input error."""
        if key not in self.params:
            raise InvalidInputError(f"prior family {self.family} needs parameter {key!r}")
        return self.params[key]

    def describe(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})" if inner else self.family


def _parse_value(tok: str):
    for cast in (int, float):
        try:
            return cast(tok)
        except ValueError:
            pass
    if "," in tok:
        return [_parse_value(t) for t in tok.split(",") if t != ""]
    return tok


def parse_prior_spec(text: str) -> PriorSpec:
    """Parse ``family=heavy_tail p=2``-style key=value prior descriptions.

    A key given twice is an input error, not a silent override.
    """
    family = None
    params: dict = {}
    for tok in text.replace("\n", " ").split():
        if "=" not in tok:
            raise InvalidInputError(f"expected key=value, got {tok!r}")
        key, _, raw = tok.partition("=")
        if key in params or (key == "family" and family is not None):
            raise InvalidInputError(f"prior spec sets {key!r} twice")
        if key == "family":
            family = raw
        else:
            params[key] = _parse_value(raw)
    if family is None:
        raise InvalidInputError("prior spec must set family=...")
    return PriorSpec(family, params)


# ---------------------------------------------------------------------------
# heavy-tail family internals
# ---------------------------------------------------------------------------

def _e2(x: float) -> float:
    """E_2(x) = integral_1^inf e^{-x t} t^{-2} dt, as cephes ``expn(2, x)`` computes it."""
    eps = 2.0 ** -53
    if not 0 < x <= 7.09782712893383996843e2:  # E_2(0) = 1, and exp(-x) underflows past this
        return 1.0 if x == 0 else 0.0 if x > 0 else math.nan
    if x <= 1.0:  # the power series (DLMF 8.19.8); its k = 1 term is the -x psi returned
        psi, yk, k, ans = -0.57721566490153286060 - math.log(x) + 1.0, -x, 1, -1.0
        while k == 1 or abs(yk / ans) > eps:
            k += 1
            yk *= -x / k
            ans += yk / (k - 1)
        return -x * psi - ans
    k, pkm2, qkm2, pkm1, qkm1, ans, t = 1, 1.0, x, 1.0, x + 2.0, 1.0 / (x + 2.0), 1.0
    while t > eps:  # the continued fraction (DLMF 8.19.17)
        k += 1
        yk, xk = (1.0, 2 + (k - 1) // 2) if k & 1 else (x, k // 2)
        pk, qk = pkm1 * yk + pkm2 * xk, qkm1 * yk + qkm2 * xk  # qk > 0
        t, ans = abs((ans - pk / qk) / (pk / qk)), pk / qk
        pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
        if abs(pk) > 1.44115188075855872e17:  # rescale before the convergents overflow
            pkm2, pkm1, qkm2, qkm1 = (v * eps for v in (pkm2, pkm1, qkm2, qkm1))
    return ans * math.exp(-x)


@lru_cache(maxsize=None)
def heavy_tail_normalizer(p: float) -> float:
    """c0(p) = 1 / integral_e^inf a^{-(p+1)} (log a)^{-2} da, always > 1.

    In u = log a the integral is integral_1^inf e^{-p u} u^{-2} du = E_2(p)
    < 1, the generalized exponential integral (DLMF 8.19.3).  A p whose
    1/E_2(p) overflows (p above about 703) is an input error.
    """
    if not (p > 0):
        raise InvalidInputError("tail exponent p must be positive")
    e2 = _e2(p)
    if not (e2 > 0 and 1.0 / e2 < math.inf):
        raise InvalidInputError(f"tail exponent p={p} is too large: 1/E_2(p) overflows")
    return 1.0 / e2


def heavy_tail_density(p: float, a) -> np.ndarray | float:
    """Density c0(p) a^{-(p+1)} (log a)^{-2} of the continuous part, 0 below e.

    Integrates to 1 over [e, inf); the normalizer c0(p) exceeds 1 for every
    p > 0.
    """
    c0 = heavy_tail_normalizer(p)
    a_arr = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = np.log(a_arr)
        dens = np.where(
            a_arr >= math.e,
            c0 * a_arr ** -(p + 1.0) / (log_a * log_a),
            0.0,
        )
    return dens if dens.ndim else float(dens)


def _heavy_tail_moment(p_family: float, q: float) -> float:
    """q-th moment of the heavy_tail(p_family) prior; infinite for q > p_family.

    The continuous part has mass 1 - eps = 1/c0 and density c0 a^{-(p+1)}
    (log a)^{-2}, so in u = log a it contributes
    integral_1^inf e^{(q - p) u} u^{-2} du = E_2(p - q), which is 1 at q = p.
    The atom at 0 adds eps 0^q: eps at q = 0, nothing for q > 0.
    """
    if q > p_family:
        raise UnsupportedRegimeError(
            f"heavy_tail(p={p_family}) has infinite moments beyond order {p_family}"
        )
    return 1.0 if q == 0 else _e2(p_family - q)


# ---------------------------------------------------------------------------
# sqrt-Cauchy family internals
# ---------------------------------------------------------------------------

def _sqrt_cauchy_moment(q: float) -> float:
    # (4/pi) integral_0^inf t^{q+1} / (1 + t^4) dt = 1 / sin(pi (q+2) / 4) = 1 / cos(pi q / 4)
    if q >= 2:
        raise UnsupportedRegimeError(
            f"sqrt_cauchy has tail index 2: moments of order >= 2 are infinite (got p={q})"
        )
    return 1.0 / math.cos(0.25 * math.pi * q)


# ---------------------------------------------------------------------------
# quadrature discretization with certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ContinuousLayout:
    """Every choice of a heavy_tail or sqrt_cauchy discretization (see `of`).

    K = `prior(panels)`: 12 Gauss-Legendre nodes on each of `panels` equal
    panels of [u_lo, u_hi] in u = log theta, weighted to mass 1 - zero_mass,
    plus an atom at 0 holding a positive zero_mass.  `drop` bounds the mass
    beyond e^u_hi; the certificate reads rows 0..y_check from `base_panels` on.
    """

    source: str  # names the prior in a refusal
    density: Callable[[np.ndarray], np.ndarray]
    u_lo: float
    u_hi: float
    zero_mass: float
    drop: float
    y_check: int
    base_panels: int

    @classmethod
    def of(cls, spec: PriorSpec, disc_tol: float) -> _ContinuousLayout:
        """`spec`'s layout at `disc_tol`; a check over 10^7 rows is refused first."""
        drop = min(disc_tol * 1e-2, 1e-9)
        if spec.family == "heavy_tail":
            p = float(spec.params["p"])
            # the continuous part's p-th moment telescopes to c0, so (1 - eps) c0 = 1
            zero_mass = 1.0 - 1.0 / heavy_tail_normalizer(p)
            # prior tail beyond T is <= c0 (1-eps) T^{-p} (log T)^{-2} / p, where c0 (1-eps) = 1
            theta_max = math.e * 2
            while theta_max ** -p / (math.log(theta_max) ** 2 * p) > drop:
                theta_max *= 1.5
            if not (1.2 * theta_max + 50 <= _MAX_ROWS):
                raise UnsupportedRegimeError(f"heavy_tail(p={p}) needs {1.2 * theta_max + 50:.3g}"
                                             f" pmf rows to certify, over {_MAX_ROWS:.0e}")
            u_hi = math.log(theta_max)
            return cls(f"heavy_tail(p={p})", partial(heavy_tail_density, p), 1.0, u_hi,
                       zero_mass, drop, int(1.2 * theta_max) + 50, max(24, int(6 * (u_hi - 1.0))))
        # theta = |C|^{1/2} has density 4 t / (pi (1 + t^4)) on t >= 0; its mass
        # below t_lo is ~ 2 t_lo^2 / pi, and beyond t_hi it is <= (2/pi) t_hi^-2
        t_lo = math.sqrt(0.25 * math.pi * drop)
        t_hi = math.sqrt(2.0 / (math.pi * 0.5 * drop))
        u_lo, u_hi = math.log(t_lo), math.log(t_hi)
        return cls("sqrt_cauchy", lambda t: 4.0 * t / (math.pi * (1.0 + t ** 4)), u_lo, u_hi,
                   0.0, drop, min(int(1.2 * t_hi) + 50, 20000), max(24, int(4 * (u_hi - u_lo))))

    def prior(self, panels: int) -> DiscretePrior:
        x, wq = np.polynomial.legendre.leggauss(12)
        edges = np.linspace(self.u_lo, self.u_hi, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halfs = 0.5 * np.diff(edges)
        theta = np.exp((mids[:, None] + halfs[:, None] * x[None, :]).ravel())
        w = (halfs[:, None] * wq[None, :]).ravel() * self.density(theta) * theta
        w = w * ((1.0 - self.zero_mass) / w.sum())
        if self.zero_mass > 0:
            return DiscretePrior(np.concatenate([[0.0], theta]),
                                 np.concatenate([[self.zero_mass], w]))
        return DiscretePrior(theta, w)


def _certified_continuous_prior(layout: _ContinuousLayout,
                                disc_tol: float) -> tuple[DiscretePrior, float, tuple]:
    """The layout's K, certified against a 4x refinement; panels double from
    the base count until the bound passes disc_tol, up to 3 times.

    The bound, sup_y |f_K - f_4K| over rows 0..y_check plus the dropped mass
    (which shifts the pmf by at most itself), is absolute.  The one pass over
    K up to max(y_check, y_ref) also gives the returned reference tables
    (pmf, [oracle]) over 0..y_ref, as `pmf_and_moment_tables` gives them.
    """
    panels, y_check = layout.base_panels, layout.y_check
    for _ in range(4):
        coarse = layout.prior(panels)
        y_ref = _y_max_for_tail(coarse, _REFERENCE_TAIL)
        log_f, (oracle,) = _mixture_rows(coarse, max(y_check, y_ref), (1,))
        gap = np.exp(log_f[:y_check + 1]) - pmf_on_range(layout.prior(4 * panels), y_check)
        bound = float(np.max(np.abs(gap))) + layout.drop
        if bound <= disc_tol:
            reference = _closed_pmf(coarse, log_f[:y_ref + 1], _REFERENCE_TAIL)
            return coarse, bound, (reference, [oracle[:y_ref + 1]])
        panels *= 2
    raise NumericalFailureError(
        f"could not certify {layout.source} discretization to {disc_tol:g} "
        f"(last bound {bound:.3e} with {panels // 2} panels)"
    )


# ---------------------------------------------------------------------------
# resolved priors
# ---------------------------------------------------------------------------

class ResolvedPrior:
    """A prior ready for experiments: its certified discrete stand-in K.

    Every theta it draws comes from K, grouped by atom; that leaves out a
    continuous family's mass ``drop`` beyond theta_max and K's quadrature
    error, whose absolute pmf gap ``disc_error`` bounds (module docstring; not
    the relative error at large y, ROADMAP item 1).  Heavier derived artifacts
    (pmf tables, oracle posterior-mean tables, the reference Bayes risk) are
    cached on the instance.  The reference pmf and the read-only oracle table
    over its range come together: a continuous family's from the pass
    `resolve` certifies it with (`reference_tables`), an exact family's from
    one pass on first use of either.  Other pmf tails, longer oracle tables
    and the Bayes risk are computed lazily; draws are not cached.
    `second_moment_finite` records whether E theta^2 < inf for the family
    itself (not its truncated discretization, whose moments are all finite).
    """

    def __init__(self, spec: PriorSpec, p: float, discretization: DiscretePrior,
                 p_moment: float, disc_tol: float, disc_error: float,
                 second_moment_finite: bool, reference_tables=None) -> None:
        self.spec = spec
        self.p = p
        self.discretization = discretization
        self.p_moment = p_moment
        self.disc_tol = disc_tol
        self.disc_error = disc_error
        self.second_moment_finite = second_moment_finite
        self._cache: dict = {}
        if reference_tables is not None:
            self._reference_tables(reference_tables)

    def _atom_counts(self, seed, size: int) -> np.ndarray:
        """Each atom's count in `size` draws from K: the one multinomial of
        `sample_counts` and `count_histogram`.  `seed` may be an int or a tuple
        of ints; identical seeds reproduce identical draws in any call order."""
        return _generator(seed).multinomial(_whole(size, "size", 1), self.discretization.weights)

    def _draw(self, seed, size: int) -> tuple[np.ndarray, int, np.ndarray]:
        """Each atom's count, the number of draws at the zero atom (atom 0 when
        it is 0; the atoms increase), and the Poisson counts of the other draws
        in theta's order; Y is that many zeros and then these (module
        docstring).  theta itself is not formed."""
        counts = self._atom_counts(seed, size)
        atoms = self.discretization.atoms
        z = int(atoms[0] == 0.0)
        rest = _generator(seed, 0x9E37).poisson(np.repeat(atoms[z:], counts[z:]))
        return counts, int(counts[:z].sum()), rest

    def sample_counts(self, seed, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw (theta, Y) pairs: theta from K, grouped by atom (one multinomial
        over the atoms gives each atom's count); Y | theta Poisson, with no
        Poisson variate spent on the zero atom's draws (Y shares its draw
        routine with `count_histogram`)."""
        counts, zeros, rest = self._draw(seed, size)
        y = np.zeros(zeros + rest.size, dtype=rest.dtype)
        y[zeros:] = rest
        return np.repeat(self.discretization.atoms, counts), y

    def count_histogram(self, seed, size: int) -> CountHistogram:
        """The histogram of the counts Y of `sample_counts(seed, size)`, drawn without theta.

        The zero atom's draws count at y = 0 with no Poisson draw, and only
        the rest are sorted (`np.unique`): no length-n theta or Y array is
        formed.
        """
        _, zeros, rest = self._draw(seed, size)
        ys, cnts = np.unique(rest, return_counts=True)
        if zeros and ys[:1].tolist() != [0]:  # no Poisson count is 0: insert the bin
            ys, cnts = np.insert(ys, 0, 0), np.insert(cnts, 0, 0)
        cnts[:1] += zeros  # the zero atom's draws count at y = 0
        return CountHistogram(ys, cnts)

    # -- cached derived artifacts ------------------------------------------

    def _reference_tables(self, tables=None) -> None:
        """Cache the reference pmf and the oracle table over its range: `tables`
        as (pmf, [oracle]) when given, else both from one pass."""
        table, (oracle,) = tables or pmf_and_moment_tables(self.discretization,
                                                           _REFERENCE_TAIL, (1,))
        oracle.setflags(write=False)
        self._cache["pmf"] = table
        self._cache["oracle"] = oracle

    def pmf(self) -> MixturePmf:
        """The reference mixture pmf table, with P(Y > y_max) <= 1e-11."""
        if "pmf" not in self._cache:
            self._reference_tables()
        return self._cache["pmf"]

    def quantile_y(self, eps: float = 1e-9) -> int:
        """Smallest y with P(Y > y) <= eps, read off the reference pmf table.

        P(Y > y) is tail_mass plus the table summed from its far end, which
        has no 1 - cumsum rounding floor and is <= eps at y_max.  An eps below
        the table's 1e-11 tail is refused with InvalidInputError."""
        if not eps >= _REFERENCE_TAIL:  # NaN too
            raise InvalidInputError(f"eps must be >= {_REFERENCE_TAIL:g} (got {eps!r})")
        key = ("q", eps)
        if key not in self._cache:
            table = self.pmf()
            beyond = np.append(np.cumsum(table.values[:0:-1])[::-1], 0.0)
            self._cache[key] = int(np.argmax(table.tail_mass + beyond <= eps))
        return self._cache[key]

    def oracle_table(self, y_hi: int) -> np.ndarray:
        """theta_G(y) for y = 0..y_hi, a read-only view of the cached table.

        The table spans the reference pmf's range; a longer request extends it.
        A negative or fractional y_hi is refused with InvalidInputError.
        """
        y_hi = _whole(y_hi, "y_hi")
        if "oracle" not in self._cache:
            self._reference_tables()
        if self._cache["oracle"].size <= y_hi:
            table = posterior_moment_table(self.discretization, y_hi)
            table.setflags(write=False)
            self._cache["oracle"] = table
        return self._cache["oracle"][: y_hi + 1]

    def mmse_ref(self) -> tuple[float, float]:
        """Reference Bayes risk (value, remainder bound) of the discretization."""
        if "mmse" not in self._cache:
            self._cache["mmse"] = mmse_exact(self.discretization, tail_tol=1e-13)
        return self._cache["mmse"]


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------

def _entropy(seed) -> tuple:
    """The entropy a `seed` (a whole number >= 0 or a tuple of them) keys its streams by."""
    return tuple(_whole(s, "seed") for s in (seed if isinstance(seed, (tuple, list)) else (seed,)))


def _generator(seed, *extra: int) -> np.random.Generator:
    """Philox generator keyed by `seed` (an int or a tuple of ints) plus `extra`."""
    entropy = list(_entropy(seed) + extra)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _moment_index(spec: PriorSpec, p: float | None = None) -> float:
    """The moment index: the caller's `p`, else the spec's ``p`` (assouad's default 2), else 1."""
    if p is None:
        p = float(spec.params.get("p", 2.0 if spec.family == "assouad" else 1.0))
    return p


def resolve(spec: PriorSpec, p: float | None = None, disc_tol: float = 1e-6,
            seed: int = 0) -> ResolvedPrior:
    """Resolve a prior spec into its certified discretization.

    The spec alone builds the prior; `p` (default: `_moment_index`) is only
    the order of ``p_moment``, which tuning reads.  `seed` only draws
    assouad's tau bits when the spec gives none.  Raises
    :class:`InvalidInputError` for a missing or out-of-range parameter (a
    negative or NaN moment order, and the ranges in the module docstring),
    :class:`UnsupportedRegimeError` when the requested moment order is
    infinite for the family or a heavy_tail certificate would check over
    10^7 pmf rows, and :class:`NumericalFailureError` when the
    discretization cannot be certified to `disc_tol`.
    """
    if not (0 < disc_tol <= 1e-2):
        raise InvalidInputError("disc_tol must lie in (0, 1e-2]")
    if p is not None and not (p >= 0):  # as DiscretePrior.moment, for every family; NaN too
        raise InvalidInputError("moment order must be nonnegative")
    family, params = spec.family, dict(spec.params)
    p_eff = _moment_index(spec, p)

    if family == "heavy_tail":
        p_fam = float(spec.param("p"))
        if not (p_fam > 0):
            raise InvalidInputError("heavy_tail needs p > 0")
        p_moment = _heavy_tail_moment(p_fam, p_eff)  # raises when infinite
        # E theta^q < inf iff q <= p_fam, so the second moment is finite iff p_fam >= 2
        second_moment_finite = p_fam >= 2.0
    elif family == "sqrt_cauchy":
        p_moment = _sqrt_cauchy_moment(p_eff)  # raises for p >= 2
        second_moment_finite = False  # tail index 2: E theta^2 = inf
    if family in ("heavy_tail", "sqrt_cauchy"):
        layout = _ContinuousLayout.of(spec, disc_tol)
        prior, err, tables = _certified_continuous_prior(layout, disc_tol)
        return ResolvedPrior(spec, p_eff, prior, p_moment, disc_tol, err,
                             second_moment_finite, tables)

    # the exact families: each is its own discretization, with disc_error 0
    if family == "point_mass":
        value = float(params.get("value", 1.0))
        if value < 0:
            raise InvalidInputError("point mass location must be >= 0")
        prior = DiscretePrior([value], [1.0])
    elif family == "two_point":
        eps = float(spec.param("eps"))
        a = float(spec.param("a"))
        if not (0 < eps < 1) or not (a > 0):
            raise InvalidInputError("two_point needs eps in (0,1) and a > 0")
        prior = DiscretePrior([0.0, a], [1.0 - eps, eps])
    elif family == "moment_class_extremal":
        u = float(spec.param("u"))
        m1 = float(params.get("m1", 1.0))
        if not (u > 1) or not (m1 > 0):
            raise InvalidInputError("moment_class_extremal needs u > 1 and m1 > 0")
        prior = DiscretePrior([0.0, u * m1], [1.0 - 1.0 / u, 1.0 / u])
    elif family == "discrete":
        prior = DiscretePrior(np.asarray(spec.param("atoms"), dtype=float),
                              np.asarray(spec.param("weights"), dtype=float))
    elif family == "assouad":
        n = float(spec.param("n"))
        p_con = _moment_index(spec)  # the construction's p is the spec's own
        m_p = float(params.get("m_p", 1.0))
        c_p = float(params.get("c_p", 0.1))
        tau = params.get("tau")
        if tau is None:
            n_bits = _assouad_shape(n, p_con, m_p, c_p)[1]
            tau = _generator(seed, 0xA55).integers(0, 2, size=n_bits).tolist()
        elif isinstance(tau, (int, float)):
            tau = [tau]
        prior = assouad_prior(tau, n, p_con, m_p, c_p)
    else:
        raise InvalidInputError(f"unknown family {family!r}")  # pragma: no cover
    return ResolvedPrior(spec, p_eff, prior, prior.moment(p_eff), disc_tol, 0.0, True)


# ---------------------------------------------------------------------------
# Assouad construction
# ---------------------------------------------------------------------------

def _assouad_shape(n: float, p: float, m_p: float, c_p: float) -> tuple[float, int, int]:
    if not (n >= 3 and n % 1 == 0):
        raise InvalidInputError(f"assouad needs a whole number n >= 3, got n={n}")
    if not all(0 < v < math.inf for v in (p, m_p, c_p)):
        raise InvalidInputError(f"assouad needs positive, finite p, m_p and c_p, "
                                f"got p={p}, m_p={m_p}, c_p={c_p}")
    x = c_p * n ** (1.0 / (2.0 * p + 1.0)) * m_p ** (1.0 / (2.0 * p + 1.0)) / math.log(n)
    N = math.ceil(x) - 1
    i0 = max(1, math.floor(x / 3.0))
    if N < i0:
        raise UnsupportedRegimeError(
            f"assouad construction collapses at n={n:g}, p={p}, c_p={c_p}: "
            f"N={N} < i0={i0}; increase n or c_p"
        )
    return x, N - i0 + 1, i0


def assouad_prior(tau, n: int, p: float, m_p: float = 1.0, c_p: float = 0.1) -> DiscretePrior:
    """Two-point-per-interval perturbation prior indexed by a bit vector tau.

    Intervals I_i = [i^2 (log n)^2, (i+1)^2 (log n)^2] for i = i0..N carry
    weight w_i = m_p ((i+1)^2 (log n)^2)^{-(p + 1/2)}; within I_i the atom
    sits at the center a_i when tau_i = 0 and at a_i + delta_i when tau_i = 1,
    with delta_i^2 = a_i / (n w_i (log n)^10).  The remaining mass sits at 0.
    Raises :class:`UnsupportedRegimeError` when the weights exceed the budget
    (w_0 < 0) or the perturbed atom escapes its interval.
    """
    x, n_bits, i0 = _assouad_shape(n, p, m_p, c_p)
    N = i0 + n_bits - 1
    tau = np.asarray(tau, dtype=object)  # no cast before the check: 0.5 is not a bit
    if tau.shape != (n_bits,) or not all(bit in (0, 1) for bit in tau):
        raise InvalidInputError(f"tau must be {n_bits} bits for n={n:g} (indices {i0}..{N})")
    log2n = math.log(n) ** 2
    idx = np.arange(i0, N + 1, dtype=float)
    lo_edge = idx ** 2 * log2n
    hi_edge = (idx + 1.0) ** 2 * log2n
    a = 0.5 * (lo_edge + hi_edge)
    w = m_p * hi_edge ** -(p + 0.5)
    w0 = 1.0 - w.sum()
    if w0 < -1e-12:
        raise UnsupportedRegimeError(f"interval weights exceed unit mass (w0 = {w0:.3e})")
    w0 = max(w0, 0.0)
    delta = np.sqrt(a / (n * w * math.log(n) ** 10))
    if np.any(a + delta > hi_edge):
        raise UnsupportedRegimeError("perturbed atom escapes its interval; increase n")
    atoms = np.concatenate([[0.0], np.where(tau == 1, a + delta, a)])
    weights = np.concatenate([[w0], w])
    return DiscretePrior(atoms, weights)


# ---------------------------------------------------------------------------
# divergent-Bayes-risk diagnostic
# ---------------------------------------------------------------------------

def divergent_mixture_pmf(y_hi: int) -> np.ndarray:
    """Exact mixture pmf of the density a^{-2} on [1, inf): f(y) for y <= y_hi.

    f(0) = E_2(1), f(1) = E_1(1), and for y >= 2
    f(y) = Q(y-1, 1) / (y (y-1)) with Q the regularized upper incomplete
    gamma — equivalently the P(Poi(1) <= y-2) tail constant.  Decays like
    y^{-2}, so the mean E[Y] is already infinite.
    """
    from scipy.special import exp1, gammaincc
    y_hi = _whole(y_hi, "y_hi", 2)
    f = np.empty(y_hi + 1)
    f[0], f[1] = _e2(1.0), exp1(1.0)
    ys = np.arange(2, y_hi + 1, dtype=float)
    f[2:] = gammaincc(ys - 1.0, 1.0) / (ys * (ys - 1.0))
    return f


def _divergent_summands(y_hi: int) -> np.ndarray:
    """Summands s(y) = (y+1)/f(y) [(y+2) f(y+2) f(y) - (y+1) f(y+1)^2].

    Each equals f(y) Var(theta | Y = y), hence is nonnegative; s(y) ~ 1/y, so
    the partial sums grow like log Y.  For y >= 2 the expression is reduced
    to [y (q_{y+2} q_y - q_{y+1}^2) + q_{y+1}^2] / (y q_y) with
    q_j = Q(j - 1, 1), which sidesteps the catastrophic cancellation of the
    raw form at large y.
    """
    from scipy.special import gammaincc
    f = divergent_mixture_pmf(3)
    s = np.empty(y_hi + 1)
    for y in (0, 1):
        s[y] = (y + 1.0) / f[y] * ((y + 2.0) * f[y + 2] * f[y] - (y + 1.0) * f[y + 1] ** 2)
    ys = np.arange(2, y_hi + 1, dtype=float)
    q = gammaincc(np.arange(1, y_hi + 2, dtype=float), 1.0)  # q_j = Q(j - 1, 1), j = 2..y_hi+2
    qy, qy1, qy2 = q[:-2], q[1:-1], q[2:]  # j = y, y+1, y+2
    d2 = qy2 * qy - qy1 * qy1
    s[2:] = (ys * d2 + qy1 * qy1) / (ys * qy)
    return s


def divergent_mmse_diagnostic(y_cap: int = 4096) -> list[tuple[int, float]]:
    """Partial Bayes-risk sums S(Y) for Y = 16, 32, ..., <= y_cap.

    The mixing density a^{-2} on [1, inf) has a finite p-th moment for every
    p < 1 yet infinite Bayes risk: S(Y) = sum_{y<=Y} f(y) Var(theta | y)
    grows like log Y without bound (increments of ~log 2 per doubling).
    """
    y_cap = _whole(y_cap, "y_cap", 16)
    s = _divergent_summands(y_cap)
    cum = np.cumsum(s)
    out = []
    y = 16
    while y <= y_cap:
        out.append((y, float(cum[y])))
        y *= 2
    return out
