"""Exception taxonomy shared across the package.

Everything derives from :class:`PoissonEBError` so callers can catch the
package's failures in one clause; the subclasses mirror the distinct failure
modes the public operations document (bad arguments, degenerate support,
insufficient tail coverage, unsupported parameter regimes, and numerical
non-convergence).
"""

__all__ = [
    "PoissonEBError",
    "InvalidInputError",
    "DegenerateSupportError",
    "TailCoverageError",
    "UnsupportedRegimeError",
    "NumericalFailureError",
]


class PoissonEBError(Exception):
    """Base class for all package-raised errors."""


class InvalidInputError(PoissonEBError, ValueError):
    """Malformed or out-of-contract argument."""


class DegenerateSupportError(PoissonEBError, ValueError):
    """An operation hit a probability-zero cell it cannot divide by."""


class TailCoverageError(PoissonEBError, ValueError):
    """Truncated tables do not cover enough mass for the requested accuracy."""


class UnsupportedRegimeError(PoissonEBError, ValueError):
    """Parameter regime where the quantity is infinite or the method invalid."""


class NumericalFailureError(PoissonEBError, RuntimeError):
    """A solver or quadrature failed to reach its tolerance."""
