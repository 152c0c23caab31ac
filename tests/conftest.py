"""Resolved priors shared across test modules, certified once per session."""

import pytest

from poisson_eb.priors import PriorSpec, resolve


@pytest.fixture(scope="session")
def heavy_tail_15():
    """heavy_tail p=1.5: finite 1.5-th moment, infinite E theta^2."""
    return resolve(PriorSpec("heavy_tail", {"p": 1.5}), p=1.5)
