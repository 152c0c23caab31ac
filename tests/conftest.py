"""Fixtures shared across test modules: resolved priors, certified once per
session, and a fresh interpreter for code that must not run in the test's own."""

import subprocess
import sys
from pathlib import Path

import pytest

import poisson_eb
from poisson_eb.priors import PriorSpec, resolve


@pytest.fixture(scope="session")
def heavy_tail_15():
    """heavy_tail p=1.5: finite 1.5-th moment, infinite E theta^2."""
    return resolve(PriorSpec("heavy_tail", {"p": 1.5}), p=1.5)


@pytest.fixture(scope="session")
def in_fresh_interpreter():
    """Run `code` in a new interpreter that imports this checkout's poisson_eb
    and return its stripped stdout; a crash there fails only the calling test."""
    src = str(Path(poisson_eb.__file__).resolve().parents[1])

    def run(code: str) -> str:
        code = f"import sys; sys.path.insert(0, {src!r})\n" + code
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    return run
