"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import GolfConfig, Runtime
from repro.equivalence import run_pair
from repro.runtime.clock import MILLISECOND

# Every Hypothesis property draws the same examples on every machine, in
# CI or not (Hypothesis loads its derandomized ``ci`` profile only when
# ``CI`` is set), so a run's outcome and the non-vacuity floors of the
# property modules reproduce anywhere.
settings.register_profile("derandomized", parent=settings.default,
                          derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def rt():
    """A GOLF runtime with 2 virtual cores and a fixed seed."""
    return Runtime(procs=2, seed=7, config=GolfConfig())


@pytest.fixture
def baseline_rt():
    """A baseline (unmodified collector) runtime."""
    return Runtime(procs=2, seed=7, config=GolfConfig.baseline())


def run_to_end(runtime: Runtime, main_fn, *args,
               budget_ns: int = 500 * MILLISECOND,
               max_instructions: int = 2_000_000) -> str:
    """Spawn ``main_fn`` and run with sane safety caps."""
    runtime.spawn_main(main_fn, *args)
    return runtime.run(until_ns=budget_ns, max_instructions=max_instructions)


_SWEPT: dict = {}


def swept(pair: str, seed: int = 7):
    """``run_pair(pair, procs=2, seed)``, computed once per session:
    the all-pairs test and each pair's home test file share one sweep."""
    if (pair, seed) not in _SWEPT:
        _SWEPT[pair, seed] = run_pair(pair, procs=2, seed=seed)
    return _SWEPT[pair, seed]
