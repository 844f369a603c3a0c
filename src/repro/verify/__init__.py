"""Systematic concurrency verification.

Where the property-based suites sample random schedules, this package
*enumerates* them: every scheduler decision (run-queue pick, select-case
choice) becomes a branch point, and small programs are executed under
every reachable interleaving up to a path bound.  Used to check GOLF's
soundness on three hand-written programs under every schedule
(tests/test_verify_explore.py).
"""

from repro.verify.explore import (
    ExplorationResult,
    ReplayError,
    ScriptedRandom,
    explore,
)

__all__ = ["ExplorationResult", "ReplayError", "ScriptedRandom", "explore"]
