"""Comparator detectors from the paper's evaluation.

Two dynamic points in the detector design space: goleak (end-of-test)
and LeakProf (sampling, production).  The static point is ``repro vet``
(:mod:`repro.staticcheck`).
"""

from repro.baselines.goleak import (
    GoleakRecord,
    LeakAssertionError,
    find_leaks,
    verify_none,
)
from repro.baselines.leakprof import LeakProf

__all__ = [
    "GoleakRecord",
    "LeakAssertionError",
    "find_leaks",
    "verify_none",
    "LeakProf",
]
