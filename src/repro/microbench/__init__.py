"""The microbenchmark corpus: 73 leaky programs, 121 leaky ``go`` sites.

Mirrors the suite used for the paper's RQ1(a)/Table 1: benchmarks derived
from GoBench ("goker") and from Saioc et al.'s leaky-pattern collection
("cgo-examples"), each annotated with the ``go`` instructions expected to
leak.  Flaky benchmarks reproduce their non-determinism through genuine
runtime races (select choice, timer/processor contention), so detection
rates vary with GOMAXPROCS and seed exactly as in the paper.
"""

from repro import lazy_exports

_EXPORTS = {
    "Microbenchmark": "registry",
    "all_benchmarks": "registry",
    "benchmarks_by_name": "registry",
    "correct_benchmarks": "registry",
    "ground_truth": "registry",
    "total_leaky_sites": "registry",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
