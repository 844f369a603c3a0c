"""repro — a reproduction of GOLF (ASPLOS 2025).

GOLF ("Goroutine Leak Fixer") extends the Go garbage collector to detect
and recover *partial deadlocks* — goroutines blocked forever on channel or
``sync`` operations — by observing that memory reachability soundly
over-approximates the liveness of concurrency operations.

This package rebuilds the whole stack in Python:

- :mod:`repro.runtime` — a deterministic Go-like runtime: goroutines,
  channels, ``select``, the ``sync`` package, virtual time and
  GOMAXPROCS-style virtual processors;
- :mod:`repro.gc` — a tricolor mark-and-sweep collector over an explicit
  heap, with Go-flavored pacing and MemStats;
- :mod:`repro.core` — the GOLF extension: the reachable-liveness fixpoint,
  address masking, deadlock reports, and two-cycle recovery;
- :mod:`repro.baselines` — analogs of the comparators used in the paper's
  evaluation (goleak, LeakProf);
- :mod:`repro.microbench`, :mod:`repro.corpus`, :mod:`repro.service`,
  :mod:`repro.experiments` — the workloads and harnesses that regenerate
  every table and figure of the evaluation.

Entry point: :class:`repro.Runtime`.
"""

from importlib import import_module

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict):
    """A PEP 562 module ``__getattr__`` for ``package``'s re-exports.

    ``exports`` maps each public name to the submodule (relative to
    ``package``) that defines it.  A name is imported on first use and
    then cached on the package, so importing a package loads none of
    the submodules its callers never touch.
    """
    def __getattr__(name):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        setattr(import_module(package), name, value)
        return value
    return __getattr__


_EXPORTS = {
    "Runtime": "runtime.api",
    "GolfConfig": "core.config",
    "DeadlockReport": "core.reports",
    "ReportLog": "core.reports",
    "ReproError": "errors",
    "GoPanic": "errors",
    "GlobalDeadlockError": "errors",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__ = lazy_exports(__name__, _EXPORTS)
