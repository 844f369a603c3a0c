"""GFuzz x GOLF: exploring select orderings to surface rare leaks.

GFuzz (Liu et al., ASPLOS 2022) finds Go concurrency bugs by *forcing
the order in which select cases fire*, steering execution down paths the
default runtime rarely takes.  GOLF detects leaks soundly but only on
executions that actually happen.  The combination — run the program
under a family of select-preference profiles, let GOLF judge each
execution — gets the best of both: exploration from GFuzz, zero false
positives from GOLF.

The scheduler exposes a ``select_policy`` hook (called with the ready
case indices of each select); a :class:`SelectProfile` implements a
deterministic preference derived from a profile id, so the whole fuzzing
session is reproducible.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set

from repro.core.config import GolfConfig
from repro.errors import ReproError
from repro.runtime.api import Runtime
from repro.runtime.clock import MILLISECOND

#: Virtual time each profile runs for, and the interval of the detection
#: daemon fuzz mode starts on every profile.
BUDGET_NS = 50 * MILLISECOND
DAEMON_INTERVAL_MS = 5.0


class SelectProfile:
    """A deterministic select-case preference.

    ``profile_id`` seeds a simple rotation: the n-th select executed in
    the run prefers ready case ``(profile_id + n) % len(ready)``.  Across
    profiles this systematically covers orderings that uniform random
    choice visits only occasionally.
    """

    def __init__(self, profile_id: int):
        self.profile_id = profile_id
        self._select_count = 0

    def choose(self, ready: List[int]) -> int:
        index = (self.profile_id + self._select_count) % len(ready)
        self._select_count += 1
        return ready[index]

    def __repr__(self) -> str:
        return f"<select-profile {self.profile_id}>"


class FuzzResult:
    """Outcome of a fuzzing session."""

    def __init__(self) -> None:
        #: profile id -> labels detected under that profile.
        self.by_profile: Dict[int, Set[str]] = {}
        #: profile id -> run status ("main-exited", "panic", ...).
        self.statuses: Dict[int, str] = {}

    @property
    def union(self) -> Set[str]:
        all_labels: Set[str] = set()
        for labels in self.by_profile.values():
            all_labels |= labels
        return all_labels

    def profiles_detecting(self, label: str) -> List[int]:
        return sorted(
            pid for pid, labels in self.by_profile.items() if label in labels
        )

    def exclusive_finds(self) -> Set[str]:
        """Labels found by some but not all profiles — the orderings
        fuzzing exists to surface."""
        exclusive = set()
        total = len(self.by_profile)
        for label in self.union:
            if len(self.profiles_detecting(label)) < total:
                exclusive.add(label)
        return exclusive

    def __repr__(self) -> str:
        return (
            f"<fuzz profiles={len(self.by_profile)} "
            f"union={sorted(self.union)}>"
        )


def fuzz_program(
    main_factory: Callable[[], Callable],
    profiles: int = 8,
) -> FuzzResult:
    """Run ``main_factory()`` under ``profiles`` select orderings.

    ``main_factory`` must return a *fresh* main generator function per
    call (programs are single-use).  Profile ``i`` runs on two
    processors with seed ``i``, under GOLF with recovery and two forced
    end-of-run GC cycles; detected deadlock labels are aggregated per
    profile.

    Fuzz mode starts the detection daemon on every profile: leaks
    manifest mid-run under whichever ordering exposed them, and the
    timer-driven fixpoint reports them before the end-of-run GC —
    short-budget runs can't time out before detection.
    """
    if profiles < 1:
        raise ValueError("need at least one profile")
    result = FuzzResult()
    for profile_id in range(profiles):
        rt = Runtime(procs=2, seed=profile_id, config=GolfConfig())
        rt.sched.select_policy = SelectProfile(profile_id).choose
        rt.spawn_main(main_factory())
        rt.detect_partial_deadlock(interval_ms=DAEMON_INTERVAL_MS)
        try:
            status = rt.run(until_ns=BUDGET_NS, max_instructions=2_000_000)
        except ReproError as err:
            status = f"error: {err}"
        finally:
            rt.stop_partial_deadlock_detection()
        if not status.startswith("error"):
            rt.gc_until_quiescent()
        result.statuses[profile_id] = status
        result.by_profile[profile_id] = {
            r.label for r in rt.reports if r.label
        }
    return result
