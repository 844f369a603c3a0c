"""A LeakProf analog: production goroutine-profile heuristics.

LeakProf (Saioc & Chabbi, 2022) periodically pulls goroutine profiles
from running services and flags *source locations* where many goroutines
are blocked on the same concurrency operation.  It is featherlight but —
unlike GOLF — unsound in both directions:

- **false positives**: a site may legitimately have many blocked
  goroutines (a worker pool parked on a job channel);
- **false negatives**: a slow leak never crosses the threshold within
  the observation window.

The class accumulates samples so experiments can demonstrate both
failure modes against GOLF's by-construction true positives.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.runtime.api import Runtime


class LeakProfFinding:
    """A site flagged as suspicious by the profiler."""

    __slots__ = ("block_site", "wait_reason", "max_blocked", "samples_over")

    def __init__(self, block_site: str, wait_reason: str,
                 max_blocked: int, samples_over: int):
        self.block_site = block_site
        self.wait_reason = wait_reason
        self.max_blocked = max_blocked
        self.samples_over = samples_over

    def __repr__(self) -> str:
        return (
            f"<leakprof {self.block_site} [{self.wait_reason}] "
            f"max={self.max_blocked}>"
        )


#: Minimum number of goroutines blocked at the same source location for
#: the site to be flagged (LeakProf's deployment used a large threshold
#: to limit noise).
THRESHOLD = 10


class LeakProf:
    """Periodic goroutine-profile sampler with a concentration threshold."""

    def __init__(self):
        #: One entry per sample: {(site, reason): blocked count}.
        self.samples: List[Dict[Tuple[str, str], int]] = []

    def sample(self, rt: Runtime) -> Dict[Tuple[str, str], int]:
        """Take one goroutine profile of the runtime (by blocking site)."""
        profile: Dict[Tuple[str, str], int] = {}
        for g in rt.sched.blocked_goroutines():
            if g.is_system or not g.is_blocked_detectably:
                continue
            key = (g.block_site(), g.wait_reason.value)
            profile[key] = profile.get(key, 0) + 1
        self.samples.append(profile)
        return profile

    def findings(self) -> List[LeakProfFinding]:
        """Sites whose blocked-goroutine count ever crossed the threshold."""
        peak: Dict[Tuple[str, str], int] = {}
        over: Dict[Tuple[str, str], int] = {}
        for profile in self.samples:
            for key, count in profile.items():
                peak[key] = max(peak.get(key, 0), count)
                if count >= THRESHOLD:
                    over[key] = over.get(key, 0) + 1
        return [
            LeakProfFinding(site, reason, peak[(site, reason)],
                            over[(site, reason)])
            for (site, reason) in over
        ]
