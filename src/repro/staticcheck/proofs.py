"""The runtime's registry of channels proven leak-free.

The behavioral engine (:mod:`repro.staticcheck.behavior`) proves
individual channels leak-free by exhaustively exploring the closed
trace-term composition of an entry function.  :class:`ProofRegistry`
is the runtime side of the fusion: it holds the ``(make-site,
capacity)`` keys of the ``PROVEN`` verdicts so that ``make_chan`` can
tag freshly-allocated channels as :attr:`Channel.proven_leak_free
<repro.runtime.channel.Channel>`.  The GOLF detector then treats
goroutines blocked *only* on proven channels as live without scanning
(see ``repro.core.detector``).  A registry lives in memory only: it is
built from analyses in the process that installs it.

Soundness of the site-keyed match requires one care: a make-site proven
leak-free under entry A may be unproven under entry B (the proof is a
whole-program property).  The registry therefore *demotes* any site that
is non-proven in **any** analysis loaded into it — a registry built from
several entry points only keeps sites proven under every one of them.
In practice registries are built per program (one entry), where the
proof applies exactly.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Set, Tuple

from repro.staticcheck.behavior import PROVEN, BehaviorAnalysis


def normalize_site(site: str) -> str:
    """Canonical ``file:line`` key: absolute real path, cwd-independent.

    The extractor records cwd-relative paths while the runtime records
    absolute ``co_filename`` paths; both normalize to the same key.
    """
    file, sep, line = site.rpartition(":")
    if not sep:
        return site
    return f"{os.path.realpath(os.path.abspath(file))}:{line}"


class ProofRegistry:
    """The proven ``(make-site, capacity)`` keys, for the runtime.

    Sites are keyed by :func:`normalize_site`.  Loading an analysis adds
    its proofs *and* demotes any site the analysis could not prove —
    demotion is sticky, so a registry spanning several entries only
    keeps universally-proven sites.  A site demoted at unknown capacity
    (``None``) is demoted at every capacity.
    """

    __slots__ = ("_proven", "_demoted")

    def __init__(self) -> None:
        self._proven: Set[Tuple[str, int]] = set()
        self._demoted: Set[Tuple[str, Optional[int]]] = set()

    def __len__(self) -> int:
        return len(self._proven)

    def demote(self, make_site: str, capacity: Optional[int]) -> None:
        """Permanently reject a site (non-proven under some entry)."""
        site = normalize_site(make_site)
        self._demoted.add((site, capacity))
        if capacity is None:
            self._proven = {key for key in self._proven if key[0] != site}
        else:
            self._proven.discard((site, capacity))

    def add_analysis(self, analysis: BehaviorAnalysis) -> int:
        """Load every verdict of ``analysis``; returns proofs accepted."""
        for verdict in analysis.verdicts:
            if verdict.verdict != PROVEN:
                self.demote(verdict.make_site, verdict.capacity)
        accepted = 0
        for verdict in analysis.proven:
            if verdict.capacity is None:
                continue
            site = normalize_site(verdict.make_site)
            key = (site, verdict.capacity)
            if key in self._demoted or (site, None) in self._demoted:
                continue
            self._proven.add(key)
            accepted += 1
        return accepted

    def is_proven(self, make_site: str, capacity: int) -> bool:
        """Runtime-side lookup used by ``make_chan`` tagging."""
        return (normalize_site(make_site), capacity) in self._proven

    def proven_sites(self) -> List[Tuple[str, int]]:
        return sorted(self._proven)


def build_registry(analyses: Iterable[BehaviorAnalysis]) -> ProofRegistry:
    """Registry over several analyses (universally-proven sites only)."""
    registry = ProofRegistry()
    for analysis in analyses:
        registry.add_analysis(analysis)
    return registry
