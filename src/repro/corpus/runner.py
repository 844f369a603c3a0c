"""Corpus execution: run package test suites under GOLF + goleak.

Per the paper's RQ1(b) methodology: GOLF runs in monitor-only mode (no
reclamation) so goleak and GOLF observe the same execution; goleak
inspects the lingering goroutines when the suite ends; reports are
compared both as raw individual counts and deduplicated by site.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.goleak import find_leaks
from repro.core.config import GolfConfig
from repro.corpus.generator import CorpusConfig, PackageSpec, generate_corpus
from repro.runtime.api import Runtime
from repro.runtime.clock import MICROSECOND, MILLISECOND
from repro.runtime.instructions import Recv, RunGC, Send, Sleep, MakeChan

#: Virtual settle time after each test, letting spawned leaks park.
TEST_SETTLE_NS = 50 * MICROSECOND


class PackageResult:
    """Per-package tallies: individual leak counts by site label."""

    __slots__ = ("package", "goleak_by_site", "golf_by_site", "status")

    def __init__(self, package: str):
        self.package = package
        self.goleak_by_site: Dict[str, int] = {}
        self.golf_by_site: Dict[str, int] = {}
        self.status = ""

    def __repr__(self) -> str:
        return (
            f"<package {self.package} goleak={sum(self.goleak_by_site.values())} "
            f"golf={sum(self.golf_by_site.values())}>"
        )


class CorpusResult:
    """Aggregated corpus tallies and the Figure 3 ratio curve."""

    def __init__(self) -> None:
        self.packages: List[PackageResult] = []
        self.goleak_by_site: Dict[str, int] = {}
        self.golf_by_site: Dict[str, int] = {}

    def record(self, pr: PackageResult) -> None:
        self.packages.append(pr)
        for site, count in pr.goleak_by_site.items():
            self.goleak_by_site[site] = self.goleak_by_site.get(site, 0) + count
        for site, count in pr.golf_by_site.items():
            self.golf_by_site[site] = self.golf_by_site.get(site, 0) + count

    # -- headline numbers (paper section 6.2, RQ1(b)) ---------------------

    @property
    def goleak_total(self) -> int:
        return sum(self.goleak_by_site.values())

    @property
    def golf_total(self) -> int:
        return sum(self.golf_by_site.values())

    @property
    def goleak_dedup(self) -> int:
        return len(self.goleak_by_site)

    @property
    def golf_dedup(self) -> int:
        return len(self.golf_by_site)

    @property
    def individual_ratio(self) -> float:
        return self.golf_total / max(1, self.goleak_total)

    @property
    def dedup_ratio(self) -> float:
        return self.golf_dedup / max(1, self.goleak_dedup)

    def ratio_curve(self) -> List[float]:
        """Per-deduplicated-GOLF-report detection ratio, sorted
        descending — the Figure 3 series."""
        ratios = []
        for site, golf_count in self.golf_by_site.items():
            goleak_count = self.goleak_by_site.get(site, golf_count)
            ratios.append(min(1.0, golf_count / max(1, goleak_count)))
        return sorted(ratios, reverse=True)

    def area_under_curve(self) -> float:
        """Mean per-report ratio (the paper infers 82% via AUC)."""
        curve = self.ratio_curve()
        return sum(curve) / len(curve) if curve else 0.0

    def fully_found_fraction(self) -> float:
        """Fraction of GOLF dedup reports where GOLF found *all* the
        individual leaks goleak found (paper: 103/180 = 55%)."""
        curve = self.ratio_curve()
        if not curve:
            return 0.0
        return sum(1 for r in curve if r >= 1.0) / len(curve)


def run_package(pkg: PackageSpec, seed: int = 0) -> PackageResult:
    """Run one package's test suite under monitor-only GOLF + goleak,
    on four processors."""
    result = PackageResult(pkg.name)
    rt = Runtime(procs=4, seed=seed, config=GolfConfig.monitor_only())

    def suite_main():
        for test in pkg.tests:
            if test.site is not None:
                yield from test.site.leak_body()()
            else:
                # A clean test: a round of real channel traffic.
                ch = yield MakeChan(1)
                yield Send(ch, "ok")
                yield Recv(ch)
            yield Sleep(TEST_SETTLE_NS)
            if test.gc_after:
                yield RunGC()

    rt.spawn_main(suite_main)
    result.status = rt.run(until_ns=200 * MILLISECOND,
                           max_instructions=2_000_000)

    for report in rt.reports:
        if report.label:
            result.golf_by_site[report.label] = (
                result.golf_by_site.get(report.label, 0) + 1
            )
    for record in find_leaks(rt):
        if record.label:
            result.goleak_by_site[record.label] = (
                result.goleak_by_site.get(record.label, 0) + 1
            )
    return result


def run_corpus(config: Optional[CorpusConfig] = None) -> CorpusResult:
    """Generate and run the whole corpus; returns aggregate tallies."""
    config = config or CorpusConfig()
    _, packages = generate_corpus(config)
    result = CorpusResult()
    for i, pkg in enumerate(packages):
        result.record(run_package(pkg, seed=config.seed + i))
    return result
