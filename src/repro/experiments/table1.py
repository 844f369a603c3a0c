"""Table 1: microbenchmark detection rates by virtual core count.

Runs every microbenchmark ``runs`` times under each GOMAXPROCS
configuration and tallies, per annotated leaky ``go`` site, the number of
runs in which GOLF reported a partial deadlock there.  The formatter
prints the paper's table: one row per flaky site, a collapsed "remaining"
row for sites detected in 100% of runs, and the aggregated detection
percentage per configuration.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.microbench.harness import run_microbenchmark
from repro.microbench.registry import all_benchmarks

#: The paper's GOMAXPROCS configurations.
PROCS = (1, 2, 4, 10)


class Table1Result:
    """Detection counts per (site, core count)."""

    def __init__(self, runs: int, procs_list: Sequence[int]):
        self.runs = runs
        self.procs_list = tuple(procs_list)
        #: site label -> {procs: detections}
        self.counts: Dict[str, Dict[int, int]] = {}
        #: Detections at a site the benchmark does not declare.
        self.unexpected = 0
        self.panics = 0
        self.total_runs = 0

    def record(self, sites: Sequence[str], procs: int,
               detected: Iterable[str]) -> None:
        """Tally one run: each declared site the run detected, and every
        detection at a site outside ``sites``."""
        for site in sites:
            self.counts.setdefault(site, {p: 0 for p in self.procs_list})
        for site in detected:
            if site in sites:
                self.counts[site][procs] += 1
            else:
                self.unexpected += 1

    def site_rate(self, site: str) -> float:
        """Detection rate for one site across all configurations."""
        row = self.counts.get(site)
        if not row:
            return 0.0
        return sum(row.values()) / (self.runs * len(self.procs_list))

    def aggregated(self, procs: Optional[int] = None) -> float:
        """Aggregate detection rate (per core count, or overall)."""
        if not self.counts:
            return 0.0
        if procs is None:
            total = sum(sum(row.values()) for row in self.counts.values())
            denom = self.runs * len(self.procs_list) * len(self.counts)
        else:
            total = sum(row[procs] for row in self.counts.values())
            denom = self.runs * len(self.counts)
        return total / denom

    def perfect_sites(self) -> List[str]:
        return [s for s in sorted(self.counts) if self.site_rate(s) >= 1.0]

    def imperfect_sites(self) -> List[str]:
        return [s for s in sorted(self.counts) if self.site_rate(s) < 1.0]

    def detected_at_least_once(self) -> int:
        return sum(
            1 for row in self.counts.values() if sum(row.values()) > 0
        )


def run_table1(runs: int = 100) -> Table1Result:
    """Execute the Table 1 experiment.

    ``runs=100`` matches the paper; smaller values give a faster,
    noisier table.
    """
    result = Table1Result(runs, PROCS)
    for bench in all_benchmarks():
        for procs in PROCS:
            for run in range(runs):
                seed = run * 7919 + procs * 104729
                outcome = run_microbenchmark(bench, procs=procs, seed=seed)
                result.total_runs += 1
                if outcome.panic is not None:
                    result.panics += 1
                result.record(bench.sites, procs, outcome.detected)
    return result


def format_table1(result: Table1Result) -> str:
    """Render the paper-style table."""
    lines = []
    header = (
        f"{'Benchmark line':34s} "
        + " ".join(f"{p:>4d}" for p in result.procs_list)
        + f" {'Total':>8s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for site in result.imperfect_sites():
        row = result.counts[site]
        cells = " ".join(f"{row[p]:>4d}" for p in result.procs_list)
        lines.append(
            f"{site:34s} {cells} {result.site_rate(site):>7.2%}"
        )
    perfect = result.perfect_sites()
    if perfect:
        lines.append(
            f"Remaining {len(perfect)} go instructions"
            f"{'':<{max(1, 34 - 24 - len(str(len(perfect))))}s}"
            f" {'100.00%':>28s}"
        )
    agg = " ".join(
        f"{result.aggregated(p):>4.0%}" for p in result.procs_list
    )
    lines.append(f"{'Aggregated (%)':34s} {agg} {result.aggregated():>7.2%}")
    lines.append(
        f"Sites detected at least once: "
        f"{result.detected_at_least_once()}/{len(result.counts)}"
    )
    if result.panics:
        lines.append(
            f"[runtime failure] in {result.panics}/{result.total_runs} runs"
        )
    if result.unexpected:
        lines.append(
            f"Unexpected DL: {result.unexpected} detection(s) at "
            f"undeclared sites"
        )
    return "\n".join(lines)
