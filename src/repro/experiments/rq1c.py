"""RQ1(c): GOLF on a real service for 24 hours.

The paper deployed GOLF on five instances of a production Uber service
and found 252 individual partial deadlocks over 24 hours, which
narrowed to exactly three defective source locations (all the Listing 7
shape).  This driver runs one instance of the production simulator,
with the leak cadence calibrated to the paper's rate, and deduplicates
its reports by source location.
"""

from __future__ import annotations

from typing import List, Optional

from repro.service.production import ProductionConfig, run_production


class RQ1cResult:
    """Report tally and deduplicated source locations."""

    def __init__(self, individual_reports: int, sites: List[str],
                 hours: float, total_requests: int):
        self.individual_reports = individual_reports
        self.sites = sites
        self.hours = hours
        self.total_requests = total_requests

    @property
    def distinct_sources(self) -> int:
        return len(self.sites)

    def reports_per_24h(self) -> float:
        return self.individual_reports * 24.0 / self.hours


def run_rq1c(config: Optional[ProductionConfig] = None) -> RQ1cResult:
    """Run one service instance and deduplicate its reports."""
    config = config or ProductionConfig(hours=24.0)
    result = run_production(config, golf=True)
    return RQ1cResult(
        individual_reports=result.deadlock_reports,
        sites=sorted(set(result.dedup_sites)),
        hours=config.hours,
        total_requests=result.total_requests,
    )


def format_rq1c(result: RQ1cResult) -> str:
    lines = [
        f"Observation window: {result.hours:.0f} h x 1 instance(s) "
        f"({result.total_requests} requests served)",
        f"Individual partial deadlocks detected: "
        f"{result.individual_reports} "
        f"(≈{result.reports_per_24h():.0f} per 24 h; paper: 252)",
        f"Distinct defective source locations: "
        f"{result.distinct_sources} (paper: 3)",
    ]
    for site in result.sites:
        lines.append(f"  - {site}")
    return "\n".join(lines)
