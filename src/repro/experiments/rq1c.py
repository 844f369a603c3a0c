"""RQ1(c): GOLF on a real service for 24 hours.

The paper deployed GOLF on **five instances** of a production Uber
service and found 252 individual partial deadlocks over 24 hours, which
narrowed to exactly three defective source locations (all the Listing 7
shape).  This driver runs that many independent instances of the
production simulator (each with its own seed, as separate containers
would be) and aggregates their reports through the shared "logging
infrastructure" the paper describes.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

from repro.service.production import ProductionConfig, run_production


class RQ1cResult:
    """Aggregated report tally and deduplicated source locations."""

    def __init__(self, individual_reports: int, sites: List[str],
                 hours: float, total_requests: int, instances: int,
                 per_instance: Optional[Dict[int, int]] = None):
        self.individual_reports = individual_reports
        self.sites = sites
        self.hours = hours
        self.total_requests = total_requests
        self.instances = instances
        self.per_instance = per_instance or {}

    @property
    def distinct_sources(self) -> int:
        return len(self.sites)

    def reports_per_24h(self) -> float:
        return self.individual_reports * 24.0 / self.hours


def run_rq1c(config: Optional[ProductionConfig] = None,
             instances: int = 1) -> RQ1cResult:
    """Run ``instances`` independent service instances and aggregate.

    With ``instances=5`` this matches the paper's deployment; the
    default of 1 keeps the benchmark harness fast (the per-24h rate is
    calibrated for a single instance — scale ``leak_every`` accordingly
    when fanning out).
    """
    config = config or ProductionConfig(hours=24.0)
    total_reports = 0
    total_requests = 0
    sites: set = set()
    per_instance: Dict[int, int] = {}
    for instance in range(instances):
        instance_config = copy.copy(config)
        instance_config.seed = config.seed + 7919 * instance
        result = run_production(instance_config, golf=True)
        per_instance[instance] = result.deadlock_reports
        total_reports += result.deadlock_reports
        total_requests += result.total_requests
        sites.update(result.dedup_sites)
    return RQ1cResult(
        individual_reports=total_reports,
        sites=sorted(sites),
        hours=config.hours,
        total_requests=total_requests,
        instances=instances,
        per_instance=per_instance,
    )


def format_rq1c(result: RQ1cResult) -> str:
    lines = [
        f"Observation window: {result.hours:.0f} h x "
        f"{result.instances} instance(s) "
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
