"""Chaos campaign: soundness under seeded fault injection.

Not a paper table — the robustness artifact: a campaign of seeded fault
schedules across the microbenchmark corpus must stay perfectly clean
(zero false positives, zero invariant violations, idempotent
quiescence), and the resilient service must keep absorbing a downstream
outage while GOLF reclaims its residual leaks.

Scale: 100 schedules.
"""

from benchmarks.conftest import emit
from repro.chaos.report import run_chaos_campaign
from repro.service.resilience import ResilienceConfig, run_resilient_production

SEEDS = 100


def test_chaos_campaign_clean():
    report = run_chaos_campaign(seeds=SEEDS, scenario="mixed", base_seed=0)
    emit("chaos-campaign", report.format())

    assert report.false_positives == 0
    assert report.invariant_violations == 0
    assert report.non_idempotent == 0
    assert report.clean
    assert report.total_injected() > SEEDS // 2


def test_resilient_service_under_outage():
    result = run_resilient_production(
        ResilienceConfig(chaos_scenario="downstream-outage"))
    emit("chaos-resilience", (
        f"resilient service under downstream outage\n"
        f"  requests        : {result.total_requests}\n"
        f"  ok/failed/rej   : {result.outcomes['ok']}/"
        f"{result.outcomes['failed']}/{result.outcomes['rejected']}\n"
        f"  retries         : {result.retries}"
        f"  timeouts: {result.timeouts}\n"
        f"  breaker opens   : {result.breaker_opens}"
        f"  probes: {result.breaker_probes}\n"
        f"  leaks reported  : {result.deadlock_reports}"
        f"  reclaimed: {result.reclaimed}\n"
        f"  sites           : {', '.join(result.dedup_sites)}"))

    assert result.resilience_engaged
    assert result.breaker_opens > 0 and result.timeouts > 0
    assert result.deadlock_reports > 0
    assert result.reclaimed == result.deadlock_reports
    assert result.blocked_at_end == 0
