"""The resilient service layer: breaker, retry, deadline — plus GOLF.

Unit tests pin the circuit-breaker state machine and the backoff policy;
the integration tests run the resilient production service under
downstream chaos and check the acceptance property: the protective
machinery engages (retries, opens, timeouts) *and* GOLF still detects
and reclaims the service's residual Listing-7 leaks — resilience and
leak recovery compose, neither subsumes the other.
"""

from __future__ import annotations

import pytest

from repro.chaos.scenarios import get_scenario
from repro.runtime.clock import MILLISECOND, SECOND
from repro.service.resilience import (
    BreakerState,
    CircuitBreaker,
    ResilienceConfig,
    RetryPolicy,
    run_resilient_production,
)


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        b = CircuitBreaker()
        assert b.state == BreakerState.CLOSED
        assert b.allow(0)

    def test_opens_after_threshold_consecutive_failures(self):
        b = CircuitBreaker(failure_threshold=3)
        for i in range(2):
            b.record_failure(now_ns=i)
            assert b.state == BreakerState.CLOSED
        b.record_failure(now_ns=2)
        assert b.state == BreakerState.OPEN
        assert b.times_opened == 1

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(failure_threshold=3)
        b.record_failure(0)
        b.record_failure(1)
        b.record_success()
        b.record_failure(2)
        b.record_failure(3)
        assert b.state == BreakerState.CLOSED  # streak broken at 2

    def test_open_rejects_until_cooldown(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_ns=SECOND)
        b.record_failure(now_ns=0)
        assert not b.allow(SECOND // 2)
        assert b.rejected_calls == 1

    def test_half_open_probe_after_cooldown(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_ns=SECOND)
        b.record_failure(now_ns=0)
        assert b.allow(SECOND)  # the probe
        assert b.state == BreakerState.HALF_OPEN
        assert b.probes == 1
        # Concurrent callers are rejected while the probe is in flight.
        assert not b.allow(SECOND + 1)

    def test_successful_probe_closes(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_ns=SECOND)
        b.record_failure(0)
        assert b.allow(SECOND)
        b.record_success()
        assert b.state == BreakerState.CLOSED
        assert b.allow(SECOND + 1)

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        b = CircuitBreaker(failure_threshold=5, cooldown_ns=SECOND)
        for _ in range(5):
            b.record_failure(0)
        assert b.state == BreakerState.OPEN
        assert b.allow(SECOND)          # probe
        b.record_failure(SECOND)        # probe fails: re-open at once
        assert b.state == BreakerState.OPEN
        assert b.times_opened == 2
        assert not b.allow(SECOND + 1)  # cooldown restarted
        assert b.allow(2 * SECOND)


class TestRetryPolicy:
    def test_backoff_within_exponential_ceiling(self):
        p = RetryPolicy(max_attempts=5, base_ns=1000, seed=3)
        for attempt in range(5):
            ceiling = 1000 * (2.0 ** attempt)
            for _ in range(50):
                ns = p.backoff_ns(attempt)
                assert 1 <= ns <= ceiling

    def test_backoff_deterministic_per_seed(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        assert [a.backoff_ns(i % 3) for i in range(30)] == \
               [b.backoff_ns(i % 3) for i in range(30)]

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestResilientService:
    def test_downstream_chaos_retries_and_golf_reclaims(self):
        """Mild downstream chaos: retries engage, every residual
        Listing-7 leak is detected at a ``resilient/*`` site and
        reclaimed — the resilient call pattern itself leaks nothing."""
        result = run_resilient_production(ResilienceConfig())
        assert result.total_requests > 100
        assert result.outcomes["ok"] > 0
        assert result.retries > 0
        assert result.resilience_engaged
        # GOLF found the handler defect, not the resilience machinery.
        assert result.deadlock_reports > 0
        assert result.reclaimed == result.deadlock_reports
        assert result.dedup_sites
        for site in result.dedup_sites:
            assert site.startswith("resilient/"), site
        assert result.blocked_at_end == 0

    def test_outage_trips_breaker_and_golf_still_reclaims(self):
        """A hard outage: timeouts blow deadlines, the breaker opens and
        sheds load, and GOLF keeps reclaiming the residual leaks."""
        result = run_resilient_production(
            ResilienceConfig(chaos_scenario="downstream-outage"))
        assert result.timeouts > 0
        assert result.breaker_opens > 0
        assert result.breaker_rejected > 0
        assert result.outcomes["rejected"] > 0
        assert result.breaker_probes > 0  # recovery was attempted
        assert result.deadlock_reports > 0
        assert result.reclaimed == result.deadlock_reports
        assert result.blocked_at_end == 0

    def test_run_is_reproducible(self):
        config = ResilienceConfig(hours=0.1)
        a = run_resilient_production(config)
        b = run_resilient_production(ResilienceConfig(hours=0.1))
        assert (a.total_requests, a.outcomes, a.retries, a.timeouts,
                a.breaker_opens, a.deadlock_reports, a.reclaimed) == \
               (b.total_requests, b.outcomes, b.retries, b.timeouts,
                b.breaker_opens, b.deadlock_reports, b.reclaimed)

    def test_healthy_downstream_leaves_breaker_closed(self):
        """With no downstream chaos (a scenario whose fail/slow rates
        are zero) the breaker never opens and no request fails — the
        baseline control."""
        quiet = get_scenario("gc-chaos")
        assert quiet.downstream_fail_rate == quiet.downstream_slow_rate == 0
        result = run_resilient_production(
            ResilienceConfig(hours=0.1, chaos_scenario="gc-chaos"))
        assert result.breaker_opens == 0
        assert result.outcomes["failed"] == 0
        assert result.outcomes["rejected"] == 0
        assert result.retries == 0
        # The Listing-7 defect is still there regardless of chaos.
        assert result.deadlock_reports > 0
        assert result.reclaimed == result.deadlock_reports
