"""Tests for the service workload simulators (scaled-down configs)."""

import pytest

from repro.service.controlled import ControlledConfig, run_controlled
from repro.service.longrun import HOLIDAYS, LongRunConfig, run_longrun
from repro.service.production import ENDPOINTS, ProductionConfig, run_production
from repro.service.stats import latency_summary, mean_std, percentile


class TestStatsHelpers:
    def test_percentile_interpolates(self):
        values = [0, 10, 20, 30, 40]
        assert percentile(values, 0.5) == 20
        assert percentile(values, 0.25) == 10
        assert percentile(values, 0.0) == 0
        assert percentile(values, 1.0) == 40
        assert percentile([], 0.5) == 0.0

    def test_mean_std(self):
        mean, std = mean_std([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert mean == 5.0
        assert std == pytest.approx(2.0)
        assert mean_std([]) == (0.0, 0.0)

    def test_latency_summary_keys(self):
        summary = latency_summary([int(1e6), int(2e6), int(3e6)])
        assert summary["count"] == 3
        assert summary["p50_ms"] == pytest.approx(2.0)
        assert summary["max_ms"] == pytest.approx(3.0)


def _fast_controlled(leak_rate, golf):
    config = ControlledConfig(
        leak_rate=leak_rate, duration_s=4, warmup_s=1, connections=8,
        map_entries=10_000, seed=5,
    )
    return run_controlled(config, golf=golf)


class TestControlledService:
    def test_clean_service_serves_requests(self):
        result = _fast_controlled(0.0, golf=True)
        assert result.completed > 50
        assert result.throughput_rps > 5
        assert result.latency["p50_ms"] > 300  # downstream dominates
        assert result.deadlocks_detected == 0

    def test_golf_reclaims_leaks(self):
        base = _fast_controlled(0.25, golf=False)
        golf = _fast_controlled(0.25, golf=True)
        assert golf.deadlocks_detected > 0
        assert golf.goroutines_reclaimed == golf.deadlocks_detected
        assert base.deadlocks_detected == 0
        # Memory: baseline keeps leaked maps, GOLF frees them.
        assert base.memstats["heap_alloc"] > 10 * golf.memstats["heap_alloc"]

    def test_leak_rate_bounds_validated(self):
        with pytest.raises(ValueError):
            ControlledConfig(leak_rate=1.5)

    def test_row_contains_papers_metrics(self):
        result = _fast_controlled(0.0, golf=True)
        row = result.row()
        for key in ("throughput_rps", "p99_ms", "heap_alloc_mb",
                    "gc_cpu_fraction", "num_gc", "pause_per_cycle_ns"):
            assert key in row


class TestProductionService:
    def test_emits_metric_samples(self):
        result = run_production(
            ProductionConfig(hours=0.5, seed=3), golf=True)
        assert len(result.samples) >= 9  # one per 3 virtual minutes
        assert all(s.p50_ms > 0 for s in result.samples)
        assert all(0 <= s.cpu_percent <= 100 for s in result.samples)

    def test_golf_finds_three_sites(self):
        config = ProductionConfig(hours=1.0, leak_every=120, seed=3)
        result = run_production(config, golf=True)
        assert result.deadlock_reports > 0
        assert result.dedup_sites == sorted(
            f"prod/{name}" for name in ENDPOINTS)

    def test_baseline_reports_nothing(self):
        config = ProductionConfig(hours=0.5, leak_every=120, seed=3)
        result = run_production(config, golf=False)
        assert result.deadlock_reports == 0

    def test_summary_shape(self):
        result = run_production(ProductionConfig(hours=0.3, seed=3))
        summary = result.summary()
        assert set(summary) == {
            "p50_latency_ms", "p99_latency_ms", "cpu_percent_p50"}
        mean, std = summary["p50_latency_ms"]
        assert mean > 0 and std >= 0


class TestLongRunService:
    def _fast_config(self, **overrides):
        defaults = dict(days=7, requests_per_hour=40, leak_every=4,
                        procs=2, seed=6)
        defaults.update(overrides)
        return LongRunConfig(**defaults)

    def test_blocked_count_grows_without_golf(self):
        result = run_longrun(self._fast_config(), golf=False)
        assert result.peak() > 50
        assert len(result.series) == 7 * 24

    def test_weekend_exceeds_weekday_evenings(self):
        result = run_longrun(self._fast_config(), golf=False)
        assert result.weekend_peak() > result.weekday_evening_mean()

    def test_redeploys_reset_the_count(self):
        result = run_longrun(self._fast_config(), golf=False)
        by_hour = dict(result.series)
        for hour in result.redeploys:
            # The sample at the redeploy hour is far below the peak.
            assert by_hour[hour] < result.peak() / 2

    def test_golf_keeps_count_flat(self):
        leaking = run_longrun(self._fast_config(), golf=False)
        fixed = run_longrun(self._fast_config(), golf=True)
        assert fixed.peak() < leaking.peak() / 5
        assert fixed.total_reports > 0

    def test_holidays_skip_redeploys(self):
        # The holiday (days 10 and 11, a Thursday and a Friday) falls in
        # the second week.
        result = run_longrun(self._fast_config(days=14, requests_per_hour=4),
                             golf=False)
        redeploy_days = {h // 24 for h in result.redeploys}
        assert not redeploy_days & HOLIDAYS
        assert {7, 9} <= redeploy_days

    def test_weekend_days_never_redeploy(self):
        result = run_longrun(self._fast_config(), golf=False)
        assert all((h // 24) % 7 < 5 for h in result.redeploys)
