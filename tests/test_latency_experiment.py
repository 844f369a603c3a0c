"""Tests for the detection-latency experiment."""

import pytest

from repro.experiments.latency import (
    format_latency_sweep,
    run_detection_latency,
    run_latency_sweep,
)


class TestSingleSetting:
    @pytest.fixture(scope="class")
    def result(self):
        return run_detection_latency(gc_interval_ms=2.0, detect_every=1,
                                     leaks=30)

    def test_every_leak_detected(self, result):
        assert result.detected == result.leaks == 30

    def test_latency_bounded_by_interval(self, result):
        # With detection every cycle, worst-case lag is about one GC
        # interval (plus scheduling slack).
        assert result.p99_ms() <= 2.0 * 1.5
        assert 0 < result.mean_ms() <= 2.0

    def test_latencies_positive(self, result):
        assert all(lat > 0 for lat in result.latencies_ns)


class TestSweep:
    def test_cadence_multiplies_latency(self):
        fast = run_detection_latency(gc_interval_ms=1.0, detect_every=1,
                                     leaks=30)
        slow = run_detection_latency(gc_interval_ms=1.0, detect_every=4,
                                     leaks=30)
        assert slow.detected == fast.detected == 30
        assert slow.mean_ms() > 1.5 * fast.mean_ms()

    def test_sweep_and_formatter(self):
        results = run_latency_sweep(gc_intervals_ms=(1.0,),
                                    cadences=(1, 2), leaks=20)
        text = format_latency_sweep(results)
        assert "gc interval" in text
        assert "20/20" in text
