"""Tests for leak-rate forecasting over blocked-goroutine series."""

import pytest

from repro.analysis import (
    DeployWindow,
    forecast_series,
    split_deploy_windows,
)
from repro.service.longrun import LongRunConfig, run_longrun


def _linear_series(start_hour, hours, rate, base=0):
    return [(start_hour + h, int(base + rate * h)) for h in range(hours)]


class TestDeployWindow:
    def test_fits_slope(self):
        window = DeployWindow(0, 10, _linear_series(0, 10, rate=5))
        assert window.rate_per_hour == pytest.approx(5.0, abs=0.01)

    def test_flat_series_zero_rate(self):
        window = DeployWindow(0, 10, [(h, 7) for h in range(10)])
        assert window.rate_per_hour == pytest.approx(0.0, abs=1e-9)

    def test_single_sample_no_fit(self):
        window = DeployWindow(0, 1, [(0, 3)])
        assert window.rate_per_hour == 0.0


class TestSplitWindows:
    def test_splits_at_redeploys(self):
        series = _linear_series(0, 24, 2) + _linear_series(24, 24, 2)
        windows = split_deploy_windows(series, redeploys=[24])
        assert len(windows) == 2
        assert windows[0].start_hour == 0 and windows[0].end_hour == 24
        assert windows[1].start_hour == 24

    def test_no_redeploys_one_window(self):
        series = _linear_series(0, 12, 1)
        assert len(split_deploy_windows(series, [])) == 1

    def test_short_chunks_skipped(self):
        series = _linear_series(0, 3, 1)
        windows = split_deploy_windows(series, redeploys=[1, 2])
        # hour-0 and hour-1 chunks have a single sample each.
        assert all(len(w.samples) >= 2 for w in windows)


class TestForecast:
    def test_detects_synthetic_leak(self):
        series = _linear_series(0, 48, rate=12)
        forecast = forecast_series(series, threshold=1200)
        assert forecast.leaking
        assert forecast.rate_per_hour == pytest.approx(12.0, abs=0.1)
        assert forecast.hours_to_threshold == pytest.approx(100.0, rel=0.05)
        assert "LEAKING" in forecast.format()

    def test_flat_service_not_leaking(self):
        series = [(h, 20) for h in range(48)]
        forecast = forecast_series(series)
        assert not forecast.leaking
        assert "not leaking" in forecast.format()

    def test_median_across_windows_robust_to_one_spike(self):
        normal = _linear_series(0, 24, rate=0)
        spike = _linear_series(24, 24, rate=50, base=0)
        forecast = forecast_series(normal + spike, redeploys=[24])
        # Median of {0, 50} windows: one incident doesn't flip the verdict
        # on its own, but the rate reflects both.
        assert len(forecast.windows) == 2

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            forecast_series([])


class TestEndToEndWithLongrun:
    @pytest.fixture(scope="class")
    def longrun(self):
        config = LongRunConfig(days=7, requests_per_hour=60, leak_every=4,
                               procs=2, seed=6)
        return config, run_longrun(config, golf=False)

    def test_leaking_service_flagged(self, longrun):
        config, result = longrun
        forecast = forecast_series(result.series, result.redeploys,
                                   threshold=5000)
        assert forecast.leaking
        # ~15 leaks/hour at 60 req/h and leak_every=4.
        assert 5 <= forecast.rate_per_hour <= 30

    def test_golf_service_cleared(self, longrun):
        config, _ = longrun
        fixed = run_longrun(config, golf=True)
        forecast = forecast_series(fixed.series, fixed.redeploys,
                                   threshold=5000)
        assert not forecast.leaking
