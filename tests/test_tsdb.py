"""Tests for the virtual-time TSDB and its scraper."""

import pytest

from repro.equivalence import PAIRS
from repro.runtime.api import Runtime
from repro.runtime.clock import MILLISECOND
from repro.runtime.instructions import Recv, Send, Sleep, Work
from repro.telemetry import (
    MetricsRegistry,
    MetricsScraper,
    ScraperError,
    Series,
    TelemetryHub,
    TimeSeriesDB,
)
from tests.conftest import swept


class TestSeries:
    def test_ring_bound_drops_oldest(self):
        s = Series("m", "gauge", (), (), max_points=3)
        for t in range(5):
            s.append(t, float(t))
        assert s.times == [2, 3, 4]
        assert s.values == [2.0, 3.0, 4.0]
        assert s.dropped == 2


class TestTimeSeriesDB:
    def test_scrape_creates_and_appends(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", labelnames=("kind",))
        c.labels("a").inc(3)
        db = TimeSeriesDB()
        db.scrape(reg, 100)
        c.labels("a").inc(2)
        db.scrape(reg, 200)
        s = db.get("jobs_total", kind="a")
        assert s.values == [3.0, 5.0]
        assert db.scrapes == 2
        assert db.last_scrape_ns == 200

    def test_max_points_validated(self):
        with pytest.raises(ValueError):
            TimeSeriesDB(max_points=0)

    def test_to_dict_and_clear(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        db = TimeSeriesDB()
        db.scrape(reg, 10)
        doc = db.to_dict()
        assert doc["scrapes"] == 1
        assert any(s["name"] == "x_total" for s in doc["series"])
        db.clear()
        assert db.to_dict()["series"] == []
        assert db.scrapes == 0


def _pingpong(rt, rounds=40):
    ch = rt.make_chan(capacity=0, label="pp")

    def ponger():
        while True:
            v, ok = yield Recv(ch)
            if not ok:
                return

    def main():
        rt.go(ponger, name="ponger")
        for i in range(rounds):
            yield Work(50)
            yield Send(ch, i)
            yield Sleep(MILLISECOND)
        ch.close()

    rt.spawn_main(main)
    rt.run()


class TestMetricsScraper:
    def test_scraper_collects_series(self):
        rt = Runtime(procs=2, seed=3)
        hub = rt.enable_telemetry(scrape_interval_ms=2.0)
        _pingpong(rt)
        rt.stop_metrics_scrape()
        assert hub.tsdb.scrapes > 5
        assert hub.tsdb.get("repro_sched_context_switches_total") is not None

    def test_double_start_raises(self):
        rt = Runtime(procs=2, seed=3)
        rt.enable_telemetry(scrape_interval_ms=2.0)
        with pytest.raises(ScraperError):
            rt.start_metrics_scrape()

    def test_start_without_tsdb_raises(self):
        rt = Runtime(procs=2, seed=3)
        hub = TelemetryHub()
        hub.attach(rt)
        with pytest.raises(ScraperError):
            MetricsScraper(rt, hub, interval_ns=MILLISECOND)

    def test_stop_is_idempotent(self):
        rt = Runtime(procs=2, seed=3)
        rt.enable_telemetry(scrape_interval_ms=2.0)
        _pingpong(rt, rounds=5)
        rt.stop_metrics_scrape()
        rt.stop_metrics_scrape()

    def test_scraping_is_scheduler_invisible(self):
        """The observation SLO: enabling the scraper must not move a
        single virtual timestamp or change any detection outcome, on
        any ground-truth program — no fingerprint field is excluded."""
        result = swept("scraper", 7)
        assert result.clean, "\n" + result.format()
        assert PAIRS["scraper"].excluded == ()
        assert result.witness["scrapes"] >= result.runs

    def test_same_seed_dumps_identical(self):
        def run():
            rt = Runtime(procs=2, seed=5)
            hub = rt.enable_telemetry(scrape_interval_ms=2.0)
            _pingpong(rt)
            rt.stop_metrics_scrape()
            hub.scrape_tick(rt.clock.now)
            return hub.tsdb.to_dict()

        assert run() == run()
