"""Tests for the virtual-time TSDB, its scraper, and the fleet rollup."""

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
    merge_tsdb,
)
from repro.telemetry.tsdb import HistogramSeries
from tests.conftest import swept


class TestSeries:
    def test_ring_bound_drops_oldest(self):
        s = Series("m", "gauge", (), (), max_points=3)
        for t in range(5):
            s.append(t, float(t))
        assert s.times == [2, 3, 4]
        assert s.values == [2.0, 3.0, 4.0]
        assert s.dropped == 2

    def test_latest_respects_now(self):
        s = Series("m", "gauge", (), (), max_points=8)
        s.append(10, 1.0)
        s.append(20, 2.0)
        assert s.latest(now_ns=15) == 1.0
        assert s.latest(now_ns=20) == 2.0
        assert s.latest(now_ns=5) is None

    def test_delta_and_rate_exact(self):
        s = Series("m_total", "counter", (), (), max_points=8)
        # One increment per virtual millisecond.
        for i in range(5):
            s.append(i * MILLISECOND, float(i))
        assert s.delta(now_ns=4 * MILLISECOND, window_ns=4 * MILLISECOND) == 4.0
        # 4 increments over 4ms = 1000/s of virtual time.
        assert s.rate(now_ns=4 * MILLISECOND,
                      window_ns=4 * MILLISECOND) == pytest.approx(1000.0)
        assert s.avg_over_time(
            now_ns=4 * MILLISECOND, window_ns=4 * MILLISECOND) == 2.0

    def test_differential_ops_need_two_points(self):
        s = Series("m_total", "counter", (), (), max_points=8)
        s.append(0, 1.0)
        assert s.delta(now_ns=10, window_ns=10) is None
        assert s.rate(now_ns=10, window_ns=10) is None

    def test_window_excludes_outside_points(self):
        s = Series("m_total", "counter", (), (), max_points=16)
        for i in range(10):
            s.append(i * 10, float(i))
        # window [60, 90] -> values 6..9 -> delta 3
        assert s.delta(now_ns=90, window_ns=30) == 3.0


class TestHistogramSeries:
    def _series(self):
        return HistogramSeries("h", (), (), buckets=(10.0, 100.0),
                               max_points=8)

    def test_delta_counts_and_quantile(self):
        s = self._series()
        s.append(0, (0, 0, 0), 0.0, 0)
        # 8 obs <=10, 2 in (10,100] -> cumulative (8, 10, 10)
        s.append(100, (8, 10, 10), 40.0, 10)
        counts, dsum, dcount = s.delta_counts(now_ns=100, window_ns=100)
        assert counts == [8, 10, 10]
        assert dsum == 40.0 and dcount == 10
        # p50 inside the first bucket: rank 5 of 8 -> 10 * 5/8
        assert s.quantile(0.5, now_ns=100, window_ns=100) == pytest.approx(6.25)

    def test_bad_fraction_interpolates(self):
        s = self._series()
        s.append(0, (0, 0, 0), 0.0, 0)
        s.append(100, (0, 10, 10), 500.0, 10)
        # All 10 obs uniform in (10, 100]; threshold 55 is halfway.
        assert s.bad_fraction(55.0, now_ns=100,
                              window_ns=100) == pytest.approx(0.5)
        assert s.bad_fraction(100.0, now_ns=100, window_ns=100) == 0.0

    def test_no_data_returns_none(self):
        s = self._series()
        assert s.delta_counts(now_ns=100, window_ns=100) is None
        assert s.quantile(0.5, now_ns=100, window_ns=100) is None


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

    def test_histogram_scrape_round_trips(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(10, 100))
        h.observe(5)
        db = TimeSeriesDB()
        db.scrape(reg, 50)
        h.observe(50)
        db.scrape(reg, 150)
        s = db.get("lat")
        counts, dsum, dcount = s.delta_counts(now_ns=150, window_ns=100)
        assert dcount == 1 and dsum == 50.0

    def test_max_points_validated(self):
        with pytest.raises(ValueError):
            TimeSeriesDB(max_points=1)

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


class TestMergeTsdb:
    def _dump(self, value):
        reg = MetricsRegistry()
        reg.counter("x_total").inc(value)
        db = TimeSeriesDB()
        db.scrape(reg, 10)
        return db.to_dict()

    def test_rollup_injects_shard_label(self):
        merged = merge_tsdb({"0": self._dump(1), "1": self._dump(2)})
        assert merged["sources"] == ["0", "1"]
        labels = [s["labels"] for s in merged["series"]]
        assert {"shard": "0"} in labels and {"shard": "1"} in labels

    def test_numeric_source_ordering(self):
        merged = merge_tsdb(
            {str(i): self._dump(i) for i in (0, 2, 10, 1)})
        assert merged["sources"] == ["0", "1", "2", "10"]

    def test_label_collision_rejected(self):
        dump = self._dump(1)
        dump["series"][0]["labels"]["shard"] = "oops"
        with pytest.raises(ValueError):
            merge_tsdb({"0": dump})


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
        assert hub.tsdb.get("repro_sched_live_goroutines") is not None

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
