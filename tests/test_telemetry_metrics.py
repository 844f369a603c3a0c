"""Tests for the metrics registry and the Prometheus exposition."""

import json
import math

import pytest

from repro.telemetry import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    MetricsRegistry,
    render_merged_prometheus,
    validate_exposition,
)


class TestInstruments:
    def test_counter_only_goes_up(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec()
        assert g.value == 11

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(10, 100, 1000))
        for v in (5, 50, 500, 5000):
            h.observe(v)
        child = h.labels()
        assert child.count == 4
        assert child.sum == 5555
        assert child.cumulative_counts() == [1, 2, 3, 4]

    def test_histogram_buckets_must_ascend(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("lat", buckets=(100, 10))
        reg.histogram("ties", buckets=(10, 10, 100)).observe(10)

    def test_labels_positional_and_by_name(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", labelnames=("service", "outcome"))
        c.labels("svc", "ok").inc()
        c.labels(service="svc", outcome="ok").inc()
        assert c.labels("svc", "ok").value == 2

    def test_label_arity_checked(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", labelnames=("service",))
        with pytest.raises(ValueError):
            c.labels("a", "b")

    def test_reregistration_same_shape_returns_existing(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labelnames=("k",))
        b = reg.counter("x_total", labelnames=("k",))
        assert a is b

    def test_reregistration_different_shape_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        with pytest.raises(ValueError):
            reg.counter("x_total", labelnames=("k",))


class TestExposition:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("repro_ops_total", "Operations", labelnames=("kind",))
        reg.get("repro_ops_total").labels("read").inc(3)
        reg.get("repro_ops_total").labels("write").inc()
        reg.gauge("repro_depth", "Queue depth").set(7)
        h = reg.histogram("repro_lat_ns", "Latency", buckets=(100, 1000))
        h.observe(50)
        h.observe(5000)
        return reg

    def test_renders_help_type_and_samples(self):
        text = self._populated().render_prometheus()
        assert "# HELP repro_ops_total Operations" in text
        assert "# TYPE repro_ops_total counter" in text
        assert 'repro_ops_total{kind="read"} 3' in text
        assert 'repro_ops_total{kind="write"} 1' in text
        assert "repro_depth 7" in text

    def test_histogram_lines(self):
        text = self._populated().render_prometheus()
        assert 'repro_lat_ns_bucket{le="100"} 1' in text
        assert 'repro_lat_ns_bucket{le="1000"} 1' in text
        assert 'repro_lat_ns_bucket{le="+Inf"} 2' in text
        assert "repro_lat_ns_sum 5050" in text
        assert "repro_lat_ns_count 2" in text

    def test_exposition_validates(self):
        text = self._populated().render_prometheus()
        # 2 counter series + 1 gauge + 3 buckets + sum + count = 8.
        assert validate_exposition(text) == 8

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labelnames=("site",))
        c.labels('we"ird\\path\nx').inc()
        text = reg.render_prometheus()
        assert validate_exposition(text) == 1
        assert '\\"' in text and "\\n" in text

    def test_deterministic_ordering(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labelnames=("k",))
        for key in ("zebra", "alpha", "mid"):
            c.labels(key).inc()
        reg.gauge("a_gauge").set(1)
        text = reg.render_prometheus()
        # Metrics sorted by name; label values sorted within a metric.
        assert text.index("a_gauge") < text.index("x_total")
        assert (text.index('k="alpha"') < text.index('k="mid"')
                < text.index('k="zebra"'))


class TestValidator:
    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="malformed sample"):
            validate_exposition("this is not a sample\n")

    def test_rejects_unknown_comment(self):
        with pytest.raises(ValueError, match="unknown comment"):
            validate_exposition("# FOO bar\nx 1\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no samples"):
            validate_exposition("# TYPE x counter\n")

    def test_accepts_inf(self):
        assert validate_exposition('x_bucket{le="+Inf"} 3\n') == 1


class TestSnapshot:
    def test_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("k",)).labels("a").inc(2)
        h = reg.histogram("h_ns", buckets=(10,))
        h.observe(5)
        reg.gauge("g").set(math.pi)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["x_total"]["samples"][0] == {
            "labels": {"k": "a"}, "value": 2}
        assert snap["h_ns"]["samples"][0]["counts"] == [1, 0]


class TestExtraLabels:
    """The fleet's shard label: the one renderer stamps the source onto
    every sample, ahead of the sample's own labels."""

    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests",
                    labelnames=("outcome",)).labels("ok").inc(3)
        reg.gauge("depth", "queue depth").set(2)
        reg.histogram("lat_ns", "latency",
                      buckets=(10, 100)).labels().observe(42)
        return reg

    def _render(self, source, label="shard"):
        return render_merged_prometheus(
            {source: self._registry().snapshot()}, label=label)

    def test_extra_label_on_every_sample(self):
        text = self._render("3")
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            assert 'shard="3"' in line, line
        assert validate_exposition(text) > 0

    def test_extra_label_prepended_to_existing_labels(self):
        assert 'req_total{shard="0",outcome="ok"} 3' in self._render("0")

    def test_collision_with_metric_labelname_rejected(self):
        with pytest.raises(ValueError, match="outcome"):
            self._render("x", label="outcome")

    def test_no_extra_labels_is_the_plain_exposition(self):
        text = self._render(None)
        assert text == self._registry().render_prometheus()
        assert "shard" not in text
        assert "depth 2\n" in text

    def test_extra_label_values_escaped(self):
        assert validate_exposition(self._render('a"b\\c')) > 0


class TestHistogramQuantile:
    """Satellite: linear-interpolation quantiles over bucket cumulations."""

    def test_uniform_distribution_exact(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(10, 20, 30, 40))
        # 1..40 uniform: every bucket holds exactly 10 observations.
        for v in range(1, 41):
            h.observe(v)
        assert h.quantile(0.25) == pytest.approx(10.0)
        assert h.quantile(0.5) == pytest.approx(20.0)
        assert h.quantile(0.75) == pytest.approx(30.0)
        # Interpolation inside a bucket: rank 4 of 10 in (0, 10].
        assert h.quantile(0.1) == pytest.approx(4.0)

    def test_interpolates_within_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(100, 200))
        for _ in range(4):
            h.observe(150)  # all mass in (100, 200]
        # rank q*4 of 4 within (100, 200]: linear from 100 to 200.
        assert h.quantile(0.5) == pytest.approx(150.0)
        assert h.quantile(1.0) == pytest.approx(200.0)

    def test_inf_bucket_clamps_to_highest_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(10, 100))
        h.observe(5000)
        h.observe(7000)
        assert h.quantile(0.5) == 100.0
        assert h.quantile(0.99) == 100.0

    def test_empty_histogram_is_nan(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(10,))
        assert math.isnan(h.quantile(0.5))

    def test_q_out_of_range_rejected(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(10,))
        h.observe(1)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_cumulative_at_interpolates(self):
        from repro.telemetry import cumulative_at

        # 10 obs uniform in (0, 100], 10 more in (100, 200].
        bounds, cumulative = (100.0, 200.0), (10, 20, 20)
        assert cumulative_at(bounds, cumulative, 50.0) == pytest.approx(5.0)
        assert cumulative_at(bounds, cumulative, 100.0) == 10.0
        assert cumulative_at(bounds, cumulative, 150.0) == pytest.approx(15.0)
        assert cumulative_at(bounds, cumulative, 500.0) == 20.0
        assert cumulative_at(bounds, cumulative, -1.0) == 0.0


class TestMidRunRegistrationOrdering:
    """Satellite: the exposition stays sorted even when series appear
    mid-run, in any registration order."""

    def test_series_sorted_regardless_of_registration_order(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labelnames=("k",))
        c.labels("zebra").inc()
        first = reg.render_prometheus()
        assert validate_exposition(first) == 1
        # A mid-run registration that sorts before the existing series.
        c.labels("alpha").inc()
        text = reg.render_prometheus()
        assert validate_exposition(text) == 2
        assert text.index('k="alpha"') < text.index('k="zebra"')

    def test_series_order_is_kept_until_a_child_is_created(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labelnames=("k",))
        c.labels("m").inc()
        kept = c.series()
        c.labels("m").inc(2)  # an update, not a new child
        assert c.series() is kept
        c.labels("a").inc()
        assert [values for values, _ in c.series()] == [("a",), ("m",)]
        assert [values for values, _ in kept] == [("m",)]

    def test_two_registration_orders_render_identically(self):
        def render(order):
            reg = MetricsRegistry()
            c = reg.counter("x_total", labelnames=("k",))
            for key in order:
                c.labels(key).inc()
            return reg.render_prometheus()

        assert render(["b", "a", "c"]) == render(["c", "b", "a"])


class TestDuplicateSeriesRejected:
    """Satellite: the validator must catch name+label-set aliasing."""

    def test_duplicate_labelless_sample(self):
        with pytest.raises(ValueError, match="duplicate series"):
            validate_exposition("x_total 1\nx_total 2\n")

    def test_duplicate_same_labels_different_order(self):
        text = ('x_total{a="1",b="2"} 1\n'
                'x_total{b="2",a="1"} 2\n')
        with pytest.raises(ValueError, match="duplicate series"):
            validate_exposition(text)

    def test_distinct_label_values_accepted(self):
        text = ('x_total{a="1"} 1\n'
                'x_total{a="2"} 2\n')
        assert validate_exposition(text) == 2


class TestMergedPrometheusEdges:
    """Satellite: render_merged_prometheus corner cases."""

    def _snapshot(self, **series):
        reg = MetricsRegistry()
        c = reg.counter("req_total", "requests", labelnames=("route",))
        for route, n in series.items():
            c.labels(route).inc(n)
        return reg.snapshot()

    def test_empty_sources_renders_no_samples(self):
        from repro.telemetry import render_merged_prometheus

        text = render_merged_prometheus({})
        with pytest.raises(ValueError, match="no samples"):
            validate_exposition(text)

    def test_single_shard_fleet(self):
        from repro.telemetry import render_merged_prometheus

        text = render_merged_prometheus({"0": self._snapshot(a=3)})
        assert validate_exposition(text) == 1
        assert 'req_total{shard="0",route="a"} 3' in text

    def test_source_with_empty_snapshot_is_skipped(self):
        from repro.telemetry import render_merged_prometheus

        text = render_merged_prometheus(
            {"0": self._snapshot(a=1), "1": {}})
        assert validate_exposition(text) == 1
        assert 'shard="1"' not in text

    def test_histogram_recumulation_disjoint_label_sets(self):
        from repro.telemetry import render_merged_prometheus

        def hist_snapshot(route, values):
            reg = MetricsRegistry()
            h = reg.histogram("lat", "latency", buckets=(10, 100),
                              labelnames=("route",))
            for v in values:
                h.labels(route).observe(v)
            return reg.snapshot()

        text = render_merged_prometheus({
            "0": hist_snapshot("a", [5, 50]),
            "1": hist_snapshot("b", [500]),
        })
        assert validate_exposition(text) == 10
        # Bucket counts re-cumulate per shard from the raw counts.
        assert 'lat_bucket{shard="0",route="a",le="10"} 1' in text
        assert 'lat_bucket{shard="0",route="a",le="+Inf"} 2' in text
        assert 'lat_bucket{shard="1",route="b",le="100"} 0' in text
        assert 'lat_bucket{shard="1",route="b",le="+Inf"} 1' in text
        assert 'lat_sum{shard="1",route="b"} 500' in text

    def test_numeric_shard_ordering(self):
        from repro.telemetry import render_merged_prometheus

        text = render_merged_prometheus(
            {str(i): self._snapshot(a=1) for i in (0, 2, 10)})
        assert (text.index('shard="0"') < text.index('shard="2"')
                < text.index('shard="10"'))

    def test_kind_mismatch_rejected(self):
        from repro.telemetry import render_merged_prometheus

        reg = MetricsRegistry()
        reg.gauge("req_total").set(1)
        with pytest.raises(ValueError, match="kind"):
            render_merged_prometheus(
                {"0": self._snapshot(a=1), "1": reg.snapshot()})
