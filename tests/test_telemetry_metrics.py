"""Tests for the metrics registry and the Prometheus exposition."""

import json
import math

import pytest

from repro.telemetry import (
    COUNTER,
    GAUGE,
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
        return reg

    def test_renders_help_type_and_samples(self):
        text = self._populated().render_prometheus()
        assert "# HELP repro_ops_total Operations" in text
        assert "# TYPE repro_ops_total counter" in text
        assert 'repro_ops_total{kind="read"} 3' in text
        assert 'repro_ops_total{kind="write"} 1' in text
        assert "repro_depth 7" in text

    def test_exposition_validates(self):
        text = self._populated().render_prometheus()
        # 2 counter series + 1 gauge.
        assert validate_exposition(text) == 3

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
        reg.gauge("m_gauge").set(2)
        text = reg.render_prometheus()
        # Metrics sorted by name whatever the registration order — in
        # the exposition, the snapshot and iteration alike; label values
        # sorted within a metric.
        assert [m.name for m in reg] == list(reg.snapshot()) == [
            "a_gauge", "m_gauge", "x_total"]
        assert (text.index("a_gauge") < text.index("m_gauge")
                < text.index("x_total"))
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
        reg.gauge("g").set(math.pi)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["x_total"]["samples"][0] == {
            "labels": {"k": "a"}, "value": 2}


class TestExtraLabels:
    """The fleet's shard label: the one renderer stamps the source onto
    every sample, ahead of the sample's own labels."""

    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests",
                    labelnames=("outcome",)).labels("ok").inc(3)
        reg.gauge("depth", "queue depth").set(2)
        return reg

    def _render(self, source):
        return render_merged_prometheus(
            {source: self._registry().snapshot()})

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
        reg = MetricsRegistry()
        reg.counter("req_total", labelnames=("shard",)).labels("0").inc()
        with pytest.raises(ValueError, match="shard"):
            render_merged_prometheus({"x": reg.snapshot()})

    def test_no_extra_labels_is_the_plain_exposition(self):
        text = self._render(None)
        assert text == self._registry().render_prometheus()
        assert "shard" not in text
        assert "depth 2\n" in text

    def test_extra_label_values_escaped(self):
        assert validate_exposition(self._render('a"b\\c')) > 0


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
