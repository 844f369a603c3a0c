"""Tests for the flight recorder and its ring buffer."""

from repro.telemetry import (
    DEBUG,
    ERROR,
    INFO,
    WARN,
    FlightRecorder,
    RingBuffer,
)


class _FakeClock:
    def __init__(self):
        self.now = 0


class TestRingBuffer:
    def test_fills_then_drops_oldest(self):
        ring = RingBuffer(3)
        for i in range(5):
            ring.append(i)
        assert list(ring) == [2, 3, 4]
        assert ring.dropped == 2
        assert len(ring) == 3

    def test_last(self):
        ring = RingBuffer(4)
        for i in range(10):
            ring.append(i)
        assert ring.last(2) == [8, 9]
        assert ring.last(100) == [6, 7, 8, 9]

    def test_clear(self):
        ring = RingBuffer(2)
        ring.append(1)
        ring.append(2)
        ring.append(3)
        ring.clear()
        assert list(ring) == []
        assert ring.dropped == 0

    def test_capacity_must_be_positive(self):
        import pytest

        with pytest.raises(ValueError):
            RingBuffer(0)

    def test_last_zero_is_empty(self):
        ring = RingBuffer(4)
        for i in range(10):
            ring.append(i)
        assert ring.last(0) == []
        assert ring.last(1) == [9]
        assert ring.last(4) == ring.last(5) == [6, 7, 8, 9]
        assert RingBuffer(4).last(3) == []

    def test_last_zero_reaches_every_reader(self):
        from repro.trace.tracer import ExecutionTracer

        clock = _FakeClock()
        tracer = ExecutionTracer(clock, capacity=4)
        rec = FlightRecorder(clock=clock, capacity=4, incident_tail=0)
        for i in range(6):
            tracer.emit("watchdog-stall", 0, f"event-{i}")
            rec.record("sched", "go-park", detail=f"event-{i}")
        assert tracer.format(limit=0) == "... 2 events dropped (capacity)"
        assert "event-" not in rec.dump(limit=0)
        assert rec.incident("stall").events == ()

    def test_dropped_is_appended_minus_buffered(self):
        ring = RingBuffer(3)
        for i in range(3):
            ring.append(i)
        assert (ring.dropped, ring.appended) == (0, 3)
        ring.push(3)  # the writer-side fast path: count, then push
        ring.appended += 1
        assert list(ring) == [1, 2, 3]
        assert (ring.dropped, len(ring)) == (1, 3)


class TestFlightRecorder:
    def test_records_and_formats(self):
        clock = _FakeClock()
        rec = FlightRecorder(clock=clock)
        clock.now = 42
        rec.record("sched", "go-park", goid=3, detail="chan send")
        (event,) = rec.events()
        assert event.t_ns == 42
        assert "INFO" in event.format()
        assert "g3" in event.format()
        assert "chan send" in event.format()

    def test_severity_floor_filters_at_record_time(self):
        rec = FlightRecorder(min_severity=WARN)
        rec.record("sched", "go-park", severity=DEBUG)
        rec.record("sched", "noise", severity=INFO)
        rec.record("detector", "leak", severity=WARN)
        assert len(rec) == 1
        assert rec.filtered == 2

    def test_category_allowlist(self):
        rec = FlightRecorder(categories=("gc", "detector"))
        rec.record("sched", "go-park")
        rec.record("gc", "gc-cycle")
        assert [e.category for e in rec.events()] == ["gc"]
        assert rec.filtered == 1

    def test_read_time_filters(self):
        rec = FlightRecorder()
        rec.record("sched", "a", severity=DEBUG)
        rec.record("sched", "b", severity=ERROR)
        rec.record("gc", "c", severity=ERROR)
        assert len(rec.events(min_severity=ERROR)) == 2
        assert len(rec.events(category="gc", min_severity=ERROR)) == 1

    def test_ring_bounds_and_counts_drops(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("sched", f"e{i}")
        assert len(rec) == 4
        assert rec.dropped == 6
        assert [e.kind for e in rec.events()] == ["e6", "e7", "e8", "e9"]
        assert "6 dropped" in rec.dump()

    def test_incident_snapshots_tail(self):
        clock = _FakeClock()
        rec = FlightRecorder(clock=clock, capacity=100, incident_tail=3)
        for i in range(10):
            clock.now = i
            rec.record("sched", f"e{i}")
        incident = rec.incident("watchdog-stall", "everything wedged")
        assert [e.kind for e in incident.events] == ["e7", "e8", "e9"]
        # The snapshot survives the ring rolling past it.
        for i in range(200):
            rec.record("sched", "later")
        assert [e.kind for e in rec.incidents[0].events] == ["e7", "e8", "e9"]
        assert "watchdog-stall" in rec.dump()
        assert "everything wedged" in rec.dump()

    def test_incidents_bounded(self):
        rec = FlightRecorder(max_incidents=2)
        assert rec.incident("a") is not None
        assert rec.incident("b") is not None
        assert rec.incident("c") is None
        assert rec.incidents_suppressed == 1
        assert "1 further incident(s) suppressed" in rec.dump()

    def test_as_dict_round_trips(self):
        import json

        rec = FlightRecorder()
        rec.record("gc", "gc-cycle", detail="#1")
        rec.incident("leak-report", "g7")
        data = rec.as_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["buffered"] == 1
        assert data["incidents"][0]["reason"] == "leak-report"
