"""Tests for the flight recorder and its ring buffer."""

from repro.telemetry import FlightRecorder, RingBuffer
from repro.telemetry.recorder import CAPACITY, INCIDENT_TAIL, MAX_INCIDENTS


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
        rec = FlightRecorder()
        for i in range(6):
            rec.record("sched", "go-park", detail=f"event-{i}")
        assert "event-" not in rec.dump(limit=0)
        assert "event-5" in rec.dump(limit=1)

    def test_dropped_is_appended_minus_buffered(self):
        ring = RingBuffer(3)
        for i in range(3):
            ring.append(i)
        assert (ring.dropped, ring.appended) == (0, 3)
        ring.append(3)
        assert list(ring) == [1, 2, 3]
        assert (ring.dropped, len(ring)) == (1, 3)


class TestFlightRecorder:
    def test_records_and_formats(self):
        clock = _FakeClock()
        rec = FlightRecorder()
        rec.clock = clock
        clock.now = 42
        rec.record("sched", "go-park", goid=3, detail="chan send")
        (event,) = rec.events()
        assert event.t_ns == 42
        assert "INFO" in event.format()
        assert "g3" in event.format()
        assert "chan send" in event.format()

    def test_ring_bounds_and_counts_drops(self):
        rec = FlightRecorder()
        for i in range(CAPACITY + 6):
            rec.record("sched", f"e{i}")
        assert len(rec) == CAPACITY
        assert rec.dropped == 6
        assert rec.events()[0].kind == "e6"
        assert rec.events()[-1].kind == f"e{CAPACITY + 5}"
        assert "6 dropped" in rec.dump(limit=0)

    def test_incident_snapshots_tail(self):
        clock = _FakeClock()
        rec = FlightRecorder()
        rec.clock = clock
        for i in range(INCIDENT_TAIL + 10):
            clock.now = i
            rec.record("sched", f"e{i}")
        tail = [f"e{i}" for i in range(10, INCIDENT_TAIL + 10)]
        incident = rec.incident("leak-report", "everything wedged")
        assert [e.kind for e in incident.events] == tail
        # The snapshot survives the ring rolling past it.
        for i in range(CAPACITY):
            rec.record("sched", "later")
        assert [e.kind for e in rec.incidents[0].events] == tail
        assert "leak-report" in rec.dump(limit=0)
        assert "everything wedged" in rec.dump(limit=0)

    def test_incidents_bounded(self):
        rec = FlightRecorder()
        for i in range(MAX_INCIDENTS):
            assert rec.incident(f"i{i}") is not None
        assert rec.incident("over") is None
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
