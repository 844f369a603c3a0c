"""Span self-time arithmetic with nested and sibling spans."""

import json

import pytest

from benchmarks.e2e.spans import (
    NO_PARENT, SpanRecorder, self_time_by_name, self_times,
)


class FakeClock:
    """Each read returns the next scripted instant."""

    def __init__(self, *instants):
        self._instants = list(instants)

    def __call__(self):
        return self._instants.pop(0)


def test_nested_and_sibling_self_times():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    rec = SpanRecorder(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    root = rec.begin("root")
    a = rec.begin("layer.a")
    a1 = rec.begin("layer.inner", tag="x")
    assert rec.end(a1) == 1
    assert rec.end(a) == 3
    b = rec.begin("layer.a")
    assert rec.end(b) == 4
    assert rec.end(root) == 10
    assert rec.parents == [NO_PARENT, root, a, root]
    assert rec.self_times() == [10 - 3 - 4, 3 - 1, 1, 4]
    by_name = self_time_by_name(rec)
    assert by_name == {"root": 3, "layer.a": 2 + 4, "layer.inner": 1}
    # Self times partition the root span exactly.
    assert sum(by_name.values()) == rec.duration(root)


def test_grandchildren_are_not_subtracted_twice():
    starts, ends = [0.0, 1.0, 2.0], [10.0, 9.0, 3.0]
    assert self_times(starts, ends, [NO_PARENT, 0, 1]) == [2.0, 7.0, 1.0]


def test_out_of_order_close_raises():
    rec = SpanRecorder(clock=FakeClock(0, 1, 2))
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError, match="out of order"):
        rec.end(outer)


def test_write_round_trips(tmp_path):
    rec = SpanRecorder(clock=FakeClock(5.0, 6.0, 7.5, 9.0))
    root = rec.begin("bench")
    child = rec.begin("gc.marking", tag="t")
    rec.end(child)
    rec.end(root)
    path = tmp_path / "trace.json"
    rec.write(str(path), meta={"workload": "w"})
    doc = json.loads(path.read_text())
    assert doc["meta"] == {"workload": "w"}
    assert doc["spans"] == [["bench", None, 0.0, 4.0, NO_PARENT],
                            ["gc.marking", "t", 1.0, 2.5, 0]]
