"""Tests for IO waits, verify_none, and report serialization."""

import json

import pytest

from repro import GolfConfig, Runtime
from repro.baselines.goleak import LeakAssertionError, verify_none
from repro.runtime.clock import MICROSECOND, MILLISECOND
from repro.runtime.instructions import (
    Go,
    IoWait,
    MakeChan,
    Now,
    Recv,
    RunGC,
    Send,
    Sleep,
)
from repro.runtime.waitreason import WaitReason
from tests.conftest import run_to_end


class TestIoWait:
    def test_io_blocks_for_duration(self, rt):
        times = {}

        def main():
            t0 = yield Now()
            yield IoWait(100 * MICROSECOND)
            times["elapsed"] = (yield Now()) - t0

        run_to_end(rt, main)
        assert times["elapsed"] >= 100 * MICROSECOND

    def test_io_wait_reason_not_detectable(self, rt):
        held = {}

        def main():
            def fetcher():
                yield IoWait(10_000 * MICROSECOND)

            held["g"] = (yield Go(fetcher))
            yield Sleep(10 * MICROSECOND)

        rt.spawn_main(main)
        rt.run(until_ns=50 * MICROSECOND)
        g = held["g"]
        assert g.wait_reason == WaitReason.IO_WAIT
        assert not g.is_blocked_detectably

    def test_golf_never_reports_io_blocked(self, rt):
        def main():
            def slow_rpc():
                yield IoWait(50_000 * MICROSECOND)

            yield Go(slow_rpc)
            yield Sleep(10 * MICROSECOND)
            yield RunGC()
            yield RunGC()

        rt.spawn_main(main)
        rt.run(until_ns=200 * MICROSECOND)
        assert rt.reports.total() == 0

    def test_io_goroutine_keeps_its_channels_live(self, rt):
        """A sender whose receiver is mid-IO must not be reported."""
        def main():
            ch = yield MakeChan(0)

            def sender(c):
                yield Send(c, 1)

            def io_then_recv(c):
                yield IoWait(100 * MICROSECOND)
                yield Recv(c)

            yield Go(sender, ch)
            yield Go(io_then_recv, ch)
            del ch
            yield Sleep(20 * MICROSECOND)
            yield RunGC()
            yield Sleep(200 * MICROSECOND)

        assert run_to_end(rt, main) == "main-exited"
        assert rt.reports.total() == 0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            IoWait(-1)


class TestVerifyNone:
    def test_passes_on_clean_runtime(self, rt):
        def main():
            ch = yield MakeChan(1)
            yield Send(ch, 1)
            yield Recv(ch)

        run_to_end(rt, main)
        verify_none(rt)  # must not raise

    def test_raises_with_leak_details(self, rt):
        def main():
            ch = yield MakeChan(0)

            def sender(c):
                yield Send(c, 1)

            yield Go(sender, ch, name="leaky")
            yield Sleep(10 * MICROSECOND)

        run_to_end(rt, main)
        with pytest.raises(LeakAssertionError) as excinfo:
            verify_none(rt)
        message = str(excinfo.value)
        assert "1 unexpected goroutine(s)" in message
        assert "chan send" in message

    def test_external_waits_only_flagged_on_request(self, rt):
        def main():
            def io_bound():
                yield IoWait(100 * MILLISECOND)

            yield Go(io_bound)
            yield Sleep(10 * MICROSECOND)

        run_to_end(rt, main)
        verify_none(rt)  # IO waits are not concurrency leaks


class TestReportSerialization:
    def test_as_dict_round_trips_through_json(self, rt):
        def main():
            ch = yield MakeChan(0)

            def sender(c):
                yield Send(c, 1)

            yield Go(sender, ch, name="json-leak")
            del ch
            yield Sleep(10 * MICROSECOND)
            yield RunGC()

        run_to_end(rt, main)
        (report,) = list(rt.reports)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["label"] == "json-leak"
        assert payload["wait_reason"] == "chan send"
        assert isinstance(payload["stack"], list) and payload["stack"]
        assert payload["gc_cycle"] == 1
