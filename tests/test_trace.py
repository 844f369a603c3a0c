"""The execution tracer: vocabulary, Chrome export, and determinism.

The acceptance bar for the tracer (docs/TRACING.md): every emitted
event uses the fixed vocabulary, the Chrome trace-event artifact passes
schema validation (monotonic timestamps, matched B/E pairs, paired flow
ids), and two runs at the same (benchmark, procs, seed) produce
byte-identical artifacts.
"""

from __future__ import annotations

import json

import pytest

from repro import GolfConfig, Runtime
from repro.core.checkpoint import CheckpointManager, WorkerSpec
from repro.runtime.clock import MICROSECOND, MILLISECOND, Clock
from repro.runtime.instructions import (
    Go,
    Lock,
    MakeChan,
    NewMutex,
    Recv,
    RunGC,
    Send,
    Sleep,
    Unlock,
)
from repro.trace import (
    VOCABULARY,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.trace import events as ev
from repro.trace.chrome import GC_TID, GOROUTINE_TID_BASE, RUNTIME_PID
from repro.trace.tracer import ExecutionTracer


def _traced_transfer_run(seed=3):
    """One completed send/recv pair plus one leaked sender."""
    rt = Runtime(procs=2, seed=seed, config=GolfConfig())
    tracer = rt.enable_tracing()

    def main():
        ok = yield MakeChan(0, label="ok")
        ack = yield MakeChan(0, label="ack")
        dead = yield MakeChan(0, label="dead")
        mu = yield NewMutex()

        def replier(c):
            yield Send(c, "pong")

        def listener(c):
            yield Recv(c)

        def leaker(c):
            yield Send(c, "never")

        yield Go(replier, ok, name="replier")
        yield Go(listener, ack, name="listener")
        yield Go(leaker, d := dead, name="leaker")
        del dead, d
        yield Lock(mu)
        yield Unlock(mu)
        yield Recv(ok)
        yield Sleep(10 * MICROSECOND)  # listener is parked by now
        yield Send(ack, "ping")  # completes against a waiting receiver
        yield Sleep(20 * MICROSECOND)
        yield RunGC()
        yield RunGC()

    rt.spawn_main(main)
    rt.run(until_ns=100_000_000)
    return rt, tracer


#: The runtime-wide kinds: daemon and checkpoint recovery.
RUNTIME_KINDS = {ev.DAEMON_START, ev.DAEMON_STOP, ev.DAEMON_DETECT,
                 ev.RECOVERY_RESTART}


def _daemon_recovery_run(rt):
    """Start and stop the daemon and roll a checkpointed pool back on
    ``rt``; returns its tracer."""
    tracer = rt.enable_tracing()
    endpoint = rt.make_chan(0)
    idle = rt.make_chan(0)
    rt.set_global("idle", idle)
    spawned = []

    def worker():
        # The first incarnation wedges on a private channel: a leak the
        # daemon reports and the checkpoint manager rolls back.
        spawned.append(True)
        if len(spawned) == 1:
            private = yield MakeChan(0)
            yield Recv(private)
        yield Recv(endpoint)

    CheckpointManager(rt).register(
        "pool", channels=[endpoint], workers=[WorkerSpec("w0", worker)])
    rt.detect_partial_deadlock(interval_ms=2.0)

    def main():
        yield Recv(idle)  # with the pool idle too: a global wedge

    rt.spawn_main(main)
    rt.run(until_ns=50 * MILLISECOND)
    rt.stop_partial_deadlock_detection()
    return tracer


class TestVocabulary:
    def test_every_emitted_kind_is_in_vocabulary(self):
        rt, tracer = _traced_transfer_run()
        kinds = {e.kind for e in tracer.events}
        assert kinds <= VOCABULARY
        assert kinds  # the run actually traced something

    def test_daemon_and_recovery_kinds_are_in_vocabulary(self):
        """A run that starts and stops the daemon and rolls a
        checkpointed pool back emits only vocabulary kinds."""
        tracer = _daemon_recovery_run(Runtime(procs=1, seed=3))
        kinds = {e.kind for e in tracer.events}
        assert RUNTIME_KINDS <= kinds
        assert kinds <= VOCABULARY

    def test_hub_records_the_interned_kinds(self):
        """The hub writes only its two kinds, GC cycle and leak report,
        as the vocabulary's interned constants, never an equal fresh
        string (runtime/events.py)."""
        rt = Runtime(procs=1, seed=3)
        hub = rt.enable_telemetry()
        _daemon_recovery_run(rt)
        rt.gc_until_quiescent()
        kinds = [e.kind for e in hub.recorder.events()]
        assert set(kinds) == {ev.GC_CYCLE, ev.DEADLOCK}
        interned = {id(kind) for kind in VOCABULARY}
        assert [k for k in kinds if id(k) not in interned] == []

    def test_full_lifecycle_coverage(self):
        rt, tracer = _traced_transfer_run()
        kinds = {e.kind for e in tracer.events}
        assert {"go-create", "go-park", "go-wake", "go-end", "instr",
                "chan-make", "chan-send", "chan-recv",
                "sema-acquire", "sema-release",
                "gc-cycle", "partial-deadlock",
                "go-reclaim"} <= kinds

    def test_incremental_mode_traces_gc_phases(self):
        rt = Runtime(procs=2, seed=3,
                     config=GolfConfig(gc_mode="incremental"))
        tracer = rt.enable_tracing()

        def main():
            yield Sleep(20 * MICROSECOND)
            yield RunGC()

        rt.spawn_main(main)
        rt.run(until_ns=100_000_000)
        phases = [e.detail for e in tracer.of_kind("gc-phase")]
        assert "marking" in " ".join(phases)

    def test_chan_ops_carry_partner_goids(self):
        rt, tracer = _traced_transfer_run()
        sends = [e for e in tracer.of_kind("chan-send")
                 if e.args and e.args.get("partner")]
        recvs = [e for e in tracer.of_kind("chan-recv")
                 if e.args and e.args.get("partner")]
        # The completed rendezvous is visible from both sides.
        assert sends and recvs
        by_label = {e.args["label"].split("#")[0]: e.goid
                    for e in tracer.of_kind("go-create")}
        # main's send on "ack" completed against the parked listener;
        # main's recv on "ok" completed against the parked replier.
        assert sends[0].args["partner"] == by_label["listener"]
        assert recvs[0].args["partner"] == by_label["replier"]
        for e in sends + recvs:
            assert e.args["partner"] != e.goid > 0

    def test_goroutine_labels_not_bare_goids(self):
        rt, tracer = _traced_transfer_run()
        creates = tracer.of_kind("go-create")
        labels = [e.args["label"] for e in creates if e.args]
        assert any(lbl.startswith("replier#") for lbl in labels)
        assert all("#" in lbl for lbl in labels)


class TestChromeExport:
    def test_export_passes_validation(self):
        rt, tracer = _traced_transfer_run()
        doc = export_chrome_trace(tracer, procs=2, benchmark="unit",
                                  seed=3)
        counts = validate_chrome_trace(doc)
        assert counts["slices"] > 0
        assert counts["instants"] > 0
        assert counts["metadata"] > 0

    def test_flow_events_link_send_to_recv(self):
        rt, tracer = _traced_transfer_run()
        doc = export_chrome_trace(tracer, procs=2)
        counts = validate_chrome_trace(doc)
        assert counts["flows"] >= 1
        flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        ends = {e["id"] for e in flows if e["ph"] == "f"}
        assert starts == ends

    def test_lanes_per_proc_and_goroutine(self):
        rt, tracer = _traced_transfer_run()
        doc = export_chrome_trace(tracer, procs=2)
        tids = {e["tid"] for e in doc["traceEvents"]}
        assert {0, 1} <= tids  # one lane per virtual core
        assert GC_TID in tids
        assert any(t >= GOROUTINE_TID_BASE for t in tids)
        assert {e["pid"] for e in doc["traceEvents"]} == {RUNTIME_PID}

    def test_every_vocabulary_kind_is_rendered(self):
        """One record of every kind comes out under its own name and a
        category of its own, none through the catch-all."""
        tracer = ExecutionTracer(Clock())
        for kind in sorted(VOCABULARY):
            instr = kind == ev.INSTR
            tracer.emit(kind, 1, kind, pid=0 if instr else -1,
                        args={"dur": 1} if instr else None)
        doc = export_chrome_trace(tracer, procs=1)
        validate_chrome_trace(doc)
        rendered = {e["name"] for e in doc["traceEvents"]
                    if e["ph"] != "M" and e["cat"] != "other"}
        assert sorted(VOCABULARY - rendered) == []

    def test_timestamps_non_decreasing(self):
        rt, tracer = _traced_transfer_run()
        doc = export_chrome_trace(tracer, procs=2)
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert ts == sorted(ts)

    def test_validator_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "i", "pid": 1, "tid": 0}]})

    def test_validator_rejects_unmatched_begin(self):
        doc = {"traceEvents": [
            {"ph": "B", "pid": 1, "tid": 0, "ts": 0.0, "name": "x"},
        ]}
        with pytest.raises(ValueError, match="[Uu]nmatched"):
            validate_chrome_trace(doc)

    def test_validator_rejects_time_travel(self):
        doc = {"traceEvents": [
            {"ph": "i", "pid": 1, "tid": 0, "ts": 5.0, "name": "a",
             "s": "t"},
            {"ph": "i", "pid": 1, "tid": 0, "ts": 1.0, "name": "b",
             "s": "t"},
        ]}
        with pytest.raises(ValueError, match="monoton|decreas"):
            validate_chrome_trace(doc)

    def test_validator_rejects_unpaired_flow(self):
        doc = {"traceEvents": [
            {"ph": "s", "pid": 1, "tid": 0, "ts": 0.0, "name": "f",
             "id": 1},
        ]}
        with pytest.raises(ValueError, match="flow"):
            validate_chrome_trace(doc)


class TestDeterminism:
    def test_two_runs_byte_identical_export(self):
        docs = []
        for _ in range(2):
            rt, tracer = _traced_transfer_run(seed=11)
            docs.append(json.dumps(
                export_chrome_trace(tracer, procs=2, benchmark="unit",
                                    seed=11),
                sort_keys=True, separators=(",", ":")))
        assert docs[0] == docs[1]

    def test_driver_artifacts_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        blobs = []
        for i in range(2):
            out_dir = tmp_path / str(i)
            assert main(["run", "--benchmark", "cgo/sendmail",
                         "--out-dir", str(out_dir)]) == 0
            blobs.append({p.name: p.read_bytes()
                          for p in out_dir.iterdir()})
        assert blobs[0] == blobs[1]
        assert {name for name in blobs[0] if "trace" in name
                or "provenance" in name} == {
            "run-cgo-sendmail-p2-s0.trace.json",
            "run-cgo-sendmail-p2-s0-provenance.json",
            "run-cgo-sendmail-p2-s0-provenance.txt"}


class TestChaosIntegration:
    def test_injected_faults_appear_as_trace_instants(self):
        from repro.chaos import FaultInjector, FaultPlan, get_scenario

        rt = Runtime(procs=2, seed=5, config=GolfConfig())
        tracer = rt.enable_tracing()
        plan = FaultPlan(5, get_scenario("clock-jitter"))
        FaultInjector(rt, plan).install()

        def main():
            for _ in range(200):
                yield Sleep(MICROSECOND)

        rt.spawn_main(main)
        rt.run(until_ns=500_000_000)
        faults = tracer.of_kind("fault-inject")
        assert len(faults) == plan.injected_count()
        assert faults  # the scenario actually fired
        doc = export_chrome_trace(tracer, procs=2)
        instants = [e for e in doc["traceEvents"]
                    if e["ph"] == "i" and e.get("cat") == "chaos"]
        assert len(instants) == len(faults)
        assert all(e["name"] == "fault-inject" for e in instants)


class TestDropAccounting:
    def test_drops_are_counted_on_their_rings(self):
        """Ring evictions are read where they happen: the tracer's and
        the flight recorder's own ``dropped`` counts (the hub snapshot
        carries the recorder's)."""
        from repro.telemetry import TelemetryHub

        hub = TelemetryHub()
        rt = Runtime(procs=1, seed=1)
        hub.attach(rt)
        tracer = rt.enable_tracing(capacity=8)

        def main():
            for _ in range(100):
                yield Sleep(MICROSECOND)

        rt.spawn_main(main)
        rt.run()
        assert tracer.dropped > 0 and len(tracer) == 8
        assert hub.snapshot()["recorder"]["dropped"] == hub.recorder.dropped
