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
from repro.trace import tracer as tracer_mod
from repro.trace import (
    VOCABULARY,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.trace import events as ev
from repro.runtime.channel import Channel
from repro.runtime.goroutine import EPSILON, Goroutine
from repro.runtime.sync import Mutex, WaitGroup
from repro.runtime.waitreason import WaitReason
from repro.trace.chrome import GC_TID, GOROUTINE_TID_BASE, RUNTIME_PID
from repro.trace.tracer import BLOCK, ExecutionTracer
from tests.test_observer_fastpath import EagerTracer


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


def _body():
    yield


def mixed_stream(n):
    """``n`` calls that drive a tracer through all six hot hooks and
    ``emit``, on goroutines and a channel whose state moves on."""
    ch = Channel(2, label="jobs")
    ch.addr = 0x2000
    gs = []
    for goid in range(2, 7):
        g = Goroutine(goid)
        g.bind(_body(), f"svc.go:{goid}", parent_goid=1, name=f"w-{goid}",
               fn_name="worker" if goid % 2 else "")
        g.blocked_on = (ch,)
        gs.append(g)
    chan_kinds = (ev.CHAN_MAKE, ev.CHAN_SEND, ev.CHAN_RECV, ev.CHAN_CLOSE)
    for i in range(n):
        g = gs[i % len(gs)]
        step = i % 7
        if step == 0:
            yield lambda t: t.on_create(g)
        elif step == 1:
            yield lambda t: t.on_park(g, WaitReason.CHAN_SEND)
        elif step == 2:
            yield lambda t: t.on_wake(g)
        elif step == 3:
            yield lambda t: t.on_instr(i % 3, g, "send", 10 + i)
        elif step == 4:
            kind = chan_kinds[i % 4]
            extra = {"woken": i} if kind == ev.CHAN_CLOSE else None
            yield lambda t: t.on_chan_op(kind, g, ch, partner=i % 2,
                                         extra=extra)
        elif step == 5:
            yield lambda t: t.emit("daemon-detect", g.goid, f"tick {i}",
                                   args={"n": i})
        else:
            yield lambda t: t.on_finish(g)
        ch.buffer.append(i)
        if len(ch.buffer) > 2:
            ch.buffer.clear()


def _read(tracer):
    return ([e.as_dict() for e in tracer.events], tracer.format(),
            tracer.dropped, len(tracer))


RING_CAPACITIES = [1, 63, 64, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]

#: Clock steps in rotation: zero, 1-256 and above 2**30.  The period, 11,
#: is prime to every block size of :data:`RING_CAPACITIES`, so each size
#: of step lands on block edges and among the oldest block's skipped
#: records.
CLOCK_STEPS = (0, 1, 2**30 + 1, 0, 256, 5 << 31, 0, 97, 1 << 40, 0, 13)


def _step_size(step):
    return "zero" if step == 0 else "small" if step <= 256 else "large"


class TestBlockRing:
    """The block ring keeps exactly the last ``capacity`` records: every
    read equals the eager tracer's on its list ring, across block
    boundaries and at capacities that do not divide into blocks."""

    @pytest.mark.parametrize("capacity", RING_CAPACITIES)
    def test_window_equals_the_eager_reference(self, capacity):
        clock = Clock()
        ring, eager = ExecutionTracer(clock, capacity), EagerTracer(clock,
                                                                    capacity)
        block = min(BLOCK, capacity)
        n = 2 * capacity + 3 * block + 7
        checkpoints = {n // 3, n // 2 + 1, 2 * n // 3 + 2, n - 1}
        sizes = [_step_size(CLOCK_STEPS[i % len(CLOCK_STEPS)])
                 for i in range(n)]
        edges, skipped = set(), set()
        for i, call in enumerate(mixed_stream(n)):
            clock.now += CLOCK_STEPS[i % len(CLOCK_STEPS)]
            call(ring)
            call(eager)
            assert (len(ring), ring.dropped) == (len(eager), eager.dropped)
            assert ring._held() <= capacity + block
            if i % block in (0, block - 1):
                edges.add(sizes[i])
            if capacity <= 64 or i in checkpoints:
                assert _read(ring) == _read(eager), i
                # Records of the oldest block that precede the window.
                start = i + 1 - len(ring)
                skipped.update(sizes[start - start % block:start])
        assert ring.dropped == n - capacity > 0
        # Non-vacuity: every size of step met a block edge and, where a
        # block holds more than one record, the skipped records.
        assert edges == {"zero", "small", "large"}
        if block > 1:
            assert skipped == {"zero", "small", "large"}

    def test_capacity_must_be_positive(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError):
                ExecutionTracer(Clock(), capacity)


def _parked_on(*objs):
    """``objs`` with heap addresses set (the ``ε`` sentinel keeps 0)."""
    for i, obj in enumerate(objs):
        if obj is not EPSILON:
            obj.addr = 0x3000 + 0x100 * i
    return objs


class _TaggedChannel(Channel):
    """A subclass describes itself its own way: it keeps the tuple form."""

    kind = "tagged-chan"


def _two_channels():
    jobs, done = Channel(2, label="jobs"), Channel(0)
    jobs.make_site = "svc.go:12"
    jobs.buffer.append("queued")
    done.closed = True
    return jobs, done


#: One park per shape of ``B(g)``, with the wait reason it parks under.
PARKS = {
    "channel": lambda: (WaitReason.CHAN_SEND,
                        _parked_on(_two_channels()[0])),
    "select": lambda: (WaitReason.SELECT, _parked_on(*_two_channels())),
    "epsilon": lambda: (WaitReason.NIL_CHAN_RECEIVE, (EPSILON,)),
    "mutex": lambda: (WaitReason.SYNC_MUTEX_LOCK,
                      _parked_on(Mutex(label="mu"))),
    "waitgroup": lambda: (WaitReason.SYNC_WAITGROUP_WAIT,
                          _parked_on(WaitGroup())),
    "channel-subclass": lambda: (WaitReason.CHAN_RECEIVE,
                                 _parked_on(_TaggedChannel(1, label="t"))),
}


@pytest.mark.parametrize("shape", list(PARKS))
def test_every_park_shape_reads_back_as_the_eager_tracer(shape):
    clock = Clock()
    ring, eager = ExecutionTracer(clock), EagerTracer(clock)
    reason, objs = PARKS[shape]()
    g = Goroutine(5)
    g.bind(_body(), "svc.go:40", parent_goid=1, name="w-5", fn_name="w")
    g.blocked_on = objs
    for tracer in (ring, eager):
        tracer.on_park(g, reason)
    clock.now += 300
    for tracer in (ring, eager):
        tracer.on_wake(g)
        tracer.on_park(g, reason)
    # The objects move on after the parks; the records do not.
    for obj in objs:
        if isinstance(obj, Channel):
            obj.buffer = [*obj.buffer, "late"]
            obj.closed = not obj.closed
            obj.label = "relabelled"
    assert _read(ring) == _read(eager)
    assert [e.as_dict() for e in ring.of_kind(ev.GO_PARK)] == \
        [e.as_dict() for e in eager.of_kind(ev.GO_PARK)]
    park = ring.events[0]
    assert len(park.args["blocked_on"]) == len(objs)


# ---------------------------------------------------------------------------
# Shape codes: a coded slice and a bare channel operation read back as the
# generic shapes that store every field
# ---------------------------------------------------------------------------


class GenericShapes(ExecutionTracer):
    """The tracer with every slice and channel operation in its generic
    shape: a slice keeps its processor and mnemonic, and a channel
    operation keeps its ``extra`` slot when it is empty."""

    def on_instr(self, pid, g, mnemonic, cost_ns):
        self._on_instr_uncoded(pid, g, mnemonic, cost_ns)

    def on_chan_op(self, kind, g, ch, partner=0, extra=None):
        now = self.clock.now
        self._put((tracer_mod._CHAN_SHAPE[kind], now - self._t, g.goid,
                   ch.addr, ch.label, partner,
                   tuple(extra.items()) if extra else ()))
        self._t = now
        self._left -= 1
        if not self._left:
            self._spill()


def _codes(tracer):
    """Every shape code the ring stores."""
    codes = set()
    for block in (*tracer._blocks, tracer._block):
        i = 0
        while i < len(block):
            codes.add(block[i])
            i += tracer_mod._SHAPES[block[i]][3]
    return codes


def _surface(tracer, goids, watched):
    return (tracer.records, [e.as_dict() for e in tracer.events],
            tracer.format(), tracer.dropped,
            tracer.provenance_scan(goids, watched))


@pytest.fixture
def code_table(monkeypatch):
    """An empty code table for the test; call the fixture's value to cap
    it."""
    monkeypatch.setattr(tracer_mod, "_INSTR_CODES", {})
    monkeypatch.setattr(tracer_mod, "_INSTR_KEYS", {})

    def cap(n):
        monkeypatch.setattr(tracer_mod, "_INSTR_CODES_MAX", n)
    return cap


def _stream_codes(capacity=64, n=600):
    """Feed :func:`mixed_stream` to a tracer and to the generic shapes;
    check every read equal and return the codes the tracer stored."""
    clock = Clock()
    coded, generic = ExecutionTracer(clock, capacity), GenericShapes(
        clock, capacity)
    for i, call in enumerate(mixed_stream(n)):
        clock.now += CLOCK_STEPS[i % len(CLOCK_STEPS)]
        call(coded)
        call(generic)
    # Scans for one, two and no goroutines of the stream, watching its
    # channel.
    for goids in ({2: None}, {3: None, 5: None}, {}):
        assert (_surface(coded, goids, {0x2000})
                == _surface(generic, goids, {0x2000}))
    assert coded.dropped > 0
    return _codes(coded)


def test_coded_slices_and_bare_operations_read_as_the_generic_shapes(
        code_table):
    codes = _stream_codes()
    # A make, send and recv store no extra; a close keeps its own.
    assert {tracer_mod._BARE_MAKE, tracer_mod._BARE_SEND,
            tracer_mod._BARE_RECV, tracer_mod._CLOSE} <= codes
    assert not codes & {tracer_mod._MAKE, tracer_mod._SEND,
                        tracer_mod._RECV, tracer_mod._INSTR}
    # Three processors x one mnemonic: three codes.
    assert sorted(c for c in codes if c >= tracer_mod._CODED) == [
        tracer_mod._CODED + k for k in range(3)]


def test_a_full_code_table_leaves_every_slice_generic(code_table):
    code_table(0)
    codes = _stream_codes()
    assert tracer_mod._INSTR in codes
    assert max(codes) < tracer_mod._CODED
    assert tracer_mod._INSTR_KEYS == {}


def test_a_processor_beyond_the_table_keeps_its_pid(code_table):
    # Room for the first processor's code only: the stream's slices on
    # processors 1 and 2 keep their pid and mnemonic.
    code_table(1)
    codes = _stream_codes()
    assert {tracer_mod._INSTR, tracer_mod._CODED} <= codes
    assert tracer_mod._INSTR_KEYS == {tracer_mod._CODED: (0, "send")}


class Nap(Sleep):
    """An instruction subclass with a mnemonic of its own."""

    __slots__ = ()
    MNEMONIC = "nap"


def _nap_run(monkeypatch, tracer_cls):
    """A traced run whose goroutines nap and leak: its tracer and its
    rendered provenance.  The executor runs a subclass through its
    exact-type table, so the test gives ``Nap`` the sleep handler."""
    import repro.trace
    from repro.runtime import executor

    monkeypatch.setitem(executor._HANDLERS, Nap, executor._HANDLERS[Sleep])
    monkeypatch.setattr(repro.trace, "ExecutionTracer", tracer_cls)
    rt = Runtime(procs=2, seed=4)
    tracer = rt.enable_tracing(capacity=64)

    def napper():
        ch = yield MakeChan(0, label="never")
        for _ in range(5):
            yield Nap(MICROSECOND)
        yield Recv(ch)

    def main():
        for _ in range(3):
            yield Go(napper)
        yield Sleep(MILLISECOND)
        yield RunGC()

    rt.spawn_main(main)
    rt.run()
    assert type(tracer) is tracer_cls and len(rt.reports) == 3
    return tracer, [r.provenance.as_dict() for r in rt.reports]


def test_a_mnemonic_of_its_own_reads_as_the_generic_shape(monkeypatch,
                                                          code_table):
    coded, coded_provenance = _nap_run(monkeypatch, ExecutionTracer)
    generic, generic_provenance = _nap_run(monkeypatch, GenericShapes)
    assert coded_provenance == generic_provenance
    goids = {r[2]: None for r in coded.records if r[1] == ev.INSTR}
    made = {r[5] for r in coded.records if r[1] == ev.CHAN_MAKE}
    assert goids and made
    assert _surface(coded, goids, made) == _surface(generic, goids, made)
    assert "nap" in {m for _, m in tracer_mod._INSTR_KEYS.values()}
    assert "nap" in coded.format()
