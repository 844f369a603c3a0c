"""The leak-provenance engine: why-leaked evidence for every report.

The acceptance bar: every leak report GOLF produces — across the whole
73-benchmark registry — carries a :class:`ProvenanceRecord` with a
non-empty causal evidence chain, and the records identify the blocked
operation and last-communication partners correctly on the paper's
listings (Listing 2 analog ``cgo/timeout-leak``, Listing 7
``cgo/sendmail``).  The trace read behind the trace-derived evidence
stops early; it is checked here against the whole-ring read it
replaced, kept verbatim as the reference.
"""

from __future__ import annotations

import copy
import json
from typing import Dict, List, Set, Tuple

import pytest

from repro import Runtime
from repro.cli import main
from repro.core.checkpoint import CheckpointManager, WorkerSpec
from repro.equivalence import corpus
from repro.microbench.harness import run_microbenchmark
from repro.microbench.registry import all_benchmarks, benchmarks_by_name
from repro.runtime.channel import Channel
from repro.runtime.clock import MILLISECOND, Clock
from repro.runtime.goroutine import Goroutine
from repro.runtime.instructions import (
    Go,
    Lock,
    MakeChan,
    NewMutex,
    NewWaitGroup,
    Recv,
    RunGC,
    Send,
    Sleep,
    WgAdd,
    WgWait,
)
from repro.runtime.waitreason import WaitReason
from repro.service.controlled import ControlledConfig, run_controlled
from repro.service.production import ProductionConfig, run_production
from repro.telemetry import TelemetryHub
from repro.trace import events as ev
from repro.trace import tracer as tracer_mod
from repro.trace.tracer import ExecutionTracer, Record, event_of


def _run_with_reports(bench, procs=2, seed=1, rt_hook=None):
    captured = []

    def hook(rt):
        captured.append(rt)
        if rt_hook is not None:
            rt_hook(rt)

    run_microbenchmark(bench, procs=procs, seed=seed, rt_hook=hook)
    rt = captured[0]
    rt.gc_until_quiescent()
    reports = list(rt.reports.reports)
    rt.shutdown()
    return reports


def _traced_provenance(name, seed=0):
    """The why-leaked records of a traced run of registry program
    ``name`` at procs 2."""
    reports = _run_with_reports(benchmarks_by_name()[name], seed=seed,
                                rt_hook=lambda rt: rt.enable_tracing())
    return [r.provenance for r in reports if r.provenance is not None]


def _run_artifacts(out_dir, name="cgo/sendmail", seed=0):
    """``{file name: bytes}`` of every artifact one ``repro run`` writes."""
    assert main(["run", "--benchmark", name, "--seed", str(seed),
                 "--out-dir", str(out_dir)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestRegistrySweep:
    def test_every_report_in_the_registry_has_evidence(self):
        """All 73 buggy variants: no report without a why-leaked record.

        Detection of every site is Table 1's concern, not this test's;
        here any report that *does* exist must explain itself.
        """
        missing = []
        total = 0
        for bench in all_benchmarks():
            for report in _run_with_reports(bench):
                total += 1
                prov = report.provenance
                if prov is None or not prov.evidence:
                    missing.append(f"{bench.name}: {report.glabel}")
        assert not missing, missing
        assert total > 73  # the sweep actually exercised the registry

    def test_provenance_matches_its_report(self):
        bench = benchmarks_by_name()["cgo/sendmail"]
        (report,) = _run_with_reports(bench)
        prov = report.provenance
        assert prov.goid == report.goid
        assert prov.glabel == report.glabel
        assert prov.wait_reason == report.wait_reason
        assert prov.gc_cycle == report.gc_cycle


class TestListingEvidence:
    def test_listing2_timeout_leak_blocked_op(self):
        """Listing 2 analog: a worker abandoned by a timed-out parent."""
        (prov,) = _traced_provenance("cgo/timeout-leak")
        assert prov.wait_reason == "chan send"
        (op,) = prov.blocked_op
        assert op["kind"] == "chan"
        assert op["capacity"] == 0
        assert op["waiting_senders"] == 1
        assert op["waiting_receivers"] == 0
        assert not op["closed"]
        # Nobody ever took the result: the ledger proves the absence of
        # a communication partner.
        (partner,) = prov.partners
        assert partner["transfers"] == 0
        # The trace names the goroutine that walked away.
        assert any("body#" in line for line in prov.abandoned_by)

    def test_listing7_sendmail_evidence_chain(self):
        """Listing 7: the sendmail task blocked on an abandoned chan."""
        (prov,) = _traced_provenance("cgo/sendmail")
        assert prov.wait_reason == "chan send"
        (op,) = prov.blocked_op
        assert op["kind"] == "chan"
        assert op["label"] == "done"
        assert len(prov.evidence) >= 3
        text = prov.format()
        assert "why-leaked" in text
        assert "chan send" in text
        assert prov.glabel in text
        # The event slice ends at the fatal park.
        assert prov.event_slice
        assert prov.event_slice[-1]["kind"] == "go-park"

    def test_double_send_records_first_transfer_partner(self):
        """cgo/double-send: the first send completed — the ledger must
        name both ends before the second send wedges."""
        (prov,) = _traced_provenance("cgo/double-send")
        (partner,) = prov.partners
        assert partner["transfers"] == 1
        assert partner["last_sender_goid"] == prov.goid
        assert partner["last_receiver_goid"] > 0
        assert partner["last_receiver_goid"] != prov.goid

    def test_provenance_without_tracer_still_has_evidence(self):
        """The engine is not gated on tracing: a bare GOLF run gets
        why-leaked records too (minus the event slice)."""
        bench = benchmarks_by_name()["cgo/timeout-leak"]
        (report,) = _run_with_reports(bench)
        prov = report.provenance
        assert prov is not None
        assert len(prov.evidence) >= 3
        assert prov.event_slice == []


class TestArtifacts:
    def test_provenance_json_round_trips(self, tmp_path, capsys):
        _run_artifacts(tmp_path)
        with open(tmp_path / "run-cgo-sendmail-p2-s0-provenance.json") as fh:
            doc = json.load(fh)
        assert doc["benchmark"] == "cgo/sendmail"
        assert doc["procs"] == 2 and doc["seed"] == 0
        (leak,) = doc["leaks"]
        assert leak["evidence"]
        assert leak["glabel"] == _traced_provenance("cgo/sendmail")[0].glabel

    def test_artifacts_byte_identical_across_runs(self, tmp_path, capsys):
        blobs = [_run_artifacts(tmp_path / str(i), "cgo/timeout-leak", seed=5)
                 for i in range(2)]
        assert blobs[0] == blobs[1]

    def test_cli_end_to_end(self, tmp_path, capsys):
        _run_artifacts(tmp_path)
        out = capsys.readouterr().out
        assert "1 why-leaked record(s)" in out
        assert "chrome schema   : valid" in out
        assert (tmp_path / "run-cgo-sendmail-p2-s0.trace.json").exists()
        text = (tmp_path / "run-cgo-sendmail-p2-s0-provenance.txt").read_text()
        assert "why-leaked: goroutine" in text

    def test_report_as_dict_excludes_provenance_object(self):
        """The equivalence oracle compares report dicts across GC modes;
        provenance stays out of that surface (it is its own artifact)."""
        bench = benchmarks_by_name()["cgo/sendmail"]
        (report,) = _run_with_reports(bench)
        assert "provenance" not in report.as_dict()
        assert report.as_dict()["glabel"] == report.glabel


#: The fields a record renders from its detection-time facts.
RENDERED = ("blocked_op", "reachability", "waitfor", "partners", "evidence")


def _read_contract_records():
    """Records covering every rendered field: traced listings (event
    slice, abandoners) and an untraced registry sweep (wait-for peers,
    ε waits, off-heap and shared objects)."""
    records = [prov for name in ("cgo/timeout-leak", "cgo/double-send")
               for prov in _traced_provenance(name)]
    for bench in all_benchmarks():
        records += [r.provenance for r in _run_with_reports(bench)]
    assert any(prov.waitfor for prov in records)
    assert any(prov.abandoned_by for prov in records)
    return records


def _vandalise(value):
    """Mutate every list and dict inside ``value`` in place."""
    if isinstance(value, dict):
        for item in value.values():
            _vandalise(item)
        value["vandal"] = True
    elif isinstance(value, list):
        for item in value:
            _vandalise(item)
        value.append("vandal")


class TestReadContract:
    """A record keeps what detection saw and renders each read afresh."""

    def test_two_reads_are_equal(self):
        for prov in _read_contract_records():
            for field in RENDERED:
                assert getattr(prov, field) == getattr(prov, field), field
            assert prov.as_dict() == prov.as_dict()
            assert prov.format() == prov.format()

    def test_mutating_a_read_leaves_the_next_read_unchanged(self):
        """New with render-on-read: at capture-time rendering the
        record handed out its own lists, and a caller's edit stuck."""
        for prov in _read_contract_records():
            for field in RENDERED:
                pristine = copy.deepcopy(getattr(prov, field))
                _vandalise(getattr(prov, field))
                assert getattr(prov, field) == pristine, field
            pristine = copy.deepcopy(prov.as_dict())
            _vandalise(prov.as_dict())
            assert prov.as_dict() == pristine

    def test_a_recovery_note_follows_the_verdict(self):
        """A checkpoint rollback adds its line after the chain's verdict."""
        rt = Runtime(seed=3)
        mgr = CheckpointManager(rt)
        endpoint = rt.make_chan(0)
        spawned = []

        def wedge_once():
            spawned.append(1)
            if len(spawned) == 1:
                ch = yield MakeChan(0)
                yield Recv(ch)
            yield Recv(endpoint)

        def idler():
            yield Recv(endpoint)

        def main():
            yield Sleep(5 * MILLISECOND)

        mgr.register("pool", channels=[endpoint],
                     workers=[WorkerSpec("w0", wedge_once),
                              WorkerSpec("w1", idler)])
        rt.spawn_main(main)
        rt.run(until_ns=5 * MILLISECOND)
        rt.gc_until_quiescent()
        assert mgr.total_recoveries() == 1
        (report,) = rt.reports.reports
        *chain, verdict, note = report.provenance.evidence
        assert chain
        assert verdict == ("therefore no live goroutine can ever complete "
                           "the blocking operation: partial deadlock")
        assert note.startswith("recovery: subsystem 'pool' rolled back to "
                               "checkpoint @")


# ---------------------------------------------------------------------------
# The why-leaked scan reads back only to the condemned goroutines' births
# ---------------------------------------------------------------------------


def reference_provenance_scan(self, goids, watched: Set[int]
                              ) -> Tuple[Dict[int, List[Record]],
                                         Dict[int, Record], List[Tuple]]:
    """What ``ExecutionTracer.provenance_scan`` returns, read off the
    decoded records of the whole ring, oldest first, with the last
    ``go-create`` record of every goroutine not in ``goids``.  A touch
    is read off the rendered event: every ``B(g)`` address of a
    ``go-park``, the ``chan`` of any other event."""
    own: Dict[int, List[Record]] = {goid: [] for goid in goids}
    creates: Dict[int, Record] = {}
    touches: List[Tuple] = []
    for r in self.iter_records():
        goid = r[2]
        if goid in own:
            own[goid].append(r)
        elif goid:
            e = event_of(r)
            if e.kind == ev.GO_CREATE:
                creates[goid] = r
                continue
            args = e.args or {}
            if e.kind == ev.GO_PARK:
                addrs = tuple(d["addr"] for d in args["blocked_on"])
            else:
                addrs = (args.get("chan"),)
            if not watched.isdisjoint(addrs):
                touches.append((goid, e.kind, addrs))
    return own, creates, touches


def assert_scan_is_the_reference(tracer, goids, watched: Set[int],
                                 got) -> Set[int]:
    """``got``, what ``tracer.provenance_scan(goids, watched)`` returned,
    has the reference's ``own`` and ``touches``, and its ``creates`` on
    every abandoner; returns the abandoners."""
    own, creates, touches = reference_provenance_scan(tracer, goids,
                                                      watched)
    assert got[0] == own and got[2] == touches
    abandoners = {goid for goid, _, _ in touches}
    assert got[1] == {goid: creates[goid] for goid in abandoners
                      if goid in creates}
    return abandoners


#: Records per block while these tests run: small, so that a ring spans
#: many blocks and the early stop has somewhere to stop.
SMALL_BLOCK = 16


class ScanLog:
    """What each scan of a run did: the blocks its first read visited
    and the blocks the ring held, checked against the reference."""

    def __init__(self):
        self.scans: List[Tuple[int, int]] = []
        self.abandoners = 0
        self.skipped = 0


@pytest.fixture
def scan_log(monkeypatch):
    """Small blocks, and every ``provenance_scan`` checked against the
    reference: ``own`` and ``touches`` equal, ``creates`` equal on every
    abandoner."""
    log = ScanLog()
    scan = ExecutionTracer.provenance_scan
    scan_block = tracer_mod._scan_block
    visited = []

    def counted(*args):
        visited.append(1)
        return scan_block(*args)

    def checked(self, goids, watched):
        visited.clear()
        got = scan(self, goids, watched)
        abandoners = assert_scan_is_the_reference(self, goids, watched, got)
        log.scans.append((len(visited), len(self._blocks) + 1))
        log.abandoners += len(abandoners)
        log.skipped += self._held() > len(self)
        return got

    monkeypatch.setattr(tracer_mod, "BLOCK", SMALL_BLOCK)
    monkeypatch.setattr(tracer_mod, "_scan_block", counted)
    monkeypatch.setattr(ExecutionTracer, "provenance_scan", checked)
    return log


#: One ring the runs never overflow, and one they overflow many times.
SCAN_CAPACITIES = {"spanning": 100_000, "overflowing": 200}


class _TracedHub(TelemetryHub):
    """A hub whose ``attach`` turns the tracer on at ``capacity``."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def attach(self, rt):
        if rt.sched.tracer is None:
            rt.enable_tracing(capacity=self.capacity)
        return super().attach(rt)


class TestSuffixScan:
    """The early-stopping scan returns what the whole-ring scan did."""

    @pytest.mark.parametrize("capacity", list(SCAN_CAPACITIES))
    @pytest.mark.parametrize("procs", [1, 4])
    def test_corpus(self, procs, capacity, scan_log):
        cap = SCAN_CAPACITIES[capacity]
        for program in corpus():
            run_microbenchmark(
                program.bench, procs=procs, seed=7, use_fixed=program.fixed,
                rt_hook=lambda rt: rt.enable_tracing(capacity=cap))
        scans = scan_log.scans
        assert len(scans) > 50 and scan_log.abandoners > 0
        assert (scan_log.skipped > 0) == (capacity == "overflowing")
        # Non-vacuity: the rings span blocks and some reads stop early.
        assert max(held for _, held in scans) > 8
        assert any(visited < held for visited, held in scans)

    @pytest.mark.parametrize("capacity", list(SCAN_CAPACITIES))
    def test_services(self, capacity, scan_log):
        cap = SCAN_CAPACITIES[capacity]
        run_production(ProductionConfig(hours=0.02, seed=7),
                       telemetry=_TracedHub(cap))
        run_controlled(ControlledConfig(duration_s=2, leak_rate=0.1, seed=7),
                       telemetry=_TracedHub(cap))
        assert len(scan_log.scans) > 3
        # The small ring holds neither births nor touches by detection.
        if capacity == "spanning":
            assert scan_log.abandoners > 0
            assert any(visited < held for visited, held in scan_log.scans)


def _body():
    yield


def test_every_channel_operation_on_a_watched_channel_is_a_touch():
    # Built by hand: in a run, a close wakes every waiter, so no
    # condemned goroutine waits on a channel a close names.
    tracer = ExecutionTracer(Clock())
    ch = Channel(1, label="jobs")
    ch.addr = 0x2000
    gs = {}
    for goid in (2, 3, 4):
        gs[goid] = g = Goroutine(goid)
        g.bind(_body(), f"svc.go:{goid}", parent_goid=1, name=f"w-{goid}",
               fn_name="w")
        tracer.on_create(g)
    tracer.on_chan_op(ev.CHAN_MAKE, gs[2], ch)
    tracer.on_chan_op(ev.CHAN_SEND, gs[2], ch, partner=3)
    tracer.on_chan_op(ev.CHAN_RECV, gs[3], ch, partner=2)
    tracer.on_chan_close(gs[3], ch, 0)
    gs[4].blocked_on = (ch,)
    tracer.on_park(gs[4], WaitReason.CHAN_RECEIVE)
    got = tracer.provenance_scan({4: None}, {0x2000})
    assert_scan_is_the_reference(tracer, {4: None}, {0x2000}, got)
    assert [(goid, kind) for goid, kind, _ in got[2]] == [
        (2, ev.CHAN_MAKE), (2, ev.CHAN_SEND), (3, ev.CHAN_RECV),
        (3, ev.CHAN_CLOSE)]


def _chatter(buf, rounds):
    """Trace records that name no condemned goroutine or watched object
    (``buf`` is a buffered channel of the caller's)."""
    for i in range(rounds):
        yield Send(buf, i)
        yield Recv(buf)


def _scan_run(main, capacity=100_000, rt=None):
    """Run ``main`` traced until it returns and the collector has found
    its leaks; returns the runtime."""
    rt = rt or Runtime(procs=1, seed=7)
    if rt.sched.tracer is None:
        rt.enable_tracing(capacity=capacity)
    rt.spawn_main(main)
    rt.run(until_ns=100 * MILLISECOND)
    rt.gc_until_quiescent()
    assert rt.reports.reports
    return rt


def _sync_leak(make, waiter):
    """A ``main`` whose goroutine ``waiter`` blocks for ever on a sync
    object made before any channel."""
    def main():
        obj = yield make()
        yield Go(waiter, obj, name="stuck")
        del obj
        buf = yield MakeChan(1)
        yield from _chatter(buf, 40)
        yield RunGC()
        yield RunGC()
    return main


def _lock_twice(mu):
    yield Lock(mu)
    yield Lock(mu)


def _wait_forever(wg):
    yield WgAdd(wg, 1)
    yield WgWait(wg)


class TestScanFallback:
    """Where the ring holds no birth to stop at, the scan reads to the
    ring's start, and still returns what the whole-ring scan does."""

    @pytest.mark.parametrize("kind", ["mutex", "waitgroup"])
    def test_a_condemned_goroutine_parked_on_a_sync_object(self, kind,
                                                            scan_log):
        make, waiter = {"mutex": (NewMutex, _lock_twice),
                        "waitgroup": (NewWaitGroup, _wait_forever)}[kind]
        _scan_run(_sync_leak(make, waiter))
        # The object was made before any channel: no chan-make below it.
        ((visited, held),) = scan_log.scans
        assert visited == held > 8

    def test_a_channel_made_by_host_code(self, scan_log):
        rt = Runtime(procs=1, seed=7)
        rt.enable_tracing()
        box = [rt.make_chan(0)]

        def waiter(ch):
            yield Recv(ch)

        def main():
            buf = yield MakeChan(1)
            yield from _chatter(buf, 40)
            yield Go(waiter, box.pop(), name="stuck")
            yield from _chatter(buf, 4)
            yield RunGC()
            yield RunGC()

        _scan_run(main, rt=rt)
        ((visited, held),) = scan_log.scans
        assert visited == held > 8

    def test_births_evicted_from_the_ring(self, scan_log):
        def waiter(ch):
            yield Recv(ch)

        def main():
            dead = yield MakeChan(0)
            yield Go(waiter, dead, name="stuck")
            del dead
            buf = yield MakeChan(1)
            yield from _chatter(buf, 80)
            yield RunGC()
            yield RunGC()

        rt = _scan_run(main, capacity=64)
        assert rt.tracer.dropped > 0 and scan_log.skipped
        ((visited, held),) = scan_log.scans
        assert visited == held

    def test_an_abandoner_born_before_the_stop_point(self, scan_log):
        def abandoner(start):
            ch, _ = yield Recv(start)
            yield Recv(ch)

        def waiter(ch):
            yield Recv(ch)

        def maker(start):
            ch = yield MakeChan(0)
            yield Send(start, ch)
            yield Sleep(MILLISECOND)  # the abandoner parks on ch
            yield Send(ch, "go on")
            yield Go(waiter, ch, name="stuck")

        def main():
            buf = yield MakeChan(1)
            yield from _chatter(buf, 20)
            start = yield MakeChan(0)
            yield Go(abandoner, start, name="early")
            yield from _chatter(buf, 40)
            yield Go(maker, start, name="late")
            yield Sleep(2 * MILLISECOND)  # the maker is done
            yield from _chatter(buf, 4)
            yield RunGC()
            yield RunGC()

        rt = _scan_run(main)
        # The abandoner was born 40 rounds before the stuck goroutine
        # and its channel: the read goes back to its go-create, which
        # gives its label rather than g<goid>, and stops there, short
        # of the ring's start.
        (report,) = rt.reports.reports
        assert report.provenance.abandoned_by == [
            "abandoner#2: once waited here, then proceeded",
            "maker#3: last touched it via chan-make"]
        ((visited, held),) = scan_log.scans
        assert 4 < visited < held
