"""End-to-end telemetry: determinism, runtime wiring, cross-run dedup.

The headline property (ISSUE: telemetry determinism): two runs of the
same ``(benchmark, procs, seed)`` produce *byte-identical* expositions,
snapshots, and flight-recorder dumps, because every timestamp comes from
the virtual clock and every rendering is deterministically ordered.
"""

import json
import os

import pytest

from repro import GolfConfig, Runtime
from repro.errors import GoPanic, InjectedPanic
from repro.runtime.instructions import (
    Go,
    MakeChan,
    Panic,
    RunGC,
    Send,
    Sleep,
)
from repro.runtime.objects import Blob, Box
from repro.telemetry import TelemetryHub, validate_exposition
from repro.trace import events as ev

BENCH = "cgo/sendmail"


HUB_FILES = ("-fingerprints.json", "-metrics.json", "-recorder.txt",
             ".prom")


def _observed_run(out_dir):
    """``{suffix: bytes}`` of the hub's four files from one ``repro run``."""
    from repro.cli import main

    assert main(["run", "--benchmark", BENCH, "--procs", "2", "--seed",
                 "0", "--out-dir", str(out_dir)]) == 0
    stem = f"run-{BENCH.replace('/', '-')}-p2-s0"
    return {suffix: (out_dir / (stem + suffix)).read_bytes()
            for suffix in HUB_FILES}


class TestDeterminism:
    def test_identical_runs_identical_artifacts(self, tmp_path, capsys):
        assert (_observed_run(tmp_path / "a")
                == _observed_run(tmp_path / "b"))

    def test_exposition_is_scrapeable(self, tmp_path, capsys):
        prom = _observed_run(tmp_path)[".prom"].decode()
        assert validate_exposition(prom) >= 3


class TestRuntimeWiring:
    def _leaky_run(self, hub):
        rt = Runtime(procs=2, seed=3, config=GolfConfig())
        rt.enable_telemetry(hub)
        rt.enable_tracing()

        def main():
            ch = yield MakeChan(0)

            def sender(c):
                yield Send(c, 1)

            yield Go(sender, c := ch, name="leaker")
            del ch, c
            yield Sleep(20_000)
            yield RunGC()
            yield RunGC()

        rt.spawn_main(main)
        rt.run(until_ns=100_000_000)
        return rt

    def test_scheduler_and_gc_instruments(self):
        hub = TelemetryHub()
        rt = self._leaky_run(hub)
        assert hub.ctx_switches.value > 0
        metric = hub.registry.get("repro_gc_cycles_total")
        assert sum(c.value for _, c in metric.series()) >= 2
        park_reasons = {e.detail for e in rt.tracer.of_kind(ev.GO_PARK)}
        assert "chan send" in park_reasons

    def test_detector_instruments_and_incident(self):
        hub = TelemetryHub()
        self._leaky_run(hub)
        assert [e.goid for e in hub.recorder.events()
                if e.category == "detector" and e.kind == ev.DEADLOCK] == [2]
        assert len(hub.fingerprints) == 1
        reasons = [i.reason for i in hub.recorder.incidents]
        assert "leak-report" in reasons

    def test_telemetry_off_by_default(self):
        rt = Runtime(procs=1, seed=1)
        assert rt.telemetry is None

    def test_a_hub_attaches_only_by_argument(self):
        hub = TelemetryHub()
        rt = Runtime(procs=1, seed=1)
        assert rt.telemetry is None
        assert rt.enable_telemetry(hub) is hub and rt.telemetry is hub
        assert Runtime(procs=1, seed=1).telemetry is None


def _incremental_store(rt):
    """A white object stored into a heap box while the collector marks."""
    white = rt.heap.allocate(Blob(32))
    box = rt.heap.allocate(Box(None))
    rt.collector._begin_cycle("test")
    box.value = white
    while rt.collector.gc_step():
        pass


def _scoped_panic(rt):
    def victim():
        yield Sleep(1_000)
        raise InjectedPanic("scoped boom")

    def main():
        yield Go(victim, name="victim")
        yield Sleep(50_000)

    rt.spawn_main(main)
    rt.run(until_ns=1_000_000)


def _fatal_panic(rt):
    def main():
        yield Panic("fatal boom")

    rt.spawn_main(main)
    with pytest.raises(GoPanic, match="fatal boom"):
        rt.run(until_ns=1_000_000)


class TestColdHooks:
    """Hooks only an unusual run reaches: each fires from the smallest
    program that triggers it, with a hub and a tracer attached at once.
    The tracer logs the transition exactly once; the hub's recorder,
    which logs only what the hub counts, stays empty of it."""

    @pytest.mark.parametrize("scenario, gc_mode, trace_kind, detail", [
        (_incremental_store, "incremental", ev.BARRIER_SHADE, "via box"),
        (_scoped_panic, "atomic", ev.GO_PANIC, "scoped boom"),
        (_fatal_panic, "atomic", ev.GO_PANIC, "fatal boom"),
    ], ids=["gc-phase+shade", "goroutine-panic", "crash"])
    def test_hook_reaches_hub_and_tracer(self, scenario, gc_mode,
                                         trace_kind, detail):
        rt = Runtime(procs=2, seed=3, config=GolfConfig(gc_mode=gc_mode))
        hub = TelemetryHub()
        rt.enable_telemetry(hub)
        tracer = rt.enable_tracing()
        scenario(rt)
        (event,) = tracer.of_kind(trace_kind)
        assert detail in event.detail, event.detail
        assert [e for e in hub.recorder.events()
                if e.category == "sched"] == []
        assert hub.recorder.incidents == []


class TestObsCli:
    def test_obs_emits_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = str(tmp_path / "run")
        assert main(["run", "--benchmark", BENCH, "--seed", "0",
                     "--out-dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "context switches:" in out
        assert "leak fingerprint" in out
        base = f"run-{BENCH.replace('/', '-')}-p2-s0"
        prom = os.path.join(out_dir, f"{base}.prom")
        with open(prom) as fh:
            assert validate_exposition(fh.read()) >= 3
        with open(os.path.join(out_dir, f"{base}-metrics.json")) as fh:
            snap = json.load(fh)
        assert json.loads(json.dumps(snap)) == snap
        assert "repro_gc_cycles_total" in snap["metrics"]
        assert os.path.exists(
            os.path.join(out_dir, f"{base}-recorder.txt"))
        assert os.path.exists(
            os.path.join(out_dir, f"{base}-fingerprints.json"))

    def test_obs_fingerprint_db_dedups_across_invocations(
            self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "leaks.json")
        out_dir = str(tmp_path / "run")
        for _ in range(2):
            assert main(["run", "--benchmark", BENCH,
                         "--fingerprint-db", db,
                         "--out-dir", out_dir]) == 0
        capsys.readouterr()
        with open(db) as fh:
            data = json.load(fh)
        assert data["records"]
        for record in data["records"]:
            assert len(record["runs"]) == 2
