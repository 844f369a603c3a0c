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
from repro.chaos import run_chaos_campaign
from repro.errors import GoPanic, InjectedPanic
from repro.runtime.instructions import (
    Go,
    MakeChan,
    Panic,
    Recv,
    RunGC,
    Send,
    Sleep,
)
from repro.runtime.objects import Blob, Box
from repro.runtime.watchdog import Watchdog
from repro.service.resilience import ResilienceConfig, run_resilient_production
from repro.telemetry import (
    DEBUG,
    TelemetryHub,
    get_default_hub,
    run_observed_benchmark,
    set_default_hub,
    validate_exposition,
)
from repro.trace import events as ev

BENCH = "cgo/sendmail"


def _observed_run():
    hub = TelemetryHub(min_severity=DEBUG)
    run_observed_benchmark(BENCH, procs=2, seed=0, hub=hub)
    return hub


class TestDeterminism:
    def test_identical_runs_identical_artifacts(self):
        a, b = _observed_run(), _observed_run()
        assert a.render_prometheus() == b.render_prometheus()
        assert (json.dumps(a.snapshot(), sort_keys=True)
                == json.dumps(b.snapshot(), sort_keys=True))
        assert a.recorder.dump() == b.recorder.dump()
        assert (json.dumps(a.fingerprints.as_dict(), sort_keys=True)
                == json.dumps(b.fingerprints.as_dict(), sort_keys=True))

    def test_exposition_is_scrapeable(self):
        hub = _observed_run()
        assert validate_exposition(hub.render_prometheus()) > 50


class TestRuntimeWiring:
    def _leaky_run(self, hub):
        rt = Runtime(procs=2, seed=3, config=GolfConfig())
        rt.enable_telemetry(hub)

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
        hub = TelemetryHub(min_severity=DEBUG)
        self._leaky_run(hub)
        assert hub.ctx_switches.value > 0
        assert hub.spawned.value >= 2  # main + leaker
        metric = hub.registry.get("repro_gc_cycles_total")
        assert sum(c.value for _, c in metric.series()) >= 2
        park_reasons = {v[0] for v, _ in hub.parks.series()}
        assert "chan send" in park_reasons

    def test_detector_instruments_and_incident(self):
        hub = TelemetryHub()
        self._leaky_run(hub)
        found = hub.registry.get("repro_detector_leaks_total")
        reclaimed = hub.registry.get("repro_detector_leaks_reclaimed_total")
        assert sum(c.value for _, c in found.series()) == 1
        assert sum(c.value for _, c in reclaimed.series()) == 1
        assert len(hub.fingerprints) == 1
        reasons = [i.reason for i in hub.recorder.incidents]
        assert "leak-report" in reasons

    def test_telemetry_off_by_default(self):
        rt = Runtime(procs=1, seed=1)
        assert rt.telemetry is None

    def test_default_hub_auto_attaches(self):
        hub = TelemetryHub()
        set_default_hub(hub)
        try:
            rt = Runtime(procs=1, seed=1)
            assert rt.telemetry is hub
            assert get_default_hub() is hub
        finally:
            set_default_hub(None)
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


def _stall(rt):
    Watchdog(rt).install(interval_ns=5_000_000)

    def main():
        ch = yield MakeChan(0)
        yield Recv(ch)

    rt.spawn_main(main)
    rt.run(until_ns=50_000_000)


class TestColdHooks:
    """Hooks only an unusual run reaches: each fires from the smallest
    program that triggers it, into a hub and a tracer at once."""

    @pytest.mark.parametrize("scenario, gc_mode, counters, recorder_line, "
                             "incident, trace_kind", [
        (_incremental_store, "incremental",
         {"repro_gc_phase_transitions_total": 5},
         "gc-phase #1 marking", None, ev.BARRIER_SHADE),
        (_scoped_panic, "atomic", {"repro_sched_crashes_total": 0},
         "scoped boom", None, ev.GO_PANIC),
        (_fatal_panic, "atomic", {"repro_sched_crashes_total": 1},
         "crash g1 fatal boom", "fatal-panic", None),
        (_stall, "atomic", {"repro_watchdog_stalls_total": 1},
         "stall 1 user goroutine(s) wedged: [1]", "watchdog-stall",
         "watchdog-stall"),
    ], ids=["gc-phase+shade", "goroutine-panic", "crash", "stall"])
    def test_hook_reaches_hub_and_tracer(self, scenario, gc_mode, counters,
                                         recorder_line, incident,
                                         trace_kind):
        rt = Runtime(procs=2, seed=3, config=GolfConfig(gc_mode=gc_mode))
        hub = TelemetryHub(min_severity=DEBUG)
        rt.enable_telemetry(hub)
        tracer = rt.enable_tracing()
        scenario(rt)
        for name, total in counters.items():
            series = hub.registry.get(name).series()
            assert sum(child.value for _, child in series) == total, name
        dump = hub.recorder.dump()
        assert recorder_line in " ".join(dump.split()), dump
        assert [i.reason for i in hub.recorder.incidents
                if i.reason == incident] == ([incident] if incident else [])
        if trace_kind:
            assert len(tracer.of_kind(trace_kind)) == 1


class TestCrossRunDedup:
    def test_chaos_campaigns_dedup(self):
        hub = TelemetryHub()
        for _ in range(2):
            run_chaos_campaign(seeds=4, scenario="mixed", base_seed=0,
                               telemetry=hub)
        assert len(hub.fingerprints) > 0
        # The second identical campaign re-observed only known defects.
        assert hub.fingerprints.new_in_current_run == []
        for record in hub.fingerprints.records():
            assert len(record.runs) == 2

    def test_resilience_runs_dedup(self):
        hub = TelemetryHub()
        config = ResilienceConfig(hours=0.1, leak_every=40)
        for run in ("res-1", "res-2"):
            hub.fingerprints.begin_run(run)
            run_resilient_production(config, telemetry=hub)
        assert len(hub.fingerprints) > 0
        assert hub.fingerprints.new_in_current_run == []
        for record in hub.fingerprints.records():
            assert record.runs == ["res-1", "res-2"]
        # The service-layer instruments saw traffic too.
        requests = hub.registry.get("repro_service_requests_total")
        total = sum(c.value for v, c in requests.series()
                    if v[0] == "resilience")
        assert total > 0


class TestObsCli:
    def test_obs_emits_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = str(tmp_path / "obs")
        assert main(["obs", "--benchmark", BENCH, "--seed", "0",
                     "--out-dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "observability report" in out
        assert "leak fingerprint" in out
        base = f"obs-{BENCH.replace('/', '-')}-p2-s0"
        prom = os.path.join(out_dir, f"{base}.prom")
        with open(prom) as fh:
            assert validate_exposition(fh.read()) > 50
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
        out_dir = str(tmp_path / "obs")
        for _ in range(2):
            assert main(["obs", "--benchmark", BENCH,
                         "--fingerprint-db", db,
                         "--out-dir", out_dir]) == 0
        capsys.readouterr()
        with open(db) as fh:
            data = json.load(fh)
        assert data["records"]
        for record in data["records"]:
            assert len(record["runs"]) == 2
