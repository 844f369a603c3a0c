"""One runtime shard: an independent heap/scheduler/collector/detector.

A :class:`ShardSpec` is a small picklable recipe — shard id, seed
derivation, routed user ids, and the traffic model — from which
:class:`ShardRunner` builds a full :class:`~repro.runtime.api.Runtime`
(its own :class:`TelemetryHub`, periodic GC, and optionally the
always-on detection daemon) and serves the routed users' sessions
through an RPC-style server, exactly like the paper's controlled
service but per shard.

Execution is *stepped*: :meth:`ShardRunner.step` advances the shard by
one bounded slice of virtual time, and :func:`run_shard` steps one
shard start to finish.  Both fleet modes call :func:`run_shard`: the
sequential mode runs the shards one after another in its own process,
the multiprocessing mode runs each in its own worker process.  A
shard's entire execution — reports, fingerprints, metrics — is a pure
function of its spec, regardless of mode.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import GolfConfig
from repro.fleet.router import TrafficModel, stable_hash64
from repro.runtime.api import Runtime
from repro.runtime.clock import MILLISECOND, SECOND
from repro.runtime.instructions import (
    Alloc,
    Go,
    MakeChan,
    Recv,
    RecvCase,
    Select,
    Send,
    Sleep,
    WgAdd,
    WgDone,
    WgWait,
    Work,
)
from repro.runtime.objects import GoMap
from repro.runtime.scheduler import RunStatus

#: The virtual-time slice one :meth:`ShardRunner.step` advances (ms).
STEP_MS = 50
#: Each shard's periodic-GC interval (ms).
PERIODIC_GC_MS = 20
#: Simulated handler work per request (us).
HANDLER_WORK_US = 100
#: Entries of the map each handler (and its child) allocates.
MAP_ENTRIES = 256
#: Virtual time main sleeps after the last session ends (ms).
DRAIN_MS = 50


class ShardSpec:
    """Everything needed to (re)build one shard, picklable."""

    def __init__(self, shard_id: int, fleet_seed: int,
                 user_ids: List[int], model: TrafficModel,
                 procs: int = 2,
                 daemon_interval_ms: Optional[float] = None):
        self.shard_id = shard_id
        self.fleet_seed = fleet_seed
        self.user_ids = list(user_ids)
        self.model = model
        self.procs = procs
        self.daemon_interval_ms = daemon_interval_ms

    @property
    def shard_seed(self) -> int:
        """Per-shard scheduler seed, derived so shards never share an
        RNG stream."""
        return stable_hash64(self.fleet_seed, "shard", self.shard_id) % (2**31)


class ShardResult:
    """Picklable outcome of one shard's run (what crosses the pipe)."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.users = 0
        self.requests_completed = 0
        self.service_end_ns = 0
        self.leaks_detected = 0
        self.leaks_reclaimed = 0
        self.num_gc = 0
        self.reports: List[dict] = []
        self.report_texts: List[str] = []
        self.fingerprints: dict = {}
        self.metrics: dict = {}
        self.memstats: Dict[str, float] = {}
        self.invariant_violations: List[str] = []
        self.daemon_checks = 0

    @property
    def sustained_rps(self) -> float:
        """Virtual-time request throughput (the repo's RPS convention:
        completed requests per virtual second of service)."""
        if self.service_end_ns <= 0:
            return 0.0
        return self.requests_completed / (self.service_end_ns / SECOND)

    @property
    def leaks_per_s(self) -> float:
        """Virtual-time leak-detection throughput."""
        if self.service_end_ns <= 0:
            return 0.0
        return self.leaks_detected / (self.service_end_ns / SECOND)

    def as_dict(self) -> dict:
        """This shard's entry in the fleet artifact's ``shards`` list."""
        return {
            "shard_id": self.shard_id,
            "users": self.users,
            "requests_completed": self.requests_completed,
            "service_end_ns": self.service_end_ns,
            "sustained_rps": round(self.sustained_rps, 3),
            "leaks_detected": self.leaks_detected,
            "leaks_reclaimed": self.leaks_reclaimed,
            "leaks_per_s": round(self.leaks_per_s, 3),
            "num_gc": self.num_gc,
            "daemon_checks": self.daemon_checks,
            "reports": list(self.reports),
            "memstats": dict(self.memstats),
            "invariant_violations": list(self.invariant_violations),
        }


class ShardRunner:
    """Owns one shard's runtime and drives it in bounded virtual slices."""

    def __init__(self, spec: ShardSpec):
        from repro.telemetry.hub import TelemetryHub

        self.spec = spec
        self.done = False
        self.result = ShardResult(spec.shard_id)
        self.result.users = len(spec.user_ids)
        self._state = {"completed": 0}
        self.rt = Runtime(procs=spec.procs, seed=spec.shard_seed,
                          config=GolfConfig())
        self.hub = TelemetryHub()
        self.hub.attach(self.rt)
        self.hub.fingerprints.begin_run(f"shard-{spec.shard_id}")
        self.rt.enable_periodic_gc(PERIODIC_GC_MS * MILLISECOND)
        if spec.daemon_interval_ms is not None:
            self.rt.detect_partial_deadlock(spec.daemon_interval_ms)
        self._install_program()

    # -- stepping -------------------------------------------------------------

    def step(self) -> bool:
        """Advance one bounded slice of virtual time; True when done."""
        if self.done:
            return True
        status = self.rt.run(
            until_ns=self.rt.clock.now + STEP_MS * MILLISECOND)
        if status != RunStatus.TIMEOUT:
            self._finish()
        return self.done

    def run_to_completion(self) -> ShardResult:
        """Step the shard in bounded slices until its program ends; the
        slice cadence is part of the shard's execution."""
        while not self.step():
            pass
        return self.result

    # -- the workload ---------------------------------------------------------

    def _install_program(self) -> None:
        spec = self.spec
        model = spec.model
        rt = self.rt
        state = self._state
        request_ch = rt.make_chan(capacity=max(4, len(spec.user_ids)),
                                  label=f"shard{spec.shard_id}.requests")
        # The accept queue is a live listener (package-level state), so
        # the idle server loop is never mistaken for a leak.
        rt.set_global("fleet.request_ch", request_ch)
        wg = rt.new_waitgroup(label=f"shard{spec.shard_id}.sessions")
        controlled = model.workload == "controlled"

        def handler(reply_ch, leaky):
            if controlled:
                # The controlled service's "double send": parent selects
                # on two channels and returns after the first message;
                # a leaky child blocks forever on the second send.
                parent_map = yield Alloc(GoMap.sized(MAP_ENTRIES))
                c1 = yield MakeChan(0, label="fleet-c1")
                c2 = yield MakeChan(0, label="fleet-c2")

                def child():
                    child_map = yield Alloc(GoMap.sized(MAP_ENTRIES))
                    yield Work(20)
                    if leaky:
                        yield Send(c1, "partial")
                        yield Send(c2, "final")  # never received: leaks
                    else:
                        yield Send(c1, "done")

                yield Go(child, name="fleet-child")
                yield Work(HANDLER_WORK_US)
                yield Select([RecvCase(c1), RecvCase(c2)])
            else:
                # Listing 7: the handler forgets to read the completion
                # channel on the leaky path, stranding the async task.
                done = yield MakeChan(0, label="fleet-done")

                def async_task():
                    task_map = yield Alloc(GoMap.sized(MAP_ENTRIES))
                    yield Work(50)
                    yield Send(done, ())

                yield Go(async_task, name="fleet-task")
                yield Work(HANDLER_WORK_US)
                if not leaky:
                    yield Recv(done)
            yield Send(reply_ch, "ok")

        def server():
            while True:
                (reply_ch, leaky), ok = yield Recv(request_ch)
                if not ok:
                    return
                yield Go(handler, reply_ch, leaky, name="fleet-handler")

        def client(user_id):
            for i in range(model.request_count(user_id)):
                think_ns, leaky = model.request(user_id, i)
                reply = yield MakeChan(1)
                yield Send(request_ch, (reply, leaky))
                yield Recv(reply)
                state["completed"] += 1
                yield Sleep(think_ns)
            yield WgDone(wg)

        def main():
            yield WgAdd(wg, len(spec.user_ids))
            yield Go(server, name="fleet-server")
            for user_id in spec.user_ids:
                yield Go(client, user_id, name=f"user-{user_id}")
            yield WgWait(wg)
            yield Sleep(DRAIN_MS * MILLISECOND)

        rt.spawn_main(main)

    def _finish(self) -> None:
        """Quiesce the runtime once :meth:`step` sees the program end,
        and fill in the result."""
        rt = self.rt
        result = self.result
        result.service_end_ns = rt.clock.now
        rt.gc_until_quiescent()
        if rt.detection_daemon is not None:
            result.daemon_checks = rt.detection_daemon.stats.checks
            rt.stop_partial_deadlock_detection()
        result.requests_completed = self._state["completed"]
        # The report log, not CycleStats: daemon-surfaced leaks produce
        # reports without a GC cycle record.
        result.leaks_detected = rt.reports.total()
        result.leaks_reclaimed = rt.collector.stats.total_goroutines_reclaimed
        result.num_gc = rt.collector.stats.num_gc
        result.reports = [r.as_dict() for r in rt.reports]
        result.report_texts = [r.format() for r in rt.reports]
        result.fingerprints = self.hub.fingerprints.as_dict()
        result.metrics = self.hub.snapshot()["metrics"]
        result.memstats = rt.memstats().as_dict()
        result.invariant_violations = rt.check_invariants()
        rt.shutdown()
        self.done = True


def run_shard(spec: ShardSpec) -> ShardResult:
    """Build and run one shard to completion (what both fleet modes
    run)."""
    return ShardRunner(spec).run_to_completion()
