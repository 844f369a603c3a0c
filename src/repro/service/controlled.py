"""The controlled service experiment (paper, Table 2).

An RPC server where **every request spawns a goroutine**: the parent and
child communicate over two channels, each side allocates a 100K-entry
hash map, the parent waits in a ``select`` and returns on the first
message, and the child — on a controlled fraction of requests — performs
a "double send", deadlocking on the second channel while pinning its map.

A closed-loop client with ``connections`` concurrent connections drives
the server for ``duration`` after a warmup.  The result carries the same
metric rows as the paper's Table 2: client throughput and latency
percentiles, and server ``MemStats`` (HeapAlloc, HeapInuse, HeapObjects,
StackInuse, GCCPUFraction, PauseTotalNs, NumGC).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.core.config import GolfConfig
from repro.runtime.api import Runtime
from repro.runtime.clock import MILLISECOND, SECOND
from repro.runtime.instructions import (
    Alloc,
    Go,
    MakeChan,
    Now,
    Recv,
    RecvCase,
    Select,
    Send,
    Sleep,
    Work,
)
from repro.runtime.objects import GoMap
from repro.service.stats import latency_summary


class ControlledConfig:
    """Workload knobs (defaults follow the paper's setup)."""

    def __init__(
        self,
        procs: int = 8,
        connections: int = 32,
        duration_s: int = 30,
        warmup_s: int = 5,
        leak_rate: float = 0.0,
        map_entries: int = 100_000,
        downstream_ms: int = 420,
        downstream_jitter_ms: int = 80,
        handler_work_us: int = 200,
        periodic_gc_ms: int = 100,
        seed: int = 1,
    ):
        if not 0.0 <= leak_rate <= 1.0:
            raise ValueError("leak_rate must be in [0, 1]")
        self.procs = procs
        self.connections = connections
        self.duration_s = duration_s
        self.warmup_s = warmup_s
        self.leak_rate = leak_rate
        self.map_entries = map_entries
        self.downstream_ms = downstream_ms
        self.downstream_jitter_ms = downstream_jitter_ms
        self.handler_work_us = handler_work_us
        self.periodic_gc_ms = periodic_gc_ms
        self.seed = seed


class ControlledResult:
    """Table 2 metric rows for one (config, collector) combination."""

    def __init__(self, golf: bool, leak_rate: float):
        self.golf = golf
        self.leak_rate = leak_rate
        self.completed = 0
        self.duration_s = 0.0
        self.throughput_rps = 0.0
        self.latency: Dict[str, float] = {}
        self.memstats: Dict[str, float] = {}
        self.deadlocks_detected = 0
        self.goroutines_reclaimed = 0
        self.gc_mode = "atomic"
        #: Longest full-cycle pause / longest single STW window; for the
        #: atomic collector the two coincide, the incremental collector
        #: exists to drive the second strictly below the first.
        self.max_pause_ns = 0
        self.max_pause_window_ns = 0
        #: Per-virtual-second samples of live heap bytes / blocked
        #: goroutines, for leak-growth analyses.
        self.heap_series: List[int] = []
        self.blocked_series: List[int] = []

    def row(self) -> Dict[str, float]:
        out = {
            "throughput_rps": self.throughput_rps,
            **{k: v for k, v in self.latency.items() if k != "count"},
            "stack_inuse_mb": self.memstats["stack_inuse"] / 1e6,
            "heap_alloc_mb": self.memstats["heap_alloc"] / 1e6,
            "heap_inuse_mb": self.memstats["heap_inuse"] / 1e6,
            "heap_objects": self.memstats["heap_objects"],
            "gc_cpu_fraction": self.memstats["gc_cpu_fraction"],
            "pause_total_ns": self.memstats["pause_total_ns"],
            "num_gc": self.memstats["num_gc"],
        }
        out["pause_per_cycle_ns"] = (
            out["pause_total_ns"] / out["num_gc"] if out["num_gc"] else 0.0
        )
        return out

    def __repr__(self) -> str:
        mode = "golf" if self.golf else "base"
        return (
            f"<controlled {mode} leak={self.leak_rate:.0%} "
            f"rps={self.throughput_rps:.1f} "
            f"heap={self.memstats.get('heap_alloc', 0)/1e6:.1f}MB>"
        )


def run_controlled(config: Optional[ControlledConfig] = None,
                   golf: bool = True,
                   telemetry=None,
                   gc_config: Optional[GolfConfig] = None) -> ControlledResult:
    """Run the controlled client/server workload once.

    ``gc_config`` overrides the collector configuration entirely (used
    by the pause benchmark to pit ``atomic`` against ``incremental`` on
    an otherwise identical workload); by default ``golf`` picks between
    GOLF and the baseline collector.  ``telemetry`` is a hub attached to
    the runtime before the workload starts.
    """
    config = config or ControlledConfig()
    if gc_config is None:
        gc_config = GolfConfig() if golf else GolfConfig.baseline()
    rt = Runtime(procs=config.procs, seed=config.seed, config=gc_config)
    if telemetry is not None:
        telemetry.attach(rt)
    rt.enable_periodic_gc(config.periodic_gc_ms * MILLISECOND)

    host_rng = random.Random(config.seed ^ 0xC11E27)
    request_ch = rt.make_chan(capacity=2 * config.connections,
                              label="rpc-requests")
    # The accept queue is package-level state (a live listener), so the
    # idle server loop is never mistaken for a leak after shutdown.
    rt.set_global("rpc.request_ch", request_ch)
    warmup_end = config.warmup_s * SECOND
    deadline = (config.warmup_s + config.duration_s) * SECOND
    latencies: List[int] = []
    state = {"completed": 0, "requests": 0}

    def downstream_latency_ns() -> int:
        jitter = host_rng.randint(-config.downstream_jitter_ms,
                                  config.downstream_jitter_ms)
        return (config.downstream_ms + jitter) * MILLISECOND

    def should_leak() -> bool:
        return host_rng.random() < config.leak_rate

    def handler(reply_ch):
        # Parent side of the request: its own map plus the child fan-out.
        # The maps stay live on the goroutine stacks until return.
        parent_map = yield Alloc(GoMap.sized(config.map_entries))
        c1 = yield MakeChan(0, label="task-c1")
        c2 = yield MakeChan(0, label="task-c2")
        leaky = should_leak()
        delay = downstream_latency_ns()

        def child():
            child_map = yield Alloc(GoMap.sized(config.map_entries))
            yield Sleep(delay)  # the downstream RPC
            if leaky:
                # The "double send": the parent returns after the first
                # message, so the second send blocks forever, pinning the
                # child's map.
                yield Send(c1, "partial")
                yield Send(c2, "final")
            else:
                yield Send(c1, "done")

        yield Go(child, name="request-child")
        yield Work(max(1, config.handler_work_us))  # DAG of sub-tasks
        yield Select([RecvCase(c1), RecvCase(c2)])
        yield Send(reply_ch, "ok")

    def server():
        while True:
            (reply_ch, _t0), ok = yield Recv(request_ch)
            if not ok:
                return
            yield Go(handler, reply_ch, name="request-handler")

    def client_conn():
        while True:
            t0 = yield Now()
            if t0 >= deadline:
                return
            reply = yield MakeChan(1)
            yield Send(request_ch, (reply, t0))
            yield Recv(reply)
            t1 = yield Now()
            state["requests"] += 1
            if t0 >= warmup_end:
                latencies.append(t1 - t0)
                state["completed"] += 1
                # Stacks and block sites embed each yield's file:line,
                # so the yields below keep the lines they always had.

    def main():
        yield Go(server, name="rpc-server")
        for _ in range(config.connections):
            yield Go(client_conn, name="client-conn")
        yield Sleep(deadline)
        # Drain: let in-flight requests finish so the final MemStats
        # snapshot reflects leaked memory, not transient request state.
        yield Sleep(2 * SECOND)

    rt.spawn_main(main)
    # Run in one-second slices, sampling the heap/blocked series the
    # paper's Figure 1 narrative is about.
    heap_series: List[int] = []
    blocked_series: List[int] = []
    end = deadline + 3 * SECOND
    while rt.clock.now < end:
        status = rt.run(until_ns=min(end, rt.clock.now + SECOND),
                        max_instructions=50_000_000)
        heap_series.append(rt.heap.live_bytes)
        blocked_series.append(rt.blocked_goroutine_count())
        if status != "timeout":
            break
    # Final cycles so the last detections/reclaims land before snapshot.
    rt.gc_until_quiescent()

    result = ControlledResult(golf, config.leak_rate)
    result.heap_series = heap_series
    result.blocked_series = blocked_series
    result.completed = state["completed"]
    result.duration_s = config.duration_s
    result.throughput_rps = state["completed"] / config.duration_s
    result.latency = latency_summary(latencies)
    result.memstats = rt.memstats().as_dict()
    result.deadlocks_detected = rt.collector.stats.total_deadlocks_detected
    result.goroutines_reclaimed = rt.collector.stats.total_goroutines_reclaimed
    result.gc_mode = gc_config.gc_mode
    result.max_pause_ns = rt.collector.stats.max_pause_ns
    result.max_pause_window_ns = rt.collector.stats.max_pause_window_ns
    return result
