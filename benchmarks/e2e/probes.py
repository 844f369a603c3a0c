"""Self-contained layer probes.

``Scheduler.run`` is one span in the traced run — the dispatch loop, the
instruction executor, channel operations and timers are too hot to wrap
per call — so these probes split it: each drives one layer in isolation
on a fixed synthetic shape and reports host time per unit of that
layer's work.  Same shapes as ``benchmarks/bench_hotpath.py`` but sharing
no code with it.  Every probe repeats for at least :data:`MIN_SECONDS`,
reports the median repeat, and asserts its deterministic fields are
identical on every repeat.

Run alone: ``PYTHONPATH=src:. python -m benchmarks.e2e.probes``.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.core import detector as detector_mod
from repro.core import masking
from repro.core.config import GolfConfig
from repro.gc.heap import Heap
from repro.gc.marking import mark_from
from repro.runtime.api import Runtime
from repro.runtime.clock import MILLISECOND, SECOND
from repro.runtime.instructions import (
    Go, Gosched, MakeChan, Now, Recv, Send, Sleep, Work,
)
from repro.runtime.objects import Slice

from benchmarks.e2e import stats

#: Each probe keeps repeating until it has measured this long.
MIN_SECONDS = 1.0

#: A heap target no probe reaches, so the pacer never interferes.
QUIET_HEAP = 64 * 1024 * 1024

DISPATCH_GOROUTINES, DISPATCH_ITERS = 60, 300
CHANNEL_PAIRS, CHANNEL_ROUNDS = 24, 200
WEB_NODES, WEB_FANOUT = 3_000, 4
LEAKY_PARENTS, CHAIN_LINKS = 80, 60

#: One repeat: (host seconds, units of work, deterministic fields).
Repeat = Tuple[float, int, Dict[str, int]]


def _repeat(once: Callable[[], Repeat], min_seconds: float):
    """Median host-time per unit over repeats; deterministic fields of
    every repeat must equal the first's."""
    per_unit: List[float] = []
    first: Dict[str, int] = {}
    spent = 0.0
    while spent < min_seconds or len(per_unit) < 3:
        wall, units, fields = once()
        if not per_unit:
            first = fields
        elif fields != first:
            raise AssertionError(
                f"probe is not deterministic: {fields} != {first}")
        per_unit.append(wall / units)
        spent += wall
    return stats.median(per_unit), len(per_unit), first


def probe_dispatch(min_seconds: float = MIN_SECONDS) -> Dict[str, float]:
    """Scheduler loop + executor on Gosched/Work/Now: no GC, no channels."""

    def worker():
        for _ in range(DISPATCH_ITERS):
            yield Gosched()
            yield Work(1)
            yield Now()

    def main():
        for i in range(DISPATCH_GOROUTINES):
            yield Go(worker, name=f"w{i}")
        for _ in range(DISPATCH_ITERS):
            yield Gosched()

    def once() -> Repeat:
        rt = Runtime(procs=4, seed=11,
                     config=GolfConfig(min_heap_bytes=QUIET_HEAP))
        rt.spawn_main(main)
        t0 = time.perf_counter()
        status = rt.run()
        wall = time.perf_counter() - t0
        n = rt.sched.instructions_executed
        return wall, n, {"instructions": n, "clock_ns": rt.clock.now,
                         "exited": int(status == "main-exited"),
                         "num_gc": rt.collector.stats.num_gc}

    per, n, fields = _repeat(once, min_seconds)
    assert fields["exited"] and fields["num_gc"] == 0, fields
    return {"ns_per_vinstr": per * 1e9, "repeats": n, **fields}


def probe_channel(min_seconds: float = MIN_SECONDS) -> Dict[str, float]:
    """Unbuffered ping-pong pairs: park/wake and sudog churn per message."""

    def ping(a, b, done):
        for i in range(CHANNEL_ROUNDS):
            yield Send(a, i)
            yield Recv(b)
        yield Send(done, True)

    def pong(a, b):
        for _ in range(CHANNEL_ROUNDS):
            yield Recv(a)
            yield Send(b, None)

    def main():
        done = yield MakeChan(CHANNEL_PAIRS)
        for i in range(CHANNEL_PAIRS):
            a = yield MakeChan(0)
            b = yield MakeChan(0)
            yield Go(ping, a, b, done, name=f"ping-{i}")
            yield Go(pong, a, b, name=f"pong-{i}")
        for _ in range(CHANNEL_PAIRS):
            yield Recv(done)

    messages = 2 * CHANNEL_PAIRS * CHANNEL_ROUNDS

    def once() -> Repeat:
        rt = Runtime(procs=2, seed=17,
                     config=GolfConfig(min_heap_bytes=QUIET_HEAP))
        rt.spawn_main(main)
        t0 = time.perf_counter()
        status = rt.run()
        wall = time.perf_counter() - t0
        return wall, messages, {
            "instructions": rt.sched.instructions_executed,
            "clock_ns": rt.clock.now,
            "exited": int(status == "main-exited")}

    per, n, fields = _repeat(once, min_seconds)
    assert fields["exited"], fields
    return {"ns_per_msg": per * 1e9, "messages": messages, "repeats": n,
            **fields}


def _web() -> Heap:
    """Node i points at the next ``WEB_FANOUT`` nodes plus one long back
    edge, so the closure from node 0 covers the whole web."""
    heap = Heap()
    nodes = [heap.allocate(Slice()) for _ in range(WEB_NODES)]
    for i, node in enumerate(nodes):
        for k in range(1, WEB_FANOUT + 1):
            node.append(nodes[(i + k) % WEB_NODES])
        node.append(nodes[(i * 7 + WEB_NODES // 2) % WEB_NODES])
    heap.globals.set("web-root", nodes[0])
    return heap


def probe_marking(min_seconds: float = MIN_SECONDS) -> Dict[str, float]:
    """``mark_from`` over a fixed 3,000-node web, one full pass a repeat."""
    heap = _web()

    def once() -> Repeat:
        heap.begin_cycle()
        t0 = time.perf_counter()
        work, marked = mark_from(heap, [heap.globals])
        wall = time.perf_counter() - t0
        return wall, work, {"work_units": work, "objects_marked": marked}

    once()  # first touch of every object
    per, n, fields = _repeat(once, min_seconds)
    assert fields["objects_marked"] == WEB_NODES + 1, fields
    return {"ns_per_edge": per * 1e9, "repeats": n, **fields}


def _snapshot() -> Runtime:
    """A parked controlled-service-shaped state: leaky double-send
    children plus a chain of goroutines each blocked on a channel only
    the next link holds (one root expansion per link under restart)."""

    def leaky_parent():
        c1 = yield MakeChan(0)
        c2 = yield MakeChan(0)

        def child():
            yield Send(c1, "partial")
            yield Send(c2, "final")

        yield Go(child, name="child")
        yield Recv(c1)

    def link(hold, wait):
        _keep = hold  # noqa: F841 — pins the channel on this stack
        yield Recv(wait)

    def tail(hold):
        _keep = hold  # noqa: F841
        yield Sleep(3600 * SECOND)

    def main():
        for i in range(LEAKY_PARENTS):
            yield Go(leaky_parent, name=f"handler-{i}")
        chans = []
        for _ in range(CHAIN_LINKS + 1):
            chans.append((yield MakeChan(0)))
        for i in range(CHAIN_LINKS):
            yield Go(link, chans[i], chans[i + 1], name=f"link-{i}")
        yield Go(tail, chans[CHAIN_LINKS], name="tail")
        chans = None  # noqa: F841 — links are live only through the chain
        yield Sleep(3600 * SECOND)

    rt = Runtime(procs=2, seed=23,
                 config=GolfConfig(min_heap_bytes=QUIET_HEAP))
    rt.spawn_main(main)
    rt.run(until_ns=50 * MILLISECOND)
    assert rt.collector.stats.num_gc == 0
    return rt


def probe_detector(min_seconds: float = MIN_SECONDS) -> Dict[str, float]:
    """``detector.detect`` at daemon cadence, restart and on-the-fly."""
    rt = _snapshot()
    heap, allgs = rt.heap, rt.sched.allgs
    out: Dict[str, float] = {"goroutines": len(allgs)}
    for strategy, on_the_fly in (("restart", False), ("on_the_fly", True)):

        def once() -> Repeat:
            heap.begin_cycle()
            t0 = time.perf_counter()
            det = detector_mod.detect(heap, allgs, on_the_fly=on_the_fly)
            wall = time.perf_counter() - t0
            masking.unmask_all(allgs)
            return wall, 1, {"deadlocked": len(det.deadlocked),
                             "mark_iterations": det.mark_iterations,
                             "mark_work_units": det.mark_work_units,
                             "liveness_checks": det.liveness_checks}

        once()  # fills the classification memo, as at daemon cadence
        per, n, fields = _repeat(once, min_seconds / 2)
        assert fields["deadlocked"] == LEAKY_PARENTS, fields
        out[f"ms_per_fixpoint_{strategy}"] = per * 1e3
        out[f"repeats_{strategy}"] = n
        out.update({f"{k}_{strategy}": v for k, v in fields.items()})
    return out


def run_probes(min_seconds: float = MIN_SECONDS) -> Dict[str, Dict[str, float]]:
    return {
        "dispatch": probe_dispatch(min_seconds),
        "channel": probe_channel(min_seconds),
        "marking": probe_marking(min_seconds),
        "detector": probe_detector(min_seconds),
    }


def layer_metrics(probes: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The probe numbers under their per-layer metric names."""
    return {
        "runtime.executor.probe_ns_per_vinstr":
            probes["dispatch"]["ns_per_vinstr"],
        "runtime.channel.probe_ns_per_msg": probes["channel"]["ns_per_msg"],
        "gc.marking.probe_ns_per_edge": probes["marking"]["ns_per_edge"],
        "core.detector.probe_ms_per_fixpoint_restart":
            probes["detector"]["ms_per_fixpoint_restart"],
        "core.detector.probe_ms_per_fixpoint_on_the_fly":
            probes["detector"]["ms_per_fixpoint_on_the_fly"],
    }


def main(argv=None) -> int:
    min_seconds = float(argv[0]) if argv else MIN_SECONDS
    print(json.dumps(run_probes(min_seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
