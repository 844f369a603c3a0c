"""Hot-path microbenchmarks: the pinned perf trajectory.

Four microbenchmarks, one per hot path of the runtime:

- **dispatch** — the scheduler dispatch loop plus the flattened
  instruction executor, on a pure compute workload (``Gosched`` /
  ``Work`` / ``Now``) with no GC, tracing, or channel traffic.  This is
  the number the acceptance floor pins: post-refactor ops/sec must stay
  ≥ :data:`DISPATCH_SPEEDUP_FLOOR` times the frozen pre-refactor
  baseline measured on the same machine.
- **channel** — unbuffered ping-pong pairs: park/wake, sudog free-list,
  and wakeup translation.
- **marking** — repeated atomic mark passes over a fixed object web:
  the tricolor engine in isolation (marks/sec, edges/sec).
- **detector** — the GOLF B(g) liveness fixpoint on a
  controlled-service-shaped snapshot (leaky double-send children plus a
  blocked-goroutine chain that forces one root expansion per link),
  timed for both the restart and on-the-fly strategies at daemon
  cadence (state untouched between passes, so classification
  memoization is on the measured path).

Every virtual-time quantity in the doc (instruction counts, final
clocks, candidate/deadlock counts, mark work) is deterministic and
exact-matched by ``benchmarks/check_bench_regression.py hotpath``;
wall-clock quantities (ops/sec, ns/yield) are floor-checked leniently
because CI hardware varies.  Regenerate with::

    PYTHONPATH=src:. python benchmarks/bench_hotpath.py
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List

from benchmarks.conftest import emit, once
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

BENCH_SCHEMA_VERSION = 1
BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_hotpath.json")

#: Wall-clock repeats per microbenchmark; the best (fastest) repeat is
#: recorded, the standard cure for scheduler-noise outliers.
REPEATS = 3

#: The acceptance floor: dispatch ops/sec vs the pre-refactor baseline.
DISPATCH_SPEEDUP_FLOOR = 1.5

# -- dispatch workload -------------------------------------------------------
DISPATCH_PROCS = 4
DISPATCH_SEED = 11
DISPATCH_GOROUTINES = 60
DISPATCH_ITERS = 600  # x3 instructions per iteration

# -- channel workload --------------------------------------------------------
CHANNEL_PROCS = 2
CHANNEL_SEED = 17
CHANNEL_PAIRS = 24
CHANNEL_ROUNDS = 400

# -- marking workload --------------------------------------------------------
MARK_NODES = 3_000
MARK_FANOUT = 4
MARK_PASSES = 12

# -- detector workload -------------------------------------------------------
DETECT_SEED = 23
DETECT_LEAKY = 80
DETECT_CHAIN = 60
DETECT_PASSES = 30

#: The frozen pre-refactor numbers (commit `git log BENCH_hotpath.json`
#: for provenance): measured on the same machine immediately *before*
#: the hot-path refactor landed, with this exact workload.  The
#: committed post-refactor numbers in ``BENCH_hotpath.json`` must show
#: ``dispatch >= DISPATCH_SPEEDUP_FLOOR x`` against these.
PRE_REFACTOR = {
    "dispatch_ops_per_sec": 184_129.8,
    "channel_ops_per_sec": 141_010.3,
    "marking_marks_per_sec": 589_796.4,
    "detector_fixpoints_per_sec": 224.9,
}


def _best_wall(fn: Callable[[], Dict], repeats: int = REPEATS) -> Dict:
    """Run ``fn`` ``repeats`` times; return the repeat with least wall_s.

    Deterministic fields are asserted identical across repeats — the
    simulation must not depend on host timing.
    """
    rows = [fn() for _ in range(repeats)]
    det_keys = [k for k in rows[0] if not _is_wall_field(k)]
    for row in rows[1:]:
        for k in det_keys:
            assert row[k] == rows[0][k], (
                f"non-deterministic bench field {k}: {row[k]} vs {rows[0][k]}")
    return min(rows, key=lambda r: r["wall_s"])


def _is_wall_field(key: str) -> bool:
    return key == "wall_s" or key.endswith("_per_sec") or key == "ns_per_yield"


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def bench_dispatch() -> Dict:
    """Pure scheduler+executor throughput: no GC, no channels, no hooks."""

    def worker(iters):
        for _ in range(iters):
            yield Gosched()
            yield Work(1)
            yield Now()

    def main():
        for i in range(DISPATCH_GOROUTINES):
            yield Go(worker, DISPATCH_ITERS, name=f"w{i}")
        for _ in range(DISPATCH_ITERS):
            yield Gosched()

    rt = Runtime(procs=DISPATCH_PROCS, seed=DISPATCH_SEED,
                 config=GolfConfig())
    rt.spawn_main(main)
    t0 = time.perf_counter()
    status = rt.run()
    wall = time.perf_counter() - t0
    assert status == "main-exited", status
    n = rt.sched.instructions_executed
    return {
        "instructions": n,
        "final_clock_ns": rt.clock.now,
        "run_status": status,
        "wall_s": round(wall, 4),
        "ops_per_sec": round(n / wall, 1),
        "ns_per_yield": round(wall / n * 1e9, 1),
    }


# ---------------------------------------------------------------------------
# channel ping-pong
# ---------------------------------------------------------------------------


def bench_channel() -> Dict:
    """Unbuffered ping-pong: park/wake and sudog churn per message."""

    def ping(a, b, done, rounds):
        for i in range(rounds):
            yield Send(a, i)
            yield Recv(b)
        yield Send(done, True)

    def pong(a, b, rounds):
        for _ in range(rounds):
            yield Recv(a)
            yield Send(b, None)

    def main():
        done = yield MakeChan(CHANNEL_PAIRS, label="done")
        for i in range(CHANNEL_PAIRS):
            a = yield MakeChan(0, label=f"ping-{i}")
            b = yield MakeChan(0, label=f"pong-{i}")
            yield Go(ping, a, b, done, CHANNEL_ROUNDS, name=f"ping-{i}")
            yield Go(pong, a, b, CHANNEL_ROUNDS, name=f"pong-{i}")
        for _ in range(CHANNEL_PAIRS):
            yield Recv(done)

    rt = Runtime(procs=CHANNEL_PROCS, seed=CHANNEL_SEED,
                 config=GolfConfig(min_heap_bytes=64 * 1024 * 1024))
    rt.spawn_main(main)
    t0 = time.perf_counter()
    status = rt.run()
    wall = time.perf_counter() - t0
    n = rt.sched.instructions_executed
    messages = 2 * CHANNEL_PAIRS * CHANNEL_ROUNDS
    return {
        "instructions": n,
        "messages": messages,
        "final_clock_ns": rt.clock.now,
        "run_status": status,
        "wall_s": round(wall, 4),
        "ops_per_sec": round(n / wall, 1),
        "messages_per_sec": round(messages / wall, 1),
    }


# ---------------------------------------------------------------------------
# marking
# ---------------------------------------------------------------------------


def _build_mark_heap():
    from repro.runtime.objects import Slice

    heap = Heap()
    nodes: List[Slice] = []
    for _ in range(MARK_NODES):
        node = Slice()
        heap.allocate(node)
        nodes.append(node)
    # A deterministic web: node i points at the next MARK_FANOUT nodes
    # (dense forward edges) plus one long back edge, so the closure from
    # node 0 covers the whole web with real queue pressure.
    for i, node in enumerate(nodes):
        for k in range(1, MARK_FANOUT + 1):
            node.append(nodes[(i + k) % MARK_NODES])
        node.append(nodes[(i * 7 + MARK_NODES // 2) % MARK_NODES])
    heap.globals.set("web-root", nodes[0])
    return heap


def bench_marking() -> Dict:
    """Repeated atomic mark passes over a fixed heap web."""
    heap = _build_mark_heap()
    # Warmup pass (also records the deterministic totals).
    heap.begin_cycle()
    work0, marked0 = mark_from(heap, [heap.globals])
    t0 = time.perf_counter()
    for _ in range(MARK_PASSES):
        heap.begin_cycle()
        work, marked = mark_from(heap, [heap.globals])
        assert (work, marked) == (work0, marked0)
    wall = time.perf_counter() - t0
    return {
        "objects_marked_per_pass": marked0,
        "work_units_per_pass": work0,
        "passes": MARK_PASSES,
        "wall_s": round(wall, 4),
        "marks_per_sec": round(MARK_PASSES * marked0 / wall, 1),
        "edges_per_sec": round(MARK_PASSES * work0 / wall, 1),
    }


# ---------------------------------------------------------------------------
# detector fixpoint
# ---------------------------------------------------------------------------


def _build_detector_runtime() -> Runtime:
    """A controlled-service-shaped snapshot, parked and GC-quiet.

    ``DETECT_LEAKY`` double-send children are permanently blocked (the
    paper's Listing-7 shape), and a ``DETECT_CHAIN``-long chain of
    goroutines each blocked on a channel held only by the next link
    forces the restart strategy through one root expansion per link.
    """

    def leaky_parent():
        c1 = yield MakeChan(0)
        c2 = yield MakeChan(0)

        def child():
            yield Send(c1, "partial")
            yield Send(c2, "final")  # never received: leaks

        yield Go(child, name="request-child")
        yield Recv(c1)

    def chain_link(hold_ch, wait_ch):
        _pinned = hold_ch  # noqa: F841 — keeps the channel on this stack
        yield Recv(wait_ch)

    def chain_tail(hold_ch):
        _pinned = hold_ch  # noqa: F841
        yield Sleep(3600 * SECOND)

    def main():
        for i in range(DETECT_LEAKY):
            yield Go(leaky_parent, name=f"handler-{i}")
        chans = []
        for i in range(DETECT_CHAIN + 1):
            ch = yield MakeChan(0, label=f"chain-{i}")
            chans.append(ch)
        for i in range(DETECT_CHAIN):
            yield Go(chain_link, chans[i], chans[i + 1], name=f"link-{i}")
        yield Go(chain_tail, chans[DETECT_CHAIN], name="chain-tail")
        # Drop main's reference to the chain channels: each link must be
        # proven live through the previous link's stack, one fixpoint
        # pass at a time.
        chans = None  # noqa: F841
        yield Sleep(3600 * SECOND)

    rt = Runtime(procs=2, seed=DETECT_SEED,
                 config=GolfConfig(min_heap_bytes=64 * 1024 * 1024))
    rt.spawn_main(main)
    rt.run(until_ns=50 * MILLISECOND)
    assert rt.collector.stats.num_gc == 0, "setup must stay GC-quiet"
    return rt


def bench_detector() -> Dict:
    """The B(g) fixpoint at daemon cadence, restart and on-the-fly."""
    rt = _build_detector_runtime()
    heap, allgs = rt.heap, rt.sched.allgs
    out: Dict = {"goroutines": len(allgs)}
    for strategy, on_the_fly in (("restart", False), ("on_the_fly", True)):
        heap.begin_cycle()
        det0 = detector_mod.detect(heap, allgs, on_the_fly=on_the_fly)
        masking.unmask_all(allgs)
        t0 = time.perf_counter()
        for _ in range(DETECT_PASSES):
            heap.begin_cycle()
            det = detector_mod.detect(heap, allgs, on_the_fly=on_the_fly)
            masking.unmask_all(allgs)
            assert len(det.deadlocked) == len(det0.deadlocked)
        wall = time.perf_counter() - t0
        out[strategy] = {
            "deadlocked": len(det0.deadlocked),
            "mark_iterations": det0.mark_iterations,
            "mark_work_units": det0.mark_work_units,
            "liveness_checks": det0.liveness_checks,
            "passes": DETECT_PASSES,
            "wall_s": round(wall, 4),
            "fixpoint_ms": round(wall / DETECT_PASSES * 1e3, 3),
            "fixpoints_per_sec": round(DETECT_PASSES / wall, 1),
        }
    return out


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------


def collect() -> dict:
    """Run all four microbenchmarks and assemble the benchmark doc."""
    dispatch = _best_wall(bench_dispatch)
    channel = _best_wall(bench_channel)
    marking = _best_wall(bench_marking)
    detector = bench_detector()  # internally repeated DETECT_PASSES times

    def speedup(new: float, old: float) -> float:
        return round(new / old, 3) if old else 0.0

    doc = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "repeats": REPEATS,
        "dispatch": dispatch,
        "channel": channel,
        "marking": marking,
        "detector": detector,
        "pre_refactor": dict(PRE_REFACTOR),
        "speedup_vs_pre_refactor": {
            "dispatch": speedup(dispatch["ops_per_sec"],
                                PRE_REFACTOR["dispatch_ops_per_sec"]),
            "channel": speedup(channel["ops_per_sec"],
                               PRE_REFACTOR["channel_ops_per_sec"]),
            "marking": speedup(marking["marks_per_sec"],
                               PRE_REFACTOR["marking_marks_per_sec"]),
            "detector": speedup(
                detector["restart"]["fixpoints_per_sec"],
                PRE_REFACTOR["detector_fixpoints_per_sec"]),
        },
        "dispatch_speedup_floor": DISPATCH_SPEEDUP_FLOOR,
    }
    return doc


#: Deterministic (virtual-time / count) fields per section, exact-matched
#: by the regression gate.  Everything else is wall-clock and machine-
#: dependent.
DETERMINISTIC_FIELDS = {
    "dispatch": ("instructions", "final_clock_ns", "run_status"),
    "channel": ("instructions", "messages", "final_clock_ns", "run_status"),
    "marking": ("objects_marked_per_pass", "work_units_per_pass", "passes"),
    "detector.restart": ("deadlocked", "mark_iterations", "mark_work_units",
                         "liveness_checks", "passes"),
    "detector.on_the_fly": ("deadlocked", "mark_iterations",
                            "mark_work_units", "liveness_checks", "passes"),
}


def deterministic_view(doc: dict) -> dict:
    """The exact-match subset of a benchmark doc."""
    out = {"schema_version": doc["schema_version"],
           "goroutines": doc["detector"]["goroutines"],
           "pre_refactor": doc["pre_refactor"]}
    for section, fields in DETERMINISTIC_FIELDS.items():
        node = doc
        for part in section.split("."):
            node = node[part]
        out[section] = {f: node[f] for f in fields}
    return out


def format_hotpath_bench(doc: dict) -> str:
    d, c, m = doc["dispatch"], doc["channel"], doc["marking"]
    s = doc["speedup_vs_pre_refactor"]
    det = doc["detector"]
    lines = [
        "hot-path trajectory (best of "
        f"{doc['repeats']} wall-clock repeats)",
        "",
        f"  dispatch  {d['ops_per_sec']:>12,.0f} ops/s  "
        f"{d['ns_per_yield']:>8,.0f} ns/yield  "
        f"({d['instructions']:,} instr)  {s['dispatch']:.2f}x pre-refactor",
        f"  channel   {c['ops_per_sec']:>12,.0f} ops/s  "
        f"{c['messages_per_sec']:>8,.0f} msg/s   "
        f"({c['messages']:,} msgs)  {s['channel']:.2f}x pre-refactor",
        f"  marking   {m['marks_per_sec']:>12,.0f} marks/s  "
        f"{m['edges_per_sec']:>8,.0f} edges/s  "
        f"({m['objects_marked_per_pass']:,} objs/pass)  "
        f"{s['marking']:.2f}x pre-refactor",
    ]
    for strategy in ("restart", "on_the_fly"):
        row = det[strategy]
        lines.append(
            f"  detector  {row['fixpoint_ms']:>10.3f} ms/fixpoint "
            f"[{strategy}]  ({row['liveness_checks']} checks, "
            f"{row['mark_iterations']} iters, {row['deadlocked']} deadlocked)"
            + (f"  {s['detector']:.2f}x pre-refactor"
               if strategy == "restart" else ""))
    lines.append("")
    lines.append(
        f"  floor: dispatch >= {doc['dispatch_speedup_floor']}x the "
        "pre-refactor baseline "
        f"({doc['pre_refactor']['dispatch_ops_per_sec']:,.0f} ops/s)")
    return "\n".join(lines)


def write_bench_json(doc: dict, path: str = BENCH_PATH) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def test_hotpath(benchmark):
    doc = once(benchmark, collect)
    emit("hotpath", format_hotpath_bench(doc))

    # The virtual-time side of every microbenchmark is deterministic.
    assert doc["dispatch"]["run_status"] == "main-exited"
    assert doc["channel"]["run_status"] == "main-exited"
    assert doc["detector"]["restart"]["deadlocked"] == DETECT_LEAKY
    # Both strategies agree on the deadlocked set size (the ablation
    # invariant), differing only in iteration structure.
    assert (doc["detector"]["on_the_fly"]["deadlocked"]
            == doc["detector"]["restart"]["deadlocked"])
    assert doc["detector"]["restart"]["mark_iterations"] > DETECT_CHAIN
    assert doc["detector"]["on_the_fly"]["mark_iterations"] == 1

    # Against the committed trajectory: deterministic fields must match
    # exactly (wall-clock is checked leniently by the CI gate instead).
    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH) as fh:
            committed = json.load(fh)
        assert deterministic_view(committed) == deterministic_view(doc)


if __name__ == "__main__":
    doc = collect()
    write_bench_json(doc)
    print(format_hotpath_bench(doc))
    print(f"\nwrote {BENCH_PATH}")
