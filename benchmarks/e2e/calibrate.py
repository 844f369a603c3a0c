"""A fixed pure-Python loop that measures how fast this machine is *now*.

The sandbox this benchmark runs in shares its host: the same workload
reads 20-30% slower or faster from one minute to the next, and the
process's CPU time moves with it (it is the machine's speed that
drifts, not preemption).  The worker therefore runs this loop between
its repetitions and reports, next to the raw ``wall_s``,

    wall_norm_s = wall_s * NOMINAL_S / median(the worker's loop samples)

— the host seconds the repetition would have taken on a machine that
runs this loop in exactly :data:`NOMINAL_S`.  On such a machine the two
metrics are equal.

The loop touches nothing under ``src/``: half of it is an event loop in
the simulator's idiom (generator ``send``, a timer heap, dict and slot
traffic), half is an epoch-marking walk over an object web (the
collector's idiom).  **Its code defines the unit of ``wall_norm_s``:
changing it re-bases that metric, so it changes only in a PR that claims
no gain.**
"""

from __future__ import annotations

import heapq
import time

#: What the loop takes on the reference machine (this sandbox, idle).
NOMINAL_S = 0.050

_EVENTS = 72_000
_WEB_NODES = 2_000
_WEB_PASSES = 20


class _Node:
    __slots__ = ("epoch", "refs", "value")

    def __init__(self, value: int):
        self.epoch = 0
        self.refs = []
        self.value = value


def _task(key: int):
    cell = _Node(key)
    while True:
        x = yield (key, cell.value)
        cell.value = (cell.value * 31 + x) & 0xFFFF


def _build_web():
    nodes = [_Node(i) for i in range(_WEB_NODES)]
    for i, node in enumerate(nodes):
        node.refs = [nodes[(i + k) % _WEB_NODES] for k in (1, 2, 3, 4)]
        node.refs.append(nodes[(i * 7 + _WEB_NODES // 2) % _WEB_NODES])
    return nodes


class Calibrator:
    """Builds the loop's state once; :meth:`run` times one pass."""

    def __init__(self) -> None:
        self._tasks = [_task(k) for k in range(16)]
        for task in self._tasks:
            next(task)
        self._web = _build_web()
        self._epoch = 0

    def run(self) -> float:
        """Host seconds of one fixed pass (about :data:`NOMINAL_S`)."""
        tasks = self._tasks
        timers: list = []
        table: dict = {}
        t0 = time.perf_counter()
        for i in range(_EVENTS):
            key, value = tasks[i & 15].send(i)
            heapq.heappush(timers, (value, i))
            if len(timers) > 64:
                heapq.heappop(timers)
            table[key] = table.get(key, 0) + value
        for _ in range(_WEB_PASSES):
            self._epoch += 1
            epoch = self._epoch
            root = self._web[0]
            root.epoch = epoch
            gray = [root]
            while gray:
                for ref in gray.pop().refs:
                    if ref.epoch != epoch:
                        ref.epoch = epoch
                        gray.append(ref)
        return time.perf_counter() - t0
