"""An etcd-flavored in-memory KV store on the simulated runtime.

A realistic concurrent system assembled from the substrate's parts:

- the store proper: a :class:`~repro.runtime.objects.GoMap` guarded by a
  ``sync.RWMutex`` (readers take RLock, writers take Lock);
- a **watch hub**: watchers register channels keyed by prefix; every
  write fans events out to matching watchers (non-blocking sends — slow
  watchers drop events, as etcd's broadcast does);
- a **TTL sweeper**: a ticker-driven goroutine expiring stale keys;
- request handlers with ``context`` deadlines.

The store supports an injectable defect — ``leak_watch_cancel`` — that
reproduces a real etcd bug family: cancelled watchers whose drain
goroutine is forgotten.  With GOLF the leaked drainers are detected and
reclaimed; with the baseline collector they pile up.  ``run_kv_workload``
drives a mixed read/write/watch workload and reports both functional
counters and leak telemetry.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.core.config import GolfConfig
from repro.runtime.api import Runtime
from repro.runtime.clock import MICROSECOND, MILLISECOND, SECOND
from repro.runtime.context import with_timeout
from repro.runtime.instructions import (
    Alloc,
    DEFAULT_CASE,
    Go,
    Lock,
    MakeChan,
    Now,
    Recv,
    RecvCase,
    RLock,
    RUnlock,
    Select,
    SendCase,
    Sleep,
    Unlock,
    NewRWMutex,
)
from repro.runtime.objects import GoMap, Struct
from repro.runtime.timers import new_ticker

#: Processors the workload runs on, and the virtual time it runs for.
PROCS = 4
DURATION_MS = 50
#: Client goroutines issuing requests.
CLIENTS = 6
#: Shares of requests that write and that watch; the rest read.
WRITE_FRACTION = 0.4
WATCH_FRACTION = 0.2
#: Lifetime of a written key.
TTL_MS = 10
#: Cadence of the TTL sweeper.
SWEEP_INTERVAL_MS = 2
#: Deadline of each write.
REQUEST_TIMEOUT_MS = 5
#: Periodic-GC interval.
PERIODIC_GC_MS = 5


class KVConfig:
    """The defect switch and the seed."""

    def __init__(self, leak_watch_cancel: bool = False, seed: int = 0):
        #: The injectable defect: cancelled watches leave their drain
        #: goroutine parked on the event channel forever.
        self.leak_watch_cancel = leak_watch_cancel
        self.seed = seed


class KVStore:
    """The store object graph; all methods are generator coroutines.

    Construct inside a goroutine via :meth:`create` (it allocates the
    heap objects and spawns the sweeper).
    """

    def __init__(self, data, mutex, watchers, config: KVConfig):
        self.data = data            # GoMap: key -> Struct(value, expires)
        self.mutex = mutex          # RWMutex
        self.watchers = watchers    # GoMap: watcher id -> Struct(prefix, ch)
        self.config = config
        self.next_watcher_id = 0
        self.stats = {
            "gets": 0, "puts": 0, "expired": 0,
            "events_delivered": 0, "events_dropped": 0,
            "watches_created": 0, "watches_cancelled": 0,
        }
        self._stopped = False

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, config: KVConfig):
        """Allocate the store and start its sweeper (yield from)."""
        data = yield Alloc(GoMap())
        mutex = yield NewRWMutex(label="kv.mu")
        watchers = yield Alloc(GoMap())
        store = cls(data, mutex, watchers, config)

        def sweeper():
            ticker = yield from new_ticker(
                SWEEP_INTERVAL_MS * MILLISECOND)
            while not store._stopped:
                _, ok = yield Recv(ticker.ch)
                if not ok:
                    return
                yield from store.sweep_expired()
            ticker.stop()

        yield Go(sweeper, name="kv-ttl-sweeper")
        return store

    def stop(self) -> None:
        """Stop background maintenance (the sweeper exits on next tick)."""
        self._stopped = True

    # -- core operations ----------------------------------------------------

    def put(self, key: str, value: Any, now_ns: int):
        """Write a key (yield from); fans out events to watchers."""
        yield Lock(self.mutex)
        entry = yield Alloc(Struct(
            value=value,
            expires=now_ns + TTL_MS * MILLISECOND,
        ))
        self.data[key] = entry
        self.stats["puts"] += 1
        yield Unlock(self.mutex)
        yield from self._broadcast("PUT", key, value)

    def get(self, key: str, now_ns: int):
        """Read a key (yield from); returns the value or None."""
        yield RLock(self.mutex)
        entry = self.data.get(key)
        self.stats["gets"] += 1
        value = None
        if entry is not None and entry["expires"] > now_ns:
            value = entry["value"]
        yield RUnlock(self.mutex)
        return value

    def sweep_expired(self):
        """Drop entries past their TTL (yield from)."""
        now = yield Now()
        yield Lock(self.mutex)
        stale = [
            key for key, entry in self.data.entries.items()
            if entry["expires"] <= now
        ]
        for key in stale:
            del self.data[key]
            self.stats["expired"] += 1
        yield Unlock(self.mutex)
        for key in stale:
            yield from self._broadcast("EXPIRE", key, None)

    # -- watches ---------------------------------------------------------------

    def watch(self, prefix: str):
        """Register a watcher (yield from); returns (watch_id, channel)."""
        ch = yield MakeChan(4, label=f"watch:{prefix}")
        self.next_watcher_id += 1
        watch_id = self.next_watcher_id
        registration = yield Alloc(Struct(prefix=prefix, ch=ch))
        self.watchers[watch_id] = registration
        self.stats["watches_created"] += 1
        return watch_id, ch

    def cancel_watch(self, watch_id: int):
        """Deregister a watcher (yield from).

        The **defective** variant (``leak_watch_cancel=True``) spawns a
        "drain" goroutine meant to flush in-flight events, but it keeps
        receiving forever on a channel nothing will ever close — the
        etcd-style leak GOLF exists to catch.
        """
        registration = self.watchers.get(watch_id)
        if registration is None:
            return
        del self.watchers[watch_id]
        self.stats["watches_cancelled"] += 1
        if self.config.leak_watch_cancel:
            ch = registration["ch"]

            def drain(c=ch):
                while True:
                    _, ok = yield Recv(c)  # never closed: deadlocks
                    if not ok:
                        return

            yield Go(drain, name="kv-watch-drainer")
        # Correct variant: simply drop the registration; pending buffered
        # events are garbage once the watcher stops reading.

    def _broadcast(self, op: str, key: str, value: Any):
        for registration in list(self.watchers.entries.values()):
            if not key.startswith(registration["prefix"]):
                continue
            event = {"op": op, "key": key, "value": value}
            index, _, _ = yield Select(
                [SendCase(registration["ch"], event)], default=True)
            if index == DEFAULT_CASE:
                self.stats["events_dropped"] += 1
            else:
                self.stats["events_delivered"] += 1


class KVWorkloadResult:
    """Functional counters plus leak telemetry from one workload run."""

    def __init__(self) -> None:
        self.stats: Dict[str, int] = {}
        self.requests = 0
        self.timeouts = 0
        self.watch_events_seen = 0
        self.deadlock_reports = 0
        self.dedup_sites: List[str] = []
        self.lingering_goroutines = 0

    def __repr__(self) -> str:
        return (
            f"<kv-workload requests={self.requests} "
            f"reports={self.deadlock_reports} stats={self.stats}>"
        )


def run_kv_workload(config: Optional[KVConfig] = None,
                    golf: bool = True) -> KVWorkloadResult:
    """Drive a mixed GET/PUT/WATCH workload against the store."""
    config = config or KVConfig()
    gc_config = GolfConfig() if golf else GolfConfig.baseline()
    rt = Runtime(procs=PROCS, seed=config.seed, config=gc_config)
    rt.enable_periodic_gc(PERIODIC_GC_MS * MILLISECOND)
    host_rng = random.Random(config.seed ^ 0x5107E)
    result = KVWorkloadResult()
    deadline = DURATION_MS * MILLISECOND

    def client(store: KVStore, client_id: int):
        keys = [f"svc{client_id}/k{i}" for i in range(8)]
        while True:
            now = yield Now()
            if now >= deadline:
                return
            result.requests += 1
            roll = host_rng.random()
            if roll < WATCH_FRACTION:
                # Watch a prefix briefly, then cancel.
                watch_id, ch = yield from store.watch(f"svc{client_id}/")
                yield from store.put(host_rng.choice(keys), roll, now)
                index, event, ok = yield Select([RecvCase(ch)],
                                                default=True)
                if index != DEFAULT_CASE and ok:
                    result.watch_events_seen += 1
                yield from store.cancel_watch(watch_id)
            elif roll < WATCH_FRACTION + WRITE_FRACTION:
                ctx, _cancel = yield from with_timeout(
                    REQUEST_TIMEOUT_MS * MILLISECOND)
                yield from store.put(host_rng.choice(keys), roll, now)
                if ctx.cancelled:
                    result.timeouts += 1
            else:
                value = yield from store.get(host_rng.choice(keys), now)
                del value
            yield Sleep(host_rng.randint(50, 400) * MICROSECOND)

    def main():
        store = yield from KVStore.create(config)
        for i in range(CLIENTS):
            yield Go(client, store, i, name=f"kv-client-{i}")
        yield Sleep(deadline)
        store.stop()
        yield Sleep(2 * SWEEP_INTERVAL_MS * MILLISECOND)
        result.stats = dict(store.stats)

    rt.spawn_main(main)
    rt.run(until_ns=deadline + SECOND, max_instructions=20_000_000)
    rt.gc_until_quiescent()

    result.deadlock_reports = rt.reports.total()
    result.dedup_sites = sorted(
        {r.label for r in rt.reports if r.label})
    result.lingering_goroutines = rt.blocked_goroutine_count()
    rt.shutdown()
    return result
