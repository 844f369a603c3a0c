"""Checkpoint/restart recovery: restore service, not just memory.

GOLF's only recovery action is reclaim-and-drop (paper §5): the leaked
goroutine's memory returns, but whatever role it played in the service
is gone.  This module adds the restart path sketched by claude-flow's
checkpoint-rollback design (SNIPPETS.md): a service registers a
*subsystem* — its channels, its worker respawn recipes, and a host-side
state dict — and takes cheap checkpoints at quiescent points.  When the
detector condemns one of the subsystem's goroutines, the whole subsystem
is rolled back to its last checkpoint and restarted: every live worker
is force-killed, channel buffers are restored, and fresh workers are
re-spawned from the recipes.

Because generator frames cannot be snapshotted, workers restart *from
the top* rather than mid-flight — the same contract as a process-level
restart.  Zero data loss therefore rests on the service's protocol, not
on frame state: results must be made durable before they are
acknowledged, and an at-least-once submitter must redeliver unacked
work (see :mod:`repro.service.checkpointed`, which carries the oracle).

Rollbacks never run mid-cycle: condemned goroutines are *claimed* inside
the collector's report path (:meth:`CheckpointManager.on_condemned`,
which also keeps them out of the two-cycle reclaim list), and the
teardown/restart happens in :meth:`CheckpointManager.process_pending`,
called by the collector after the cycle — or detection-only daemon pass
— completes.  Recovery charges virtual time like a pause, so
recovery-time SLOs are measurable in the simulated clock.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.runtime import events as ev
from repro.runtime.goroutine import Goroutine, GStatus


class CheckpointError(ReproError):
    """Invalid checkpoint/recovery operation."""


def _copy_state(value: Any) -> Any:
    """Structural copy of host-side state: containers are duplicated,
    leaves (numbers, strings, heap objects) are shared by reference."""
    if isinstance(value, dict):
        return {k: _copy_state(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_copy_state(v) for v in value]
    if isinstance(value, set):
        return {_copy_state(v) for v in value}
    if isinstance(value, tuple):
        return tuple(_copy_state(v) for v in value)
    return value


class WorkerSpec:
    """A respawn recipe: how to re-create one subsystem goroutine."""

    __slots__ = ("name", "fn", "args")

    def __init__(self, name: str, fn: Callable[..., Any],
                 args: Tuple[Any, ...] = ()):
        self.name = name
        self.fn = fn
        self.args = tuple(args)

    def __repr__(self) -> str:
        return f"<worker-spec {self.name!r}>"


class SubsystemCheckpoint:
    """One quiescent-point snapshot of a subsystem."""

    __slots__ = ("taken_at_ns", "heap_state", "state")

    def __init__(self, taken_at_ns: int, heap_state: Dict[int, Any],
                 state: Dict[str, Any]):
        self.taken_at_ns = taken_at_ns
        #: ``{addr: payload}`` from :meth:`Heap.snapshot_objects` over
        #: the subsystem's registered channels/objects.
        self.heap_state = heap_state
        #: Structural copy of the host-side state dict.
        self.state = state

    def __repr__(self) -> str:
        return f"<checkpoint @{self.taken_at_ns}ns>"


class RecoveryRecord:
    """One completed subsystem rollback+restart."""

    __slots__ = ("subsystem", "at_ns", "recovery_ns", "workers_killed",
                 "workers_respawned", "condemned_goids", "trigger")

    def __init__(self, subsystem: str, at_ns: int, recovery_ns: int,
                 workers_killed: int, workers_respawned: int,
                 condemned_goids: Tuple[int, ...], trigger: str):
        self.subsystem = subsystem
        self.at_ns = at_ns
        self.recovery_ns = recovery_ns
        self.workers_killed = workers_killed
        self.workers_respawned = workers_respawned
        self.condemned_goids = condemned_goids
        #: ``"gc"`` or ``"daemon"`` — which detection path condemned.
        self.trigger = trigger

    def __repr__(self) -> str:
        return (f"<recovery {self.subsystem!r} @{self.at_ns}ns "
                f"cost={self.recovery_ns}ns "
                f"respawned={self.workers_respawned}>")


class Subsystem:
    """A registered recovery unit: channels + worker recipes + state."""

    def __init__(self, manager: "CheckpointManager", name: str,
                 channels: Iterable[Any], specs: Iterable[WorkerSpec],
                 state: Optional[Dict[str, Any]] = None):
        self.manager = manager
        self.name = name
        self.channels = list(channels)
        self.specs = list(specs)
        #: Host-visible mutable state rolled back with the subsystem
        #: (ledgers, counters).  Durable stores should live *outside*.
        self.state: Dict[str, Any] = state if state is not None else {}
        #: Live worker goroutines, by goid.
        self.live: Dict[int, Goroutine] = {}
        self.last_checkpoint: Optional[SubsystemCheckpoint] = None
        self.checkpoints_taken = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn all workers and take the initial checkpoint."""
        for spec in self.specs:
            self._spawn(spec)
        self.take_checkpoint()

    def _spawn(self, spec: WorkerSpec) -> Goroutine:
        sched = self.manager.rt.sched
        # A checkpointed worker is restartable by definition and must
        # never become the program's main goroutine (kill() refuses
        # main).  Undo the scheduler's first-spawn main designation if
        # the subsystem starts before the real main is spawned.
        had_main = sched.main_g is not None
        g = sched.spawn(spec.fn, *spec.args, name=spec.name,
                        go_site=f"<subsystem:{self.name}>")
        if not had_main and sched.main_g is g:
            sched.main_g = None
        g.deadlock_label = spec.name
        self.live[g.goid] = g
        self.manager._members[g.goid] = self
        return g

    def take_checkpoint(self) -> SubsystemCheckpoint:
        """Snapshot channel contents and host state at a quiescent point.

        "Quiescent" means a consistent host-visible point: between run
        slices, or inside a cycle-completion hook — never mid-effect.
        """
        rt = self.manager.rt
        ckpt = SubsystemCheckpoint(
            taken_at_ns=rt.clock.now,
            heap_state=rt.heap.snapshot_objects(self.channels),
            state=_copy_state(self.state),
        )
        self.last_checkpoint = ckpt
        self.checkpoints_taken += 1
        return ckpt


class CheckpointManager:
    """Owns registered subsystems and executes rollback+restart.

    Wiring: constructing the manager installs it as the collector's
    ``recovery_manager``; the collector consults
    :meth:`on_condemned` when reporting and calls
    :meth:`process_pending` after every completed cycle or daemon
    detection pass.
    """

    #: Virtual-time cost model of one recovery: a fixed coordination
    #: cost, per-worker respawn cost, and per-restored-message cost.
    RECOVERY_BASE_NS = 200_000
    NS_PER_WORKER = 50_000
    NS_PER_VALUE = 1_000

    def __init__(self, rt):
        self.rt = rt
        self.subsystems: Dict[str, Subsystem] = {}
        self.recoveries: List[RecoveryRecord] = []
        #: goid -> owning subsystem, for every live worker.
        self._members: Dict[int, Subsystem] = {}
        #: goid -> (subsystem, report, trigger) for condemned-and-claimed
        #: workers awaiting rollback.
        self._claimed: Dict[int, Tuple[Subsystem, Any, str]] = {}
        #: Subsystems awaiting rollback at the next process_pending.
        self._dirty: List[Subsystem] = []
        rt.collector.recovery_manager = self

    # -- registration -------------------------------------------------------

    def register(self, name: str, channels: Iterable[Any],
                 workers: Iterable[WorkerSpec],
                 state: Optional[Dict[str, Any]] = None) -> Subsystem:
        """Register and start a recovery subsystem.

        The subsystem's channels are pinned *and* published as global
        roots: restart restores their contents in place (so the
        collector must never free them), and a worker idling on an
        empty subsystem channel is waiting on a service endpoint the
        outside world can still reach — publishing the channel in the
        global root set keeps GOLF from condemning such workers as
        leaks (paper, section 4.2: liveness flows from globals).
        """
        if name in self.subsystems:
            raise CheckpointError(f"subsystem {name!r} already registered")
        sub = Subsystem(self, name, channels, workers, state)
        for i, obj in enumerate(sub.channels):
            if not self.rt.heap.contains(obj):
                raise CheckpointError(
                    f"subsystem {name!r} channel not on the heap: {obj!r}")
            self.rt.heap.pin(obj)
            self.rt.heap.globals.set(f"checkpoint.{name}.{i}", obj)
        self.subsystems[name] = sub
        sub.start()
        return sub

    # -- collector integration ----------------------------------------------

    def on_condemned(self, g: Goroutine, report: Any,
                     reason: str = "forced") -> bool:
        """Collector hook: claim a condemned goroutine for restart.

        Returns True when ``g`` belongs to a registered subsystem — the
        subsystem is queued for rollback and the collector must *not*
        schedule the goroutine for plain two-cycle reclaim (the rollback
        kills it, together with its sibling workers).  ``reason`` is the
        cycle reason (``"daemon"`` for detection-only passes).
        """
        sub = self._members.get(g.goid)
        if sub is None:
            return False
        trigger = "daemon" if reason == "daemon" else "gc"
        self._claimed[g.goid] = (sub, report, trigger)
        if sub not in self._dirty:
            self._dirty.append(sub)
        return True

    def process_pending(self) -> None:
        """Execute queued rollbacks.  Called by the collector after a
        cycle (or daemon detection pass) completes — never mid-sweep."""
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, []
        for sub in dirty:
            self._rollback(sub)

    # -- the rollback -------------------------------------------------------

    def _rollback(self, sub: Subsystem) -> None:
        rt = self.rt
        sched = rt.sched
        ckpt = sub.last_checkpoint  # register() took the first one

        # Which condemned workers triggered this rollback, and how.
        claimed = [(goid, rep, trig)
                   for goid, (s, rep, trig) in self._claimed.items()
                   if s is sub]
        for goid, _, _ in claimed:
            self._claimed.pop(goid, None)
        trigger = ("daemon"
                   if any(trig == "daemon" for _, _, trig in claimed)
                   else "gc")

        # 1. Tear down: force-kill every live worker (condemned ones
        #    included — they were claimed out of the reclaim list).
        killed = 0
        for g in list(sub.live.values()):
            self._members.pop(g.goid, None)
            if g.status != GStatus.DEAD:
                sched.kill(g)
                killed += 1
        sub.live.clear()

        # 2. Roll channel contents and host state back to the checkpoint.
        rt.heap.restore_objects(sub.channels, ckpt.heap_state)
        sub.state.clear()
        sub.state.update(_copy_state(ckpt.state))

        # 3. Restart: re-spawn every worker from its recipe.
        for spec in sub.specs:
            sub._spawn(spec)

        # 4. Charge the recovery's virtual time like a pause.
        restored_values = sum(
            len(st["buffer"]) for st in ckpt.heap_state.values()
            if isinstance(st, dict) and "buffer" in st)
        cost = (self.RECOVERY_BASE_NS
                + self.NS_PER_WORKER * len(sub.specs)
                + self.NS_PER_VALUE * restored_values)
        rt.clock.advance(cost)
        sched.stall_all(cost)

        record = RecoveryRecord(
            subsystem=sub.name,
            at_ns=rt.clock.now,
            recovery_ns=cost,
            workers_killed=killed,
            workers_respawned=len(sub.specs),
            condemned_goids=tuple(goid for goid, _, _ in claimed),
            trigger=trigger,
        )
        self.recoveries.append(record)

        # 5. Surface the recovery where the leak itself surfaced:
        #    provenance evidence on the triggering reports and the
        #    execution trace.
        detail = (f"subsystem '{sub.name}' rolled back to checkpoint "
                  f"@{ckpt.taken_at_ns}ns and restarted: {killed} killed, "
                  f"{len(sub.specs)} respawned, cost {cost}ns")
        for goid, rep, _ in claimed:
            if rep is not None and rep.provenance is not None:
                rep.provenance.evidence.append(f"recovery: {detail}")
        if sched.tracer is not None:
            sched.tracer.emit(ev.RECOVERY_RESTART, 0, detail)

    # -- introspection ------------------------------------------------------

    def recovery_times_ns(self) -> List[int]:
        return [r.recovery_ns for r in self.recoveries]

    def total_recoveries(self) -> int:
        return len(self.recoveries)
