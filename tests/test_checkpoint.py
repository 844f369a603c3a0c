"""Checkpoint/restart recovery: rollback semantics and data-loss oracle."""

from __future__ import annotations

import pytest

from repro import GolfConfig, Runtime
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointManager,
    WorkerSpec,
)
from repro.runtime.clock import MILLISECOND
from repro.runtime.goroutine import GStatus
from repro.runtime.instructions import MakeChan, Recv, Sleep
from repro.runtime.invariants import check_invariants
from repro.service.checkpointed import CheckpointedConfig, run_checkpointed


def _sleeper(ms):
    def main():
        yield Sleep(ms * MILLISECOND)
    return main


def _wedge_once(rt, endpoint, counter):
    """Worker recipe: first incarnation wedges on a private channel (a
    condemnable leak); respawned incarnations idle on the registered
    endpoint, which is a global root and therefore never condemned."""
    def worker():
        counter["spawned"] += 1
        if counter["spawned"] <= 1:
            ch = yield MakeChan(0)
            yield Recv(ch)
        yield Recv(endpoint)
    return worker


def _idler(endpoint):
    def worker():
        yield Recv(endpoint)
    return worker


class TestRegistration:
    def test_duplicate_name_rejected(self):
        rt = Runtime(seed=1)
        mgr = CheckpointManager(rt)
        ch = rt.make_chan(1)
        mgr.register("pool", channels=[ch], workers=[], start=False)
        with pytest.raises(CheckpointError):
            mgr.register("pool", channels=[ch], workers=[], start=False)

    def test_off_heap_channel_rejected(self):
        rt = Runtime(seed=1)
        other = Runtime(seed=2)
        mgr = CheckpointManager(rt)
        foreign = other.make_chan(1)
        with pytest.raises(CheckpointError):
            mgr.register("pool", channels=[foreign], workers=[],
                         start=False)

    def test_channels_pinned_and_published_as_roots(self):
        rt = Runtime(seed=1)
        mgr = CheckpointManager(rt)
        ch = rt.make_chan(2)
        mgr.register("pool", channels=[ch], workers=[], start=False)
        assert rt.get_global("checkpoint.pool.0") is ch
        # Pinned: a full GC with no other references must not free it.
        rt.gc_until_quiescent()
        assert rt.heap.contains(ch)

    def test_start_spawns_workers_and_takes_initial_checkpoint(self):
        rt = Runtime(seed=1)
        mgr = CheckpointManager(rt)
        ch = rt.make_chan(0)
        sub = mgr.register(
            "pool", channels=[ch],
            workers=[WorkerSpec(f"w{i}", _idler(ch)) for i in range(3)])
        assert len(sub.live) == 3
        assert sub.checkpoints_taken == 1
        assert sub.last_checkpoint is not None

    def test_subsystem_worker_never_becomes_main(self):
        """Workers registered before main is spawned must not claim the
        scheduler's first-spawn main designation — kill() refuses main,
        so a worker-as-main would make the subsystem unrecoverable."""
        rt = Runtime(seed=1)
        mgr = CheckpointManager(rt)
        ch = rt.make_chan(0)
        mgr.register("pool", channels=[ch],
                     workers=[WorkerSpec("w0", _idler(ch))])
        assert rt.sched.main_g is None
        main = rt.spawn_main(_sleeper(1))
        assert rt.sched.main_g is main


class TestRollback:
    def _condemn_one(self, rt, mgr, workers=3):
        """Register a pool where one worker wedges once, run, GC."""
        endpoint = rt.make_chan(0)
        counter = {"spawned": 0}
        specs = [WorkerSpec("w0", _wedge_once(rt, endpoint, counter))]
        specs += [WorkerSpec(f"w{i}", _idler(endpoint))
                  for i in range(1, workers)]
        sub = mgr.register("pool", channels=[endpoint], workers=specs)
        rt.spawn_main(_sleeper(5))
        rt.run(until_ns=5 * MILLISECOND)
        return sub, endpoint

    def test_gc_condemnation_triggers_rollback(self):
        rt = Runtime(seed=3)
        mgr = CheckpointManager(rt)
        sub, _ = self._condemn_one(rt, mgr)
        before = set(sub.live)
        rt.gc_until_quiescent()
        assert mgr.total_recoveries() == 1
        record = mgr.recoveries[0]
        assert record.trigger == "gc"
        assert record.workers_killed == 3
        assert record.workers_respawned == 3
        assert len(record.condemned_goids) == 1
        # Fresh descriptors: the old goids are gone.
        assert not (set(sub.live) & before)
        assert all(g.status != GStatus.DEAD for g in sub.live.values())
        assert check_invariants(rt) == []

    def test_respawned_workers_survive_further_cycles(self):
        """After rollback the pool idles on the registered endpoint —
        a global root — so further GC cycles condemn nothing."""
        rt = Runtime(seed=3)
        mgr = CheckpointManager(rt)
        self._condemn_one(rt, mgr)
        rt.gc_until_quiescent()
        assert mgr.total_recoveries() == 1
        rt.gc_until_quiescent()
        assert mgr.total_recoveries() == 1  # no second rollback

    def test_rollback_restores_channel_buffer_and_state(self):
        rt = Runtime(seed=3)
        mgr = CheckpointManager(rt)
        sub, endpoint = self._condemn_one(rt, mgr)
        data = rt.make_chan(8, label="data")
        sub.channels.append(data)
        rt.heap.pin(data)
        sub.state["ledger"] = [1, 2]
        for v in (10, 20, 30):
            data.try_send(v)
        sub.take_checkpoint()
        # Post-checkpoint mutations that the rollback must undo.
        data.try_recv()
        data.try_send(99)
        sub.state["ledger"].append(3)
        rt.gc_until_quiescent()
        assert mgr.total_recoveries() == 1
        assert list(data.buffer) == [10, 20, 30]
        assert not data.closed
        assert sub.state["ledger"] == [1, 2]

    def test_wait_queues_survive_checkpoint_restore(self):
        """Snapshot/restore covers message state only: an outside client
        parked on the channel stays parked, its sudog untouched."""
        rt = Runtime(seed=4)
        ch = rt.make_chan(0)

        def client():
            yield Recv(ch)

        g = rt.go(client, name="client")
        rt.spawn_main(_sleeper(2))
        rt.run(until_ns=2 * MILLISECOND)
        assert g.status == GStatus.WAITING
        state = ch.checkpoint_state()
        assert state == {"buffer": [], "closed": False}
        ch.restore_state(state)
        assert g.status == GStatus.WAITING
        assert any(sd.g is g and sd.active for sd in ch.recvq)

    def test_recovery_cost_model_charged_to_clock(self):
        rt = Runtime(seed=3)
        mgr = CheckpointManager(rt)
        sub, _ = self._condemn_one(rt, mgr, workers=2)
        rt.gc_until_quiescent()
        record = mgr.recoveries[0]
        expected = (CheckpointManager.RECOVERY_BASE_NS
                    + CheckpointManager.NS_PER_WORKER * 2)
        assert record.recovery_ns == expected
        # The cost was charged to the virtual clock before the record
        # was stamped (later quiescence cycles advance it further).
        assert record.at_ns >= expected
        assert rt.clock.now >= record.at_ns
        assert mgr.recovery_times_ns() == [expected]

    def test_daemon_condemnation_triggers_rollback_without_gc(self):
        """The detection daemon's fixpoint alone drives recovery: no GC
        cycle ever runs, yet the subsystem restarts."""
        rt = Runtime(seed=5)
        mgr = CheckpointManager(rt)
        endpoint = rt.make_chan(0)
        counter = {"spawned": 0}
        specs = [WorkerSpec("w0", _wedge_once(rt, endpoint, counter)),
                 WorkerSpec("w1", _idler(endpoint))]
        mgr.register("pool", channels=[endpoint], workers=specs)
        rt.detect_partial_deadlock(interval_ms=10)
        rt.spawn_main(_sleeper(40))
        rt.run(until_ns=45 * MILLISECOND)
        assert rt.collector.stats.num_gc == 0
        assert mgr.total_recoveries() == 1
        assert mgr.recoveries[0].trigger == "daemon"
        assert counter["spawned"] == 2  # original + respawn
        assert check_invariants(rt) == []


class TestCheckpointedService:
    def test_clean_run_without_poison(self):
        result = run_checkpointed(CheckpointedConfig(
            jobs=16, poison_rate=0.0, deadline_ms=500))
        assert result.clean
        assert result.recoveries == 0
        assert result.duplicate_records == 0

    def test_poisoned_run_recovers_with_zero_data_loss(self):
        result = run_checkpointed(CheckpointedConfig())
        assert result.poisoned_jobs > 0
        assert result.recoveries >= 1
        assert result.redeliveries >= 1
        assert result.completed
        assert result.zero_data_loss
        assert result.clean
        # Every recovery landed within the virtual-time cost model.
        assert all(ns > 0 for ns in result.recovery_ns)

    def test_chaos_run_keeps_data_loss_oracle(self):
        from repro.chaos import FaultInjector, FaultPlan, get_scenario

        plan = FaultPlan(7, get_scenario("recovery"))
        result = run_checkpointed(CheckpointedConfig(seed=7),
                                  fault_plan=plan)
        assert result.zero_data_loss
        assert not result.invariant_problems


class TestRecoveryCampaign:
    """``repro.chaos.recovery``: the pipeline above, swept over seeds
    under the ``recovery`` fault scenario and graded against the SLOs."""

    def test_two_seed_campaign_meets_its_slos(self):
        from repro import codec
        from repro.chaos import run_recovery_campaign
        from repro.chaos.recovery import (
            RECOVERY_P99_SLO_NS,
            SUCCESS_RATE_SLO,
        )

        report = run_recovery_campaign(seeds=2, base_seed=0)
        assert [s.seed for s in report.schedules] == [0, 1]
        assert report.successes == 2 and report.success_rate == 1.0
        assert report.data_loss_schedules == []
        assert report.invariant_violations == 0
        assert report.total_recoveries() >= 1
        assert 0 < report.recovery_p99_ns() <= RECOVERY_P99_SLO_NS
        assert report.meets_slo
        assert "verdict         : CLEAN" in report.format()

        doc = codec.loads(codec.dumps(report.to_dict()))
        assert doc["schedules_run"] == 2 and doc["meets_slo"] is True
        assert doc["success_rate_slo"] == SUCCESS_RATE_SLO
        assert doc["recovery_p99_slo_ns"] == RECOVERY_P99_SLO_NS
        assert doc["total_faults_injected"] == sum(
            s["injected"] for s in doc["schedules"])
        for sched in doc["schedules"]:
            assert sched["success"] and sched["zero_data_loss"]
            assert sched["jobs_acked"] == sched["jobs_total"]
            assert sched["lost_jobs"] == []
        # Reproducible from (seeds, base_seed) alone.
        again = run_recovery_campaign(seeds=2, base_seed=0)
        assert codec.dumps(again.to_dict()) == codec.dumps(report.to_dict())

    def test_a_schedule_that_times_out_misses_the_slo(self):
        from repro.chaos import run_recovery_campaign

        report = run_recovery_campaign(
            seeds=1, config=CheckpointedConfig(deadline_ms=1))
        assert report.successes == 0 and not report.meets_slo
        assert report.data_loss_schedules == []  # late, never lossy
        assert "FAILED <recovery seed=0 TIMEOUT" in report.format()
