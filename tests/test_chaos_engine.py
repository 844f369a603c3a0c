"""The chaos engine: determinism, the soundness oracle, and campaigns.

The acceptance bar for the fault-injection engine: across hundreds of
seeded fault schedules GOLF must produce zero false positives (no
reported goroutine is ever woken), zero runtime-invariant violations,
and idempotent quiescence — and every schedule must be replayable from
``(benchmark, procs, seed, scenario)`` alone.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    SCENARIOS,
    get_scenario,
    run_chaos_campaign,
    run_chaos_schedule,
)
from repro.errors import InjectedPanic
from repro.microbench.registry import all_benchmarks
from repro.runtime.clock import MILLISECOND
from repro.runtime.goroutine import GStatus
from repro.runtime.instructions import Go, MakeChan, Recv, Sleep

from tests.conftest import run_to_end


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        spec = get_scenario("mixed")
        a, b = FaultPlan(123, spec), FaultPlan(123, spec)
        assert [a.next_fault() for _ in range(500)] == \
               [b.next_fault() for _ in range(500)]

    def test_different_seeds_diverge(self):
        spec = get_scenario("mixed")
        plan_a, plan_b = FaultPlan(1, spec), FaultPlan(2, spec)
        a = [plan_a.next_fault() for _ in range(500)]
        b = [plan_b.next_fault() for _ in range(500)]
        assert a != b

    def test_max_faults_caps_injections(self):
        spec = get_scenario("clock-jitter")
        plan = FaultPlan(9, spec)
        fired = 0
        for _ in range(100_000):
            kind = plan.next_fault()
            if kind is None:
                continue
            plan.record(0, kind, 0, "test", "injected")
            fired += 1
        assert fired == spec.max_faults
        assert plan.next_fault() is None

    def test_rejected_faults_do_not_consume_budget(self):
        spec = get_scenario("panic-storm")
        plan = FaultPlan(9, spec)
        for _ in range(1000):
            kind = plan.next_fault()
            if kind is not None:
                plan.record(0, kind, 0, "test", "rejected")
        assert plan.injected_count() == 0
        assert plan.rejected_count() > 0
        assert plan.next_fault() is not None or True  # budget untouched

    def test_scenario_weights_select_only_listed_kinds(self):
        spec = get_scenario("gc-chaos")
        plan = FaultPlan(5, spec)
        kinds = set()
        for _ in range(50_000):
            kind = plan.next_fault()
            if kind is not None:
                kinds.add(kind)
                plan.record(0, kind, 0, "t", "rejected")
        assert kinds == {FaultKind.FORCE_GC, FaultKind.GC_PERTURB}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            get_scenario("does-not-exist")


class TestScheduleReplay:
    def test_same_seed_identical_trace(self):
        bench = all_benchmarks()[0]
        first = run_chaos_schedule(bench, seed=7, scenario="mixed")
        second = run_chaos_schedule(bench, seed=7, scenario="mixed")
        assert first.trace == second.trace
        assert first.to_dict() == second.to_dict()

    def test_replay_across_all_scenarios(self):
        bench = all_benchmarks()[1]
        for name in SCENARIOS:
            if name.startswith("downstream"):
                continue  # service-layer only; no scheduler faults
            a = run_chaos_schedule(bench, seed=31, scenario=name)
            b = run_chaos_schedule(bench, seed=31, scenario=name)
            assert a.to_dict() == b.to_dict(), name

    def test_injected_count_is_the_trace_count_in_every_scenario(self):
        """``FaultPlan.injected_count()`` is a running count kept by
        ``record()``, read at every yield; the trace is the truth."""
        total = 0
        for bench in all_benchmarks()[:3]:
            for name in SCENARIOS:
                result = run_chaos_schedule(bench, seed=31, scenario=name)
                in_trace = sum(r["outcome"] == "injected"
                               for r in result.trace)
                assert result.injected == in_trace, (bench.name, name)
                assert in_trace <= get_scenario(name).max_faults
                total += in_trace
        assert total > 0


class TestInjectorGuards:
    """The injector must refuse faults that would break soundness by
    construction rather than relying on the tripwire to catch them."""

    def _blocked_runtime(self, rt):
        def main():
            ch = yield MakeChan(0, label="wedge")

            def blocked():
                yield Recv(ch)

            yield Go(blocked, name="blocked")
            yield Sleep(2 * MILLISECOND)

        run_to_end(rt, main)
        victims = [g for g in rt.sched.allgs
                   if g.name == "blocked"
                   and g.status == GStatus.WAITING]
        assert victims
        return victims[0]

    def test_no_spurious_wake_for_detectably_blocked(self, rt):
        g = self._blocked_runtime(rt)
        assert g.is_blocked_detectably
        assert not rt.sched.try_spurious_wakeup(g)
        assert g.status == GStatus.WAITING

    def test_no_panic_delivery_to_reported(self, rt):
        g = self._blocked_runtime(rt)
        rt.gc()
        assert g.reported
        assert not rt.sched.deliver_panic(g, InjectedPanic("refused"))

    def test_panic_self_spares_main(self, rt):
        plan = FaultPlan(3, get_scenario("panic-storm"))
        injector = FaultInjector(rt, plan).install()

        def main():
            for _ in range(200):
                yield Sleep(10_000)

        status = run_to_end(rt, main)
        assert status == "main-exited"
        for record in plan.trace:
            if record.kind == FaultKind.PANIC_SELF \
                    and record.outcome == "injected":
                assert record.target_goid != rt.sched.main_g.goid
        injector.uninstall()

    def test_uninstall_stops_injection(self, rt):
        plan = FaultPlan(3, get_scenario("clock-jitter"))
        injector = FaultInjector(rt, plan).install()
        injector.uninstall()

        def main():
            yield Sleep(MILLISECOND)

        run_to_end(rt, main)
        assert injector.yield_points == 0


class TestCampaigns:
    def test_campaign_200_seeds_mixed_clean(self):
        """The headline soundness-under-chaos guarantee: ≥200 seeded
        schedules across the whole corpus, zero false positives, zero
        invariant violations, idempotent quiescence everywhere."""
        report = run_chaos_campaign(seeds=210, scenario="mixed",
                                    base_seed=0)
        assert len(report.schedules) == 210
        assert report.false_positives == 0, report.format()
        assert report.invariant_violations == 0, report.format()
        assert report.non_idempotent == 0, report.format()
        assert report.clean
        # The campaign must actually have injected faults to mean
        # anything — and plenty of panics, the harshest perturbation.
        assert report.total_injected() > 100
        assert report.injected_by_kind().get(FaultKind.PANIC_SELF, 0) \
            + report.injected_by_kind().get(FaultKind.PANIC_BLOCKED, 0) > 20

    @pytest.mark.parametrize("scenario", ["panic-storm", "gc-chaos",
                                          "clock-jitter",
                                          "reuse-pressure"])
    def test_scenario_campaigns_clean(self, scenario):
        report = run_chaos_campaign(seeds=30, scenario=scenario,
                                    base_seed=4242)
        assert report.clean, report.format()
        assert report.total_injected() > 0

    def test_campaign_covers_whole_corpus(self):
        corpus = all_benchmarks()
        report = run_chaos_campaign(seeds=len(corpus), scenario="mixed",
                                    base_seed=9)
        assert {s.benchmark for s in report.schedules} == \
               {b.name for b in corpus}

    def test_report_json_round_trips(self):
        from repro import codec

        report = run_chaos_campaign(seeds=4, scenario="mixed",
                                    base_seed=77, keep_traces=True)
        data = codec.loads(codec.dumps(report.to_dict()))
        assert data["schedules_run"] == 4
        assert data["clean"] == report.clean
        assert len(data["schedules"]) == 4
        for sched in data["schedules"]:
            for record in sched["trace"]:
                assert set(record) == {"index", "time_ns", "kind",
                                       "target_goid", "detail", "outcome"}

    def test_detection_still_works_under_chaos(self):
        """Chaos must not make the detector blind: across a campaign the
        known-leaky benchmarks still produce reports and reclaims."""
        report = run_chaos_campaign(seeds=40, scenario="mixed",
                                    base_seed=321)
        assert sum(s.reports for s in report.schedules) > 0
        assert sum(s.reclaimed for s in report.schedules) > 0
