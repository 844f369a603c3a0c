"""The recovery chaos campaign: checkpoint/restart under fire.

Where :func:`repro.chaos.run_chaos_campaign` stresses the *detector*
(soundness, invariants, idempotence), this campaign stresses the
*recovery path*: it sweeps seeds over the checkpointed job pipeline
(:mod:`repro.service.checkpointed`) with the ``recovery`` fault
scenario layered on top, and grades each schedule against the
robustness SLOs this repo commits to:

- **restart success**: the pipeline drains every job despite wedged and
  panicked workers — the campaign gate is a >= 95% success rate;
- **zero data loss**: the acked-implies-durable oracle holds on every
  schedule, successful or not (a failed schedule may time out, but it
  must never *lose* acknowledged work);
- **recovery time**: subsystem rollback+restart cost is recorded per
  recovery, and the campaign reports the p50/p99 against the stated
  virtual-time SLO.

Seeds are ``base_seed + i`` for both the runtime and the fault plan, so
a campaign is fully reproducible from ``(seeds, base_seed)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.chaos.plan import FaultPlan
from repro.chaos.scenarios import get_scenario
from repro.service.checkpointed import (
    CheckpointedConfig,
    CheckpointedResult,
    run_checkpointed,
)
from repro.service.stats import percentile

#: Recovery-time SLO (virtual ns): rollback+restart of the pipeline
#: subsystem must complete within this much charged virtual time.  The
#: cost model is deterministic (base + per-worker + per-restored-value),
#: so the p99 sits well under the bound unless checkpoints balloon.
RECOVERY_P99_SLO_NS = 2_000_000

#: The campaign gate: fraction of schedules that must drain every job.
SUCCESS_RATE_SLO = 0.95


class RecoveryScheduleResult:
    """One seed's outcome, flattened for the campaign artifact."""

    __slots__ = ("seed", "result", "injected")

    def __init__(self, seed: int, result: CheckpointedResult, injected: int):
        self.seed = seed
        self.result = result
        self.injected = injected

    @property
    def success(self) -> bool:
        return self.result.completed

    @property
    def zero_data_loss(self) -> bool:
        return self.result.zero_data_loss

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "injected": self.injected,
            "success": self.success,
            **self.result.as_dict(),
        }

    def __repr__(self) -> str:
        tag = "ok" if self.success else "TIMEOUT"
        return (
            f"<recovery seed={self.seed} {tag} "
            f"acked={self.result.jobs_acked}/{self.result.jobs_total} "
            f"recoveries={self.result.recoveries} faults={self.injected}>"
        )


class RecoveryReport:
    """Aggregate verdict of a recovery campaign."""

    def __init__(self, seeds: int, base_seed: int):
        self.seeds = seeds
        self.base_seed = base_seed
        self.schedules: List[RecoveryScheduleResult] = []

    @property
    def successes(self) -> int:
        return sum(1 for s in self.schedules if s.success)

    @property
    def success_rate(self) -> float:
        if not self.schedules:
            return 0.0
        return self.successes / len(self.schedules)

    @property
    def data_loss_schedules(self) -> List[int]:
        return [s.seed for s in self.schedules if not s.zero_data_loss]

    @property
    def invariant_violations(self) -> int:
        return sum(len(s.result.invariant_problems) for s in self.schedules)

    def total_recoveries(self) -> int:
        return sum(s.result.recoveries for s in self.schedules)

    def recovery_times_ns(self) -> List[int]:
        times: List[int] = []
        for s in self.schedules:
            times.extend(s.result.recovery_ns)
        return sorted(times)

    def recovery_p99_ns(self) -> float:
        return percentile(self.recovery_times_ns(), 0.99)

    @property
    def meets_slo(self) -> bool:
        times = self.recovery_times_ns()
        return (self.success_rate >= SUCCESS_RATE_SLO
                and not self.data_loss_schedules
                and self.invariant_violations == 0
                and (not times or self.recovery_p99_ns() <= RECOVERY_P99_SLO_NS))

    def to_dict(self) -> Dict[str, Any]:
        times = self.recovery_times_ns()
        return {
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "schedules_run": len(self.schedules),
            "successes": self.successes,
            "success_rate": self.success_rate,
            "success_rate_slo": SUCCESS_RATE_SLO,
            "data_loss_schedules": self.data_loss_schedules,
            "invariant_violations": self.invariant_violations,
            "total_recoveries": self.total_recoveries(),
            "total_redeliveries": sum(
                s.result.redeliveries for s in self.schedules),
            "total_faults_injected": sum(s.injected for s in self.schedules),
            "recovery_p50_ns": percentile(times, 0.50),
            "recovery_p99_ns": percentile(times, 0.99),
            "recovery_max_ns": float(times[-1]) if times else 0.0,
            "recovery_p99_slo_ns": RECOVERY_P99_SLO_NS,
            "meets_slo": self.meets_slo,
            "schedules": [s.to_dict() for s in self.schedules],
        }

    def format(self) -> str:
        d = self.to_dict()
        lines = [
            f"recovery campaign: seeds={d['schedules_run']} "
            f"base_seed={self.base_seed}",
            f"  restart success : {d['successes']}/{d['schedules_run']} "
            f"({d['success_rate']:.1%}; SLO >= {SUCCESS_RATE_SLO:.0%})",
            f"  data loss       : "
            f"{d['data_loss_schedules'] or 'none'} (SLO: zero)",
            f"  invariant viols : {d['invariant_violations']}",
            f"  recoveries      : {d['total_recoveries']} "
            f"(redeliveries={d['total_redeliveries']}, "
            f"faults={d['total_faults_injected']})",
            f"  recovery time   : p50={d['recovery_p50_ns']:.0f}ns "
            f"p99={d['recovery_p99_ns']:.0f}ns "
            f"(SLO p99 <= {RECOVERY_P99_SLO_NS}ns)",
            f"  verdict         : {'CLEAN' if self.meets_slo else 'DIRTY'}",
        ]
        for s in self.schedules:
            if not s.success or not s.zero_data_loss:
                lines.append(f"  FAILED {s!r}")
        return "\n".join(lines)


def run_recovery_campaign(
    seeds: int = 50,
    base_seed: int = 0,
    scenario: str = "recovery",
    config: Optional[CheckpointedConfig] = None,
    telemetry=None,
) -> RecoveryReport:
    """Sweep ``seeds`` recovery schedules over the checkpointed pipeline.

    Schedule *i* uses runtime seed ``base_seed + i`` and an independent
    chaos seed derived from it, mirroring the detector campaign's
    reproducibility contract.
    """
    scn = get_scenario(scenario)
    report = RecoveryReport(seeds, base_seed)
    base = config or CheckpointedConfig()
    for i in range(seeds):
        seed = base_seed + i
        cfg = CheckpointedConfig(
            procs=base.procs, seed=seed, workers=base.workers,
            jobs=base.jobs, poison_rate=base.poison_rate,
            work_us=base.work_us,
            daemon_interval_ms=base.daemon_interval_ms,
            redeliver_after_ms=base.redeliver_after_ms,
            deadline_ms=base.deadline_ms)
        plan = FaultPlan(seed, scn)
        result = run_checkpointed(cfg, telemetry=telemetry, fault_plan=plan)
        report.schedules.append(
            RecoveryScheduleResult(seed, result, plan.injected_count()))
    return report
