"""Fleet-level aggregation: merged reports, fingerprints, metrics.

Everything above the shards is *derived* from the picklable
:class:`~repro.fleet.shard.ShardResult` objects, never from live
runtimes — that is what makes the sequential oracle mode and the
multiprocessing mode comparable bit for bit: both modes hand this
module the same inputs, so a divergence can only come from shard
execution itself (which the mode-equivalence oracle would catch).
"""

from __future__ import annotations

from typing import Dict, List

from repro import codec
from repro.codec import need
from repro.errors import ArtifactError
from repro.fleet.shard import ShardResult
from repro.runtime.clock import SECOND
from repro.telemetry.profiles import FingerprintStore

#: Bumped when the `repro fleet` JSON artifact shape changes.
FLEET_SCHEMA_VERSION = 1


class FleetResult:
    """The merged outcome of one fleet run."""

    def __init__(self, mode: str, config: dict,
                 routing: Dict[int, List[int]],
                 shards: List[ShardResult], wall_s: float = 0.0):
        self.mode = mode
        self.config = config
        self.routing = routing
        self.shards = sorted(shards, key=lambda s: s.shard_id)
        #: Wall-clock seconds for the whole run.  Deliberately excluded
        #: from :meth:`to_dict` — the artifact must be byte-identical
        #: across same-seed runs; benchmarks read this attribute.
        self.wall_s = wall_s
        self.problems: List[str] = []

        # Cross-shard fingerprint dedup: fold each shard's store into
        # one fleet store, counting how many fingerprints collided
        # across shards (the same defect observed by several shards).
        self.fingerprints = FingerprintStore()
        self.cross_shard_added = 0
        self.cross_shard_conflicts = 0
        for shard in self.shards:
            stats = self.fingerprints.merge(
                FingerprintStore.from_dict(shard.fingerprints))
            self.cross_shard_added += stats.added
            self.cross_shard_conflicts += stats.conflicts

        # Merged leak reports with shard provenance, in (shard, report
        # order) — deterministic because each shard's log already is.
        self.reports: List[dict] = []
        for shard in self.shards:
            for report in shard.reports:
                entry = dict(report)
                entry["shard"] = shard.shard_id
                self.reports.append(entry)

        for shard in self.shards:
            for violation in shard.invariant_violations:
                self.problems.append(
                    f"shard {shard.shard_id}: {violation}")
            if shard.service_end_ns <= 0:
                self.problems.append(
                    f"shard {shard.shard_id}: did not complete")

    # -- aggregate numbers ----------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.problems

    @property
    def total_users(self) -> int:
        return sum(s.users for s in self.shards)

    @property
    def total_requests(self) -> int:
        return sum(s.requests_completed for s in self.shards)

    @property
    def total_leaks_detected(self) -> int:
        return sum(s.leaks_detected for s in self.shards)

    @property
    def total_leaks_reclaimed(self) -> int:
        return sum(s.leaks_reclaimed for s in self.shards)

    @property
    def makespan_ns(self) -> int:
        """Fleet virtual makespan: shards serve concurrently, so the
        fleet is done when its slowest shard is."""
        return max((s.service_end_ns for s in self.shards), default=0)

    @property
    def sustained_rps(self) -> float:
        """Fleet request throughput per virtual second of service (the
        repo's RPS convention, summed across concurrent shards)."""
        if self.makespan_ns <= 0:
            return 0.0
        return self.total_requests / (self.makespan_ns / SECOND)

    @property
    def leaks_per_s(self) -> float:
        """Fleet leak-detection throughput per virtual second."""
        if self.makespan_ns <= 0:
            return 0.0
        return self.total_leaks_detected / (self.makespan_ns / SECOND)

    # -- renderings -----------------------------------------------------------

    def report_log_text(self) -> str:
        """The merged leak-report log with shard provenance (part of
        the :func:`equivalence_surface`)."""
        lines: List[str] = []
        for shard in self.shards:
            for text in shard.report_texts:
                first, _, rest = text.partition("\n")
                lines.append(f"[shard {shard.shard_id}] {first}")
                if rest:
                    lines.append(rest)
        return "\n".join(lines) + ("\n" if lines else "")

    def prom_text(self) -> str:
        """One fleet exposition with a ``shard`` label on every sample."""
        from repro.telemetry.metrics import render_merged_prometheus

        return render_merged_prometheus(
            {str(s.shard_id): s.metrics for s in self.shards})

    def to_dict(self) -> dict:
        """The deterministic JSON artifact (no wall-clock anywhere)."""
        return {
            "schema_version": FLEET_SCHEMA_VERSION,
            "mode": self.mode,
            "config": dict(self.config),
            "routing": {str(shard): list(users)
                        for shard, users in sorted(self.routing.items())},
            "shards": [s.as_dict() for s in self.shards],
            "aggregate": {
                "users": self.total_users,
                "requests_completed": self.total_requests,
                "makespan_ns": self.makespan_ns,
                "sustained_rps": round(self.sustained_rps, 3),
                "leaks_detected": self.total_leaks_detected,
                "leaks_reclaimed": self.total_leaks_reclaimed,
                "leaks_per_s": round(self.leaks_per_s, 3),
                "reports": list(self.reports),
                "fingerprints": self.fingerprints.as_dict(),
                "cross_shard_added": self.cross_shard_added,
                "cross_shard_conflicts": self.cross_shard_conflicts,
            },
            "problems": list(self.problems),
            "clean": self.clean,
        }

    def to_json(self) -> str:
        return codec.dumps(self.to_dict())

    def format(self) -> str:
        lines = [
            f"fleet run: {len(self.shards)} shard(s), mode={self.mode}, "
            f"{'clean' if self.clean else 'DIRTY'}",
            f"  users           : {self.total_users}",
            f"  requests        : {self.total_requests}",
            f"  sustained RPS   : {self.sustained_rps:.1f} "
            f"(makespan {self.makespan_ns / SECOND:.3f}s virtual)",
            f"  leaks           : {self.total_leaks_detected} detected, "
            f"{self.total_leaks_reclaimed} reclaimed "
            f"({self.leaks_per_s:.1f}/s)",
            f"  fingerprints    : {len(self.fingerprints)} distinct, "
            f"{self.cross_shard_conflicts} cross-shard conflict(s)",
        ]
        for shard in self.shards:
            lines.append(
                f"    shard {shard.shard_id}: users={shard.users:<4d} "
                f"requests={shard.requests_completed:<5d} "
                f"rps={shard.sustained_rps:<8.1f} "
                f"leaks={shard.leaks_detected:<4d} "
                f"gc={shard.num_gc}")
        for problem in self.problems:
            lines.append(f"  PROBLEM: {problem}")
        return "\n".join(lines)


def validate_fleet_artifact(doc: dict) -> Dict[str, int]:
    """Strictly check a `repro fleet` JSON artifact; raises
    :class:`~repro.errors.ArtifactError`.

    Returns summary counts so the CLI can print what it wrote.
    """
    codec.need_version(doc, FLEET_SCHEMA_VERSION, "artifact")
    need(doc, "mode", str, "artifact")
    need(doc, "config", dict, "artifact")
    need(doc, "clean", bool, "artifact")
    need(doc, "problems", list, "artifact")
    routing = need(doc, "routing", dict, "artifact")
    shards = need(doc, "shards", list, "artifact")
    if not shards:
        raise ArtifactError("artifact: no shards")
    shard_ids = set()
    for i, shard in enumerate(shards):
        where = f"shards[{i}]"
        shard_ids.add(need(shard, "shard_id", int, where))
        need(shard, "users", int, where)
        need(shard, "requests_completed", int, where)
        need(shard, "service_end_ns", int, where)
        need(shard, "leaks_detected", int, where)
        need(shard, "invariant_violations", list, where)
        for j, report in enumerate(need(shard, "reports", list, where)):
            for key in ("goid", "go_site", "block_site", "wait_reason",
                        "gc_cycle", "detected_at_ns"):
                need(report, key, object, f"{where}.reports[{j}]")
    if set(routing) != {str(s) for s in shard_ids}:
        raise ArtifactError("artifact: routing table and shard ids disagree")
    agg = need(doc, "aggregate", dict, "artifact")
    for key in ("users", "requests_completed", "makespan_ns",
                "leaks_detected", "leaks_reclaimed",
                "cross_shard_added", "cross_shard_conflicts"):
        need(agg, key, int, "aggregate")
    for key in ("sustained_rps", "leaks_per_s"):
        need(agg, key, (int, float), "aggregate")
    reports = need(agg, "reports", list, "aggregate")
    for j, report in enumerate(reports):
        shard = need(report, "shard", int, f"aggregate.reports[{j}]")
        if shard not in shard_ids:
            raise ArtifactError(
                f"aggregate.reports[{j}]: shard provenance "
                f"{shard!r} not a fleet shard")
    fingerprints = need(agg, "fingerprints", dict, "aggregate")
    need(fingerprints, "records", list, "aggregate.fingerprints")
    if agg["users"] != sum(s["users"] for s in shards):
        raise ArtifactError("aggregate: users != sum of shard users")
    if agg["requests_completed"] != sum(
            s["requests_completed"] for s in shards):
        raise ArtifactError("aggregate: requests != sum of shard requests")
    if agg["leaks_detected"] != len(reports):
        raise ArtifactError(
            "aggregate: leaks_detected != number of merged reports")
    return {
        "shards": len(shards),
        "reports": len(reports),
        "fingerprints": len(fingerprints["records"]),
    }


def equivalence_surface(result: "FleetResult") -> dict:
    """What must not depend on the execution mode: the canonical
    artifact minus its mode tag, the merged report-log text, and the
    fingerprint set."""
    doc = result.to_dict()
    del doc["mode"]
    doc["report_log"] = result.report_log_text()
    doc["fingerprint_set"] = result.fingerprints.fingerprints()
    return doc


def equivalence_diff(a: "FleetResult", b: "FleetResult") -> List[str]:
    """Mode equivalence: one line per field of the
    :func:`equivalence_surface` on which ``a`` and ``b`` differ
    (empty = equivalent)."""
    from repro.equivalence import diff_fields

    return [f"{field} differs" for field, _, _ in diff_fields(
        equivalence_surface(a), equivalence_surface(b))]
