"""Profiles and leak fingerprinting.

Three views, all built on the runtime's introspection surface:

- *goroutine-profile sampling*: periodic snapshots of the live-goroutine
  population by state (built on :mod:`repro.runtime.pprof`), so an
  operator can see blocked-goroutine growth between GC cycles;
- *heap profile*: live heap bytes/objects grouped by allocation site
  (channel ``make_site``, goroutine ``go_site``) and object kind — the
  LeakProf-style view of where retained memory comes from;
- *leak fingerprints*: a stable hash of a deadlock report's creation and
  block sites, with a store that deduplicates across repeated runs —
  a leak seen by every nightly campaign aggregates into one record
  instead of being re-reported each time.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro import codec
from repro.errors import ArtifactError


def leak_fingerprint(report) -> str:
    """A stable 16-hex-digit fingerprint of a deadlock report.

    Hashes the spawn site, block site, wait reason, and stack
    signature — the identity of the *defect*, not of the particular
    goroutine — so every leak from one defective ``go`` statement maps to
    the same fingerprint, in this run and in every future one.
    """
    parts = [report.go_site, report.block_site, report.wait_reason]
    parts.extend(report.stack)
    digest = hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


class FingerprintRecord:
    """Aggregated observations of one leak fingerprint."""

    __slots__ = ("fingerprint", "go_site", "block_site", "wait_reason",
                 "labels", "count", "runs")

    def __init__(self, fingerprint: str, go_site: str, block_site: str,
                 wait_reason: str):
        self.fingerprint = fingerprint
        self.go_site = go_site
        self.block_site = block_site
        self.wait_reason = wait_reason
        self.labels: List[str] = []
        self.count = 0
        self.runs: List[str] = []

    def observe(self, run_id: str, label: str = "") -> None:
        self.count += 1
        if run_id not in self.runs:
            self.runs.append(run_id)
        if label and label not in self.labels:
            self.labels.append(label)
            self.labels.sort()

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "go_site": self.go_site,
            "block_site": self.block_site,
            "wait_reason": self.wait_reason,
            "labels": list(self.labels),
            "count": self.count,
            "runs": list(self.runs),
        }

    @classmethod
    def from_dict(cls, data: dict,
                  where: str = "fingerprint record") -> "FingerprintRecord":
        record = cls(*(codec.need(data, key, str, where) for key in (
            "fingerprint", "go_site", "block_site", "wait_reason")))
        record.count = codec.need(data, "count", int, where, 0)
        for key in ("labels", "runs"):
            items = codec.need(data, key, list, where, ())
            if not all(isinstance(item, str) for item in items):
                raise ArtifactError(f"{where}: {key!r} should hold strings")
            setattr(record, key, list(items))
        return record

    def __repr__(self) -> str:
        return (f"<fingerprint {self.fingerprint} x{self.count} "
                f"runs={len(self.runs)} {self.go_site} -> "
                f"{self.block_site}>")


class MergeStats:
    """Outcome of one :meth:`FingerprintStore.merge`.

    ``added`` fingerprints were new to the receiving store; ``conflicts``
    existed in both stores and had their counts/runs/labels folded
    together (a cross-shard or cross-run duplicate of the same defect).
    """

    __slots__ = ("added", "conflicts", "observations")

    def __init__(self) -> None:
        self.added = 0
        self.conflicts = 0
        self.observations = 0

    @property
    def total(self) -> int:
        return self.added + self.conflicts

    def __repr__(self) -> str:
        return (f"<merge added={self.added} conflicts={self.conflicts} "
                f"observations={self.observations}>")


class FingerprintStore:
    """Cross-run deduplicating store of leak fingerprints.

    Feed it deadlock reports under a *run id* (one per campaign /
    deployment / CLI invocation); repeated runs of the same workload
    aggregate counts onto the existing records rather than re-reporting.
    Persist with :meth:`save` / :meth:`load` to dedup across processes,
    or fold stores together in memory with :meth:`merge` (the fleet
    supervisor's cross-shard dedup path).
    """

    def __init__(self) -> None:
        self._records: Dict[str, FingerprintRecord] = {}
        self.current_run: Optional[str] = None
        self.runs_started = 0
        self.new_in_current_run: List[str] = []

    def begin_run(self, run_id: Optional[str] = None) -> str:
        self.runs_started += 1
        self.current_run = run_id or f"run-{self.runs_started}"
        self.new_in_current_run = []
        return self.current_run

    def observe(self, report) -> Tuple[FingerprintRecord, bool]:
        """Record one report; returns ``(record, is_new_fingerprint)``."""
        if self.current_run is None:
            self.begin_run()
        fp = leak_fingerprint(report)
        record = self._records.get(fp)
        is_new = record is None
        if is_new:
            record = FingerprintRecord(
                fp, report.go_site, report.block_site, report.wait_reason)
            self._records[fp] = record
            self.new_in_current_run.append(fp)
        record.observe(self.current_run, getattr(report, "label", ""))
        return record, is_new

    def records(self) -> List[FingerprintRecord]:
        return sorted(self._records.values(),
                      key=lambda r: (-r.count, r.fingerprint))

    def get(self, fingerprint: str) -> Optional[FingerprintRecord]:
        return self._records.get(fingerprint)

    def __len__(self) -> int:
        return len(self._records)

    def total_observations(self) -> int:
        return sum(r.count for r in self._records.values())

    # -- merging / persistence -----------------------------------------------

    def merge(self, other: "FingerprintStore") -> MergeStats:
        """Fold another store into this one, in memory.

        Records new to this store are adopted (copied — the other store
        is left untouched); fingerprints present in *both* stores are
        conflicts: their observation counts are summed and their run ids
        and labels unioned.  Returns a :class:`MergeStats` so callers
        (cross-run ``load``, the fleet's cross-shard aggregation) can
        report how much deduplication actually happened.
        """
        stats = MergeStats()
        self.runs_started = max(self.runs_started, other.runs_started)
        for record in other.records():
            stats.observations += record.count
            existing = self._records.get(record.fingerprint)
            if existing is None:
                self._records[record.fingerprint] = (
                    FingerprintRecord.from_dict(record.as_dict()))
                stats.added += 1
                continue
            stats.conflicts += 1
            existing.count += record.count
            for run in record.runs:
                if run not in existing.runs:
                    existing.runs.append(run)
            for label in record.labels:
                if label not in existing.labels:
                    existing.labels.append(label)
            existing.labels.sort()
        return stats

    def as_dict(self) -> dict:
        return {
            "runs_started": self.runs_started,
            "records": [r.as_dict() for r in self.records()],
        }

    @classmethod
    def from_dict(cls, data: dict,
                  where: str = "fingerprint store") -> "FingerprintStore":
        """Every key is optional (a dead fleet worker's store is
        ``{}``); one that is present must have its type."""
        store = cls()
        store.runs_started = codec.need(data, "runs_started", int, where, 0)
        for i, record_data in enumerate(
                codec.need(data, "records", list, where, ())):
            record = FingerprintRecord.from_dict(
                record_data, f"{where}.records[{i}]")
            store._records[record.fingerprint] = record
        return store

    def fingerprints(self) -> List[str]:
        """The sorted fingerprint set (mode-equivalence oracles compare
        these across fleet execution modes)."""
        return sorted(self._records)

    def save(self, path: str) -> None:
        codec.write(path, self.as_dict())

    def load(self, path: str) -> int:
        """Merge a previously saved store; returns records loaded.
        A malformed file is an :class:`~repro.errors.ArtifactError`."""
        return self.merge(
            FingerprintStore.from_dict(codec.read(path), path)).total

    def format(self) -> str:
        """Triage table: highest-count fingerprints first."""
        lines = [f"{len(self)} leak fingerprint(s), "
                 f"{self.total_observations()} observation(s):"]
        for r in self.records():
            labels = f"  [{', '.join(r.labels)}]" if r.labels else ""
            lines.append(
                f"  {r.fingerprint}  x{r.count:<4d} runs={len(r.runs):<3d} "
                f"spawned {r.go_site}  blocked {r.block_site} "
                f"({r.wait_reason}){labels}")
        return "\n".join(lines)


# -- heap profile -----------------------------------------------------------


class HeapSiteRecord:
    """Live heap usage attributed to one (kind, site) pair."""

    __slots__ = ("kind", "site", "objects", "bytes")

    def __init__(self, kind: str, site: str):
        self.kind = kind
        self.site = site
        self.objects = 0
        self.bytes = 0

    def __repr__(self) -> str:
        return (f"<heap {self.kind}@{self.site} x{self.objects} "
                f"{self.bytes}B>")


def _allocation_site(obj) -> str:
    for attr in ("make_site", "go_site"):
        site = getattr(obj, attr, "")
        if site:
            return site
    label = getattr(obj, "label", "")
    return label or "<unattributed>"


def heap_profile(heap) -> List[HeapSiteRecord]:
    """Group live heap objects by (kind, allocation site), biggest
    first — the retained-memory triage view."""
    groups: Dict[Tuple[str, str], HeapSiteRecord] = {}
    for obj in heap.objects():
        key = (obj.kind, _allocation_site(obj))
        record = groups.get(key)
        if record is None:
            record = HeapSiteRecord(*key)
            groups[key] = record
        record.objects += 1
        record.bytes += obj.size
    return sorted(groups.values(),
                  key=lambda r: (-r.bytes, r.kind, r.site))


#: Sites :func:`format_heap_profile` lists before eliding the rest.
HEAP_PROFILE_SITES = 20


def format_heap_profile(records: List[HeapSiteRecord]) -> str:
    total_bytes = sum(r.bytes for r in records)
    lines = [f"heap profile: {sum(r.objects for r in records)} object(s), "
             f"{total_bytes} byte(s), {len(records)} site(s)"]
    for r in records[:HEAP_PROFILE_SITES]:
        lines.append(f"  {r.bytes:>10d}B  x{r.objects:<6d} "
                     f"{r.kind:<16s} {r.site}")
    if len(records) > HEAP_PROFILE_SITES:
        lines.append(
            f"  ... {len(records) - HEAP_PROFILE_SITES} more site(s)")
    return "\n".join(lines)


# -- goroutine-profile sampling ---------------------------------------------


class GoroutineProfileSampler:
    """Periodic goroutine-population snapshots (the last 512 kept)."""

    def __init__(self):
        from repro.telemetry.recorder import RingBuffer

        self.samples = RingBuffer(512)

    def sample(self, rt) -> dict:
        """Snapshot the live population by state and wait reason."""
        from repro.runtime.pprof import goroutine_profile

        by_state: Dict[str, int] = {}
        total = 0
        for record in goroutine_profile(rt):
            state = record.status
            if record.wait_reason:
                state += f"/{record.wait_reason}"
            by_state[state] = by_state.get(state, 0) + record.count
            total += record.count
        snap = {
            "t_ns": rt.clock.now,
            "total": total,
            "by_state": dict(sorted(by_state.items())),
        }
        self.samples.append(snap)
        return snap

    def history(self) -> List[dict]:
        return list(self.samples)
