"""Tests for leak fingerprints, the fingerprint store, and heap profiles."""

import json

from repro.core.reports import DeadlockReport
from repro.telemetry import (
    FingerprintStore,
    format_heap_profile,
    heap_profile,
    leak_fingerprint,
)


def _report(goid=7, go_site="mail.py:42", block_site="mail.py:99",
            wait_reason="chan send", label="",
            stack=("sender (mail.py:99)",),
            gc_cycle=1, detected_at_ns=1000):
    return DeadlockReport(goid, f"g{goid}", label, go_site, block_site,
                          wait_reason, list(stack), gc_cycle,
                          detected_at_ns)


class TestFingerprint:
    def test_stable_across_goroutine_identity(self):
        # Same defect, different goroutine / cycle / time: one fingerprint.
        a = _report(goid=7, gc_cycle=1, detected_at_ns=1000)
        b = _report(goid=91, gc_cycle=44, detected_at_ns=999_999)
        assert leak_fingerprint(a) == leak_fingerprint(b)
        assert len(leak_fingerprint(a)) == 16

    def test_distinguishes_defects(self):
        other_site = _report(block_site="mail.py:120")
        other_reason = _report(wait_reason="chan receive")
        assert leak_fingerprint(other_site) != leak_fingerprint(_report())
        assert leak_fingerprint(other_reason) != leak_fingerprint(_report())


class TestFingerprintStore:
    def test_dedups_within_a_run(self):
        store = FingerprintStore()
        store.begin_run("run-a")
        _, new1 = store.observe(_report(goid=1))
        record, new2 = store.observe(_report(goid=2))
        assert new1 and not new2
        assert len(store) == 1
        assert record.count == 2
        assert record.runs == ["run-a"]

    def test_dedups_across_runs(self):
        store = FingerprintStore()
        store.begin_run("nightly-1")
        store.observe(_report())
        store.begin_run("nightly-2")
        record, is_new = store.observe(_report())
        assert not is_new
        assert record.runs == ["nightly-1", "nightly-2"]
        assert store.new_in_current_run == []

    def test_labels_aggregated(self):
        store = FingerprintStore()
        store.observe(_report(label="cgo/sendmail"))
        record, _ = store.observe(_report(label="cgo/sendmail"))
        assert record.labels == ["cgo/sendmail"]

    def test_records_sorted_by_count(self):
        store = FingerprintStore()
        for _ in range(3):
            store.observe(_report())
        store.observe(_report(wait_reason="select"))
        counts = [r.count for r in store.records()]
        assert counts == [3, 1]

    def test_save_load_merges(self, tmp_path):
        path = str(tmp_path / "fp.json")
        first = FingerprintStore()
        first.begin_run("run-1")
        first.observe(_report())
        first.save(path)

        second = FingerprintStore()
        assert second.load(path) == 1
        second.begin_run("run-2")
        record, is_new = second.observe(_report())
        assert not is_new  # the defect was already known from run-1
        assert record.count == 2
        assert record.runs == ["run-1", "run-2"]

    def test_save_is_json_and_deterministic(self, tmp_path):
        store = FingerprintStore()
        store.begin_run("r")
        store.observe(_report())
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        store.save(p1)
        store.save(p2)
        with open(p1) as f1, open(p2) as f2:
            assert f1.read() == f2.read()
        with open(p1) as fh:
            data = json.load(fh)
        assert data["records"][0]["go_site"] == "mail.py:42"

    def test_format_triage_table(self):
        store = FingerprintStore()
        store.observe(_report(label="cgo/sendmail"))
        text = store.format()
        assert "1 leak fingerprint(s), 1 observation(s)" in text
        assert "mail.py:42" in text
        assert "cgo/sendmail" in text


class TestHeapProfile:
    def test_groups_by_allocation_site(self, rt):
        from repro.runtime.instructions import Go, MakeChan, Recv, Sleep
        from tests.conftest import run_to_end

        def main():
            ch = yield MakeChan(0)

            def waiter(c):
                yield Recv(c)

            for _ in range(3):
                yield Go(waiter, ch, name="waiter")
            yield Sleep(1_000_000)

        run_to_end(rt, main)
        records = heap_profile(rt.heap)
        assert records
        total_objects = sum(r.objects for r in records)
        assert total_objects == rt.heap.live_objects
        # Biggest-retainer-first ordering.
        sizes = [r.bytes for r in records]
        assert sizes == sorted(sizes, reverse=True)
        text = format_heap_profile(records)
        assert text.startswith("heap profile:")
        assert "chan" in text


class TestFingerprintStoreMerge:
    def _store(self, run, *reports):
        store = FingerprintStore()
        store.begin_run(run)
        for report in reports:
            store.observe(report)
        return store

    def test_merge_into_empty_adopts_everything(self):
        src = self._store("run-a", _report(), _report(goid=9),
                          _report(wait_reason="select"))
        dst = FingerprintStore()
        stats = dst.merge(src)
        assert stats.added == 2
        assert stats.conflicts == 0
        assert stats.observations == 3
        assert stats.total == 2
        assert dst.fingerprints() == src.fingerprints()

    def test_merge_counts_conflicts_and_sums_observations(self):
        dst = self._store("shard-0", _report(), _report())
        src = self._store("shard-1", _report(),
                          _report(wait_reason="select"))
        stats = dst.merge(src)
        assert stats.added == 1       # the select-leak is new
        assert stats.conflicts == 1   # the chan-send leak collided
        assert stats.observations == 2
        shared = [r for r in dst.records() if r.count == 3][0]
        assert shared.runs == ["shard-0", "shard-1"]

    def test_merge_unions_labels_and_copies_records(self):
        dst = self._store("a", _report(label="svc/mail"))
        src = self._store("b", _report(label="svc/web"))
        dst.merge(src)
        (record,) = dst.records()
        assert record.labels == ["svc/mail", "svc/web"]
        # The source store must be untouched by the merge.
        (src_record,) = src.records()
        assert src_record.count == 1
        assert src_record.labels == ["svc/web"]
        src_record.count += 100
        assert dst.records()[0].count != 102

    def test_merge_is_associative_on_counts(self):
        a = self._store("a", _report(), _report())
        b = self._store("b", _report())
        c = self._store("c", _report(wait_reason="select"))
        left = FingerprintStore()
        left.merge(a)
        left.merge(b)
        left.merge(c)
        right = FingerprintStore()
        bc = FingerprintStore()
        bc.merge(b)
        bc.merge(c)
        right.merge(a)
        right.merge(bc)
        assert left.as_dict()["records"] == right.as_dict()["records"]

    def test_from_dict_round_trips(self):
        store = self._store("r", _report(), _report(goid=3))
        clone = FingerprintStore.from_dict(store.as_dict())
        assert clone.as_dict() == store.as_dict()
