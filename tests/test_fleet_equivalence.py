"""Mode equivalence: sequential (oracle) vs multiprocessing fleets.

The acceptance surface of the fleet design: a shard's execution is a
pure function of its picklable spec, so running shards one after another in
one process or in parallel worker processes must produce identical
aggregated leak-report logs, fingerprint sets, metrics, and artifacts.
"""

import multiprocessing
import os

import pytest

from repro.fleet import FleetConfig, equivalence_diff, run_fleet
from repro.fleet import supervisor


def _run_both(config):
    return (run_fleet(config, "sequential"),
            run_fleet(config, "multiprocessing"))


class TestModeEquivalence:
    def test_identical_artifacts_and_logs(self):
        config = FleetConfig(shards=2, seed=11, users=16, leak_rate=0.3,
                             min_requests=1, max_requests=3)
        seq, mp = _run_both(config)
        assert seq.clean and mp.clean
        assert equivalence_diff(seq, mp) == []
        # Spell the headline comparisons out, not just via the oracle:
        assert seq.report_log_text() == mp.report_log_text()
        assert seq.fingerprints.fingerprints() == \
            mp.fingerprints.fingerprints()
        assert seq.prom_text() == mp.prom_text()
        da, db = seq.to_dict(), mp.to_dict()
        da.pop("mode"), db.pop("mode")
        assert da == db

    @pytest.mark.parametrize("policy", ["hash", "load"])
    def test_equivalent_under_both_routing_policies(self, policy):
        config = FleetConfig(shards=3, seed=2, users=15, leak_rate=0.4,
                             min_requests=1, max_requests=2, policy=policy)
        seq, mp = _run_both(config)
        assert equivalence_diff(seq, mp) == []

    def test_equivalent_with_detection_daemon(self):
        config = FleetConfig(shards=2, seed=5, users=10, leak_rate=0.5,
                             min_requests=1, max_requests=2,
                             daemon_interval_ms=10.0)
        seq, mp = _run_both(config)
        assert equivalence_diff(seq, mp) == []
        assert all(s.daemon_checks > 0 for s in seq.shards)

    def test_equivalent_on_production_workload(self):
        config = FleetConfig(shards=2, seed=13, users=10, leak_rate=0.5,
                             min_requests=1, max_requests=2,
                             workload="production")
        seq, mp = _run_both(config)
        assert seq.total_leaks_detected > 0
        assert equivalence_diff(seq, mp) == []

    def test_oracle_reports_divergence(self):
        # Different seeds must NOT be equivalent — the oracle is not
        # vacuously true.
        a = run_fleet(FleetConfig(shards=2, seed=1, users=10,
                                  leak_rate=0.5), "sequential")
        b = run_fleet(FleetConfig(shards=2, seed=2, users=10,
                                  leak_rate=0.5), "sequential")
        mismatches = equivalence_diff(a, b)
        # ...and it names the fields: per-shard results, merged log.
        assert "shards differs" in mismatches
        assert "report_log differs" in mismatches

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched run_shard reaches a worker only by fork")
    def test_a_dead_worker_dirties_only_its_shard(self, monkeypatch):
        config = FleetConfig(shards=3, seed=2, users=15, leak_rate=0.4,
                             min_requests=1, max_requests=2)
        seq = run_fleet(config, "sequential")
        run_shard = supervisor.run_shard

        def failing_run_shard(spec):
            if spec.shard_id == 0:
                raise RuntimeError("shard 0 broke")
            if spec.shard_id == 2:
                os._exit(3)  # dies without replying: the pipe hits EOF
            return run_shard(spec)

        monkeypatch.setattr(supervisor, "run_shard", failing_run_shard)
        mp = run_fleet(config, "multiprocessing")
        assert not mp.clean
        by_id = {shard.shard_id: shard for shard in mp.shards}
        assert by_id[0].invariant_violations == [
            "worker failed: RuntimeError: shard 0 broke"]
        assert by_id[2].invariant_violations == [
            "worker failed: worker exited without a result"]
        assert by_id[1].as_dict() == seq.shards[1].as_dict()
        assert by_id[1].report_texts == seq.shards[1].report_texts
        assert any("shard 0: did not complete" in p for p in mp.problems)
