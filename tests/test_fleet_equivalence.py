"""Mode equivalence: sequential (oracle) vs multiprocessing fleets.

The acceptance surface of the fleet design: a shard's execution is a
pure function of its picklable spec, so running shards interleaved in
one process or in parallel worker processes must produce identical
aggregated leak-report logs, fingerprint sets, metrics, and artifacts.
"""

import pytest

from repro.fleet import FleetConfig, equivalence_diff, run_fleet


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
