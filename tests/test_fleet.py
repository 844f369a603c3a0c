"""Tests for the sharded fleet: router, shards, aggregation, artifacts."""

import gc
import json
import weakref

import pytest

from repro.fleet import (
    FLEET_SCHEMA_VERSION,
    FleetConfig,
    Router,
    ShardResult,
    ShardRunner,
    ShardSpec,
    TrafficModel,
    run_fleet,
    run_shard,
    stable_hash64,
    validate_fleet_artifact,
)
from repro.fleet.aggregate import FleetResult
from repro.telemetry import validate_exposition


def _small_config(**overrides):
    defaults = dict(shards=2, seed=3, users=12, leak_rate=0.25,
                    min_requests=1, max_requests=3)
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash64(1, "x", 2) == stable_hash64(1, "x", 2)

    def test_sensitive_to_every_part(self):
        base = stable_hash64(1, "x", 2)
        assert stable_hash64(2, "x", 2) != base
        assert stable_hash64(1, "y", 2) != base
        assert stable_hash64(1, "x", 3) != base


class TestTrafficModel:
    def test_sessions_deterministic(self):
        a = TrafficModel(n_users=10, seed=5)
        b = TrafficModel(n_users=10, seed=5)
        for uid in range(10):
            for i in range(a.request_count(uid)):
                assert a.request(uid, i) == b.request(uid, i)

    def test_seed_changes_sessions(self):
        a = TrafficModel(n_users=10, seed=5)
        b = TrafficModel(n_users=10, seed=6)
        assert any(a.request(u, i) != b.request(u, i)
                   for u in range(10) for i in range(2))

    def test_request_counts_bounded(self):
        model = TrafficModel(n_users=50, min_requests=2, max_requests=6)
        for uid in range(50):
            assert 2 <= model.request_count(uid) <= 6

    def test_leak_rate_zero_and_one(self):
        never = TrafficModel(n_users=20, leak_rate=0.0)
        always = TrafficModel(n_users=20, leak_rate=1.0)
        assert not any(never.request(u, i)[1] for u in range(20)
                       for i in range(never.request_count(u)))
        assert all(always.request(u, i)[1] for u in range(20)
                   for i in range(always.request_count(u)))


class TestRouter:
    @pytest.mark.parametrize("policy", ["hash", "load"])
    def test_session_affinity_and_determinism(self, policy):
        model = TrafficModel(n_users=40, seed=1)
        a = Router(4, policy=policy, seed=1)
        b = Router(4, policy=policy, seed=1)
        for uid in range(40):
            first = a.shard_of(uid, model)
            assert first == a.shard_of(uid, model)  # affinity: memoized
            assert first == b.shard_of(uid, model)  # deterministic
            assert 0 <= first < 4

    def test_build_table_covers_every_user_once(self):
        model = TrafficModel(n_users=30, seed=2)
        table = Router(3, seed=2).build_table(model)
        routed = sorted(uid for users in table.values() for uid in users)
        assert routed == list(range(30))
        assert set(table) == {0, 1, 2}

    def test_load_policy_balances_requests(self):
        model = TrafficModel(n_users=64, seed=9)
        router = Router(4, policy="load", seed=9)
        router.build_table(model)
        loads = sorted(router.expected_load())
        # Greedy least-loaded placement keeps the spread within one
        # maximal session of the mean.
        assert loads[-1] - loads[0] <= model.max_requests

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            Router(2, policy="random")


class TestShard:
    def test_shard_seeds_differ(self):
        model = TrafficModel(n_users=4, seed=0)
        a = ShardSpec(0, 0, [0, 1], model)
        b = ShardSpec(1, 0, [2, 3], model)
        assert a.shard_seed != b.shard_seed

    def test_shard_run_serves_all_requests(self):
        model = TrafficModel(n_users=6, seed=4, leak_rate=0.5,
                             min_requests=1, max_requests=3)
        spec = ShardSpec(0, 4, list(range(6)), model)
        result = run_shard(spec)
        expected = sum(model.request_count(u) for u in range(6))
        assert result.requests_completed == expected
        assert result.service_end_ns > 0
        assert result.invariant_violations == []
        assert result.leaks_detected == result.leaks_reclaimed
        assert result.leaks_detected == len(result.reports)
        assert result.sustained_rps > 0

    def test_shard_run_is_reproducible(self):
        model = TrafficModel(n_users=5, seed=8, leak_rate=0.3)
        spec = ShardSpec(1, 8, list(range(5)), model)
        a, b = run_shard(spec), run_shard(spec)
        assert a.as_dict() == b.as_dict()
        assert a.report_texts == b.report_texts
        assert a.metrics == b.metrics


class TestFleetAggregation:
    def test_sequential_run_aggregates(self):
        fleet = run_fleet(_small_config(), "sequential")
        assert fleet.clean
        assert fleet.total_users == 12
        assert len(fleet.shards) == 2
        assert fleet.total_requests == sum(
            s.requests_completed for s in fleet.shards)
        assert fleet.total_leaks_detected == len(fleet.reports)
        assert fleet.makespan_ns == max(
            s.service_end_ns for s in fleet.shards)

    def test_reports_carry_shard_provenance(self):
        fleet = run_fleet(_small_config(), "sequential")
        assert fleet.reports  # 25% leak rate: some leaks must exist
        shard_ids = {s.shard_id for s in fleet.shards}
        assert all(r["shard"] in shard_ids for r in fleet.reports)

    def test_cross_shard_fingerprint_dedup(self):
        # One defect class served by both shards: the fleet store holds
        # one record whose count is the sum of the shard observations.
        fleet = run_fleet(_small_config(leak_rate=1.0, users=8), "sequential")
        assert all(s.leaks_detected > 0 for s in fleet.shards)
        assert fleet.cross_shard_conflicts >= 1
        assert fleet.fingerprints.total_observations() == \
            fleet.total_leaks_detected

    def test_artifact_byte_identical_across_runs(self):
        a = run_fleet(_small_config(), "sequential")
        b = run_fleet(_small_config(), "sequential")
        assert a.to_json() == b.to_json()
        assert a.report_log_text() == b.report_log_text()
        assert a.prom_text() == b.prom_text()

    def test_prom_text_validates_with_shard_label(self):
        fleet = run_fleet(_small_config(), "sequential")
        text = fleet.prom_text()
        assert validate_exposition(text) > 0
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            assert 'shard="' in line, line

    def test_report_log_labels_every_report(self):
        fleet = run_fleet(_small_config(leak_rate=1.0, users=6), "sequential")
        text = fleet.report_log_text()
        assert text.count("[shard ") == fleet.total_leaks_detected

    def test_sequential_fleet_holds_one_shard_runtime_at_a_time(
            self, monkeypatch):
        # Each shard runs start to finish, so a finished shard's runtime
        # is garbage before the next shard's is built.
        runtimes, alive = [], []
        build = ShardRunner.__init__

        def tracked_build(runner, spec):
            gc.collect()
            build(runner, spec)
            runtimes.append(weakref.ref(runner.rt))
            alive.append(sum(ref() is not None for ref in runtimes))

        monkeypatch.setattr(ShardRunner, "__init__", tracked_build)
        fleet = run_fleet(FleetConfig(shards=3, seed=2, users=15,
                                      leak_rate=0.4, min_requests=1,
                                      max_requests=2), "sequential")
        assert fleet.clean
        assert alive == [1, 1, 1]

    def test_dirty_shard_dirties_the_fleet(self):
        fleet = run_fleet(_small_config(), "sequential")
        broken = ShardResult(99)
        broken.invariant_violations = ["synthetic failure"]
        dirty = FleetResult("sequential", fleet.config,
                            {**fleet.routing, 99: []},
                            list(fleet.shards) + [broken])
        assert not dirty.clean
        assert any("synthetic failure" in p for p in dirty.problems)
        assert any("did not complete" in p for p in dirty.problems)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(shards=0)
        with pytest.raises(ValueError):
            FleetConfig(policy="nope")
        with pytest.raises(ValueError):
            FleetConfig(workload="nope")
        with pytest.raises(ValueError):
            run_fleet(_small_config(), "threads")


class TestArtifactSchema:
    def _doc(self):
        return run_fleet(_small_config(), "sequential").to_dict()

    def test_valid_artifact_passes(self):
        counts = validate_fleet_artifact(self._doc())
        assert counts["shards"] == 2
        assert counts["reports"] > 0
        assert counts["fingerprints"] >= 1

    def test_round_trips_through_json(self):
        doc = json.loads(json.dumps(self._doc()))
        assert doc["schema_version"] == FLEET_SCHEMA_VERSION
        validate_fleet_artifact(doc)

    def test_rejects_wrong_schema_version(self):
        doc = self._doc()
        doc["schema_version"] = FLEET_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            validate_fleet_artifact(doc)

    def test_rejects_missing_aggregate_key(self):
        doc = self._doc()
        del doc["aggregate"]["makespan_ns"]
        with pytest.raises(ValueError, match="makespan_ns"):
            validate_fleet_artifact(doc)

    def test_rejects_inconsistent_totals(self):
        doc = self._doc()
        doc["aggregate"]["requests_completed"] += 1
        with pytest.raises(ValueError, match="requests"):
            validate_fleet_artifact(doc)

    def test_rejects_foreign_shard_provenance(self):
        doc = self._doc()
        doc["aggregate"]["reports"][0]["shard"] = 42
        with pytest.raises(ValueError, match="provenance"):
            validate_fleet_artifact(doc)

    def test_rejects_routing_shard_mismatch(self):
        doc = self._doc()
        doc["routing"]["9"] = []
        with pytest.raises(ValueError, match="routing"):
            validate_fleet_artifact(doc)

