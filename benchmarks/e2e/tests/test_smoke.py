"""A 1/50-scale end-to-end smoke of all seven workloads."""

import json

import pytest

from benchmarks.e2e import run, stats, worker
from benchmarks.e2e.layers import ROOT, Tracing
from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.workloads import WARMUP_SCALE, WORKLOADS

SEED = 7


def _outcome(name, seed=SEED):
    workload = WORKLOADS[name]
    inputs = workload.prepare(seed, WARMUP_SCALE)
    return workload.judge(inputs, workload.run(inputs))


@pytest.fixture(scope="module")
def outcomes():
    return {name: _outcome(name) for name in WORKLOADS}


def test_there_are_seven_workloads():
    assert list(WORKLOADS) == [
        "registry-sweep", "svc-leak-atomic", "svc-leak-incremental",
        "svc-prod", "svc-prod-observed", "fleet-4shard", "recovery-campaign"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_outputs_are_correct_and_repeat(name, outcomes):
    first = outcomes[name]
    assert first.problems == [] and first.failed == 0
    assert first.attempted >= 1
    assert first.sim_metrics and all(
        k.startswith("sim_") for k in first.sim_metrics)
    # Simulated statistics repeat exactly for a seed ...
    assert stats.digest(_outcome(name).sim) == stats.digest(first.sim)


def test_another_seed_gives_other_inputs(outcomes):
    assert (stats.digest(_outcome("svc-prod", seed=SEED + 1).sim)
            != stats.digest(outcomes["svc-prod"].sim))


def test_cross_workload_checks(outcomes):
    for name, workload in WORKLOADS.items():
        if workload.reference is None:
            continue
        assert run.check_paired(
            name, outcomes[name].paired,
            outcomes[workload.reference].paired) == []
    # Observers on: same simulated result, plus evidence they ran.
    assert outcomes["svc-prod-observed"].sim["observers"]["scrapes"] > 0


def test_paired_check_catches_a_non_passive_observer(outcomes):
    bare = outcomes["svc-prod"].paired
    perturbed = dict(bare, total_requests=bare["total_requests"] + 1)
    assert run.check_paired("svc-prod-observed", perturbed, bare)
    atomic = outcomes["svc-leak-atomic"].paired
    far = dict(atomic, completed=atomic["completed"] * 2)
    assert run.check_paired("svc-leak-incremental", far, atomic)
    # A repetition that raised has no statistics: a violation, not a crash.
    assert run.check_paired("svc-leak-incremental", {}, atomic)
    assert run.check_paired("svc-leak-incremental", {"completed": 1}, atomic)


def test_judges_count_failures():
    workload = WORKLOADS["svc-leak-atomic"]
    cfg = workload.prepare(SEED, WARMUP_SCALE)
    result = workload.run(cfg)
    result.completed = 1  # a service that answered one request
    outcome = workload.judge(cfg, result)
    assert outcome.failed == outcome.attempted - 1 > 0
    assert "closed-loop floor" in outcome.problems[0]

    sweep = WORKLOADS["registry-sweep"]
    plan = sweep.prepare(SEED, WARMUP_SCALE)
    results = sweep.run(plan)
    results[0].detected = {"not/a-leaky-site:1"}
    outcome = sweep.judge(plan, results)
    assert outcome.failed == 1 and "non-leaky" in outcome.problems[0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_match_the_program(name, outcomes):
    workload = WORKLOADS[name]
    inputs = workload.prepare(SEED, WARMUP_SCALE)
    rec = SpanRecorder()
    tracing = Tracing(rec).install()
    try:
        root = rec.begin(ROOT)
        result = workload.run(inputs)
        rec.end(root)
    finally:
        tracing.uninstall()
    tracing.verify(())
    metrics = tracing.metrics(root)
    assert abs(metrics["bench.span_coverage"] - 1.0) <= 0.05
    assert metrics["runtime.scheduler.vinstr"] > 0
    # Tracing is passive: same simulated statistics as the untraced run.
    assert (stats.digest(workload.judge(inputs, result).sim)
            == stats.digest(outcomes[name].sim))


def test_worker_document(capsys, tmp_path):
    out = tmp_path / "trace.json"
    assert worker.main([
        "--workload", "fleet-4shard", "--seed", str(SEED),
        "--scale", repr(WARMUP_SCALE), "--trace", "1",
        "--trace-out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["failed"] == 0 and doc["problems"] == []
    assert len(set(doc["digests"])) == 1
    assert doc["reps"][0]["wall_norm_s"] > 0 and doc["setup_s"] > 0
    layers = doc["traced"]["layers"]
    assert layers["fleet.mp_wall_s"] > 0
    assert layers["daemon.checks"] == doc["traced"]["exact"]["daemon_checks"]
    spans = json.loads(out.read_text())
    assert spans["meta"]["workload"] == "fleet-4shard"
    assert spans["spans"][0][0] == ROOT
