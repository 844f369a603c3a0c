"""BENCHMARK.json against the contract's limits and the runner's output."""

import json
import re

import pytest

from benchmarks.e2e import probes, run
from benchmarks.e2e.layers import ROOT, Tracing
from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Per-layer metrics produced outside ``Tracing.metrics``: by the worker
#: around the traced run, by the probes, and by the runner's pairing.
WORKER_AND_RUNNER = {
    "service.sim_requests", "chaos.faults_injected", "bench.cpu_s",
    "bench.preempt_s", "bench.trace_overhead_ratio", "bench.wall_s",
    "fleet.mp_wall_s", "telemetry.overhead_ratio",
}


@pytest.fixture(scope="module")
def probe_result():
    return probes.run_probes(min_seconds=0.05)


#: The smallest document a worker prints.
WORKER_DOC = {
    "reps": [{"wall_s": 1.0, "cpu_s": 1.0, "wall_norm_s": 1.1}],
    "setup_s": 0.2, "peak_rss_mb": 20.0, "ops_per_rep": 5, "attempted": 5,
    "failed": 0, "problems": [], "digests": ["d"], "sim_metrics": {},
    "paired": None,
}


def test_benchmark_json_shape_and_limits():
    doc = run.load_contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"][-1].startswith(doc["paths"][0] + "/")
    assert 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in doc["workloads"]]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # 4 + 22 x workloads runs must fit the driver's 3420 s.
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 8) < 3420
    assert len(json.dumps(doc)) < 64 * 1024


def test_declared_metrics_are_the_ones_the_runner_reports(probe_result):
    doc = run.load_contract()
    samples = run.Samples("svc-prod")
    samples.add(WORKER_DOC)
    assert [m["name"] for m in doc["end_to_end"]] == list(
        samples.end_to_end())
    rec = SpanRecorder()
    tracing = Tracing(rec)
    root = rec.begin(ROOT)
    rec.end(root)
    produced = (set(tracing.metrics(root)) | WORKER_AND_RUNNER
                | set(probes.layer_metrics(probe_result)))
    assert {m["name"] for m in doc["per_layer"]} == produced


def test_probes_are_deterministic_and_named(probe_result):
    result = probe_result
    metrics = probes.layer_metrics(result)
    assert all(v > 0 for v in metrics.values())
    det = result["detector"]
    # Both strategies condemn the same goroutines; only the iteration
    # structure differs.
    assert det["deadlocked_restart"] == det["deadlocked_on_the_fly"] == 80
    assert det["mark_iterations_on_the_fly"] == 1
    assert det["mark_iterations_restart"] > probes.CHAIN_LINKS
    assert det["goroutines"] == 142
