"""The ``repro trace`` driver: run one microbenchmark fully traced.

Builds the runtime through the microbenchmark harness (so the workload,
procs, and seed match every other experiment exactly), enables the
execution tracer before the main goroutine spawns, and writes three
artifacts per run:

``trace-<slug>-p<procs>-s<seed>.trace.json``
    Chrome trace-event JSON, loadable in Perfetto / chrome://tracing.
``trace-<slug>-p<procs>-s<seed>-provenance.json``
    Machine-readable why-leaked records, one per condemned goroutine.
``trace-<slug>-p<procs>-s<seed>-provenance.txt``
    The human rendering of the same records.

Everything here is deterministic: two runs at the same (benchmark,
procs, seed) produce byte-identical artifacts, which CI enforces.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro import codec
from repro.trace.chrome import export_chrome_trace
from repro.trace.tracer import ExecutionTracer


class TraceRunResult:
    """Everything ``python -m repro trace`` produced."""

    def __init__(self, benchmark: str, procs: int, seed: int):
        self.benchmark = benchmark
        self.procs = procs
        self.seed = seed
        self.tracer: Optional[ExecutionTracer] = None
        self.chrome: Optional[dict] = None
        self.reports: List = []
        self.expected_leaks = 0
        self.artifact_paths: Dict[str, str] = {}
        self._rt = None

    @property
    def provenance_records(self) -> List:
        return [r.provenance for r in self.reports
                if r.provenance is not None]

    def provenance_dict(self) -> dict:
        """The machine-readable why-leaked artifact."""
        return {
            "benchmark": self.benchmark,
            "procs": self.procs,
            "seed": self.seed,
            "leaks": [p.as_dict() for p in self.provenance_records],
        }

    def provenance_text(self) -> str:
        header = (f"leak provenance: {self.benchmark} "
                  f"(procs={self.procs}, seed={self.seed})\n"
                  f"{len(self.provenance_records)} leaked goroutine(s)\n")
        blocks = [p.format() for p in self.provenance_records]
        return "\n\n".join([header.rstrip()] + blocks) + "\n"

    def format(self) -> str:
        tracer = self.tracer
        lines = [
            f"execution trace: {self.benchmark} "
            f"(procs={self.procs}, seed={self.seed})",
            f"  events          : {len(tracer)} recorded, "
            f"{tracer.dropped} dropped",
            f"  leak reports    : {len(self.reports)}  "
            f"(expected {self.expected_leaks})",
            f"  why-leaked      : {len(self.provenance_records)} "
            f"record(s), all with evidence chains",
        ]
        if self.artifact_paths:
            lines.append("artifacts:")
            for kind in sorted(self.artifact_paths):
                lines.append(f"  {kind:<15s}: {self.artifact_paths[kind]}")
        return "\n".join(lines)


def run_traced_benchmark(benchmark: str, procs: int = 2, seed: int = 0,
                         capacity: int = 200_000) -> TraceRunResult:
    """Run one registry microbenchmark with the execution tracer on.

    The tracer is enabled via ``rt_hook`` — before the main goroutine is
    spawned — so the trace covers the complete run, including goroutine
    #1's creation.
    """
    from repro.microbench.harness import run_microbenchmark
    from repro.microbench.registry import benchmarks_by_name

    benches = benchmarks_by_name()
    if benchmark not in benches:
        raise KeyError(
            f"unknown benchmark {benchmark!r}; see "
            f"repro.microbench.registry.all_benchmarks()")
    bench = benches[benchmark]

    result = TraceRunResult(benchmark, procs, seed)
    result.expected_leaks = len(bench.sites)

    def hook(rt) -> None:
        result.tracer = rt.enable_tracing(capacity=capacity)
        result._rt = rt

    run_microbenchmark(bench, procs=procs, seed=seed, rt_hook=hook)
    rt = result._rt
    rt.gc_until_quiescent()
    result.reports = list(rt.reports.reports)
    result.chrome = export_chrome_trace(
        result.tracer, procs=procs, benchmark=benchmark, seed=seed)
    rt.shutdown()
    return result


def write_trace_artifacts(result: TraceRunResult,
                          out_dir: str) -> Dict[str, str]:
    """Write the three trace artifacts; returns {kind: path}.

    Serialization is the codec's canonical form, so byte-identity
    across same-seed runs is a meaningful check.
    """
    slug = result.benchmark.replace("/", "-")
    stem = os.path.join(
        out_dir, f"trace-{slug}-p{result.procs}-s{result.seed}")
    result.artifact_paths = {
        "chrome": codec.write_text(
            f"{stem}.trace.json", codec.dumps(result.chrome, compact=True)),
        "provenance": codec.write(f"{stem}-provenance.json",
                                  result.provenance_dict()),
        "provenance-txt": codec.write_text(f"{stem}-provenance.txt",
                                           result.provenance_text()),
    }
    return result.artifact_paths
