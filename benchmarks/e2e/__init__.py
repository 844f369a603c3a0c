"""End-to-end host-time benchmark with per-layer attribution.

One runner (:mod:`benchmarks.e2e.run`), seven named workloads
(:mod:`benchmarks.e2e.workloads`), each executed in a fresh worker
subprocess (:mod:`benchmarks.e2e.worker`).  End-to-end numbers come from
untraced runs; a separate traced run installs timing wrappers around the
layers' public entry points (:mod:`benchmarks.e2e.layers`) and records
spans (:mod:`benchmarks.e2e.spans`); four self-contained probes
(:mod:`benchmarks.e2e.probes`) split the one span too hot to wrap.

This is a deterministic simulator: *host* time is what the benchmark
measures, *simulated* (virtual-clock) statistics must repeat exactly for
a seed, and every metric name says which it is (``sim_`` = virtual).
See README.md in this directory for the glossary and the recipe.
"""
