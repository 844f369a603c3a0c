"""Tests for the microbenchmark registry and harness."""

from collections import Counter

import pytest

from repro.core.config import GolfConfig
from repro.microbench.harness import run_microbenchmark
from repro.microbench.registry import (
    SOURCE_CGO,
    SOURCE_GOKER,
    all_benchmarks,
    benchmarks_by_name,
    correct_benchmarks,
    total_leaky_sites,
)


class TestCorpusShape:
    """The corpus must match the paper's counts (section 6.1)."""

    def test_73_benchmarks(self):
        assert len(all_benchmarks()) == 73

    def test_121_leaky_sites(self):
        assert total_leaky_sites() == 121

    def test_source_split_67_goker_6_cgo(self):
        counts = Counter(b.source for b in all_benchmarks())
        assert counts[SOURCE_GOKER] == 67
        assert counts[SOURCE_CGO] == 6

    def test_cgo_sites_total_8(self):
        cgo_sites = sum(
            len(b.sites) for b in all_benchmarks() if b.source == SOURCE_CGO
        )
        assert cgo_sites == 8

    def test_32_fixed_variants(self):
        assert len(correct_benchmarks()) == 32

    def test_13_flaky_benchmarks(self):
        assert sum(1 for b in all_benchmarks() if b.flaky) == 13

    def test_names_unique(self):
        names = [b.name for b in all_benchmarks()]
        assert len(set(names)) == len(names)

    def test_site_labels_unique_and_well_formed(self):
        labels = [s for b in all_benchmarks() for s in b.sites]
        assert len(set(labels)) == len(labels)
        assert all(":" in label for label in labels)

    def test_registry_is_cached(self):
        assert all_benchmarks() is all_benchmarks()

    def test_lookup_by_name(self):
        table = benchmarks_by_name()
        assert table["etcd/7443"].flaky
        assert len(table["etcd/7443"].sites) == 5


class TestHarness:
    def test_deterministic_benchmark_detected(self):
        bench = benchmarks_by_name()["cgo/sendmail"]
        result = run_microbenchmark(bench, procs=2, seed=1)
        assert result.detected == set(bench.sites)
        assert result.status == "main-exited"
        assert result.num_gc >= 3
        assert result.reclaimed >= 1

    def test_same_seed_reproduces(self):
        bench = benchmarks_by_name()["moby/27282"]
        a = run_microbenchmark(bench, procs=2, seed=42)
        b = run_microbenchmark(bench, procs=2, seed=42)
        assert a.detected == b.detected

    def test_baseline_config_detects_nothing(self):
        bench = benchmarks_by_name()["cgo/double-send"]
        result = run_microbenchmark(
            bench, procs=2, seed=1, config=GolfConfig.baseline())
        assert result.detected == set()

    def test_monitor_only_detects_without_reclaiming(self):
        bench = benchmarks_by_name()["cgo/double-send"]
        result = run_microbenchmark(
            bench, procs=2, seed=1, config=GolfConfig.monitor_only())
        assert result.detected == set(bench.sites)
        assert result.reclaimed == 0

    def test_missing_fixed_variant_rejected(self):
        flaky = benchmarks_by_name()["etcd/7443"]
        with pytest.raises(ValueError):
            run_microbenchmark(flaky, use_fixed=True)


class TestFlakinessProfiles:
    """Coarse checks of the core-count-sensitive profiles (Table 1).

    Small run counts keep this fast; the full experiment lives in
    benchmarks/bench_table1_microbenchmarks.py.
    """

    def _rate(self, name, procs, runs=12):
        bench = benchmarks_by_name()[name]
        hits = 0
        for i in range(runs):
            result = run_microbenchmark(bench, procs=procs,
                                        seed=1000 + i * 37 + procs)
            if set(bench.sites) <= result.detected:
                hits += 1
        return hits / runs

    def test_grpc3017_needs_parallelism(self):
        assert self._rate("grpc/3017", procs=1) == 0.0
        assert self._rate("grpc/3017", procs=2) >= 0.9

    def test_etcd7443_practically_invisible_below_ten_cores(self):
        assert self._rate("etcd/7443", procs=4) == 0.0

    def test_hugo3261_always_leaks_on_few_cores(self):
        assert self._rate("hugo/3261", procs=1) == 1.0

    def test_cockroach6181_leaks_almost_always(self):
        assert self._rate("cockroach/6181", procs=2, runs=8) >= 0.75

    def test_moby27282_dips_at_two_cores(self):
        high = self._rate("moby/27282", procs=4, runs=16)
        low = self._rate("moby/27282", procs=2, runs=16)
        assert low < high
