"""Tests for the experiment drivers and their formatters (fast configs)."""

import pytest

from repro.core.config import GolfConfig, set_default_gc_mode
from repro.corpus.generator import CorpusConfig
from repro.experiments import (
    format_figure1,
    format_figure3,
    format_figure4,
    format_rq1b,
    format_rq1c,
    format_table1,
    format_table2,
    format_table3,
    run_figure1,
    run_figure3,
    run_figure4,
    run_rq1b,
    run_rq1c,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.ablations import (
    CadenceAblation,
    FixpointAblation,
    RecoveryAblation,
)
from repro.experiments.complexity import (
    format_complexity_sweep,
    run_complexity_sweep,
)
from repro.microbench.registry import all_benchmarks, benchmarks_by_name
from repro.service.controlled import ControlledConfig
from repro.service.longrun import LongRunConfig
from repro.service.production import ProductionConfig


class TestTable1:
    def test_small_run_matches_paper_shape(self):
        result = run_table1(runs=5, procs_list=(1, 4))
        # Aggregate detection in the paper's ballpark (>= 90%).
        assert result.aggregated() >= 0.90
        # grpc/3017 is invisible on one core, reliable on four.
        assert result.counts["grpc/3017:71"][1] == 0
        assert result.counts["grpc/3017:71"][4] >= 4

    def test_subset_run_and_formatter(self):
        benches = [benchmarks_by_name()["cgo/sendmail"],
                   benchmarks_by_name()["grpc/3017"]]
        result = run_table1(runs=3, procs_list=(1, 2), benchmarks=benches)
        text = format_table1(result)
        assert "Aggregated" in text
        assert "grpc/3017:71" in text

    def test_per_site_rates_bounded(self):
        benches = [benchmarks_by_name()["cockroach/6181"]]
        result = run_table1(runs=4, procs_list=(2,), benchmarks=benches)
        for site in benches[0].sites:
            assert 0.0 <= result.site_rate(site) <= 1.0


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        config = ControlledConfig(duration_s=4, warmup_s=1, connections=8,
                                  map_entries=10_000, seed=5)
        return run_table2(leak_rates=(0.0, 0.25), config=config)

    def test_heap_ratio_favors_golf_under_leaks(self, result):
        assert result.ratio(0.25, "heap_alloc_mb") > 5

    def test_comparable_without_leaks(self, result):
        assert 0.8 <= result.ratio(0.0, "throughput_rps") <= 1.2
        assert 0.8 <= result.ratio(0.0, "p50_ms") <= 1.2

    def test_golf_pause_per_cycle_higher(self, result):
        # Paper: B/G pause-per-cycle ~0.38 (GOLF pauses longer).
        assert result.ratio(0.0, "pause_per_cycle_ns") < 1.0

    def test_formatter_contains_metric_rows(self, result):
        text = format_table2(result)
        assert "Throughput" in text and "P99 latency" in text
        assert "GC pause time" in text


class TestTable3AndRQ1c:
    @pytest.fixture(scope="class")
    def config(self):
        return ProductionConfig(hours=0.5, leak_every=150, seed=3)

    def test_table3_overhead_negligible(self, config):
        result = run_table3(config)
        rows = result.rows()
        base_p50 = rows["baseline"]["p50_latency_ms"][0]
        golf_p50 = rows["golf"]["p50_latency_ms"][0]
        assert abs(base_p50 - golf_p50) / base_p50 < 0.10
        text = format_table3(result)
        assert "P99" in text and "golf" in text

    def test_rq1c_finds_three_sources(self, config):
        result = run_rq1c(config)
        assert result.distinct_sources == 3
        assert result.individual_reports > 0
        text = format_rq1c(result)
        assert "paper: 252" in text and "paper: 3" in text


class TestFigure1:
    def test_series_and_formatter(self):
        config = LongRunConfig(days=7, requests_per_hour=40, leak_every=4,
                               procs=2, seed=6)
        result = run_figure1(config, include_golf=True)
        assert len(result.series()) == 7 * 24
        assert result.golf.peak() < result.baseline.peak()
        text = format_figure1(result)
        assert "week 1" in text and "peak=" in text


class TestRQ1bAndFigure3:
    @pytest.fixture(scope="class")
    def corpus_config(self):
        return CorpusConfig(n_packages=60, n_sites=24, seed=4)

    def test_rq1b_ratios(self, corpus_config):
        result = run_rq1b(corpus_config)
        assert 0.30 <= result.dedup_ratio <= 0.70
        assert result.individual_ratio >= result.dedup_ratio - 0.10
        text = format_rq1b(result)
        assert "paper: 29513" in text

    def test_figure3_curve(self, corpus_config):
        result = run_figure3(corpus_config)
        assert result.curve
        assert 0.5 <= result.auc <= 1.0
        assert 0.0 <= result.fully_found <= 1.0
        text = format_figure3(result)
        assert "area under curve" in text


class TestFigure4:
    def test_distributions(self):
        subset = all_benchmarks()[:8]
        from repro.microbench.registry import correct_benchmarks
        result = run_figure4(repeats=2, benchmarks=subset,
                             fixed=correct_benchmarks(6))
        leaky = result.distribution(correct=False)
        correct = result.distribution(correct=True)
        # GOLF's marking is unburdened on leaky programs (median < 1).
        assert leaky["median"] <= 1.0
        assert 0.5 <= correct["median"] <= 1.5
        text = format_figure4(result)
        assert "deadlocking programs" in text


class TestAblations:
    def test_fixpoint_restart_iterations_grow_with_chain(self):
        result = FixpointAblation().run(chain_lengths=(2, 8))
        short, long = result.rows
        assert long["restart_iterations"] > short["restart_iterations"]
        assert long["otf_iterations"] == 1
        assert short["restart_deadlocks"] == short["otf_deadlocks"] == 0
        assert "restart iters" in result.format()

    @pytest.mark.parametrize("table", [
        lambda: FixpointAblation().run(chain_lengths=(2, 8)).format(),
        lambda: format_complexity_sweep(run_complexity_sweep(sizes=(8,))),
    ], ids=["fixpoint-ablation", "complexity-sweep"])
    def test_strategy_table_ignores_the_default_gc_mode(self, table):
        """On-the-fly expansion exists only in the atomic collector: the
        tables comparing it with restart pin ``gc_mode`` on both legs,
        so ``--gc-mode incremental`` cannot turn them into the restart
        fixpoint twice (or, via the cycle-reason filter, into zeros)."""
        atomic = table()
        set_default_gc_mode("incremental")
        try:
            assert table() == atomic
        finally:
            set_default_gc_mode("atomic")

    def test_complexity_sweep_counts_the_rungc_cycles(self):
        points = run_complexity_sweep(sizes=(8,))
        assert [(p.shape, p.strategy, p.checks) for p in points] == [
            ("pool", "restart", 8), ("pool", "on-the-fly", 8),
            ("chain", "restart", 36), ("chain", "on-the-fly", 8)]

    def test_on_the_fly_is_rejected_under_incremental(self):
        with pytest.raises(ValueError, match="on_the_fly_roots"):
            GolfConfig(on_the_fly_roots=True, gc_mode="incremental")
        set_default_gc_mode("incremental")
        try:
            with pytest.raises(ValueError, match="on_the_fly_roots"):
                GolfConfig(on_the_fly_roots=True)  # via the default
        finally:
            set_default_gc_mode("atomic")
        assert GolfConfig(on_the_fly_roots=True).on_the_fly_roots

    def test_cadence_preserves_detections(self):
        result = CadenceAblation().run(cadences=(1, 5), pool=30,
                                       leaks=6, cycles=20)
        every1, every5 = result.rows
        assert every1["detected"] == every5["detected"]
        assert every5["checks"] < every1["checks"]
        assert every5["pause_total_us"] <= every1["pause_total_us"]
        assert "pause total" in result.format()

    def test_recovery_reclaims_memory(self):
        result = RecoveryAblation().run(bursts=8, per_burst=4)
        off, on = result.rows
        assert off["detected"] == on["detected"]
        assert on["heap_alloc_kb"] < off["heap_alloc_kb"] / 10
        assert on["goroutines"] == 0
        assert "reclaim" in result.format()
