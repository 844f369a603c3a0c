"""Tests for the experiment drivers and their formatters (fast configs)."""

import inspect
import types

import pytest

from repro.corpus.generator import CorpusConfig
from repro.corpus.runner import run_corpus
from repro.experiments import (
    Table1Result,
    format_figure1,
    format_figure3,
    format_figure4,
    format_rq1b,
    format_rq1c,
    format_table1,
    format_table2,
    format_table3,
    run_figure1,
    run_figure4,
    run_rq1c,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.ablations import CadenceAblation, RecoveryAblation
from repro.experiments.complexity import run_complexity_sweep
from repro.microbench.registry import benchmarks_by_name
from repro.service.checkpointed import CheckpointedConfig
from repro.service.controlled import ControlledConfig, ControlledResult
from repro.service.longrun import LongRunConfig
from repro.service.production import ProductionConfig


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1(runs=5)

    def test_small_run_matches_paper_shape(self, result):
        # Aggregate detection in the paper's ballpark (>= 90%).
        assert result.aggregated() >= 0.90
        # grpc/3017 is invisible on one core, reliable on four.
        assert result.counts["grpc/3017:71"][1] == 0
        assert result.counts["grpc/3017:71"][4] >= 4

    def test_subset_run_and_formatter(self, result):
        text = format_table1(result)
        assert "Aggregated" in text
        assert "grpc/3017:71" in text

    def test_per_site_rates_bounded(self, result):
        for site in benchmarks_by_name()["cockroach/6181"].sites:
            assert 0.0 <= result.site_rate(site) <= 1.0

    def test_a_detection_at_an_undeclared_site_is_counted_and_printed(self):
        result = Table1Result(runs=1, procs_list=(1,))
        result.record(("a:1",), 1, {"a:1", "b:2"})
        assert result.counts == {"a:1": {1: 1}}
        assert result.unexpected == 1
        assert format_table1(result).endswith(
            "Unexpected DL: 1 detection(s) at undeclared sites")

    def test_a_clean_run_prints_no_unexpected_line(self):
        result = Table1Result(runs=1, procs_list=(1,))
        result.record(("a:1",), 1, set())
        assert result.counts == {"a:1": {1: 0}}
        assert result.unexpected == 0
        assert "Unexpected" not in format_table1(result)


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        config = ControlledConfig(duration_s=4, warmup_s=1, connections=8,
                                  map_entries=10_000, seed=5)
        return run_table2(config=config)

    def test_heap_ratio_favors_golf_under_leaks(self, result):
        assert result.ratio(0.10, "heap_alloc_mb") > 5

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

    @pytest.fixture(scope="class")
    def corpus(self, corpus_config):
        return run_corpus(corpus_config)

    def test_rq1b_ratios(self, corpus, corpus_config):
        assert 0.30 <= corpus.dedup_ratio <= 0.70
        assert corpus.individual_ratio >= corpus.dedup_ratio - 0.10
        text = format_rq1b(corpus, corpus_config)
        assert "paper: 29513" in text

    def test_figure3_curve(self, corpus):
        assert corpus.ratio_curve()
        assert 0.5 <= corpus.area_under_curve() <= 1.0
        assert 0.0 <= corpus.fully_found_fraction() <= 1.0
        text = format_figure3(corpus)
        assert "area under curve" in text


class TestFigure4:
    def test_distributions(self):
        result = run_figure4(repeats=2)
        leaky = result.distribution(correct=False)
        correct = result.distribution(correct=True)
        # GOLF's marking is unburdened on leaky programs (median < 1).
        assert leaky["median"] <= 1.0
        assert 0.5 <= correct["median"] <= 1.5
        text = format_figure4(result)
        assert "deadlocking programs" in text


class TestAblations:
    def test_complexity_sweep_counts_the_rungc_cycles(self):
        # Section 5.3's closed forms on every row (the sweep itself
        # asserts zero reports): a live N-hop chain costs the restart
        # reference N(N+1)/2 checks over N+1 iterations and on-the-fly
        # N checks in one; a flat pool costs both N checks.
        points = run_complexity_sweep(sizes=(2, 8))
        expected = {
            ("pool", "restart"): lambda n: (n, 2),
            ("pool", "on-the-fly"): lambda n: (n, 1),
            ("chain", "restart"): lambda n: (n * (n + 1) // 2, n + 1),
            ("chain", "on-the-fly"): lambda n: (n, 1),
        }
        assert [(p.shape, p.n, p.strategy) for p in points] == [
            (shape, n, strategy) for shape in ("pool", "chain")
            for n in (2, 8) for strategy in ("restart", "on-the-fly")]
        for p in points:
            assert (p.checks, p.iterations) == \
                expected[p.shape, p.strategy](p.n), (p.shape, p.n)

    def test_cadence_preserves_detections(self):
        result = CadenceAblation().run()
        by_cadence = {row["detect_every"]: row for row in result.rows}
        every1, every5 = by_cadence[1], by_cadence[5]
        assert every1["detected"] == every5["detected"]
        assert every5["checks"] < every1["checks"]
        assert every5["pause_total_us"] <= every1["pause_total_us"]
        assert "pause total" in result.format()

    def test_recovery_reclaims_memory(self):
        result = RecoveryAblation().run()
        off, on = result.rows
        assert off["detected"] == on["detected"]
        assert on["heap_alloc_kb"] < off["heap_alloc_kb"] / 10
        assert on["goroutines"] == 0
        assert "reclaim" in result.format()


def _off_default(config):
    """``config``, asserted to hold no field at its default."""
    defaults = {p.name: p.default for p in
                inspect.signature(type(config)).parameters.values()}
    assert defaults.keys() == vars(config).keys()
    assert all(vars(config)[k] != v for k, v in defaults.items())
    return config


def _table2(monkeypatch, calls):
    import repro.experiments.table2 as table2

    def record(cfg, golf):
        calls.append(cfg)
        return ControlledResult(golf, cfg.leak_rate)

    monkeypatch.setattr(table2, "run_controlled", record)
    base = _off_default(ControlledConfig(
        procs=3, connections=5, duration_s=7, warmup_s=2, leak_rate=0.5,
        map_entries=900, downstream_ms=11, downstream_jitter_ms=3,
        handler_work_us=13, periodic_gc_ms=17, seed=19))
    return base, lambda: table2.run_table2(config=base), \
        [{"leak_rate": 0.0}] * 2 + [{"leak_rate": 0.10}] * 2


def _rq1c(monkeypatch, calls):
    import repro.experiments.rq1c as rq1c

    def record(cfg, golf):
        calls.append(cfg)
        return types.SimpleNamespace(deadlock_reports=0, total_requests=0,
                                     dedup_sites=())

    monkeypatch.setattr(rq1c, "run_production", record)
    base = _off_default(ProductionConfig(
        procs=3, hours=0.5, connections=5, downstream_ms=7,
        downstream_jitter_ms=2, think_time_ms=11, handler_work_ms=3,
        leak_every=13, metric_interval_min=1, periodic_gc_s=17, seed=19))
    return base, lambda: rq1c.run_rq1c(base), [{}]


def _recovery(monkeypatch, calls):
    import repro.chaos.recovery as recovery

    def record(cfg, telemetry, fault_plan):
        calls.append(cfg)

    monkeypatch.setattr(recovery, "run_checkpointed", record)
    base = _off_default(CheckpointedConfig(
        procs=3, seed=5, workers=7, jobs=11, poison_rate=0.5, work_us=13,
        daemon_interval_ms=2.5, redeliver_after_ms=17, deadline_ms=900))
    return base, lambda: recovery.run_recovery_campaign(
        seeds=2, base_seed=40, config=base), [{"seed": 40}, {"seed": 41}]


@pytest.mark.parametrize("experiment", [_table2, _rq1c, _recovery],
                         ids=["table2", "rq1c", "recovery"])
def test_a_derived_config_changes_only_its_override(monkeypatch,
                                                    experiment):
    # Every field of the base config reaches the service run unchanged
    # except the one the experiment overrides, and the base is left alone.
    calls = []
    base, run, overrides = experiment(monkeypatch, calls)
    before = dict(vars(base))
    run()
    assert [vars(cfg) for cfg in calls] == [
        {**before, **override} for override in overrides]
    assert vars(base) == before
