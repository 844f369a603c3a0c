"""The atomic-vs-incremental pair of the equivalence harness.

This is the correctness proof for the incremental collector: every
program of the ground-truth corpus, buggy and fixed variant alike, must
yield identical leak reports (same goroutines, same detection cycles,
byte-identical report logs), GC cycle counts, and STW pause totals
under both ``--gc-mode`` values.  The same pair runs in CI via
``python -m repro equiv gc_mode``.
"""

from repro.equivalence import (
    PAIRS,
    EquivalenceResult,
    Program,
    compare,
    corpus,
    run_leg,
)
from repro.microbench.registry import all_benchmarks, benchmarks_by_name
from tests.conftest import swept

PAIR = PAIRS["gc_mode"]


class TestEquivalenceOracle:
    def test_full_registry_equivalent(self):
        result = swept("gc_mode", 7)
        assert result.clean, "\n" + result.format()
        # Both variants of every benchmark must have been compared.
        expected = sum(2 if b.fixed is not None else 1
                       for b in all_benchmarks())
        assert result.runs == expected

    def test_registry_equivalent_under_other_seed(self):
        result = swept("gc_mode", 11)
        assert result.clean, "\n" + result.format()

    def test_fixed_variants_report_nothing_in_both_modes(self):
        fixed = [p for p in corpus() if p.fixed]
        assert fixed
        for program in fixed:
            for leg in (PAIR.leg_a, PAIR.leg_b):
                _, fp = run_leg(leg, program, procs=2, seed=7)
                assert fp["reports"] == [] and \
                    fp["detection_cycles"] == [], (
                        f"{program.name} reported a leak under {leg.label}")

    def test_single_benchmark_comparison(self):
        program = Program(benchmarks_by_name()["cgo/timeout-leak"], False)
        assert compare(PAIR, program, procs=2, seed=7) == []
        _, fp = run_leg(PAIR.leg_a, program, procs=2, seed=7)
        assert fp["reports"] and fp["detection_cycles"]  # it leaks
        assert fp["num_gc"] >= 1
        assert fp["pause_total_ns"] > 0 and fp["max_pause_ns"] > 0

    def test_result_serialization(self):
        result = EquivalenceResult(PAIR, procs=2, seed=7)
        compare(PAIR, corpus()[0], 2, 7, into=result)
        d = result.to_dict()
        assert d["clean"] is True
        assert d["procs"] == 2 and d["seed"] == 7 and d["runs"] == 1
        assert "EQUIVALENT" in result.format()


class TestGcEquivCli:
    def test_gc_mode_flag_sets_process_default(self, tmp_path):
        from repro.cli import main
        from repro.core.config import (
            GolfConfig,
            get_default_gc_mode,
            set_default_gc_mode,
        )

        assert get_default_gc_mode() == "atomic"
        try:
            rc = main(["chaos", "--gc-mode", "incremental", "--seeds", "2",
                       "--scenario", "gc-phase", "--json-dir",
                       str(tmp_path)])
            assert rc == 0
            assert GolfConfig().incremental
        finally:
            set_default_gc_mode("atomic")
