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
    def test_gc_phase_campaign_runs_incremental_without_a_flag(
            self, tmp_path):
        """The gc-phase scenario weights incremental-only fault kinds, so
        its schedules pick the incremental collector themselves: faults
        of those kinds land and none is rejected as "atomic gc mode".
        Nothing process-wide changes."""
        from repro import codec
        from repro.chaos.plan import FaultKind
        from repro.cli import main
        from repro.core.config import GolfConfig

        assert main(["chaos", "--seeds", "2", "--scenario", "gc-phase",
                     "--traces", "--json-dir", str(tmp_path)]) == 0
        doc = codec.read(str(tmp_path / "chaos-gc-phase-s0-n2.json"))
        assert sum(doc["injected_by_kind"].get(kind, 0)
                   for kind in FaultKind.INCREMENTAL_ONLY) >= 1
        details = [r["detail"] for s in doc["schedules"] for r in s["trace"]]
        assert details and "atomic gc mode" not in details
        assert GolfConfig().gc_mode == "atomic"
