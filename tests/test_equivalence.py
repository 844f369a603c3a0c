"""The differential-equivalence harness (docs/EQUIVALENCE.md).

Every pair of the table, swept over the whole 125-program corpus at two
seeds — atomic ≡ incremental GC, table ≡ legacy dispatch, every
observer on ≡ off, proofs on ≡ off, restart ≡ on-the-fly root expansion,
sequential ≡ multiprocessing fleet — plus the harness's own failure
path: a deliberately broken second leg must be named by program,
variant and field.
"""

from __future__ import annotations

import json

import pytest

from repro.equivalence import (
    PAIR_NAMES,
    PAIRS,
    EquivalenceResult,
    Program,
    compare,
    corpus,
    diff_fields,
    run_leg,
)
from repro.microbench.registry import benchmarks_by_name
from tests.conftest import swept

VERDICT_FIELDS = ("status", "detected", "reports")


class TestEveryPair:
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("name", PAIR_NAMES)
    def test_pair_is_equivalent_over_its_corpus(self, name, seed):
        result = swept(name, seed)
        assert result.clean, "\n" + result.format()
        assert "EQUIVALENT" in result.format()

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_registry_pairs_cover_the_whole_corpus(self, name):
        extra = 2 if name == "proofs" else 0   # the two demo services
        assert swept(name).runs == 125 + extra

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_no_pair_excludes_a_verdict_field(self, name):
        pair = PAIRS[name]
        _, fields = run_leg(pair.leg_a, corpus()[0], procs=2, seed=7)
        assert set(pair.excluded) <= set(fields) - set(VERDICT_FIELDS)
        assert bool(pair.excluded) == bool(pair.why_excluded)

    def test_corpus_is_every_body_and_every_fixed_variant(self):
        programs = corpus()
        assert len(programs) == 125
        assert sum(1 for p in programs if not p.fixed) == 73
        assert len({p.name for p in programs}) == 125

    def test_observer_legs_actually_observed(self):
        # Non-vacuity: each daemon-class goroutine ticked, the hub and
        # the tracer recorded, the incremental collector stepped.
        assert swept("daemon").witness["daemon_checks"] >= 125
        assert swept("scraper").witness["scrapes"] >= 125
        assert swept("telemetry").witness["recorded_events"] > 0
        assert swept("tracer").witness["trace_events"] > 0
        assert swept("gc_mode").witness["mark_steps"] >= 125
        assert swept("proofs").witness["proven_sites"] >= 20


def _extra_gc(rt, _program):
    rt.gc()                       # one cycle the first leg never ran


def _drop_first_report(rt, _program):
    log, add = rt.reports, rt.reports.add

    def add_then_drop(*args):
        report = add(*args)
        if len(log.reports) == 1:
            log.reports.clear()
        return report

    log.add = add_then_drop


def _sabotaged(pair, sabotage):
    """``pair`` with its second leg additionally running ``sabotage``."""
    original = pair.leg_b.hook

    def hook(rt, program):
        if original is not None:
            original(rt, program)
        sabotage(rt, program)

    return pair._replace(leg_b=pair.leg_b._replace(hook=hook))


def _compare_two(pair):
    """One leaky and one fixed program under ``pair``."""
    bench = benchmarks_by_name()["cgo/timeout-leak"]
    result = EquivalenceResult(pair, procs=2, seed=7)
    for program in (Program(bench, False), Program(bench, True)):
        compare(pair, program, 2, 7, into=result)
    return result


class TestBrokenSecondLeg:
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_broken_leg_is_named(self, name):
        """An extra GC cycle in leg B: both variants must be reported,
        by program, variant and field, with both legs' values."""
        pair = PAIRS[name]
        result = _compare_two(_sabotaged(pair, _extra_gc))
        assert not result.clean
        assert [m.program for m in result.mismatches] == [
            "cgo/timeout-leak [buggy]", "cgo/timeout-leak [fixed]"]
        for mismatch in result.mismatches:
            assert "num_gc" in [field for field, _, _ in mismatch.diffs]
        text = result.format()
        assert "cgo/timeout-leak [fixed]:" in text
        assert f"num_gc: {pair.leg_a.label}=3 {pair.leg_b.label}=4" in text
        assert "DIVERGED" in text
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["clean"] is False and doc["pair"] == name
        assert doc["mismatches"][0]["program"] == "cgo/timeout-leak [buggy]"
        assert {"field": "num_gc", "a": "3", "b": "4"} in \
            doc["mismatches"][0]["diffs"]

    def test_dropped_report_diverges_in_the_verdict(self):
        result = _compare_two(_sabotaged(PAIRS["tracer"], _drop_first_report))
        # Only the leaky variant reports anything to drop.
        assert [m.program for m in result.mismatches] == [
            "cgo/timeout-leak [buggy]"]
        fields = [field for field, _, _ in result.mismatches[0].diffs]
        assert "reports" in fields and "report_count" in fields

    def test_vacuous_leg_is_not_clean(self):
        # A daemon that never ticks proves nothing about the daemon.
        pair = PAIRS["daemon"]
        lazy = pair._replace(leg_b=pair.leg_b._replace(
            hook=lambda rt, _p: rt.detect_partial_deadlock(interval_ms=50)))
        result = EquivalenceResult(lazy, 2, 7)
        compare(lazy, corpus()[0], 2, 7, into=result)
        assert not result.mismatches
        assert result.vacuous == ["daemon_checks"]
        assert not result.clean and "VACUOUS" in result.format()


class TestDiffFields:
    def test_only_listed_fields_are_compared(self):
        a = {"x": 1, "y": 2, "z": 3}
        b = {"x": 1, "y": 5, "z": 4}
        assert diff_fields(a, b, ["x", "y"]) == [("y", 2, 5)]

    def test_missing_field_compares_as_none(self):
        assert diff_fields({"x": 1}, {}, ["x"]) == [("x", 1, None)]

    def test_fields_default_to_every_key_of_either_side(self):
        assert diff_fields({"b": 1, "a": 2}, {"a": 3, "c": 4}) == [
            ("a", 2, 3), ("b", 1, None), ("c", None, 4)]


class TestCli:
    def test_equiv_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["equiv", "gc_mode", "--procs", "2", "--seed", "7",
                   "--json-dir", str(tmp_path)])
        assert rc == 0
        assert "EQUIVALENT" in capsys.readouterr().out
        with open(tmp_path / "equiv-gc_mode-p2-s7.json") as fh:
            doc = json.load(fh)
        assert doc["clean"] and doc["runs"] == 125
        assert doc["legs"] == ["atomic", "incremental"]

    def test_removed_subcommands_are_gone(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (["gc-equiv"], ["vet", "--oracle"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
