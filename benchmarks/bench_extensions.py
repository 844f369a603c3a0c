"""Extensions beyond the paper's tables: modern-idiom leak patterns,
liveness hints, and select-order fuzzing (paper sections 7-8).

These quantify the future-work claims: hints recover Listing-4-class
false negatives at bounded extra marking cost, and fuzzing multiplies
the leaks a fixed test exposes to GOLF.
"""

from benchmarks.conftest import emit
from repro import GolfConfig, Runtime
from repro.fuzz import fuzz_program
from repro.microbench.extended import extended_benchmarks
from repro.runtime.clock import MICROSECOND, MILLISECOND
from repro.runtime.instructions import (
    Go,
    MakeChan,
    RecvCase,
    RunGC,
    Select,
    Send,
    SetGlobal,
    Sleep,
)


def _run_extended_suite():
    rows = []
    for bench in extended_benchmarks():
        rt = Runtime(procs=2, seed=9, config=GolfConfig())

        def main(body=bench.body):
            yield Go(body)
            yield Sleep(2 * MILLISECOND)
            yield RunGC()
            yield RunGC()

        rt.spawn_main(main)
        rt.run(until_ns=200 * MILLISECOND, max_instructions=1_000_000)
        detected = {r.label for r in rt.reports if r.label}
        rows.append((bench.name, sorted(detected),
                     sorted(bench.golf_detects), sorted(bench.goleak_only)))
    return rows


def test_extended_pattern_suite():
    rows = _run_extended_suite()
    lines = [f"{'pattern':26s} {'GOLF detected':34s} {'goleak-only':16s}"]
    for name, detected, expected, goleak_only in rows:
        lines.append(
            f"{name:26s} {', '.join(detected) or '-':34s} "
            f"{', '.join(goleak_only) or '-':16s}"
        )
    emit("extensions_patterns", "\n".join(lines))
    for name, detected, expected, _ in rows:
        assert detected == expected, name


def _hints_experiment():
    """Detection and marking cost, with and without global-dead hints,
    over a program leaking behind N global channels."""
    rows = []
    for hinted in (False, True):
        hints = {f"pkg.ch{i}" for i in range(8)} if hinted else set()
        rt = Runtime(procs=2, seed=4,
                     config=GolfConfig(dead_global_hints=hints))

        def main():
            def sender(c):
                yield Send(c, 1)

            for i in range(8):
                ch = yield MakeChan(0)
                yield SetGlobal(f"pkg.ch{i}", ch)
                yield Go(sender, ch, name=f"global-leak-{i}")
                del ch
            yield Sleep(50 * MICROSECOND)
            yield RunGC()
            yield RunGC()

        rt.spawn_main(main)
        rt.run(until_ns=100 * MILLISECOND)
        stats = rt.collector.stats
        rows.append({
            "hints": hinted,
            "detected": rt.reports.total(),
            "mark_work": stats.total_mark_work,
        })
        rt.shutdown()
    return rows


def test_liveness_hints():
    rows = _hints_experiment()
    lines = [f"{'hints':>6s} {'detected':>9s} {'mark work':>10s}"]
    for row in rows:
        lines.append(
            f"{'on' if row['hints'] else 'off':>6s} "
            f"{row['detected']:>9d} {row['mark_work']:>10d}"
        )
    emit("extensions_hints", "\n".join(lines))
    without, with_hints = rows
    assert without["detected"] == 0
    assert with_hints["detected"] == 8


def _fuzz_experiment():
    """How many select profiles the order-dependent leak needs."""

    def racy():
        def main():
            a = yield MakeChan(1)
            b = yield MakeChan(1)
            yield Send(a, 1)
            yield Send(b, 2)
            orphan = yield MakeChan(0)

            def stuck(c):
                yield Send(c, 1)

            index, _, _ = yield Select([RecvCase(a), RecvCase(b)])
            if index == 1:
                yield Go(stuck, orphan, name="rare-order-leak")
            del orphan
            yield Sleep(30 * MICROSECOND)
            yield RunGC()
            yield RunGC()

        return main

    return fuzz_program(racy, profiles=6)


def test_fuzzing_multiplies_coverage():
    result = _fuzz_experiment()
    finders = result.profiles_detecting("rare-order-leak")
    lines = ["GFuzz x GOLF: order-dependent leak coverage",
             f"profiles run: {len(result.by_profile)}",
             f"profiles detecting the leak: {finders}",
             f"union: {sorted(result.union)}"]
    emit("extensions_fuzz", "\n".join(lines))
    assert "rare-order-leak" in result.union
    assert 0 < len(finders) < len(result.by_profile)
