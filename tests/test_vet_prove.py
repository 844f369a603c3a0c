"""`repro vet --prove`, channel annotations, and the runtime fusion.

Covers the exit-code contract extensions (expect/chan mismatches and
malformed annotations fail in text AND json mode, even under
``--fail-on never``; a failing ``--json`` run still emits a parseable
document on stdout), the ``# vet: chan=<label> <expectation>``
annotation grammar with its malformed-annotation diagnostics, and the
static→dynamic fusion: proof registries installed via
``Runtime.install_proofs`` make the detector skip proven channels
while leaving leak reports byte-identical.
"""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.equivalence import PAIRS, EquivalenceResult, Program, compare
from repro.microbench.registry import benchmarks_by_name
from repro.runtime.api import Runtime
from repro.runtime.clock import SECOND
from repro.runtime.instructions import (
    Close,
    Go,
    MakeChan,
    Recv,
    RunGC,
    Send,
)
from repro.staticcheck import vet_paths
from repro.staticcheck.behavior import analyze_callable_behavior
from repro.staticcheck.proofs import build_registry
from repro.staticcheck.report import CHAN_EXPECTATIONS, parse_annotations
from tests.conftest import swept

GOOD = """\
from repro.runtime.instructions import Go, MakeChan, Recv, Send


def pipeline():
    # vet: chan=done proven
    done = yield MakeChan(0, label="done")

    def worker(ch=done):
        yield Send(ch, 1)

    yield Go(worker)
    yield Recv(done)
"""

WRONG_EXPECTATION = """\
from repro.runtime.instructions import Go, MakeChan, Send


def leaky():
    # vet: expect send-no-recv
    # vet: chan=orphan proven
    orphan = yield MakeChan(0, label="orphan")

    def worker(ch=orphan):
        yield Send(ch, 1)

    yield Go(worker)
"""


class TestChanAnnotations:
    def test_fulfilled_annotation_passes(self, tmp_path):
        path = tmp_path / "good.py"
        path.write_text(GOOD)
        assert main(["vet", str(path), "--prove"]) == 0

    def test_chan_annotation_is_inert_without_prove(self, tmp_path):
        """The annotation documents intent; without --prove it must not
        fail the run (the behavioral engine never ran)."""
        path = tmp_path / "wrong.py"
        path.write_text(WRONG_EXPECTATION)
        assert main(["vet", str(path), "--expect"]) == 0

    def test_mismatch_fails_with_verdict_in_message(self, tmp_path):
        path = tmp_path / "wrong.py"
        path.write_text(WRONG_EXPECTATION)
        with pytest.raises(SystemExit) as exc:
            main(["vet", str(path), "--expect", "--prove"])
        msg = str(exc.value)
        assert "chan=orphan" in msg
        assert "expected proven" in msg
        assert "potential" in msg

    def test_unknown_label_reports_no_such_channel(self, tmp_path):
        path = tmp_path / "typo.py"
        path.write_text(GOOD.replace("chan=done", "chan=doen"))
        with pytest.raises(SystemExit) as exc:
            main(["vet", str(path), "--prove"])
        assert "no channel with that label" in str(exc.value)

    def test_mismatches_fail_even_under_fail_on_never(self, tmp_path):
        path = tmp_path / "wrong.py"
        path.write_text(WRONG_EXPECTATION)
        with pytest.raises(SystemExit):
            main(["vet", str(path), "--prove", "--fail-on", "never"])


_KNOWN_KINDS = ("clean", "expect", "ok", "chan")
_WORD = st.from_regex(r"[A-Za-z0-9_.-]{1,8}", fullmatch=True)
#: One line of text that holds no annotation.
_NOISE = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                 max_size=16).filter(lambda s: "vet" not in s)
_WELL_FORMED = st.one_of(
    st.just("# vet: clean"),
    st.lists(_WORD, max_size=3).map(lambda rules: "# vet: expect "
                                    + ", ".join(rules)),
    st.builds("# vet: ok {} {}".format, _WORD, _NOISE),
    st.builds("# vet: chan={} {}".format, _WORD,
              st.sampled_from(CHAN_EXPECTATIONS)),
)
_MALFORMED = st.one_of(
    st.builds("# vet: {} {}".format,
              st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)
              .filter(lambda kind: kind not in _KNOWN_KINDS), _NOISE),
    st.just("# vet: chan"),
    st.builds("# vet: chan {}".format, _WORD),
    st.just("# vet: chan= "),
    st.builds("# vet: chan={}".format, _WORD),
    st.builds("# vet: chan={} {}".format, _WORD,
              _WORD.filter(lambda word: word not in CHAN_EXPECTATIONS)),
)


class TestMalformedAnnotations:
    @pytest.mark.parametrize("annotation,fragment", [
        ("# vet: chan", "want 'chan=<label> <expectation>'"),
        ("# vet: chan=done", "missing an expectation"),
        ("# vet: chan=done maybe", "invalid expectation 'maybe'"),
        ("# vet: bogus thing", "unknown annotation kind 'bogus'"),
    ])
    def test_malformed_annotation_message(self, tmp_path, annotation,
                                          fragment):
        path = tmp_path / "bad.py"
        path.write_text(GOOD.replace("# vet: chan=done proven",
                                     annotation))
        with pytest.raises(SystemExit) as exc:
            main(["vet", str(path), "--prove"])
        assert fragment in str(exc.value)

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_any_text_parses_without_raising(self, text):
        problems = []
        parse_annotations(text, problems)
        assert len(problems) <= len(text.splitlines())
        assert all(re.match(r"line \d+: ", p) for p in problems)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        _NOISE.map(lambda line: (line, None)),
        st.tuples(_NOISE, _WELL_FORMED).map(lambda t: (t[0] + t[1], True)),
        st.tuples(_NOISE, _MALFORMED).map(lambda t: (t[0] + t[1], False)),
    ), max_size=12))
    def test_each_malformed_line_adds_one_problem(self, rows):
        """``rows`` is ``(line, well_formed)``, ``None`` for a line that
        holds no annotation."""
        problems = []
        annotations = parse_annotations(
            "\n".join(line for line, _ in rows), problems)
        assert len(annotations) == sum(ok is True for _, ok in rows)
        assert [int(re.match(r"line (\d+): ", p).group(1))
                for p in problems] == [
            n for n, (_, ok) in enumerate(rows, start=1) if ok is False]

    def test_malformed_annotations_fail_without_prove_too(self, tmp_path):
        """A typo'd annotation is a defect in the file regardless of
        which engines run."""
        path = tmp_path / "bad.py"
        path.write_text(GOOD.replace("proven", "prooven"))
        with pytest.raises(SystemExit) as exc:
            main(["vet", str(path)])
        assert "invalid expectation" in str(exc.value)


class TestJsonContract:
    def test_prove_json_is_byte_deterministic(self, capsys):
        main(["vet", "examples/leaky_service.py", "--prove", "--json"])
        first = capsys.readouterr().out
        main(["vet", "examples/leaky_service.py", "--prove", "--json"])
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["prove_mode"] is True
        assert set(payload["proof_summary"]) == {
            "proven", "potential", "unknown"}
        for entry in payload["proofs"]:
            for channel in entry["channels"]:
                assert channel["verdict"] in (
                    "proven-leak-free", "potential-leak", "unknown")

    def test_plain_json_has_no_proof_keys(self, capsys):
        """Without --prove the document is byte-compatible with the
        pre-proofs schema."""
        main(["vet", "examples/leaky_service.py", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert "proofs" not in payload
        assert "prove_mode" not in payload

    def test_failing_json_run_still_emits_valid_json(self, tmp_path,
                                                     capsys):
        path = tmp_path / "wrong.py"
        path.write_text(WRONG_EXPECTATION)
        with pytest.raises(SystemExit):
            main(["vet", str(path), "--prove", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["chan_mismatches"]
        assert payload["chan_mismatches"][0]["actual"] == "potential"

    def test_text_and_json_agree_on_exit(self, tmp_path):
        path = tmp_path / "wrong.py"
        path.write_text(WRONG_EXPECTATION)
        for extra in ([], ["--json"]):
            with pytest.raises(SystemExit):
                main(["vet", str(path), "--prove"] + extra)


class TestCrossvalBehaviorEngine:
    def test_behavior_engine_meets_paper_floors(self, capsys):
        assert main(["vet", "--crossval", "--engine", "behavior",
                     "--min-recall", "0.97", "--min-proven", "20"]) == 0
        out = capsys.readouterr().out
        assert "engine: behavior" in out
        assert "proven-leak-free channels" in out

    def test_unreachable_proven_floor_fails(self):
        with pytest.raises(SystemExit) as exc:
            main(["vet", "--crossval", "--engine", "behavior",
                  "--min-proven", "10000"])
        assert "--min-proven floor" in str(exc.value)

    def test_rules_engine_output_is_unchanged(self, capsys):
        """engine=rules must stay byte-compatible with the pre-proofs
        report (no engine/proven keys)."""
        main(["vet", "--crossval", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert "engine" not in payload["summary"]
        assert "proven_channels" not in payload["summary"]


def _pool_body():
    """A worker pool blocked mid-rendezvous on a proven channel: the
    GC point fires while the workers are parked, so the detector's
    proof-skip path genuinely exercises."""
    req = yield MakeChan(0, label="pool.req")

    def worker(ch=req):
        while True:
            _, ok = yield Recv(ch)
            if not ok:
                return None

    yield Go(worker)
    yield Go(worker)
    yield Go(worker)
    yield RunGC()                    # workers are parked on pool.req
    for i in range(6):
        yield Send(req, i)
    yield Close(req)


def _run_pool(registry):
    rt = Runtime(procs=2, seed=0)
    if registry is not None:
        rt.install_proofs(registry)
    rt.spawn_main(_pool_body)
    status = rt.run(until_ns=5 * SECOND, max_instructions=1_000_000)
    rt.gc_until_quiescent()
    skips = sum(cs.proof_skips for cs in rt.collector.stats.cycles)
    reports = tuple(r.format() for r in rt.reports.reports)
    rt.shutdown()
    return status, skips, reports


class TestRuntimeFusion:
    def test_detector_skips_proven_channels_identically(self):
        analysis = analyze_callable_behavior(_pool_body)
        registry = build_registry([analysis])
        assert len(registry) == 1     # pool.req is proven

        off_status, off_skips, off_reports = _run_pool(None)
        on_status, on_skips, on_reports = _run_pool(registry)

        assert off_skips == 0
        # Workers parked on pool.req at the GC point are skipped (how
        # many of the three are parked yet is scheduling-dependent but
        # deterministic under the fixed seed).
        assert on_skips >= 1
        assert on_status == off_status
        assert on_reports == off_reports == ()

    def test_compare_benchmark_is_identical_on_leaky_program(self):
        program = Program(benchmarks_by_name()["cgo/timeout-leak"], False)
        result = EquivalenceResult(PAIRS["proofs"], 1, 0)
        diffs = compare(PAIRS["proofs"], program, procs=1, seed=0,
                        into=result)
        assert diffs == [], diffs
        assert result.witness["proven_sites"] == 1

    def test_oracle_smoke_over_services(self):
        result = swept("proofs", 7)
        assert result.clean, "\n" + result.format()
        assert result.runs == 125 + 2      # the corpus + both services
        assert result.witness["proven_sites"] >= 20
