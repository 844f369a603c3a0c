"""`repro vet --prove` and channel annotations.

Covers the exit-code contract extensions (expect/chan mismatches and
malformed annotations fail in text AND json mode, even under
``--fail-on never``; a failing ``--json`` run still emits a parseable
document on stdout) and the ``# vet: chan=<label> <expectation>``
annotation grammar with its malformed-annotation diagnostics.
"""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.staticcheck.report import CHAN_EXPECTATIONS, parse_annotations

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

