"""End-to-end tests for the `repro vet` CLI, annotations, the baselines
adapter, and the telemetry instruments.

The exit-code contract: 0 when nothing at or above ``--fail-on`` fires,
SystemExit (exit 1) with the findings otherwise, argparse errors exit 2.
"""

import json

import pytest

from repro.cli import main
from repro.staticcheck import vet_paths

LEAKY_SERVICE = "examples/leaky_service.py"
ZOO = "examples/deadlock_zoo.py"


class TestExitCodes:
    def test_default_fail_on_error_passes_warnings(self, capsys):
        assert main(["vet", LEAKY_SERVICE]) == 0
        assert "send-may-drop" in capsys.readouterr().out

    def test_fail_on_warning_fails(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["vet", LEAKY_SERVICE, "--fail-on", "warning"])
        assert "vet FAILED" in str(exc.value)

    def test_fail_on_never_always_passes(self):
        assert main(["vet", "examples", "--fail-on", "never"]) == 0

    def test_unknown_severity_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["vet", LEAKY_SERVICE, "--fail-on", "fatal"])
        assert exc.value.code == 2


class TestListing7Acceptance:
    """`repro vet examples/leaky_service.py` must flag the Listing-7
    send-leak with its full provenance chain, in text and JSON."""

    def test_text_provenance_chain(self, capsys):
        main(["vet", LEAKY_SERVICE])
        out = capsys.readouterr().out
        assert "send-may-drop" in out
        assert "email.done" in out
        for role in ("make-chan", "go", "send"):
            assert role in out
        assert "blocks here" in out

    def test_json_provenance_chain(self, capsys):
        main(["vet", LEAKY_SERVICE, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-vet-report/1"
        (fn,) = payload["functions"]
        diag = next(d for d in fn["diagnostics"]
                    if d["rule"] == "send-may-drop")
        roles = [step["role"] for step in diag["provenance"]]
        assert roles[0] == "make-chan"
        assert "go" in roles
        assert roles[-1] == "send"
        # make-site -> spawn-site -> blocked-send site: every step is a
        # clickable file:line.
        for step in diag["provenance"]:
            assert LEAKY_SERVICE in step["site"]

    def test_json_report_is_byte_deterministic(self, capsys):
        main(["vet", LEAKY_SERVICE, "--json"])
        first = capsys.readouterr().out
        main(["vet", LEAKY_SERVICE, "--json"])
        assert capsys.readouterr().out == first


class TestAnnotations:
    def test_examples_reproduce_their_expectations_exactly(self, capsys):
        # The satellite contract: the annotated expectations in
        # examples/ are exactly what the analyzer finds.
        assert main(["vet", ZOO, LEAKY_SERVICE, "--expect",
                     "--fail-on", "error"]) == 0

    def test_zoo_covers_the_whole_catalog(self):
        vet = vet_paths([ZOO], expect=True)
        hit = set()
        for report in vet.reports:
            for diag in report.diagnostics:
                if not diag.suppressed:
                    hit.add(diag.rule)
        from repro.staticcheck import ALL_RULES

        assert hit == set(ALL_RULES)

    def test_missing_expectation_is_a_mismatch(self, tmp_path, capsys):
        source = (
            "from repro.runtime.instructions import MakeChan, Recv\n"
            "\n"
            "\n"
            "# vet: clean\n"
            "def body():\n"
            "    ch = yield MakeChan(0)\n"
            "    yield Recv(ch)\n"
        )
        path = tmp_path / "wrong.py"
        path.write_text(source)
        with pytest.raises(SystemExit) as exc:
            main(["vet", str(path), "--expect"])
        assert "recv-no-send" in str(exc.value)

    def test_unfulfilled_expectation_is_a_mismatch(self, tmp_path):
        source = (
            "from repro.runtime.instructions import MakeChan, Close\n"
            "\n"
            "\n"
            "# vet: expect send-no-recv\n"
            "def body():\n"
            "    ch = yield MakeChan(0)\n"
            "    yield Close(ch)\n"
        )
        path = tmp_path / "unfulfilled.py"
        path.write_text(source)
        with pytest.raises(SystemExit) as exc:
            main(["vet", str(path), "--expect"])
        assert "send-no-recv" in str(exc.value)

    def test_ok_suppression_is_line_scoped(self, tmp_path):
        source = (
            "from repro.runtime.instructions import MakeChan, Send\n"
            "\n"
            "\n"
            "def body():\n"
            "    ch = yield MakeChan(0)\n"
            "    yield Send(ch, 1)  # vet: ok send-no-recv known demo\n"
        )
        path = tmp_path / "waived.py"
        path.write_text(source)
        vet = vet_paths([str(path)])
        (report,) = vet.reports
        assert report.verdict == "clean"
        (diag,) = report.diagnostics
        assert diag.suppressed


class TestServiceLayerGate:
    def test_service_layer_has_zero_error_findings(self):
        # The resilient service layer is intentionally racy (its seeded
        # handler defect is a may-drop), so it must vet clean at the
        # error level: the static analyzer introduces no false alarms
        # on running production code.
        vet = vet_paths(["src/repro/service"])
        assert vet.failures("error") == []
        assert all(d.severity != "error"
                   for r in vet.reports for d in r.diagnostics)

    def test_seeded_resilience_defect_is_warning_only(self):
        vet = vet_paths(["src/repro/service/resilience.py"])
        rules = {d.rule for r in vet.reports for d in r.diagnostics}
        assert "send-may-drop" in rules


class TestCrossvalCli:
    def test_crossval_passes_floor_and_writes_artifact(self, tmp_path,
                                                       capsys):
        assert main(["vet", "--crossval",
                     "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "recall" in out
        payload = json.loads((tmp_path / "vet-crossval.json").read_text())
        assert payload["schema"] == "repro-vet-crossval/1"
        assert payload["summary"]["recall"] >= 0.75
        assert payload["summary"]["fp"] == 0

    def test_unreachable_recall_floor_fails(self):
        with pytest.raises(SystemExit) as exc:
            main(["vet", "--crossval", "--min-recall", "1.0"])
        assert "FAILED" in str(exc.value)
