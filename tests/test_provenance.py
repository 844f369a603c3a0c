"""The leak-provenance engine: why-leaked evidence for every report.

The acceptance bar: every leak report GOLF produces — across the whole
73-benchmark registry — carries a :class:`ProvenanceRecord` with a
non-empty causal evidence chain, and the records identify the blocked
operation and last-communication partners correctly on the paper's
listings (Listing 2 analog ``cgo/timeout-leak``, Listing 7
``cgo/sendmail``).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.microbench.harness import run_microbenchmark
from repro.microbench.registry import all_benchmarks, benchmarks_by_name


def _run_with_reports(bench, procs=2, seed=1, rt_hook=None):
    captured = []

    def hook(rt):
        captured.append(rt)
        if rt_hook is not None:
            rt_hook(rt)

    run_microbenchmark(bench, procs=procs, seed=seed, rt_hook=hook)
    rt = captured[0]
    rt.gc_until_quiescent()
    reports = list(rt.reports.reports)
    rt.shutdown()
    return reports


def _traced_provenance(name, seed=0):
    """The why-leaked records of a traced run of registry program
    ``name`` at procs 2."""
    reports = _run_with_reports(benchmarks_by_name()[name], seed=seed,
                                rt_hook=lambda rt: rt.enable_tracing())
    return [r.provenance for r in reports if r.provenance is not None]


def _run_artifacts(out_dir, name="cgo/sendmail", seed=0):
    """``{file name: bytes}`` of every artifact one ``repro run`` writes."""
    assert main(["run", "--benchmark", name, "--seed", str(seed),
                 "--out-dir", str(out_dir)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestRegistrySweep:
    def test_every_report_in_the_registry_has_evidence(self):
        """All 73 buggy variants: no report without a why-leaked record.

        Detection of every site is Table 1's concern, not this test's;
        here any report that *does* exist must explain itself.
        """
        missing = []
        total = 0
        for bench in all_benchmarks():
            for report in _run_with_reports(bench):
                total += 1
                prov = report.provenance
                if prov is None or not prov.evidence:
                    missing.append(f"{bench.name}: {report.glabel}")
        assert not missing, missing
        assert total > 73  # the sweep actually exercised the registry

    def test_provenance_matches_its_report(self):
        bench = benchmarks_by_name()["cgo/sendmail"]
        (report,) = _run_with_reports(bench)
        prov = report.provenance
        assert prov.goid == report.goid
        assert prov.glabel == report.glabel
        assert prov.wait_reason == report.wait_reason
        assert prov.gc_cycle == report.gc_cycle


class TestListingEvidence:
    def test_listing2_timeout_leak_blocked_op(self):
        """Listing 2 analog: a worker abandoned by a timed-out parent."""
        (prov,) = _traced_provenance("cgo/timeout-leak")
        assert prov.wait_reason == "chan send"
        (op,) = prov.blocked_op
        assert op["kind"] == "chan"
        assert op["capacity"] == 0
        assert op["waiting_senders"] == 1
        assert op["waiting_receivers"] == 0
        assert not op["closed"]
        # Nobody ever took the result: the ledger proves the absence of
        # a communication partner.
        (partner,) = prov.partners
        assert partner["transfers"] == 0
        # The trace names the goroutine that walked away.
        assert any("body#" in line for line in prov.abandoned_by)

    def test_listing7_sendmail_evidence_chain(self):
        """Listing 7: the sendmail task blocked on an abandoned chan."""
        (prov,) = _traced_provenance("cgo/sendmail")
        assert prov.wait_reason == "chan send"
        (op,) = prov.blocked_op
        assert op["kind"] == "chan"
        assert op["label"] == "done"
        assert len(prov.evidence) >= 3
        text = prov.format()
        assert "why-leaked" in text
        assert "chan send" in text
        assert prov.glabel in text
        # The event slice ends at the fatal park.
        assert prov.event_slice
        assert prov.event_slice[-1]["kind"] == "go-park"

    def test_double_send_records_first_transfer_partner(self):
        """cgo/double-send: the first send completed — the ledger must
        name both ends before the second send wedges."""
        (prov,) = _traced_provenance("cgo/double-send")
        (partner,) = prov.partners
        assert partner["transfers"] == 1
        assert partner["last_sender_goid"] == prov.goid
        assert partner["last_receiver_goid"] > 0
        assert partner["last_receiver_goid"] != prov.goid

    def test_provenance_without_tracer_still_has_evidence(self):
        """The engine is not gated on tracing: a bare GOLF run gets
        why-leaked records too (minus the event slice)."""
        bench = benchmarks_by_name()["cgo/timeout-leak"]
        (report,) = _run_with_reports(bench)
        prov = report.provenance
        assert prov is not None
        assert len(prov.evidence) >= 3
        assert prov.event_slice == []


class TestArtifacts:
    def test_provenance_json_round_trips(self, tmp_path, capsys):
        _run_artifacts(tmp_path)
        with open(tmp_path / "run-cgo-sendmail-p2-s0-provenance.json") as fh:
            doc = json.load(fh)
        assert doc["benchmark"] == "cgo/sendmail"
        assert doc["procs"] == 2 and doc["seed"] == 0
        (leak,) = doc["leaks"]
        assert leak["evidence"]
        assert leak["glabel"] == _traced_provenance("cgo/sendmail")[0].glabel

    def test_artifacts_byte_identical_across_runs(self, tmp_path, capsys):
        blobs = [_run_artifacts(tmp_path / str(i), "cgo/timeout-leak", seed=5)
                 for i in range(2)]
        assert blobs[0] == blobs[1]

    def test_cli_end_to_end(self, tmp_path, capsys):
        _run_artifacts(tmp_path)
        out = capsys.readouterr().out
        assert "1 why-leaked record(s)" in out
        assert "chrome schema   : valid" in out
        assert (tmp_path / "run-cgo-sendmail-p2-s0.trace.json").exists()
        text = (tmp_path / "run-cgo-sendmail-p2-s0-provenance.txt").read_text()
        assert "why-leaked: goroutine" in text

    def test_report_as_dict_excludes_provenance_object(self):
        """The equivalence oracle compares report dicts across GC modes;
        provenance stays out of that surface (it is its own artifact)."""
        bench = benchmarks_by_name()["cgo/sendmail"]
        (report,) = _run_with_reports(bench)
        assert "provenance" not in report.as_dict()
        assert report.as_dict()["glabel"] == report.glabel
