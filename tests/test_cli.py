"""Tests for the command-line interface (fast, scaled-down invocations)."""

import pytest

from repro.cli import build_parser, main
from repro.microbench.registry import benchmarks_by_name


#: The subcommands, in registration order.
COMMANDS = ("chaos", "daemon", "fleet", "vet", "run", "equiv")


class TestParser:
    def test_all_subcommands_registered(self, capsys):
        parser = build_parser()
        for command in COMMANDS:
            assert parser.parse_args([command]).command == command
        with pytest.raises(SystemExit):
            main(["--help"])
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == "usage: repro [-h] {" + ",".join(COMMANDS) + "} ..."

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.benchmark == "cgo/sendmail"
        assert (args.seed, args.procs) == (0, 2)
        assert not args.fixed
        assert args.fingerprint_db is None
        assert args.out_dir == "benchmarks/out"

    @pytest.mark.parametrize("flag", ["--metrics", "--trace",
                                      "--gc-mode=incremental"])
    def test_no_flag_is_shared_by_every_subcommand(self, flag, capsys):
        """A run is configured through its own flags only: the old
        process-wide telemetry and collector switches are usage errors
        on every subcommand."""
        for command in COMMANDS:
            with pytest.raises(SystemExit) as exc:
                main([command, flag])
            assert exc.value.code == 2, command
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_out_dir_belongs_to_run(self, capsys):
        parser = build_parser()
        for command in COMMANDS:
            argv = [command, "--out-dir", "x"]
            if command == "run":
                assert parser.parse_args(argv).out_dir == "x"
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["run", "--benchmark", "nope/none"],
    ["chaos", "--scenario", "nope"],
], ids=["run", "chaos"])
def test_unknown_name_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{argv[2]!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["run", "--out", "x"],
    ["chaos", "--json", "x"],
    ["run", "--bench", "cgo/sendmail"],
], ids=["run-out", "chaos-json", "run-bench"])
def test_an_abbreviated_flag_is_a_usage_error(argv, capsys):
    """A prefix of a long flag binds nothing: ``--out`` is not
    ``--out-dir``."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["obs", "trace"])
def test_the_removed_drivers_are_usage_errors(command, capsys):
    """``repro run`` is the one single-program driver."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--benchmark", "cgo/sendmail"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


class TestExecution:
    def test_out_dir_archives(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["run", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out_dir.iterdir()) == [
            f"run-cgo-sendmail-p2-s0{suffix}"
            for suffix in ("-fingerprints.json", "-metrics.json",
                           "-provenance.json", "-provenance.txt",
                           "-recorder.txt", ".prom", ".trace.json")]

    def test_fixed_variant_has_its_own_stem(self, tmp_path, capsys):
        assert main(["run", "--fixed", "--out-dir", str(tmp_path)]) == 0
        assert "fixed" in capsys.readouterr().out
        assert (tmp_path / "run-cgo-sendmail-fixed-p2-s0.prom").exists()

    @pytest.mark.parametrize("name", ["cgo/timeout-leak", "cgo/double-send"])
    def test_each_observer_writes_what_it_writes_alone(self, name, tmp_path,
                                                       capsys):
        """One run with the hub and the tracer attached writes the hub
        documents of a hub-only run and the trace documents of a
        tracer-only run: neither observer disturbs the other."""
        from repro import codec
        from repro.cli import TRACE_CAPACITY
        from repro.microbench.harness import run_microbenchmark
        from repro.telemetry import TelemetryHub, write_artifacts
        from repro.trace import (
            export_chrome_trace,
            provenance_document,
            provenance_text,
        )

        stem = f"run-{name.replace('/', '-')}-p2-s0"
        assert main(["run", "--benchmark", name,
                     "--out-dir", str(tmp_path / "both")]) == 0
        capsys.readouterr()
        bench = benchmarks_by_name()[name]

        def run_alone(attach):
            runtimes = []

            def hook(rt):
                runtimes.append(rt)
                attach(rt)

            run_microbenchmark(bench, procs=2, seed=0, rt_hook=hook)
            (rt,) = runtimes
            rt.gc_until_quiescent()
            return rt

        hub = TelemetryHub()
        hub.fingerprints.begin_run(f"run-{name}-p2-s0-1")
        hub.sampler.sample(run_alone(hub.attach))
        write_artifacts(hub, str(tmp_path / "alone"), stem)

        rt = run_alone(lambda rt: rt.enable_tracing(capacity=TRACE_CAPACITY))
        about = ([r.provenance for r in rt.reports.reports], name, 2, 0)
        alone = tmp_path / "alone" / stem
        codec.write_text(f"{alone}.trace.json", codec.dumps(
            export_chrome_trace(rt.tracer, procs=2, benchmark=name, seed=0),
            compact=True))
        codec.write(f"{alone}-provenance.json", provenance_document(*about))
        codec.write_text(f"{alone}-provenance.txt", provenance_text(*about))

        def files(kind):
            return {p.name: p.read_bytes()
                    for p in sorted((tmp_path / kind).iterdir())}

        assert len(files("alone")) == 7
        assert files("both") == files("alone")


class TestDaemonCommand:
    def test_daemon_smoke_writes_the_campaign_artifact(self, tmp_path,
                                                       capsys):
        from repro import codec

        assert main(["daemon", "--seeds", "2",
                     "--json-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "-- recovery chaos campaign" in out
        assert "restart success : 2/2" in out
        assert "FAIL" not in out
        doc = codec.read(str(tmp_path / "out" / "recovery-s0-n2.json"))
        assert doc["schedules_run"] == 2 and doc["meets_slo"] is True
        assert doc["data_loss_schedules"] == []

    def test_daemon_rejects_an_empty_campaign(self, tmp_path):
        with pytest.raises(SystemExit, match="--seeds"):
            main(["daemon", "--seeds", "0", "--json-dir", str(tmp_path)])

    def test_the_fail_exit_contract(self):
        from repro.cli import _gate

        assert _gate("report", [], "daemon recovery smoke") == "report"
        with pytest.raises(SystemExit) as exc:
            _gate("report", ["a broke", "b broke"], "fleet run")
        assert str(exc.value) == (
            "report\nFAIL: a broke\nFAIL: b broke\nfleet run FAILED")


class TestFleetCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.command == "fleet"
        assert args.shards == 2
        assert args.mode == "sequential"
        assert args.policy == "hash"
        assert args.workload == "controlled"
        assert args.daemon_ms is None

    def test_fleet_writes_validated_artifacts(self, tmp_path, capsys):
        import json

        from repro.fleet import validate_fleet_artifact

        main(["fleet", "--shards", "2", "--users", "12", "--seed", "3",
              "--leak-rate", "0.25", "--json-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "fleet run: 2 shard(s), mode=sequential, clean" in out
        stem = tmp_path / "fleet-sequential-n2-s3"
        with open(f"{stem}.json") as fh:
            counts = validate_fleet_artifact(json.load(fh))
        assert counts["shards"] == 2
        assert (stem.parent / f"{stem.name}.prom").exists()
        assert (stem.parent / f"{stem.name}-reports.txt").exists()

    def test_fleet_both_modes_enforces_equivalence(self, tmp_path, capsys):
        main(["fleet", "--mode", "both", "--users", "10", "--seed", "1",
              "--json-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "mode equivalence : sequential == multiprocessing" in out
        assert (tmp_path / "fleet-sequential-n2-s1.json").exists()
        assert (tmp_path / "fleet-multiprocessing-n2-s1.json").exists()

    def test_fleet_rejects_bad_shards(self, tmp_path):
        with pytest.raises(SystemExit, match="--shards"):
            main(["fleet", "--shards", "0", "--json-dir", str(tmp_path)])

