"""Tests for the command-line interface (fast, scaled-down invocations)."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("table1", "table2", "table3", "figure1",
                        "figure3", "figure4", "rq1b", "rq1c",
                        "ablations", "all"):
            args = parser.parse_args(
                [command] if command in ("ablations",)
                else [command])
            assert args.command == command

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.runs == 30
        assert args.out is None

    def test_obs_subcommand_defaults(self):
        args = build_parser().parse_args(["obs"])
        assert args.command == "obs"
        assert args.benchmark == "cgo/sendmail"
        assert args.seed == 0
        assert args.procs == 2
        assert args.fingerprint_db is None

    def test_telemetry_flags_on_every_subcommand(self):
        parser = build_parser()
        for command in ("table1", "figure4", "chaos", "obs", "all"):
            args = parser.parse_args([command, "--metrics", "--trace",
                                      "--out-dir", "x"])
            assert args.metrics and args.trace
            assert args.out_dir == "x"
            args = parser.parse_args([command])
            assert not args.metrics and not args.trace
            assert args.out_dir is None


class TestExecution:
    def test_rq1b_prints_ratios(self, capsys):
        assert main(["rq1b", "--packages", "30"]) == 0
        out = capsys.readouterr().out
        assert "===== rq1b" in out
        assert "goleak individual reports" in out

    def test_ablations(self, capsys):
        assert main(["ablations"]) == 0
        out = capsys.readouterr().out
        assert "fixpoint strategy" in out
        assert "detection cadence" in out

    def test_figure4_small(self, capsys):
        assert main(["figure4", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "deadlocking programs" in out

    def test_out_dir_archives(self, tmp_path, capsys):
        out_dir = str(tmp_path / "artifacts")
        assert main(["--out", out_dir, "rq1b", "--packages", "20"]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(out_dir, "rq1b.txt"))
        with open(os.path.join(out_dir, "rq1b.txt")) as fh:
            assert "GOLF" in fh.read()

    def test_metrics_flag_writes_telemetry_artifacts(self, tmp_path,
                                                     capsys):
        from repro.telemetry import get_default_hub, validate_exposition

        out_dir = str(tmp_path / "telemetry")
        assert main(["figure4", "--repeats", "1", "--metrics",
                     "--out-dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "telemetry prometheus:" in out
        prom = os.path.join(out_dir, "figure4-telemetry.prom")
        with open(prom) as fh:
            assert validate_exposition(fh.read()) > 0
        assert os.path.exists(
            os.path.join(out_dir, "figure4-telemetry-metrics.json"))
        # The default hub is uninstalled on the way out.
        assert get_default_hub() is None


class TestDaemonCommand:
    def test_daemon_smoke_writes_the_campaign_artifact(self, tmp_path,
                                                       capsys):
        from repro import codec

        assert main(["daemon", "--seeds", "2",
                     "--json-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "-- detection-latency SLO curve" in out
        assert "-- checkpoint/rollback e2e" in out
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


class TestDashCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["dash"])
        assert args.command == "dash"
        assert args.shards == 2
        assert args.users == 16
        assert args.scrape_ms == 5.0
        assert args.daemon_ms == 10.0

    def test_dash_writes_validated_artifact(self, tmp_path, capsys):
        import json

        from repro.telemetry import validate_dash_artifact

        main(["dash", "--shards", "2", "--users", "8", "--seed", "7",
              "--scrape-ms", "2", "--json-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "repro dash: 2 shard(s)" in out
        assert "SLO alerts (per shard):" in out
        assert "panels (one sparkline per shard):" in out
        with open(tmp_path / "dash-n2-s7.json") as fh:
            counts = validate_dash_artifact(json.load(fh))
        assert counts["sources"] == 2
        assert counts["rules"] == 6

    def test_dash_same_seed_byte_identical(self, tmp_path, capsys):
        outputs, blobs = [], []
        for d in ("a", "b"):
            out_dir = tmp_path / d
            main(["dash", "--users", "8", "--seed", "7",
                  "--scrape-ms", "2", "--json-dir", str(out_dir)])
            # The runner banner carries wall-clock timing; everything
            # below it must be byte-identical.
            body = "\n".join(
                line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("====="))
            outputs.append(body.replace(str(out_dir), "<dir>"))
            blobs.append((out_dir / "dash-n2-s7.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert blobs[0] == blobs[1]

    def test_dash_single_shard(self, tmp_path, capsys):
        main(["dash", "--shards", "1", "--users", "6", "--seed", "2",
              "--scrape-ms", "2", "--json-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "repro dash: 1 shard(s)" in out
        assert (tmp_path / "dash-n1-s2.json").exists()

    def test_dash_rejects_bad_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="--shards"):
            main(["dash", "--shards", "0", "--json-dir", str(tmp_path)])
        with pytest.raises(SystemExit, match="--scrape-ms"):
            main(["dash", "--scrape-ms", "0", "--json-dir", str(tmp_path)])


class TestDashArtifactValidator:
    def _doc(self):
        from repro.telemetry import run_dash

        return run_dash(shards=1, users=6, seed=2, scrape_ms=2.0).to_dict()

    def test_accepts_good_artifact(self):
        from repro.telemetry import validate_dash_artifact

        counts = validate_dash_artifact(self._doc())
        assert counts["sources"] == 1 and counts["series"] > 0

    def test_rejects_wrong_schema_version(self):
        from repro.telemetry import validate_dash_artifact

        doc = self._doc()
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            validate_dash_artifact(doc)

    def test_rejects_foreign_shard_in_series(self):
        from repro.telemetry import validate_dash_artifact

        doc = self._doc()
        doc["rollup"]["series"][0]["labels"]["shard"] = "9"
        with pytest.raises(ValueError, match="not a rollup source"):
            validate_dash_artifact(doc)

    def test_rejects_unordered_timeline(self):
        from repro.telemetry import validate_dash_artifact

        doc = self._doc()
        doc["alert_timeline"] = [
            {"t": 2, "rule": "RecorderDrops", "severity": "warning",
             "labels": {}, "from": "inactive", "to": "firing",
             "kind": "firing", "shard": 0},
            {"t": 1, "rule": "RecorderDrops", "severity": "warning",
             "labels": {}, "from": "firing", "to": "inactive",
             "kind": "resolved", "shard": 0},
        ]
        with pytest.raises(ValueError, match="time-ordered"):
            validate_dash_artifact(doc)

    def test_rejects_undeclared_rule_in_timeline(self):
        from repro.telemetry import validate_dash_artifact

        doc = self._doc()
        doc["alert_timeline"] = [
            {"t": 1, "rule": "NotARule", "severity": "warning",
             "labels": {}, "from": "inactive", "to": "firing",
             "kind": "firing", "shard": 0},
        ]
        with pytest.raises(ValueError, match="NotARule"):
            validate_dash_artifact(doc)
