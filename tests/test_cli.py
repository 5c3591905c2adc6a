"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestSimulate:
    def test_prints_summary(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        code = main(["simulate", "--advertisers", "20",
                     "--auctions", "10", "--slots", "3",
                     "--keywords", "2", "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "auctions=10" in out
        assert "provider revenue" in out
        assert trace.exists()
        assert len(trace.read_text().strip().splitlines()) == 10

    def test_rhtalu_method(self, capsys):
        code = main(["simulate", "--advertisers", "20",
                     "--auctions", "5", "--slots", "3",
                     "--keywords", "2", "--method", "rhtalu"])
        assert code == 0
        assert "auctions=5" in capsys.readouterr().out

    def test_rhtalu_batch_matches_sequential(self, capsys):
        args = ["simulate", "--advertisers", "20", "--auctions", "10",
                "--slots", "3", "--keywords", "2", "--method", "rhtalu"]
        assert main(args) == 0
        sequential_out = capsys.readouterr().out
        assert main(args + ["--batch"]) == 0
        batch_out = capsys.readouterr().out
        assert (sequential_out.split("eval=")[0]
                == batch_out.split("eval=")[0])


class TestSimulateWorkers:
    def test_sharded_matches_sequential(self, capsys):
        base = ["simulate", "--advertisers", "21", "--auctions", "12",
                "--slots", "3", "--keywords", "2"]
        assert main(base) == 0
        sequential_out = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        sharded_out = capsys.readouterr().out
        assert "sharded over 2 worker processes" in sharded_out
        # Same decision totals; timing lines legitimately differ.
        assert (sequential_out.split("eval=")[0]
                in sharded_out)

    def test_sharded_writes_traces(self, capsys, tmp_path):
        trace = tmp_path / "sharded.jsonl"
        code = main(["simulate", "--advertisers", "15",
                     "--auctions", "8", "--slots", "3",
                     "--keywords", "2", "--workers", "3",
                     "--trace", str(trace)])
        assert code == 0
        assert len(trace.read_text().strip().splitlines()) == 8


class TestSimulateBatch:
    def test_batch_matches_sequential(self, capsys):
        code = main(["simulate", "--advertisers", "20",
                     "--auctions", "10", "--slots", "3",
                     "--keywords", "2"])
        assert code == 0
        sequential_out = capsys.readouterr().out
        code = main(["simulate", "--advertisers", "20",
                     "--auctions", "10", "--slots", "3",
                     "--keywords", "2", "--batch"])
        assert code == 0
        batch_out = capsys.readouterr().out
        # Same revenue/click totals; timing lines legitimately differ.
        assert (sequential_out.split("eval=")[0]
                == batch_out.split("eval=")[0])


class TestValidate:
    def test_agreement_self_check(self, capsys):
        code = main(["validate", "--trials", "5"])
        assert code == 0
        assert "OK" in capsys.readouterr().out


class TestSql:
    def test_executes_statements(self, capsys):
        code = main(["sql",
                     "CREATE TABLE T (x INT);"
                     "INSERT INTO T VALUES (2), (1);"
                     "SELECT x FROM T ORDER BY x;"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- 2 row(s) affected" in out
        assert out.strip().endswith("1\n2".replace("\n", "\n"))

    def test_reports_errors(self, capsys):
        code = main(["sql", "SELECT nope FROM missing;"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_null_rendering(self, capsys):
        code = main(["sql",
                     "CREATE TABLE T (x INT); "
                     "INSERT INTO T (x) VALUES (NULL); "
                     "SELECT x FROM T;"])
        assert code == 0
        assert "NULL" in capsys.readouterr().out


class TestStream:
    ARGS = ["stream", "--advertisers", "30", "--events", "80",
            "--slots", "3", "--keywords", "2", "--churn-rate", "0.25",
            "--min-active", "4"]

    def test_runs_and_reports(self, capsys):
        code = main(self.ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "stream:" in out
        assert "provider revenue" in out
        assert "active advertisers at end" in out
        assert "query" in out

    def test_sharded_stream(self, capsys):
        code = main(self.ARGS + ["--workers", "2"])
        assert code == 0
        assert "2 workers" in capsys.readouterr().out

    def test_supervise_needs_workers(self, capsys):
        code = main(self.ARGS + ["--supervise"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_supervised_unfailed_run_reports_no_heals(self, capsys):
        code = main(self.ARGS + ["--workers", "2", "--supervise",
                                 "--round-timeout", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 workers" in out
        # The supervision summary line only appears when a worker
        # actually failed.
        assert "supervision:" not in out

    def test_observability_sidecars_and_report(self, capsys,
                                               tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        spans = tmp_path / "spans.jsonl"
        code = main(self.ARGS + ["--batch-window", "4",
                                 "--metrics-out", str(metrics),
                                 "--trace-spans", str(spans),
                                 "--metrics-every", "25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics written to" in out
        assert "span trace written to" in out
        from repro.obs import validate_metrics_file, validate_trace_file
        assert validate_metrics_file(metrics) == []
        assert validate_trace_file(spans) == []
        code = main(["obs", "report", "--metrics", str(metrics),
                     "--trace", str(spans), "--top", "3"])
        assert code == 0
        report = capsys.readouterr().out
        assert "counters" in report
        assert "root spans" in report
        assert "slowest" in report

    def test_obs_report_needs_an_input(self, capsys):
        code = main(["obs", "report"])
        assert code == 2
        assert "--metrics" in capsys.readouterr().err

    def test_obs_flags_exclude_snapshot_at(self, capsys, tmp_path):
        code = main(self.ARGS + ["--snapshot-at", "10",
                                 "--metrics-out",
                                 str(tmp_path / "m.jsonl")])
        assert code == 2
        assert "--snapshot-at" in capsys.readouterr().err

    def test_rebuild_maintenance_matches_incremental(self, capsys):
        main(self.ARGS + ["--method", "rhtalu"])
        first = capsys.readouterr().out
        main(self.ARGS + ["--method", "rhtalu",
                          "--maintenance", "rebuild"])
        second = capsys.readouterr().out
        pick = [line for line in first.splitlines()
                if line.startswith("auctions:")]
        assert pick == [line for line in second.splitlines()
                        if line.startswith("auctions:")]

    def test_snapshot_resume(self, capsys, tmp_path):
        snap = tmp_path / "snap.json"
        code = main(self.ARGS + ["--snapshot-at", "40",
                                 "--snapshot-file", str(snap)])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed from snapshot" in out
        assert snap.exists()
        # Uninterrupted run must report the same totals, and the
        # per-event timing table must cover the whole spliced stream
        # (head + tail), not just the post-restore segment.
        main(self.ARGS)
        uninterrupted = capsys.readouterr().out

        def event_counts(text):
            counts = {}
            for line in text.splitlines():
                parts = line.split()
                if (line.startswith("  ") and len(parts) >= 3
                        and parts[2] == "events"):
                    counts[parts[0].rstrip(":")] = int(parts[1])
            return counts

        assert [line for line in out.splitlines()
                if line.startswith("auctions:")] \
            == [line for line in uninterrupted.splitlines()
                if line.startswith("auctions:")]
        assert event_counts(out) == event_counts(uninterrupted)
        assert sum(event_counts(out).values()) == 80 + 15


    def test_replay_reproduces_the_recorded_trace(self, capsys,
                                                  tmp_path):
        from repro.stream.replay import diff_trace_files

        events = tmp_path / "events.jsonl"
        first_trace = tmp_path / "first.jsonl"
        second_trace = tmp_path / "second.jsonl"
        args = self.ARGS + ["--budget-low", "4",
                            "--budget-high", "25"]
        code = main(args + ["--record-events", str(events),
                            "--trace", str(first_trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "budget lifecycle:" in out
        assert events.exists() and first_trace.exists()
        # Replay the captured log (service knobs match) and hold the
        # two traces to each other: the acceptance criterion is an
        # empty diff, with the lifecycle active in the stream.
        code = main(self.ARGS + ["--replay", str(events),
                                 "--trace", str(second_trace)])
        assert code == 0
        assert "replaying" in capsys.readouterr().out
        diff = diff_trace_files(first_trace, second_trace)
        assert diff.identical, diff.format_report()

    def test_replay_on_workers_matches_in_process(self, capsys,
                                                  tmp_path):
        events = tmp_path / "events.jsonl"
        first_trace = tmp_path / "first.jsonl"
        second_trace = tmp_path / "second.jsonl"
        main(self.ARGS + ["--budget-low", "4", "--budget-high", "25",
                          "--record-events", str(events),
                          "--trace", str(first_trace)])
        code = main(self.ARGS + ["--replay", str(events),
                                 "--workers", "2",
                                 "--trace", str(second_trace)])
        capsys.readouterr()
        assert code == 0
        from repro.stream.replay import diff_trace_files

        assert diff_trace_files(first_trace, second_trace).identical


class TestDurableStream:
    ARGS = TestStream.ARGS + ["--budget-low", "4",
                              "--budget-high", "25"]

    def test_journal_checkpoint_recover_roundtrip(self, capsys,
                                                  tmp_path):
        """The runbook flow: record, serve durably, recover onto a
        different worker count, audit the aligned traces."""
        from repro.auction.trace import read_trace
        from repro.stream.replay import align_traces, diff_traces

        events = tmp_path / "events.jsonl"
        baseline_trace = tmp_path / "baseline.jsonl"
        recovered_trace = tmp_path / "recovered.jsonl"
        journal = tmp_path / "journal.jsonl"
        checkpoints = tmp_path / "checkpoints"

        assert main(self.ARGS + ["--record-events", str(events),
                                 "--trace", str(baseline_trace)]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--replay", str(events),
                                 "--journal", str(journal),
                                 "--checkpoint-every", "20",
                                 "--checkpoint-dir",
                                 str(checkpoints)]) == 0
        out = capsys.readouterr().out
        assert "fsync'd" in out
        assert "checkpoints: every 20" in out
        assert journal.exists()
        assert list(checkpoints.iterdir())

        assert main(["recover", "--journal", str(journal),
                     "--checkpoint-dir", str(checkpoints),
                     "--workers", "2",
                     "--resume-events", str(events),
                     "--trace", str(recovered_trace)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint:" in out
        assert "recovered watermark:" in out
        assert recovered_trace.exists()
        aligned, candidate = align_traces(
            read_trace(baseline_trace), read_trace(recovered_trace))
        assert candidate
        diff = diff_traces(aligned, candidate)
        assert diff.identical, diff.format_report()

    def test_journal_excludes_one_shot_snapshot(self, capsys,
                                                tmp_path):
        code = main(self.ARGS + ["--journal",
                                 str(tmp_path / "j.jsonl"),
                                 "--snapshot-at", "10"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_checkpoint_every_needs_a_directory(self, capsys,
                                                tmp_path):
        code = main(self.ARGS + ["--journal",
                                 str(tmp_path / "j.jsonl"),
                                 "--checkpoint-every", "10"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ARGS, ["serve", "--port", "0", "--advertisers", "30",
               "--slots", "3", "--keywords", "2"]],
        ids=["stream", "serve"])
    def test_checkpoint_flags_need_a_journal(self, command, capsys,
                                             tmp_path):
        """`stream` used to exit 0 and write nothing here; both
        commands refuse with the same words and exit code."""
        checkpoints = tmp_path / "checkpoints"
        code = main(command + ["--checkpoint-every", "5",
                               "--checkpoint-dir", str(checkpoints)])
        assert code == 2
        assert "checkpoints need --journal" in capsys.readouterr().err
        assert not checkpoints.exists()

    def test_recover_reports_failure_cleanly(self, capsys,
                                             tmp_path):
        code = main(["recover", "--journal",
                     str(tmp_path / "missing.jsonl")])
        assert code == 1
        assert "recovery failed" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestServiceFlagSets:
    """``stream`` and ``serve`` draw their shared flags from one
    helper; these literals are the two subparsers' option strings and
    defaults as of the commit before it existed, so the helper
    provably adds, drops and re-defaults nothing."""

    SHARED = {
        "--advertisers": 200, "--slots": 15, "--keywords": 10,
        "--method": "rh", "--maintenance": "incremental",
        "--workers": 0, "--seed": 0, "--batch-window": 0,
        "--record-events": None, "--trace": None, "--journal": None,
        "--checkpoint-every": 0, "--checkpoint-dir": None,
        "--checkpoint-retain": 2, "--metrics-out": None,
        "--trace-spans": None, "--metrics-every": 100,
    }
    STREAM = {
        **SHARED, "--ingress-capacity": 64,
        "--events": 400, "--churn-rate": 0.1, "--genesis": None,
        "--min-active": 2, "--budget-low": 50.0,
        "--budget-high": 500.0, "--snapshot-at": 0,
        "--snapshot-file": None, "--replay": None,
        "--supervise": False, "--round-timeout": None,
        "--max-worker-restarts": 1, "--backpressure": "delay",
        "--arrival-rate": 1.0,
    }
    SERVE = {
        **SHARED, "--ingress-capacity": 256,
        "--host": "127.0.0.1", "--port": 0, "--port-file": None,
    }

    @pytest.mark.parametrize("command,expected", [
        ("stream", STREAM), ("serve", SERVE)])
    def test_options_and_defaults_are_frozen(self, command, expected):
        from repro.cli import build_parser

        subparsers = next(
            action for action in build_parser()._actions
            if action.dest == "command")
        flags = {}
        for action in subparsers.choices[command]._actions:
            if action.dest != "help":
                assert len(action.option_strings) == 1
                flags[action.option_strings[0]] = action.default
        assert flags == expected
