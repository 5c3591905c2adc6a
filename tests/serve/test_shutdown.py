"""Satellite 3: graceful shutdown and the ``serve-mid-frame`` chaos
site.

SIGTERM against a live ``repro serve`` subprocess must drain in-flight
connections, flush the batcher and journal, land a final checkpoint,
and exit 0 — and an armed :data:`repro.stream.crash.ENV_VAR` crash at
``serve-mid-frame`` (between a frame's length header and its body)
must die with the fault-injection exit code and leave a journal +
checkpoint pair that ``repro recover`` restores cleanly.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.serve import WireClient, protocol
from repro.stream.crash import ENV_VAR, EXIT_CODE
from repro.stream.events import EventLog, QueryArrival
from repro.stream.snapshot import CHECKPOINT_PREFIX
from repro.workloads.paper_workload import PaperWorkloadConfig

from .conftest import SMALL
from .harness import REPO, SRC, ServeProcess, churn_events

_CONFIG = PaperWorkloadConfig(
    num_advertisers=SMALL["advertisers"], num_slots=SMALL["slots"],
    num_keywords=SMALL["keywords"], seed=SMALL["seed"])


def _recover(proc: ServeProcess, trace: Path) -> \
        subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop(ENV_VAR, None)
    return subprocess.run(
        [sys.executable, "-m", "repro", "recover",
         "--journal", str(proc.journal),
         "--checkpoint-dir", str(proc.checkpoint_dir),
         "--workers", "0",
         "--trace", str(trace)],
        cwd=REPO, env=env, capture_output=True, text=True,
        timeout=240)


class TestGracefulShutdown:
    def test_sigterm_drains_flushes_and_exits_zero(self, serve_proc,
                                                   tmp_path):
        server = serve_proc()
        events = churn_events(_CONFIG, events=25)
        with WireClient("127.0.0.1", server.port,
                        timeout=30.0) as client:
            for index, event in enumerate(events):
                client.submit(event, tag=index)
            client.bye()
        server.proc.send_signal(signal.SIGTERM)
        code, out, err = server.finish()
        assert code == 0, err
        assert "clean shutdown (SIGTERM)" in out
        # Every applied event reached the journal and the record…
        recorded = list(EventLog.from_jsonl(server.record))
        assert recorded == events
        # …and the drain landed a *final* checkpoint at the full
        # watermark, beyond the periodic cadence.
        checkpoints = server.checkpoints()
        assert checkpoints, "no final checkpoint written"
        watermark = int(
            checkpoints[-1].stem[len(CHECKPOINT_PREFIX):])
        assert watermark == len(events)
        # The journal + checkpoints restore without complaint.
        result = _recover(server, tmp_path / "recovered.jsonl")
        assert result.returncode == 0, result.stderr

    def test_sigterm_with_no_traffic_still_exits_zero(self,
                                                      serve_proc):
        server = serve_proc()
        server.proc.send_signal(signal.SIGTERM)
        code, out, err = server.finish()
        assert code == 0, err
        assert "clean shutdown (SIGTERM)" in out


    def test_sigterm_while_a_reader_is_parked_still_exits_zero(
            self, serve_proc):
        """A two-slot ingress queue under a pipelined flood keeps the
        connection's reader parked on the space future nearly all the
        time; SIGTERM mid-flood must cancel it and still drain."""
        server = serve_proc(extra_args=("--ingress-capacity", "2"))
        genesis = churn_events(_CONFIG, events=0)
        queries = [QueryArrival(keyword=f"kw{index % 3}")
                   for index in range(20_000)]
        script = [*genesis, *queries]
        flood = b"".join(
            protocol.encode_frame(
                protocol.event_to_payload(event, tag=index))
            for index, event in enumerate(script))
        with WireClient("127.0.0.1", server.port,
                        timeout=30.0) as client:
            client.send_raw(flood)  # the whole script, nothing read
            # A reply proves the apply thread is mid-stream with the
            # backlog still behind it.
            assert client.read_frame()["type"] in ("ok", "result")
            server.proc.send_signal(signal.SIGTERM)
            code, out, err = server.finish()
        assert code == 0, err
        assert "clean shutdown (SIGTERM)" in out
        recorded = list(EventLog.from_jsonl(server.record))
        # It really was mid-flood, and what was applied is the
        # connection's own order with nothing skipped or doubled.
        assert 1 <= len(recorded) < len(script)
        assert recorded == script[:len(recorded)]


class TestPoisonFramesUnderJournal:
    def test_rejected_frames_never_reach_the_journal(self, serve_proc):
        """A join with ``target <= 0`` or an update with ``maxbid <
        0`` used to be journaled, raise inside the backend, stop the
        server with exit 1, and then block ``recover()`` on the line
        it left behind.  One rule in front of the journal: three
        ``rejected`` replies, a clean drain, a journal recovery can
        read."""
        from dataclasses import replace

        from repro.stream import recover, scan_journal
        from repro.stream.events import BidProgramUpdate

        server = serve_proc()
        good = churn_events(_CONFIG, events=0)[0]
        free = SMALL["advertisers"] - 1
        script = [
            good,
            replace(good, advertiser=free, target=0),
            replace(good, advertiser=free, target=-1),
            BidProgramUpdate(good.advertiser, "kw0", bid=1.0,
                             maxbid=-1),
            QueryArrival(keyword="kw0"),
        ]
        with WireClient("127.0.0.1", server.port,
                        timeout=30.0) as client:
            replies = [client.submit(event, tag=index)
                       for index, event in enumerate(script)]
            client.bye()
        assert [reply["type"] for reply in replies] \
            == ["ok", "error", "error", "error", "result"]
        assert {reply["code"] for reply in replies[1:4]} \
            == {"rejected"}
        server.proc.send_signal(signal.SIGTERM)
        code, out, err = server.finish()
        assert code == 0, err
        assert "clean shutdown (SIGTERM)" in out
        inputs = [entry.event for entry
                  in scan_journal(server.journal).entries
                  if entry.origin == "input"]
        assert inputs == [script[0], script[4]]
        # From the final checkpoint, and by replaying the journal
        # alone (where a poison line used to raise).
        for checkpoint_dir in (server.checkpoint_dir, None):
            result = recover(server.journal,
                             checkpoint_dir=checkpoint_dir)
            try:
                assert result.events_processed == 2
            finally:
                result.service.close()


class TestServeMidFrameChaos:
    def test_crash_mid_frame_dies_hard_then_recovers(self, serve_proc,
                                                     tmp_path):
        # Die between the 30th frame's header and body — mid-ingest,
        # with journal entries and periodic checkpoints on disk.
        server = serve_proc(crash="serve-mid-frame@30")
        events = churn_events(_CONFIG, events=40)
        submitted = 0
        try:
            with WireClient("127.0.0.1", server.port,
                            timeout=30.0) as client:
                for index, event in enumerate(events):
                    client.submit(event, tag=index)
                    submitted += 1
                client.bye()
        except (OSError, ValueError, RuntimeError):
            pass  # the server died under us — that is the point
        code, _, err = server.finish()
        assert code == EXIT_CODE, err
        assert submitted < len(events)  # it really died mid-stream
        # The wreckage restores: journaled prefix + checkpoint agree.
        assert server.journal.exists()
        result = _recover(server, tmp_path / "recovered.jsonl")
        assert result.returncode == 0, result.stderr
        assert "checkpoint:" in result.stdout
        assert (tmp_path / "recovered.jsonl").exists()
