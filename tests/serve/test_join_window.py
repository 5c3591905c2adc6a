"""Join windows at the wire: a pipelined genesis is applied as a few
bulk joins, not one join at a time.

The apply thread takes each run of queued, admitted joins as one
window (:meth:`~repro.stream.service.OnlineAuctionService
.process_window`) and cuts it at a join for an advertiser already in
the window, which is then refused exactly as an unwindowed server
refuses it.  Each join keeps its own seq, journal line and reply, and
the recorded stream replays one event at a time offline to the same
trace.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from repro.serve import ServeConfig, protocol
from repro.stream import OnlineAuctionService, diff_traces, scan_journal
from repro.stream.events import QueryArrival
from repro.workloads.paper_workload import PaperWorkloadConfig

from ..stream.oracle import run_service
from .harness import LiveServer, churn_events, read_replies

_SETTINGS = dict(advertisers=80, slots=3, keywords=3, seed=5,
                 method="rhtalu")
_CONFIG = PaperWorkloadConfig(num_advertisers=80, num_slots=3,
                              num_keywords=3, seed=5)
_ENGINE_SEED = 6  # the serve CLI convention: seed + 1


def test_pipelined_genesis_shares_windows(tmp_path, monkeypatch):
    """Pipeline a genesis with a duplicate join right behind its first
    one, plus churn, while the apply thread is held until all of it is
    queued: the genesis applies as two windows (the duplicate cuts the
    run), the duplicate is refused and neither journaled nor recorded,
    the server keeps serving, and the live trace equals an offline
    one-at-a-time replay."""
    stream = churn_events(_CONFIG, events=60)
    genesis = stream[:40]
    script = [*genesis[:10], genesis[9], *genesis[10:], *stream[40:]]
    queued = threading.Event()
    inner = OnlineAuctionService.check

    def held_until_queued(service, event):
        assert queued.wait(60)
        return inner(service, event)

    monkeypatch.setattr(OnlineAuctionService, "check",
                        held_until_queued)
    live = LiveServer(ServeConfig(
        **_SETTINGS, journal=str(tmp_path / "journal.jsonl"),
        metrics_out=str(tmp_path / "metrics.jsonl")))
    try:
        with socket.create_connection(("127.0.0.1", live.port),
                                      timeout=30) as sock:
            sock.sendall(b"".join(
                protocol.encode_frame(protocol.event_to_payload(
                    event, tag=tag)) for tag, event in enumerate(script)))
            deadline = time.monotonic() + 30
            while live.server.sequencer.submitted < len(script):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            queued.set()
            replies = read_replies(sock.makefile("rb"), len(script))
        with live.client() as client:  # still serving
            assert client.submit(QueryArrival("kw0"))["type"] == "result"
            client.bye()
    finally:
        queued.set()
        live.stop()
    assert live.exit_code == 0
    assert [reply["tag"] for reply in replies] == list(range(len(script)))
    refused = replies[10]
    assert refused["type"] == "error" and refused["code"] == "rejected"
    assert "already active" in refused["detail"]
    assert all(reply["type"] in ("ok", "result")
               for index, reply in enumerate(replies) if index != 10)

    applied = list(live.server.applied)
    assert applied[:-1] == [*genesis, *stream[40:]]
    journaled = [entry.event for entry in
                 scan_journal(tmp_path / "journal.jsonl").entries
                 if entry.origin == "input"]
    assert journaled == applied
    metrics = live.server._service.metrics.to_dict()
    joins = metrics["counters"]["service.events.join"]
    windows = metrics["histograms"]["latency.join_window"]["count"]
    assert joins >= len(genesis) and windows < joins
    assert windows <= joins - len(genesis) + 2
    summary = [json.loads(line) for line in
               (tmp_path / "metrics.jsonl").read_text().splitlines()][-1]
    assert summary["metrics"]["histograms"]["latency.join_window"][
        "count"] == windows

    offline = run_service(_CONFIG, applied, method="rhtalu",
                          engine_seed=_ENGINE_SEED)
    assert diff_traces(offline.records, live.server.records).identical
