"""Group commit at the wire: an acknowledged event is an fsync'd one.

The wire server applies while events are queued, holds their replies
on the apply thread, and commits the journal once per group just
before it would block (:mod:`repro.serve.server`, "The group
boundary").  What that must never change:

* **ack implies durable** — no reply leaves the process ahead of an
  ``fsync`` covering its event's journal line, whatever the arrival
  schedule;
* **the journal's bytes** — a flooded served run writes exactly the
  file an offline :meth:`DurableAuctionService.run` writes for the
  stream it recorded;
* **a lone event still commits alone** — one-at-a-time traffic pays
  one fsync per event, a flood strictly fewer;
* **a death before the barrier** (``journal-pre-sync``) — leaves no
  client holding an ack for a line that a power cut could have taken,
  and recovers to the uninterrupted trace.
"""

from __future__ import annotations

import json
import socket
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ServeConfig, WireClient, protocol
from repro.serve.server import AuctionWireServer
from repro.stream import (
    DurableAuctionService,
    EventJournal,
    OnlineAuctionService,
    diff_traces,
    recover,
    scan_journal,
)
from repro.stream.crash import EXIT_CODE
from repro.stream.events import BudgetTopUp, QueryArrival
from repro.workloads.paper_workload import PaperWorkloadConfig

from .conftest import SMALL
from .harness import LiveServer, churn_events, read_replies

_CONFIG = PaperWorkloadConfig(
    num_advertisers=SMALL["advertisers"], num_slots=SMALL["slots"],
    num_keywords=SMALL["keywords"], seed=SMALL["seed"])
_ENGINE_SEED = SMALL["seed"] + 1
_GENESIS = churn_events(_CONFIG, events=0)
_ACTIVE = [event.advertiser for event in _GENESIS]


def _event(index: int):
    """A stream that is valid in any interleaving: queries, with a
    top-up (a control event, acked not answered) every fifth."""
    if index % 5 == 4:
        return BudgetTopUp(advertiser=_ACTIVE[index % len(_ACTIVE)],
                           amount=5.0)
    return QueryArrival(keyword=f"kw{index % SMALL['keywords']}")


def _frame(event, tag) -> bytes:
    return protocol.encode_frame(
        protocol.event_to_payload(event, tag=tag))


def _bootstrap(live: LiveServer) -> None:
    with live.client() as client:
        for index, event in enumerate(_GENESIS):
            assert client.submit(event, tag=index)["type"] == "ok"
        client.bye()


def _durable_server(tmp: Path, **overrides) -> LiveServer:
    return LiveServer(ServeConfig(
        **SMALL, journal=str(tmp / "journal.jsonl"), **overrides))


class _Ledger:
    """What the journal and the sockets did, in the order it happened
    (``list.append`` is atomic, and the two writers are the apply
    thread and the loop thread)."""

    def __init__(self, monkeypatch_context) -> None:
        self.log: list[tuple] = []
        append, sync = EventJournal.append, EventJournal.sync
        write = AuctionWireServer._write
        ledger = self

        def logged_append(journal, seq, event, origin="input"):
            append(journal, seq, event, origin=origin)
            if origin == "input":
                ledger.log.append(("line", seq))

        def logged_sync(journal):
            real = journal.unsynced > 0
            sync(journal)
            if real:
                # A reply handed to the loop ahead of its barrier
                # would be written in this gap.
                time.sleep(0.002)
                ledger.log.append(("sync",))

        def logged_write(server, conn, data):
            offset = 0
            while offset < len(data):
                (length,) = protocol.HEADER.unpack_from(data, offset)
                offset += protocol.HEADER.size
                payload = json.loads(data[offset:offset + length])
                offset += length
                if payload.get("type") in ("ok", "result"):
                    ledger.log.append(("reply", payload["seq"]))
            write(server, conn, data)

        monkeypatch_context.setattr(EventJournal, "append",
                                    logged_append)
        monkeypatch_context.setattr(EventJournal, "sync", logged_sync)
        monkeypatch_context.setattr(AuctionWireServer, "_write",
                                    logged_write)

    @property
    def syncs(self) -> int:
        return sum(entry == ("sync",) for entry in self.log)

    def assert_every_reply_follows_its_barrier(self) -> int:
        written: set[int] = set()
        durable: set[int] = set()
        replies = 0
        for entry in self.log:
            if entry[0] == "line":
                written.add(entry[1])
            elif entry[0] == "sync":
                durable |= written
            else:
                assert entry[1] in durable, \
                    f"seq {entry[1]} answered before its fsync"
                replies += 1
        return replies


# One step = (connection, how many events it pipelines back to back).
_SCHEDULES = st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, 12)),
    min_size=1, max_size=10)


class TestAckImpliesDurable:
    @settings(max_examples=12, deadline=None)
    @given(schedule=_SCHEDULES,
           connections=st.integers(1, 3))
    def test_no_reply_precedes_its_fsync(self, schedule, connections):
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as patch:
            ledger = _Ledger(patch)
            live = _durable_server(Path(tmp))
            try:
                _bootstrap(live)
                socks = [socket.create_connection(
                    ("127.0.0.1", live.port), timeout=30)
                    for _ in range(connections)]
                owed = [0] * connections
                sent = 0
                for conn, burst in schedule:
                    conn %= connections
                    socks[conn].sendall(b"".join(
                        _frame(_event(sent + offset), sent + offset)
                        for offset in range(burst)))
                    owed[conn] += burst
                    sent += burst
                for sock, count in zip(socks, owed):
                    replies = read_replies(sock.makefile("rb"), count)
                    assert all(reply["type"] != "error"
                               for reply in replies)
                    sock.close()
            finally:
                live.stop()
            assert live.exit_code == 0
            answered = ledger.assert_every_reply_follows_its_barrier()
            assert answered == len(_GENESIS) + sent
            assert ledger.syncs <= len(_GENESIS) + sent


class TestJournalBytesAndBarriers:
    def test_flooded_journal_equals_the_offline_journal(
            self, tmp_path, monkeypatch):
        ledger = _Ledger(monkeypatch)
        live = _durable_server(
            tmp_path, checkpoint_every=25,
            checkpoint_dir=str(tmp_path / "ckpt"),
            metrics_out=str(tmp_path / "metrics.jsonl"),
            trace_spans=str(tmp_path / "spans.jsonl"))
        _bootstrap(live)
        events = [_event(index) for index in range(200)]
        with socket.create_connection(("127.0.0.1", live.port),
                                      timeout=30) as sock:
            sock.sendall(b"".join(
                _frame(event, index)
                for index, event in enumerate(events)))
            read_replies(sock.makefile("rb"), len(events))
        live.stop()
        applied = list(live.server.applied)
        assert applied == [*_GENESIS, *events]
        # A flood really was grouped...
        assert ledger.syncs < len(applied)
        ledger.assert_every_reply_follows_its_barrier()
        # ...the sidecars say so in the two numbers the benchmark
        # divides (lines / real fsyncs), and each barrier is one
        # ``journal-fsync`` span whose ``entries`` add up to the lines.
        lines = len(scan_journal(tmp_path / "journal.jsonl").entries)
        metrics = live.server._service.metrics.to_dict()
        assert metrics["counters"]["journal.appends"] == lines
        assert metrics["histograms"]["latency.journal_fsync"][
            "count"] == ledger.syncs
        barriers = [
            child["attrs"]["entries"]
            for line in (tmp_path / "spans.jsonl").read_text()
            .splitlines()
            for child in json.loads(line).get("children", ())
            if child["name"] == "journal-fsync"]
        assert len(barriers) == ledger.syncs
        assert sum(barriers) == lines

        # ...and grouping is invisible in the file.
        offline_path = tmp_path / "offline.jsonl"
        with DurableAuctionService.open(
                _CONFIG, offline_path, method="rh",
                engine_seed=_ENGINE_SEED) as offline:
            offline.run(applied)
        assert (tmp_path / "journal.jsonl").read_bytes() \
            == offline_path.read_bytes()

    def test_one_at_a_time_is_one_fsync_per_event(self, tmp_path,
                                                  monkeypatch):
        ledger = _Ledger(monkeypatch)
        live = _durable_server(tmp_path)
        _bootstrap(live)
        with live.client() as client:
            for index in range(30):
                client.submit(_event(index), tag=index)
            client.bye()
        live.stop()
        assert ledger.syncs == len(live.server.applied) \
            == len(_GENESIS) + 30


class TestDeathBeforeTheBarrier:
    def test_no_ack_outruns_the_journal_pre_sync_crash(
            self, serve_proc, tmp_path):
        """The 20th commit never happens: the process dies with the
        group's lines written and flushed but not fsync'd.  The
        client must hold no ack for that group, the lines (which a
        process death keeps) replay, and the resumed run converges."""
        server = serve_proc(crash="journal-pre-sync@20",
                            checkpoint_every=8)
        script = [*_GENESIS, *(_event(index) for index in range(40))]
        acked: list[int] = []
        try:
            with WireClient("127.0.0.1", server.port,
                            timeout=30.0) as client:
                for index, event in enumerate(script):
                    reply = client.submit(event, tag=index)
                    acked.append(reply["seq"])
        except (OSError, ValueError, RuntimeError):
            pass  # the server died under us — that is the point
        code, _, err = server.finish()
        assert code == EXIT_CODE, err
        # One-at-a-time traffic commits per event, so the 20th
        # barrier belongs to the 20th event alone.
        assert acked == list(range(19))

        journaled = [entry.seq for entry
                     in scan_journal(server.journal).entries
                     if entry.origin == "input"]
        assert journaled == list(range(20))  # the line survived...
        assert max(acked) < journaled[-1]    # ...but was never acked

        baseline = OnlineAuctionService(_CONFIG, method="rh",
                                        engine_seed=_ENGINE_SEED)
        result = recover(server.journal,
                         checkpoint_dir=server.checkpoint_dir)
        try:
            expected = baseline.run(script)
            assert result.events_processed == 20
            assert result.checkpoint_events == 16
            tail = result.service.run(script[20:])
            recovered = result.records + tail
            assert diff_traces(expected[-len(recovered):],
                               recovered).identical
            assert dict(result.service.registry.balances()) \
                == dict(baseline.registry.balances())
        finally:
            result.service.close()
            baseline.close()


class TestReleasePolicy:
    @pytest.mark.parametrize("durable", [False, True],
                             ids=["in-memory", "journaled"])
    def test_only_a_commit_makes_an_answer_wait_for_a_burst_mate(
            self, tmp_path, monkeypatch, durable):
        """Two queries arrive together and the second one's auction
        stalls.  Without a journal the first answer is ready and
        leaves at once; with one it is an uncommitted event's reply
        and waits for the group's fsync."""
        gate = threading.Event()
        calls = []
        inner = OnlineAuctionService.process

        def second_query_stalls(service, event):
            if isinstance(event, QueryArrival):
                calls.append(event)
                if len(calls) == 1:
                    # "Together": the burst-mate is queued before the
                    # first auction ends.
                    deadline = time.monotonic() + 30
                    while live.server.sequencer.submitted \
                            < len(_GENESIS) + 2:
                        assert time.monotonic() < deadline
                        time.sleep(0.001)
                else:
                    assert gate.wait(60)
            return inner(service, event)

        monkeypatch.setattr(OnlineAuctionService, "process",
                            second_query_stalls)
        live = _durable_server(tmp_path) if durable \
            else LiveServer(ServeConfig(**SMALL))
        try:
            _bootstrap(live)
            with socket.create_connection(("127.0.0.1", live.port),
                                          timeout=30) as sock:
                sock.sendall(_frame(_event(0), 0) + _frame(_event(1), 1))
                stream = sock.makefile("rb")
                deadline = time.monotonic() + 30
                while len(calls) < 2:  # the second auction is stalled
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                sock.settimeout(0.3)
                if durable:
                    with pytest.raises(TimeoutError):
                        read_replies(stream, 1)
                    stream = sock.makefile("rb")  # poisoned by timeout
                    first = []
                else:
                    first = read_replies(stream, 1)
                    assert first[0]["tag"] == 0
                sock.settimeout(30)
                gate.set()
                rest = read_replies(stream, 2 - len(first))
            assert [reply["tag"] for reply in first + rest] == [0, 1]
        finally:
            gate.set()
            live.stop()


class TestReplyBatching:
    def test_one_wake_up_and_one_write_per_connection(
            self, serve_factory, monkeypatch):
        """Part (c), made deterministic by stalling each side in
        turn: with the loop busy, fifty releases schedule exactly one
        wake-up (none while one is pending); once it runs, the fifty
        frames leave in a single write."""
        service_gate = threading.Event()
        inner = OnlineAuctionService.process

        def gated(service, event):
            assert service_gate.wait(60)
            return inner(service, event)

        service_gate.set()
        monkeypatch.setattr(OnlineAuctionService, "process", gated)
        writes = []
        write = AuctionWireServer._write
        monkeypatch.setattr(
            AuctionWireServer, "_write",
            lambda server, conn, data: (
                writes.append((conn.conn_id, data)),
                write(server, conn, data))[1])
        live = serve_factory()
        _bootstrap(live)
        applied_before = len(live.server.applied)

        service_gate.clear()  # the apply thread stalls on event 1
        events = [_event(index) for index in range(50)]
        with socket.create_connection(("127.0.0.1", live.port),
                                      timeout=30) as sock:
            sock.sendall(b"".join(
                _frame(event, index)
                for index, event in enumerate(events)))
            deadline = time.monotonic() + 30
            while live.server.sequencer.submitted \
                    < applied_before + len(events):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            # Every frame is sequenced; now stall the loop instead.
            loop = live.server._loop
            loop_gate = threading.Event()
            wakes = []
            schedule = loop.call_soon_threadsafe
            schedule(loop_gate.wait, 60)
            loop.call_soon_threadsafe = lambda callback, *args: (
                wakes.append(callback.__name__),
                schedule(callback, *args))[1]
            del writes[:]
            service_gate.set()
            while len(live.server.applied) \
                    < applied_before + len(events):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            time.sleep(0.05)  # let the last release land
            assert wakes.count("_flush_outbox") == 1
            assert writes == []  # nothing left before the loop ran
            loop.call_soon_threadsafe = schedule
            loop_gate.set()
            replies = read_replies(sock.makefile("rb"), len(events))
            assert len(writes) == 1  # fifty frames, one write
        assert [reply["tag"] for reply in replies] \
            == list(range(len(events)))
        live.stop()
