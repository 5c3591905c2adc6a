"""The serving tentpole's core claim, in-process: a live run recorded
over the wire replays bit-identically offline, and invalid events are
rejected *before* they can perturb the recorded stream.
"""

from __future__ import annotations

import select
import socket
import threading

import pytest

from repro.auction.trace import record_to_dict
from repro.bench import records_identical
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.protocol import event_to_payload
from repro.stream.events import AdvertiserJoin, QueryArrival
from repro.stream.service import OnlineAuctionService
from repro.workloads.paper_workload import PaperWorkloadConfig

from ..stream.invalid_events import invalid_events
from ..stream.oracle import assert_outcomes_agree, run_service
from .conftest import SMALL
from .harness import churn_events, read_replies

_CONFIG = PaperWorkloadConfig(
    num_advertisers=SMALL["advertisers"], num_slots=SMALL["slots"],
    num_keywords=SMALL["keywords"], seed=SMALL["seed"])
_ENGINE_SEED = SMALL["seed"] + 1  # the serve CLI convention


def _drive(live, events):
    """Replay ``events`` through one wire connection; returns the
    tagged replies in submission order."""
    replies = []
    with live.client() as client:
        for index, event in enumerate(events):
            replies.append(client.submit(event, tag=index))
        client.bye()
    return replies


def _frames(events, pad: str = "") -> list[bytes]:
    """One pre-encoded frame per event, tagged by position; ``pad``
    rides in the tag, which the reply echoes — the way to make frames
    (and replies) as large as a test needs."""
    return [protocol.encode_frame(
        event_to_payload(event, tag=f"{index}:{pad}"))
        for index, event in enumerate(events)]


def _queries(count: int) -> list[QueryArrival]:
    return [QueryArrival(keyword=f"kw{index % SMALL['keywords']}")
            for index in range(count)]


class TestLiveReplayBitIdentity:
    @pytest.mark.parametrize("overrides", [
        {},                     # plain in-process apply
        {"batch_window": 4},    # adaptive window coalescing
    ], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("method",
                             ["rh", "lp", "hungarian", "rhtalu"])
    def test_recorded_stream_replays_bit_identically(
            self, serve_factory, overrides, method):
        events = churn_events(_CONFIG, events=40)
        live = serve_factory(method=method, **overrides)
        replies = _drive(live, events)
        live.stop()
        assert live.exit_code == 0
        applied = list(live.server.applied)
        assert applied == events  # nothing dropped, nothing reordered
        offline = run_service(_CONFIG, applied, method=method,
                              engine_seed=_ENGINE_SEED)
        assert records_identical(live.server.records, offline.records)
        # Replies carry the applied-stream position and the exact
        # record the offline replay regenerates (timing stamps are
        # wall-clock and legitimately differ between runs).
        def decisions(record: dict) -> dict:
            return {key: value for key, value in record.items()
                    if not key.endswith("_seconds")}

        results = [reply for reply in replies
                   if reply["type"] == "result"]
        assert [decisions(reply["record"]) for reply in results] \
            == [decisions(record_to_dict(record))
                for record in offline.records]
        seqs = [reply["seq"] for reply in replies]
        assert seqs == list(range(len(events)))

    def test_sharded_serving_round_trips_and_replays(
            self, serve_factory):
        # The workers >= 1 path: shard workers must be spawned before
        # the listener opens (a lazily-forked worker would inherit
        # connection sockets and swallow their EOF).
        events = churn_events(_CONFIG, events=24)
        live = serve_factory(workers=2, batch_window=4)
        _drive(live, events)
        live.stop()
        assert live.exit_code == 0
        offline = run_service(_CONFIG, list(live.server.applied),
                              method="rh", engine_seed=_ENGINE_SEED)
        assert records_identical(live.server.records, offline.records)

    def test_concurrent_connections_record_one_replayable_order(
            self, serve_factory, tmp_path):
        # Real racing connections; whatever order the sequencer
        # stamps must replay bit-identically from its JSONL record.
        live = serve_factory()
        genesis = [event for event in churn_events(_CONFIG, events=0)
                   if isinstance(event, AdvertiserJoin)]
        with live.client() as boot:
            for index, event in enumerate(genesis):
                boot.submit(event, tag=index)
            boot.bye()
        keywords = [f"kw{i}" for i in range(SMALL["keywords"])]

        def query_script(conn: int) -> None:
            with live.client() as client:
                for index in range(10):
                    keyword = keywords[(conn + index) % len(keywords)]
                    client.submit(QueryArrival(keyword=keyword),
                                  tag=index)
                client.bye()

        pool = [threading.Thread(target=query_script, args=(conn,))
                for conn in range(4)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        live.stop()
        path = tmp_path / "events.jsonl"
        live.server.applied.to_jsonl(path)
        from repro.stream.events import EventLog
        replayed = list(EventLog.from_jsonl(path))
        assert replayed == list(live.server.applied)
        assert len(replayed) == len(genesis) + 40
        offline = run_service(_CONFIG, replayed, method="rh",
                              engine_seed=_ENGINE_SEED)
        assert records_identical(live.server.records, offline.records)


class TestRejection:
    """The service's one admission rule (``check``) is asked on the
    apply thread, in stamp order, before journal/record/apply — so a
    rejected event simply never existed as far as replay is
    concerned."""

    def _join(self, advertiser: int) -> AdvertiserJoin:
        arity = SMALL["keywords"]
        return AdvertiserJoin(
            advertiser=advertiser, target=0.5,
            bids=tuple(1.0 + i for i in range(arity)),
            maxbids=tuple(2.0 + i for i in range(arity)),
            values=tuple(3.0 + i for i in range(arity)), budget=50.0)

    def test_every_refused_family_replies_rejected_and_leaves_no_trace(
            self, serve_factory):
        # json.loads parses NaN / Infinity, so they reach the rule as
        # floats; one in the pacer arrays would poison the selection
        # partition and the argsort click index for every later
        # auction.
        good = self._join(0)
        cases = [case for case in invalid_events(
            self._join(1), active=0, capacity=SMALL["advertisers"],
            keyword=f"kw{SMALL['keywords'] - 1}") if case.wire]
        live = serve_factory()
        with live.client() as client:
            assert client.submit(good, tag=0)["type"] == "ok"
            for tag, case in enumerate(cases, start=1):
                reply = client.submit(case.event, tag=tag)
                assert reply["type"] == "error", case.label
                assert reply["code"] == "rejected", case.label
                # The sequential client has its reply, so the apply
                # thread is idle and the (pure) rule can be asked.
                error = live.server._service.check(case.event)
                assert isinstance(error, case.error), case.label
                assert reply["detail"] == error.args[0], case.label
                assert case.detail in reply["detail"], case.label
            # Still serving, and the population is untouched.
            assert client.submit(QueryArrival(keyword="kw0"),
                                 tag=99)["type"] == "result"
            client.bye()
        live.stop()
        assert live.exit_code == 0
        assert live.server.rejected == len(cases)
        assert list(live.server.applied) \
            == [good, QueryArrival(keyword="kw0")]

    @pytest.mark.parametrize("overrides", [
        {"method": "rh"}, {"method": "rhtalu"}, {"workers": 2},
    ], ids=["rh", "rhtalu", "workers2"])
    def test_poison_frames_are_rejected_not_fatal(
            self, serve_factory, overrides):
        """The two conditions every hand-kept mirror forgot: these
        frames used to pass validation, raise inside the backend and
        stop the server for every connected client."""
        from dataclasses import replace

        from repro.stream.events import BidProgramUpdate
        good = self._join(0)
        script = [
            good,
            replace(self._join(1), target=0),
            replace(self._join(1), target=-1),
            BidProgramUpdate(0, "kw0", bid=1.0, maxbid=-1),
            QueryArrival(keyword="kw0"),
        ]
        live = serve_factory(**overrides)
        with socket.create_connection(
                ("127.0.0.1", live.port), timeout=30) as sock:
            sock.sendall(b"".join(_frames(script)))  # pipelined
            replies = read_replies(sock.makefile("rb"), len(script))
        assert [reply["type"] for reply in replies] \
            == ["ok", "error", "error", "error", "result"]
        assert [reply["code"] for reply in replies[1:4]] \
            == ["rejected"] * 3
        assert "target spend rate must be > 0" in replies[1]["detail"]
        assert "target spend rate must be > 0" in replies[2]["detail"]
        assert "maxbid must be >= 0" in replies[3]["detail"]
        live.stop()
        assert live.exit_code == 0
        applied = list(live.server.applied)
        assert applied == [good, QueryArrival(keyword="kw0")]
        offline = run_service(
            _CONFIG, applied, method=overrides.get("method", "rh"),
            engine_seed=_ENGINE_SEED)
        assert records_identical(live.server.records, offline.records)


class TestExecutorFreeIngest:
    """Readers stamp on the loop thread; a full ingress queue parks
    the reader, which is what turns into TCP backpressure."""

    def test_no_pool_thread_after_a_thousand_events(
            self, serve_factory):
        live = serve_factory()
        script = [*churn_events(_CONFIG, events=0), *_queries(1000)]
        with socket.create_connection(
                ("127.0.0.1", live.port), timeout=30) as sock:
            sock.sendall(b"".join(_frames(script)))
            replies = read_replies(sock.makefile("rb"), len(script))
        assert [reply["seq"] for reply in replies] \
            == list(range(len(script)))
        names = [thread.name for thread in threading.enumerate()]
        assert "serve-apply" in names
        assert not any(name.startswith("asyncio_")
                       for name in names), names
        live.stop()

    def test_full_queue_stalls_that_connection_only(
            self, serve_factory, monkeypatch):
        gate = threading.Event()
        inner = OnlineAuctionService.process

        def gated(service, event):
            assert gate.wait(60)
            return inner(service, event)

        monkeypatch.setattr(OnlineAuctionService, "process", gated)
        capacity = 2
        live = serve_factory(ingress_capacity=capacity)
        # 16 KB tags: ~10 MB of requests, more than loopback socket
        # buffers absorb, so the sender can only finish if the
        # server keeps reading.
        script = [*churn_events(_CONFIG, events=0), *_queries(600)]
        data = memoryview(b"".join(_frames(script, pad="x" * 16384)))
        sock = socket.create_connection(("127.0.0.1", live.port),
                                        timeout=60)
        try:
            sock.setblocking(False)
            sent = 0
            while sent < len(data):
                if not select.select([], [sock], [], 1.0)[1]:
                    break  # not writable for a second: stalled
                sent += sock.send(data[sent:sent + 65536])
            assert sent < len(data), \
                "the whole script was read with the service blocked"
            # One event inside the gated apply, a full queue, one
            # frame in the parked reader's hands — and not one more.
            assert live.server.frames == capacity + 2
            assert len(live.server.applied) == 0
            # The loop itself is not stalled: others connect fine.
            with live.client() as other:
                assert other.welcome["type"] == "welcome"
            assert live.server.frames == capacity + 2

            gate.set()
            sock.setblocking(True)
            replies: list[dict] = []
            reader = threading.Thread(
                target=lambda: replies.extend(read_replies(
                    sock.makefile("rb"), len(script))))
            reader.start()
            sock.sendall(data[sent:])
            reader.join(60)
            assert not reader.is_alive()
        finally:
            gate.set()
            sock.close()
        live.stop()
        # Every frame applied exactly once, in the connection's order.
        assert [int(reply["tag"].split(":")[0]) for reply in replies] \
            == list(range(len(script)))
        assert all(reply["type"] in ("ok", "result")
                   for reply in replies)
        assert list(live.server.applied) == script


class TestSlowClient:
    def test_client_that_never_reads_is_dropped_alone(
            self, serve_factory, tmp_path, monkeypatch):
        # The real bound (32 MiB) with a proportionally smaller flood.
        monkeypatch.setattr(server_module, "MAX_WRITE_BACKLOG",
                            256 * 1024)
        live = serve_factory(
            metrics_out=str(tmp_path / "metrics.jsonl"))
        genesis = churn_events(_CONFIG, events=0)
        flood = _frames(_queries(2000), pad="x" * 32768)
        with live.client() as good:
            for index, event in enumerate(genesis):
                assert good.submit(event, tag=index)["type"] == "ok"
            slow = socket.create_connection(
                ("127.0.0.1", live.port), timeout=30)
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sent = 0
            try:
                for frame in flood:  # pipelined; nothing ever read
                    slow.sendall(frame)
                    sent += 1
            except OSError:
                pass  # dropped under us: the point
            finally:
                slow.close()
            assert sent < len(flood), "64 MB of replies were buffered"
            # The well-behaved client never noticed.
            during = [good.submit(query, tag=f"good-{index}")
                      for index, query in enumerate(_queries(5))]
            assert [reply["type"] for reply in during] \
                == ["result"] * 5
            good.bye()
        live.stop()
        assert live.exit_code == 0
        counters = live.server._service.metrics.to_dict()["counters"]
        assert counters["serve.errors.slow-client"] == 1
        # Its queries were sequenced and applied like anyone's; only
        # the replies had nowhere to go.  The record still replays.
        applied = list(live.server.applied)
        assert applied[:len(genesis)] == genesis
        offline = run_service(_CONFIG, applied, method="rh",
                              engine_seed=_ENGINE_SEED)
        assert records_identical(live.server.records, offline.records)
