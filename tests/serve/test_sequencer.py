"""Satellite 2: the ingress sequencer's ordering contract.

The sequencer's promise is the whole serving story: *any*
interleaving of concurrent submissions becomes one total order that
is (a) contiguous, (b) per-connection FIFO, and (c) — the property
test — produces a recorded stream whose JSONL round-trip replays
bit-identically offline for all four auction methods.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import event_from_payload
from repro.serve.sequencer import IngressSequencer
from repro.stream.events import EventLog
from repro.stream.service import SERVICE_METHODS
from repro.workloads import LoadgenConfig, plan_fleet
from repro.workloads.paper_workload import PaperWorkloadConfig

from ..stream.oracle import assert_outcomes_agree, run_service


class TestTotalOrder:
    def test_concurrent_submitters_get_a_contiguous_total_order(self):
        sequencer = IngressSequencer(capacity=1024)
        threads = 8
        per_thread = 40

        def submitter(conn_id: int) -> None:
            for index in range(per_thread):
                sequencer.submit(("conn", conn_id, index),
                                 conn_id=conn_id, tag=index)

        pool = [threading.Thread(target=submitter, args=(conn,))
                for conn in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        sequencer.close()
        taken = []
        while (item := sequencer.take()) is not None:
            taken.append(item)
        # Totality: every stamp present, exactly once, contiguous.
        assert [item.seq for item in taken] \
            == list(range(threads * per_thread))
        # Per-connection FIFO: each connection's tags stay sorted.
        for conn in range(threads):
            tags = [item.tag for item in taken
                    if item.conn_id == conn]
            assert tags == list(range(per_thread))
        assert sequencer.submitted == threads * per_thread
        assert sequencer.take() is None
        assert sequencer.drained is True

    def test_take_returns_none_only_after_close_and_drain(self):
        sequencer = IngressSequencer(capacity=8)
        sequencer.submit("a")
        sequencer.submit("b")
        sequencer.close()
        assert sequencer.take().event == "a"
        assert sequencer.take().event == "b"
        assert sequencer.take() is None
        assert sequencer.take() is None  # stays drained

    def test_try_take_never_blocks(self):
        sequencer = IngressSequencer(capacity=8)
        assert sequencer.try_take() is None
        sequencer.submit("a")
        assert sequencer.try_take().event == "a"
        assert sequencer.try_take() is None

    def test_submit_after_close_raises(self):
        sequencer = IngressSequencer(capacity=8)
        sequencer.close()
        with pytest.raises(RuntimeError):
            sequencer.submit("late")

    def test_bounded_queue_applies_backpressure(self):
        sequencer = IngressSequencer(capacity=2)
        sequencer.submit("a")
        sequencer.submit("b")
        unblocked = threading.Event()

        def third() -> None:
            sequencer.submit("c")
            unblocked.set()

        thread = threading.Thread(target=third, daemon=True)
        thread.start()
        assert not unblocked.wait(0.1)  # full queue blocks the put
        assert sequencer.take().event == "a"
        assert unblocked.wait(5)  # one take frees one slot
        thread.join(5)


class TestTrySubmit:
    """The non-blocking way in (the wire server's reader tasks)."""

    def test_returns_none_when_full_and_raises_once_closed(self):
        sequencer = IngressSequencer(capacity=2)
        assert sequencer.try_submit("a").seq == 0
        assert sequencer.try_submit("b").seq == 1
        assert sequencer.try_submit("c") is None  # full: not stamped
        assert sequencer.submitted == 2
        assert sequencer.take().event == "a"
        assert sequencer.try_submit("c").seq == 2
        sequencer.close()
        with pytest.raises(RuntimeError):
            sequencer.try_submit("late")
        assert [sequencer.take().event, sequencer.take().event] \
            == ["b", "c"]
        assert sequencer.take() is None

    def test_on_space_fires_once_per_refusal_at_the_low_water_mark(
            self):
        sequencer = IngressSequencer(capacity=4)
        calls = []
        sequencer.on_space = lambda: calls.append(sequencer.depth())
        for name in "abcd":
            sequencer.try_submit(name)
        sequencer.take()
        assert calls == []  # nobody was refused: the hook is free
        sequencer.try_submit("e")
        assert sequencer.try_submit("f") is None
        assert sequencer.try_submit("g") is None
        sequencer.take()
        assert calls == []  # 3 of 4 queued: above the mark
        sequencer.take()
        assert calls == [2]  # half empty: one call for both refusals
        sequencer.take()
        assert calls == [2]

    def test_a_single_slot_queue_wakes_on_every_take(self):
        sequencer = IngressSequencer(capacity=1)
        calls = []
        sequencer.on_space = lambda: calls.append(True)
        sequencer.try_submit("a")
        assert sequencer.try_submit("b") is None
        assert sequencer.take().event == "a"
        assert calls == [True]

    def test_stamps_stay_contiguous_when_both_ways_in_interleave(
            self):
        """The stress test for the shared stamping routine: more
        submitters than cores, a shortened switch interval, a small
        queue so both ways in keep hitting the full case."""
        sequencer = IngressSequencer(capacity=4)
        per_thread = 300
        space = threading.Event()
        sequencer.on_space = space.set

        def blocking(conn_id: int) -> None:
            for index in range(per_thread):
                sequencer.submit(index, conn_id=conn_id, tag=index)

        def polling(conn_id: int) -> None:
            for index in range(per_thread):
                while sequencer.try_submit(
                        index, conn_id=conn_id, tag=index) is None:
                    space.wait(0.01)
                    space.clear()

        pool = [threading.Thread(target=target, args=(conn,))
                for conn, target in enumerate(
                    [blocking, polling] * 3)]
        taken = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in pool:
                thread.start()
            deadline = time.monotonic() + 60
            while len(taken) < len(pool) * per_thread \
                    and time.monotonic() < deadline:
                item = sequencer.try_take()
                if item is not None:
                    taken.append(item)
            for thread in pool:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert [item.seq for item in taken] \
            == list(range(len(pool) * per_thread))
        for conn in range(len(pool)):
            assert [item.tag for item in taken
                    if item.conn_id == conn] \
                == list(range(per_thread))


# -- the interleaving property (satellite 2) -------------------------------

_WORKLOAD = PaperWorkloadConfig(num_advertisers=10, num_slots=2,
                                num_keywords=2, seed=3)
_PLAN = plan_fleet(_WORKLOAD, LoadgenConfig(
    events=12, seed=3, processes=1, connections=2, consoles=2))
_SCRIPTS = _PLAN.scripts()
_SLOTS = [index for index, script in enumerate(_SCRIPTS)
          for _ in script]
_ENGINE_SEED = 11


@pytest.fixture(scope="module")
def logdir(tmp_path_factory):
    return tmp_path_factory.mktemp("sequencer-logs")


class TestInterleavingProperty:
    @settings(max_examples=8, deadline=None)
    @given(order=st.permutations(_SLOTS))
    def test_any_interleaving_replays_bit_identically(self, order,
                                                      logdir):
        # One drawn interleaving of the fleet's concurrent scripts,
        # submitted through the sequencer exactly as reader tasks
        # would race to.
        sequencer = IngressSequencer(capacity=256)
        for payload in _PLAN.genesis:
            sequencer.submit(event_from_payload(payload), conn_id=99)
        cursors = [0] * len(_SCRIPTS)
        for conn in order:
            payload = _SCRIPTS[conn][cursors[conn]]
            cursors[conn] += 1
            sequencer.submit(event_from_payload(payload), conn_id=conn)
        sequencer.close()
        sequenced = []
        while (item := sequencer.take()) is not None:
            sequenced.append(item)
        # (a) contiguous total order.
        assert [item.seq for item in sequenced] \
            == list(range(len(sequenced)))
        # (b) per-connection FIFO: each script came out in its own
        # submission order.
        for conn, script in enumerate(_SCRIPTS):
            mine = [item.event for item in sequenced
                    if item.conn_id == conn]
            assert mine == [event_from_payload(p) for p in script]
        # (c) the recorded log's JSONL round-trip replays offline
        # bit-identically, for every auction method.
        events = [item.event for item in sequenced]
        log = EventLog()
        for event in events:
            log.append(event)
        path = logdir / "sequenced.jsonl"
        log.to_jsonl(path)
        replayed = list(EventLog.from_jsonl(path))
        assert replayed == events
        for method in SERVICE_METHODS:
            live = run_service(_WORKLOAD, events, method=method,
                               engine_seed=_ENGINE_SEED)
            offline = run_service(_WORKLOAD, replayed, method=method,
                                  engine_seed=_ENGINE_SEED)
            assert_outcomes_agree(live, offline)
