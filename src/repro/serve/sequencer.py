"""The ingress sequencer: a total arrival order for concurrent frames.

The entire replay/oracle machinery downstream of the wire rests on one
invariant: the service consumes a *single ordered stream*, and its
output is a pure function of (that stream, the engine seed).  Client
frames, though, arrive concurrently — many connections, many reader
tasks, no inherent order.  The sequencer is the pinch point that
manufactures the order: under one lock it stamps each event with the
next sequence number **and** enqueues it, so the stamp and the queue
position can never disagree.  Whatever interleaving the network
produced, the stream the service sees — and the
:class:`~repro.stream.events.EventLog` a ``--record-events`` run
writes — is the total order the stamps describe, which is why a live
run's trace replays bit-identically offline.

Two orderings are guaranteed:

* **Totality** — stamps are contiguous from 0 and queue order equals
  stamp order (the lock covers both).
* **Per-connection FIFO** — a connection's reader submits its frames
  one at a time in arrival order, so each client's own events keep
  their relative order in the total order.  Cross-connection order is
  whatever the race produced; it is *an* order, made durable.

The queue is bounded, which (through the per-connection reader tasks)
becomes TCP backpressure on the offending clients — the same
admission-control story as :class:`~repro.stream.batching
.MicroBatcher`'s ingress queue, applied at the wire.  There are two
ways in, sharing one stamping routine:

* :meth:`submit` blocks while the queue is full — for synchronous
  callers that own their thread.
* :meth:`try_submit` never blocks — for the wire server's reader
  tasks, which stamp on the event-loop thread.  A full queue returns
  ``None`` and arms :attr:`IngressSequencer.on_space`: the consumer
  calls it once, from the :meth:`take` that leaves the queue at most
  half full, so the refused submitter learns that retrying is
  worthwhile and refills half a queue per wake-up, not one slot.
  Nothing is called while nobody was refused, so an uncontended
  hand-off pays nothing for the hook.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from repro.stream.events import Event


@dataclass
class SequencedEvent:
    """One stamped ingress event, en route to the service loop."""

    seq: int
    event: Event
    conn_id: int
    tag: Any = None
    arrival: float = field(default_factory=perf_counter)
    """``perf_counter`` at stamping — the start of the end-to-end
    latency the serve bench reports (the reply's hand-off to the event
    loop is the end)."""


class IngressSequencer:
    """Stamp-and-enqueue pinch point between reader tasks and the
    service loop."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.on_space: Callable[[], None] | None = None
        """Called (on the consumer's thread, outside the lock) once
        the queue is at most half full again after a
        :meth:`try_submit` found it full.  Set once, before the first
        submission."""
        self._items: deque[SequencedEvent] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._next_seq = 0
        self._closed = False
        self._refused = False

    @property
    def submitted(self) -> int:
        """How many events have been stamped so far."""
        with self._lock:
            return self._next_seq

    @property
    def drained(self) -> bool:
        """Whether the sequencer is closed and empty (no event will
        ever be produced again)."""
        with self._lock:
            return self._closed and not self._items

    def depth(self) -> int:
        """Events stamped but not yet taken (approximate, racy)."""
        return len(self._items)

    def _stamp(self, event: Event, conn_id: int,
               tag: Any) -> SequencedEvent:
        """The one stamping routine.  Caller holds the lock and has
        checked for room: the stamp and the queue position are
        assigned together, so they can never disagree."""
        if self._closed:
            raise RuntimeError("sequencer is closed")
        item = SequencedEvent(seq=self._next_seq, event=event,
                              conn_id=conn_id, tag=tag)
        self._next_seq += 1
        self._items.append(item)
        self._not_empty.notify()
        return item

    def submit(self, event: Event, *, conn_id: int = 0,
               tag: Any = None) -> SequencedEvent:
        """Stamp ``event`` with the next sequence number and enqueue
        it, blocking while the queue is full (ingress backpressure)."""
        with self._lock:
            while len(self._items) >= self.capacity \
                    and not self._closed:
                self._not_full.wait()
            return self._stamp(event, conn_id, tag)

    def try_submit(self, event: Event, *, conn_id: int = 0,
                   tag: Any = None) -> SequencedEvent | None:
        """Non-blocking :meth:`submit`: ``None`` when the queue is
        full, in which case :attr:`on_space` will be called.  Raises
        once closed, like :meth:`submit`."""
        with self._lock:
            if len(self._items) >= self.capacity \
                    and not self._closed:
                self._refused = True
                return None
            return self._stamp(event, conn_id, tag)

    def close(self) -> None:
        """No more submissions; :meth:`take` returns ``None`` once the
        queue drains.  Idempotent."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def take(self) -> SequencedEvent | None:
        """Blocking: the next event in total order, or ``None`` once
        closed and fully drained."""
        return self._take(block=True)

    def try_take(self) -> SequencedEvent | None:
        """Non-blocking :meth:`take`: ``None`` when the queue is
        momentarily empty *or* fully drained (check :attr:`drained`
        to tell the two apart)."""
        return self._take(block=False)

    def _take(self, block: bool) -> SequencedEvent | None:
        with self._lock:
            while block and not self._items and not self._closed:
                self._not_empty.wait()
            if not self._items:
                return None
            item = self._items.popleft()
            self._not_full.notify()
            # Low-water mark: a refused submitter is told once the
            # queue is half empty, so under sustained overload it
            # refills half a queue per wake-up instead of one slot.
            wake = self._refused \
                and len(self._items) <= self.capacity // 2
            if wake:
                self._refused = False
        if wake and self.on_space is not None:
            self.on_space()
        return item
