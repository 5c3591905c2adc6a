"""Adaptive micro-batching and ingress backpressure for the stream.

The one-event-at-a-time loop of :class:`~repro.stream.service
.OnlineAuctionService` pays full per-query dispatch cost — subset
extraction, weight-buffer allocation, planner lookups — on every
arrival, which is the throughput gap between the ``stream-churn`` and
``batch`` cells of ``BENCH_offline.json``.  This module closes it without
changing anything observable:

* :class:`MicroBatcher` pulls admitted events into a bounded ingress
  queue and yields **dispatch units**: a maximal run of *consecutive*
  :class:`~repro.stream.events.QueryArrival` events (capped at the
  window size), or a single control event.  Control events — joins,
  leaves, bid edits, top-ups — never share a unit with queries, so a
  window is exactly a stretch of the stream over which the advertiser
  population cannot change from the *input* side (service-originated
  pauses can still land mid-window; the backends invalidate their
  window caches when they do).

* The window policy is **adaptive** by construction: a unit is
  ``min(run length at the queue head, window, what has arrived)``.
  Under load the ingress queue is deep and units hit the window cap
  (drain-whatever-is-queued); when the queue is shallow the batcher
  dispatches whatever is present immediately — it never idles waiting
  for a window to fill, so latency stays arrival-bound.

* The ingress queue is **bounded** (``ingress_capacity``) with an
  explicit backpressure policy.  ``delay`` (the default) simply stops
  pulling from the source while the queue is full — arrivals wait
  upstream, nothing is dropped, and the serviced stream is the input
  stream, event for event; every bit-identity oracle runs in this
  mode.  ``shed`` models a source that does *not* wait: arrivals are
  credited at ``arrival_rate`` per serviced event, and a query that
  finds the queue full is dropped — recorded in the batcher's
  :attr:`~MicroBatcher.shed` log and in
  :class:`~repro.bench.stream_stats.EventTimings` — while control
  events are always admitted (dropping a join or a top-up would fork
  the advertisers' ledger state, so only queries shed).

Ordering guarantee: admitted events are dispatched in exactly their
arrival order; batching changes *when* work is amortized, never the
sequence the service applies.  The durable wrapper journals a whole
window before applying any of it, so batch
boundaries never leak into the recorded event order either (see
:meth:`~repro.stream.service.DurableAuctionService.process_window`).
"""

from __future__ import annotations

import logging
import time as time_module
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, List, Union

from repro.stream.events import (
    Event,
    EventLog,
    QueryArrival,
    event_kind,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.stream_stats import EventTimings
    from repro.obs import MetricsRegistry

BACKPRESSURE_MODES = ("delay", "shed")

_LOG = logging.getLogger(__name__)

QueryWindow = List[QueryArrival]
"""One dispatch unit of consecutive query arrivals (len >= 1)."""

DispatchUnit = Union[QueryWindow, Event]
"""What :meth:`MicroBatcher.units` yields: a query window (list) or a
single control event."""


@dataclass(frozen=True)
class BatchingConfig:
    """Micro-batching knobs (``--batch-window`` and friends).

    Attributes
    ----------
    window:
        Maximum query arrivals per dispatch unit (``--batch-window``).
    ingress_capacity:
        Bound on the ingress queue (``--ingress-capacity``); admission
        beyond it triggers the backpressure policy.
    backpressure:
        ``delay`` (arrivals wait upstream; lossless, bit-identical to
        unbatched) or ``shed`` (queries finding a full queue drop).
    arrival_rate:
        Shed mode only: simulated arrivals admitted per serviced
        event.  At 1.0 service keeps pace and nothing sheds; above
        1.0 the queue saturates and the overflow drops.
    """

    window: int = 16
    ingress_capacity: int = 64
    backpressure: str = "delay"
    arrival_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(
                f"window must be >= 1, got {self.window}")
        if self.ingress_capacity < 1:
            raise ValueError(
                f"ingress_capacity must be >= 1, "
                f"got {self.ingress_capacity}")
        if self.backpressure not in BACKPRESSURE_MODES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_MODES}, "
                f"got {self.backpressure!r}")
        if self.arrival_rate <= 0:
            raise ValueError(
                f"arrival_rate must be > 0, got {self.arrival_rate}")


class MicroBatcher:
    """Coalesce an event stream into dispatch units.

    One batcher serves one stream consumption; its counters and
    :attr:`shed` log describe that run.  ``stats``, when given,
    receives a :meth:`~repro.bench.stream_stats.EventTimings
    .record_shed` call per dropped query so operators see sheds where
    they already look for timings.
    """

    def __init__(self, config: BatchingConfig,
                 stats: "EventTimings | None" = None,
                 metrics: "MetricsRegistry | None" = None,
                 track_waits: bool = False):
        self.config = config
        self.stats = stats
        self.metrics = metrics
        self.shed = EventLog()
        """Every event dropped by ``shed`` backpressure, in arrival
        order — the operator's audit trail for what the trace will
        *not* contain."""
        self.windows = 0
        self.batched_queries = 0
        self.max_window = 0
        self._queue: deque[Event] = deque()
        self._credit = 0.0
        self._track = metrics is not None or track_waits
        self._admit_times: deque[float] = deque()
        self.last_waits: list[float] = []
        """Monotonic queue-wait seconds for the members of the most
        recently yielded unit, in unit order — populated only when a
        metrics registry is attached or ``track_waits`` is set (the
        span tracer stages them as ``ingress`` children).  Sidecar
        timing: never read back into dispatch decisions."""

    @property
    def shed_count(self) -> int:
        return len(self.shed)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def units(self, events: Iterable[Event]) -> Iterator[DispatchUnit]:
        """Yield dispatch units over ``events`` in arrival order."""
        source = iter(events)
        config = self.config
        exhausted = self._admit(source, config.ingress_capacity)
        while True:
            if not self._queue:
                if exhausted:
                    return
                # Idle service: the next arrival is consumed the
                # moment it lands — no window to wait for.
                exhausted = self._admit(source, 1)
                continue
            unit = self._next_unit()
            yield unit
            if exhausted:
                continue
            serviced = len(unit) if isinstance(unit, list) else 1
            if config.backpressure == "delay":
                # Refill to capacity; arrivals beyond it wait in the
                # source (upstream blocks), nothing drops.
                exhausted = self._admit(
                    source,
                    config.ingress_capacity - len(self._queue))
            else:
                # Arrivals do not wait: credit them at arrival_rate
                # per serviced event and let _admit shed the queries
                # that find the queue full.
                self._credit += serviced * config.arrival_rate
                arrivals = int(self._credit)
                self._credit -= arrivals
                exhausted = self._admit(source, arrivals)

    def _next_unit(self) -> DispatchUnit:
        track = self._track
        now = time_module.monotonic() if track else 0.0
        if not isinstance(self._queue[0], QueryArrival):
            event = self._queue.popleft()
            if track:
                self.last_waits = [now - self._admit_times.popleft()]
                self._record_unit(1)
            return event
        run: QueryWindow = []
        while self._queue and len(run) < self.config.window \
                and isinstance(self._queue[0], QueryArrival):
            run.append(self._queue.popleft())
        if track:
            self.last_waits = [now - self._admit_times.popleft()
                               for _ in run]
        self.windows += 1
        self.batched_queries += len(run)
        self.max_window = max(self.max_window, len(run))
        if self.metrics is not None:
            self.metrics.counter("batch.windows").inc()
            self.metrics.counter("batch.batched_queries").inc(len(run))
            self._record_unit(len(run))
        return run

    def _record_unit(self, size: int) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        metrics.gauge("batch.queue_depth").set(len(self._queue))
        histogram = metrics.histogram("latency.ingress_wait")
        for wait in self.last_waits:
            histogram.observe(wait)

    def _admit(self, source: Iterator[Event], count: int) -> bool:
        """Pull up to ``count`` events; True when the source is dry.

        A query pulled while the queue is at capacity sheds (callers
        in delay mode never over-pull, so this branch is shed-mode
        only); control events always enter — the queue bound is a
        query-load valve, not a correctness boundary, and dropping
        churn would fork the ledger state.
        """
        for _ in range(count):
            try:
                event = next(source)
            except StopIteration:
                return True
            if isinstance(event, QueryArrival) \
                    and len(self._queue) >= self.config.ingress_capacity:
                self.shed.append(event)
                if self.stats is not None:
                    self.stats.record_shed(event_kind(event))
                if self.metrics is not None:
                    self.metrics.counter("batch.shed").inc()
                # First shed is the operator's signal the queue bound
                # is binding; the rest would drown it, so they demote
                # to debug (the shed log and counters keep the total).
                _LOG.log(
                    logging.WARNING if len(self.shed) == 1
                    else logging.DEBUG,
                    "ingress queue full: shed %s (total shed %d)",
                    event_kind(event), len(self.shed),
                    extra={"kind": event_kind(event),
                           "queue_depth": len(self._queue),
                           "shed_total": len(self.shed)})
                continue
            self._queue.append(event)
            if self._track:
                self._admit_times.append(time_module.monotonic())
        return False
