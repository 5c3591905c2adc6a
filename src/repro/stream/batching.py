"""Adaptive micro-batching and ingress backpressure for the stream.

The one-event-at-a-time loop of :class:`~repro.stream.service
.OnlineAuctionService` pays full per-query dispatch cost — subset
extraction, weight-buffer allocation, planner lookups — on every
arrival, which is the throughput gap between the ``stream-churn`` and
``batch`` cells of ``BENCH_offline.json``.  This module closes it without
changing anything observable:

* :func:`take_unit` is the one rule that forms **dispatch units**
  out of what is already queued, for every consumer of an ordered
  stream: the wire server's apply loop, :class:`MicroBatcher`, and
  :meth:`~repro.stream.service.OnlineAuctionService.run` (so ``repro
  stream`` and :func:`~repro.stream.recovery.recover`).  A unit is a
  run of *consecutive* :class:`~repro.stream.events.AdvertiserJoin`
  events (one bulk state operation), a run of consecutive
  :class:`~repro.stream.events.QueryArrival` events, or a single
  event.  Any other kind of event ends a run, so a query window is a
  stretch of the stream over which the advertiser population cannot
  change from the *input* side (service-originated pauses can still
  land mid-window; the backends invalidate their window caches when
  they do).  A unit is ``min(run length at the queue head, cap, what
  has arrived)``: under load units hit their cap, and when the queue
  is shallow a unit is whatever is present — the rule never idles
  waiting for a unit to fill, so latency stays arrival-bound.

* :class:`MicroBatcher` forms units over an ingress queue that is
  **bounded** (``ingress_capacity``, which also caps a join run) with
  an explicit backpressure policy.  ``delay`` (the default) simply stops
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
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    TypeVar,
    Union,
)

from repro.stream.events import (
    AdvertiserJoin,
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

DispatchUnit = Union[List[Event], Event]
"""What :func:`take_unit` forms and :meth:`MicroBatcher.units`
yields: a window (a list: a run of joins, or of queries) or a single
event."""

Item = TypeVar("Item")

Check = Callable[[Event], Optional[Exception]]
"""The service's admission rule
(:meth:`~repro.stream.service.OnlineAuctionService.check`)."""


def take_unit(head: Item, pull: Callable[[], Optional[Item]],
              window: int, cap: int | None = None,
              check: Check | None = None,
              event_of: Callable[[Item], Event] = lambda item: item,
              ) -> tuple[Union[List[Item], Item], Optional[Item]]:
    """Form the dispatch unit that starts at ``head``: the one rule
    every consumer of an ordered stream windows by.

    ``head`` is already admitted; ``pull()`` returns the next
    already-queued item, or ``None`` when nothing is queued — the rule
    never waits for a unit to fill.  ``event_of`` reads an item's event
    (the wire server's items are sequenced envelopes).  Returns the
    unit — a list for a window, the bare ``head`` for an event that
    applies alone — and the item that ended it (``None`` if the queue
    ran dry or the unit filled), which the caller admits next.

    A run of queries windows when ``window >= 2``, up to it.  A run of
    joins windows under an admission rule (``check``), up to ``cap``
    (``None``: the run itself; below 2, joins apply alone): a window
    is admitted whole or not at all, so only the rule's cut at the
    first refused join keeps a bad stream failing where one event at a
    time fails.  Every other event applies alone.  A run ends at an
    event of another kind and at one ``check`` refuses, so a refused
    event's fate follows the window's.  It also ends at a second join
    for an advertiser already in the unit: admission runs against live
    state, where the first join has not applied yet, so only once the
    window has applied can the duplicate be refused, exactly as one
    event at a time would refuse it.
    """
    event = event_of(head)
    kind = type(event)
    if kind is QueryArrival:
        limit = window
    elif kind is AdvertiserJoin and check is not None:
        limit = cap
    else:
        limit = 1
    if limit is not None and limit < 2:
        return head, None
    joining = {event.advertiser} if kind is AdvertiserJoin else None
    unit = [head]
    while limit is None or len(unit) < limit:
        item = pull()
        if item is None:
            return unit, None
        event = event_of(item)
        if type(event) is not kind \
                or (check is not None and check(event) is not None) \
                or (joining is not None and event.advertiser in joining):
            return unit, item
        if joining is not None:
            joining.add(event.advertiser)
        unit.append(item)
    return unit, None


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
    """Coalesce an event stream into dispatch units (:func:`take_unit`
    over a bounded ingress queue).

    One batcher serves one stream consumption; its counters and
    :attr:`shed` log describe that run.  ``windows``,
    ``batched_queries``, ``max_window`` and the ``batch.*`` metrics
    count query windows only (a join window is counted by the
    service's ``latency.join_window``).  ``stats``, when given,
    receives a :meth:`~repro.bench.stream_stats.EventTimings
    .record_shed` call per dropped query so operators see sheds where
    they already look for timings.  ``check`` is the consuming
    service's admission rule: with it, runs of joins window too (up to
    ``ingress_capacity``) and a refused event ends a run; without it,
    joins come out alone.
    """

    def __init__(self, config: BatchingConfig,
                 stats: "EventTimings | None" = None,
                 metrics: "MetricsRegistry | None" = None,
                 track_waits: bool = False,
                 check: Check | None = None):
        self.config = config
        self.stats = stats
        self.metrics = metrics
        self.check = check
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
        queue, metrics = self._queue, self.metrics
        unit, ended = take_unit(
            queue.popleft(), lambda: queue.popleft() if queue else None,
            self.config.window, self.config.ingress_capacity, self.check)
        if ended is not None:
            queue.appendleft(ended)
        members = unit if isinstance(unit, list) else [unit]
        if self._track:
            now = time_module.monotonic()
            self.last_waits = [now - self._admit_times.popleft()
                               for _ in members]
        if isinstance(unit, list) and isinstance(unit[0], QueryArrival):
            self.windows += 1
            self.batched_queries += len(unit)
            self.max_window = max(self.max_window, len(unit))
            if metrics is not None:
                metrics.counter("batch.windows").inc()
                metrics.counter("batch.batched_queries").inc(len(unit))
        if metrics is not None:
            metrics.gauge("batch.queue_depth").set(len(queue))
            histogram = metrics.histogram("latency.ingress_wait")
            for wait in self.last_waits:
                histogram.observe(wait)
        return unit

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
