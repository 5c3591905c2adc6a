"""The online auction service: one event loop, live advertiser churn.

:class:`OnlineAuctionService` runs the auction engine as a long-lived
server over an ordered event stream (:mod:`repro.stream.events`).
Query arrivals run auctions; control events mutate the advertiser
population *while queries flow*, by one of two maintenance strategies:

``incremental`` (the default)
    Control events surgically edit the live evaluation state — pacer
    array rows grow and retire, delta-list memberships move, the
    shared argsort click index splices single ids, trigger deadlines
    are cancelled and rescheduled.  Cost per event is proportional to
    the advertiser's footprint, not the population.

``rebuild``
    After every control event the whole evaluation state is
    reconstructed from its primary capture — every sorted structure
    re-derived from scratch.  This is the oracle: incremental
    maintenance must produce **bit-identical auction records** to
    rebuild-per-event after any event prefix
    (``tests/stream/test_service.py``), and the ``stream-churn``
    cell of the committed ``BENCH_offline.json`` shows what that
    per-event O(n log n) costs under churn.

The service runs in-process (``workers=0``) or on the multi-process
sharded runtime (``workers>=1``, control events routed to owning shards
through :class:`~repro.runtime.executor.ShardedAuctionRuntime`).  Both
are one auction body: a leaf — a shard object of
:mod:`repro.runtime.worker` — answers each query's
:class:`~repro.runtime.messages.ShardTask` with its per-slot top lists
(or its bid slice), and one tail
(:class:`~repro.runtime.executor.MergeTail`) merges the replies and
matches, prices and settles from them.  In-process is that body over
**one local shard object** spanning the universe: the task and reply
objects are built, but there is no pipe, so wins fold into the leaf
inside settlement and control notices apply to it at once — which is
also where the ``rebuild`` strategy runs.  Both modes produce identical
records from identical streams.  Identity hinges on one rule:
**winner determination only ever sees the surviving population**
(departed rows are excluded from the candidate space, not merely
zeroed — zero-weight edges can enter a maximum matching).

Budgets gate participation (:mod:`repro.stream.budget`): the settler
clamps every winner's final charge to its remaining balance, the
charge that zeroes a tracked ledger pauses the advertiser — a
service-originated :class:`~repro.stream.events.AdvertiserPaused`
applied through the same maintenance path ordinary churn uses, with
the pacer row's primary capture retained — and the
:class:`~repro.stream.events.BudgetTopUp` that lifts the balance back
above zero re-admits it
(:class:`~repro.stream.events.AdvertiserResumed`).  The lifecycle is
deterministic: identical emissions across maintenance strategies and
worker counts (``tests/stream/test_budget.py``); the operational
contract is documented in ``docs/operations.md``.

:meth:`snapshot` / :meth:`OnlineAuctionService.restore` checkpoint a
service mid-stream and resume it deterministically — see
:mod:`repro.stream.snapshot`.
"""

from __future__ import annotations

import logging
import math
import time as time_module
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.auction.accounts import AccountBook
from repro.auction.events import AuctionRecord
from repro.auction.settlement import AuctionSettler
from repro.bench.stream_stats import EventTimings
from repro.obs import (
    MetricsRegistry,
    MetricsWriter,
    ObservabilityConfig,
    SpanTracer,
)
from repro.runtime.executor import MergeTail, ShardedAuctionRuntime
from repro.runtime.messages import (
    SERVED_METHODS,
    ControlNotice,
    ShardTask,
)
from repro.runtime.worker import WorkerInit, build_shard
from repro.stream.batching import (
    BatchingConfig,
    DispatchUnit,
    MicroBatcher,
    take_unit,
)
from repro.stream.budget import BudgetRegistry
from repro.stream.crash import crash_hook
from repro.stream.events import (
    NUMERIC_FIELDS,
    AdvertiserJoin,
    AdvertiserLeave,
    AdvertiserPaused,
    AdvertiserResumed,
    BidProgramUpdate,
    BudgetTopUp,
    Event,
    EventLog,
    QueryArrival,
    event_kind,
)
from repro.stream.snapshot import (
    ServiceSnapshot,
    accounts_to_jsonable,
    merge_captures,
    restore_accounts,
)
from repro.workloads.paper_workload import (
    PaperWorkload,
    PaperWorkloadConfig,
)

SERVICE_METHODS = SERVED_METHODS
MAINTENANCE_MODES = ("incremental", "rebuild")

_LOG = logging.getLogger(__name__)


class _Backend:
    """What the two serving backends share: the settlement stack is
    read off :attr:`settler`; nothing window-scoped, no worker fleet
    to report on or shut down."""

    settler: AuctionSettler

    @property
    def accounts(self) -> AccountBook:
        return self.settler.accounts

    @property
    def rng(self) -> np.random.Generator:
        return self.settler.rng

    def begin_window(self, size: int) -> None:
        pass

    def end_window(self) -> None:
        pass

    def join(self, notices: "list[ControlNotice]") -> None:
        """Admit a run of joins; a representation with a bulk
        placement routine applies the whole run as one call."""
        for notice in notices:
            self.apply_control(notice)

    def supervision_snapshot(self) -> dict:
        return {}

    def worker_metrics(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class _LocalBackend(_Backend):
    """Workers=0 serving: one local leaf and the coordinator's tail.

    The leaf is the shard object a worker process runs
    (:func:`~repro.runtime.worker.build_shard`) over the whole universe
    — offset 0, built from the service's own workload — and the tail
    the sharded coordinator's :class:`~repro.runtime.executor
    .MergeTail`.  Each query is one :class:`~repro.runtime.messages
    .ShardTask` the leaf answers in-process and the tail settles.  What
    the coordinator queues for the next task happens here at once: a
    win folds into the leaf inside settlement, a control notice or a
    run of joins applies to it as it arrives.
    """

    def __init__(self, workload: PaperWorkload, method: str,
                 maintenance: str, engine_seed: int,
                 restore_capture: dict | None = None):
        config = workload.config
        capture = restore_capture or {}  # {} = born empty (genesis)
        self.leaf = build_shard(WorkerInit(
            shard=0, lo=0, hi=config.num_advertisers, method=method,
            workload_config=config, top_depth=config.num_slots + 1,
            maintenance=maintenance, restore=capture), workload)
        self.settler = AuctionSettler.build(
            workload.click_model(), workload.purchase_model(),
            config.num_slots, engine_seed)
        self.tail = MergeTail(self.settler, workload.click_matrix,
                              method, capture, parallel_stats=False)
        self.auction_id = 0

    def run_query(self, keyword: str) -> AuctionRecord:
        self.auction_id += 1
        now = float(self.auction_id)
        leaf = self.leaf
        reply = leaf.handle(ShardTask(auction_id=self.auction_id,
                                      keyword=keyword, time=now))

        def notify(advertiser: int, slot: int | None, clicked: bool,
                   purchased: bool, charge: float) -> None:
            leaf.fold(advertiser, keyword, now, clicked, charge)

        return self.tail.settle(self.auction_id, keyword, [reply],
                                notify)

    def apply_control(self, notice: ControlNotice) -> None:
        self.tail.track(notice)
        self.leaf.apply_control(notice)

    def join(self, notices: "list[ControlNotice]") -> None:
        for notice in notices:
            self.tail.track(notice)
        self.leaf.join(notices)

    def capture_state(self) -> dict:
        return self.leaf.capture()


class _ShardedBackend(_Backend):
    """Workers>=1 serving on the multi-process runtime.

    Thin adapter: queries go to the coordinator's lockstep round —
    the same tail, over the merge of many leaves — control notices
    are routed to the owning shard (applied there, incremental or
    rebuild per the maintenance flag shipped at spawn), snapshots
    pull and merge per-shard captures.
    """

    def __init__(self, workload: PaperWorkload, workers: int,
                 restore_capture: dict | None = None,
                 **runtime_options):
        # The service's population comes from its event log (or its
        # snapshot), never from the workload recipe: the runtime starts
        # from a capture, an empty one at genesis.
        self.runtime = ShardedAuctionRuntime(
            workload.config, workers=workers,
            restore_capture=restore_capture or {}, **runtime_options)
        self.settler = self.runtime.settler

    @property
    def auction_id(self) -> int:
        return self.runtime.auction_id

    @auction_id.setter
    def auction_id(self, value: int) -> None:
        self.runtime.auction_id = value

    def begin_window(self, size: int) -> None:
        self.runtime.begin_query_window()

    def end_window(self) -> None:
        self.runtime.end_query_window()

    def run_query(self, keyword: str) -> AuctionRecord:
        return self.runtime.submit_query(keyword)

    def apply_control(self, notice: ControlNotice) -> None:
        self.runtime.apply_control(notice)

    def capture_state(self) -> dict:
        states = self.runtime.pull_shard_states()
        return merge_captures(states, self.runtime.plan.spans(),
                              self.runtime.num_advertisers)

    def supervision_snapshot(self) -> dict:
        supervisor = self.runtime.supervisor
        return supervisor.to_dict() if supervisor is not None else {}

    def worker_metrics(self) -> dict:
        return self.runtime.worker_metrics()

    def close(self) -> None:
        self.runtime.close()


class OnlineAuctionService:
    """A long-lived auction server over an ordered event stream.

    Parameters
    ----------
    workload_config:
        The Section V workload recipe, reinterpreted as the service's
        *universe*: ``num_advertisers`` is the id capacity (advertisers
        join and leave within it — stable ids are what let records,
        budgets, and shard spans survive churn), and the keyword list
        is the fixed bid-program vocabulary.
    method:
        ``rh`` / ``lp`` / ``hungarian`` (eager) or ``rhtalu`` (lazy).
    maintenance:
        ``incremental`` or ``rebuild`` — how control events reach the
        evaluation state (see the module docstring).
    workers:
        0 = in-process; >=1 = the sharded runtime with that many
        worker processes.
    engine_seed:
        Seeds the decision RNG (user clicks; queries come from the
        stream itself, so the seed's draw order matches across worker
        counts and maintenance strategies).
    supervise:
        Arm worker supervision (workers >= 1 only): a failed shard
        worker is detected, rebuilt from the supervisor's retained
        capture + replay, and the in-flight auction re-runs — records
        stay bit-identical to an unfailed run.  After
        ``max_worker_restarts`` respawns of one shard, the fleet
        instead degrades to one fewer worker (see
        :mod:`repro.runtime.supervision` and ``docs/operations.md``).
    round_timeout:
        Seconds the coordinator waits on a shard's reply before
        treating the worker as hung (``None`` = wait forever on a
        live process; death is always detected).
    max_worker_restarts:
        Per-shard respawn budget before degrading to a smaller fleet.
    batching:
        A :class:`~repro.stream.batching.BatchingConfig` arms the
        adaptive micro-batcher: :meth:`run` coalesces maximal runs of
        consecutive query arrivals into windows dispatched through
        :meth:`process_window` (control events flush the window), with
        a bounded ingress queue and the config's backpressure policy.
        Under ``delay`` backpressure the serviced stream is the input
        stream event for event, so records, balances, and emissions
        stay bit-identical to the unbatched service — the oracle
        suites assert exactly this.  ``None`` (the default) applies
        queries one at a time; runs of joins window either way.
    observability:
        An :class:`~repro.obs.ObservabilityConfig` arms the metrics
        registry and (per its paths) the per-event span tracer and the
        periodic metrics sidecar (:mod:`repro.obs`).  Instrumentation
        is strictly sidecar: no RNG draws, no decision state — a
        metered run stays bit-identical to a bare one, and ``None``
        (the default) leaves every guarded call site on the
        pre-existing path.
    """

    def __init__(self, workload_config: PaperWorkloadConfig,
                 method: str = "rh",
                 maintenance: str = "incremental",
                 workers: int = 0, engine_seed: int = 0,
                 start_method: str | None = None,
                 supervise: bool = False,
                 round_timeout: float | None = None,
                 max_worker_restarts: int = 1,
                 batching: BatchingConfig | None = None,
                 observability: ObservabilityConfig | None = None,
                 _restore: ServiceSnapshot | None = None):
        if method not in SERVICE_METHODS:
            raise ValueError(
                f"method must be one of {SERVICE_METHODS}, "
                f"got {method!r}")
        if maintenance not in MAINTENANCE_MODES:
            raise ValueError(
                f"maintenance must be one of {MAINTENANCE_MODES}, "
                f"got {maintenance!r}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if supervise and workers < 1:
            raise ValueError(
                "supervision needs worker processes (workers >= 1); "
                "the in-process backend has no fleet to supervise")
        self.workload_config = workload_config
        self.workload = PaperWorkload(workload_config)
        self.method = method
        self.maintenance = maintenance
        self.workers = workers
        self.engine_seed = engine_seed
        self.keywords = list(self.workload.keywords)
        self._vocabulary = frozenset(self.keywords)
        self.registry = BudgetRegistry()
        """The budget lifecycle's ledger: per-advertiser balance,
        target, joined-at index, and pause flag
        (:mod:`repro.stream.budget`)."""
        self.emitted = EventLog()
        """Journal of service-originated control events
        (:class:`AdvertiserPaused` / :class:`AdvertiserResumed`), in
        emission order.  Observability, not resumable state: a
        restored service starts a fresh journal (pauses before the
        snapshot are visible as registry flags)."""
        self.stats = EventTimings()
        self.events_processed = 0
        self.batching = batching
        self.last_batcher: MicroBatcher | None = None
        """The :class:`~repro.stream.batching.MicroBatcher` of the
        most recent batched :meth:`run` — its window counters and
        shed log are the operator's audit surface."""
        self.observability = observability
        self.metrics: MetricsRegistry | None = None
        """Live metric registry — ``None`` unless ``observability``
        was given; every instrumented call site in the stack guards on
        exactly this, so a bare service runs the pre-existing code."""
        self.tracer: SpanTracer | None = None
        self._metrics_writer: MetricsWriter | None = None
        self.worker_metrics: dict = {}
        """Per-shard + merged worker-process counters, harvested from
        the piggybacked reply metrics when the service closes."""
        self._obs_finalized = False
        if observability is not None:
            self.metrics = MetricsRegistry()
            if observability.trace_spans is not None:
                self.tracer = SpanTracer(observability.trace_spans)
            if observability.metrics_out is not None:
                self._metrics_writer = MetricsWriter(
                    observability.metrics_out,
                    snapshot_every=observability.snapshot_every)
        restore_capture = (_restore.backend_state
                           if _restore is not None else None)

        if workers >= 1:
            self.backend = _ShardedBackend(
                self.workload, workers, restore_capture,
                method=method, engine_seed=engine_seed,
                start_method=start_method, maintenance=maintenance,
                supervise=supervise, round_timeout=round_timeout,
                max_worker_restarts=max_worker_restarts,
                metrics=self.metrics)
        else:
            self.backend = _LocalBackend(
                self.workload, method, maintenance, engine_seed,
                restore_capture=restore_capture)

        if _restore is not None:
            self.registry = BudgetRegistry.from_jsonable(
                _restore.registry)
            self.events_processed = _restore.events_processed
            self.backend.auction_id = _restore.auction_id
            self.backend.rng.bit_generator.state = _restore.rng_state
            restore_accounts(self.backend.accounts, _restore.accounts)

        # Budgets gate charges at the source: the settler consults the
        # ledger before charging, so a winner's final charge clamps to
        # its remaining balance (and that clamped amount is what every
        # downstream consumer — accounts, records, pacer folds — sees).
        self.backend.settler.charge_cap_fn = self.registry.charge_cap

    # -- the event loop ----------------------------------------------------

    def check(self, event: Event) -> Exception | None:
        """Why ``event`` may not be applied right now (``None`` = it
        may): the one admission rule.  :meth:`process` raises what
        this returns, the wire server answers a ``rejected`` frame
        carrying its ``args[0]``, the durable wrapper asks before the
        journal sees the event.

        Pure (no state change), evaluated against live state, and
        complete: it refuses every event a backend's control ops
        would raise on, so an admitted event cannot fail mid-apply.
        ``TypeError``: an unknown or service-originated event type.
        ``KeyError``: an advertiser that is not an ``int`` id, lies
        outside the universe, is already active (paused counts) on a
        join or not active otherwise; a keyword outside the
        vocabulary.  ``ValueError``: a numeric field that is not a
        number (bools and numeric strings are not) or not finite, a
        per-keyword column of the wrong length, a join with
        ``target <= 0``, a join or update with a ``maxbid < 0``.
        """
        handlers = self._HANDLERS.get(type(event))
        if handlers is None:
            return TypeError(f"not a stream event: {event!r}")
        return handlers[0](self, event)

    def _admit(self, event: Event) -> None:
        error = self.check(event)
        if error is not None:
            raise error

    def _check_emitted(self, event: Event) -> Exception:
        return TypeError(
            f"{type(event).__name__} is service-originated: the "
            f"event loop emits it (see .emitted), replaying the "
            f"input stream re-derives it")

    def _check_keyword(self, event: Event) -> Exception | None:
        keyword = event.keyword
        if not isinstance(keyword, str) \
                or keyword not in self._vocabulary:
            return KeyError(f"unknown keyword {keyword!r}")
        return None

    def _check_member(self, event: Event,
                      joining: bool = False) -> Exception | None:
        advertiser = event.advertiser
        if not isinstance(advertiser, int) \
                or isinstance(advertiser, bool):
            return KeyError("advertiser must be an integer id")
        capacity = self.workload_config.num_advertisers
        if not joining:
            if advertiser not in self.registry:
                return KeyError(
                    f"advertiser {advertiser} is not active")
        elif not 0 <= advertiser < capacity:
            return KeyError(f"advertiser {advertiser} outside universe "
                            f"0..{capacity - 1}")
        elif advertiser in self.registry:
            return KeyError(f"advertiser {advertiser} already active")
        return None

    def _check_numbers(self, event: Event) -> Exception | None:
        """Every numeric field (:data:`~repro.stream.events
        .NUMERIC_FIELDS`) is a finite number, every per-keyword column
        one number per keyword."""
        arity = len(self.keywords)
        for name in NUMERIC_FIELDS[type(event)]:
            value = getattr(event, name)
            if name in ("bids", "maxbids", "values"):
                if not isinstance(value, (tuple, list)) \
                        or len(value) != arity:
                    return ValueError(
                        f"{name} must list {arity} numbers (one per "
                        f"keyword)")
            else:
                value = (value,)
            if not all(isinstance(number, (int, float))
                       and not isinstance(number, bool)
                       for number in value):
                return ValueError(f"{name} must be numeric")
            try:
                finite = all(map(math.isfinite, value))
            except OverflowError:  # an int beyond float range
                finite = False
            if not finite:
                return ValueError(f"{name} must be finite")
        return None

    def _check_join(self, event: AdvertiserJoin) -> Exception | None:
        error = self._check_member(event, joining=True) \
            or self._check_numbers(event)
        if error is None and event.target <= 0:
            return ValueError(f"target spend rate must be > 0, "
                              f"got {event.target}")
        if error is None and min(event.maxbids) < 0:
            return ValueError(
                f"maxbid must be >= 0, got {min(event.maxbids)}")
        return error

    def _check_update(self, event: BidProgramUpdate
                      ) -> Exception | None:
        error = self._check_member(event) \
            or self._check_keyword(event) or self._check_numbers(event)
        if error is None and event.maxbid < 0:
            return ValueError(
                f"maxbid must be >= 0, got {event.maxbid}")
        return error

    def _check_topup(self, event: BudgetTopUp) -> Exception | None:
        return self._check_member(event) or self._check_numbers(event)

    def process(self, event: Event) -> AuctionRecord | None:
        """Check, then apply one event; returns the auction record
        for queries.  An event :meth:`check` refuses raises its error
        with no state changed.

        Queries additionally drive the budget lifecycle: settled
        charges debit the ledger (each winner's final charge was
        already clamped to its remaining balance by the settler), and
        any tracked advertiser whose balance the debit drove to zero
        is paused *before the next event* — the service emits an
        :class:`AdvertiserPaused` control event through the exact
        incremental-maintenance (or rebuild) path ordinary churn uses.
        A :class:`BudgetTopUp` that lifts a paused balance above zero
        symmetrically emits :class:`AdvertiserResumed`.
        """
        self._admit(event)
        if self.tracer is not None:
            self.tracer.flush_upto(self.events_processed)
        record = self._apply(event)
        self._end_dispatch()
        return record

    def process_window(self, events: "list[QueryArrival] | "
                       "list[AdvertiserJoin]", after_each=None
                       ) -> "list[AuctionRecord | None]":
        """Apply one window: a run of consecutive query arrivals (a
        micro-batch) or of consecutive advertiser joins.  Returns one
        entry per event — the auction record of a query, ``None`` for
        a join.

        The whole window is checked before any of it applies; a join
        window also refuses an advertiser that joins twice in it (the
        second join would be refused once the first had applied).
        Each query still runs, settles, and drives the budget
        lifecycle individually and in order (an exhaustion pause
        lands *before the next query*, exactly as in :meth:`process`);
        what amortizes across the window is per-dispatch overhead —
        the sharded backend hooks ``begin_window`` / ``end_window``
        to run its capture-refresh check once.  The window's wall
        time is amortized per event in :class:`~repro.bench
        .stream_stats.EventTimings` with a batch-level entry
        alongside.  A join window is one state operation
        (:meth:`_join`) followed by each join's own bookkeeping in
        order — registry entry at its own seq, watermark, counters,
        root span — with the operation's wall time shared evenly.
        ``after_each`` (the durable wrapper's journaling callback)
        fires after each event is applied and counted.
        """
        if not events:
            return []
        self._admit_window(events)
        tracer = self.tracer
        first_seq = self.events_processed
        if tracer is not None:
            tracer.flush_upto(first_seq)
        if isinstance(events[0], AdvertiserJoin):
            self._apply_joins(events, after_each)
            self._end_dispatch()
            return [None] * len(events)
        queries = events
        start = time_module.perf_counter()
        records = []
        self.backend.begin_window(len(queries))
        try:
            for event in queries:
                # The root span opens inside _apply, before
                # after_each, so the durable wrapper's checkpoint
                # child attaches to a live root; window roots stay
                # open together until the next apply's flush_upto,
                # collecting the shared batch-window child below.
                record = self._apply(event, windowed=True)
                records.append(record)
                if after_each is not None:
                    after_each(event, record)
        finally:
            self.backend.end_window()
        elapsed = time_module.perf_counter() - start
        self.stats.record_window("query", len(records), elapsed)
        if tracer is not None:
            for seq in range(first_seq, self.events_processed):
                tracer.child(seq, "batch-window", elapsed,
                             attrs={"window": len(records)})
        if self.metrics is not None:
            self.metrics.histogram("latency.window").observe(elapsed)
        self._end_dispatch()
        return records

    def _admit_window(self, events: list[Event]) -> None:
        """Check a whole window before any of it applies."""
        window_type = type(events[0])
        if window_type not in (QueryArrival, AdvertiserJoin) or any(
                type(event) is not window_type for event in events):
            raise TypeError("a window is a run of query arrivals or a "
                            "run of advertiser joins")
        joining: set[int] = set()
        for event in events:
            self._admit(event)
            if window_type is AdvertiserJoin:
                if event.advertiser in joining:
                    raise KeyError(f"advertiser {event.advertiser} "
                                   f"already active")
                joining.add(event.advertiser)

    def _apply_joins(self, joins: "list[AdvertiserJoin]",
                     after_each) -> None:
        """A join window's body: one state operation, then each
        join's bookkeeping in stream order."""
        start = time_module.perf_counter()
        self._join(joins)
        elapsed = time_module.perf_counter() - start
        for event in joins:
            self._register(event)
            self._applied(event, elapsed / len(joins))
            if after_each is not None:
                after_each(event, None)
        if self.metrics is not None:
            self.metrics.histogram("latency.join_window").observe(
                elapsed)

    def _apply(self, event: Event,
               windowed: bool = False) -> AuctionRecord | None:
        """The one apply body, for an event :meth:`check` admitted:
        run its kind's handler, then :meth:`_applied`."""
        start = time_module.perf_counter()
        record = self._HANDLERS[type(event)][1](self, event)
        self._applied(event, time_module.perf_counter() - start,
                      windowed)
        return record

    def _applied(self, event: Event, elapsed: float,
                 windowed: bool = False) -> None:
        """The per-event tail: advance the applied-event watermark,
        fold the sidecars.  A windowed query leaves :attr:`stats` to
        its window, which amortizes its wall time."""
        seq = self.events_processed
        self.events_processed = seq + 1
        kind = event_kind(event)
        if not windowed:
            self.stats.record(kind, elapsed)
        if self.metrics is not None:
            self.metrics.counter(f"service.events.{kind}").inc()
            self.metrics.histogram(
                f"latency.event.{kind}").observe(elapsed)
        if self.tracer is not None:
            # The root opens *after* the apply; children recorded
            # mid-apply (dispatch/emit) or staged ahead of it (ingress)
            # are adopted here, and late children (journal-fsync,
            # checkpoint, batch-window) attach until the next apply's
            # flush_upto.
            self.tracer.open(seq, kind)
            self.tracer.set_duration(seq, elapsed)

    def _end_dispatch(self) -> None:
        """Once per :meth:`process` call or window: refresh the
        supervision counters, tick the metrics writer."""
        supervision = self.backend.supervision_snapshot()
        if supervision:
            # Cumulative counters: the latest snapshot supersedes the
            # previous one wholesale (zeros included — the stats block
            # keeps its stable schema whether or not anything failed).
            self.stats.supervision = supervision
        if self._metrics_writer is not None \
                and self._metrics_writer.due(self.events_processed):
            self._metrics_writer.write_snapshot(self.events_processed,
                                                self.metrics)

    def _apply_query(self, event: QueryArrival) -> AuctionRecord:
        """The query body: dispatch, debit the ledger, pause whoever
        the debit exhausted.  Under observation the same calls in the
        same order are bracketed by ``perf_counter`` reads — sidecar
        data, no RNG, no decision state — so the record stream stays
        bit-identical to a dark run."""
        tracer = self.tracer
        metrics = self.metrics
        observed = tracer is not None or metrics is not None
        start = time_module.perf_counter() if observed else 0.0
        record = self.backend.run_query(event.keyword)
        dispatched = time_module.perf_counter() if observed else 0.0
        paused = 0
        for advertiser in self.registry.settle_charges(record.prices):
            self._pause(advertiser, record.auction_id)
            paused += 1
        if not observed:
            return record
        emit_seconds = time_module.perf_counter() - dispatched
        dispatch_seconds = dispatched - start
        if tracer is not None:
            seq = self.events_processed
            tracer.child(
                seq, "dispatch", dispatch_seconds,
                attrs={"auction_id": record.auction_id,
                       "keyword": event.keyword},
                children=[("wd", record.wd_seconds, None),
                          ("price", record.price_seconds, None),
                          ("settle", record.settle_seconds, None)])
            tracer.child(seq, "emit", emit_seconds,
                         attrs={"paused": paused} if paused else None)
        if metrics is not None:
            metrics.histogram("latency.dispatch").observe(
                dispatch_seconds)
            metrics.histogram("latency.wd").observe(record.wd_seconds)
            metrics.histogram("latency.price").observe(
                record.price_seconds)
            metrics.histogram("latency.settle").observe(
                record.settle_seconds)
            metrics.histogram("latency.emit").observe(emit_seconds)
        return record

    def _control(self, kind: str, advertiser: int, **payload) -> None:
        """Every population change reaches the evaluation state as one
        :class:`~repro.runtime.messages.ControlNotice` — to the local
        leaf or routed to a shard, the same currency, applied by the
        same shard code (which also runs the ``rebuild`` maintenance
        strategy)."""
        self.backend.apply_control(ControlNotice(
            kind=kind, advertiser=advertiser, **payload))

    def _join(self, joins: "list[AdvertiserJoin]") -> None:
        """The state half of a run of joins: one backend call for the
        whole run (the bulk placement routine of the representation —
        one join is its one-row case; under ``rebuild`` maintenance,
        followed by one rebuild)."""
        self.backend.join([ControlNotice(
            kind="join", advertiser=event.advertiser,
            target=event.target,
            bids=np.asarray(event.bids, dtype=float),
            maxbids=np.asarray(event.maxbids, dtype=float),
            values=np.asarray(event.values, dtype=float))
            for event in joins])

    def _register(self, event: AdvertiserJoin) -> None:
        """A join's ledger entry, at the join's own seq."""
        self.registry.admit(event.advertiser, event.target,
                            event.budget, self.events_processed)

    def _apply_join(self, event: AdvertiserJoin) -> None:
        self._join([event])
        self._register(event)

    def _apply_leave(self, event: AdvertiserLeave) -> None:
        self._control("leave", event.advertiser)
        self.registry.retire(event.advertiser)

    def _apply_update(self, event: BidProgramUpdate) -> None:
        self._control("update", event.advertiser,
                      keyword=event.keyword, bid=event.bid,
                      maxbid=event.maxbid)

    def _apply_topup(self, event: BudgetTopUp) -> None:
        entry = self.registry.entry(event.advertiser)
        balance = self.registry.credit(event.advertiser, event.amount)
        if entry.paused and balance > 0:
            self._resume(event.advertiser)
        elif not entry.paused and entry.tracked and balance <= 0:
            # A negative top-up (clawback) can exhaust a ledger
            # just like a charge; same pause path.
            self._pause(event.advertiser, self.backend.auction_id)

    _HANDLERS = {
        QueryArrival: (_check_keyword, _apply_query),
        AdvertiserJoin: (_check_join, _apply_join),
        AdvertiserLeave: (_check_member, _apply_leave),
        BidProgramUpdate: (_check_update, _apply_update),
        BudgetTopUp: (_check_topup, _apply_topup),
        AdvertiserPaused: (_check_emitted, None),
        AdvertiserResumed: (_check_emitted, None),
    }
    """Event type -> ``(check, apply)``: the one dispatch table
    :meth:`check` and :meth:`process` share."""

    def run(self, events: Iterable[Event]) -> list[AuctionRecord]:
        """Consume a stream, returning the auction records in order.

        The stream applies in dispatch units
        (:func:`~repro.stream.batching.take_unit`): every run of
        consecutive joins is one :meth:`process_window` — one bulk
        state operation — and everything else goes through
        :meth:`process`, in arrival order.  With :attr:`batching`
        armed the units come from the micro-batcher's bounded queue,
        which also windows query runs and caps a join run at its
        ``ingress_capacity``; without it there is no queue, and a join
        run windows whole.
        """
        return self._run(events, self)

    def _run(self, events: Iterable[Event], through,
             cap: int | None = None) -> list[AuctionRecord]:
        """The one run loop; ``through`` is what applies each unit —
        this service, or the journaling wrapper around it.  ``cap``
        bounds a join run when there is no batcher (``None``: the run
        itself)."""
        batcher = None
        if self.batching is not None:
            batcher = self.last_batcher = MicroBatcher(
                self.batching, stats=self.stats, metrics=self.metrics,
                track_waits=self.tracer is not None, check=self.check)
            units = batcher.units(events)
        else:
            units = self._units(events, cap)
        records = []
        for unit in units:
            if batcher is not None:
                self._stage_ingress(batcher)
            results = through.process_window(unit) \
                if isinstance(unit, list) else [through.process(unit)]
            records.extend(record for record in results
                           if record is not None)
        return records

    def _units(self, events: Iterable[Event], cap: int | None
               ) -> Iterator[DispatchUnit]:
        """Dispatch units with no ingress queue: the stream itself is
        what is queued, so a join run ends at its own end or ``cap``."""
        pull = partial(next, iter(events), None)
        head = pull()
        while head is not None:
            unit, ended = take_unit(head, pull, 0, cap, self.check)
            yield unit
            head = ended if ended is not None else pull()

    def _stage_ingress(self, batcher: MicroBatcher) -> None:
        """Park each unit member's ingress queue-wait as a staged
        ``ingress`` child: seqs are assigned in apply order, so the
        unit's waits map onto consecutive seqs from the current
        watermark, and the roots opened during the apply adopt them."""
        tracer = self.tracer
        if tracer is None or not batcher.last_waits:
            return
        base = self.events_processed
        depth = batcher.queue_depth
        for offset, wait in enumerate(batcher.last_waits):
            tracer.stage(base + offset, "ingress", wait,
                         attrs={"queue_depth": depth})

    def _pause(self, advertiser: int, auction_id: int) -> None:
        """Exhaustion eviction: retire from every derived structure
        (retaining the primary row capture) and journal the emission."""
        self._control("pause", advertiser)
        self.registry.mark_paused(advertiser)
        self.emitted.append(AdvertiserPaused(advertiser=advertiser,
                                             auction_id=auction_id))
        if self.metrics is not None:
            self.metrics.counter("service.emitted.paused").inc()
        _LOG.debug("paused advertiser %d (budget exhausted)",
                   advertiser,
                   extra={"advertiser": advertiser,
                          "seq": self.events_processed,
                          "auction_id": auction_id})

    def _resume(self, advertiser: int) -> None:
        """Top-up re-admission: re-place the retained row capture."""
        self._control("resume", advertiser)
        self.registry.mark_resumed(advertiser)
        self.emitted.append(AdvertiserResumed(
            advertiser=advertiser,
            auction_id=self.backend.auction_id))
        if self.metrics is not None:
            self.metrics.counter("service.emitted.resumed").inc()
        _LOG.debug("resumed advertiser %d (topped up)", advertiser,
                   extra={"advertiser": advertiser,
                          "seq": self.events_processed})

    # -- introspection -----------------------------------------------------

    @property
    def accounts(self) -> AccountBook:
        return self.backend.accounts

    @property
    def auctions_run(self) -> int:
        return self.backend.auction_id

    def active_advertisers(self) -> list[int]:
        """Registered advertiser ids, paused included (paused
        advertisers are members awaiting re-admission)."""
        return self.registry.active_ids()

    def paused_advertisers(self) -> list[int]:
        """Ids currently paused by budget exhaustion."""
        return self.registry.paused_ids()

    def budget_of(self, advertiser: int) -> float:
        """Remaining balance (``math.inf`` for untracked budgets)."""
        return float(self.registry.balance(advertiser))

    # -- snapshot / restore ------------------------------------------------

    def config_payload(self) -> dict:
        """The service's full configuration as plain JSON data — the
        ``config`` block of a snapshot and of a journal header
        (:mod:`repro.stream.journal`), sufficient to rebuild an
        equivalent genesis service."""
        config = self.workload_config
        return {
            "num_advertisers": config.num_advertisers,
            "num_slots": config.num_slots,
            "num_keywords": config.num_keywords,
            "value_high": config.value_high,
            "initial_bid_fraction": config.initial_bid_fraction,
            "step": config.step,
            "workload_seed": config.seed,
            "method": self.method,
            "maintenance": self.maintenance,
            "workers": self.workers,
            "engine_seed": self.engine_seed,
        }

    def snapshot(self) -> ServiceSnapshot:
        """Freeze the service's full resumable state (pure data)."""
        return ServiceSnapshot(
            config=self.config_payload(),
            auction_id=self.backend.auction_id,
            events_processed=self.events_processed,
            rng_state=self.backend.rng.bit_generator.state,
            registry={int(advertiser): entry for advertiser, entry
                      in self.registry.to_jsonable().items()},
            accounts=accounts_to_jsonable(self.backend.accounts),
            backend_state=self.backend.capture_state(),
        )

    @classmethod
    def from_config_payload(cls, config: dict,
                            workers: int | None = None,
                            start_method: str | None = None,
                            _restore: ServiceSnapshot | None = None
                            ) -> "OnlineAuctionService":
        """A fresh (genesis) service from a :meth:`config_payload`
        dict — how recovery rebuilds a service whose journal predates
        the first checkpoint."""
        return cls(
            PaperWorkloadConfig(
                num_advertisers=int(config["num_advertisers"]),
                num_slots=int(config["num_slots"]),
                num_keywords=int(config["num_keywords"]),
                value_high=float(config["value_high"]),
                initial_bid_fraction=float(
                    config["initial_bid_fraction"]),
                step=float(config["step"]),
                seed=int(config["workload_seed"])),
            method=config["method"],
            maintenance=config["maintenance"],
            workers=(int(config["workers"]) if workers is None
                     else workers),
            engine_seed=int(config["engine_seed"]),
            start_method=start_method,
            _restore=_restore)

    @classmethod
    def restore(cls, snapshot: "ServiceSnapshot | str | Path",
                workers: int | None = None,
                start_method: str | None = None
                ) -> "OnlineAuctionService":
        """Resume a service from a snapshot (or a snapshot file).

        ``workers`` may differ from the snapshotted count — captures
        are global, so the restored population re-shards to any plan.
        """
        if not isinstance(snapshot, ServiceSnapshot):
            snapshot = ServiceSnapshot.from_file(snapshot)
        return cls.from_config_payload(snapshot.config, workers,
                                       start_method, _restore=snapshot)

    # -- lifecycle ---------------------------------------------------------

    def _finalize_observability(self) -> None:
        """Drain the observability sidecars: harvest the workers'
        latest piggybacked counters (the backend must still be alive),
        write the final summary line, close the files.  Idempotent —
        ``close()`` may run more than once."""
        if self._obs_finalized:
            return
        self._obs_finalized = True
        metrics = self.metrics
        if metrics is not None:
            self.worker_metrics = self.backend.worker_metrics()
            for key, value in sorted(
                    self.worker_metrics.get("merged", {}).items()):
                metrics.gauge(f"workers.{key}").set(value)
        if self._metrics_writer is not None:
            self._metrics_writer.write_summary({
                "events_processed": self.events_processed,
                "auctions": self.backend.auction_id,
                "metrics": metrics.to_dict(),
                "event_timings": self.stats.to_dict(),
                "worker_metrics": self.worker_metrics,
            })
            self._metrics_writer.close()
        if self.tracer is not None:
            self.tracer.close()

    def close(self) -> None:
        self._finalize_observability()
        self.backend.close()

    def __enter__(self) -> "OnlineAuctionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DurableAuctionService:
    """The durable event loop: journal first, apply second, commit
    before anything leaves, checkpoint on schedule.

    Wraps an :class:`OnlineAuctionService` with the two-barrier
    contract of :mod:`repro.stream.journal`: every input event is
    written and flushed to the journal *before* it reaches the event
    loop, every service-originated emission is journaled right after
    the event that caused it (tagged ``origin="service"``, same seq),
    and :meth:`commit` — one ``fsync`` for every line since the last —
    runs before a checkpoint is written, before :meth:`close`, and
    (unless the caller takes the barrier over with ``commit=False``)
    before :meth:`process` / :meth:`process_window` return.  The wire
    server is the caller that takes it over: it applies a group of
    already-queued events and commits once, ahead of their replies.
    When a :class:`~repro.stream.snapshot.CheckpointPolicy` is
    attached, a checkpoint lands each time the applied-event
    watermark crosses the interval.  After any crash,
    :func:`repro.stream.recovery.recover` rebuilds a service whose
    remaining-suffix replay is bit-identical to the uninterrupted run.

    Two crash sites (:mod:`repro.stream.crash`) bracket the danger
    windows the fault-injection harness targets:
    ``service-post-apply`` (event applied + emissions journaled, no
    checkpoint yet) and ``service-post-checkpoint`` (checkpoint
    durable, next event's journal append not yet issued — the
    "between checkpoint and journal flush" window).
    """

    def __init__(self, service: OnlineAuctionService,
                 journal: "EventJournal",
                 checkpoints: "CheckpointPolicy | None" = None):
        self.service = service
        self.journal = journal
        self.checkpoints = checkpoints
        if service.metrics is not None:
            # The journal and the checkpoint policy record into the
            # wrapped service's registry (append counters, fsync and
            # checkpoint-write latency histograms).
            journal.metrics = service.metrics
            if checkpoints is not None:
                checkpoints.metrics = service.metrics

    @classmethod
    def open(cls, workload_config: PaperWorkloadConfig,
             journal_path: "str | Path", *,
             checkpoint_dir: "str | Path | None" = None,
             checkpoint_every: int = 0,
             checkpoint_retain: int = 2,
             **service_options) -> "DurableAuctionService":
        """Start a fresh durable service: genesis state (built from
        ``service_options``, :class:`OnlineAuctionService`'s keyword
        parameters), new journal (header = the service's
        :meth:`~OnlineAuctionService.config_payload`), optional
        checkpoint schedule."""
        from repro.stream.journal import EventJournal
        from repro.stream.snapshot import CheckpointPolicy

        service = OnlineAuctionService(workload_config,
                                       **service_options)
        journal = EventJournal.create(journal_path,
                                      service.config_payload())
        checkpoints = None
        if checkpoint_every:
            if checkpoint_dir is None:
                raise ValueError(
                    "checkpoint_every needs a checkpoint_dir")
            checkpoints = CheckpointPolicy(
                directory=Path(checkpoint_dir),
                every=checkpoint_every, retain=checkpoint_retain)
        return cls(service, journal, checkpoints)

    def process(self, event: Event, *,
                commit: bool = True) -> AuctionRecord | None:
        """Durably apply one event (check -> journal -> apply ->
        commit, with a checkpoint when one is due): an event
        :meth:`~OnlineAuctionService.check` refuses raises before the
        journal sees it.  ``commit=False`` leaves the
        barrier to the caller, who must :meth:`commit` before letting
        anything that depends on the event out of the process."""
        self.service._admit(event)
        seq = self.service.events_processed
        self.journal.append(seq, event, origin="input")
        emitted_before = len(self.service.emitted)
        record = self.service.process(event)
        self._journal_emissions(seq, emitted_before)
        crash_hook("service-post-apply")
        self._checkpoint_if_due(seq)
        if commit:
            self.commit()
        return record

    def commit(self) -> None:
        """The group-commit barrier: ``fsync`` the journal if any line
        was appended since the last barrier.  With tracing on, the
        barrier is one ``journal-fsync`` child on the last applied
        event, whose root is still open."""
        entries = self.journal.unsynced
        if not entries:
            return
        start = time_module.perf_counter()
        self.journal.sync()
        tracer = self.service.tracer
        if tracer is not None:
            tracer.child(self.service.events_processed - 1,
                         "journal-fsync",
                         time_module.perf_counter() - start,
                         attrs={"origin": "input", "entries": entries})

    def _journal_emissions(self, seq: int, emitted_before: int) -> None:
        for emission in self.service.emitted[emitted_before:]:
            self.journal.append(seq, emission, origin="service")

    def _checkpoint_if_due(self, seq: int) -> None:
        """Write a due checkpoint — behind the commit barrier, so a
        checkpoint never describes an event the journal could still
        lose — attaching a ``checkpoint`` child to the (still-open)
        root span of the event that crossed the interval when tracing
        is on."""
        if self.checkpoints is None or not self.checkpoints.due(
                self.service.events_processed):
            return
        self.commit()
        write_start = time_module.perf_counter()
        self.checkpoints.write(self.service.snapshot())
        if self.service.tracer is not None:
            self.service.tracer.child(
                seq, "checkpoint",
                time_module.perf_counter() - write_start,
                attrs={"events_processed":
                       self.service.events_processed})
        crash_hook("service-post-checkpoint")

    def process_window(self, events: "list[QueryArrival] | "
                       "list[AdvertiserJoin]", *, commit: bool = True
                       ) -> "list[AuctionRecord | None]":
        """Durably apply one window: a micro-batch of query arrivals
        or a run of advertiser joins
        (:meth:`OnlineAuctionService.process_window`).

        The write-ahead contract holds at window granularity: every
        event of the window is checked before any of it is journaled
        (one bad event journals none of the window) and journaled
        before *any* of it is applied, then each event applies in
        order with its emissions journaled at its own seq and the
        checkpoint schedule consulted per event, exactly as the
        unbatched loop does; one :meth:`commit` closes the window
        (``commit=False`` leaves it to the caller, as in
        :meth:`process`).  A join window applies as one state
        operation, so it is cut at every checkpoint watermark it
        spans: the joins up to the watermark apply, the checkpoint
        describes exactly that seq, then the rest apply.  Window
        boundaries therefore never leak into the recorded event
        order: per origin — the ``input`` sequence and the
        ``service`` emission sequence — the journal is entry for entry
        the one an unbatched run writes (only the interleaving
        *between* the two origins shifts, since a window's inputs land
        ahead of its emissions), and recovery replays each origin
        independently, so it needs no batching awareness at all.  A
        crash after the inputs are journaled (``batch-post-flush``)
        leaves journaled-but-unapplied events that recovery replays;
        a crash between in-window applies (``batch-mid-window``) is
        the classic mid-batch kill.
        """
        if not events:
            return []
        self.service._admit_window(events)
        base_seq = self.service.events_processed
        for offset, event in enumerate(events):
            self.journal.append(base_seq + offset, event,
                                origin="input")
        crash_hook("batch-post-flush")
        emitted_seen = len(self.service.emitted)

        def after_each(event: Event, record: AuctionRecord) -> None:
            nonlocal emitted_seen
            seq = self.service.events_processed - 1
            self._journal_emissions(seq, emitted_seen)
            emitted_seen = len(self.service.emitted)
            crash_hook("batch-mid-window")
            self._checkpoint_if_due(seq)

        results = []
        for part in self._cut(events, base_seq):
            results.extend(self.service.process_window(
                part, after_each=after_each))
        if commit:
            self.commit()
        return results

    def _cut(self, events: list[Event], base_seq: int
             ) -> list[list[Event]]:
        """A join window's parts, each ending at a checkpoint
        watermark (or the window's end); a query window, whole."""
        if self.checkpoints is None \
                or not isinstance(events[0], AdvertiserJoin):
            return [events]
        parts, start = [], 0
        for offset in range(len(events)):
            if self.checkpoints.due(base_seq + offset + 1):
                parts.append(events[start:offset + 1])
                start = offset + 1
        return parts + [events[start:]] if start < len(events) \
            else parts

    def run(self, events: Iterable[Event]) -> list[AuctionRecord]:
        """Consume a stream durably, returning records in order: the
        wrapped service's run loop (micro-batcher included, when its
        :attr:`~OnlineAuctionService.batching` is armed), applying
        through :meth:`process` / :meth:`process_window` here.

        Each unit is one commit group.  Without a batcher every event
        is its own group — one fsync each, as ``--journal`` has always
        committed offline — so joins apply one at a time; with a
        batcher, join runs window up to its ``ingress_capacity`` and
        share one fsync."""
        return self.service._run(events, self, cap=1)

    # Pass-throughs for the introspection surface callers actually
    # use; everything else is reachable through ``.service``.

    @property
    def events_processed(self) -> int:
        return self.service.events_processed

    @property
    def emitted(self) -> EventLog:
        return self.service.emitted

    def close(self) -> None:
        self.commit()
        self.journal.close()
        self.service.close()

    def __enter__(self) -> "DurableAuctionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
