"""The sharded coordinator: real processes behind the engine's facade.

:class:`ShardedAuctionRuntime` runs the six-step auction protocol with
program evaluation (and, for method ``rh``/``rhtalu``, the candidate
scan) distributed over ``workers`` OS processes — the Section III-E
tree network with actual machines instead of the simulation in
:mod:`repro.core.parallel`.  The coordinator keeps everything global
and sequential-identical:

* the **decision RNG** (query draws, user clicks) — consumed in the
  sequential engine's exact order;
* winner determination's **merge** of the shards' top lists (methods
  ``rh`` / ``rhtalu``: ``O(w·k²)``; the full-matrix methods
  re-assemble the bid vector instead);
* **matching, pricing, accounting, settlement** through the very same
  :class:`~repro.auction.settlement.AuctionSettler` tail the
  in-process service runs on its single local leaf
  (:meth:`~repro.auction.settlement.AuctionSettler.settle_slot_lists`
  / :meth:`~repro.auction.settlement.AuctionSettler.settle_subset`) —
  ``workers=0`` is this coordinator's merge over one leaf, without the
  pipe.

Each auction is one lockstep round — task out, reply in, per worker —
because auction *t*'s winners must fold into pacer state before
auction *t+1* evaluates.  Win notices therefore piggyback on the next
round's task, keeping the protocol at exactly two messages per worker
per auction.

Under a fixed seed the merged records, prices, and account balances are
bit-identical to the single-process engine's across ``rh``, ``lp`` (and
the other full-matrix methods), and ``rhtalu`` —
``tests/runtime/test_sharded_runtime.py`` asserts it for worker counts
including uneven and empty shards.  Work accounting (``num_candidates``
for RHTALU, TA access counts) is execution-shape dependent and is the
one thing allowed to differ; see ``docs/runtime.md``.
"""

from __future__ import annotations

import logging
import multiprocessing
import time as time_module
from typing import Sequence

import numpy as np

from repro.auction.batch import BatchStats
from repro.auction.engine import EngineConfig
from repro.auction.events import AuctionRecord
from repro.auction.settlement import AuctionSettler
from repro.core.winner_determination import SubsetSolver
from repro.matching.slot_lists import merge_slot_lists
from repro.runtime.messages import (
    SCAN_METHODS,
    SERVED_METHODS,
    ControlNotice,
    GatherReply,
    ScanReply,
    ShardTask,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
    WinNotice,
    WorkerReady,
)
from repro.runtime.messages import WorkerFailure as WorkerFailureReply
from repro.runtime.sharding import ShardPlan
from repro.runtime.supervision import WorkerFailure, WorkerSupervisor
from repro.runtime.worker import (
    WorkerInit,
    _shift_capture_ids,
    worker_main,
)
from repro.stream.crash import crash_hook
from repro.stream.snapshot import merge_captures, slice_capture
from repro.strategies.base import Query
from repro.workloads.paper_workload import (
    PaperWorkload,
    PaperWorkloadConfig,
)

_LOG = logging.getLogger(__name__)

_POLL_TICK = 0.05
"""Seconds between liveness checks while waiting on a worker pipe."""

_ROUND_REPLIES = (ScanReply, GatherReply)


class ShardedAuctionRuntime:
    """A multi-process auction runtime: engine-shaped offline, the
    online service's substrate when fed events.

    Offline it is a drop-in for :class:`~repro.auction.engine
    .AuctionEngine` where the ``shards`` benchmark cell and ``repro
    simulate --workers`` need it: the workers
    bulk-join the fixed Section V population, ``run_batch(count)`` /
    ``run(count)`` draw each query from the decision RNG and return
    :class:`~repro.auction.events.AuctionRecord` lists, ``accounts``
    holds the merged (coordinator-settled) balances, ``config`` /
    ``last_batch_stats`` feed :func:`repro.bench.profiles.profile_run`.
    The online serving layer (:mod:`repro.stream`) drives the same
    object event by event:

    * workers start from per-shard captures — empty ones at genesis,
      where the event log's joins populate them through the same
      control path later churn uses;
    * queries come from the event stream (:meth:`submit_query`) — the
      decision RNG is then consumed for user clicks only;
    * control events (:class:`~repro.runtime.messages.ControlNotice`,
      :meth:`apply_control`) are routed to the owning shard and
      piggyback on the next :class:`~repro.runtime.messages.ShardTask`
      *after* that task's win notices, preserving the sequential
      service's order (settlement of auction *t*, then churn, then
      evaluation of *t+1*);
    * the coordinator keeps the global active set so winner
      determination runs on the surviving population only;
    * :meth:`pull_shard_states` flushes pending wins/controls and
      collects every shard's primary-state capture for service
      snapshots.

    Parameters
    ----------
    workload_config:
        The Section V workload recipe.  Workers rebuild their shards
        from it deterministically — construction ships a config, not
        state.
    method:
        ``rh`` (sharded leaf scan), ``rhtalu`` (sharded TA scan), or
        ``lp`` / ``hungarian`` (evaluation shards, winner determination
        stays at the coordinator, which those solvers require).
    workers:
        OS processes to shard the population over.  More workers than
        advertisers leaves trailing shards empty (valid).
    engine_seed:
        The decision-stream seed; a sequential
        ``build_engine(method, engine_seed)`` on the same workload
        yields bit-identical records.
    start_method:
        ``multiprocessing`` start method (``None`` = platform default;
        ``"spawn"`` is safest, ``"fork"`` is fastest to start).
    maintenance:
        ``incremental`` or ``rebuild`` — how shards apply control
        events (see :mod:`repro.stream.service`).
    restore_capture:
        ``None`` (the default): the fixed Section V population — every
        worker bulk-joins its span's rows and the whole universe is
        active.  Otherwise the population's global primary capture,
        sliced per shard at spawn (``{}`` = everyone starts empty) —
        what the online service passes, at genesis and on restore
        alike.
    supervise, round_timeout, max_worker_restarts, capture_every:
        Worker supervision (:mod:`repro.runtime.supervision`): heal a
        failed shard in place instead of closing the fleet.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`.  Sidecar only:
        nothing on the decision path reads it.

    Use as a context manager, or call :meth:`close`; workers also shut
    down when the runtime is garbage-collected.
    """

    def __init__(self, workload_config: PaperWorkloadConfig,
                 method: str = "rh", workers: int = 2,
                 engine_seed: int = 0,
                 start_method: str | None = None,
                 maintenance: str = "incremental",
                 restore_capture: dict | None = None,
                 supervise: bool = False,
                 round_timeout: float | None = None,
                 max_worker_restarts: int = 1,
                 capture_every: int = 50,
                 metrics=None):
        if method not in SERVED_METHODS:
            raise ValueError(
                f"method must be one of {SERVED_METHODS}, "
                f"got {method!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if round_timeout is not None and round_timeout <= 0:
            raise ValueError(
                f"round_timeout must be > 0, got {round_timeout}")
        if maintenance not in ("incremental", "rebuild"):
            raise ValueError(
                f"maintenance must be 'incremental' or 'rebuild', "
                f"got {maintenance!r}")
        if max_worker_restarts < 0:
            raise ValueError(
                f"max_worker_restarts must be >= 0, "
                f"got {max_worker_restarts}")
        self.workload = PaperWorkload(workload_config)
        self.workload_config = workload_config
        self.click_matrix = self.workload.click_matrix
        self.query_source = self.workload.query_source()
        self.config = EngineConfig(
            num_slots=workload_config.num_slots, method=method,
            seed=engine_seed)
        self.num_advertisers = workload_config.num_advertisers
        self.num_slots = workload_config.num_slots
        self.top_depth = self.num_slots + 1
        self.method = method
        self.maintenance = maintenance
        self.settler = AuctionSettler.build(
            self.workload.click_model(), self.workload.purchase_model(),
            self.num_slots, engine_seed)
        self.rng = self.settler.rng
        self.accounts = self.settler.accounts
        self._plan_shards(workers)
        self.start_method = start_method
        self.auction_id = 0
        self.last_batch_stats: BatchStats | None = None
        self._bids_buf = np.zeros(self.num_advertisers)
        self._solver: SubsetSolver | None = None
        self._processes: list[multiprocessing.Process] | None = None
        self._conns: list = []
        self._closed = False
        self.round_timeout = round_timeout
        self.capture_every = capture_every
        self.supervisor: WorkerSupervisor | None = None
        if supervise:
            self.supervisor = WorkerSupervisor(
                self.plan.num_shards,
                max_worker_restarts=max_worker_restarts)
        self.metrics = metrics
        self._worker_metrics: dict[int, dict] = {}
        """Latest piggybacked counters per shard (workers attach them
        to replies when spawned with ``observe_metrics``)."""
        self._generation = 0
        self._last_sent = [""] * self.plan.num_shards
        self._join_timeout = 5.0
        self._restore_shards: list[dict] | None = None
        self._active = np.ones(self.num_advertisers, dtype=bool)
        """The live population: what winner determination may see
        (departed rows are excluded, not zeroed — zero-weight edges
        *can* enter a maximum matching)."""
        if restore_capture is not None:
            self._restore_from(restore_capture)
            self._active[:] = False
            self._active[np.asarray(restore_capture.get("ids", ()),
                                    dtype=np.int64)] = True
        self._in_window = False

    def _plan_shards(self, workers: int) -> None:
        """Lay the population out over ``workers`` shards, with empty
        per-shard queues for the notices that ride the next task."""
        self.plan = ShardPlan.plan(self.num_advertisers, workers)
        self._owner = np.repeat(
            np.arange(self.plan.num_shards, dtype=np.int64),
            np.diff(self.plan.bounds))
        self._pending: list[list[WinNotice]] = [
            [] for _ in range(self.plan.num_shards)]
        self._pending_controls: list[list[ControlNotice]] = [
            [] for _ in range(self.plan.num_shards)]

    def _restore_from(self, capture: dict) -> None:
        """Spawn (and reconstruct) every shard from its local-frame
        slice of the global ``capture``; ``{}`` starts them empty."""
        self._restore_shards = [
            slice_capture(capture, lo, hi) if capture else {}
            for lo, hi in self.plan.spans()]

    # -- worker lifecycle --------------------------------------------------

    def start(self) -> None:
        """Spawn the worker fleet now instead of on first use.

        Workers normally fork lazily on the first query, which means
        they inherit whatever file descriptors the coordinator holds
        at that moment.  Long-lived hosts with descriptors that must
        not leak into children — the serving front end's accepted
        sockets, for one — call this right after construction, while
        the process still holds nothing but its own plumbing.
        Idempotent.
        """
        self._ensure_started()

    def _ensure_started(self) -> None:
        if self._processes is not None:
            return
        if self._closed:
            # Workers hold live pacer state the coordinator's stream
            # has already advanced past; respawning them fresh would
            # silently desynchronise.  A closed runtime stays closed.
            raise RuntimeError(
                "runtime is closed; build a new ShardedAuctionRuntime")
        processes, conns = [], []
        try:
            for shard in range(self.plan.num_shards):
                process, conn = self._spawn(shard)
                processes.append(process)
                conns.append(conn)
            for shard, conn in enumerate(conns):
                self._handshake(shard, processes[shard], conn)
        except BaseException:
            for conn in conns:
                conn.close()
            for process in processes:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5)
            raise
        self._processes = processes
        self._conns = conns
        self._last_sent = ["spawn"] * len(conns)

    def _handshake(self, shard: int, process, conn) -> WorkerReady:
        """Wait for a worker's ready message, watching for death.

        A blocking ``recv`` here would hang forever if the worker was
        OOM-killed (or crashed outside Python) during its build; poll
        and check liveness instead.
        """
        try:
            while not conn.poll(_POLL_TICK):
                if not process.is_alive():
                    raise WorkerFailure(
                        shard,
                        "died during startup "
                        f"(exitcode {process.exitcode})", "spawn")
            ready = conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise WorkerFailure(
                shard, f"connection lost during startup ({exc!r})",
                "spawn") from exc
        if isinstance(ready, WorkerFailureReply):
            raise WorkerFailure(shard, "failed to build", "spawn",
                                traceback=ready.traceback)
        assert isinstance(ready, WorkerReady)
        return ready

    def _make_worker_init(self, shard: int,
                          capture: dict | None = None) -> WorkerInit:
        """The spawn recipe for one shard: restored from ``capture``
        when the supervisor retained one (a healed shard), else from
        the runtime's own restore — which is also what
        :meth:`WorkerSupervisor.reconstruct` builds its in-process
        replay shard from."""
        lo, hi = self.plan.spans()[shard]
        if capture is None and self._restore_shards is not None:
            capture = self._restore_shards[shard]
        return WorkerInit(
            shard=shard, lo=lo, hi=hi, method=self.method,
            workload_config=self.workload_config,
            top_depth=self.top_depth,
            seed_sequence=self.plan.seed_sequences(
                self.config.seed)[shard],
            maintenance=self.maintenance, restore=capture,
            generation=self._generation,
            observe_metrics=self.metrics is not None)

    def _spawn(self, shard: int, capture: dict | None = None):
        """Start one worker process; returns it with the coordinator's
        end of its pipe (not yet handshaken)."""
        context = multiprocessing.get_context(self.start_method)
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=worker_main,
            args=(child_conn, self._make_worker_init(shard, capture)),
            daemon=True, name=f"repro-shard-{shard}")
        process.start()
        child_conn.close()
        return process, parent_conn

    def close(self) -> None:
        """Shut the worker fleet down.

        Idempotent, and final: shard state dies with the workers, so a
        closed runtime refuses to run again (the coordinator's stream
        cannot be replayed into fresh shards).
        """
        self._closed = True
        if self._processes is None:
            return
        processes, conns = self._processes, self._conns
        self._processes, self._conns = None, []
        for shard, conn in enumerate(conns):
            try:
                conn.send(Shutdown())
            except (BrokenPipeError, OSError):
                pass
            self._pending[shard].clear()
            self._pending_controls[shard].clear()
            conn.close()
        self._reap(processes)

    def _reap(self, processes) -> None:
        """Join workers, escalating join → terminate → kill.

        A worker that ignores ``Shutdown`` and SIGTERM (wedged in a C
        extension, or a test's deliberately stubborn worker) must not
        leak past ``close()``: after ``_join_timeout`` seconds each,
        the escalation ends at SIGKILL, which is not ignorable.
        """
        for process in processes:
            process.join(timeout=self._join_timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=self._join_timeout)
            if process.is_alive():
                _LOG.warning(
                    "worker %s ignored SIGTERM; killing", process.name)
                process.kill()
                process.join(timeout=self._join_timeout)

    def __enter__(self) -> "ShardedAuctionRuntime":
        self._ensure_started()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- guarded wire primitives -------------------------------------------

    def _send(self, shard: int, message) -> None:
        """Send, raising :class:`WorkerFailure` on a dead pipe."""
        self._last_sent[shard] = type(message).__name__
        try:
            self._conns[shard].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerFailure(
                shard, f"send failed ({exc!r})",
                self._last_sent[shard]) from exc

    def _deadline(self) -> float | None:
        if self.round_timeout is None:
            return None
        return time_module.monotonic() + self.round_timeout

    def _recv_raw(self, shard: int, deadline: float | None):
        """Receive with liveness checks and an optional deadline.

        Polls instead of blocking: a dead worker leaves the pipe
        silent forever (a buffered reply is still delivered first —
        death surfaces only once the buffer drains, which is exactly
        when the coordinator would otherwise hang).  A *hung* worker
        trips the deadline instead.
        """
        conn = self._conns[shard]
        process = (self._processes[shard]
                   if self._processes is not None else None)
        last = self._last_sent[shard]
        try:
            while not conn.poll(_POLL_TICK):
                if process is not None and not process.is_alive():
                    if conn.poll(0):  # reply raced the death
                        break
                    raise WorkerFailure(
                        shard,
                        f"process died (exitcode {process.exitcode})",
                        last)
                if deadline is not None \
                        and time_module.monotonic() > deadline:
                    raise WorkerFailure(
                        shard,
                        f"round timeout after {self.round_timeout}s",
                        last, timed_out=True)
            return conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise WorkerFailure(
                shard, f"connection lost ({exc!r})", last) from exc

    def _recv(self, shard: int, deadline: float | None = None):
        reply = self._recv_raw(shard, deadline)
        if isinstance(reply, WorkerFailureReply):
            raise WorkerFailure(shard, "worker exception",
                                self._last_sent[shard],
                                traceback=reply.traceback)
        return reply

    # -- the engine-shaped API ---------------------------------------------

    def run_batch(self, count: int) -> list[AuctionRecord]:
        """Run ``count`` auctions on queries drawn from the decision
        RNG — the offline, engine-shaped entry: a query-only stream."""
        stats = BatchStats()
        records = []
        for _ in range(count):
            record = self.submit_query(self._draw_query().text)
            stats.observe(record.keyword)
            records.append(record)
        self.last_batch_stats = stats
        return records

    def run(self, count: int) -> list[AuctionRecord]:
        """Alias of :meth:`run_batch` (the runtime is always sharded)."""
        return self.run_batch(count)

    def _draw_query(self) -> Query:
        """The next offline query, drawn from the decision stream in
        the sequential engine's order (before the auction's clicks)."""
        return self.query_source(self.rng)

    # -- the event-facing API ----------------------------------------------

    def submit_query(self, keyword: str) -> AuctionRecord:
        """Run one auction for a query arrival."""
        self._ensure_started()
        if not self._in_window:
            self._refresh_captures_if_due()
        return self._run_one(keyword)

    def _refresh_captures_if_due(self) -> None:
        if self.supervisor is not None and self.capture_every \
                and max(map(len, self.supervisor.histories),
                        default=0) >= self.capture_every:
            # Refresh the retained captures on the supervisor's own
            # cadence (service checkpoints also refresh, for free, via
            # pull_shard_states) so reconstruction never replays more
            # than ~capture_every rounds.
            self.pull_shard_states()

    def begin_query_window(self) -> None:
        """Open a micro-batch of consecutive stream queries.

        The supervisor capture-refresh check runs once here instead
        of per query; each query still runs its own lockstep round,
        so the epoch/heal protocol is untouched (a worker death
        mid-window heals exactly as it would mid-stream).  Refresh
        cadence does not touch auction state, so records stay
        bit-identical to per-query checks.
        """
        self._ensure_started()
        self._refresh_captures_if_due()
        self._in_window = True

    def end_query_window(self) -> None:
        self._in_window = False

    def apply_control(self, notice: ControlNotice) -> None:
        """Queue a churn event for its owning shard (coordinator order:
        events apply before the next auction's evaluation).

        Nothing is validated here.  A notice is applied with the next
        task, where a worker exception kills the fleet, so the one
        caller — the online service's sharded backend — forwards only
        what :meth:`~repro.stream.service.OnlineAuctionService.check`
        admitted.
        """
        if notice.kind in ("join", "resume"):
            self._active[notice.advertiser] = True
        elif notice.kind in ("leave", "pause"):
            self._active[notice.advertiser] = False
        shard = self.plan.owner_of(notice.advertiser)
        self._pending_controls[shard].append(notice)

    # -- one lockstep auction ----------------------------------------------

    def _run_one(self, keyword: str) -> AuctionRecord:
        self.auction_id += 1
        now = float(self.auction_id)
        replies = self._lockstep_round(keyword, now)
        if self.method in SCAN_METHODS:
            return self._merge_scan(keyword, now, replies)
        return self._merge_gather(keyword, now, replies)

    def _lockstep_round(self, keyword: str, now: float) -> list:
        """One auction's task-out/reply-in exchange, retry-safe.

        Pending wins/controls become the round's payload up front (the
        pending lists clear immediately — a retried round re-sends the
        same payload, it never loses or doubles notices).  On a
        :class:`WorkerFailure` the round is healed (:meth:`_heal`) and
        **re-delivered under a bumped epoch**: workers that already ran
        this ``auction_id`` recognise the duplicate and resend their
        cached reply without re-applying anything, while the healed
        shard — rebuilt to its pre-round state — evaluates it fresh.
        Stale replies a failed attempt left in the pipes carry the old
        epoch and are discarded; the pipes are FIFO, so by the time the
        current epoch's reply arrives every older one has drained.
        """
        num_shards = self.plan.num_shards
        wins = [tuple(self._pending[shard])
                for shard in range(num_shards)]
        controls = [tuple(self._pending_controls[shard])
                    for shard in range(num_shards)]
        for shard in range(num_shards):
            self._pending[shard].clear()
            self._pending_controls[shard].clear()
        metrics = self.metrics
        round_start = (time_module.perf_counter()
                       if metrics is not None else 0.0)
        epoch = 0
        while True:
            tasks = [ShardTask(
                auction_id=self.auction_id, keyword=keyword,
                time=now, wins=wins[shard],
                controls=controls[shard], epoch=epoch)
                for shard in range(self.plan.num_shards)]
            try:
                for shard, task in enumerate(tasks):
                    self._send(shard, task)
                # Fault-injection site: every shard holds this round's
                # task, the coordinator holds no reply — an
                # unsupervised death here loses the in-flight auction
                # entirely (tests/stream/fault_injection.py).
                crash_hook("coordinator-mid-round")
                deadline = self._deadline()
                replies = [self._recv_round(shard, epoch, deadline)
                           for shard in range(len(tasks))]
            except WorkerFailure as failure:
                outcome, _ = self._heal(failure)
                if outcome == "reshard":
                    wins = self._resplit(wins, WinNotice)
                    controls = self._resplit(controls, ControlNotice)
                epoch += 1
                continue
            if self.supervisor is not None:
                self.supervisor.record_round(tasks)
            if metrics is not None:
                metrics.counter("runtime.rounds").inc()
                if epoch:
                    metrics.counter("runtime.round_retries").inc(epoch)
                metrics.histogram("latency.shard_round").observe(
                    time_module.perf_counter() - round_start)
            return replies

    def _recv_round(self, shard: int, epoch: int,
                    deadline: float | None):
        """The shard's reply for *this* auction and epoch; anything
        else in the pipe is a failed attempt's leftover — drain it."""
        while True:
            reply = self._recv(shard, deadline)
            if isinstance(reply, _ROUND_REPLIES) \
                    and reply.auction_id == self.auction_id \
                    and reply.epoch == epoch:
                if reply.metrics is not None:
                    self._worker_metrics[shard] = reply.metrics
                return reply

    def worker_metrics(self) -> dict:
        """The fleet's piggybacked counters: per shard plus a merge.

        Empty when no worker ever attached metrics (observability off,
        or no round has completed).  ``per_shard`` keys are stringified
        shard indices (JSON-stable); ``merged`` sums each counter
        key-wise across shards.
        """
        if not self._worker_metrics:
            return {}
        per_shard = {str(shard): dict(counters)
                     for shard, counters
                     in sorted(self._worker_metrics.items())}
        merged: dict[str, float] = {}
        for counters in self._worker_metrics.values():
            for key, value in counters.items():
                merged[key] = merged.get(key, 0) + value
        return {"per_shard": per_shard, "merged": merged}

    def _resplit(self, per_shard: list, _kind) -> list:
        """Re-route a round payload after the shard map changed.

        Flattening in old-shard order then re-bucketing by the new
        owner preserves each advertiser's notice order (an advertiser
        lives in exactly one shard before and after); cross-advertiser
        order is immaterial — shard folds are per-advertiser.
        """
        routed: list[list] = [[] for _ in range(self.plan.num_shards)]
        for notices in per_shard:
            for notice in notices:
                owner = int(self._owner[notice.advertiser])
                routed[owner].append(notice)
        return [tuple(bucket) for bucket in routed]

    def _route_notify(self, keyword: str, now: float):
        """A settle callback that routes wins to their owning shards."""

        def notify(advertiser: int, slot: int | None, clicked: bool,
                   purchased: bool, charge: float) -> None:
            shard = int(self._owner[advertiser])
            self._pending[shard].append(WinNotice(
                advertiser=advertiser, keyword=keyword, time=now,
                clicked=clicked, charge=charge))

        return notify

    def _wd_stats(self, leaf_work_max: int, merge_work: int) -> dict:
        return {
            "num_leaves": self.plan.num_shards,
            "height": 1,
            "messages": 2 * self.plan.num_shards,
            "leaf_work_max": leaf_work_max,
            "merge_work_total": merge_work,
            "critical_path_work": leaf_work_max + merge_work,
        }

    def _merge_scan(self, keyword: str, now: float,
                    replies: Sequence[ScanReply]) -> AuctionRecord:
        """Methods ``rh`` / ``rhtalu``: merge the leaves' slot lists
        and hand them to the shared tail — the slot-list kernel
        (:mod:`repro.matching.slot_lists`) with its scan distributed."""
        start = time_module.perf_counter()
        lists = merge_slot_lists([reply.lists for reply in replies],
                                 self.top_depth)
        bids = self._bids_buf
        for reply in replies:
            bids[reply.lists.ids] = reply.slot_bids
        if self.method == "rhtalu":
            # TA's candidates: whoever made any slot's list.
            num_candidates = len(np.unique(lists.ids))
        else:
            num_candidates = int(np.count_nonzero(self._active))
        leaf_work_max = max(reply.leaf_work for reply in replies)
        merge_work = sum(reply.lists.ids.size for reply in replies)
        return self.settler.settle_slot_lists(
            self.auction_id, keyword, lists, bids, self.click_matrix,
            eval_seconds=max(reply.eval_seconds for reply in replies),
            wd_seconds=(max(reply.scan_seconds for reply in replies)
                        + time_module.perf_counter() - start),
            num_candidates=num_candidates,
            notify_fn=self._route_notify(keyword, now),
            wd_stats=self._wd_stats(leaf_work_max, merge_work))

    def _merge_gather(self, keyword: str, now: float,
                      replies: Sequence[GatherReply]) -> AuctionRecord:
        """Full-matrix methods: assemble bids, solve at the coordinator
        on the live population with the membership-cached solver the
        in-process service's leaf uses (float-identity across modes)."""
        start = time_module.perf_counter()
        bids = np.concatenate([reply.bids for reply in replies])
        self._solver = SubsetSolver.for_membership(
            self._solver, self.click_matrix, self._active, self.method)
        wd = self._solver.solve(bids)
        leaf_work_max = max(reply.leaf_work for reply in replies)
        coordinator_scan = len(wd.id_map) * self.num_slots
        return self.settler.settle_subset(
            self.auction_id, keyword, wd,
            eval_seconds=max(reply.eval_seconds for reply in replies),
            wd_seconds=time_module.perf_counter() - start,
            notify_fn=self._route_notify(keyword, now),
            wd_stats=self._wd_stats(leaf_work_max, coordinator_scan))

    # -- healing -----------------------------------------------------------

    def _heal(self, failure: WorkerFailure) -> tuple[str, dict | None]:
        """Heal a failed shard; returns ``(path, payload)``.  Without a
        supervisor there is no healing: tear down and re-raise.

        ``("respawn", capture)`` — the shard was rebuilt in place; the
        payload is its reconstructed global-id capture.
        ``("reshard", merged)`` — restarts were exhausted, the fleet
        degraded to one fewer worker; the payload is the merged global
        capture the new fleet was spawned from.
        """
        if self.supervisor is None:
            self.close()
            raise failure
        start = time_module.perf_counter()
        stats = self.supervisor.stats
        stats.worker_failures += 1
        if failure.timed_out:
            stats.timeouts += 1
        if self.metrics is not None:
            self.metrics.counter("supervision.worker_failures").inc()
        shard = failure.shard
        if self.supervisor.restarts[shard] \
                >= self.supervisor.max_worker_restarts:
            result = ("reshard", self._degrade(failure))
        else:
            result = ("respawn", self._respawn(shard))
        elapsed = time_module.perf_counter() - start
        stats.record_heal(elapsed)
        if self.metrics is not None:
            self.metrics.histogram("latency.heal").observe(elapsed)
        return result

    def _discard_worker(self, shard: int) -> None:
        """Hard-remove one worker: close its pipe, kill the process.

        SIGKILL, not SIGTERM: the process may be hung (it already blew
        a round deadline) or stopped, and its state is unusable either
        way — the replacement is rebuilt coordinator-side.
        """
        self._conns[shard].close()
        process = self._processes[shard]
        if process.is_alive():
            process.kill()
        process.join(timeout=self._join_timeout)

    def _respawn(self, shard: int) -> dict:
        """Rebuild shard ``shard`` in a fresh process, caught up to its
        last completed protocol step; returns the global capture the
        replacement was spawned from."""
        _LOG.warning("respawning shard %d (generation %d)", shard,
                     self._generation + 1,
                     extra={"shard": shard,
                            "generation": self._generation + 1})
        self.supervisor.stats.respawns += 1
        if self.metrics is not None:
            self.metrics.counter("supervision.respawns").inc()
        self.supervisor.restarts[shard] += 1
        state = self.supervisor.reconstruct_capture(self, shard)
        self._discard_worker(shard)
        lo, hi = self.plan.spans()[shard]
        local = slice_capture(state, lo, hi) if state else None
        self._generation += 1
        process, parent_conn = self._spawn(shard, local)
        try:
            self._handshake(shard, process, parent_conn)
        except BaseException:
            parent_conn.close()
            if process.is_alive():
                process.kill()
            process.join(timeout=self._join_timeout)
            raise
        self._processes[shard] = process
        self._conns[shard] = parent_conn
        # The replacement IS the reconstruction: it becomes the
        # shard's retained baseline, with nothing to replay on top.
        self.supervisor.captures[shard] = local
        self.supervisor.histories[shard] = []
        return state

    def _degrade(self, failure: WorkerFailure) -> dict:
        """Re-shard the population over one fewer worker.

        Every shard is reconstructed coordinator-side to its pre-round
        state (survivors' live state is *ahead* for shards that
        already evaluated the in-flight round — unusable), merged, and
        re-split over a ``w - 1``-shard plan; the old fleet dies
        wholesale.  A single-worker fleet has nothing to degrade to:
        the failure propagates and recovery falls back to
        ``repro recover``'s journal replay.
        """
        if self.plan.num_shards <= 1:
            self.close()
            raise WorkerFailure(
                failure.shard,
                f"{failure.reason}; single-worker fleet cannot "
                "degrade — recover from the journal instead",
                failure.last_message) from failure
        workers = self.plan.num_shards - 1
        _LOG.warning("restarts exhausted for shard %d; degrading to "
                     "%d workers", failure.shard, workers,
                     extra={"shard": failure.shard,
                            "generation": self._generation + 1})
        self.supervisor.stats.reshards += 1
        if self.metrics is not None:
            self.metrics.counter("supervision.reshards").inc()
        # Shard indices are renumbered by the re-split; stale
        # piggybacked counters keyed by old shards would mislead.
        self._worker_metrics = {}
        states = [self.supervisor.reconstruct_capture(self, shard)
                  for shard in range(self.plan.num_shards)]
        merged = merge_captures(states, self.plan.spans(),
                                self.num_advertisers)
        for shard in range(self.plan.num_shards):
            self._discard_worker(shard)
        self._processes, self._conns = None, []
        self._plan_shards(workers)
        self._restore_from(merged)
        self._generation += 1
        self._ensure_started()
        # Fresh supervisor slots sized to the new fleet; captures stay
        # ``None`` — ``_restore_shards`` now carries the merged state,
        # so reconstruction-from-spawn is already correct.
        self.supervisor.reset(workers)
        return merged

    # -- snapshot support --------------------------------------------------

    def pull_shard_states(self) -> list[dict]:
        """Flush pending notices and dump every shard's primary state.

        Sends one :class:`~repro.runtime.messages.SnapshotRequest` per
        shard carrying its pending wins/controls (folding them now
        instead of with the next task is invisible — nothing reads
        shard state in between), and returns the shards' captures with
        global advertiser ids, in shard order.
        """
        self._ensure_started()
        num_shards = self.plan.num_shards
        requests = [SnapshotRequest(
            wins=tuple(self._pending[shard]),
            controls=tuple(self._pending_controls[shard]))
            for shard in range(num_shards)]
        for shard in range(num_shards):
            self._pending[shard].clear()
            self._pending_controls[shard].clear()
        if self.supervisor is not None:
            # Recorded for every shard BEFORE any wire send: the
            # pending lists are already cleared, so reconstruction
            # must include the flush whether or not the worker ever
            # saw the request.
            for shard in range(num_shards):
                self.supervisor.record_flush(shard, requests[shard])
        sent = [False] * num_shards
        collected: dict[int, dict] = {}
        while len(collected) < num_shards:
            try:
                for shard in range(num_shards):
                    if not sent[shard]:
                        self._send(shard, requests[shard])
                        sent[shard] = True
                deadline = self._deadline()
                for shard in range(num_shards):
                    if shard not in collected:
                        reply = self._recv(shard, deadline)
                        if not isinstance(reply, SnapshotReply):
                            raise AssertionError(
                                f"expected SnapshotReply, got "
                                f"{type(reply).__name__}")
                        if reply.metrics is not None:
                            self._worker_metrics[shard] = reply.metrics
                        collected[shard] = reply.state
            except WorkerFailure as failure:
                outcome, payload = self._heal(failure)
                if outcome == "reshard":
                    # The degraded fleet was spawned from the merged
                    # post-flush reconstruction — that reconstruction
                    # IS the pull; nothing more to exchange.
                    return [_shift_capture_ids(
                        slice_capture(payload, lo, hi), lo)
                        for lo, hi in self.plan.spans()]
                # Respawn: the replacement was spawned from the
                # post-flush reconstruction; its slot fills without
                # another wire exchange (never re-send — the pipes
                # must stay one-reply-per-request).
                collected[failure.shard] = payload
                sent[failure.shard] = True
        states = [collected[shard] for shard in range(num_shards)]
        if self.supervisor is not None:
            for shard, (lo, hi) in enumerate(self.plan.spans()):
                self.supervisor.refresh(shard, states[shard], lo, hi)
        return states
