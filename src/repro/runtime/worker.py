"""Shard worker processes: build shard state, answer lockstep tasks.

A worker owns one contiguous advertiser span and nothing else.  It
rebuilds its shard state *deterministically from the workload seed*
(every worker materialises the same :class:`~repro.workloads
.paper_workload.PaperWorkload` and slices its rows), so process startup
ships a small config instead of pickled populations.  Three shard
kinds implement the three coordinator protocols:

* :class:`EagerScanShard` (method ``rh``) — vectorized pacer evaluation
  plus the shard-local per-slot top-list scan, i.e. one *leaf* of the
  paper's Section III-E tree network, as a real process;
* :class:`GatherShard` (``lp``/``hungarian``/``separable``/``brute``) —
  pacer evaluation only; the full bid vector is assembled and solved at
  the coordinator (those solvers need the whole matrix);
* :class:`RhtaluShard` (method ``rhtalu``) — a shard-sized
  :class:`~repro.evaluation.evaluator.RhtaluEvaluator` whose TA scan
  runs over the shard's rows of the click matrix.

Every shard kind folds routed :class:`~repro.runtime.messages
.WinNotice` items *before* evaluating — the order the sequential engine
interleaves settlement and the next evaluation — which is half of the
runtime's bit-identity argument (the other half is the coordinator
merge; see ``docs/runtime.md``).

Phase timings reported by workers are **per-process CPU seconds**
(``time.process_time``), not wall-clock: with more runnable workers
than cores, wall spans would charge a shard for time the scheduler gave
to its siblings.  CPU seconds measure each shard's actual work, which
is what the coordinator's critical-path accounting (max over shards)
models — on a host with >= ``workers`` free cores the two coincide.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection

import numpy as np

from repro.auction.batch import PacerArrays, ShardEvalState
from repro.matching.slot_lists import SlotLists
from repro.runtime.messages import (
    ControlNotice,
    GatherReply,
    ScanReply,
    ShardTask,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
    WinNotice,
    WorkerFailure,
    WorkerReady,
)
from repro.stream.crash import crash_hook, set_scope
from repro.workloads.paper_workload import (
    PaperWorkload,
    PaperWorkloadConfig,
)

import time as time_module

STUBBORN_ENV = "REPRO_WORKER_STUBBORN"
"""Test hook: when set in a worker's environment, the worker ignores
``SIGTERM`` and refuses both :class:`~repro.runtime.messages.Shutdown`
and pipe EOF — simulating a wedged worker that only ``SIGKILL`` can
remove, which is what the coordinator's ``close()`` escalation
(terminate → kill) exists for."""


@dataclass(frozen=True)
class StreamShardConfig:
    """Streaming-mode knobs for a shard worker.

    ``restore``, when set, is this shard's slice of a service
    snapshot's primary-state capture (advertiser ids already local);
    otherwise the shard starts *empty* and grows through routed
    :class:`~repro.runtime.messages.ControlNotice` joins — the online
    event log itself carries the genesis population.
    """

    maintenance: str = "incremental"  # or "rebuild"
    restore: dict | None = None


@dataclass(frozen=True)
class WorkerInit:
    """Everything a worker needs to rebuild its shard: a recipe, not
    state.  Shipped once at spawn; must stay cheap to pickle.  (The one
    exception is a streaming restore, where ``stream.restore`` carries
    the shard's evolved primary state from a service snapshot —
    evolved state cannot be re-derived from the workload seed.)"""

    shard: int
    lo: int
    hi: int
    method: str
    workload_config: PaperWorkloadConfig
    top_depth: int
    seed_sequence: np.random.SeedSequence | None = None
    """The shard's spawned :class:`~numpy.random.SeedSequence` child
    (see :meth:`repro.runtime.sharding.ShardPlan.seed_sequences`),
    shipped whole so the spawn key survives pickling; carried for
    shard-local sampling needs, never for decision draws."""
    stream: StreamShardConfig | None = None
    """Present when the shard serves an online event stream (live
    advertiser churn); ``None`` reproduces the fixed-population
    runtime exactly."""
    generation: int = 0
    """How many times this shard slot has been (re)spawned.  Bumped by
    worker supervision on every respawn and re-shard; declared as the
    process's crash scope (:func:`repro.stream.crash.set_scope`) so
    chaos tests can kill generation 0 and let the replacement live."""
    observe_metrics: bool = False
    """When set, the worker keeps a plain dict of counters (tasks
    handled, wins folded, controls applied, snapshots, CPU seconds)
    and piggybacks it on every reply's ``metrics`` field for the
    coordinator to merge (:mod:`repro.obs`).  Counting reads only
    message sizes — decision state and the wire protocol's semantics
    are untouched."""


def _shift_capture_ids(capture: dict, delta: int) -> dict:
    """A capture with advertiser ids shifted by ``delta`` (global ↔
    local translation at the shard boundary) — the budget-paused row
    captures are keyed by id, so their keys shift too."""
    shifted = dict(capture)
    shifted["ids"] = np.asarray(capture["ids"], dtype=np.int64) + delta
    if "paused" in capture:
        shifted["paused"] = {int(advertiser) + delta: row
                             for advertiser, row
                             in capture["paused"].items()}
    return shifted


def _build_eager_state(workload: PaperWorkload,
                       init: WorkerInit) -> ShardEvalState:
    """The shard's eager evaluation state, fixed-population or stream."""
    click_rows = workload.click_matrix[init.lo:init.hi]
    if init.stream is None:
        return ShardEvalState(
            workload.build_shard_programs(init.lo, init.hi),
            click_rows, top_depth=init.top_depth)
    state = ShardEvalState([], click_rows, top_depth=init.top_depth,
                           keywords=workload.keywords)
    if init.stream.restore is not None:
        state.arrays = PacerArrays.from_capture(init.stream.restore)
    return state


class _EagerChurnMixin:
    """Control-event application shared by the two eager shard kinds."""

    def apply_control(self, notice: ControlNotice) -> None:
        local = notice.advertiser - self.offset
        arrays = self.state.arrays
        if notice.kind == "join":
            arrays.grow_row(local, notice.target, self.step,
                            notice.bids, notice.maxbids, notice.values)
        elif notice.kind == "leave":
            arrays.retire_row(local)
        elif notice.kind == "update":
            arrays.update_bid(local, notice.keyword, notice.bid,
                              notice.maxbid)
        elif notice.kind == "pause":
            arrays.pause_row(local)
        elif notice.kind == "resume":
            arrays.resume_row(local)
        else:
            raise ValueError(f"unknown control kind {notice.kind!r}")
        if self.maintenance == "rebuild":
            self.state.rebuild()

    def snapshot(self, request: SnapshotRequest) -> SnapshotReply:
        for win in request.wins:
            self.fold(win)
        for control in request.controls:
            self.apply_control(control)
        capture = _shift_capture_ids(self.state.arrays.capture(),
                                     self.offset)
        return SnapshotReply(shard=self.shard, state=capture)


class EagerScanShard(_EagerChurnMixin):
    """Method ``rh``: a leaf of the tree network as a process."""

    def __init__(self, workload: PaperWorkload, init: WorkerInit):
        self.shard = init.shard
        self.offset = init.lo
        self.num_local = init.hi - init.lo
        self.step = workload.config.step
        self.maintenance = (init.stream.maintenance if init.stream
                            else "incremental")
        self.state = _build_eager_state(workload, init)
        self.num_slots = self.state.num_slots

    def fold(self, win: WinNotice) -> None:
        self.state.fold_win(win.advertiser - self.offset, win.keyword,
                            win.clicked, win.charge)

    def handle(self, task: ShardTask) -> ScanReply:
        start = time_module.process_time()
        for win in task.wins:
            self.fold(win)
        for control in task.controls:
            self.apply_control(control)
        self.state.evaluate(task.keyword, task.time)
        eval_done = time_module.process_time()
        lists = self.state.scan()
        scan_done = time_module.process_time()
        return ScanReply(
            auction_id=task.auction_id,
            lists=SlotLists(ids=lists.ids + self.offset,
                            values=lists.values),
            slot_bids=self.state.bid_out[lists.ids],
            eval_seconds=eval_done - start,
            scan_seconds=scan_done - eval_done,
            leaf_work=self.num_local * self.num_slots,
        )


class GatherShard(_EagerChurnMixin):
    """Full-matrix methods: evaluate the shard, ship the bid slice."""

    def __init__(self, workload: PaperWorkload, init: WorkerInit):
        self.shard = init.shard
        self.offset = init.lo
        self.num_local = init.hi - init.lo
        self.step = workload.config.step
        self.maintenance = (init.stream.maintenance if init.stream
                            else "incremental")
        self.state = _build_eager_state(workload, init)

    def fold(self, win: WinNotice) -> None:
        self.state.fold_win(win.advertiser - self.offset, win.keyword,
                            win.clicked, win.charge)

    def handle(self, task: ShardTask) -> GatherReply:
        start = time_module.process_time()
        for win in task.wins:
            self.fold(win)
        for control in task.controls:
            self.apply_control(control)
        bids = self.state.evaluate(task.keyword, task.time)
        return GatherReply(
            auction_id=task.auction_id,
            bids=bids.copy(),
            eval_seconds=time_module.process_time() - start,
            leaf_work=self.num_local,
        )


class RhtaluShard:
    """Method ``rhtalu``: a shard-sized lazy evaluator."""

    def __init__(self, workload: PaperWorkload, init: WorkerInit):
        self.shard = init.shard
        self.offset = init.lo
        self.num_local = init.hi - init.lo
        self.maintenance = (init.stream.maintenance if init.stream
                            else "incremental")
        if init.stream is None:
            self.evaluator = workload.build_shard_rhtalu(init.lo,
                                                         init.hi)
        else:
            from repro.evaluation.evaluator import RhtaluEvaluator
            from repro.evaluation.pacer_arrays import LazyPacerArrays

            if init.stream.restore is not None:
                arrays = LazyPacerArrays.from_capture(
                    init.stream.restore)
            else:
                arrays = LazyPacerArrays(
                    np.ones(self.num_local), workload.keywords,
                    step=workload.config.step)
            self.evaluator = RhtaluEvaluator(
                workload.click_matrix[init.lo:init.hi], arrays)

    def fold(self, win: WinNotice) -> None:
        self.evaluator.record_win(win.advertiser - self.offset,
                                  win.charge, win.time)

    def apply_control(self, notice: ControlNotice) -> None:
        local = notice.advertiser - self.offset
        if notice.kind == "join":
            self.evaluator.apply_join(local, notice.target,
                                      notice.bids, notice.maxbids)
        elif notice.kind == "leave":
            self.evaluator.apply_leave(local)
        elif notice.kind == "update":
            self.evaluator.apply_update(local, notice.keyword,
                                        notice.bid, notice.maxbid)
        elif notice.kind == "pause":
            self.evaluator.apply_pause(local)
        elif notice.kind == "resume":
            self.evaluator.apply_resume(local)
        else:
            raise ValueError(f"unknown control kind {notice.kind!r}")
        if self.maintenance == "rebuild":
            self.evaluator = self.evaluator.rebuilt()

    def snapshot(self, request: SnapshotRequest) -> SnapshotReply:
        for win in request.wins:
            self.fold(win)
        for control in request.controls:
            self.apply_control(control)
        capture = _shift_capture_ids(
            self.evaluator.state.capture(), self.offset)
        return SnapshotReply(shard=self.shard, state=capture)

    def handle(self, task: ShardTask) -> ScanReply:
        start = time_module.process_time()
        for win in task.wins:
            self.fold(win)
        for control in task.controls:
            self.apply_control(control)
        scan = self.evaluator.scan_auction(task.keyword, task.time)
        lists = scan.slot_lists
        return ScanReply(
            auction_id=task.auction_id,
            lists=SlotLists(ids=lists.ids + self.offset,
                            values=lists.values),
            slot_bids=scan.candidate_bids[
                np.searchsorted(scan.candidates, lists.ids)],
            eval_seconds=0.0,
            scan_seconds=time_module.process_time() - start,
            leaf_work=scan.sequential_count + scan.random_count,
        )


class EmptyShard:
    """A shard with no advertisers: valid, answers with empty data.

    Exists so worker counts above the population degrade gracefully
    (the determinism suite pins the behaviour).
    """

    def __init__(self, num_slots: int, method: str, shard: int = -1):
        self.shard = shard
        self.num_slots = num_slots
        self.method = method

    def fold(self, win: WinNotice) -> None:  # pragma: no cover - routed
        raise AssertionError("wins cannot route to an empty shard")

    def apply_control(self, notice) -> None:  # pragma: no cover
        raise AssertionError("churn cannot route to an empty shard")

    def snapshot(self, request: SnapshotRequest) -> SnapshotReply:
        assert not request.wins and not request.controls
        return SnapshotReply(shard=self.shard, state={})

    def handle(self, task: ShardTask):
        if self.method in ("rh", "rhtalu"):
            empty = np.empty((self.num_slots, 0))
            return ScanReply(
                task.auction_id,
                SlotLists(ids=empty.astype(np.int64), values=empty),
                slot_bids=empty, eval_seconds=0.0, scan_seconds=0.0,
                leaf_work=0)
        return GatherReply(task.auction_id, np.empty(0),
                           eval_seconds=0.0, leaf_work=0)


def build_shard(init: WorkerInit):
    """The right shard kind for ``init`` (deterministic reconstruction)."""
    workload = PaperWorkload(init.workload_config)
    if init.hi <= init.lo:
        return EmptyShard(init.workload_config.num_slots, init.method,
                          shard=init.shard)
    if init.method == "rh":
        return EagerScanShard(workload, init)
    if init.method == "rhtalu":
        return RhtaluShard(workload, init)
    return GatherShard(workload, init)


_ORPHAN_POLL_SECONDS = 1.0


def _recv_or_orphaned(conn: Connection):
    """Receive the next message, or ``None`` if the coordinator died.

    A worker must not outlive its coordinator — but a coordinator that
    dies hard (``os._exit``, a kill, a crash-point firing) never sends
    :class:`Shutdown`, and under the ``fork`` start method sibling
    workers inherit each other's pipe ends, so the pipe never reads
    EOF either.  Polling with a bounded wait and checking the parent's
    liveness between polls turns an orphaned worker into a clean exit
    instead of a leaked process (the fault-injection harness kills
    coordinators mid-round on purpose).
    """
    import multiprocessing

    while not conn.poll(_ORPHAN_POLL_SECONDS):
        parent = multiprocessing.parent_process()
        if parent is not None and not parent.is_alive():
            return None
    return conn.recv()


def worker_main(conn: Connection, init: WorkerInit) -> None:
    """Worker process entrypoint: build, handshake, serve, shut down.

    Round deliveries are **idempotent**: the worker remembers the last
    handled ``auction_id`` and its reply, and a re-delivered task for
    the same auction (a supervised retry after another shard was
    healed) applies nothing — the wins/controls were already folded
    and the evaluation already advanced pacing state — and resends the
    cached reply stamped with the retry's epoch.
    """
    set_scope(shard=init.shard, gen=init.generation)
    stubborn = bool(os.environ.get(STUBBORN_ENV))
    if stubborn:  # pragma: no cover - exercised via subprocess tests
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    observe = init.observe_metrics
    counters = {"tasks_handled": 0, "wins_folded": 0,
                "controls_applied": 0, "snapshots": 0,
                "duplicate_rounds": 0}
    cpu_base = time_module.process_time()

    def stamped(reply):
        # Cumulative counters ride every reply; the coordinator keeps
        # the latest per shard.  CPU seconds are this process's
        # process_time since spawn — sidecar data, like every timing.
        return dataclasses.replace(
            reply, metrics=dict(
                counters,
                cpu_seconds=time_module.process_time() - cpu_base))

    try:
        shard = build_shard(init)
        conn.send(WorkerReady(shard=init.shard,
                              num_local=max(init.hi - init.lo, 0)))
        last_task_id: int | None = None
        last_reply = None
        while True:
            message = _recv_or_orphaned(conn)
            if message is None:
                break
            if isinstance(message, Shutdown):
                if stubborn:  # pragma: no cover - subprocess tests
                    continue
                break
            if isinstance(message, SnapshotRequest):
                reply = shard.snapshot(message)
                if observe:
                    counters["snapshots"] += 1
                    counters["wins_folded"] += len(message.wins)
                    counters["controls_applied"] += \
                        len(message.controls)
                    reply = stamped(reply)
                conn.send(reply)
                continue
            if message.auction_id == last_task_id:
                # Duplicate round delivery: already applied; resend.
                resend = dataclasses.replace(last_reply,
                                             epoch=message.epoch)
                if observe:
                    counters["duplicate_rounds"] += 1
                    resend = stamped(resend)
                conn.send(resend)
                continue
            reply = shard.handle(message)
            if message.epoch:
                reply = dataclasses.replace(reply,
                                            epoch=message.epoch)
            last_task_id, last_reply = message.auction_id, reply
            if observe:
                counters["tasks_handled"] += 1
                counters["wins_folded"] += len(message.wins)
                counters["controls_applied"] += len(message.controls)
                reply = stamped(reply)
            # Fault-injection site: the round's wins/controls are
            # folded and the evaluation ran, but the coordinator never
            # hears back — unsupervised it dies on the dropped pipe
            # (the in-flight auction must be recovered from the
            # journal); supervised it heals the shard and re-runs the
            # round (tests/stream/fault_injection.py).
            crash_hook("worker-mid-round")
            conn.send(reply)
            # Fault-injection site: the worker dies *between* rounds;
            # the coordinator only notices at the next exchange.
            crash_hook("worker-idle")
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown
        if stubborn:
            # Simulate a wedged worker: survive the dropped pipe and
            # SIGTERM; only the coordinator's kill() escalation ends us.
            while True:
                time_module.sleep(0.2)
    except Exception:
        try:
            conn.send(WorkerFailure(shard=init.shard,
                                    traceback=traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()
