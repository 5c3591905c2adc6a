"""Shard worker processes: build shard state, answer lockstep tasks.

A worker owns one contiguous advertiser span and nothing else.  Its
evaluation state has one lifecycle: born empty over the span (or from
the shard's slice of a snapshot capture), populated by one bulk join of
the span's rows when the runtime serves the fixed Section V population
— derived *deterministically from the workload seed* (every worker
materialises the same :class:`~repro.workloads.paper_workload
.PaperWorkload` and slices its rows), so process startup ships a small
config instead of pickled populations — then changed only by routed
:class:`~repro.runtime.messages.ControlNotice` items and win folds.
Three shard kinds implement the three coordinator protocols:

* :class:`EagerScanShard` (method ``rh``) — vectorized pacer evaluation
  plus the shard-local per-slot top-list scan, i.e. one *leaf* of the
  paper's Section III-E tree network, as a real process;
* :class:`GatherShard` (``lp`` / ``hungarian``) — pacer evaluation
  only; the full bid vector is assembled and solved at the coordinator
  (those solvers need the whole matrix);
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

from repro.auction.batch import ShardEvalState
from repro.evaluation.evaluator import RhtaluEvaluator
from repro.evaluation.pacer_arrays import LazyPacerArrays
from repro.matching.slot_lists import SlotLists
from repro.runtime.messages import (
    SCAN_METHODS,
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
class WorkerInit:
    """Everything a worker needs to rebuild its shard: a recipe, not
    state.  Shipped once at spawn; must stay cheap to pickle.  (The one
    exception is ``restore``, which carries the shard's evolved primary
    state from a service snapshot — evolved state cannot be re-derived
    from the workload seed.)"""

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
    maintenance: str = "incremental"  # or "rebuild"
    """How control events reach the shard's evaluation state: edited in
    place, or followed by a from-capture rebuild (the oracle)."""
    restore: dict | None = None
    """``None``: the fixed Section V population — the shard bulk-joins
    its span's rows from the workload recipe.  Otherwise this shard's
    slice of a service snapshot's primary capture (advertiser ids
    already local); ``{}`` starts the shard *empty*, to grow through
    routed :class:`~repro.runtime.messages.ControlNotice` joins — the
    online event log itself carries the genesis population."""
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


class _Shard:
    """What every populated shard kind shares: its span, and the
    snapshot flush — fold, apply, dump the state's capture."""

    def __init__(self, init: WorkerInit):
        self.shard = init.shard
        self.offset = init.lo
        self.num_local = init.hi - init.lo
        self.maintenance = init.maintenance

    def snapshot(self, request: SnapshotRequest) -> SnapshotReply:
        for win in request.wins:
            self.fold(win)
        for control in request.controls:
            self.apply_control(control)
        return SnapshotReply(shard=self.shard, state=_shift_capture_ids(
            self.capture(), self.offset))


class _EagerShard(_Shard):
    """The two eager shard kinds' evaluation state and its lifecycle:
    born, populated, changed by control notices, captured."""

    def __init__(self, workload: PaperWorkload, init: WorkerInit):
        super().__init__(init)
        self.step = workload.config.step
        self.state = ShardEvalState(
            workload.click_matrix[init.lo:init.hi], init.top_depth,
            workload.keywords, capture=init.restore)
        if init.restore is None:
            self.state.arrays.grow_rows(
                np.arange(self.num_local),
                *workload.pacer_rows(init.lo, init.hi), self.step)
        self.num_slots = self.state.num_slots

    def fold(self, win: WinNotice) -> None:
        self.state.fold_win(win.advertiser - self.offset, win.keyword,
                            win.clicked, win.charge)

    def apply_control(self, notice: ControlNotice) -> None:
        self.state.arrays.apply_control(notice, self.step, self.offset)
        if self.maintenance == "rebuild":
            self.state.rebuild()

    def capture(self) -> dict:
        return self.state.arrays.capture()


class EagerScanShard(_EagerShard):
    """Method ``rh``: a leaf of the tree network as a process."""

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


class GatherShard(_EagerShard):
    """Full-matrix methods: evaluate the shard, ship the bid slice."""

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


class RhtaluShard(_Shard):
    """Method ``rhtalu``: a shard-sized lazy evaluator."""

    def __init__(self, workload: PaperWorkload, init: WorkerInit):
        super().__init__(init)
        self.evaluator = RhtaluEvaluator(
            workload.click_matrix[init.lo:init.hi],
            LazyPacerArrays.for_universe(
                self.num_local, workload.keywords, workload.config.step,
                capture=init.restore))
        if init.restore is None:
            self.evaluator.join_many(
                np.arange(self.num_local),
                *workload.pacer_rows(init.lo, init.hi)[:3])

    def fold(self, win: WinNotice) -> None:
        self.evaluator.record_win(win.advertiser - self.offset,
                                  win.charge, win.time)

    def apply_control(self, notice: ControlNotice) -> None:
        self.evaluator.apply_control(notice, self.offset)
        if self.maintenance == "rebuild":
            self.evaluator = self.evaluator.rebuilt()

    def capture(self) -> dict:
        return self.evaluator.state.capture()

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
        if self.method in SCAN_METHODS:
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
