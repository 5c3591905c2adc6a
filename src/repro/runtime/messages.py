"""The wire protocol between the coordinator and shard workers.

One lockstep round per auction: the coordinator sends every worker a
:class:`ShardTask` carrying the new auction's keyword/time **plus the
previous auction's wins routed to that shard** (piggybacked so a round
is exactly one send and one receive per worker), and each worker
answers with its protocol's reply.  All payloads are small — per-slot
top lists with their bids, a bid slice — and advertiser ids on the wire
are always **global**; workers translate with their shard offset.

Messages are plain picklable dataclasses; NumPy arrays cross the pipe
as-is (they are fresh shard-local copies, never views of live worker
buffers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matching.slot_lists import SlotLists

SCAN_METHODS = frozenset({"rh", "rhtalu"})
"""Methods whose per-slot top-list scan distributes over shards (an
eager leaf scan for ``rh``, a shard-sized TA walk for ``rhtalu``) and
is answered with a :class:`ScanReply`; every other method gathers bids
(:class:`GatherReply`)."""

SERVED_METHODS = ("rh", "lp", "hungarian", "rhtalu")
"""Every method the runtime (and so the online service) serves: the
two scan methods plus the full-matrix solvers the coordinator runs on
gathered bids."""


@dataclass(frozen=True)
class WinNotice:
    """One past winner's settlement, routed to the owning shard.

    ``keyword``/``time`` are the *winning* auction's (the fold and
    ``record_win`` need them, and they differ from the task's when the
    notice piggybacks on the next auction).
    """

    advertiser: int  # global id
    keyword: str
    time: float
    clicked: bool
    charge: float


@dataclass(frozen=True)
class ControlNotice:
    """One advertiser-churn event, routed to the owning shard.

    The online serving layer (:mod:`repro.stream`) turns stream control
    events into these; like :class:`WinNotice` they piggyback on the
    next :class:`ShardTask` so the lockstep protocol stays at two
    messages per worker per auction.  ``advertiser`` is global; the
    worker translates with its shard offset.  Payload fields are
    kind-dependent: joins carry the full per-keyword bid program
    (``bids`` / ``maxbids`` / ``values`` aligned with the workload's
    keyword order, plus ``target``), updates carry one keyword's edited
    ``bid`` / ``maxbid``; leaves, pauses, and resumes carry nothing
    (the budget lifecycle's pause/resume state lives in the shard's
    pacer arrays — the notice only names the advertiser).
    """

    kind: str  # "join" | "leave" | "update" | "pause" | "resume"
    advertiser: int  # global id
    target: float = 0.0
    bids: np.ndarray | None = None
    maxbids: np.ndarray | None = None
    values: np.ndarray | None = None
    keyword: str | None = None
    bid: float = 0.0
    maxbid: float = 0.0


def join_rows(notices: "list[ControlNotice]", offset: int = 0
              ) -> tuple[np.ndarray, ...]:
    """A run of join notices as bulk-join rows: ``(advertisers,
    targets, bids, maxbids, values)``, one row per notice, ids
    translated by ``offset`` (a shard's ``lo``)."""
    return (np.array([notice.advertiser - offset for notice in notices]),
            np.array([notice.target for notice in notices], dtype=float),
            np.stack([notice.bids for notice in notices]),
            np.stack([notice.maxbids for notice in notices]),
            np.stack([notice.values for notice in notices]))


@dataclass(frozen=True)
class ShardTask:
    """One auction's work order: fold these wins, apply these control
    events (in that order — settlement of auction *t* precedes any
    churn that arrived between *t* and *t+1*), then evaluate this."""

    auction_id: int
    keyword: str
    time: float
    wins: tuple[WinNotice, ...] = ()
    controls: tuple[ControlNotice, ...] = ()
    epoch: int = 0
    """Delivery attempt for this auction's round.  Worker supervision
    (:mod:`repro.runtime.supervision`) re-runs an in-flight round after
    healing a failed shard; retries bump the epoch so workers can
    recognise a duplicate ``auction_id`` (apply nothing, resend the
    cached reply) and the coordinator can discard replies a failed
    attempt left in the pipes."""


@dataclass(frozen=True)
class ScanReply:
    """Slot-list protocol (methods ``rh`` and ``rhtalu``): the shard's
    leaf of the tree network.

    ``lists`` are the shard's per-slot top-``top_depth`` lists in
    *global* ids — an eager leaf scan (``rh``) or a shard-sized
    threshold-algorithm walk (``rhtalu``) — and ``slot_bids`` the
    per-click bids aligned with ``lists.ids`` (the cap GSP needs for
    whoever wins).  The coordinator merges the lists, matches and
    prices from them; no weight row ever crosses the pipe.
    ``leaf_work`` counts the entries the shard's scan touched (``m x
    k`` eager, sorted + random accesses for TA — execution-shape
    dependent: a sharded TA stops each shard's walk locally), feeding
    the records' parallel-WD accounting.
    """

    auction_id: int
    lists: SlotLists
    slot_bids: np.ndarray
    eval_seconds: float
    scan_seconds: float
    leaf_work: int
    epoch: int = 0
    """Echo of the task's epoch (stale replies are discarded)."""
    metrics: dict | None = None
    """Piggybacked worker-side observability counters (cumulative
    since this worker's spawn) — attached only when the worker was
    spawned with ``observe_metrics``; the merge path never reads it."""


@dataclass(frozen=True)
class GatherReply:
    """Full-gather protocol (``lp``/``hungarian``/...): the bid slice."""

    auction_id: int
    bids: np.ndarray
    eval_seconds: float
    leaf_work: int
    epoch: int = 0
    """Echo of the task's epoch (stale replies are discarded)."""
    metrics: dict | None = None
    """Piggybacked worker-side observability counters (see
    :class:`ScanReply`)."""


@dataclass(frozen=True)
class SnapshotRequest:
    """Coordinator → worker: flush and dump the shard's primary state.

    Pending wins/controls that would normally piggyback on the next
    task are carried here instead, so the dumped state reflects every
    event the coordinator has already settled or accepted (applying
    them now rather than with the next task is invisible — nothing
    reads shard state in between).
    """

    wins: tuple[WinNotice, ...] = ()
    controls: tuple[ControlNotice, ...] = ()


@dataclass(frozen=True)
class SnapshotReply:
    """The shard's primary-state capture, advertiser ids globalized."""

    shard: int
    state: dict
    metrics: dict | None = None
    """Piggybacked worker-side observability counters (see
    :class:`ScanReply`) — snapshot flushes refresh them too, so the
    coordinator's view stays current between query rounds."""


@dataclass(frozen=True)
class WorkerReady:
    """Handshake: the shard built its state and is accepting tasks."""

    shard: int
    num_local: int


@dataclass(frozen=True)
class WorkerFailure:
    """A worker's unhandled exception, with its formatted traceback."""

    shard: int
    traceback: str


@dataclass(frozen=True)
class Shutdown:
    """Coordinator → worker: exit cleanly.

    A bare sentinel: shard state dies with the worker and a closed
    runtime never runs again, so there is nothing to flush.
    """
