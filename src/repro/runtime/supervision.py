"""Worker supervision: detect shard failure, heal without restarting.

The sharded runtime's lockstep protocol (one task out, one reply in,
per worker per auction) turns any worker death into a wedged
coordinator unless someone notices.  This module is the noticing and
the healing:

:class:`WorkerFailure`
    The structured exception the coordinator raises instead of hanging
    on a dead pipe — it names the shard, the reason (process death,
    broken pipe, round timeout, or a worker-side exception), and the
    last message kind the coordinator sent that shard, so an operator
    can tell a crash from a hang from a bug at a glance.

:class:`WorkerSupervisor`
    The coordinator-side state that makes in-place healing possible.
    For every shard it retains the latest primary-state capture
    (refreshed whenever the service pulls shard states — i.e. on the
    checkpoint cadence — or on its own ``capture_every`` round
    schedule) plus the ordered history of round tasks and snapshot
    flushes delivered since that capture.  Because shard evaluation is
    **stateful** (pacing advances ``auctions_seen`` and steps bids
    every round), a dead shard's state cannot be re-derived from
    control notices alone: :meth:`WorkerSupervisor.reconstruct`
    replays the full task history against a fresh in-process shard
    built from the retained capture, which is exactly the computation
    the dead worker performed — deterministic, RNG-free (decision
    randomness lives only at the coordinator), and therefore
    bit-identical.

Healing itself (respawn the shard from the reconstructed capture, or
degrade by merging it into a smaller fleet) lives on
:class:`~repro.runtime.executor.ShardedAuctionRuntime`, which owns the
processes; the supervisor owns the *state* that survives them.  The
invariant both paths preserve: after healing and re-running the
in-flight round under a bumped epoch, the merged records are
bit-identical to an unfailed run (``tests/stream/test_supervision.py``
and the chaos matrix in ``tests/stream/test_fault_injection.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.runtime.messages import ShardTask, SnapshotRequest
from repro.runtime.worker import build_shard
from repro.stream.snapshot import slice_capture

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import ShardedAuctionRuntime


class WorkerFailure(RuntimeError):
    """A shard worker failed mid-protocol.

    Raised by the coordinator's guarded send/receive paths instead of
    hanging on a silent pipe (dead worker), propagating a raw
    ``EOFError``/``BrokenPipeError``, or blocking forever on a hung
    worker (``round_timeout``).  Under supervision the exception is
    caught and healed; without it, the runtime closes and re-raises.
    """

    def __init__(self, shard: int, reason: str,
                 last_message: str | None = None,
                 traceback: str | None = None,
                 timed_out: bool = False):
        self.shard = shard
        self.reason = reason
        self.last_message = last_message
        self.traceback = traceback
        self.timed_out = timed_out
        text = f"shard {shard} failed: {reason}"
        if last_message is not None:
            text += f" (last message sent: {last_message})"
        if traceback:
            text += f"\n{traceback}"
        super().__init__(text)


@dataclass
class SupervisionStats:
    """Counters the healing paths maintain, surfaced through the
    service's per-event stats (``bench/stream_stats.py``) and the
    supervision benchmark.  Timings here are coordinator wall-clock —
    the serving stall a failure caused — and, like every timing in the
    stack, exempt from trace identity (``tools/trace_diff.py`` ignores
    them)."""

    worker_failures: int = 0
    respawns: int = 0
    reshards: int = 0
    timeouts: int = 0
    heal_seconds: float = 0.0
    heals: list[float] = field(default_factory=list)

    def record_heal(self, seconds: float) -> None:
        self.heal_seconds += seconds
        self.heals.append(seconds)

    def to_dict(self) -> dict:
        count = len(self.heals)
        return {
            "worker_failures": self.worker_failures,
            "respawns": self.respawns,
            "reshards": self.reshards,
            "timeouts": self.timeouts,
            "heals": count,
            "heal_seconds": self.heal_seconds,
            "mean_heal_seconds": (self.heal_seconds / count
                                  if count else 0.0),
            "max_heal_seconds": max(self.heals, default=0.0),
        }


# History entry tags: a lockstep round task (recorded once the round's
# replies were all collected — an in-flight round is *not* history,
# it is retried) vs. a snapshot flush (recorded at send — the
# coordinator clears its pending lists then, so reconstruction must
# include the flush whether or not the wire delivery happened).
_TASK = "task"
_FLUSH = "flush"


class WorkerSupervisor:
    """Retained captures + replayable histories, one slot per shard.

    ``captures[shard]`` is the shard's latest **local-frame** primary
    capture (``None`` until the first refresh — reconstruction then
    starts from the runtime's spawn-time restore, or empty);
    ``histories[shard]`` is everything delivered to the shard since.
    """

    def __init__(self, num_shards: int, max_worker_restarts: int = 1):
        self.max_worker_restarts = max_worker_restarts
        self.stats = SupervisionStats()
        self.reset(num_shards)

    def reset(self, num_shards: int) -> None:
        """Fresh slots (after a degraded re-shard: new fleet, new
        spans, restart counters back to zero)."""
        self.num_shards = num_shards
        self.captures: list[dict | None] = [None] * num_shards
        self.histories: list[list[tuple[str, object]]] = [
            [] for _ in range(num_shards)]
        self.restarts = [0] * num_shards

    # -- recording ---------------------------------------------------------

    def record_round(self, tasks: Sequence[ShardTask]) -> None:
        """A completed lockstep round, one task per shard."""
        for shard, task in enumerate(tasks):
            self.histories[shard].append((_TASK, task))

    def record_flush(self, shard: int,
                     request: SnapshotRequest) -> None:
        self.histories[shard].append((_FLUSH, request))

    def refresh(self, shard: int, global_state: dict, lo: int,
                hi: int) -> None:
        """Adopt a freshly pulled capture; the history it subsumes is
        dropped (this is what bounds reconstruction cost to one
        capture interval)."""
        self.captures[shard] = slice_capture(global_state, lo, hi)
        self.histories[shard] = []

    # -- reconstruction ----------------------------------------------------

    def reconstruct(self, runtime: "ShardedAuctionRuntime",
                    shard: int):
        """Rebuild shard ``shard``'s live state in-process.

        Builds a fresh shard object from the retained capture (or the
        runtime's spawn-time restore when no refresh has happened yet)
        and replays the recorded history — every round task and
        snapshot flush the real worker applied since that capture.
        Returns the shard object, whose state equals the dead worker's
        at its last completed protocol step.
        """
        init = runtime._make_worker_init(shard,
                                         self.captures[shard])
        worker = build_shard(init)
        for kind, message in self.histories[shard]:
            if kind == _TASK:
                worker.handle(message)
            else:
                worker.snapshot(message)
        return worker

    def reconstruct_capture(self, runtime: "ShardedAuctionRuntime",
                            shard: int) -> dict:
        """The reconstructed shard's primary capture, global ids."""
        worker = self.reconstruct(runtime, shard)
        return worker.snapshot(SnapshotRequest()).state

    def to_dict(self) -> dict:
        return self.stats.to_dict()
