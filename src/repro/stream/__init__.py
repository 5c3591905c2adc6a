"""Online serving: the auction engine as a long-lived event consumer.

The batch pipelines (sequential, batched, sharded) freeze the
advertiser population at construction; this package runs the same
engine as an **online service** consuming an ordered event stream —
query arrivals interleaved with advertisers joining, leaving, editing
bid programs, and topping up budgets — while maintaining the PR-2
array state *incrementally* instead of rebuilding it.

Layers
------
* :mod:`repro.stream.events` — the event vocabulary
  (:class:`QueryArrival`, :class:`AdvertiserJoin`,
  :class:`AdvertiserLeave`, :class:`BidProgramUpdate`,
  :class:`BudgetTopUp`, plus the service-originated
  :class:`AdvertiserPaused` / :class:`AdvertiserResumed`), the
  :class:`EventLog` container, and the
  :data:`~repro.stream.events.StreamSource` consumption contract.
* :mod:`repro.stream.budget` — the budget lifecycle's ledger
  (:class:`BudgetRegistry`): balances that clamp charges, pause
  exhausted advertisers, and re-admit them on top-up.
* :mod:`repro.stream.service` — :class:`OnlineAuctionService`, the
  event loop itself, with ``incremental`` vs ``rebuild`` maintenance
  strategies and in-process or sharded (``workers >= 1``) execution.
* :mod:`repro.stream.snapshot` — :class:`ServiceSnapshot`
  checkpoint/restore (budget lifecycle state included) and the
  capture slice/merge plumbing the sharded mode uses.
* :mod:`repro.stream.replay` — replay-verified accounting: the
  record/trace differ behind ``repro stream --replay`` and
  ``tools/trace_diff.py``.
* :mod:`repro.stream.journal` — the write-ahead
  :class:`EventJournal`: every ingress event (and service emission)
  written before application and fsync'd (group commit) before it
  is acknowledged, torn-tail tolerant.
* :mod:`repro.stream.recovery` — :func:`recover`: newest valid
  checkpoint + journaled-suffix replay, optionally to a different
  worker count; the fault-injection harness
  (``tests/stream/fault_injection.py``) proves the recovered trace
  diffs empty against an uninterrupted run.
* :mod:`repro.stream.crash` — the :class:`CrashPoint` fault-injection
  hook threaded through the service and the sharded runtime.

Durable serving wraps the service: :class:`DurableAuctionService`
journals first, applies second, and checkpoints on a
:class:`~repro.stream.snapshot.CheckpointPolicy` schedule
(``repro stream --journal --checkpoint-every``); ``repro recover``
is the operator entry point (see the crash-recovery runbook in
``docs/operations.md``).

Deterministic churn workloads are generated by
:mod:`repro.workloads.churn`; the acceptance benchmark is the
``stream-churn`` cell of ``benchmarks/offline.py`` (committed in
``BENCH_offline.json``).  See ``docs/streaming.md`` for the design and
the bit-identity (incremental == rebuild == sharded == restored)
argument.
"""

from repro.stream.batching import (
    BACKPRESSURE_MODES,
    BatchingConfig,
    MicroBatcher,
)
from repro.stream.budget import UNLIMITED, BudgetEntry, BudgetRegistry
from repro.stream.crash import CrashPoint, crash_hook
from repro.stream.events import (
    SERVICE_ORIGINATED,
    AdvertiserJoin,
    AdvertiserLeave,
    AdvertiserPaused,
    AdvertiserResumed,
    BidProgramUpdate,
    BudgetTopUp,
    Event,
    EventLog,
    QueryArrival,
    StreamSource,
    event_kind,
)

_LAZY_EXPORTS = {
    # The service pulls in the engine and the sharded runtime, and the
    # runtime's workers import the workloads package, whose churn
    # generator needs this package's (light) event module — so the
    # heavy half resolves lazily to keep every import order cycle-free.
    "CheckpointPolicy": "repro.stream.snapshot",
    "DurableAuctionService": "repro.stream.service",
    "EventJournal": "repro.stream.journal",
    "JournalEntry": "repro.stream.journal",
    "JournalScan": "repro.stream.journal",
    "MAINTENANCE_MODES": "repro.stream.service",
    "OnlineAuctionService": "repro.stream.service",
    "RecoveryError": "repro.stream.recovery",
    "RecoveryResult": "repro.stream.recovery",
    "SERVICE_METHODS": "repro.stream.service",
    "ServiceSnapshot": "repro.stream.snapshot",
    "TraceDiff": "repro.stream.replay",
    "align_traces": "repro.stream.replay",
    "diff_trace_files": "repro.stream.replay",
    "diff_traces": "repro.stream.replay",
    "recover": "repro.stream.recovery",
    "scan_journal": "repro.stream.journal",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

__all__ = [
    "AdvertiserJoin",
    "AdvertiserLeave",
    "AdvertiserPaused",
    "AdvertiserResumed",
    "BACKPRESSURE_MODES",
    "BatchingConfig",
    "BudgetEntry",
    "BudgetRegistry",
    "BidProgramUpdate",
    "BudgetTopUp",
    "CheckpointPolicy",
    "CrashPoint",
    "DurableAuctionService",
    "Event",
    "EventJournal",
    "EventLog",
    "JournalEntry",
    "JournalScan",
    "MAINTENANCE_MODES",
    "MicroBatcher",
    "OnlineAuctionService",
    "QueryArrival",
    "RecoveryError",
    "RecoveryResult",
    "SERVICE_METHODS",
    "SERVICE_ORIGINATED",
    "ServiceSnapshot",
    "StreamSource",
    "TraceDiff",
    "UNLIMITED",
    "align_traces",
    "crash_hook",
    "diff_trace_files",
    "diff_traces",
    "event_kind",
    "recover",
    "scan_journal",
]
