"""Snapshot/restore: checkpoint a live service, resume it bit-for-bit.

A :class:`ServiceSnapshot` freezes everything the online service needs
to continue *deterministically*: the workload/service configuration,
the population's **primary** evaluation state (the captures defined by
:meth:`repro.auction.batch.PacerArrays.capture` and
:meth:`repro.evaluation.pacer_arrays.LazyPacerArrays.capture` — stored
bids, adjustments, modes, deadlines; never the derived sorted
structures, which restore re-derives), the budget registry (balances
plus pause flags), the provider's account book, the auction counter,
and the decision RNG's bit-generator state.  Budget-paused advertisers
round-trip too: their retained per-row captures travel inside the
backend capture under ``"paused"``, slice to the owning shard on a
re-sharded restore, and re-admit bit-identically on a post-restore
top-up.  Restoring and replaying the remaining events
produces records bit-identical to the uninterrupted run — the
round-trip invariant ``tests/stream/test_snapshot.py`` asserts for
every method and worker count.

Snapshots serialize to a single JSON file.  Python's ``json`` writes
floats via ``repr``, which round-trips every finite IEEE-754 double
exactly, and its (non-standard but symmetric) ``Infinity`` literal
carries the trigger banks' "never" sentinels; NumPy arrays travel as
nested lists with dtypes recovered from a fixed per-field schema.

:class:`CheckpointPolicy` turns the one-shot snapshot into continuous
checkpointing: every N applied events the durable service
(:class:`~repro.stream.service.DurableAuctionService`) writes a
watermark-named checkpoint file and prunes beyond a retention count.
Checkpoints are deliberately written in place (no atomic rename) —
recovery validates on read and falls back past a torn file, which is
one of the fault-injection scenarios
(``tests/stream/test_fault_injection.py``).

The module also hosts the capture plumbing the sharded service uses:
:func:`slice_capture` cuts a global capture into one shard's local
rows (shipped as :class:`repro.runtime.worker.WorkerInit`'s
``restore``), and
:func:`merge_captures` reassembles the global capture from per-shard
dumps (ids are already global on the wire).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.auction.accounts import AccountBook, AdvertiserAccount

SNAPSHOT_FORMAT = "repro-stream-snapshot/2"
"""Format 2 adds the budget lifecycle: registry entries carry a
``paused`` flag (``budget: null`` = untracked), and captures carry the
paused rows' retained per-row state under ``"paused"``."""

ACCEPTED_FORMATS = ("repro-stream-snapshot/1", SNAPSHOT_FORMAT)
"""Format 1 (pre-lifecycle) still restores: no advertiser was paused
and budgets never gated participation, so every format-1 budget maps
to untracked — enforcing them post-restore would change the replayed
records and break the round-trip invariant."""

_CAPTURE_DTYPES = {
    "ids": np.int64,
    "auctions_seen": np.int64,
    "counts": np.int64,
    "mode": np.int8,
    "cls": np.int8,
}
_KEYWORD_LEVEL_KEYS = ("counts", "adjust_inc", "adjust_dec")
_NON_ARRAY_KEYS = ("kind", "num_advertisers", "step", "keywords")


_PAUSED_INT_FIELDS = ("mode", "auctions_seen")
"""Scalar integer fields of a paused row capture (everything else in a
row is a float scalar or a per-keyword float array)."""


def _paused_to_jsonable(paused: dict) -> dict:
    return {str(advertiser): {key: (value.tolist()
                                    if isinstance(value, np.ndarray)
                                    else value)
                              for key, value in row.items()}
            for advertiser, row in paused.items()}


def _paused_from_jsonable(payload: dict) -> dict:
    paused = {}
    for advertiser, row in payload.items():
        restored = {}
        for key, value in row.items():
            if isinstance(value, list):
                restored[key] = np.asarray(value, dtype=float)
            elif key in _PAUSED_INT_FIELDS:
                restored[key] = int(value)
            else:
                restored[key] = float(value)
        paused[int(advertiser)] = restored
    return paused


def capture_to_jsonable(capture: dict) -> dict:
    """A capture dict with every array as (exactly round-tripping)
    nested lists; budget-paused row captures nest the same way."""
    return {key: (_paused_to_jsonable(value) if key == "paused"
                  else value.tolist() if isinstance(value, np.ndarray)
                  else value)
            for key, value in capture.items()}


def capture_from_jsonable(payload: dict) -> dict:
    """Inverse of :func:`capture_to_jsonable` (dtypes from the schema;
    everything unlisted — including the eager capture's per-row
    ``step`` array — is float)."""
    capture = {}
    for key, value in payload.items():
        if key == "paused":
            capture[key] = _paused_from_jsonable(value)
        elif key in _NON_ARRAY_KEYS and not isinstance(value, list):
            capture[key] = value
        elif key == "keywords":
            capture[key] = list(value)
        elif key == "step" and isinstance(value, list):
            capture[key] = np.asarray(value, dtype=float)
        else:
            capture[key] = np.asarray(
                value, dtype=_CAPTURE_DTYPES.get(key, float))
    return capture


def _row_keys(capture: dict) -> list[str]:
    """The keys holding one row per captured advertiser."""
    keys = []
    for key, value in capture.items():
        if key in _KEYWORD_LEVEL_KEYS or key == "keywords":
            continue
        if isinstance(value, np.ndarray):
            keys.append(key)
    return keys


def slice_capture(capture: dict, lo: int, hi: int) -> dict:
    """One shard's local-row slice of a global capture.

    Selects the advertisers in ``[lo, hi)``, shifts their ids to the
    shard-local frame, and narrows ``num_advertisers`` to the span —
    the exact shape :class:`~repro.runtime.worker.WorkerInit` restores
    a shard from.
    """
    ids = np.asarray(capture["ids"], dtype=np.int64)
    chosen = (ids >= lo) & (ids < hi)
    sliced = dict(capture)
    sliced["num_advertisers"] = hi - lo
    for key in _row_keys(capture):
        sliced[key] = np.asarray(capture[key])[chosen]
    sliced["ids"] = ids[chosen] - lo
    sliced["paused"] = {int(advertiser) - lo: row
                        for advertiser, row
                        in capture.get("paused", {}).items()
                        if lo <= int(advertiser) < hi}
    return sliced


def merge_captures(states: Sequence[dict], spans: Sequence[tuple[int,
                   int]], num_advertisers: int) -> dict:
    """Reassemble per-shard captures (global ids) into one capture.

    Empty shards dump ``{}``; any non-empty shard provides the
    keyword-level template (keyword counters and adjustments are
    lockstep-identical across shards — every shard applies the same
    ``begin_auction`` sequence).  Shard order is ascending-id order,
    so plain concatenation keeps ``ids`` sorted.
    """
    filled = [state for state in states if state]
    if not filled:
        raise ValueError("no shard produced a capture")
    template = filled[0]
    merged = dict(template)
    merged["num_advertisers"] = num_advertisers
    for key in _row_keys(template):
        parts = [np.asarray(state[key]) for state in filled]
        merged[key] = np.concatenate(parts, axis=0)
    merged["paused"] = {int(advertiser): row
                        for state in filled
                        for advertiser, row
                        in state.get("paused", {}).items()}
    return merged


def accounts_to_jsonable(accounts: AccountBook) -> dict:
    return {
        "provider_revenue": accounts.provider_revenue,
        "accounts": {
            str(advertiser): {
                "impressions": account.impressions,
                "clicks": account.clicks,
                "purchases": account.purchases,
                "auctions_won": account.auctions_won,
                "charged": account.charged,
            }
            for advertiser, account in sorted(accounts.accounts.items())
        },
    }


def restore_accounts(accounts: AccountBook, payload: dict) -> None:
    """Fill an existing (shared-by-reference) book from a snapshot."""
    accounts.accounts.clear()
    accounts.provider_revenue = float(payload["provider_revenue"])
    for key, fields in payload["accounts"].items():
        advertiser = int(key)
        accounts.accounts[advertiser] = AdvertiserAccount(
            advertiser=advertiser,
            impressions=int(fields["impressions"]),
            clicks=int(fields["clicks"]),
            purchases=int(fields["purchases"]),
            auctions_won=int(fields["auctions_won"]),
            charged=float(fields["charged"]),
        )


@dataclass
class ServiceSnapshot:
    """A restorable checkpoint of an :class:`~repro.stream.service
    .OnlineAuctionService`."""

    config: dict
    """Workload + service knobs: advertiser capacity, slots, keywords,
    seeds, method, maintenance strategy, worker count."""
    auction_id: int
    events_processed: int
    rng_state: dict
    registry: dict
    accounts: dict
    backend_state: dict
    """The population capture (global advertiser ids)."""

    def to_json(self) -> str:
        """The serialized (single-line JSON) checkpoint payload."""
        payload = {
            "format": SNAPSHOT_FORMAT,
            "config": self.config,
            "auction_id": self.auction_id,
            "events_processed": self.events_processed,
            "rng_state": self.rng_state,
            "registry": {str(advertiser): entry for advertiser, entry
                         in sorted(self.registry.items())},
            "accounts": self.accounts,
            "backend_state": capture_to_jsonable(self.backend_state),
        }
        return json.dumps(payload, sort_keys=True) + "\n"

    def to_file(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def from_file(cls, path: str | Path) -> "ServiceSnapshot":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format") not in ACCEPTED_FORMATS:
            raise ValueError(
                f"not a {SNAPSHOT_FORMAT} file: {path}")
        return cls(
            config=dict(payload["config"]),
            auction_id=int(payload["auction_id"]),
            events_processed=int(payload["events_processed"]),
            rng_state=payload["rng_state"],
            registry={int(advertiser): dict(entry) for advertiser,
                      entry in payload["registry"].items()},
            accounts=dict(payload["accounts"]),
            backend_state=capture_from_jsonable(
                payload["backend_state"]),
        )


CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"


def checkpoint_name(events_processed: int) -> str:
    """The on-disk name of the checkpoint at a stream watermark:
    ``checkpoint-<events_processed:012d>.json`` (zero-padded so
    lexicographic file order is watermark order)."""
    return (f"{CHECKPOINT_PREFIX}{events_processed:012d}"
            f"{CHECKPOINT_SUFFIX}")


@dataclass
class CheckpointPolicy:
    """Continuous checkpointing: snapshot every N events, keep K.

    The durable event loop (:class:`~repro.stream.service
    .DurableAuctionService`) consults :meth:`due` after each applied
    event and calls :meth:`write` when it fires.  Checkpoint files are
    named by their applied-event watermark (:func:`checkpoint_name`)
    and written **without** an atomic rename: recovery
    (:mod:`repro.stream.recovery`) validates on read and falls back to
    the previous checkpoint when the newest is torn, so a crash
    mid-write costs at most one checkpoint interval of replay — the
    exact trade-off the ``recovery`` cell of ``benchmarks/offline.py``
    measures.
    Retention prunes all but the newest ``retain`` files *after* the
    new checkpoint is fsync'd (never before: until the newcomer is
    durable, the previous checkpoint is the recovery point).
    """

    directory: Path
    every: int
    retain: int = 2

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        if self.every < 1:
            raise ValueError(
                f"checkpoint interval must be >= 1, got {self.every}")
        if self.retain < 1:
            raise ValueError(
                f"retain must be >= 1, got {self.retain}")
        # Optional MetricsRegistry (repro.obs), attached by the
        # durable wrapper when observability is armed; not a dataclass
        # field so equality/repr stay about the policy itself.
        self.metrics = None

    def due(self, events_processed: int) -> bool:
        """Whether a checkpoint should land at this watermark."""
        return events_processed > 0 \
            and events_processed % self.every == 0

    def checkpoint_files(self) -> list[Path]:
        """Existing checkpoint files, oldest first."""
        if not self.directory.is_dir():
            return []
        return sorted(
            path for path in self.directory.iterdir()
            if path.name.startswith(CHECKPOINT_PREFIX)
            and path.name.endswith(CHECKPOINT_SUFFIX))

    def write(self, snapshot: ServiceSnapshot) -> Path:
        """Write one checkpoint file durably, then prune old ones.

        When the ``checkpoint-mid-write`` crash site is armed
        (:mod:`repro.stream.crash`), the first half of the payload is
        flushed and fsync'd before the process dies — leaving the torn
        snapshot file the fault-injection scenarios demand recovery
        skip over.
        """
        from repro.stream.crash import armed, crash_hook

        start = (time.perf_counter() if self.metrics is not None
                 else 0.0)
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / checkpoint_name(
            snapshot.events_processed)
        payload = snapshot.to_json()
        with path.open("w", encoding="utf-8") as handle:
            if armed("checkpoint-mid-write"):
                half = max(1, len(payload) // 2)
                handle.write(payload[:half])
                handle.flush()
                os.fsync(handle.fileno())
                crash_hook("checkpoint-mid-write")
                handle.write(payload[half:])
            else:
                handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        # fsync the *directory* too: the file's data being durable
        # does not make its directory entry durable — a crash between
        # the two can leave a fully-written checkpoint unreachable.
        self._fsync_directory()
        self._prune()
        if self.metrics is not None:
            self.metrics.counter("checkpoint.writes").inc()
            self.metrics.histogram("latency.checkpoint").observe(
                time.perf_counter() - start)
        return path

    def _fsync_directory(self) -> None:
        if os.name != "posix":  # pragma: no cover - windows
            return
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _prune(self) -> None:
        files = self.checkpoint_files()
        pruned = False
        for stale in files[:-self.retain]:
            stale.unlink()
            pruned = True
        if pruned:
            # The unlinks are directory mutations as well.
            self._fsync_directory()
