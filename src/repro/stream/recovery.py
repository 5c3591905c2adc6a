"""Crash recovery: newest valid checkpoint + journaled-suffix replay.

The second half of the durability contract (the first is
:mod:`repro.stream.journal`).  :func:`recover` rebuilds a service
after a process death from exactly two artifacts:

1. the **newest valid checkpoint** in the checkpoint directory —
   torn or otherwise unparseable files (a crash mid-checkpoint-write)
   are skipped, falling back to the previous checkpoint, and with no
   checkpoint at all the service rebuilds from genesis using the
   configuration stored in the journal header;
2. the **journaled suffix** — every complete journal entry whose seq
   is at or past the checkpoint's applied-event watermark, re-applied
   through the ordinary run loop
   (:meth:`~repro.stream.service.OnlineAuctionService.run`, which
   applies each run of joins as one window).  Entries tagged
   ``origin="service"`` are never re-applied (the loop re-derives
   them); instead they are audited against the re-derived emissions,
   which must extend them.

Why this converges on the uninterrupted trace: the journal is
write-ahead (an event's line is written before it is applied, and
fsync'd before anyone is told it was), so the set of
applied-but-unjournaled events is empty; the set of
journaled-but-unapplied events is at most the tail, and re-applying
those is exactly what the uninterrupted run would have done — the
event loop is deterministic.  A torn journal tail describes an event
that was therefore *never applied*; recovery drops it and the recorded
input stream re-supplies it.  The fault-injection harness
(``tests/stream/fault_injection.py``) proves the claim by killing the
process at each danger window and diffing the recovered trace against
an uninterrupted run — empty for every method, in-process and sharded,
even when recovery restores to a **different worker count** than the
crashed run (captures are global; see
:meth:`~repro.stream.service.OnlineAuctionService.restore`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.auction.events import AuctionRecord
from repro.stream.journal import (
    EventJournal,
    JournalEntry,
    scan_journal,
)
from repro.stream.service import (
    DurableAuctionService,
    OnlineAuctionService,
)
from repro.stream.snapshot import (
    CheckpointPolicy,
    ServiceSnapshot,
)


class RecoveryError(RuntimeError):
    """Recovery found artifacts it cannot reconcile (not mere tears:
    those are expected and skipped — this is divergence, e.g. journaled
    emissions the replayed event loop did not re-derive)."""


@dataclass
class RecoveryResult:
    """What :func:`recover` rebuilt, and from which artifacts."""

    service: OnlineAuctionService
    """The recovered service, positioned at the journal's watermark —
    feed it the not-yet-journaled remainder of the input stream to
    continue."""
    records: list[AuctionRecord]
    """Auction records produced while replaying the journaled suffix
    (the recovered run's trace starts here)."""
    journal_path: Path
    checkpoint_path: Path | None
    """The checkpoint restored from (``None`` = genesis rebuild)."""
    checkpoint_events: int
    """The checkpoint's applied-event watermark (0 for genesis)."""
    replayed_events: int
    """Input entries re-applied from the journal."""
    torn_tail: bool
    """Whether the journal ended in a torn (dropped) partial entry."""
    checkpoints_skipped: int
    """Torn/invalid checkpoint files skipped over."""
    verified_emissions: int = 0
    """Journaled service-originated emissions matched against the
    re-derived ones during replay."""
    skipped_paths: list[Path] = field(default_factory=list)

    @property
    def events_processed(self) -> int:
        """The recovered watermark (next input event's seq)."""
        return self.service.events_processed

    def resume_durable(self, checkpoint_every: int = 0,
                       checkpoint_retain: int = 2,
                       checkpoint_dir: str | Path | None = None
                       ) -> DurableAuctionService:
        """Continue serving durably on the *same* journal: the torn
        tail (if any) is truncated away and appends resume after the
        last complete entry."""
        journal = EventJournal.resume(self.journal_path)
        checkpoints = None
        if checkpoint_every:
            if checkpoint_dir is None \
                    and self.checkpoint_path is not None:
                checkpoint_dir = self.checkpoint_path.parent
            if checkpoint_dir is None:
                raise ValueError(
                    "checkpoint_every needs a checkpoint_dir (the "
                    "recovery had no checkpoint to infer one from)")
            checkpoints = CheckpointPolicy(
                directory=Path(checkpoint_dir),
                every=checkpoint_every, retain=checkpoint_retain)
        return DurableAuctionService(self.service, journal,
                                     checkpoints)


def list_checkpoints(directory: str | Path) -> list[Path]:
    """Checkpoint files in ``directory``, oldest first (validity not
    checked — :func:`load_latest_valid` does that)."""
    return CheckpointPolicy(directory=Path(directory),
                            every=1).checkpoint_files()


def load_latest_valid(directory: str | Path
                      ) -> tuple[ServiceSnapshot | None, Path | None,
                                 list[Path]]:
    """The newest checkpoint that parses and validates, plus the
    (newer) files skipped to reach it.

    A skipped file is one a crash tore mid-write — truncated JSON, or
    JSON without the snapshot format marker.  Validation is read-side
    by design: checkpoint writes are plain in-place writes (no atomic
    rename), so torn files are an expected artifact, not corruption.
    """
    skipped: list[Path] = []
    for path in reversed(list_checkpoints(directory)):
        try:
            return ServiceSnapshot.from_file(path), path, skipped
        except (ValueError, KeyError, TypeError,
                json.JSONDecodeError):
            skipped.append(path)
    return None, None, skipped


def recover(journal_path: str | Path,
            checkpoint_dir: str | Path | None = None,
            workers: int | None = None,
            start_method: str | None = None,
            verify_emissions: bool = True) -> RecoveryResult:
    """Rebuild a service from its journal (and checkpoints, if any).

    ``workers`` may differ from the crashed run's worker count —
    checkpoint captures are global and the journal is
    execution-shape-free, so a 2-worker casualty can recover
    in-process or onto 4 workers and still replay bit-identically.

    With ``verify_emissions`` (the default), every journaled
    ``origin="service"`` entry in the replayed span is checked against
    the emission the replayed event loop re-derives at the same
    position; a mismatch raises :class:`RecoveryError` (the journal
    belongs to a different build or a corrupted state).  Re-derived
    emissions are allowed to *extend* the journaled ones — a crash can
    land between applying an event and journaling its emissions.
    """
    journal_path = Path(journal_path)
    scanned = scan_journal(journal_path)

    snapshot = None
    checkpoint_path = None
    skipped: list[Path] = []
    if checkpoint_dir is not None:
        snapshot, checkpoint_path, skipped = load_latest_valid(
            checkpoint_dir)

    if snapshot is not None:
        service = OnlineAuctionService.restore(
            snapshot, workers=workers, start_method=start_method)
        checkpoint_events = snapshot.events_processed
    else:
        if not scanned.config:
            raise RecoveryError(
                f"no valid checkpoint and no config in the journal "
                f"header of {journal_path}")
        service = OnlineAuctionService.from_config_payload(
            scanned.config, workers=workers,
            start_method=start_method)
        checkpoint_events = 0

    watermark = service.events_processed
    suffix = [entry for entry in scanned.entries
              if entry.seq >= watermark]
    inputs = [entry for entry in suffix if entry.origin == "input"]
    journaled_emissions = [entry for entry in suffix
                           if entry.origin == "service"]

    # The recovered service is bare (no journal, no checkpoints), so
    # its run loop windows join runs whole — a journal-only RHTALU
    # recovery re-admits its genesis in bulk, as the server did.
    records = service.run(entry.event for entry in inputs)

    verified = 0
    if verify_emissions:
        verified = _verify_emissions(journaled_emissions,
                                     list(service.emitted))

    return RecoveryResult(
        service=service,
        records=records,
        journal_path=journal_path,
        checkpoint_path=checkpoint_path,
        checkpoint_events=checkpoint_events,
        replayed_events=len(inputs),
        torn_tail=scanned.torn_tail,
        checkpoints_skipped=len(skipped),
        verified_emissions=verified,
        skipped_paths=skipped,
    )


def _verify_emissions(journaled: list[JournalEntry],
                      rederived: list) -> int:
    """Journaled emissions must be a prefix of the re-derived ones.

    A restored service starts a fresh ``emitted`` log, and replaying
    the journaled suffix re-derives every pause/resume the crashed run
    emitted *and journaled* in that span — plus possibly more, when
    the crash cut emission journaling short.  Anything other than a
    prefix relationship means the journal and the build disagree.
    """
    if len(journaled) > len(rederived):
        raise RecoveryError(
            f"journal records {len(journaled)} service emissions in "
            f"the replayed span but replay re-derived only "
            f"{len(rederived)}")
    for index, (entry, event) in enumerate(zip(journaled, rederived)):
        if entry.event != event:
            raise RecoveryError(
                f"emission {index} diverged: journal has "
                f"{entry.event!r}, replay re-derived {event!r}")
    return len(journaled)
