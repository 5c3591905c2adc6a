"""The write-ahead event journal: two barriers, torn-tail tolerant.

The durability contract has two halves; this module is the first.
:class:`EventJournal` records every event **before** it is applied —
input events and service-originated emissions alike — behind two
barriers of different strength:

* :meth:`EventJournal.append` writes the line and flushes it to the
  operating system.  That is what a **process death** keeps
  (SIGKILL, ``os._exit``, an unhandled exception): after any such
  crash the journal is a superset of what the service applied.
* :meth:`EventJournal.sync` issues one ``fsync`` for everything
  appended so far.  That is what a **power cut** keeps.  One ``sync``
  covers any number of appends (group commit); callers issue it
  before anything leaves the process that presumes the lines exist —
  a reply to a client, a checkpoint file.

The second half (:mod:`repro.stream.recovery`) loads the newest valid
checkpoint and replays the journaled suffix; because every applied
event is in the file first, nothing applied is ever lost, and because
application is deterministic, re-applying a journaled-but-unapplied
tail converges on the exact uninterrupted trace
(``tests/stream/test_fault_injection.py``).

Layout: JSONL.  Line 0 is a header carrying the journal format and the
service configuration (the same dict a
:class:`~repro.stream.snapshot.ServiceSnapshot` stores), so recovery
can rebuild a genesis service even when no checkpoint ever landed.
Every subsequent line is one event::

    {"kind": "__journal__", "format": "repro-stream-journal/1",
     "config": {...}}
    {"seq": 0, "origin": "input", "kind": "join", "advertiser": 3, ...}
    {"seq": 17, "origin": "service", "kind": "paused", ...}

``seq`` is the service's ``events_processed`` watermark at append time
— the 0-based index of the input event on the stream.  Emissions
(``origin: "service"``) carry the seq of the input event that caused
them; recovery skips them during replay (the event loop re-derives
them) but audits them against the re-derived emissions.

A crash mid-append — the real thing, injected through the
``journal-mid-write`` crash site (:mod:`repro.stream.crash`), or any
byte-level truncation — leaves a **torn tail**: a final line that is
not newline-terminated, not valid JSON, or not a complete entry.
:meth:`EventJournal.scan` treats exactly those lines as torn and drops
them (the event they describe was never applied, by the write-ahead
ordering, so the recorded input stream re-supplies it);
``tests/stream/test_recovery.py`` asserts this at every byte boundary
of the final record.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.stream.crash import armed, crash_hook
from repro.stream.events import _EVENT_TYPES, Event, event_kind

JOURNAL_FORMAT = "repro-stream-journal/1"
HEADER_KIND = "__journal__"
ORIGINS = ("input", "service")


@dataclass(frozen=True)
class JournalEntry:
    """One journaled event: its stream position, who wrote it, what."""

    seq: int
    origin: str
    event: Event


@dataclass
class JournalScan:
    """Everything a journal file yields to recovery."""

    config: dict
    """The service configuration from the header line."""
    entries: list[JournalEntry]
    """Every complete entry, in append (= stream) order."""
    torn_tail: bool
    """Whether the file ended in a torn (dropped) partial line."""

    @property
    def max_seq(self) -> int:
        """The highest journaled stream index (-1 when empty)."""
        return max((entry.seq for entry in self.entries), default=-1)


def _entry_to_line(seq: int, origin: str, event: Event) -> str:
    payload = {"seq": seq, "origin": origin,
               "kind": event_kind(event), **asdict(event)}
    return json.dumps(payload, sort_keys=True) + "\n"


def _entry_from_payload(payload: dict) -> JournalEntry:
    seq = int(payload.pop("seq"))
    origin = payload.pop("origin")
    if origin not in ORIGINS:
        raise ValueError(f"unknown journal origin {origin!r}")
    kind = payload.pop("kind")
    event_type = _EVENT_TYPES.get(kind)
    if event_type is None:
        raise ValueError(f"unknown event kind {kind!r}")
    for key in ("bids", "maxbids", "values"):
        if key in payload:
            payload[key] = tuple(payload[key])
    return JournalEntry(seq=seq, origin=origin,
                        event=event_type(**payload))


class EventJournal:
    """An append-only event journal with an explicit group-commit
    barrier.

    Open with :meth:`create` (fresh file, header written and synced
    before the first event can land) or :meth:`resume` (existing file:
    torn tail truncated away, appends continue after the last complete
    entry).  :meth:`append` is the write-ahead half — it returns once
    the line is flushed to the OS, so callers may apply the event the
    moment it returns; :meth:`sync` is the durability half, one
    ``fsync`` for every line appended since the last.
    """

    def __init__(self, path: Path, handle, config: dict):
        self.path = path
        self._handle = handle
        self.config = config
        self.unsynced = 0
        """Lines appended since the last :meth:`sync`."""
        self.metrics = None
        """Optional :class:`~repro.obs.MetricsRegistry` — attached by
        the durable wrapper when observability is armed;
        ``journal.appends`` then counts lines and
        ``latency.journal_fsync`` times each real fsync (sidecar only,
        the write path is byte-identical)."""

    @classmethod
    def create(cls, path: str | Path, config: dict) -> "EventJournal":
        """Start a fresh journal (truncates any existing file)."""
        path = Path(path)
        handle = path.open("w", encoding="utf-8")
        header = {"kind": HEADER_KIND, "format": JOURNAL_FORMAT,
                  "config": config}
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        return cls(path, handle, dict(config))

    @classmethod
    def resume(cls, path: str | Path) -> "EventJournal":
        """Reopen a journal for appending, dropping any torn tail."""
        path = Path(path)
        scanned = scan_journal(path)
        if scanned.torn_tail:
            keep = _complete_prefix_size(path)
            with path.open("r+b") as raw:
                raw.truncate(keep)
        handle = path.open("a", encoding="utf-8")
        return cls(path, handle, scanned.config)

    def append(self, seq: int, event: Event,
               origin: str = "input") -> None:
        """Record one event ahead of its apply (write + flush).

        The line survives a process death from here on; it survives a
        power cut after the next :meth:`sync`.  When the
        ``journal-mid-write`` crash site is armed, the first half of
        the line is flushed and fsync'd before the process dies —
        manufacturing the torn tail a real power cut leaves.
        """
        line = _entry_to_line(seq, origin, event)
        if armed("journal-mid-write"):
            half = max(1, len(line) // 2)
            self._handle.write(line[:half])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            crash_hook("journal-mid-write")
            self._handle.write(line[half:])
        else:
            self._handle.write(line)
        self._handle.flush()
        self.unsynced += 1
        if self.metrics is not None:
            self.metrics.counter("journal.appends").inc()

    def sync(self) -> None:
        """The group-commit barrier: one ``fsync`` covering every line
        appended since the last (a no-op when there is none).  The
        ``journal-pre-sync`` crash site sits just ahead of it: lines
        written, barrier not yet reached."""
        if not self.unsynced:
            return
        crash_hook("journal-pre-sync")
        start = (time.perf_counter() if self.metrics is not None
                 else 0.0)
        os.fsync(self._handle.fileno())
        self.unsynced = 0
        if self.metrics is not None:
            self.metrics.histogram("latency.journal_fsync").observe(
                time.perf_counter() - start)

    def close(self) -> None:
        if not self._handle.closed:
            self.sync()
            self._handle.close()

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def scan_journal(path: str | Path) -> JournalScan:
    """Read a journal file, separating complete entries from torn tail.

    A line is a complete entry iff it is newline-terminated, parses as
    JSON, and carries the entry schema (``seq``/``origin``/``kind``).
    Anything less at the end of the file is a torn tail — reported,
    dropped, never fatal.  A torn line *before* the end (which no
    crash can produce) or a bad header is corruption and raises.
    """
    path = Path(path)
    data = path.read_bytes()
    lines = data.split(b"\n")
    # split() yields a final "" for newline-terminated files; anything
    # else in the last slot is an unterminated (torn) line.
    unterminated = lines.pop() if lines else b""
    torn_tail = bool(unterminated)

    if not lines:
        raise ValueError(f"not a {JOURNAL_FORMAT} file: {path}")
    try:
        header = json.loads(lines[0].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        header = None
    if not isinstance(header, dict) \
            or header.get("kind") != HEADER_KIND \
            or header.get("format") != JOURNAL_FORMAT:
        raise ValueError(f"not a {JOURNAL_FORMAT} file: {path}")

    entries: list[JournalEntry] = []
    for index, raw in enumerate(lines[1:], start=1):
        if not raw:
            continue
        try:
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict) or "seq" not in payload:
                raise ValueError("not a journal entry")
            entry = _entry_from_payload(dict(payload))
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError,
                KeyError, TypeError) as exc:
            if index == len(lines) - 1:
                # A newline-terminated but unparseable final line:
                # torn mid-write after the newline of the previous
                # entry... only possible for the last record.
                torn_tail = True
                break
            raise ValueError(
                f"corrupt journal entry at line {index + 1} "
                f"of {path}: {exc}") from exc
        entries.append(entry)
    return JournalScan(config=dict(header.get("config") or {}),
                       entries=entries, torn_tail=torn_tail)


def _complete_prefix_size(path: Path) -> int:
    """Byte length of the longest prefix of complete lines that scan
    as valid entries (used to truncate torn tails on resume)."""
    data = path.read_bytes()
    end = len(data)
    # Drop an unterminated tail first.
    last_newline = data.rfind(b"\n")
    end = 0 if last_newline < 0 else last_newline + 1
    # Then drop a terminated-but-unparseable final line, if any.
    while end > 0:
        prev_newline = data.rfind(b"\n", 0, end - 1)
        start = prev_newline + 1
        raw = data[start:end - 1]
        if not raw:
            end = start
            continue
        try:
            payload = json.loads(raw.decode("utf-8"))
            if isinstance(payload, dict) and (
                    "seq" in payload
                    or payload.get("kind") == HEADER_KIND):
                break
            raise ValueError("not a journal entry")
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError):
            end = start
    return end
