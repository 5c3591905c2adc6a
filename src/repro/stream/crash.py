"""Fault injection: deterministic process kills at named crash sites.

The durability layer's correctness story is test-shaped: the only way
to *prove* that the write-ahead journal + checkpoint machinery
(:mod:`repro.stream.journal`, :mod:`repro.stream.recovery`) survives a
process death is to actually die — mid-round, mid-checkpoint, between
a checkpoint and the next journal flush — and recover.  This module is
the kill switch the fault-injection harness
(``tests/stream/fault_injection.py``) arms.

A :class:`CrashPoint` names a **site** (a string the instrumented code
passes to :func:`crash_hook`) and a **hit count**: the process dies —
``os._exit``, no cleanup, no ``atexit``, no buffer flushing — on the
``hit``-th time that site is reached.  Sites are threaded through the
serving stack:

``service-post-apply``
    The durable event loop, after an event is applied (and its
    service-originated emissions journaled) but before any checkpoint.
``service-post-checkpoint``
    Immediately after a checkpoint file lands, before the next event's
    journal flush — the classic coordinator danger window.
``coordinator-mid-round``
    :meth:`~repro.runtime.executor.ShardedAuctionRuntime._run_one`,
    after tasks were sent to every shard, before replies return.
``worker-mid-round``
    A shard worker's task handler, after folding win/control notices
    and evaluating, before the reply is sent — kills the *worker*
    process mid-round; an unsupervised coordinator dies on the broken
    pipe, a supervised one heals the shard in place.
``worker-idle``
    A shard worker immediately after sending a round reply — the
    worker dies *between* rounds, so the coordinator discovers the
    death only when the next task's send or receive fails.
``journal-mid-write`` / ``checkpoint-mid-write``
    Inside a file write, after the first half of the payload was
    flushed and fsynced — the crash leaves a **torn** (truncated)
    record on disk, which recovery must detect and skip.
``journal-pre-sync``
    :meth:`~repro.stream.journal.EventJournal.sync`, with lines
    written and flushed to the OS but the group-commit ``fsync`` not
    yet issued — every event of the group is applied, none is
    acknowledged.  A process death keeps the lines; a power cut may
    not, which is why no reply or checkpoint precedes the barrier.
``batch-post-flush``
    The durable micro-batch loop, after a whole query window's inputs
    were journaled (written and flushed) but before *any* of it was
    applied — recovery must replay the journaled-but-unapplied
    window.
``batch-mid-window``
    After an in-window query was applied (and its emissions
    journaled) with the rest of the window still pending — the
    mid-batch kill; the ``hit`` count selects the position.
``serve-mid-frame``
    The wire server's frame reader (:mod:`repro.serve.protocol`),
    after a frame's length header was consumed but before its body —
    the server dies holding a half-received message while other
    connections have fully-sequenced events in flight.  Recovery must
    replay the journal to exactly the applied prefix; the torn frame
    was never sequenced, so it is simply gone (the client sees a
    dropped connection and re-submits).

Crash points arm through the :data:`ENV_VAR` environment variable
(``"site[:scope]@hit"``), so they survive ``multiprocessing``
spawn/fork into shard workers and reach CLI subprocesses;
:func:`install` arms them programmatically for same-process drivers.
An unarmed hook is a near-free no-op (one ``dict`` read), so the
instrumentation ships in production code paths.

**Scopes** target one process out of a fleet.  A scope is a
comma-separated list of ``key=value`` labels
(``"worker-mid-round:shard=1,gen=0@5"``); each process declares its
own labels via :func:`set_scope` (shard workers declare ``shard`` and
``gen`` — their shard index and respawn generation), and a scoped
point only fires in processes whose declared labels include every
label in the scope.  This is how the supervision chaos tests kill
exactly one generation-0 worker and let its generation-1 replacement
live: the respawned process declares ``gen=1``, the scope says
``gen=0``, the hook never fires again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ENV_VAR = "REPRO_CRASH_POINT"
"""Environment spelling of an armed crash point:
``"site[:scope]@hit"`` (``hit`` defaults to 1, ``scope`` to
unscoped).  Inherited by worker processes at spawn."""

EXIT_CODE = 73
"""The exit status of a crash-point death (distinct from Python's
generic 1 so harnesses can tell an injected crash from a real bug)."""

CRASH_SITES = (
    "service-post-apply",
    "service-post-checkpoint",
    "coordinator-mid-round",
    "worker-mid-round",
    "worker-idle",
    "journal-mid-write",
    "checkpoint-mid-write",
    "journal-pre-sync",
    "batch-post-flush",
    "batch-mid-window",
    "serve-mid-frame",
)
"""Every site the serving stack instruments, for harness validation."""


@dataclass(frozen=True)
class CrashPoint:
    """Die at the ``hit``-th arrival at ``site`` (in scope)."""

    site: str
    hit: int = 1
    scope: str = ""
    """Comma-separated ``key=value`` labels; empty = every process.
    A point fires only in processes whose :func:`set_scope` labels
    include every label listed here."""

    def __post_init__(self) -> None:
        if self.site not in CRASH_SITES:
            raise ValueError(
                f"unknown crash site {self.site!r}; "
                f"instrumented sites: {CRASH_SITES}")
        if self.hit < 1:
            raise ValueError(f"hit must be >= 1, got {self.hit}")
        for label in self._labels():
            if "=" not in label:
                raise ValueError(
                    f"scope labels are key=value, got {label!r}")

    def _labels(self) -> tuple[str, ...]:
        if not self.scope:
            return ()
        return tuple(label.strip()
                     for label in self.scope.split(",") if label.strip())

    def matches_scope(self, declared: frozenset[str]) -> bool:
        """Whether this process's declared labels satisfy the scope."""
        return all(label in declared for label in self._labels())

    def to_env(self) -> str:
        """The :data:`ENV_VAR` spelling (``"site[:scope]@hit"``)."""
        site = f"{self.site}:{self.scope}" if self.scope else self.site
        return f"{site}@{self.hit}"

    @classmethod
    def from_env(cls, value: str) -> "CrashPoint":
        site, _, hit = value.partition("@")
        site, _, scope = site.partition(":")
        return cls(site=site, hit=int(hit) if hit else 1, scope=scope)


_installed: CrashPoint | None = None
_counters: dict[str, int] = {}
_scope: frozenset[str] = frozenset()


def install(point: CrashPoint | None) -> None:
    """Arm a crash point in this process (``None`` disarms).

    Programmatic counterpart of :data:`ENV_VAR`; the env var, when
    set, takes precedence (it is how spawned workers inherit the arm).
    """
    global _installed
    _installed = point
    _counters.clear()


def set_scope(**labels) -> None:
    """Declare this process's scope labels (``shard=1, gen=0`` →
    matches points scoped to any subset of those labels).  Replaces
    the previous declaration; values are stringified."""
    global _scope
    _scope = frozenset(f"{key}={value}"
                       for key, value in labels.items())


def _armed() -> CrashPoint | None:
    value = os.environ.get(ENV_VAR)
    if value:
        return CrashPoint.from_env(value)
    return _installed


def armed(site: str) -> bool:
    """Whether a crash point targets ``site`` in this process.

    Lets the torn-write sites pay their extra flush+fsync only while a
    harness is actually pointing a gun at them.
    """
    point = _armed()
    return (point is not None and point.site == site
            and point.matches_scope(_scope))


def crash_hook(site: str) -> None:
    """Die here if an armed crash point says so (else: no-op).

    The death is ``os._exit`` — no exception, no ``finally`` blocks,
    no stream flushing — the closest a test can get to a power cut
    without root.
    """
    point = _armed()
    if point is None or point.site != site \
            or not point.matches_scope(_scope):
        return
    count = _counters.get(site, 0) + 1
    _counters[site] = count
    if count >= point.hit:
        os._exit(EXIT_CODE)
