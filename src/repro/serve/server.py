"""The network front end: many concurrent connections, one ordered
stream.

:class:`AuctionWireServer` puts
:class:`~repro.stream.service.OnlineAuctionService` behind a real
wire.  The shape is two worlds bridged by the ingress sequencer:

* **The asyncio world** — an ``asyncio`` server with one reader task
  per connection.  Readers parse length-prefixed JSON frames
  (:mod:`repro.serve.protocol`), answer protocol errors inline, and
  stamp well-formed events into the sequencer on the loop thread
  itself (:meth:`~repro.serve.sequencer.IngressSequencer.try_submit`
  — no executor hop).  When the ingress queue is full the reader
  parks on a loop-side future that the apply thread completes once
  it has drained the queue to half, so a full queue stalls *that
  connection's* reads — TCP backpressure — without stalling the
  event loop.  Every socket write happens on the loop thread too, so
  there is no per-connection writer task or queue: a reply batch is
  one ``writer.write`` per connection.

* **The service world** — a single ``serve-apply`` thread consuming
  the sequencer's total order.  It asks the service's one admission
  rule (:meth:`~repro.stream.service.OnlineAuctionService.check`)
  about each event *before* the event touches the journal or the
  recorded log: a refused event earns a structured ``rejected`` reply
  and vanishes — it is never journaled, never recorded, never
  applied — so the recorded :class:`~repro.stream.events.EventLog` is
  exactly the applied stream and replays bit-identically offline
  (``repro stream --replay`` + ``tools/trace_diff.py``).  Valid
  events apply through the same :class:`OnlineAuctionService` /
  :class:`~repro.stream.service.DurableAuctionService` loops the
  offline CLI uses.

**The group boundary.**  The two worlds meet once per *group* of
already-queued events, not once per event.  Under ``--journal`` the
apply thread keeps applying while the sequencer has something queued
and holds the encoded replies (auction results for queries, acks for
controls) of those uncommitted events in a list only it can see.
Just before it would block on an empty sequencer — or when
``ingress_capacity`` replies are held — it commits the journal (one
``fsync`` for the whole group) and only then releases the replies.
So an acknowledged event is always an fsync'd one, a lone event pays
exactly what it paid before, and under load the fsync is shared by
everything that queued up behind the first event.  It never waits
for a group to fill.  Without a journal there is no barrier to wait
for and each reply (each window's replies) is released as soon as it
exists — except while the ingress queue is at least half full, when
the server is saturated and answers are held the same way, up to
``ingress_capacity`` of them, so they share wake-ups instead of each
costing one.  Released replies go to a shared outbox, and a
``call_soon_threadsafe`` wake-up is scheduled only if none is already
pending, so whatever accumulates before the loop runs shares one
self-pipe write, one wake-up and one socket write per connection.

**Windows.**  The apply thread forms its dispatch units with
:func:`~repro.stream.batching.take_unit` — the one rule that
:class:`~repro.stream.batching.MicroBatcher` and the offline run loop
(``repro stream``, :func:`~repro.stream.recovery.recover`) form theirs
with — over the events already queued in the sequencer: it never
waits for a unit to fill, and an event of another kind ends it.  Runs
of queries window only with ``batch_window >= 2``, up to that size.
Runs of joins always window, bounded only by what the sequencer can
hold (``ingress_capacity``): a window of joins is one bulk state
operation (for RHTALU one pacer placement and one click-index merge
instead of one of each per join), while each join keeps its own seq,
journal line, registry entry, root span and ``ok`` reply.  A join for
an advertiser already in the window ends it and, once the window has
applied, is refused as an unwindowed server refuses it; under
``--checkpoint-every`` the durable wrapper cuts a join window at each
checkpoint watermark, so every checkpoint describes exactly its seq.
A refused event also ends a window, so its ``rejected`` reply never
overtakes the replies of events its connection sent before it.

Graceful shutdown (SIGTERM/SIGINT or :meth:`AuctionWireServer
.shutdown`) runs the drain ladder: stop accepting → cancel readers →
close the sequencer → join the apply thread (every already-sequenced
event still applies, commits and answers) → goodbye-and-flush every
connection
→ write the recorded event log / trace / final checkpoint → close the
journal → exit 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import struct
import threading
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from time import perf_counter

from repro.serve import protocol
from repro.serve.sequencer import IngressSequencer, SequencedEvent
from repro.stream.batching import take_unit
from repro.stream.events import EventLog, event_kind
from repro.stream.service import (
    SERVICE_METHODS,
    DurableAuctionService,
    OnlineAuctionService,
)
from repro.workloads.paper_workload import PaperWorkloadConfig

try:
    import fcntl
    import termios

    _OUTQ: int | None = termios.TIOCOUTQ
except (ImportError, AttributeError):  # no kernel send-queue probe
    _OUTQ = None


_event_of = attrgetter("event")
"""A sequenced envelope's event: what :func:`take_unit` windows by."""


@dataclass
class ServeConfig:
    """Everything ``repro serve`` can tune, as one plain record."""

    host: str = "127.0.0.1"
    port: int = 0
    """0 = let the OS pick; the chosen port lands in ``port_file``."""
    advertisers: int = 200
    slots: int = 15
    keywords: int = 10
    seed: int = 0
    """Engine seed follows the CLI convention: ``seed + 1`` — an
    offline ``repro stream --replay --seed <same seed>`` rebuilds the
    identical engine."""
    method: str = "rh"
    maintenance: str = "incremental"
    workers: int = 0
    batch_window: int = 0
    ingress_capacity: int = 256
    max_frame: int = protocol.MAX_FRAME
    journal: str | None = None
    checkpoint_dir: str | None = None
    checkpoint_every: int = 0
    checkpoint_retain: int = 2
    record_events: str | None = None
    trace: str | None = None
    metrics_out: str | None = None
    trace_spans: str | None = None
    metrics_every: int = 100
    port_file: str | None = None


MAX_WRITE_BACKLOG = 32 * 1024 * 1024
"""Bytes written to a connection that its peer has not yet taken
before the server drops the connection as a slow client: what the
transport still buffers plus what the kernel's send queue holds
(:func:`_write_backlog`).  Replies are written without waiting for
the peer, so this is the only bound on what a client that stops
reading can make the server buffer; it sits far above the replies to
one full ingress queue (about 200 KB), which a merely busy client
legitimately has in flight."""


def _write_backlog(transport: asyncio.WriteTransport) -> int:
    """Unsent bytes of a connection: the transport's buffer plus the
    socket's kernel send queue (``TIOCOUTQ``, where the platform has
    it).  The kernel's share matters: its send buffer autotunes to
    megabytes, so a peer that never reads can strand every reply
    there while the transport's own buffer stays empty — and once
    that peer's stack stalls, no frame arrives, no reply is written,
    and a check on the transport alone would never fire."""
    backlog = transport.get_write_buffer_size()
    sock = transport.get_extra_info("socket")
    if _OUTQ is not None and sock is not None:
        with contextlib.suppress(OSError, ValueError):
            backlog += struct.unpack("i", fcntl.ioctl(
                sock.fileno(), _OUTQ, b"\0\0\0\0"))[0]
    return backlog


class _Connection:
    """Per-connection bookkeeping shared by the reader task and the
    loop-side reply flush."""

    __slots__ = ("conn_id", "writer", "role")

    def __init__(self, conn_id: int,
                 writer: asyncio.StreamWriter) -> None:
        self.conn_id = conn_id
        self.writer = writer
        self.role = "client"


class AuctionWireServer:
    """A live auction service on a TCP port.  See the module
    docstring for the architecture; :meth:`run` is the blocking entry
    point the CLI and the test harnesses call."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.workload_config = PaperWorkloadConfig(
            num_advertisers=config.advertisers,
            num_slots=config.slots, num_keywords=config.keywords,
            seed=config.seed)
        self.sequencer = IngressSequencer(config.ingress_capacity)
        self.sequencer.on_space = self._on_space
        self.applied = EventLog()
        """The stream the service actually consumed, in sequencer
        order — what ``record_events`` persists and what an offline
        replay re-applies bit-identically."""
        self.records: list = []
        self.port: int | None = None
        self.started = threading.Event()
        """Set once the socket is bound and the port is known."""
        self.frames = 0
        self.errors = 0
        self.rejected = 0
        self.connections_total = 0
        self._service: OnlineAuctionService | None = None
        self._served: \
            OnlineAuctionService | DurableAuctionService | None = None
        """What the apply loop applies through: ``_service`` itself,
        or under ``--journal`` the journaling wrapper around it."""
        self._barrier = {"commit": False} if config.journal else {}
        """Keywords for ``_served.process`` / ``process_window``: the
        apply loop owns the wrapper's commit (see :meth:`_release`)."""
        self._held: list[tuple[int, bytes]] = []
        """``(conn_id, frame)`` of replies not yet released — under
        ``--journal``, those whose events are applied but not yet
        committed.  Apply thread only: the loop must not be able to
        write a reply ahead of its fsync."""
        self._held_stamps: list[float] = []
        """Sequencer stamp times of the applied events in ``_held``
        (rejections are not in the e2e histogram)."""
        self._outbox: list[tuple[int, bytes]] = []
        """Released replies awaiting the loop's next flush."""
        self._outbox_lock = threading.Lock()
        self._wake_pending = False
        self._space_waiters: list[asyncio.Future] = []
        """Readers parked on a full ingress queue (loop thread only)."""
        self._conns: dict[int, _Connection] = {}
        self._next_conn_id = 0
        self._reader_tasks: set = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._shutdown_reason: str | None = None
        self._draining = False
        self._service_error: BaseException | None = None
        self._apply_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> int:
        """Serve until shutdown; returns a process exit code."""
        asyncio.run(self._amain())
        if self._service_error is not None:
            print(f"serve: service loop failed: "
                  f"{self._service_error!r}")
            return 1
        reason = self._shutdown_reason or "requested"
        print(f"serve: {self.connections_total} connections, "
              f"{self.frames} frames, {len(self.applied)} events "
              f"applied ({len(self.records)} auctions), "
              f"{self.rejected} rejected, {self.errors} protocol "
              f"errors")
        print(f"serve: clean shutdown ({reason})")
        return 0

    def shutdown(self, reason: str = "requested") -> None:
        """Begin the graceful drain.  Thread-safe and idempotent —
        signal handlers, tests, and the apply thread all call this."""
        if self._shutdown_reason is None:
            self._shutdown_reason = reason
        loop, event = self._loop, self._shutdown_event
        if loop is None or event is None:
            return
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(event.set)

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._build_service()
        self._apply_thread = threading.Thread(
            target=self._apply_loop, name="serve-apply", daemon=True)
        self._apply_thread.start()
        server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        self.port = server.sockets[0].getsockname()[1]
        for signum in (signal.SIGTERM, signal.SIGINT):
            # Only available on the main thread; the in-process test
            # harness drives shutdown() directly instead.
            with contextlib.suppress(NotImplementedError,
                                     RuntimeError, ValueError):
                self._loop.add_signal_handler(
                    signum, self.shutdown, signal.Signals(signum).name)
        # The port file is the readiness signal: it lands only once a
        # SIGTERM would drain instead of killing the process.
        if self.config.port_file:
            Path(self.config.port_file).write_text(
                f"{self.port}\n", encoding="utf-8")
        print(f"serve: listening on {self.config.host}:{self.port} "
              f"method={self.config.method} "
              f"workers={self.config.workers}", flush=True)
        self.started.set()
        try:
            await self._shutdown_event.wait()
        finally:
            await self._drain(server)

    async def _drain(self, server: asyncio.base_events.Server) -> None:
        """The shutdown ladder (see the module docstring)."""
        self._draining = True
        server.close()
        await server.wait_closed()
        for task in list(self._reader_tasks):
            task.cancel()
        if self._reader_tasks:
            await asyncio.gather(*self._reader_tasks,
                                 return_exceptions=True)
        self.sequencer.close()
        if self._apply_thread is not None:
            await self._loop.run_in_executor(
                None, self._apply_thread.join)
        # The apply thread released its last replies before it
        # exited; write them ahead of the goodbyes.
        self._flush_outbox()
        reason = self._shutdown_reason or "shutdown"
        for conn in list(self._conns.values()):
            await self._close_conn(conn, reason=reason)
        self._finalize()

    def _finalize(self) -> None:
        """Persist run artifacts and close the service stack."""
        from repro.auction.trace import write_trace

        config = self.config
        if config.record_events:
            self.applied.to_jsonl(config.record_events)
            print(f"event log written to {config.record_events}",
                  flush=True)
        if config.trace:
            count = write_trace(config.trace, self.records)
            print(f"wrote {count} records to {config.trace}",
                  flush=True)
        served = self._served
        if config.journal:
            if served.checkpoints is not None:
                # The drain contract: a final checkpoint at the exact
                # applied watermark, whether or not the interval is
                # due — recovery then needs no journal-suffix replay.
                # A service error can leave the last group uncommitted.
                served.commit()
                path = served.checkpoints.write(
                    self._service.snapshot())
                print(f"final checkpoint written to {path}",
                      flush=True)
            print(f"journal closed at {served.events_processed} "
                  f"events", flush=True)
        if served is not None:
            served.close()

    # -- service construction + the apply thread ---------------------------

    def _build_service(self) -> None:
        config = self.config
        observability = None
        if config.metrics_out or config.trace_spans:
            from repro.obs import ObservabilityConfig

            observability = ObservabilityConfig(
                metrics_out=config.metrics_out,
                trace_spans=config.trace_spans,
                snapshot_every=config.metrics_every)
        knobs = dict(method=config.method,
                     maintenance=config.maintenance,
                     workers=config.workers,
                     engine_seed=config.seed + 1,
                     observability=observability)
        if config.journal:
            self._served = DurableAuctionService.open(
                self.workload_config, config.journal,
                checkpoint_dir=config.checkpoint_dir,
                checkpoint_every=config.checkpoint_every,
                checkpoint_retain=config.checkpoint_retain, **knobs)
            self._service = self._served.service
        else:
            self._served = self._service = OnlineAuctionService(
                self.workload_config, **knobs)
        # Sharded workers normally fork lazily on the first query —
        # which would be after clients connected, so every child would
        # inherit dups of the accepted sockets and the server's close()
        # could never deliver EOF.  Spawn the fleet now, while the
        # process holds no connection descriptors.
        runtime = getattr(self._service.backend, "runtime", None)
        if runtime is not None:
            runtime.start()

    def _count(self, name: str, amount: int = 1) -> None:
        metrics = self._service.metrics if self._service else None
        if metrics is not None:
            metrics.counter(name).inc(amount)

    def _apply_loop(self) -> None:
        """The single service consumer: take events in total order,
        validate, apply, reply — under ``--journal``, once per group
        of queued events, behind the group's commit.  Runs on the
        ``serve-apply`` thread — the only thread that ever touches
        the service."""
        capacity = self.config.ingress_capacity
        carry: SequencedEvent | None = None
        try:
            while True:
                item = carry if carry is not None \
                    else self.sequencer.try_take()
                carry = None
                if item is None:
                    # Nothing queued behind the group: commit and
                    # answer it before blocking.
                    self._release()
                    item = self.sequencer.take()
                    if item is None:
                        break
                if self._admit(item):
                    unit, carry = take_unit(
                        item, self.sequencer.try_take,
                        self.config.batch_window, capacity,
                        self._service.check, _event_of)
                    if isinstance(unit, list):
                        self._apply_window(unit)
                    else:
                        self._apply_one(unit)
                # Without a journal a reply has no barrier to wait
                # for — unless the ingress queue is at least half
                # full: then the server is saturated, a reply's
                # latency is queueing either way, and answers share
                # wake-ups as a durable group shares its fsync.
                if len(self._held) >= capacity or (
                        not self.config.journal
                        and self.sequencer.depth() < capacity / 2):
                    self._release()
        except BaseException as exc:  # the drain must still run
            self._service_error = exc
            self.shutdown("service-error")

    def _admit(self, item: SequencedEvent) -> bool:
        """Ask the service's one admission rule
        (:meth:`~repro.stream.service.OnlineAuctionService.check`),
        in stamp order against live state; reply-and-drop a refused
        event before it can reach the journal or the recorded
        stream."""
        error = self._service.check(item.event)
        if error is None:
            return True
        self.rejected += 1
        self._count("serve.rejected")
        self._hold(item.conn_id, protocol.error_payload(
            "rejected", error.args[0], item.tag))
        return False

    def _apply_one(self, item: SequencedEvent) -> None:
        record = self._served.process(item.event, **self._barrier)
        self._reply(item, self._service.events_processed - 1, record)

    def _apply_window(self, batch: list[SequencedEvent]) -> None:
        results = self._served.process_window(
            [item.event for item in batch], **self._barrier)
        base = self._service.events_processed - len(batch)
        for offset, (item, record) in enumerate(zip(batch, results)):
            self._reply(item, base + offset, record)

    def _reply(self, item: SequencedEvent, seq: int,
               record) -> None:
        """Record an applied event and hold its reply: the auction
        result of a query, an ``ok`` for anything else."""
        self.applied.append(item.event)
        if record is not None:
            self.records.append(record)
            reply = protocol.result_payload(item.tag, seq, record)
        else:
            reply = protocol.ok_payload(item.tag, seq,
                                        event_kind(item.event))
        self._hold(item.conn_id, reply, item.arrival)

    def _hold(self, conn_id: int, payload: dict,
              stamped: float | None = None) -> None:
        """Keep a reply on the apply thread until :meth:`_release`.
        ``stamped`` is the sequencer stamp time of an applied event
        (``None`` for a rejection)."""
        self._held.append((conn_id, protocol.encode_frame(payload)))
        if stamped is not None:
            self._held_stamps.append(stamped)

    def _release(self) -> None:
        """Commit the journal (the group boundary of a durable run),
        then hand every held reply to the loop behind at most one
        wake-up."""
        held = self._held
        if not held:
            return  # every journaled event holds a reply
        if self.config.journal:
            self._served.commit()
        stamps = self._held_stamps
        self._held, self._held_stamps = [], []
        metrics = self._service.metrics
        if metrics is not None:
            now = perf_counter()
            histogram = metrics.histogram("latency.serve_e2e")
            for stamped in stamps:
                histogram.observe(now - stamped)
            metrics.counter("serve.applied").inc(len(stamps))
        with self._outbox_lock:
            self._outbox.extend(held)
            wake = not self._wake_pending
            self._wake_pending = True
        if wake:
            with contextlib.suppress(RuntimeError):  # loop closed
                self._loop.call_soon_threadsafe(self._flush_outbox)

    def _on_space(self) -> None:
        """Sequencer hook (apply thread): a refused reader may retry."""
        with contextlib.suppress(RuntimeError):  # loop closed
            self._loop.call_soon_threadsafe(self._wake_readers)

    # -- the asyncio side --------------------------------------------------

    def _flush_outbox(self) -> None:
        """Write every released reply, one ``write`` per connection."""
        with self._outbox_lock:
            self._wake_pending = False
            batch, self._outbox = self._outbox, []
        frames: defaultdict[int, list[bytes]] = defaultdict(list)
        for conn_id, data in batch:
            frames[conn_id].append(data)
        for conn_id, parts in frames.items():
            conn = self._conns.get(conn_id)
            if conn is not None:  # else: disconnected before its reply
                self._write(conn, b"".join(parts))

    def _write(self, conn: _Connection, data: bytes) -> None:
        """Loop thread only.  Never waits for the peer; a peer that
        lets :data:`MAX_WRITE_BACKLOG` bytes pile up is dropped."""
        transport = conn.writer.transport
        if transport.is_closing():
            return
        conn.writer.write(data)
        if _write_backlog(transport) > MAX_WRITE_BACKLOG:
            self.errors += 1
            self._count("serve.errors.slow-client")
            self._count("serve.connections.closed")
            self._conns.pop(conn.conn_id, None)
            transport.abort()  # its reader task sees EOF and returns

    def _wake_readers(self) -> None:
        waiters, self._space_waiters = self._space_waiters, []
        for waiter in waiters:
            if not waiter.done():  # a cancelled reader's is
                waiter.set_result(None)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        if self._draining:
            writer.close()
            return
        self._next_conn_id += 1
        conn = _Connection(self._next_conn_id, writer)
        self._conns[conn.conn_id] = conn
        self.connections_total += 1
        self._count("serve.connections.opened")
        self._send(conn, protocol.welcome_payload(
            conn.conn_id, methods=tuple(SERVICE_METHODS),
            max_frame=self.config.max_frame))
        task = asyncio.current_task()
        self._reader_tasks.add(task)
        try:
            await self._read_loop(conn, reader)
        except asyncio.CancelledError:
            return  # drain owns the goodbye + close from here
        finally:
            self._reader_tasks.discard(task)
        await self._close_conn(conn, reason="bye")

    def _send(self, conn: _Connection, payload: dict) -> None:
        """Answer inline from a reader task (welcome, hello-ok,
        protocol errors, goodbye)."""
        self._write(conn, protocol.encode_frame(payload))

    async def _read_loop(self, conn: _Connection,
                         reader: asyncio.StreamReader) -> None:
        while True:
            try:
                payload = await protocol.read_frame(
                    reader, max_frame=self.config.max_frame)
            except protocol.ProtocolError as error:
                self.errors += 1
                self._count(f"serve.errors.{error.code}")
                self._send(conn, protocol.error_payload(
                    error.code, error.detail))
                if error.fatal:
                    return  # the byte stream cannot re-synchronize
                continue
            except ConnectionError:
                return
            if payload is None:
                return  # clean close at a frame boundary
            self.frames += 1
            if not await self._dispatch(conn, payload):
                return

    async def _dispatch(self, conn: _Connection,
                        payload: dict) -> bool:
        """Handle one well-framed payload; False ends the read loop."""
        ptype = payload.get("type")
        if ptype == "event":
            tag = payload.get("tag")
            try:
                event = protocol.event_from_payload(payload)
            except protocol.ProtocolError as error:
                self.errors += 1
                self._count(f"serve.errors.{error.code}")
                self._send(conn, protocol.error_payload(
                    error.code, error.detail, tag))
                return True
            return await self._sequence(conn, event, tag)
        if ptype == "hello":
            role = payload.get("role")
            conn.role = role if isinstance(role, str) else "client"
            self._send(conn, protocol.hello_ok_payload(
                conn.conn_id, conn.role))
            return True
        if ptype == "bye":
            return False
        self.errors += 1
        self._count("serve.errors.unknown-type")
        self._send(conn, protocol.error_payload(
            "unknown-type", f"unsupported frame type {ptype!r}",
            payload.get("tag")))
        return True

    async def _sequence(self, conn: _Connection, event: Event,
                        tag) -> bool:
        """Stamp-and-enqueue on the loop thread.  A full ingress
        queue parks this reader — and so this connection's reads (TCP
        backpressure), never the other connections — until the apply
        thread has drained it to the sequencer's low-water mark.
        False once the sequencer is closed: the drain has begun."""
        while True:
            try:
                if self.sequencer.try_submit(
                        event, conn_id=conn.conn_id,
                        tag=tag) is not None:
                    return True
            except RuntimeError:
                return False
            # No await since the refusal, so _wake_readers (scheduled
            # by a take that follows it) cannot run before this
            # future is registered.
            waiter = self._loop.create_future()
            self._space_waiters.append(waiter)
            await waiter

    async def _close_conn(self, conn: _Connection,
                          reason: str) -> None:
        if self._conns.pop(conn.conn_id, None) is None:
            return  # already closed, or dropped as a slow client
        self._count("serve.connections.closed")
        self._send(conn, protocol.goodbye_payload(reason))
        conn.writer.close()  # flushes what is buffered, then closes
        try:
            await asyncio.wait_for(conn.writer.wait_closed(),
                                   timeout=5)
        except (asyncio.TimeoutError, OSError):
            conn.writer.transport.abort()


def run_server(config: ServeConfig) -> int:
    """Build and run a server; the ``repro serve`` entry point."""
    return AuctionWireServer(config).run()
