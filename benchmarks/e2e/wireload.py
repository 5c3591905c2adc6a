"""Open-loop wire load: one asyncio process, two pipelined connections.

The container has two cores and the server's apply thread needs one,
so the generator is pinned to a single process with one ``query`` and
one ``console`` connection.  Both are **pipelined**: requests go out
without waiting for replies, and a receiver task per connection stamps
each reply frame the moment its last byte is read.  The server answers
each connection in the order it read it, so reply *i* on a connection
belongs to request *i*; tags are verified afterwards, off the clock,
and nothing is JSON-decoded while a phase is being timed.

Three phases run against one server:

``bootstrap``
    the genesis joins, pipelined, all acked — the tail of ``setup_s``.
``paced``
    open loop: each request has a due time fixed by the plan, is sent
    at that time whatever the server is doing, and its latency runs
    from the **due** time to receipt of the full reply frame, so a
    stall charges every request scheduled behind it (no coordinated
    omission).  How late the generator itself ran is reported as
    ``late``; :func:`run` keeps that to a few hundred microseconds.
``flood``
    every remaining frame written as fast as the sockets take it; the
    server's bounded ingress queue pushes back through TCP, and the
    acked rate is the peak throughput at this population.
"""

from __future__ import annotations

import asyncio
import json
import selectors
from dataclasses import dataclass, field
from time import perf_counter

from repro.serve.protocol import HEADER, encode_frame

REPLY_TIMEOUT = 60.0
"""Seconds a phase waits for outstanding replies before counting them
as never answered."""
FLOOD_CHUNK = 32
"""Frames per write in the flood phase."""


class Connection:
    """One pipelined connection and its reply log."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.tags: list = []
        """Request tags in send order; reply *i* answers ``tags[i]``."""
        self.replies: list = []
        """``(receive time, body bytes)`` in arrival order."""
        self.closed = False
        self._arrived = asyncio.Event()
        self._task = asyncio.ensure_future(self._receive())

    async def _receive(self) -> None:
        read = self.reader.readexactly
        try:
            while True:
                (length,) = HEADER.unpack(await read(HEADER.size))
                body = await read(length)
                self.replies.append((perf_counter(), body))
                self._arrived.set()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # server closed; missing replies are counted later
        finally:
            self.closed = True
            self._arrived.set()

    def send(self, tag: int, frame: bytes) -> None:
        self.tags.append(tag)
        self.writer.write(frame)

    async def settle(self, deadline: float) -> None:
        """Wait until every request sent so far has its reply."""
        while len(self.replies) < len(self.tags) and not self.closed:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                return
            self._arrived.clear()
            try:
                await asyncio.wait_for(self._arrived.wait(), remaining)
            except asyncio.TimeoutError:
                return

    async def close(self) -> None:
        self._task.cancel()
        await asyncio.gather(self._task, return_exceptions=True)
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def _connect(port: int, role: str) -> Connection:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_frame({"type": "hello", "role": role}))
    for _ in ("welcome", "hello-ok"):
        (length,) = HEADER.unpack(await reader.readexactly(HEADER.size))
        await reader.readexactly(length)
    return Connection(reader, writer)


@dataclass
class Session:
    """What one client session against one server measured.  Times
    are ``perf_counter`` values of this process."""

    plan: object
    ready: float = 0.0
    """When the last genesis join was acked."""
    due: dict = field(default_factory=dict)
    """tag -> absolute due time (paced requests only)."""
    sent: dict = field(default_factory=dict)
    received: dict = field(default_factory=dict)
    replies: dict = field(default_factory=dict)
    """tag -> decoded reply payload."""
    reply_bytes: int = 0
    mismatched: int = 0
    """Replies whose tag was not the one owed at that position."""
    backlog_max: int = 0
    """Paced-phase high-water mark of requests in flight."""
    flood_start: float = 0.0
    flood_end: float = 0.0

    def unanswered(self, tags=None) -> int:
        """Requests without exactly one well-formed ``ok``/``result``
        reply bearing their tag: never answered, answered out of
        turn, rejected, or an error."""
        tags = range(len(self.plan.frames)) if tags is None else tags
        return sum(
            self.replies.get(tag, {}).get("type") not in ("ok", "result")
            for tag in tags)

    def paced_ms(self, queries: bool) -> list:
        """Paced-phase latencies of the queries (or of the control
        events), due time to full reply frame, in ms."""
        plan = self.plan
        return [1e3 * (self.received[tag] - self.due[tag])
                for tag in plan.paced
                if (plan.kinds[tag] == "query") == queries
                and tag in self.received]

    def flood_eps(self) -> float:
        """Flood-phase events acked per second."""
        acked = sum(tag in self.received for tag in self.plan.flood)
        return acked / (self.flood_end - self.flood_start)


async def _flood(conns: dict, plan, tags: range, session: Session
                 ) -> None:
    async def pump(conn: Connection, mine: list) -> None:
        for start in range(0, len(mine), FLOOD_CHUNK):
            now = perf_counter()
            for tag in mine[start:start + FLOOD_CHUNK]:
                session.sent[tag] = now
                conn.send(tag, plan.frames[tag])
            await conn.writer.drain()

    by_role = {role: [] for role in conns}
    for tag in tags:
        by_role[plan.role(tag)].append(tag)
    await asyncio.gather(*(pump(conns[role], mine)
                           for role, mine in by_role.items()))
    deadline = perf_counter() + REPLY_TIMEOUT
    for conn in conns.values():
        await conn.settle(deadline)


async def _paced(conns: dict, plan, session: Session) -> None:
    start = perf_counter() + 0.05
    for tag in plan.paced:
        due = start + plan.due[tag]
        delay = due - perf_counter()
        while delay > 0:
            await asyncio.sleep(delay)
            delay = due - perf_counter()
        conn = conns[plan.role(tag)]
        conn.send(tag, plan.frames[tag])
        session.due[tag] = due
        session.sent[tag] = perf_counter()
        in_flight = sum(len(c.tags) - len(c.replies)
                        for c in conns.values())
        if in_flight > session.backlog_max:
            session.backlog_max = in_flight
    deadline = perf_counter() + REPLY_TIMEOUT
    for conn in conns.values():
        await conn.settle(deadline)


def run(coroutine):
    """``asyncio.run`` on a ``select()``-based loop.  The default
    epoll selector rounds every timer up to a whole millisecond, which
    put the paced sender a median 0.7 ms late; ``select`` takes
    microseconds (0.25 ms late), and three descriptors cost it
    nothing."""
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


async def run_session(port: int, plan, *, phases: bool = True,
                      paced: bool = True) -> Session:
    """Bootstrap the population, then (with ``phases``) run the paced
    and flood phases.  ``paced=False`` floods the paced script too,
    unmeasured, so the flood phase still starts from the same state —
    the dark reference of the tracing-overhead ratio."""
    session = Session(plan)
    conns = {role: await _connect(port, role)
             for role in ("query", "console")}
    try:
        await _flood(conns, plan, plan.genesis, session)
        session.ready = perf_counter()
        if phases:
            if paced:
                await _paced(conns, plan, session)
            else:
                await _flood(conns, plan, plan.paced, session)
            session.flood_start = perf_counter()
            await _flood(conns, plan, plan.flood, session)
            session.flood_end = max(
                (conn.replies[-1][0] for conn in conns.values()
                 if conn.replies), default=session.flood_start)
    finally:
        for conn in conns.values():
            await conn.close()
    for conn in conns.values():
        for tag, (when, body) in zip(conn.tags, conn.replies):
            reply = json.loads(body)
            session.reply_bytes += HEADER.size + len(body)
            if reply.get("tag") != tag:
                session.mismatched += 1
                continue
            session.received[tag] = when
            session.replies[tag] = reply
    return session
