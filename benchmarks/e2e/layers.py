"""Per-layer numbers for the traced run, from two sources.

**Outside timing.**  The harness replays the event log the traced
server recorded, in process, through each layer's public functions,
with its own :class:`SpanRecorder` around every call that crosses a
layer boundary (journal append, checkpoint write, the service's
``process`` / ``process_window``, the backend's ``run_query``, the
RHTALU threshold scan).  A span is ``name, start, end, parent, tag``;
a layer's self time is its duration minus its children's.  Nothing
under ``src/`` is edited for this: the recorder replaces bound methods
on the *instances* the replay builds, which is also why a function a
later change removes yields ``None`` and a warning instead of a crash.

**The server's own sidecars.**  ``--metrics-out`` / ``--trace-spans``
of the traced ``repro serve`` run supply what only the live process
knows: its stamp-to-reply histogram, fsync and checkpoint counts,
window sizes, shard rounds.

``PER_LAYER`` is the contract: every name here is in
``BENCHMARK.json`` and in every traced run's output.  A layer the
workload bypasses reports exactly 0.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from numpy import percentile

PER_LAYER = (
    # name, unit, better
    ("serve.protocol.decode_us", "us", "lower"),
    ("serve.protocol.encode_us", "us", "lower"),
    ("serve.protocol.request_bytes", "bytes", "lower"),
    ("serve.protocol.reply_bytes", "bytes", "lower"),
    ("serve.sequencer.handoff_us", "us", "lower"),
    ("serve.server.e2e_mean_ms", "ms", "lower"),
    ("serve.server.wire_overhead_ms", "ms", "lower"),
    ("stream.journal.append_us", "us", "lower"),
    ("stream.journal.fsyncs", "count", "lower"),
    ("stream.journal.events_per_fsync", "events", "higher"),
    ("stream.journal.bytes_per_event", "bytes", "lower"),
    ("stream.snapshot.write_ms", "ms", "lower"),
    ("stream.snapshot.bytes", "bytes", "lower"),
    ("stream.snapshot.writes", "count", "lower"),
    ("stream.recovery.recover_s", "s", "lower"),
    ("stream.service.query_us", "us", "lower"),
    ("stream.service.join_us", "us", "lower"),
    ("stream.service.leave_us", "us", "lower"),
    ("stream.service.update_us", "us", "lower"),
    ("stream.service.topup_us", "us", "lower"),
    ("stream.service.emit_us", "us", "lower"),
    ("stream.service.offline_eps", "1/s", "higher"),
    ("stream.batching.windows", "count", "lower"),
    ("stream.batching.window_mean", "events", "higher"),
    ("stream.batching.ingress_wait_us", "us", "lower"),
    ("core.wd_us", "us", "lower"),
    ("evaluation.eval_us", "us", "lower"),
    ("evaluation.scan_us", "us", "lower"),
    ("evaluation.sequential_accesses_mean", "count", "lower"),
    ("evaluation.random_accesses_mean", "count", "lower"),
    ("auction.price_us", "us", "lower"),
    ("auction.settle_us", "us", "lower"),
    ("auction.candidates_mean", "count", "lower"),
    ("runtime.round_us", "us", "lower"),
    ("runtime.rounds", "count", "lower"),
    ("runtime.round_retries", "count", "lower"),
    ("obs.overhead_ratio", "ratio", "higher"),
    ("obs.spans_written", "count", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.acked", "count", "higher"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.backlog_max", "count", "lower"),
    ("loadgen.query_p95_ms", "ms", "lower"),
    ("loadgen.query_p99_ms", "ms", "lower"),
    ("loadgen.query_max_ms", "ms", "lower"),
    ("layers.sum_p50_ms", "ms", "lower"),
    ("layers.unexplained_ms", "ms", "lower"),
)


def warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def median(values, scale: float = 1.0):
    """Scaled median, or ``None`` (with a warning upstream) when a
    layer that should have run left no samples."""
    values = list(values)
    return statistics.median(values) * scale if values else None


def mean(values, scale: float = 1.0):
    values = list(values)
    return statistics.fmean(values) * scale if values else None


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent, tag]``."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, tag=None):
        index = len(self.spans)
        span = [name, 0.0, 0.0,
                self._stack[-1] if self._stack else -1, tag]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            yield span
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attribute: str, name: str, note=None) -> None:
        """Time every call of ``owner.attribute`` as a span ``name``;
        ``note(result)`` becomes the span's tag."""
        inner = getattr(owner, attribute, None)
        if inner is None:
            warn(f"{type(owner).__name__}.{attribute} is gone; "
                 f"span {name!r} will be empty")
            return

        def timed(*args, **kwargs):
            with self.span(name) as span:
                result = inner(*args, **kwargs)
                if note is not None:
                    span[4] = note(result)
                return result

        setattr(owner, attribute, timed)

    def named(self, name: str) -> list:
        """Indices of the spans called ``name``."""
        return [index for index, span in enumerate(self.spans)
                if span[0] == name]

    def seconds(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def tag(self, index: int):
        return self.spans[index][4]

    def parent_tag(self, index: int):
        return self.spans[self.spans[index][3]][4]

    def self_seconds(self) -> list:
        """Per span: its duration minus its direct children's."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, tag) in \
                    enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start,
                     "end": end, "parent": parent, "tag": tag}) + "\n")


# -- outside timing --------------------------------------------------------

def replay(workload, seed: int, events: list, genesis: int,
           workdir: Path, recorder: SpanRecorder) -> dict:
    """Apply the recorded stream in process under the recorder.

    Builds exactly what ``repro serve`` builds for this workload (the
    durable wrapper with its own journal and checkpoint directory, or
    the bare service), applies the genesis joins unmeasured, then the
    body one root span per event.  The batched workload goes through
    ``MicroBatcher.units`` so ``stream.batching`` is on the path and
    queries reach the service through ``process_window``.
    """
    from repro.stream.batching import BatchingConfig, MicroBatcher
    from repro.stream.events import event_kind
    from repro.stream.service import (
        DurableAuctionService,
        OnlineAuctionService,
    )
    from served import CHECKPOINT_EVERY
    from workloads import workload_config

    knobs = dict(method=workload.method, workers=workload.workers,
                 engine_seed=seed + 1)
    config = workload_config(workload, seed)
    if workload.durable:
        served = DurableAuctionService.open(
            config, workdir / "replay.journal",
            checkpoint_dir=workdir / "replay.ckpt",
            checkpoint_every=CHECKPOINT_EVERY, **knobs)
        service = served.service
        recorder.wrap(served.journal, "append", "journal.append")
        recorder.wrap(served.journal, "append_batch", "journal.append")
        recorder.wrap(served.checkpoints, "write", "snapshot.write")
    else:
        served = service = OnlineAuctionService(config, **knobs)
    try:
        recorder.wrap(service, "process", "service.process")
        recorder.wrap(service, "process_window", "service.window",
                      note=len)
        recorder.wrap(service.backend, "run_query", "dispatch")
        evaluator = getattr(getattr(service.backend, "engine", None),
                            "rhtalu", None)
        if evaluator is not None:
            recorder.wrap(
                evaluator, "scan_auction", "evaluation.scan",
                note=lambda scan: (scan.sequential_count,
                                   scan.random_count))

        for event in events[:genesis]:
            served.process(event)
        body = events[genesis:]
        records: list = []
        waits: list = []
        start = perf_counter()
        if workload.batch_window:
            batcher = MicroBatcher(
                BatchingConfig(window=workload.batch_window,
                               ingress_capacity=256),
                track_waits=True)
            for unit in batcher.units(body):
                waits.extend(batcher.last_waits)
                if isinstance(unit, list):
                    with recorder.span("apply", "window"):
                        records.extend(served.process_window(unit))
                else:
                    with recorder.span("apply", event_kind(unit)):
                        served.process(unit)
        else:
            for event in body:
                with recorder.span("apply", event_kind(event)):
                    record = served.process(event)
                if record is not None:
                    records.append(record)
        seconds = perf_counter() - start
    finally:
        served.close()
    return {"records": records, "seconds": seconds,
            "events": len(body), "waits": waits}


def time_decode(frames: list) -> float | None:
    """Median µs of ``decode_body`` + ``event_from_payload`` per
    request frame — what a reader task does before the sequencer."""
    from repro.serve.protocol import (
        HEADER,
        decode_body,
        event_from_payload,
    )

    samples = []
    for frame in frames:
        body = frame[HEADER.size:]
        start = perf_counter()
        event_from_payload(decode_body(body))
        samples.append(perf_counter() - start)
    return median(samples, 1e6)


def time_encode(records: list) -> float | None:
    """Median µs of ``result_payload`` + ``encode_frame`` per auction
    record — what the apply thread does before a reply is routed."""
    from repro.serve.protocol import encode_frame, result_payload

    samples = []
    for seq, record in enumerate(records):
        start = perf_counter()
        encode_frame(result_payload(seq, seq, record))
        samples.append(perf_counter() - start)
    return median(samples, 1e6)


def time_handoff(samples: int = 2000) -> float | None:
    """Median µs from ``IngressSequencer.submit`` stamping an event to
    ``take`` returning it on another thread, queue otherwise empty."""
    from repro.serve.sequencer import IngressSequencer
    from repro.stream.events import QueryArrival

    sequencer = IngressSequencer(256)
    gaps: list = []

    def consume() -> None:
        while True:
            item = sequencer.take()
            if item is None:
                return
            gaps.append(perf_counter() - item.arrival)

    consumer = threading.Thread(target=consume, name="handoff-take")
    consumer.start()
    try:
        event = QueryArrival("kw0")
        deadline = perf_counter() + 30.0
        for index in range(samples):
            sequencer.submit(event)
            while len(gaps) <= index and perf_counter() < deadline:
                time.sleep(0)  # release the GIL to the consumer
    finally:
        sequencer.close()
        consumer.join(10.0)
    return median(gaps, 1e6)


# -- the server's sidecars -------------------------------------------------

class Sidecars:
    """The traced server's metrics JSONL and span JSONL, parsed."""

    def __init__(self, metrics_path: Path, spans_path: Path) -> None:
        self.snapshots: list = []
        self.summary: dict = {}
        for line in _json_lines(metrics_path):
            if line.get("kind") == "snapshot":
                self.snapshots.append(line)
            elif line.get("kind") == "summary":
                self.summary = line.get("metrics", {})
        self.spans = [line for line in _json_lines(spans_path)
                      if line.get("kind") == "span"]

    def counter(self, name: str, default=None):
        """``default`` is for counters the server creates lazily, on
        the first increment; without one a missing counter warns."""
        value = self.summary.get("counters", {}).get(name, default)
        if value is None:
            warn(f"server sidecar has no counter {name!r}")
        return value

    def histogram(self, name: str, field: str):
        cell = self.summary.get("histograms", {}).get(name)
        if cell is None or field not in cell:
            warn(f"server sidecar has no histogram {name!r}.{field}")
            return None
        return cell[field]

    def mean_between(self, name: str, first: int, last: int):
        """Mean of histogram ``name`` over the events applied between
        the snapshots bracketing ``first..last`` (applied-event
        watermarks): how a phase is cut out of a cumulative
        histogram."""
        inside = [snap for snap in self.snapshots
                  if first <= snap["events_processed"] <= last]
        if len(inside) < 2:
            warn(f"fewer than two metric snapshots in {first}..{last}")
            return None
        cells = [snap["metrics"]["histograms"].get(name)
                 for snap in (inside[0], inside[-1])]
        if None in cells or cells[1]["count"] == cells[0]["count"]:
            warn(f"server sidecar has no histogram {name!r}")
            return None
        return ((cells[1]["sum_seconds"] - cells[0]["sum_seconds"])
                / (cells[1]["count"] - cells[0]["count"]))

    def window_members(self) -> int:
        """Events that carry a ``batch-window`` child span."""
        return sum(
            any(child.get("name") == "batch-window"
                for child in span.get("children", ()))
            for span in self.spans)


def _json_lines(path: Path):
    try:
        with path.open(encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    yield json.loads(line)
    except FileNotFoundError:
        warn(f"{path.name} was not written")


def scaled(value, factor: float):
    return None if value is None else value * factor


def ratio(numerator, denominator):
    if numerator is None or not denominator:
        return None
    return numerator / denominator


# -- the table ---------------------------------------------------------------

def assemble(workload, plan, session, dark, sidecars: Sidecars,
             recorder: SpanRecorder, replayed: dict, server,
             recover_s: float) -> dict:
    """Every ``PER_LAYER`` metric of one traced run.  ``session`` is
    the client's view of the traced server, ``dark`` of the dark
    reference server, ``replayed`` what :func:`replay` returned."""
    us, ms = 1e6, 1e3
    served_tags = [*plan.paced, *plan.flood]
    results = [reply["record"] for reply in session.replies.values()
               if reply.get("type") == "result"]

    def field(name):
        return [record[name] for record in results]

    # Outside-timed spans of the in-process replay.
    own = recorder.self_seconds()
    by_kind: dict = {}
    emit = []
    for index in recorder.named("service.process"):
        kind = recorder.parent_tag(index)
        by_kind.setdefault(kind, []).append(recorder.seconds(index))
        if kind == "query":
            emit.append(own[index])
    for index in recorder.named("service.window"):
        size = recorder.tag(index) or 1
        by_kind.setdefault("query", []).append(
            recorder.seconds(index) / size)
        emit.append(own[index] / size)
    scans = recorder.named("evaluation.scan")

    def spans(name):
        return map(recorder.seconds, recorder.named(name))

    durable = workload.durable
    sharded = workload.workers > 0
    batched = workload.batch_window > 0
    rhtalu = workload.method == "rhtalu"

    def when(active: bool, value):
        """A bypassed layer is exactly 0; an active one reports what
        it measured (``None`` if its source has gone missing)."""
        return value() if active else 0

    first, last = len(plan.genesis), len(plan.genesis) + len(plan.paced)
    e2e_mean = sidecars.mean_between("latency.serve_e2e", first, last)
    round_trip = mean(session.received[tag] - session.sent[tag]
                      for tag in plan.paced if tag in session.received)
    fsyncs = when(durable, lambda: sidecars.histogram(
        "latency.journal_fsync", "count"))
    appends = when(durable, lambda: sidecars.counter("journal.appends"))
    windows = when(batched, lambda: sidecars.histogram(
        "latency.window", "count"))
    queries = session.paced_ms(queries=True)

    metrics = {
        "serve.protocol.decode_us": time_decode(
            [plan.frames[tag] for tag in served_tags]),
        "serve.protocol.encode_us": time_encode(
            replayed["records"]),
        "serve.protocol.request_bytes": mean(
            len(plan.frames[tag]) for tag in served_tags),
        "serve.protocol.reply_bytes": ratio(
            session.reply_bytes, len(session.replies)),
        "serve.sequencer.handoff_us": time_handoff(),
        "serve.server.e2e_mean_ms": scaled(e2e_mean, ms),
        "serve.server.wire_overhead_ms": None
        if e2e_mean is None or round_trip is None
        else (round_trip - e2e_mean) * ms,
        "stream.journal.append_us": when(durable, lambda: median(
            spans("journal.append"), us)),
        "stream.journal.fsyncs": fsyncs,
        "stream.journal.events_per_fsync": when(
            durable, lambda: ratio(appends, fsyncs)),
        "stream.journal.bytes_per_event": when(
            durable, lambda: ratio(
                server.path("journal").stat().st_size, appends)),
        "stream.snapshot.write_ms": when(durable, lambda: mean(
            spans("snapshot.write"), ms)),
        "stream.snapshot.bytes": when(
            durable,
            lambda: server.path("final-checkpoint.json").stat().st_size),
        "stream.snapshot.writes": when(
            durable, lambda: sidecars.counter("checkpoint.writes")),
        "stream.recovery.recover_s": recover_s,
        **{f"stream.service.{kind}_us": median(by_kind.get(kind, ()), us)
           for kind in ("query", "join", "leave", "update", "topup")},
        "stream.service.emit_us": median(emit, us),
        "stream.service.offline_eps": ratio(
            replayed["events"], replayed["seconds"]),
        "stream.batching.windows": windows,
        "stream.batching.window_mean": when(
            batched,
            lambda: ratio(sidecars.window_members(), windows)),
        "stream.batching.ingress_wait_us": when(
            batched, lambda: median(replayed["waits"], us)),
        "core.wd_us": median(field("wd_seconds"), us),
        "evaluation.eval_us": median(field("eval_seconds"), us),
        "evaluation.scan_us": when(
            rhtalu, lambda: median(spans("evaluation.scan"), us)),
        "evaluation.sequential_accesses_mean": when(
            rhtalu, lambda: mean(recorder.tag(i)[0] for i in scans)),
        "evaluation.random_accesses_mean": when(
            rhtalu, lambda: mean(recorder.tag(i)[1] for i in scans)),
        "auction.price_us": median(field("price_seconds"), us),
        "auction.settle_us": median(field("settle_seconds"), us),
        "auction.candidates_mean": mean(field("num_candidates")),
        "runtime.round_us": when(sharded, lambda: scaled(
            sidecars.histogram("latency.shard_round", "mean_seconds"),
            us)),
        "runtime.rounds": when(
            sharded, lambda: sidecars.counter("runtime.rounds")),
        "runtime.round_retries": sidecars.counter(
            "runtime.round_retries", default=0),
        "obs.overhead_ratio": session.flood_eps() / dark.flood_eps(),
        "obs.spans_written": len(sidecars.spans),
        "loadgen.sent": len(session.sent),
        "loadgen.acked": len(session.received),
        "loadgen.late_p99_ms": float(percentile(
            [ms * (session.sent[tag] - session.due[tag])
             for tag in plan.paced], 99)),
        "loadgen.backlog_max": session.backlog_max,
        "loadgen.query_p95_ms": float(percentile(queries, 95)),
        "loadgen.query_p99_ms": float(percentile(queries, 99)),
        "loadgen.query_max_ms": max(queries),
    }
    # A query's blocking path, layer by layer, as outside-timed
    # medians: decode -> sequencer hand-off -> journal append ->
    # service (dispatch + emit) -> reply encode.
    path = [metrics["serve.protocol.decode_us"],
            metrics["serve.sequencer.handoff_us"],
            metrics["stream.journal.append_us"],
            metrics["stream.service.query_us"],
            metrics["serve.protocol.encode_us"]]
    total = None if None in path else sum(path) / 1e3
    metrics["layers.sum_p50_ms"] = total
    metrics["layers.unexplained_ms"] = None if total is None \
        else statistics.median(queries) - total
    return metrics
