"""Observability: per-event span traces, metrics, structured logging.

The serving path (:mod:`repro.stream`) is verified by *bit-identity* —
two runs of the same stream must produce byte-equal decision traces —
so its instrumentation has one hard rule: **observe without
perturbing**.  This package is the layer that makes that possible:

* :class:`SpanTracer` (:mod:`repro.obs.tracer`) — per-event span
  trees (``ingress`` → ``batch-window`` → ``journal-fsync`` →
  ``dispatch`` → ``wd``/``price``/``settle`` → ``emit`` →
  ``checkpoint``) written as JSONL.  Span ids derive from the event's
  stream sequence number alone; monotonic durations are sidecar data
  the identity machinery never reads.
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — counters,
  gauges, and fixed-bucket latency histograms (p50/p90/p99/max)
  registered by the service, the micro-batcher, the journal, the
  checkpoint policy, the supervisor, and the sharded executor.
  Worker-process counters ride piggyback on the existing reply/flush
  messages and are merged coordinator-side.
* :class:`MetricsWriter` — periodic metrics snapshots plus a final
  summary block, as JSONL next to the trace.
* :func:`configure_logging` (:mod:`repro.obs.logconfig`) — the
  ``repro.*`` logger namespace with structured ``extra`` fields
  (seq, shard, generation) rendered as ``key=value`` suffixes.
* :mod:`repro.obs.schema` / :mod:`repro.obs.report` — validation and
  human-readable rendering for the emitted files (``repro obs
  report``, ``tools/validate_obs.py``, ``tools/obs_report.py``).

Everything is **zero-cost when disabled**: the service holds ``None``
instead of a recorder and every call site is guarded, so a run without
``--metrics-out``/``--trace-spans`` executes the exact pre-existing
code path.  The ``obs`` cell of ``benchmarks/offline.py`` bounds the
enabled-vs-disabled overhead and re-proves bit-identity with
observability on.
"""

from repro.obs.config import ObservabilityConfig
from repro.obs.logconfig import configure_logging
from repro.obs.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    MetricsWriter,
    merge_counter_dicts,
)
from repro.obs.report import load_metrics, load_trace, render_report
from repro.obs.schema import validate_metrics_file, validate_trace_file
from repro.obs.tracer import SPAN_KINDS, TRACE_FORMAT, SpanTracer

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsWriter",
    "ObservabilityConfig",
    "SPAN_KINDS",
    "SpanTracer",
    "TRACE_FORMAT",
    "configure_logging",
    "load_metrics",
    "load_trace",
    "merge_counter_dicts",
    "render_report",
    "validate_metrics_file",
    "validate_trace_file",
]
