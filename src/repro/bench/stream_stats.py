"""Per-event-type accounting for the online serving layer.

The phase profiler (:mod:`repro.bench.profiles`) splits an *auction*
into eval/wd/price/settle; a streaming service additionally spends
time on control events — joins, leaves, bid edits, top-ups — whose
cost is exactly what the incremental-vs-rebuild maintenance comparison
measures.  :class:`EventTimings` folds one wall-clock stamp per
processed event into per-kind counts and totals — the per-kind
timings the ``stream-churn`` cell of ``benchmarks/offline.py`` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def zero_supervision() -> dict:
    """The supervision block's stable all-zero schema.

    Keys mirror :meth:`repro.runtime.supervision.SupervisionStats
    .to_dict` exactly (hardcoded here so the bench layer never imports
    the runtime).  Surfacing zeros unconditionally gives dashboards
    and the observability summary a fixed shape instead of a block
    that pops into existence at the first failure.
    """
    return {
        "worker_failures": 0,
        "respawns": 0,
        "reshards": 0,
        "timeouts": 0,
        "heals": 0,
        "heal_seconds": 0.0,
        "mean_heal_seconds": 0.0,
        "max_heal_seconds": 0.0,
    }


@dataclass
class EventTimings:
    """Counts and summed wall-clock seconds, keyed by event kind."""

    counts: dict[str, int] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)
    supervision: dict = field(default_factory=zero_supervision)
    """Worker-supervision counters (failures, respawns, reshards,
    heal latency) from :class:`repro.runtime.supervision
    .SupervisionStats` — always present with a stable schema, all
    zeros unless the service ran supervised shards and a counter
    moved."""

    batching: dict = field(default_factory=dict)
    """Micro-batch window accounting (``windows``, ``batched_events``,
    ``window_seconds``, ``max_window``, and a per-kind ``shed`` map
    under shed backpressure) — empty unless the service ran with a
    batch window."""

    def record(self, kind: str, elapsed: float) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.seconds[kind] = self.seconds.get(kind, 0.0) + elapsed

    def record_window(self, kind: str, count: int,
                      elapsed: float) -> None:
        """Fold one dispatched window of ``count`` events.

        The wall time amortizes into the per-kind buckets — ``count``
        events, ``elapsed`` seconds — so per-event means (and any
        percentile derived from them) describe events, not windows;
        attributing a whole window's wall time to its last event is
        exactly the skew this method exists to avoid.  The window
        itself lands in the batch-level :attr:`batching` counters.

        An empty window (``count == 0``) records nothing: no events
        were served, so neither the per-kind buckets nor the window
        counters should move.
        """
        if count == 0:
            return
        self.counts[kind] = self.counts.get(kind, 0) + count
        self.seconds[kind] = self.seconds.get(kind, 0.0) + elapsed
        block = self.batching
        block["windows"] = block.get("windows", 0) + 1
        block["batched_events"] = block.get("batched_events", 0) + count
        block["window_seconds"] = (block.get("window_seconds", 0.0)
                                   + elapsed)
        block["max_window"] = max(block.get("max_window", 0), count)

    def record_shed(self, kind: str) -> None:
        """Count one event dropped by shed backpressure."""
        shed = self.batching.setdefault("shed", {})
        shed[kind] = shed.get(kind, 0) + 1

    def absorb(self, other: "EventTimings") -> None:
        """Fold another accumulator in (e.g. a pre-snapshot segment's
        stats into the resumed service's, so a spliced run reports the
        whole stream)."""
        for kind, count in other.counts.items():
            self.counts[kind] = self.counts.get(kind, 0) + count
        for kind, value in other.seconds.items():
            self.seconds[kind] = self.seconds.get(kind, 0.0) + value
        if other.supervision:
            merged = dict(self.supervision)
            for key, value in other.supervision.items():
                if key == "max_heal_seconds":
                    merged[key] = max(merged.get(key, 0.0), value)
                elif key == "mean_heal_seconds":
                    continue  # recomputed below
                elif isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
                else:  # pragma: no cover - future non-numeric fields
                    merged[key] = value
            heals = merged.get("heals", 0)
            if heals:
                merged["mean_heal_seconds"] = (
                    merged.get("heal_seconds", 0.0) / heals)
            self.supervision = merged
        if other.batching:
            merged = dict(self.batching)
            for key, value in other.batching.items():
                if key == "max_window":
                    merged[key] = max(merged.get(key, 0), value)
                elif key == "shed":
                    shed = dict(merged.get("shed", {}))
                    for kind, count in value.items():
                        shed[kind] = shed.get(kind, 0) + count
                    merged["shed"] = shed
                else:
                    merged[key] = merged.get(key, 0) + value
            self.batching = merged

    @property
    def total_events(self) -> int:
        return sum(self.counts.values())

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def control_seconds(self) -> float:
        """Summed cost of everything that is not a query arrival."""
        return sum(value for kind, value in self.seconds.items()
                   if kind != "query")

    def mean_ms(self, kind: str) -> float:
        count = self.counts.get(kind, 0)
        if count == 0:
            return 0.0
        return 1e3 * self.seconds.get(kind, 0.0) / count

    def to_dict(self) -> dict:
        payload = {
            "total_events": self.total_events,
            "total_seconds": self.total_seconds,
            "control_seconds": self.control_seconds(),
            "by_kind": {
                kind: {
                    "count": self.counts[kind],
                    "seconds": self.seconds.get(kind, 0.0),
                    "mean_ms": self.mean_ms(kind),
                }
                for kind in sorted(self.counts)
            },
            "supervision": dict(self.supervision),
        }
        if self.batching:
            block = dict(self.batching)
            windows = block.get("windows", 0)
            if windows:
                block["mean_window"] = (
                    block.get("batched_events", 0) / windows)
            payload["batching"] = block
        return payload
