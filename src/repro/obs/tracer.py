"""Per-event span trees with sequence-derived deterministic ids.

Every applied input event becomes exactly one root span whose id **is**
its stream sequence number (``events_processed`` at apply time) and
whose children are the stages the event passed through::

    {"kind": "span", "seq": 17, "span_id": "17", "event": "query",
     "seconds": ..., "children": [
        {"span_id": "17.1", "name": "ingress",  "seconds": ...},
        {"span_id": "17.2", "name": "dispatch", "seconds": ...,
         "children": [{"span_id": "17.2.1", "name": "wd", ...},
                      {"span_id": "17.2.2", "name": "price", ...},
                      {"span_id": "17.2.3", "name": "settle", ...}]},
        {"span_id": "17.3", "name": "emit", "seconds": ...}]}

Ids never involve wall-clock or randomness — two runs of the same
stream produce the same span ids for the same events; the ``seconds``
fields are monotonic sidecar timings the identity machinery ignores.

Lifecycle quirks the serving path imposes:

* Some stages happen **before** the event's root exists — the
  micro-batcher's ingress wait is known when the unit leaves the
  queue.  :meth:`SpanTracer.stage` parks those children by seq; they
  are adopted when :meth:`SpanTracer.open` creates the root.
* Some stages land **after** the event's apply call returns — the
  durable wrapper's commit barrier (one ``journal-fsync`` child on
  the last event of the group it covers) and checkpoint, and a batch
  window's shared ``batch-window`` child.  Roots therefore stay open until
  :meth:`SpanTracer.flush_upto` runs at the start of the *next* apply
  (windows keep all member roots open together), and :meth:`close`
  drains stragglers.
"""

from __future__ import annotations

import json
from pathlib import Path

TRACE_FORMAT = "repro-obs-trace/1"
"""Format marker on the span trace's header line."""

#: The child-span taxonomy.  Root span names are event kinds
#: (``query``/``join``/``leave``/``update``/``topup``); every child
#: name must come from this tuple.
SPAN_KINDS: tuple[str, ...] = (
    "ingress",       # micro-batcher queue wait (admit -> dispatch)
    "batch-window",  # shared window elapsed, on every window member
    "journal-fsync", # group-commit barrier (durable runs)
    "dispatch",      # backend.run_query: the auction itself
    "wd",            # winner determination phase (from the record)
    "price",         # GSP pricing phase (from the record)
    "settle",        # settlement/clamping phase (from the record)
    "emit",          # charge settlement + pause/resume emissions
    "checkpoint",    # CheckpointPolicy.write (durable runs)
)


class SpanTracer:
    """Writes one JSONL span tree per applied event."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w", encoding="utf-8")
        # seq -> {"event": kind, "seconds": float|None,
        #         "children": [child dicts]}
        self._open: dict[int, dict] = {}
        self._staged: dict[int, list[dict]] = {}
        self.spans_written = 0
        self.closed = False
        self._handle.write(json.dumps(
            {"kind": "header", "format": TRACE_FORMAT,
             "span_kinds": list(SPAN_KINDS)}, sort_keys=True) + "\n")

    @staticmethod
    def _child(name: str, seconds: float, attrs: dict | None) -> dict:
        child = {"name": name, "seconds": seconds}
        if attrs:
            child["attrs"] = attrs
        return child

    def open(self, seq: int, event_kind: str) -> None:
        """Create (or reset) the root span for event ``seq``,
        adopting any staged children.

        Re-opening an existing seq resets it: the only way that
        happens is a failed apply retried at the same watermark, and
        the failed attempt's stages belong to the event that never
        landed.
        """
        self._open[seq] = {
            "event": event_kind,
            "seconds": None,
            "children": self._staged.pop(seq, []),
        }

    def stage(self, seq: int, name: str, seconds: float,
              attrs: dict | None = None) -> None:
        """Record a child for a root that may not exist yet."""
        root = self._open.get(seq)
        child = self._child(name, seconds, attrs)
        if root is not None:
            root["children"].append(child)
        else:
            self._staged.setdefault(seq, []).append(child)

    def child(self, seq: int, name: str, seconds: float,
              attrs: dict | None = None,
              children: list[tuple[str, float, dict | None]]
              | None = None) -> None:
        """Attach a child (optionally with grandchildren) to the open
        root for ``seq``; falls back to staging if it is not open."""
        child = self._child(name, seconds, attrs)
        if children:
            child["children"] = [self._child(*grand)
                                 for grand in children]
        root = self._open.get(seq)
        if root is not None:
            root["children"].append(child)
        else:
            self._staged.setdefault(seq, []).append(child)

    def set_duration(self, seq: int, seconds: float) -> None:
        root = self._open.get(seq)
        if root is not None:
            root["seconds"] = seconds

    def _assign_ids(self, children: list[dict], prefix: str) -> None:
        for index, child in enumerate(children, start=1):
            child["span_id"] = f"{prefix}.{index}"
            grandchildren = child.get("children")
            if grandchildren:
                self._assign_ids(grandchildren, child["span_id"])

    def _write_root(self, seq: int, root: dict) -> None:
        self._assign_ids(root["children"], str(seq))
        payload = {
            "kind": "span",
            "seq": seq,
            "span_id": str(seq),
            "event": root["event"],
            "seconds": root["seconds"],
            "children": root["children"],
        }
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self.spans_written += 1

    def flush_upto(self, seq: int) -> None:
        """Write and forget every open root with sequence < ``seq``.

        Called at the start of each apply: by then the previous
        event(s) have collected every late child (checkpoint,
        batch-window) they will ever get.
        """
        ready = [s for s in self._open if s < seq]
        for s in sorted(ready):
            self._write_root(s, self._open.pop(s))

    def flush_all(self) -> None:
        for s in sorted(self._open):
            self._write_root(s, self._open.pop(s))

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.flush_all()
            self._handle.close()
