#!/usr/bin/env python
"""Streaming micro-batching: batched vs unbatched vs rebuild.

The acceptance benchmark for the adaptive micro-batching stage
(:mod:`repro.stream.batching`): on query-heavy churn streams, run each
cell's stream through three :class:`~repro.stream.service
.OnlineAuctionService` configurations —

* **unbatched** — the incumbent one-event-at-a-time incremental loop;
* **batched** — the same service with ``--batch-window`` armed, so
  maximal runs of consecutive queries dispatch as one window (one
  journal fsync, one capture-refresh check);
* **rebuild** — the rebuild-per-control-event oracle.

Every cell must be **trace-diff-empty** (:func:`repro.stream
.diff_traces`) against both the unbatched run and the rebuild oracle,
and the emission logs and final tracked balances must match too —
batching is a dispatch knob, not a semantics knob.  Cells cover all
four methods plus sharded (``workers=2``) flavors.

Throughput is reported as **streaming auctions/sec over the
query-serving seconds** (the per-kind ``query`` bucket of
:class:`~repro.bench.stream_stats.EventTimings`): genesis joins cost
the same on every side and say nothing about batching, so the serving
rate is the honest metric.  The headline cell (method ``rh`` at the
largest population) gates ``--min-speedup``; the committed
``BENCH_stream_batch.json`` pins batched >= 2x unbatched there, with
``tests/test_bench_artifacts.py`` holding the structure and verdicts.
That artifact is the PR-8 measurement: its gap was the window-scoped
subset cache, which since PR 12 is keyed on membership
(:meth:`~repro.core.winner_determination.SubsetSolver.for_membership`)
and serves the unbatched loop too — re-running this script today
shows the two in-memory ``rh`` sides close together.

Run::

    python benchmarks/bench_stream_batching.py
    python benchmarks/bench_stream_batching.py --quick \
        --min-speedup 0 --out BENCH_stream_batch.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import ENGINE_SEED, WORKLOAD_SEED, build_workload  # noqa: E402
from repro.stream import (  # noqa: E402
    BatchingConfig,
    OnlineAuctionService,
    diff_traces,
)
from repro.workloads import ChurnStreamConfig, generate_stream  # noqa: E402

SLOTS = 15
KEYWORDS = 10


def run_side(config, method, stream, *, maintenance="incremental",
             workers=0, window=0):
    batching = BatchingConfig(window=window) if window else None
    service = OnlineAuctionService(
        config, method=method, maintenance=maintenance,
        workers=workers, engine_seed=ENGINE_SEED, batching=batching)
    try:
        start = time.perf_counter()
        records = service.run(stream)
        wall = time.perf_counter() - start
        stats = service.stats.to_dict()
        identity = (list(service.emitted),
                    service.registry.balances())
        return records, wall, stats, identity
    finally:
        service.close()


def side_payload(records, wall, stats):
    query = stats["by_kind"].get("query", {"count": 0,
                                           "seconds": 0.0})
    seconds = query["seconds"]
    payload = {
        "wall_seconds": wall,
        "query_seconds": seconds,
        "auctions_per_second": len(records) / max(seconds, 1e-12),
    }
    if "batching" in stats:
        payload["batching"] = stats["batching"]
    return payload


def run_cell(plan, events, window, quick):
    label, method, size, workers = plan
    if quick:
        size = max(200, size // 10)
    genesis = int(size * 0.9)
    workload = build_workload(size, SLOTS, KEYWORDS)
    stream = generate_stream(workload, ChurnStreamConfig(
        num_events=events, churn_rate=0.03, genesis=genesis,
        min_active=SLOTS + 1, seed=WORKLOAD_SEED + 17))
    config = workload.config

    unbatched = run_side(config, method, stream, workers=workers)
    batched = run_side(config, method, stream, workers=workers,
                       window=window)
    rebuild = run_side(config, method, stream, workers=workers,
                       maintenance="rebuild")

    vs_unbatched = diff_traces(unbatched[0], batched[0])
    vs_rebuild = diff_traces(rebuild[0], batched[0])
    identical = (vs_unbatched.identical and vs_rebuild.identical
                 and batched[3] == unbatched[3]
                 and batched[3] == rebuild[3])
    speedup = (unbatched[2]["by_kind"]["query"]["seconds"]
               / max(batched[2]["by_kind"]["query"]["seconds"],
                     1e-12))
    cell = {
        "label": label,
        "method": method,
        "num_advertisers": size,
        "genesis": genesis,
        "workers": workers,
        "window": window,
        "auctions": len(batched[0]),
        "identical": identical,
        "diff_empty_vs_unbatched": vs_unbatched.identical,
        "diff_empty_vs_rebuild": vs_rebuild.identical,
        "unbatched": side_payload(*unbatched[:3]),
        "batched": side_payload(*batched[:3]),
        "rebuild": side_payload(*rebuild[:3]),
        "batched_speedup": speedup,
    }
    batching = cell["batched"].get("batching", {})
    print(f"  {label:>14s} ({method}, n={size}"
          + (f", workers={workers}" if workers else "")
          + f"): {cell['unbatched']['auctions_per_second']:8.1f}/s "
          f"unbatched vs "
          f"{cell['batched']['auctions_per_second']:8.1f}/s batched "
          f"({speedup:.2f}x), identical={identical}, "
          f"windows={batching.get('windows', 0)} "
          f"mean={batching.get('mean_window', 0):.1f}")
    return cell


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=16000,
                        help="headline cell's advertiser universe")
    parser.add_argument("--events", type=int, default=200,
                        help="post-genesis events per stream")
    parser.add_argument("--window", type=int, default=32,
                        help="batch window for every batched side")
    parser.add_argument("--quick", action="store_true",
                        help="shrink every cell 10x (CI smoke)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail if the headline cell's batched "
                             "speedup falls below this (0 = report "
                             "only)")
    parser.add_argument("--out", default="BENCH_stream_batch.json")
    args = parser.parse_args(argv)

    # (label, method, universe size, workers) — the headline cell
    # first; lp/hungarian run smaller (their solvers are the scaling
    # bottleneck, not the dispatch), and the sharded flavors prove the
    # window path through the executor's capture/refresh protocol.
    plans = [
        ("rh-headline", "rh", args.size, 0),
        ("rh-sharded", "rh", 4000, 2),
        ("rhtalu", "rhtalu", 4000, 0),
        ("rhtalu-sharded", "rhtalu", 4000, 2),
        ("lp", "lp", 600, 0),
        ("hungarian", "hungarian", 600, 0),
    ]

    print(f"stream batching: window={args.window} "
          f"events={args.events} headline n={args.size}"
          + (" (quick)" if args.quick else ""))
    cells = [run_cell(plan, args.events, args.window, args.quick)
             for plan in plans]

    all_identical = all(cell["identical"] for cell in cells)
    headline = cells[0]["batched_speedup"]
    artifact = {
        "workload": {
            "figure": "12 (Section V workload as an id universe; "
                      "query-heavy streams, churn 0.03)",
            "num_slots": SLOTS,
            "num_keywords": KEYWORDS,
            "events": args.events,
            "window": args.window,
            "workload_seed": WORKLOAD_SEED,
            "engine_seed": ENGINE_SEED,
            "quick": args.quick,
        },
        "note": ("each cell runs the SAME query-heavy event stream "
                 "through an unbatched incremental service, the same "
                 "service with a micro-batch window, and a rebuild-"
                 "per-control-event oracle; every cell must be trace-"
                 "diff-empty against both and agree on emissions and "
                 "final balances. auctions_per_second is auctions "
                 "over the query-serving seconds (genesis join cost "
                 "excluded on every side alike)."),
        "cells": cells,
        "summary": {
            "headline_cell": cells[0]["label"],
            "batched_speedup": headline,
            "all_identical": all_identical,
            "speedups": {cell["label"]: cell["batched_speedup"]
                         for cell in cells},
        },
    }
    Path(args.out).write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {args.out}: headline {headline:.2f}x, "
          f"all_identical={all_identical}")

    if not all_identical:
        print("FAIL: a batched cell diverged from its oracles")
        return 1
    if args.min_speedup and headline < args.min_speedup:
        print(f"FAIL: headline speedup {headline:.2f}x < "
              f"--min-speedup {args.min_speedup}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
