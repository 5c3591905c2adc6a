#!/usr/bin/env python
"""The offline acceptance benchmarks: one registry, one driver, one file.

Each entry of :data:`CELLS` is one claim the repo backs with a committed
measurement — the paper's Figures 12 and 13, the Section III-E sharded
scan, and the serving layers built on the same workload (15 slots, 10
keywords, ROI pacers, GSP; ``common.py`` builds it from fixed seeds).
A cell is two functions:

* ``run(quick) -> dict`` measures the cell's fixed workload — the full
  size, or the small size CI runs — and returns ``{"workload", "rows",
  "summary"}``;
* ``check(result) -> list[str]`` holds the cell's acceptance bars and
  returns one message per failed bar.  Identity and behaviour bars hold
  at every size; speed bars only at full size, where they mean something.

Every two-sided cell compares its sides with one verdict,
:func:`same_outcome`: trace-diff-empty records, equal final accounts and
provider revenue, and — for services — equal budget balances and
emissions.

Run::

    python benchmarks/offline.py                     # every cell, full size
    python benchmarks/offline.py shards obs          # named cells only
    python benchmarks/offline.py --quick --out /tmp/quick.json

Results merge by cell name into ``BENCH_offline.json`` at the repo root
(or ``--out``); one line is printed per cell, and the exit status is 1
if and only if some ``check`` fails.  ``tests/test_bench_artifacts.py``
runs every ``check`` on the committed file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

sys.path.insert(0, str(Path(__file__).parent))

from common import (  # noqa: E402
    ENGINE_SEED,
    WORKLOAD_SEED,
    build_engine,
    build_workload,
)
from repro.bench import profile_run  # noqa: E402
from repro.core.parallel import parallel_speedup_model  # noqa: E402
from repro.obs import ObservabilityConfig, validate_trace_file  # noqa: E402
from repro.runtime import ShardedAuctionRuntime  # noqa: E402
from repro.stream import (  # noqa: E402
    BatchingConfig,
    DurableAuctionService,
    OnlineAuctionService,
    align_traces,
    diff_traces,
    recover,
)
from repro.stream.events import event_kind  # noqa: E402
from repro.workloads import ChurnStreamConfig, generate_stream  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
WARMUP = 2
PRESSURE = {"budget_low": 4.0, "budget_high": 30.0, "topup_weight": 1.5}
"""Small join budgets and frequent top-ups: the budget lifecycle (pause
on exhaustion, re-admit on top-up) fires throughout the stream."""


# -- shared plumbing -----------------------------------------------------

def entry(workload: dict, quick: bool, rows: list, **summary) -> dict:
    """The one top-level shape every cell's ``run`` returns."""
    return {"workload": dict(workload, quick=quick), "rows": rows,
            "summary": summary}


def outcome(records, owner) -> dict:
    """What a two-sided cell holds its sides equal on: the records and
    the owner's final account book — plus, for a service, its budget
    balances and its pause/resume emissions."""
    book = owner.accounts
    service = isinstance(owner, OnlineAuctionService)
    return {
        "records": list(records),
        "charged": {advertiser: account.charged
                    for advertiser, account in book.accounts.items()},
        "revenue": book.provider_revenue,
        "balances": owner.registry.balances() if service else None,
        "emitted": list(owner.emitted) if service else None,
    }


def same_outcome(left: dict, right: dict) -> bool:
    """The identity verdict of every two-sided cell."""
    return (diff_traces(left["records"], right["records"]).identical
            and all(left[key] == right[key] for key in
                    ("charged", "revenue", "balances", "emitted")))


def churn_stream(workload, events: int, churn_rate: float,
                 genesis: int, **overrides):
    return generate_stream(workload, ChurnStreamConfig(
        num_events=events, churn_rate=churn_rate, genesis=genesis,
        min_active=workload.config.num_slots + 1,
        seed=WORKLOAD_SEED + 17, **overrides))


def serve(config, stream, **options) -> tuple[dict, float, dict]:
    """One service over ``stream``: (outcome, wall seconds, stats)."""
    with OnlineAuctionService(config, engine_seed=ENGINE_SEED,
                              **options) as service:
        start = time.perf_counter()
        records = service.run(stream)
        wall = time.perf_counter() - start
        return outcome(records, service), wall, service.stats.to_dict()


def identity_failures(rows: list) -> list[str]:
    return [f"{row['label']}: sides differ" for row in rows
            if not row["identical"]]


# -- batch: the vectorized pipeline (Figure 12 workload) -----------------

BATCH = {
    False: {"method": "rh", "advertisers": 2000, "auctions": 300,
            "slots": 15, "keywords": 10},
    True: {"method": "rh", "advertisers": 40, "auctions": 30,
           "slots": 4, "keywords": 3},
}


def run_batch(quick: bool) -> dict:
    w = BATCH[quick]
    rows, sides = [], []
    for batched in (False, True):
        engine = build_engine(w["method"], w["advertisers"], w["slots"],
                              w["keywords"])
        (engine.run_batch if batched else engine.run)(WARMUP)
        records, profile = profile_run(engine, w["auctions"],
                                       batch=batched)
        sides.append(outcome(records, engine))
        rows.append({"label": profile.label,
                     "auctions_per_second": profile.auctions_per_second,
                     "phase_ms": profile.phase_ms()})
    speedup = (rows[1]["auctions_per_second"]
               / rows[0]["auctions_per_second"])
    return entry(w, quick, rows, identical=same_outcome(*sides),
                 speedup=speedup)


def check_batch(result: dict) -> list[str]:
    summary = result["summary"]
    problems = [] if summary["identical"] else [
        "batched outcome differs from sequential"]
    if not result["workload"]["quick"] and summary["speedup"] < 2.0:
        problems.append(f"batched speedup {summary['speedup']:.2f}x "
                        f"< 2.0x")
    return problems


# -- shards: the Section III-E scan over real worker processes -----------

SHARDS = {
    False: {"advertisers": 20000, "workers": [1, 2, 4], "auctions": 120,
            "slots": 15, "keywords": 10},
    True: {"advertisers": 150, "workers": [1, 2], "auctions": 25,
           "slots": 5, "keywords": 3},
}


def shard_row(label, method, workers, records, profile) -> dict:
    # The median per-auction critical path (max per-worker CPU per
    # phase + coordinator): a host with fewer cores than workers cannot
    # show scaling in wall clock, and scheduler hiccups inflate a few
    # auctions, which the median ignores and a sum would not.
    rate = 1.0 / statistics.median(r.pipeline_seconds for r in records)
    parallel = profile.extra.get("parallel_wd", {})
    return {"label": label, "method": method, "workers": workers,
            "auctions_per_second": profile.auctions_per_second,
            "critical_path_auctions_per_second": rate,
            "leaves": parallel.get("num_leaves", 0)}


def run_shards(quick: bool) -> dict:
    w = SHARDS[quick]
    n, slots, keywords = w["advertisers"], w["slots"], w["keywords"]
    config = build_workload(n, slots, keywords).config
    rows = []
    for method in ("rh", "rhtalu"):
        engine = build_engine(method, n, slots, keywords)
        engine.run_batch(WARMUP)
        records, profile = profile_run(engine, w["auctions"], batch=True)
        oracle = outcome(records, engine)
        rows.append(dict(shard_row(f"{method}-inprocess", method, 0,
                                   records, profile), identical=True))
        base = None
        for workers in w["workers"]:
            with ShardedAuctionRuntime(config, method=method,
                                       workers=workers,
                                       engine_seed=ENGINE_SEED) as runtime:
                runtime.run_batch(WARMUP)
                records, profile = profile_run(runtime, w["auctions"],
                                               batch=True)
                row = shard_row(f"{method}-w{workers}", method, workers,
                                records, profile)
                identical = same_outcome(oracle, outcome(records, runtime))
            rate = row["critical_path_auctions_per_second"]
            base = base or rate  # the sweep starts at one worker
            rows.append(dict(row, identical=identical,
                             speedup_vs_1w=rate / base,
                             model_scan_speedup=parallel_speedup_model(
                                 n, slots, workers)))
    top = {row["method"]: row["speedup_vs_1w"] for row in rows
           if row["workers"]}
    return entry(w, quick, rows,
                 identical=all(row["identical"] for row in rows),
                 rh_speedup=top["rh"], rhtalu_speedup=top["rhtalu"])


def check_shards(result: dict) -> list[str]:
    rows = result["rows"]
    problems = identity_failures(rows)
    problems += [f"{row['label']}: {row['leaves']} scan leaves"
                 for row in rows if row["leaves"] != row["workers"]]
    top = [row for row in rows if row["method"] == "rh"][-1]
    if not result["workload"]["quick"] and (
            top["workers"] != 4 or top["speedup_vs_1w"] < 2.0):
        problems.append(f"rh critical path at {top['workers']} workers "
                        f"is {top['speedup_vs_1w']:.2f}x of 1 worker, "
                        f"bar is 2.0x at 4")
    return problems


# -- stream-churn: incremental maintenance vs rebuild-per-event ----------

STREAM_CHURN = {
    False: {"method": "rhtalu", "advertisers": 2000, "events": 400,
            "churn_rates": [0.0, 0.05, 0.2], "slots": 15,
            "keywords": 10},
    True: {"method": "rhtalu", "advertisers": 200, "events": 120,
           "churn_rates": [0.0, 0.2], "slots": 5, "keywords": 3},
}


def run_stream_churn(quick: bool) -> dict:
    w = STREAM_CHURN[quick]
    workload = build_workload(w["advertisers"], w["slots"], w["keywords"])
    # The plain sweep, then the same top churn under budget pressure.
    plans = [("churn", rate, {}) for rate in w["churn_rates"]]
    plans.append(("exhaustion", w["churn_rates"][-1],
                  dict(PRESSURE, topup_weight=2.0)))
    rows = []
    for label, rate, overrides in plans:
        stream = churn_stream(workload, w["events"], rate,
                              w["advertisers"] // 2, **overrides)
        sides = {maintenance: serve(workload.config, stream,
                                    method=w["method"],
                                    maintenance=maintenance)
                 for maintenance in ("incremental", "rebuild")}
        incremental, rebuild = sides["incremental"], sides["rebuild"]
        kinds = Counter(event_kind(event)
                        for event in incremental[0]["emitted"])
        rows.append({
            "label": label, "churn_rate": rate,
            "auctions": len(incremental[0]["records"]),
            "identical": same_outcome(incremental[0], rebuild[0]),
            "pauses": kinds["paused"], "resumes": kinds["resumed"],
            "speedup": rebuild[1] / incremental[1],
            **{f"{name}_ms_by_kind": {
                kind: cell["mean_ms"]
                for kind, cell in side[2]["by_kind"].items()}
               for name, side in sides.items()},
        })
    return entry(w, quick, rows,
                 identical=all(row["identical"] for row in rows),
                 speedups={f"{row['label']}@{row['churn_rate']}":
                           row["speedup"] for row in rows})


def check_stream_churn(result: dict) -> list[str]:
    rows = result["rows"]
    problems = identity_failures(rows)
    exhaustion = rows[-1]
    if not (exhaustion["pauses"] and exhaustion["resumes"]):
        problems.append(f"exhaustion cell paused {exhaustion['pauses']}"
                        f" and resumed {exhaustion['resumes']} times")
    if result["workload"]["quick"]:
        return problems
    top = [row for row in rows if row["label"] == "churn"][-1]
    if top["speedup"] < 1.2:
        problems.append(f"max-churn speedup {top['speedup']:.2f}x < 1.2x")
    problems += [f"{row['label']}@{row['churn_rate']} speedup "
                 f"{row['speedup']:.2f}x < 1.1x" for row in rows
                 if row["churn_rate"] > 0 and row["speedup"] < 1.1]
    return problems


# -- recovery: checkpoint interval vs recovery time ----------------------

RECOVERY = {
    False: {"method": "rh", "advertisers": 300, "events": 240, "cut": 290,
            "intervals": [0, 25, 50, 100], "retain": 2},
    True: {"method": "rh", "advertisers": 120, "events": 150, "cut": 190,
           "intervals": [0, 25, 75], "retain": 2},
}


def run_recovery(quick: bool) -> dict:
    w = RECOVERY[quick]
    workload = build_workload(w["advertisers"])
    config = workload.config
    stream = churn_stream(workload, w["events"], 0.2,
                          w["advertisers"] // 2, **PRESSURE)
    cut = min(w["cut"], len(stream) - 1)  # the simulated crash

    # The uninterrupted run, with the emission count after every event
    # so each cell can compare emissions from its own watermark on.
    with OnlineAuctionService(config, method=w["method"],
                              engine_seed=ENGINE_SEED) as service:
        records, marks = [], [0]
        for event in stream:
            record = service.process(event)
            if record is not None:
                records.append(record)
            marks.append(len(service.emitted))
        baseline = outcome(records, service)

    rows = []
    for every in w["intervals"]:
        with tempfile.TemporaryDirectory() as tmp:
            journal = Path(tmp) / "journal.jsonl"
            checkpoints = Path(tmp) / "checkpoints" if every else None
            durable = DurableAuctionService.open(
                config, journal, method=w["method"],
                engine_seed=ENGINE_SEED, checkpoint_dir=checkpoints,
                checkpoint_every=every, checkpoint_retain=w["retain"])
            start = time.perf_counter()
            durable.run(stream[:cut])
            serving = time.perf_counter() - start
            durable.close()
            retained = (durable.checkpoints.checkpoint_files()
                        if durable.checkpoints else [])

            start = time.perf_counter()
            recovered = recover(journal, checkpoint_dir=checkpoints)
            recovery = time.perf_counter() - start
            with recovered.service as service:
                tail = recovered.records + service.run(stream[cut:])
                expected = dict(
                    baseline,
                    records=align_traces(baseline["records"], tail)[0],
                    emitted=baseline["emitted"][
                        marks[recovered.checkpoint_events]:])
                identical = same_outcome(expected, outcome(tail, service))
            rows.append({
                "label": f"every-{every}" if every else "journal-only",
                "checkpoint_every": every,
                "serving_seconds": serving,
                "journal_bytes": journal.stat().st_size,
                "checkpoints_retained": len(retained),
                "recovery_seconds": recovery,
                "checkpoint_events": recovered.checkpoint_events,
                "replayed_events": recovered.replayed_events,
                "identical": identical,
            })
    return entry(w, quick, rows, cut=cut,
                 identical=all(row["identical"] for row in rows))


def check_recovery(result: dict) -> list[str]:
    rows, cut = result["rows"], result["summary"]["cut"]
    retain = result["workload"]["retain"]
    problems = identity_failures(rows)
    for row in rows:
        every = row["checkpoint_every"]
        # The newest checkpoint is the last interval multiple at or
        # before the cut, and recovery replays exactly the gap after it.
        watermark = cut // every * every if every else 0
        if row["checkpoint_events"] != watermark \
                or row["replayed_events"] != cut - watermark:
            problems.append(f"{row['label']}: replayed "
                            f"{row['replayed_events']} from "
                            f"{row['checkpoint_events']}, the gap is "
                            f"{cut - watermark} from {watermark}")
        if every and not 1 <= row["checkpoints_retained"] <= retain:
            problems.append(f"{row['label']}: "
                            f"{row['checkpoints_retained']} checkpoints "
                            f"retained, limit {retain}")
    # The monotone half of the trade: a finer schedule never replays
    # more, and journal-only replays the most.
    replays = [row["replayed_events"] for row in
               sorted(rows, key=lambda row: row["checkpoint_every"] or cut)]
    if replays != sorted(replays):
        problems.append(f"replay lengths {replays} not monotone in the "
                        f"checkpoint interval")
    return problems


# -- supervision: heal a killed worker without moving a decision ---------

SUPERVISION = {
    False: {"method": "rh", "advertisers": 200, "events": 240,
            "workers": 2, "kill_at": 120, "slots": 15, "keywords": 10},
    True: {"method": "rh", "advertisers": 120, "events": 150,
           "workers": 2, "kill_at": 100, "slots": 5, "keywords": 3},
}


def run_supervision(quick: bool) -> dict:
    w = SUPERVISION[quick]
    workload = build_workload(w["advertisers"], w["slots"], w["keywords"])
    config = workload.config
    stream = list(churn_stream(workload, w["events"], 0.2,
                               w["advertisers"] // 2, **PRESSURE))
    oracle = serve(config, stream, method=w["method"])[0]
    rows = []
    # (label, SIGKILL a worker before this event index, restart budget)
    for label, kill_at, restarts in (("baseline", None, 1),
                                     ("respawn", w["kill_at"], 1),
                                     ("degraded", w["kill_at"], 0)):
        with OnlineAuctionService(
                config, method=w["method"], workers=w["workers"],
                engine_seed=ENGINE_SEED, supervise=True,
                round_timeout=120.0,
                max_worker_restarts=restarts) as service:
            runtime = service.backend.runtime
            runtime._ensure_started()
            records = []
            start = time.perf_counter()
            for index, event in enumerate(stream):
                if index == kill_at:
                    victim = runtime._processes[
                        index % len(runtime._processes)]
                    os.kill(victim.pid, signal.SIGKILL)
                record = service.process(event)
                if record is not None:
                    records.append(record)
            wall = time.perf_counter() - start
            rows.append({
                "label": label, "events_per_second": len(stream) / wall,
                "workers_at_end": runtime.plan.num_shards,
                "supervision": service.backend.supervision_snapshot(),
                "identical": same_outcome(oracle,
                                          outcome(records, service)),
            })
    return entry(w, quick, rows,
                 identical=all(row["identical"] for row in rows),
                 heal_ms={row["label"]: 1e3 * row["supervision"][
                     "max_heal_seconds"] for row in rows})


def check_supervision(result: dict) -> list[str]:
    rows = {row["label"]: row for row in result["rows"]}
    workers = result["workload"]["workers"]
    fleet = {label: row["workers_at_end"] for label, row in rows.items()}
    base, respawn, degraded = (rows[label]["supervision"] for label in
                               ("baseline", "respawn", "degraded"))
    bars = (
        ("baseline saw no failure and kept its fleet",
         base["worker_failures"] == 0 and fleet["baseline"] == workers),
        ("respawn healed in place, timed",
         respawn["respawns"] >= 1 and respawn["reshards"] == 0
         and respawn["mean_heal_seconds"] > 0
         and fleet["respawn"] == workers),
        ("degraded re-sharded onto one fewer worker",
         degraded["reshards"] >= 1 and degraded["respawns"] == 0
         and fleet["degraded"] == workers - 1),
    )
    return identity_failures(result["rows"]) + [
        f"expected: {bar}" for bar, holds in bars if not holds]


# -- obs: instrumented vs dark serving -----------------------------------

OBS = {
    False: {"advertisers": 4000, "events": 200, "repeats": 3,
            "bound": 1.5},
    True: {"advertisers": 400, "events": 200, "repeats": 3,
           "bound": 1.5},
}
OBS_PLANS = (("rh-inproc", 0, 0), ("rh-batched", 0, 32),
             ("rh-sharded", 2, 0))  # (label, workers, batch window)


def query_seconds(side) -> float:
    return side[2]["by_kind"]["query"]["seconds"]


def run_obs(quick: bool) -> dict:
    w = OBS[quick]
    workload = build_workload(w["advertisers"])
    stream = churn_stream(workload, w["events"], 0.03,
                          int(w["advertisers"] * 0.9))
    rows = []
    for label, workers, window in OBS_PLANS:
        options = {"method": "rh", "workers": workers, "batching":
                   BatchingConfig(window=window) if window else None}
        # Dark and instrumented repeats alternate, so a host stall
        # lands on both sides alike; best-of-repeats per side damps
        # the rest.  Identity and span coverage must hold on every
        # instrumented repeat.
        dark, lit, identical, clean, spans = None, None, True, True, 0
        with tempfile.TemporaryDirectory() as scratch:
            for repeat in range(w["repeats"]):
                side = serve(workload.config, stream, **options)
                if dark is None or query_seconds(side) < query_seconds(dark):
                    dark = side
                observability = ObservabilityConfig(
                    metrics_out=Path(scratch) / f"m{repeat}.jsonl",
                    trace_spans=Path(scratch) / f"t{repeat}.jsonl",
                    snapshot_every=100)
                side = serve(workload.config, stream,
                             observability=observability, **options)
                identical &= same_outcome(dark[0], side[0])
                clean &= not validate_trace_file(
                    observability.trace_spans,
                    expected_events=len(stream))
                spans = sum(
                    json.loads(line).get("kind") == "span" for line in
                    Path(observability.trace_spans).read_text()
                    .splitlines())
                if lit is None or query_seconds(side) < query_seconds(lit):
                    lit = side
        rows.append({
            "label": label, "workers": workers, "window": window,
            "events": len(stream), "root_spans": spans,
            "identical": identical, "trace_schema_clean": clean,
            "dark_query_seconds": query_seconds(dark),
            "instrumented_query_seconds": query_seconds(lit),
            "overhead_ratio": query_seconds(lit) / query_seconds(dark),
        })
    return entry(w, quick, rows,
                 identical=all(row["identical"] for row in rows),
                 max_overhead=max(row["overhead_ratio"] for row in rows))


def check_obs(result: dict) -> list[str]:
    bound = result["workload"]["bound"]
    problems = identity_failures(result["rows"])
    for row in result["rows"]:
        if not row["trace_schema_clean"] \
                or row["root_spans"] != row["events"]:
            problems.append(f"{row['label']}: {row['root_spans']} root "
                            f"spans for {row['events']} events")
        if row["overhead_ratio"] > bound:
            problems.append(f"{row['label']}: overhead "
                            f"{row['overhead_ratio']:.3f}x > {bound}x")
    return problems


# -- fig12 / fig13: the paper's figures ----------------------------------

PAPER_FIG12 = {"sizes": [500, 1000, 2000, 3000, 4000, 5000],
               "auctions": {"lp": 20, "hungarian": 100, "rh": 100,
                            "rhtalu": 100}, "repeats": 3}
PAPER_FIG13 = {"sizes": [2000, 6000, 10000, 14000, 20000],
               "auctions": {"rh": 200, "rhtalu": 1000}, "repeats": 3}
FIG12 = {False: PAPER_FIG12,
         True: {"sizes": [100, 300],
                "auctions": {"lp": 3, "hungarian": 5, "rh": 5,
                             "rhtalu": 5}, "repeats": 3}}
FIG13 = {False: PAPER_FIG13,
         True: {"sizes": [500, 2000], "auctions": {"rh": 10, "rhtalu": 30},
                "repeats": 3}}


def run_figure(axes: dict, quick: bool) -> dict:
    """Mean time per auction (and its phase split) per (n, method) —
    the paper's "average over N auctions" — as the median of
    ``repeats`` runs, each of a fresh engine doing the same work.  The
    repeats sweep the whole figure in turn, so a host stall reaches at
    most one repeat of any point."""
    points = [(n, method, auctions) for n in axes["sizes"]
              for method, auctions in axes["auctions"].items()]
    profiles = {point: [] for point in points}
    for _ in range(axes["repeats"]):
        for point in points:
            n, method, auctions = point
            engine = build_engine(method, n)
            engine.run(WARMUP)
            profiles[point].append(profile_run(engine, auctions)[1])
    rows = []
    for point in points:
        n, method, auctions = point
        runs = sorted(profiles[point],
                      key=lambda profile: profile.wall_seconds)
        median = runs[len(runs) // 2]
        rows.append({"n": n, "method": method,
                     "total_ms": 1e3 * median.wall_seconds / auctions,
                     "repeat_ms": [1e3 * profile.wall_seconds / auctions
                                   for profile in runs],
                     "phase_ms": median.phase_ms()})
    return entry(axes, quick, rows, ms_at_largest_n={
        row["method"]: row["total_ms"] for row in rows
        if row["n"] == axes["sizes"][-1]})


def ordering(result: dict, slow_to_fast: tuple[str, ...]) -> list[str]:
    """The figure's shape at its largest n, where asymptotics dominate."""
    if result["workload"]["quick"]:
        return []
    n = max(row["n"] for row in result["rows"])
    ms = {row["method"]: row["total_ms"] for row in result["rows"]
          if row["n"] == n}
    return [f"at n={n} {slow} {ms[slow]:.2f} ms < {fast} {ms[fast]:.2f} ms"
            for slow, fast in zip(slow_to_fast, slow_to_fast[1:])
            if ms[slow] < ms[fast]]


# -- the registry and the driver -----------------------------------------

class Cell(NamedTuple):
    run: Callable[[bool], dict]
    check: Callable[[dict], list[str]]


CELLS: dict[str, Cell] = {
    "batch": Cell(run_batch, check_batch),
    "shards": Cell(run_shards, check_shards),
    "stream-churn": Cell(run_stream_churn, check_stream_churn),
    "recovery": Cell(run_recovery, check_recovery),
    "supervision": Cell(run_supervision, check_supervision),
    "obs": Cell(run_obs, check_obs),
    "fig12": Cell(lambda quick: run_figure(FIG12[quick], quick),
                  lambda result: ordering(result,
                                          ("lp", "hungarian", "rh"))),
    "fig13": Cell(lambda quick: run_figure(FIG13[quick], quick),
                  lambda result: ordering(result, ("rh", "rhtalu"))),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("cells", nargs="*", metavar="CELL",
                        help=f"cells to run (default all): "
                             f"{', '.join(CELLS)}")
    parser.add_argument("--quick", action="store_true",
                        help="the small CI sizes; speed bars are skipped")
    parser.add_argument("--out", type=Path,
                        default=REPO / "BENCH_offline.json")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.cells) - set(CELLS))
    if unknown:
        parser.error(f"unknown cell(s): {', '.join(unknown)}")

    artifact = (json.loads(args.out.read_text(encoding="utf-8"))
                if args.out.exists() else {})
    args.out.parent.mkdir(parents=True, exist_ok=True)
    failed = False
    for name in args.cells or CELLS:
        start = time.perf_counter()
        cell = artifact[name] = CELLS[name].run(args.quick)
        problems = CELLS[name].check(cell)
        failed |= bool(problems)
        args.out.write_text(json.dumps(artifact, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
        print(f"{name:>12s}: {'FAIL' if problems else 'ok':4s} "
              f"{time.perf_counter() - start:6.1f}s  "
              f"{json.dumps(cell['summary'], sort_keys=True)}", flush=True)
        for problem in problems:
            print(f"{'':>12s}  {problem}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
