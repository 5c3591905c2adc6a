#!/usr/bin/env python3
"""The served-path benchmark: one command, every metric by name.

::

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --repeat 3 --out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --plan-only --seed 7
    python3 benchmarks/e2e/run.py --quick
    python3 benchmarks/e2e/run.py --workload rhtalu-n8000 \\
        --seed 3 --seconds 15 --trace 0                # one run

For each workload it boots a real ``repro serve`` subprocess, drives
it over TCP from this one process (:mod:`wireload`: bootstrap, paced
open loop, flood), SIGTERMs it, and audits the run.  ``--trace 0``
(dark server) yields the end-to-end metrics; ``--trace 1`` runs the
same scripts against a server with both observability sidecars on and
yields the per-layer metrics (:mod:`layers`).  With ``--workload`` the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; without it the
report covers all four workloads, dark runs first (``--repeat`` times,
seed, seed+1, ...), then one traced run each, and ends with
``"claim": null`` — this harness measures, it claims nothing.

See README.md for the metric glossary and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT} has no src/repro: nothing to serve")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import compare as compare_module  # noqa: E402
import layers  # noqa: E402
import wireload  # noqa: E402
from served import (  # noqa: E402
    CPUS,
    Server,
    audit_recovery,
    audit_replay,
    pin_generator,
)
from workloads import BY_NAME, WORKLOADS, build_plan  # noqa: E402

RUN_SECONDS = 15
"""``run_seconds`` of BENCHMARK.json: the driver's time cap fits 92
runs of this length with their set-up and audits (README, "Budget")."""
QUICK_SECONDS = 1.0
QUICK_DIVISOR = 10

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("control_p50_ms", "ms", "lower", 0.25),
    ("peak_eps", "events/s", "higher", 0.25),
    ("server_rss_mb", "MB", "lower", 0.05),
)
"""Bounds are what this host can hold, not what one would like.  In a
calm phase ten seeds spread 3-7 % (inter-quartile, share of median) on
the latency medians and ``peak_eps``, but the host's speed shifts by
20-30 % for tens of minutes at a time, and the medians of two sets of
ten runs then differ by that much (README, "Bounds").  Tail
percentiles spread 20 % and more on the n=8000 workloads even when
calm, so p95, p99 and max are reported per layer
(``loadgen.query_*``), ungated."""


# -- one server, one session -----------------------------------------------

def serve_and_drive(workload, seed, workdir, label, plan, *,
                    sidecars=False, **options):
    """Boot a server, run a client session against it (``options``
    go to :func:`wireload.run_session`), SIGTERM it.  Returns
    ``(server, session, peak rss MB, exit code)``."""
    server = Server(workload, seed, workdir, label, sidecars=sidecars)
    try:
        port = server.wait_port()
        session = wireload.run(
            wireload.run_session(port, plan, **options))
        rss = server.rss_mb()
    except BaseException:
        server.kill()
        raise
    return server, session, rss, server.stop()


# -- the dark run: end-to-end metrics --------------------------------------

def run_dark(workload, seed, seconds, workdir) -> dict:
    plan = build_plan(workload, seed, seconds)
    setups = []
    failed = 0
    for index in range(workload.setup_repeats - 1):
        server, session, _, code = serve_and_drive(
            workload, seed, workdir, f"setup{index}", plan,
            phases=False)
        setups.append(session.ready - server.spawned)
        failed += session.unanswered(plan.genesis) + (code != 0)
    server, session, rss, code = serve_and_drive(
        workload, seed, workdir, "main", plan)
    setups.append(session.ready - server.spawned)
    failed += session.unanswered() + (code != 0)

    audit = {"server_exit": code, "replay_identical": audit_replay(server)}
    failed += not audit["replay_identical"]
    if workload.durable:
        audit["recovery_equal"], _ = audit_recovery(server)
        failed += not audit["recovery_equal"]

    queries = session.paced_ms(queries=True)
    controls = session.paced_ms(queries=False)
    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": statistics.median(queries),
        "control_p50_ms": statistics.median(controls),
        "peak_eps": session.flood_eps(),
        "server_rss_mb": rss,
    }
    attempted = len(plan.frames) \
        + (workload.setup_repeats - 1) * len(plan.genesis)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": int(failed), "metrics": metrics, "audit": audit,
            "samples": {"query": len(queries),
                        "control": len(controls),
                        "flood": len(plan.flood)},
            "plan_sha256": plan.digest()}


# -- the traced run: per-layer metrics -------------------------------------

def run_traced(workload, seed, seconds, workdir) -> dict:
    from repro.auction.trace import record_from_dict
    from repro.stream.events import EventLog
    from repro.stream.replay import diff_traces

    plan = build_plan(workload, seed, seconds)
    server, session, _, code = serve_and_drive(
        workload, seed, workdir, "traced", plan, sidecars=True)
    _, dark, _, dark_code = serve_and_drive(
        workload, seed, workdir, "dark", plan, paced=False)
    failed = session.unanswered() + (code != 0) \
        + dark.unanswered() + (dark_code != 0)

    sidecars = layers.Sidecars(server.path("metrics.jsonl"),
                               server.path("spans.jsonl"))
    recorder = layers.SpanRecorder()
    events = list(EventLog.from_jsonl(server.path("events.jsonl")))
    replayed = layers.replay(workload, seed, events, len(plan.genesis),
                             workdir, recorder)
    recorder.dump(workdir / "harness-spans.jsonl")

    # The replay doubles as this run's audit: the records the clients
    # were sent, in the order the server applied them, must be the
    # records the same stream produces in process.
    live = sorted((reply["seq"], reply["record"])
                  for reply in session.replies.values()
                  if reply.get("type") == "result")
    identical = diff_traces(
        [record_from_dict(record) for _, record in live],
        replayed["records"]).identical
    audit = {"server_exit": code, "replay_identical": identical}
    failed += not identical
    recover_s = 0.0
    if workload.durable:
        audit["recovery_equal"], recover_s = audit_recovery(server)
        failed += not audit["recovery_equal"]

    metrics = layers.assemble(workload, plan, session, dark, sidecars,
                              recorder, replayed, server, recover_s)
    return {"correct": failed == 0,
            "attempted": 2 * len(plan.frames), "failed": int(failed),
            "metrics": metrics, "audit": audit,
            "plan_sha256": plan.digest()}


# -- running, reporting ----------------------------------------------------

def measure(workload, seed: int, seconds: float, traced: bool,
            keep_work: bool = False) -> dict:
    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = run_traced if traced else run_dark
        return runner(workload, seed, seconds, workdir)
    finally:
        if not keep_work:
            shutil.rmtree(workdir, ignore_errors=True)
            if not any(workdir.parent.iterdir()):
                workdir.parent.rmdir()


def driver_line(result: dict, table: tuple) -> str:
    """The one-line JSON object the driver reads.  Every value is a
    number: a per-layer source that has gone missing was warned about
    on stderr and reads 0 here."""
    metrics = {}
    for name, unit, *_ in table:
        value = result["metrics"][name]
        metrics[name] = {"value": 0 if value is None else value,
                         "unit": unit}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def host_info() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": len(CPUS), "python": platform.python_version(),
            "numpy": np.__version__, "git_commit": commit,
            "loadavg_1m_start": os.getloadavg()[0]}


def full_report(args) -> dict:
    host = host_info()
    workloads = [w.scaled(QUICK_DIVISOR) for w in WORKLOADS] \
        if args.quick else WORKLOADS
    seconds = QUICK_SECONDS if args.quick else args.seconds
    cells = {}
    ok = True
    for workload in workloads:
        print(f"== {workload.name}: {workload.why}")
        dark = [measure(workload, args.seed + index, seconds, False,
                        args.keep_work)
                for index in range(args.repeat)]
        traced = measure(workload, args.seed, seconds, True,
                         args.keep_work)
        runs = [*dark, traced]
        ok = ok and all(run["correct"] for run in runs)
        end_to_end = {}
        for name, unit, better, bound in END_TO_END:
            values = [run["metrics"][name] for run in dark]
            end_to_end[name] = {
                "unit": unit, "better": better, "bound": bound,
                "values": values, "median": statistics.median(values)}
            print(f"  {name:<34} {statistics.median(values):>12.4f} "
                  f"{unit}")
        share = sum(run["failed"] for run in runs) \
            / sum(run["attempted"] for run in runs)
        print(f"  {'failed_share':<34} {share:>12.6f} share")
        for name, unit, _ in layers.PER_LAYER:
            value = traced["metrics"][name]
            shown = "null" if value is None else f"{value:12.4f}"
            print(f"  {name:<34} {shown:>12} {unit}")
        print(f"  audits: dark {dark[0]['audit']} "
              f"traced {traced['audit']}")
        cells[workload.name] = {
            "why": workload.why, "end_to_end": end_to_end,
            "failed_share": share,
            "samples": dark[0]["samples"],
            "audits": [run["audit"] for run in runs],
            "plan_sha256": [run["plan_sha256"] for run in dark],
            "per_layer": {name: {"value": traced["metrics"][name],
                                 "unit": unit}
                          for name, unit, _ in layers.PER_LAYER}}
    host["loadavg_1m_end"] = os.getloadavg()[0]
    # Only the start counts: by the end the benchmark's own servers
    # (coordinator + 2 workers + generator on the sharded workload)
    # have pushed the average past nproc themselves.
    host["noisy"] = host["loadavg_1m_start"] > host["nproc"]
    return {"benchmark": "served-path e2e", "host": host,
            "quick": args.quick, "seed": args.seed, "seconds": seconds,
            "repeat": args.repeat, "load": "one process, two "
            "pipelined connections (query, console), open loop",
            "workloads": cells, "correct": ok, "claim": None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run this one workload once and print "
                             "the driver's one-line JSON result")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured seconds per run (paced + flood)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = dark run, "
                             "end-to-end metrics; 1 = traced run, "
                             "per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="dark runs per workload (seed, seed+1, ..)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: populations / 10, 1 s "
                             "phases; refused by --compare")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full report as JSON")
    parser.add_argument("--plan-only", action="store_true",
                        help="print each workload's plan digest")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out reports")
    parser.add_argument("--keep-work", action="store_true",
                        help="keep .bench_work/ (logs, traces, spans)")
    args = parser.parse_args(argv)

    if args.compare:
        rows, ok = compare_module.compare(*args.compare)
        print(compare_module.render(rows))
        return 0 if ok else 1
    if args.plan_only:
        for workload in WORKLOADS:
            plan = build_plan(workload, args.seed, args.seconds)
            print(f"{workload.name} seed={args.seed} "
                  f"requests={len(plan.frames)} "
                  f"sha256={plan.digest()}")
        return 0

    pin_generator()
    if args.workload:
        start = perf_counter()
        result = measure(BY_NAME[args.workload], args.seed,
                         args.seconds, bool(args.trace), args.keep_work)
        print(f"{args.workload} seed={args.seed} "
              f"trace={args.trace} audits={result['audit']} "
              f"wall={perf_counter() - start:.1f}s")
        print(driver_line(result, layers.PER_LAYER if args.trace
                          else END_TO_END))
        return 0 if result["correct"] else 1
    report = full_report(args)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                                  encoding="utf-8")
    print(json.dumps({key: report[key] for key in
                      ("host", "quick", "correct", "claim")}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
