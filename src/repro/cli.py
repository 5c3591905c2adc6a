"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``
    Run the Section V workload through the auction engine and print a
    run summary (optionally writing a JSONL trace).
``validate``
    Self-check: solve random instances with every exact method and
    verify they agree (the Theorem 2 equivalence, as a smoke test).
``stream``
    Run the online serving layer: a deterministic event stream with
    live advertiser churn and budget-lifecycle enforcement through
    :class:`~repro.stream.service.OnlineAuctionService`, in-process
    or sharded (``--workers``), with optional snapshot/restore
    mid-stream.  ``--record-events`` / ``--trace`` journal a run, and
    ``--replay`` re-consumes a captured event log — the
    replay-verified-accounting workflow (``tools/trace_diff.py``
    diffs the traces; see ``docs/operations.md``).  ``--journal`` adds
    durability: every event is written to a write-ahead journal before
    application and fsync'd before it is acknowledged, with
    ``--checkpoint-every`` continuous checkpoints.
    ``--supervise`` arms worker supervision for sharded runs: a killed
    or hung shard worker (``--round-timeout``) is healed in place —
    respawned from the supervisor's retained capture, or, past
    ``--max-worker-restarts``, the fleet degrades to one fewer worker
    — with records bit-identical to an unfailed run.
``recover``
    Rebuild a crashed durable service from its journal and checkpoint
    directory: newest valid checkpoint (torn files skipped) plus
    journaled-suffix replay, optionally to a different ``--workers``
    count — the crash-recovery runbook in ``docs/operations.md``.
``serve``
    Put the online service on a TCP port (:mod:`repro.serve`): many
    concurrent client connections, an ingress sequencer stamping a
    total arrival order, auction results pushed back to the
    originating client.  Takes the same durability and observability
    knobs as ``stream`` (``--journal``, ``--checkpoint-every``,
    ``--metrics-out``, ...); ``--record-events`` writes the applied
    stream, which replays bit-identically offline through
    ``repro stream --replay`` (gate with ``tools/trace_diff.py``).
    SIGTERM drains in-flight connections, flushes everything, writes
    a final checkpoint, and exits 0.
``loadgen``
    Drive a live ``repro serve`` instance with the deterministic
    client fleet (:mod:`repro.workloads.loadgen`): N processes × M
    connections replaying a churn workload, round-trip latency
    percentiles and sustained events/sec reported (and optionally
    written as JSON).
``sql``
    Execute sqlmini statements from the command line or stdin — handy
    for exploring the bidding-program dialect.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.auction import summarize
    from repro.auction.trace import write_trace
    from repro.workloads import PaperWorkload, PaperWorkloadConfig

    config = PaperWorkloadConfig(
        num_advertisers=args.advertisers, num_slots=args.slots,
        num_keywords=args.keywords, seed=args.seed)
    if args.workers:
        from repro.runtime import ShardedAuctionRuntime

        with ShardedAuctionRuntime(
                config, method=args.method, workers=args.workers,
                engine_seed=args.seed + 1) as engine:
            records = engine.run_batch(args.auctions)
            accounts = engine.accounts
        print(f"sharded over {args.workers} worker processes "
              f"(shard sizes: {engine.plan.shard_sizes()})")
    else:
        workload = PaperWorkload(config)
        engine = workload.build_engine(args.method,
                                       engine_seed=args.seed + 1)
        records = (engine.run_batch(args.auctions) if args.batch
                   else engine.run(args.auctions))
        accounts = engine.accounts
    print(summarize(records))
    print(f"provider revenue: {accounts.provider_revenue:.2f} "
          f"over {accounts.total_clicks()} clicks")
    if args.trace:
        count = write_trace(args.trace, records)
        print(f"wrote {count} records to {args.trace}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core import determine_winners, results_agree
    from repro.probability import ConstantRatePurchaseModel
    from repro.workloads.generators import (
        random_bid_population,
        random_click_model,
    )

    rng = np.random.default_rng(args.seed)
    failures = 0
    for trial in range(args.trials):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        click_model = random_click_model(n, k, rng)
        purchase_model = ConstantRatePurchaseModel(n, k,
                                                   rate_given_click=0.2)
        tables = random_bid_population(n, rng)
        results = [determine_winners(tables, click_model, purchase_model,
                                     method=method)
                   for method in ("lp", "hungarian", "rh", "brute")]
        if not all(results_agree(results[0], other)
                   for other in results[1:]):
            failures += 1
            print(f"trial {trial}: METHOD DISAGREEMENT "
                  f"{[r.expected_revenue for r in results]}")
    verdict = "OK" if failures == 0 else f"{failures} FAILURES"
    print(f"validate: {args.trials} random instances, "
          f"4 methods each: {verdict}")
    return 1 if failures else 0


def _durability_flags_refused(args: argparse.Namespace) -> bool:
    """Whether the durability flags ``stream`` and ``serve`` share were
    misused (the reason is then on stderr; the command exits 2)."""
    if args.checkpoint_every and not args.checkpoint_dir:
        print("--checkpoint-every needs --checkpoint-dir",
              file=sys.stderr)
        return True
    if (args.checkpoint_every or args.checkpoint_dir) \
            and not args.journal:
        print("checkpoints need --journal (recovery replays the "
              "journaled suffix)", file=sys.stderr)
        return True
    return False


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.auction.trace import write_trace
    from repro.stream import EventLog, OnlineAuctionService
    from repro.workloads import (
        ChurnStreamConfig,
        PaperWorkload,
        PaperWorkloadConfig,
        generate_stream,
    )

    if _durability_flags_refused(args):
        return 2
    config = PaperWorkloadConfig(
        num_advertisers=args.advertisers, num_slots=args.slots,
        num_keywords=args.keywords, seed=args.seed)
    if args.replay:
        # Replay a captured event log instead of generating one: the
        # replay-verified-accounting workflow (docs/operations.md).
        # The stream is self-contained; the service knobs (method,
        # workers, seeds) must match the recording for the traces to
        # diff empty.
        stream = EventLog.from_jsonl(args.replay)
        print(f"replaying {len(stream)} events from {args.replay}")
    else:
        workload = PaperWorkload(config)
        genesis = args.genesis if args.genesis is not None \
            else max(args.advertisers // 2, 1)
        stream = generate_stream(workload, ChurnStreamConfig(
            num_events=args.events, churn_rate=args.churn_rate,
            genesis=genesis, min_active=args.min_active,
            budget_low=args.budget_low, budget_high=args.budget_high,
            seed=args.seed + 17))
    counts = stream.counts_by_kind()
    print(f"stream: {len(stream)} events "
          + " ".join(f"{kind}={count}"
                     for kind, count in sorted(counts.items())
                     if count))
    if args.record_events:
        stream.to_jsonl(args.record_events)
        print(f"event log written to {args.record_events}")

    if args.supervise and not args.workers:
        print("--supervise needs --workers >= 1 (the in-process "
              "backend has no worker fleet to supervise)",
              file=sys.stderr)
        return 2

    batching = None
    if args.batch_window:
        from repro.stream import BatchingConfig

        batching = BatchingConfig(
            window=args.batch_window,
            ingress_capacity=args.ingress_capacity,
            backpressure=args.backpressure,
            arrival_rate=args.arrival_rate)

    observability = None
    if args.metrics_out or args.trace_spans:
        if args.snapshot_at:
            # The snapshot/restore splice runs two services; their
            # sidecar files would overwrite each other and the span
            # seqs would restart mid-stream.
            print("--metrics-out/--trace-spans and --snapshot-at are "
                  "mutually exclusive (the snapshot splice runs two "
                  "services over one stream)", file=sys.stderr)
            return 2
        from repro.obs import ObservabilityConfig

        observability = ObservabilityConfig(
            metrics_out=args.metrics_out,
            trace_spans=args.trace_spans,
            snapshot_every=args.metrics_every)

    knobs = dict(method=args.method, maintenance=args.maintenance,
                 workers=args.workers, engine_seed=args.seed + 1,
                 supervise=args.supervise,
                 round_timeout=args.round_timeout,
                 max_worker_restarts=args.max_worker_restarts,
                 batching=batching, observability=observability)
    if args.journal:
        # Durable serving: journal-ahead every event, checkpoint on
        # the --checkpoint-every schedule; crash recovery is
        # `repro recover` (see the runbook in docs/operations.md).
        if args.snapshot_at:
            print("--snapshot-at and --journal are mutually "
                  "exclusive (continuous checkpoints subsume the "
                  "one-shot snapshot)", file=sys.stderr)
            return 2
        from repro.stream import DurableAuctionService

        served = DurableAuctionService.open(
            config, args.journal,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            checkpoint_retain=args.checkpoint_retain, **knobs)
        service = served.service
    else:
        served = service = OnlineAuctionService(config, **knobs)
    records, emitted, head_stats = [], 0, None
    try:
        if args.snapshot_at:
            records = served.run(stream.prefix(args.snapshot_at))
            stream = stream[args.snapshot_at:]
            snapshot = service.snapshot()
            head_stats, emitted = service.stats, len(service.emitted)
            if args.snapshot_file:
                snapshot.to_file(args.snapshot_file)
                print(f"snapshot written to {args.snapshot_file} "
                      f"after {args.snapshot_at} events")
            served.close()
            served = service = OnlineAuctionService.restore(snapshot)
            # Batching is a dispatch knob, not resumable state: the
            # snapshot doesn't carry it, so re-arm the resumed side.
            service.batching = batching
        records += served.run(stream)
        emitted += len(service.emitted)
        if head_stats is not None:
            # Per-event timings of the whole spliced run, not just
            # the post-restore tail.
            service.stats.absorb(head_stats)
            print("resumed from snapshot mid-stream")
        if args.journal:
            print(f"journal: {len(stream) + emitted} entries "
                  f"fsync'd to {args.journal}")
            if args.checkpoint_every:
                retained = served.checkpoints.checkpoint_files()
                print(f"checkpoints: every {args.checkpoint_every} "
                      f"events, {len(retained)} retained in "
                      f"{args.checkpoint_dir}")
        _print_stream_summary(args, service, records, emitted)
    finally:
        served.close()
    if args.trace:
        count = write_trace(args.trace, records)
        print(f"wrote {count} records to {args.trace}")
    return 0


def _print_stream_summary(args, service, records, emitted) -> None:
    accounts = service.accounts
    print(f"auctions: {len(records)}  "
          f"provider revenue: {accounts.provider_revenue:.2f} "
          f"over {accounts.total_clicks()} clicks  "
          f"active advertisers at end: "
          f"{len(service.active_advertisers())}")
    print(f"budget lifecycle: {emitted} pause/resume events emitted, "
          f"{len(service.paused_advertisers())} advertisers paused "
          f"at end")
    timing = service.stats.to_dict()
    for kind, cell in timing["by_kind"].items():
        print(f"  {kind:>6s}: {cell['count']:5d} events  "
              f"{cell['mean_ms']:8.3f} ms/event")
    mode = (f"{args.workers} workers" if args.workers
            else "in-process")
    print(f"maintenance={args.maintenance} ({mode})")
    batching = timing.get("batching")
    if batching:
        shed_total = sum(batching.get("shed", {}).values())
        print(f"batching: {batching.get('windows', 0)} windows, "
              f"mean {batching.get('mean_window', 0.0):.1f} "
              f"max {batching.get('max_window', 0)} queries/window, "
              f"{shed_total} events shed")
    supervision = timing.get("supervision")
    # The supervision block is always present (stable schema, zeros
    # when nothing failed); only print it when a worker actually
    # failed — a healthy run has no healing story to tell.
    if supervision and supervision.get("worker_failures"):
        print(f"supervision: {supervision['worker_failures']} worker "
              f"failures healed ({supervision['respawns']} respawns, "
              f"{supervision['reshards']} re-shards, "
              f"{supervision['timeouts']} timeouts) "
              f"mean heal {1e3 * supervision['mean_heal_seconds']:.1f} "
              f"ms")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out} "
              f"(inspect: repro obs report --metrics "
              f"{args.metrics_out})")
    if args.trace_spans:
        print(f"span trace written to {args.trace_spans} "
              f"(inspect: repro obs report --trace "
              f"{args.trace_spans})")


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import render_report

    if not args.metrics and not args.trace:
        print("obs report needs --metrics and/or --trace",
              file=sys.stderr)
        return 2
    try:
        lines = render_report(metrics_path=args.metrics,
                              trace_path=args.trace, top=args.top)
    except (OSError, ValueError) as error:
        print(f"obs report failed: {error}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.auction.trace import write_trace
    from repro.stream import EventLog, RecoveryError, recover

    try:
        result = recover(args.journal,
                         checkpoint_dir=args.checkpoint_dir,
                         workers=args.workers)
    except (RecoveryError, ValueError, OSError) as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return 1
    if result.checkpoint_path is not None:
        print(f"checkpoint: {result.checkpoint_path} "
              f"(watermark {result.checkpoint_events})")
    else:
        print("checkpoint: none — rebuilt from the journal header's "
              "genesis config")
    if result.checkpoints_skipped:
        print(f"skipped {result.checkpoints_skipped} torn/invalid "
              f"checkpoint file(s): "
              + ", ".join(path.name
                          for path in result.skipped_paths))
    print(f"journal: replayed {result.replayed_events} entries"
          + (" (torn tail dropped)" if result.torn_tail else ""))
    print(f"verified {result.verified_emissions} journaled "
          f"service emissions against replay")
    print(f"recovered watermark: {result.events_processed} events, "
          f"{result.service.auctions_run} auctions, "
          f"provider revenue "
          f"{result.service.accounts.provider_revenue:.2f}")
    records = list(result.records)
    if args.resume_events:
        # Finish the stream from a recorded event log: everything at
        # or past the recovered watermark is still unapplied.
        remaining = EventLog.from_jsonl(
            args.resume_events)[result.events_processed:]
        records += result.service.run(remaining)
        print(f"resumed {len(remaining)} remaining events from "
              f"{args.resume_events}")
    result.service.close()
    print(f"auctions recovered+resumed: {len(records)}")
    if args.trace:
        count = write_trace(args.trace, records)
        print(f"wrote {count} records to {args.trace} "
              f"(audit: tools/trace_diff.py --align against the "
              f"uninterrupted trace)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, run_server

    if _durability_flags_refused(args):
        return 2
    # Every ServeConfig field that has a flag is that flag's dest.
    return run_server(ServeConfig(**{
        field.name: getattr(args, field.name)
        for field in fields(ServeConfig)
        if hasattr(args, field.name)}))


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as json_module
    import time as time_module

    from repro.workloads import (
        LoadgenConfig,
        PaperWorkloadConfig,
        plan_fleet,
        run_fleet,
    )

    port = args.port
    if args.port_file:
        deadline = time_module.monotonic() + args.wait
        while time_module.monotonic() < deadline:
            try:
                text = open(args.port_file).read().strip()
            except OSError:
                text = ""
            if text:
                port = int(text)
                break
            time_module.sleep(0.05)
    if not port:
        print("loadgen needs --port or a --port-file that appears "
              "within --wait seconds", file=sys.stderr)
        return 2
    workload_config = PaperWorkloadConfig(
        num_advertisers=args.advertisers, num_slots=args.slots,
        num_keywords=args.keywords, seed=args.seed)
    plan = plan_fleet(workload_config, LoadgenConfig(
        events=args.events, churn_rate=args.churn_rate,
        genesis=args.genesis, min_active=args.min_active,
        budget_low=args.budget_low, budget_high=args.budget_high,
        seed=args.seed, processes=args.processes,
        connections=args.connections, consoles=args.consoles))
    print(f"loadgen: {plan.total_events} events "
          f"({len(plan.genesis)} genesis) over "
          f"{args.processes} processes x {args.connections} query "
          f"connections + {args.consoles} consoles "
          f"-> {args.host}:{port}")
    report = run_fleet(args.host, port, plan,
                       processes=args.processes, timeout=args.wait)
    summary = report.to_dict()
    print(f"loadgen: {summary['submitted']} submitted, "
          f"{summary['results']} results, {summary['oks']} acks, "
          f"{summary['errors']} errors in "
          f"{summary['wall_seconds']:.2f}s "
          f"({summary['events_per_second']:.1f} events/s)")
    print(f"loadgen: round-trip p50 {summary['p50_ms']:.2f} ms  "
          f"p99 {summary['p99_ms']:.2f} ms")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json_module.dump(summary, handle, indent=2,
                             sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")
    return 1 if summary["errors"] else 0


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro.sqlmini import Database, SelectResult, SqlError

    database = Database()
    source = " ".join(args.statements) if args.statements \
        else sys.stdin.read()
    try:
        from repro.sqlmini.parser import parse_script
        script = parse_script(source)
        for statement in script.statements:
            result = database.execute(statement)
            if isinstance(result, SelectResult):
                print("\t".join(result.columns))
                for row in result.rows:
                    print("\t".join("NULL" if value is None else str(value)
                                    for value in row))
            elif isinstance(result, int):
                print(f"-- {result} row(s) affected")
    except SqlError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _add_service_flags(parser: argparse.ArgumentParser,
                       ingress_capacity: int) -> None:
    """The flags ``stream`` and ``serve`` share — the service both
    commands build.  ``ingress_capacity`` is the one default that
    differs between them."""
    add = parser.add_argument
    add("--advertisers", type=int, default=200,
        help="universe capacity (ids join/leave within it)")
    add("--slots", type=int, default=15)
    add("--keywords", type=int, default=10)
    add("--method", default="rh",
        choices=["lp", "hungarian", "rh", "rhtalu"])
    add("--maintenance", default="incremental",
        choices=["incremental", "rebuild"])
    add("--workers", type=int, default=0,
        help="shard the service over this many worker processes "
             "(0 = in-process)")
    add("--seed", type=int, default=0,
        help="engine seed is seed+1 (one convention for stream and "
             "serve, so offline replays match)")
    add("--batch-window", type=int, default=0, metavar="N",
        help="coalesce up to N consecutive query arrivals per "
             "dispatch (adaptive: never waits for a window to fill; "
             "control events flush it; 0 = unbatched). Records stay "
             "bit-identical to the unbatched service")
    add("--ingress-capacity", type=int, default=ingress_capacity,
        metavar="N",
        help="bound on the ingress queue. `stream` (with "
             "--batch-window): admission beyond it applies "
             "--backpressure. `serve`: a full queue blocks the "
             "submitting connection's reads (TCP backpressure)")
    add("--record-events", default=None, metavar="FILE",
        help="write the consumed event stream as JSONL (replayable "
             "via `repro stream --replay`; `serve` writes it at "
             "shutdown)")
    add("--trace", default=None, metavar="FILE",
        help="write the auction records as a JSONL trace (diffable "
             "via tools/trace_diff.py; `serve` writes it at shutdown)")
    add("--journal", default=None, metavar="FILE",
        help="serve durably: write every event to this write-ahead "
             "journal before applying it, fsync before it is "
             "acknowledged (recoverable via `repro recover`)")
    add("--checkpoint-every", type=int, default=0, metavar="N",
        help="with --journal: write a checkpoint every N applied "
             "events (0 = journal only; `serve` always writes a "
             "final one at shutdown)")
    add("--checkpoint-dir", default=None, metavar="DIR",
        help="directory for checkpoint files (required by "
             "--checkpoint-every)")
    add("--checkpoint-retain", type=int, default=2, metavar="K",
        help="keep the newest K checkpoints (default 2: survives one "
             "torn file)")
    add("--metrics-out", default=None, metavar="FILE",
        help="write a JSONL metrics sidecar here (periodic snapshots "
             "+ a final summary; inspect with `repro obs report`). "
             "Observability is sidecar-only: the auction trace stays "
             "bit-identical")
    add("--trace-spans", default=None, metavar="FILE",
        help="write a JSONL span trace here (one span tree per "
             "applied event, ids derived from event seq)")
    add("--metrics-every", type=int, default=100, metavar="N",
        help="with --metrics-out: snapshot the metrics every N "
             "applied events (0 = summary only; default 100)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Expressive and scalable sponsored-search auctions "
                    "(Martin, Gehrke & Halpern, ICDE 2008)")
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="attach a structured handler to the "
                             "repro.* logging namespace at this level "
                             "(place before the subcommand)")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="run the Section V workload")
    simulate.add_argument("--advertisers", type=int, default=200)
    simulate.add_argument("--auctions", type=int, default=200)
    simulate.add_argument("--slots", type=int, default=15)
    simulate.add_argument("--keywords", type=int, default=10)
    simulate.add_argument("--method", default="rh",
                          choices=["lp", "hungarian", "rh", "rhtalu"])
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--trace", default=None,
                          help="write a JSONL auction trace here")
    simulate.add_argument("--batch", action="store_true",
                          help="run through the batched pipeline")
    simulate.add_argument("--workers", type=int, default=0,
                          help="shard the population over this many "
                               "worker processes (0 = in-process)")
    simulate.set_defaults(func=_cmd_simulate)

    stream = commands.add_parser(
        "stream",
        help="online serving: event stream with live advertiser churn")
    _add_service_flags(stream, ingress_capacity=64)
    stream.add_argument("--events", type=int, default=400,
                        help="post-genesis stream length")
    stream.add_argument("--churn-rate", type=float, default=0.1)
    stream.add_argument("--genesis", type=int, default=None,
                        help="initial advertisers (default: half the "
                             "universe)")
    stream.add_argument("--min-active", type=int, default=2)
    stream.add_argument("--budget-low", type=float, default=50.0,
                        help="lower bound of generated join budgets "
                             "(low budgets exercise exhaustion "
                             "pausing; 0 0 disables tracking)")
    stream.add_argument("--budget-high", type=float, default=500.0,
                        help="upper bound of generated join budgets")
    stream.add_argument("--snapshot-at", type=int, default=0,
                        help="snapshot after this many events, then "
                             "restore and finish the stream")
    stream.add_argument("--snapshot-file", default=None,
                        help="also write the snapshot JSON here")
    stream.add_argument("--replay", default=None, metavar="FILE",
                        help="consume a captured JSONL event log "
                             "instead of generating a stream (the "
                             "replay-verification workflow; service "
                             "knobs must match the recording)")
    stream.add_argument("--supervise", action="store_true",
                        help="with --workers: heal worker failures "
                             "in place (respawn the shard from the "
                             "supervisor's retained capture; after "
                             "--max-worker-restarts, degrade to one "
                             "fewer worker) instead of dying")
    stream.add_argument("--round-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="treat a shard whose reply is this late "
                             "as hung and heal it (default: wait "
                             "forever on a live worker)")
    stream.add_argument("--max-worker-restarts", type=int, default=1,
                        metavar="N",
                        help="per-shard respawn budget before the "
                             "fleet degrades by re-sharding over one "
                             "fewer worker (default 1)")
    stream.add_argument("--backpressure", default="delay",
                        choices=["delay", "shed"],
                        help="full-queue policy: delay (arrivals "
                             "wait upstream; lossless) or shed "
                             "(drop queries, never control events; "
                             "sheds are counted in the timing stats)")
    stream.add_argument("--arrival-rate", type=float, default=1.0,
                        metavar="R",
                        help="with --backpressure shed: simulated "
                             "arrivals per serviced event (> 1 "
                             "saturates the queue and sheds)")
    stream.set_defaults(func=_cmd_stream)

    recover = commands.add_parser(
        "recover",
        help="rebuild a crashed durable stream service: newest valid "
             "checkpoint + journaled-suffix replay")
    recover.add_argument("--journal", required=True, metavar="FILE",
                         help="the crashed run's write-ahead journal")
    recover.add_argument("--checkpoint-dir", default=None,
                         metavar="DIR",
                         help="the crashed run's checkpoint "
                              "directory (omit to replay the whole "
                              "journal from genesis)")
    recover.add_argument("--workers", type=int, default=None,
                         help="worker count for the recovered "
                              "service (default: the crashed run's; "
                              "captures are global, any count "
                              "replays identically)")
    recover.add_argument("--resume-events", default=None,
                         metavar="FILE",
                         help="after recovery, finish the stream "
                              "from this recorded event log "
                              "(events at/past the recovered "
                              "watermark)")
    recover.add_argument("--trace", default=None, metavar="FILE",
                         help="write recovered (+resumed) auction "
                              "records as a JSONL trace for "
                              "trace_diff auditing")
    recover.set_defaults(func=_cmd_recover)

    serve = commands.add_parser(
        "serve",
        help="serve the online auction service on a TCP port "
             "(length-prefixed JSON wire protocol; SIGTERM drains "
             "and exits 0)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 = let the OS pick (see --port-file)")
    serve.add_argument("--port-file", default=None, metavar="FILE",
                       help="write the bound port here once "
                            "listening (how scripted clients find "
                            "an --port 0 server)")
    _add_service_flags(serve, ingress_capacity=256)
    serve.set_defaults(func=_cmd_serve)

    loadgen = commands.add_parser(
        "loadgen",
        help="drive a live `repro serve` with the deterministic "
             "client fleet (N processes x M connections of churn)")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=0)
    loadgen.add_argument("--port-file", default=None, metavar="FILE",
                         help="poll this file for the server's port "
                              "(written by `repro serve "
                              "--port-file`)")
    loadgen.add_argument("--wait", type=float, default=30.0,
                         metavar="SECONDS",
                         help="how long to wait for the port file "
                              "and for replies (default 30)")
    loadgen.add_argument("--advertisers", type=int, default=200,
                         help="must match the server's universe")
    loadgen.add_argument("--slots", type=int, default=15)
    loadgen.add_argument("--keywords", type=int, default=10)
    loadgen.add_argument("--seed", type=int, default=0,
                         help="fixed seed -> identical fleet scripts "
                              "(the plan is deterministic)")
    loadgen.add_argument("--events", type=int, default=400,
                         help="post-genesis stream length")
    loadgen.add_argument("--churn-rate", type=float, default=0.2)
    loadgen.add_argument("--genesis", type=int, default=None)
    loadgen.add_argument("--min-active", type=int, default=2)
    loadgen.add_argument("--budget-low", type=float, default=50.0)
    loadgen.add_argument("--budget-high", type=float, default=500.0)
    loadgen.add_argument("--processes", type=int, default=2,
                         help="fleet worker processes")
    loadgen.add_argument("--connections", type=int, default=2,
                         help="query connections per process")
    loadgen.add_argument("--consoles", type=int, default=2,
                         help="advertiser-console connections")
    loadgen.add_argument("--out", default=None, metavar="FILE",
                         help="write the latency/throughput report "
                              "as JSON")
    loadgen.set_defaults(func=_cmd_loadgen)

    validate = commands.add_parser(
        "validate", help="cross-method agreement self-check")
    validate.add_argument("--trials", type=int, default=25)
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(func=_cmd_validate)

    sql = commands.add_parser(
        "sql", help="execute sqlmini statements (args or stdin)")
    sql.add_argument("statements", nargs="*",
                     help="SQL text; omit to read stdin")
    sql.set_defaults(func=_cmd_sql)

    obs = commands.add_parser(
        "obs",
        help="inspect observability sidecars written by "
             "`repro stream`")
    obs_commands = obs.add_subparsers(dest="obs_command",
                                      required=True)
    report = obs_commands.add_parser(
        "report",
        help="render a human-readable report from a metrics and/or "
             "span-trace sidecar")
    report.add_argument("--metrics", default=None, metavar="FILE",
                        help="a --metrics-out JSONL sidecar")
    report.add_argument("--trace", default=None, metavar="FILE",
                        help="a --trace-spans JSONL sidecar")
    report.add_argument("--top", type=int, default=5, metavar="N",
                        help="how many slowest events to list "
                             "(default 5)")
    report.set_defaults(func=_cmd_obs_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        from repro.obs import configure_logging

        configure_logging(args.log_level)
    return args.func(args)
