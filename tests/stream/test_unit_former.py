"""One unit former: :func:`~repro.stream.batching.take_unit` is the
rule the wire server, :class:`~repro.stream.batching.MicroBatcher` and
:meth:`~repro.stream.service.OnlineAuctionService.run` (hence
:func:`~repro.stream.recovery.recover`) all window by.

* the rule itself: joins always window, queries only with a window of
  at least 2, and a run ends at another kind, a refused event, a
  repeated join id or the cap — never by waiting;
* the micro-batcher yields join runs as lists, capped at its
  ``ingress_capacity``, while its query counters ignore them;
* a journal written with windowed join runs recovers — journal-only
  and from checkpoints cut inside the runs — to exactly what a
  per-event ``process`` replay of the same inputs produces;
* ``run()`` and ``recover()`` issue one backend ``join`` per join run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.stream import (
    BatchingConfig,
    DurableAuctionService,
    MicroBatcher,
    OnlineAuctionService,
    recover,
)
from repro.stream.batching import take_unit
from repro.stream.events import (
    AdvertiserJoin,
    AdvertiserLeave,
    BudgetTopUp,
    QueryArrival,
)
from repro.stream.journal import scan_journal
from repro.stream.replay import diff_traces
from repro.workloads import PaperWorkload, PaperWorkloadConfig

CONFIG = PaperWorkloadConfig(num_advertisers=30, num_slots=3,
                             num_keywords=3, seed=7)
WORKLOAD = PaperWorkload(CONFIG)
ENGINE_SEED = 4


def join(advertiser: int, budget: float = 5.0) -> AdvertiserJoin:
    targets, bids, maxbids, values = WORKLOAD.pacer_rows(
        advertiser, advertiser + 1)
    return AdvertiserJoin(
        advertiser=advertiser, target=float(targets[0]),
        bids=tuple(bids[0].tolist()), maxbids=tuple(maxbids[0].tolist()),
        values=tuple(values[0].tolist()), budget=budget)


def query(index: int = 0) -> QueryArrival:
    return QueryArrival(WORKLOAD.keywords[index % len(WORKLOAD.keywords)])


def admit_all(event):
    return None


def puller(items):
    queue = list(items)
    return lambda: queue.pop(0) if queue else None


class TestTakeUnit:
    def test_join_run_ends_at_another_kind(self):
        unit, ended = take_unit(join(0), puller([join(1), query(),
                                                 join(2)]), 0,
                                check=admit_all)
        assert unit == [join(0), join(1)]
        assert ended == query()

    def test_repeated_join_id_ends_the_run(self):
        unit, ended = take_unit(join(0), puller([join(1), join(0)]), 0,
                                check=admit_all)
        assert unit == [join(0), join(1)]
        assert ended == join(0)

    def test_refused_event_ends_the_run(self):
        def check(event):
            return KeyError("no") if event.advertiser == 2 else None

        unit, ended = take_unit(join(0), puller([join(1), join(2)]), 0,
                                check=check)
        assert unit == [join(0), join(1)]
        assert ended == join(2)

    def test_cap_bounds_a_join_run(self):
        pull = puller([join(i) for i in range(1, 5)])
        unit, ended = take_unit(join(0), pull, 0, cap=3,
                                check=admit_all)
        assert unit == [join(0), join(1), join(2)]
        assert ended is None and pull() == join(3)

    @pytest.mark.parametrize("window", [0, 1])
    def test_queries_apply_alone_below_window_two(self, window):
        pull = puller([query(1)])
        unit, ended = take_unit(query(0), pull, window)
        assert unit == query(0) and ended is None
        assert pull() == query(1)  # nothing was pulled

    def test_query_run_capped_at_window(self):
        pull = puller([query(i) for i in range(1, 6)])
        unit, ended = take_unit(query(0), pull, 3, cap=100)
        assert unit == [query(0), query(1), query(2)]
        assert ended is None

    def test_never_waits_for_a_unit_to_fill(self):
        unit, ended = take_unit(join(0), puller([]), 0, cap=64,
                                check=admit_all)
        assert unit == [join(0)] and ended is None

    @pytest.mark.parametrize("cap", [1, 64])
    def test_joins_apply_alone_without_check_or_below_cap_two(self,
                                                               cap):
        pull = puller([join(1)])
        check = admit_all if cap == 1 else None
        unit, ended = take_unit(join(0), pull, 8, cap=cap, check=check)
        assert unit == join(0) and ended is None
        assert pull() == join(1)

    def test_other_controls_apply_alone(self):
        leave = AdvertiserLeave(advertiser=3)
        unit, ended = take_unit(leave, puller([leave]), 8, cap=8)
        assert unit == leave and ended is None

    def test_reads_events_through_event_of(self):
        wrapped = [("a", join(0)), ("b", join(1)), ("c", query())]
        unit, ended = take_unit(wrapped[0], puller(wrapped[1:]), 0,
                                check=admit_all,
                                event_of=lambda item: item[1])
        assert unit == wrapped[:2] and ended == wrapped[2]


class TestMicroBatcherJoinRuns:
    def test_join_runs_come_out_as_lists(self):
        events = [join(0), join(1), join(2), query(0), query(1),
                  join(3), join(4)]
        batcher = MicroBatcher(BatchingConfig(window=4), check=admit_all)
        assert list(batcher.units(events)) == [
            events[:3], events[3:5], events[5:]]

    def test_duplicate_id_or_other_kind_ends_a_run(self):
        leave = AdvertiserLeave(advertiser=5)
        topup = BudgetTopUp(advertiser=1, amount=2.0)
        events = [join(0), join(1), join(0), join(2), leave, join(3),
                  topup, join(4)]
        batcher = MicroBatcher(BatchingConfig(window=4), check=admit_all)
        assert list(batcher.units(events)) == [
            [join(0), join(1)], [join(0), join(2)], leave, [join(3)],
            topup, [join(4)]]

    def test_runs_capped_at_ingress_capacity(self):
        events = [join(i) for i in range(7)]
        batcher = MicroBatcher(BatchingConfig(window=16,
                                              ingress_capacity=3),
                               check=admit_all)
        units = list(batcher.units(events))
        assert [len(unit) for unit in units] == [3, 3, 1]
        assert [event for unit in units for event in unit] == events

    def test_window_one_still_windows_joins(self):
        events = [join(0), join(1), query(0), query(1)]
        batcher = MicroBatcher(BatchingConfig(window=1),
                               check=admit_all)
        assert list(batcher.units(events)) == [
            events[:2], query(0), query(1)]
        assert batcher.windows == 0

    def test_query_counters_ignore_join_windows(self):
        events = [join(0), join(1), query(0), query(1), join(2),
                  join(3), join(4), query(2)]
        metrics = MetricsRegistry()
        batcher = MicroBatcher(BatchingConfig(window=8),
                               metrics=metrics, track_waits=True,
                               check=admit_all)
        sizes = []
        for unit in batcher.units(events):
            sizes.append(len(unit))
            assert len(batcher.last_waits) == len(unit)
        assert sizes == [2, 2, 3, 1]
        assert batcher.windows == 2
        assert batcher.batched_queries == 3
        assert batcher.max_window == 2
        counters = metrics.to_dict()["counters"]
        assert counters["batch.windows"] == 2
        assert counters["batch.batched_queries"] == 3
        assert metrics.histogram("latency.ingress_wait").count \
            == len(events)

    def test_without_check_joins_come_out_alone(self):
        """A batcher that does not know the service's admission rule
        cannot cut a join run at a refused join, so it does not window
        joins: callers that apply each list unit as a query window
        keep working."""
        events = [join(0), join(1), query(0), query(1)]
        batcher = MicroBatcher(BatchingConfig(window=4))
        assert list(batcher.units(events)) == [
            join(0), join(1), events[2:]]

    def test_refused_join_ends_a_run(self):
        events = [join(0), join(1), join(2), join(3)]
        batcher = MicroBatcher(
            BatchingConfig(window=4),
            check=lambda event: KeyError("refused")
            if event.advertiser == 2 else None)
        units = list(batcher.units(events))
        assert units[0] == events[:2]
        assert units[1][0] == events[2]  # the next unit's head

    def test_batched_service_counts_query_windows_only(self):
        events = stream()
        with OnlineAuctionService(CONFIG, engine_seed=ENGINE_SEED,
                                  batching=BatchingConfig(window=8)
                                  ) as service:
            service.run(events)
            batching = service.stats.to_dict()["batching"]
            batcher = service.last_batcher
        queries = sum(isinstance(event, QueryArrival) for event in events)
        assert batcher.batched_queries == batching["batched_events"] \
            == queries
        assert batcher.windows == batching["windows"]


def stream(seed: int = 0, body: int = 90) -> list:
    """A valid stream: a 12-join genesis, then queries, leaves, top-ups
    and runs of joins (of currently absent ids).  Small budgets make
    charges pause advertisers, so emissions are non-trivial."""
    rng = np.random.default_rng(seed)
    active = set(range(12))
    events = [join(advertiser, float(rng.uniform(1.0, 6.0)))
              for advertiser in range(12)]
    while len(events) < 12 + body:
        roll = rng.random()
        absent = sorted(set(range(CONFIG.num_advertisers)) - active)
        if roll < 0.15 and absent:
            run = rng.choice(absent, size=min(len(absent),
                                              int(rng.integers(1, 6))),
                             replace=False)
            for advertiser in run.tolist():
                active.add(advertiser)
                events.append(join(advertiser,
                                   float(rng.uniform(1.0, 6.0))))
        elif roll < 0.25 and len(active) > 4:
            advertiser = int(rng.choice(sorted(active)))
            active.discard(advertiser)
            events.append(AdvertiserLeave(advertiser=advertiser))
        elif roll < 0.35:
            events.append(BudgetTopUp(
                advertiser=int(rng.choice(sorted(active))),
                amount=float(rng.uniform(1.0, 5.0))))
        else:
            events.append(query(int(rng.integers(3))))
    return events


def join_runs(events) -> list[int]:
    """Lengths of the maximal runs of consecutive joins."""
    runs, length = [], 0
    for event in events:
        if isinstance(event, AdvertiserJoin):
            length += 1
        elif length:
            runs.append(length)
            length = 0
    return runs + [length] if length else runs


def per_event(method: str, events, watermark: int) -> dict:
    """The reference: every input through ``process``, one at a time;
    the outcome past ``watermark`` (what a recovery from a checkpoint
    at that seq replays)."""
    with OnlineAuctionService(CONFIG, method=method,
                              engine_seed=ENGINE_SEED) as service:
        records, emitted_at = [], 0
        for seq, event in enumerate(events):
            if seq == watermark:
                emitted_at = len(service.emitted)
            record = service.process(event)
            if record is not None and seq >= watermark:
                records.append(record)
        return outcome(service, records, list(service.emitted)[
            emitted_at:])


def outcome(service, records, emitted) -> dict:
    return {
        "records": records,
        "emitted": emitted,
        "balances": dict(service.registry.balances()),
        "snapshot": service.snapshot().to_json(),
    }


@pytest.mark.parametrize("method", ["rh", "rhtalu"])
@pytest.mark.parametrize("checkpoint_every", [0, 7])
def test_recover_of_windowed_journal_equals_per_event_replay(
        tmp_path, method, checkpoint_every):
    events = stream(seed=checkpoint_every)
    checkpoints = tmp_path / "ckpt"
    with DurableAuctionService.open(
            CONFIG, tmp_path / "journal.jsonl",
            checkpoint_dir=checkpoints if checkpoint_every else None,
            checkpoint_every=checkpoint_every, method=method,
            engine_seed=ENGINE_SEED,
            batching=BatchingConfig(window=4)) as durable:
        durable.run(events)  # join runs (and query runs) windowed
    inputs = [entry.event for entry
              in scan_journal(tmp_path / "journal.jsonl").entries
              if entry.origin == "input"]
    assert inputs == events

    result = recover(tmp_path / "journal.jsonl",
                     checkpoints if checkpoint_every else None)
    try:
        watermark = result.checkpoint_events
        if checkpoint_every:
            assert 0 < watermark < len(events)
        assert result.replayed_events == len(events) - watermark
        recovered = outcome(result.service, result.records,
                            list(result.service.emitted))
    finally:
        result.service.close()
    expected = per_event(method, events, watermark)
    assert diff_traces(expected.pop("records"),
                       recovered.pop("records")).identical
    assert recovered == expected


@pytest.fixture
def join_calls(monkeypatch):
    """Count backend ``join`` calls (and their sizes) of every service
    built while the fixture is active."""
    from repro.stream import service as service_module

    sizes: list[int] = []
    original = service_module._LocalBackend.join

    def counting(self, notices):
        sizes.append(len(notices))
        return original(self, notices)

    monkeypatch.setattr(service_module._LocalBackend, "join", counting)
    return sizes


@pytest.mark.parametrize("method", ["rh", "rhtalu"])
def test_run_issues_one_join_per_run(method, join_calls):
    events = stream(seed=3)
    with OnlineAuctionService(CONFIG, method=method,
                              engine_seed=ENGINE_SEED) as service:
        service.run(events)
    assert join_calls == join_runs(events)


def test_batched_run_caps_join_runs_at_capacity(join_calls):
    events = stream(seed=3)
    capacity = 4
    with OnlineAuctionService(
            CONFIG, engine_seed=ENGINE_SEED,
            batching=BatchingConfig(window=8,
                                    ingress_capacity=capacity)
            ) as service:
        service.run(events)
    assert len(join_calls) == sum(math.ceil(length / capacity)
                                  for length in join_runs(events))
    assert max(join_calls) == capacity


def test_unbatched_durable_run_commits_each_event(tmp_path, join_calls):
    """Offline, an unbatched durable run is one commit group per
    event, so its join runs are cut into windows of one."""
    events = stream(seed=5)
    with DurableAuctionService.open(CONFIG, tmp_path / "journal.jsonl",
                                    engine_seed=ENGINE_SEED) as durable:
        durable.run(events)
    assert join_calls == [1] * sum(join_runs(events))


@pytest.mark.parametrize("method", ["rh", "rhtalu"])
def test_recover_issues_one_join_per_run(tmp_path, method, join_calls):
    events = stream(seed=5)
    with DurableAuctionService.open(CONFIG, tmp_path / "journal.jsonl",
                                    method=method,
                                    engine_seed=ENGINE_SEED) as durable:
        durable.run(events)
    join_calls.clear()
    result = recover(tmp_path / "journal.jsonl")
    result.service.close()
    assert join_calls == join_runs(events)
