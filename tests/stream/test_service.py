"""The online service's core invariants.

The load-bearing assertions of the streaming layer:

* **Incremental == rebuild** — after any event prefix, surgical
  maintenance of the array state produces bit-identical auction
  records to rebuilding the evaluation state from scratch on every
  control event, for every method.
* **Sharded == in-process** — the same stream through the PR-3
  runtime at 1 and 2 workers reproduces the workers=0 records.
* **Surviving population** — a from-scratch engine built on exactly
  the advertisers alive after a churn prefix (ids compacted) continues
  the stream bit-identically; departed advertisers never appear in an
  allocation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.auction.engine import AuctionEngine, EngineConfig
from repro.bench import records_identical
from repro.evaluation.evaluator import RhtaluEvaluator
from repro.evaluation.pacer_arrays import LazyPacerArrays
from repro.probability.click_models import TabularClickModel
from repro.probability.purchase_models import no_purchases
from repro.strategies.base import Query
from repro.strategies.roi_equalizer import SimpleROIPacer
from repro.strategies.state import KeywordRecord, ProgramState
from repro.stream import (
    AdvertiserJoin,
    AdvertiserLeave,
    BudgetTopUp,
    EventLog,
    OnlineAuctionService,
    QueryArrival,
)
from repro.workloads import (
    ChurnStreamConfig,
    PaperWorkload,
    PaperWorkloadConfig,
    generate_stream,
    join_event,
)
from tests.stream.invalid_events import invalid_events
from tests.stream.oracle import assert_outcomes_agree, run_service

CONFIG = PaperWorkloadConfig(num_advertisers=36, num_slots=4,
                             num_keywords=3, seed=1)
SEED = 3


@pytest.fixture(scope="module")
def workload():
    return PaperWorkload(CONFIG)


@pytest.fixture(scope="module")
def stream(workload):
    log = generate_stream(workload, ChurnStreamConfig(
        num_events=140, churn_rate=0.3, genesis=22, min_active=6,
        seed=7))
    counts = log.counts_by_kind()
    # The fixture must actually exercise churn.
    assert counts["leave"] >= 3 and counts["update"] >= 3
    assert counts["join"] > 22
    return log


class TestIncrementalVsRebuildOracle:
    @pytest.mark.parametrize("method", ["rh", "lp", "hungarian",
                                        "rhtalu"])
    def test_bit_identical_records(self, method, stream):
        incremental = run_service(CONFIG, stream, method=method,
                                  engine_seed=SEED)
        rebuild = run_service(CONFIG, stream, method=method,
                              maintenance="rebuild",
                              engine_seed=SEED)
        assert_outcomes_agree(incremental, rebuild)
        assert len(incremental.records) == stream.num_queries()

    @pytest.mark.parametrize("method", ["rh", "rhtalu"])
    def test_every_prefix_agrees(self, method, stream):
        # Stronger than end-state equality: walk the stream event by
        # event and require record-for-record agreement as produced.
        incremental = OnlineAuctionService(CONFIG, method=method,
                                           engine_seed=SEED)
        rebuild = OnlineAuctionService(CONFIG, method=method,
                                       maintenance="rebuild",
                                       engine_seed=SEED)
        for event in stream:
            first = incremental.process(event)
            second = rebuild.process(event)
            assert (first is None) == (second is None)
            if first is not None:
                assert records_identical([first], [second])


class TestShardedService:
    @pytest.mark.parametrize("method", ["rh", "lp", "rhtalu"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_match_in_process(self, method, workers, stream):
        base = run_service(CONFIG, stream, method=method,
                           engine_seed=SEED)
        sharded = run_service(CONFIG, stream, method=method,
                              workers=workers, engine_seed=SEED)
        assert_outcomes_agree(base, sharded)

    def test_rebuild_maintenance_under_workers(self, stream):
        base = run_service(CONFIG, stream, method="rhtalu",
                           engine_seed=SEED)
        sharded = run_service(CONFIG, stream, method="rhtalu",
                              workers=2, maintenance="rebuild",
                              engine_seed=SEED)
        assert_outcomes_agree(base, sharded)


class TestChurnSemantics:
    @pytest.mark.parametrize("method", ["rh", "rhtalu"])
    def test_departed_advertisers_never_win_again(self, method,
                                                  stream):
        service = OnlineAuctionService(CONFIG, method=method,
                                       engine_seed=SEED)
        departed: set[int] = set()
        for event in stream:
            record = service.process(event)
            if isinstance(event, AdvertiserLeave):
                departed.add(event.advertiser)
            elif isinstance(event, AdvertiserJoin):
                departed.discard(event.advertiser)
            if record is not None:
                winners = set(record.allocation.slot_of)
                assert not winners & departed
                assert not set(record.prices) & departed
        assert departed  # the fixture stream must have net leavers

    def test_join_changes_subsequent_outcomes(self, workload):
        # A controlled scenario: one advertiser with an overwhelming
        # bid joins mid-stream and must start winning slot 1.
        events = [join_event(workload, advertiser)
                  for advertiser in range(6)]
        events += [QueryArrival("kw0")] * 3
        big = join_event(workload, 30)
        big = AdvertiserJoin(advertiser=30, target=1e6,
                             bids=(1000.0,) * 3,
                             maxbids=(1000.0,) * 3,
                             values=(1000.0,) * 3)
        events.append(big)
        events += [QueryArrival("kw0")] * 3
        service = OnlineAuctionService(CONFIG, method="rh",
                                       engine_seed=SEED)
        records = service.run(events)
        before, after = records[:3], records[3:]
        assert all(30 not in record.allocation.slot_of
                   for record in before)
        assert all(record.allocation.slot_of.get(30) == 1
                   for record in after)

    def test_budget_ledger_tracks_charges_and_topups(self, workload):
        events = [join_event(workload, advertiser, budget=100.0)
                  for advertiser in range(8)]
        events += [QueryArrival("kw1")] * 10
        events.append(BudgetTopUp(advertiser=2, amount=55.0))
        service = OnlineAuctionService(CONFIG, method="rh",
                                       engine_seed=SEED)
        records = service.run(events)
        charged = sum(record.prices.get(2, 0.0) for record in records)
        assert service.budget_of(2) == pytest.approx(
            100.0 + 55.0 - charged)
        spent_total = sum(sum(record.prices.values())
                          for record in records)
        assert service.accounts.provider_revenue \
            == pytest.approx(spent_total)

    @pytest.mark.parametrize("method", ["rh", "rhtalu"])
    def test_empty_population_serves_empty_auctions(self, method):
        service = OnlineAuctionService(CONFIG, method=method,
                                       engine_seed=SEED)
        records = service.run([QueryArrival("kw0"),
                               QueryArrival("kw1")])
        assert len(records) == 2
        for record in records:
            assert record.allocation.slot_of == {}
            assert record.realized_revenue == 0.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            OnlineAuctionService(CONFIG, method="separable")
        with pytest.raises(ValueError):
            OnlineAuctionService(CONFIG, maintenance="lazy")

    @pytest.mark.parametrize("method,workers", [
        ("rh", 0), ("rhtalu", 0), ("rh", 2)])
    def test_refused_events_raise_before_any_state_changes(
            self, workload, method, workers):
        # Every family of the shared table (a NaN bid would poison
        # the selection partition and the argsort click index; a bad
        # control event must fail at event time, never poison a shard
        # worker and surface as a fleet failure on the next query).
        with OnlineAuctionService(CONFIG, method=method,
                                  workers=workers,
                                  engine_seed=SEED) as service:
            service.process(join_event(workload, 1))
            join = join_event(workload, 2)
            before = service.budget_of(1)
            for case in invalid_events(
                    join, active=1,
                    capacity=CONFIG.num_advertisers, keyword="kw0"):
                with pytest.raises(case.error, match=case.detail):
                    service.process(case.event)
            assert service.events_processed == 1
            assert service.active_advertisers() == [1]
            assert service.budget_of(1) == before
            service.process(join)  # the clean join is still admissible
            record = service.process(QueryArrival("kw0"))
            assert record is not None
            assert record.allocation.slot_of


def _translate(records, survivors):
    """Re-key compact-id engine records to global advertiser ids."""
    translated = []
    for record in records:
        copy = type(record)(
            auction_id=record.auction_id,
            keyword=record.keyword,
            allocation=type(record.allocation)(
                num_slots=record.allocation.num_slots,
                slot_of={int(survivors[row]): slot for row, slot
                         in record.allocation.slot_of.items()}),
            outcome=record.outcome,
            expected_revenue=record.expected_revenue,
            realized_revenue=record.realized_revenue,
            eval_seconds=record.eval_seconds,
            wd_seconds=record.wd_seconds,
            num_candidates=record.num_candidates,
            prices={int(survivors[row]): price for row, price
                    in record.prices.items()},
        )
        translated.append(copy)
    return translated


def _records_match(service_records, engine_records, survivors):
    translated = _translate(engine_records, survivors)
    if len(service_records) != len(translated):
        return False
    for ours, theirs in zip(service_records, translated):
        if ours.allocation.slot_of != theirs.allocation.slot_of:
            return False
        if ours.prices != theirs.prices:
            return False
        if ours.expected_revenue != theirs.expected_revenue:
            return False
        if ours.realized_revenue != theirs.realized_revenue:
            return False
        clicked = {int(survivors[row])
                   for row in theirs.outcome.clicked}
        if set(ours.outcome.clicked) != clicked:
            return False
    return True


def untracked(stream):
    """The stream with budget tracking disabled on every join.

    The surviving-population oracle transplants captured state into a
    fresh fixed-population engine, which has no budget ledger — so the
    service side must not gate participation either (budget lifecycle
    oracles live in ``test_budget.py``).
    """
    return EventLog([replace(event, budget=0.0)
                     if isinstance(event, AdvertiserJoin) else event
                     for event in stream])


class TestSurvivingPopulationOracle:
    """After any churn prefix, a from-scratch engine built on exactly
    the surviving advertisers (ids compacted to 0..m-1) continues the
    query stream bit-identically."""

    def _tail_feeder(self, keywords):
        pending = list(keywords)

        def feeder(rng):
            keyword = pending.pop(0)
            return Query(text=keyword, relevance={keyword: 1.0})

        return feeder

    def test_eager_engine_on_survivors(self, workload, stream):
        stream = untracked(stream)
        prefix = len(stream) * 2 // 3
        service = OnlineAuctionService(CONFIG, method="rh",
                                       engine_seed=SEED)
        service.run(stream.prefix(prefix))
        capture = service.backend.capture_state()
        survivors = np.asarray(capture["ids"])
        assert len(survivors) < CONFIG.num_advertisers

        programs = []
        for row in range(len(survivors)):
            records = [
                KeywordRecord(
                    text=workload.keywords[col], formula="Click",
                    maxbid=float(capture["maxbids"][row, col]),
                    bid=float(capture["bids"][row, col]),
                    value_per_click=float(capture["values"][row, col]),
                    gained=float(capture["gained"][row, col]),
                    spent=float(capture["spent"][row, col]))
                for col in range(CONFIG.num_keywords)]
            state = ProgramState(
                target_spend_rate=float(capture["target"][row]),
                keywords=records,
                amt_spent=float(capture["amt_spent"][row]),
                auctions_seen=int(capture["auctions_seen"][row]))
            programs.append(SimpleROIPacer(row, state,
                                           step=CONFIG.step))
        tail = [event for event in stream[prefix:]
                if isinstance(event, QueryArrival)]
        engine = AuctionEngine(
            click_model=TabularClickModel(
                workload.click_matrix[survivors]),
            purchase_model=no_purchases(len(survivors),
                                        CONFIG.num_slots),
            query_source=self._tail_feeder(
                [event.keyword for event in tail]),
            config=EngineConfig(num_slots=CONFIG.num_slots,
                                method="rh", seed=0),
            programs=programs)
        engine.auction_id = service.auctions_run
        engine.rng.bit_generator.state = \
            service.backend.rng.bit_generator.state
        engine_records = engine.run(len(tail))
        service_records = service.run(tail)
        assert _records_match(service_records, engine_records,
                              survivors)

    def test_rhtalu_engine_on_survivors(self, workload, stream):
        stream = untracked(stream)
        prefix = len(stream) * 2 // 3
        service = OnlineAuctionService(CONFIG, method="rhtalu",
                                       engine_seed=SEED)
        service.run(stream.prefix(prefix))
        capture = service.backend.capture_state()
        survivors = np.asarray(capture["ids"])
        assert len(survivors) < CONFIG.num_advertisers

        compacted = dict(capture)
        compacted["ids"] = np.arange(len(survivors), dtype=np.int64)
        compacted["num_advertisers"] = len(survivors)
        arrays = LazyPacerArrays.from_capture(compacted)
        tail = [event for event in stream[prefix:]
                if isinstance(event, QueryArrival)]
        engine = AuctionEngine(
            click_model=TabularClickModel(
                workload.click_matrix[survivors]),
            purchase_model=no_purchases(len(survivors),
                                        CONFIG.num_slots),
            query_source=self._tail_feeder(
                [event.keyword for event in tail]),
            config=EngineConfig(num_slots=CONFIG.num_slots,
                                method="rhtalu", seed=0),
            rhtalu=RhtaluEvaluator(workload.click_matrix[survivors],
                                   arrays))
        engine.auction_id = service.auctions_run
        engine.rng.bit_generator.state = \
            service.backend.rng.bit_generator.state
        engine_records = engine.run(len(tail))
        service_records = service.run(tail)
        assert _records_match(service_records, engine_records,
                              survivors)


class TestNoChurnEquivalence:
    """With every universe id joined at genesis and zero churn, the
    service reproduces the plain fixed-population engine exactly."""

    @pytest.mark.parametrize("method", ["rh", "rhtalu"])
    def test_service_equals_engine(self, method, workload):
        keywords = ["kw0", "kw2", "kw1", "kw0", "kw1", "kw2"] * 6
        events = [join_event(workload, advertiser)
                  for advertiser in range(CONFIG.num_advertisers)]
        events += [QueryArrival(keyword) for keyword in keywords]
        service = OnlineAuctionService(CONFIG, method=method,
                                       engine_seed=SEED)
        service_records = service.run(events)

        pending = list(keywords)

        def feeder(rng):
            keyword = pending.pop(0)
            return Query(text=keyword, relevance={keyword: 1.0})

        kwargs = dict(
            click_model=workload.click_model(),
            purchase_model=workload.purchase_model(),
            query_source=feeder,
            config=EngineConfig(num_slots=CONFIG.num_slots,
                                method=method, seed=SEED))
        if method == "rhtalu":
            engine = AuctionEngine(rhtalu=workload.build_rhtalu(),
                                   **kwargs)
        else:
            engine = AuctionEngine(programs=workload.build_programs(),
                                   **kwargs)
        engine_records = engine.run(len(keywords))
        assert records_identical(service_records, engine_records)


class TestServiceStats:
    def test_event_timings_cover_every_kind(self, stream):
        service = OnlineAuctionService(CONFIG, method="rh",
                                       engine_seed=SEED)
        service.run(stream)
        stats = service.stats.to_dict()
        for kind, count in stream.counts_by_kind().items():
            if count:
                assert stats["by_kind"][kind]["count"] == count
        assert stats["total_events"] == len(stream)
        assert service.events_processed == len(stream)
