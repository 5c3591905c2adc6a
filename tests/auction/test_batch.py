"""The batch run's contract: bit-identical to sequential runs.

``AuctionEngine.run_batch`` promises that, from identical engine state
and seeds, a batched run produces *exactly* the records a sequential
run would — same allocations, same outcomes, same prices, same account
balances, down to float equality — and leaves the programs in the same
state, so sequential and batched runs interleave freely.  A pacer
population batches on the served leaf and tail, which the per-program
loop of ``run`` does not use; RHTALU runs on its leaf on both paths.
These tests hold all of it to that across the methods.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.auction import (
    AuctionEngine,
    EngineConfig,
    PayYourBid,
    VickreyPricing,
)
from repro.auction.batch import PacerArrays
from repro.runtime.worker import EagerScanShard, RhtaluShard
from repro.strategies.roi_equalizer import (
    ROIEqualizerProgram,
    SimpleROIPacer,
    make_roi_state,
)
from repro.workloads import PaperWorkload, PaperWorkloadConfig

NUM_ADVERTISERS = 40
NUM_SLOTS = 6
NUM_KEYWORDS = 4
AUCTIONS = 60


def build_engine(method: str, record_log: bool = False,
                 wd_leaves: int | None = None,
                 pricing=None) -> AuctionEngine:
    workload = PaperWorkload(PaperWorkloadConfig(
        num_advertisers=NUM_ADVERTISERS, num_slots=NUM_SLOTS,
        num_keywords=NUM_KEYWORDS, seed=7))
    kwargs = dict(
        click_model=workload.click_model(),
        purchase_model=workload.purchase_model(),
        query_source=workload.query_source(),
        config=EngineConfig(num_slots=NUM_SLOTS, method=method, seed=11,
                            record_log=record_log, wd_leaves=wd_leaves),
        pricing=pricing)
    if method == "rhtalu":
        return AuctionEngine(rhtalu=workload.build_rhtalu(), **kwargs)
    return AuctionEngine(programs=workload.build_programs(), **kwargs)


def snapshot(records):
    """Everything observable about a run, for exact comparison."""
    return [
        (r.auction_id, r.keyword, dict(r.allocation.slot_of),
         sorted(r.outcome.clicked), sorted(r.outcome.purchased),
         r.expected_revenue, r.realized_revenue, r.num_candidates,
         dict(r.prices))
        for r in records
    ]


def account_state(engine: AuctionEngine):
    return (
        engine.accounts.provider_revenue,
        {adv: (acc.impressions, acc.clicks, acc.purchases,
               acc.auctions_won, acc.charged)
         for adv, acc in engine.accounts.accounts.items()},
    )


def program_state(engine: AuctionEngine):
    return [
        (p.advertiser_id, p.state.amt_spent, p.state.auctions_seen,
         [(k.text, k.bid, k.gained, k.spent) for k in p.state.keywords])
        for p in engine.programs
    ]


@pytest.mark.parametrize("method", ["rh", "lp", "rhtalu"])
def test_run_batch_identical_to_sequential(method):
    sequential = build_engine(method)
    batched = build_engine(method)

    seq_records = sequential.run(AUCTIONS)
    batch_records = batched.run_batch(AUCTIONS)

    assert snapshot(seq_records) == snapshot(batch_records)
    assert account_state(sequential) == account_state(batched)


@pytest.mark.parametrize("method", ["rh", "hungarian"])
def test_batch_then_sequential_continuation(method):
    """State written back after a batch must let sequential runs resume."""
    sequential = build_engine(method)
    batched = build_engine(method)

    sequential.run(AUCTIONS)
    batched.run_batch(AUCTIONS)
    assert program_state(sequential) == program_state(batched)

    # The two engines must stay in lockstep through further (sequential
    # and batched) segments.
    assert snapshot(sequential.run(15)) == snapshot(batched.run(15))
    assert snapshot(sequential.run(10)) == snapshot(batched.run_batch(10))
    assert account_state(sequential) == account_state(batched)


def test_batch_runs_pacers_on_the_leaf(monkeypatch):
    calls = []
    handle = EagerScanShard.handle

    def spy(leaf, task):
        calls.append(task.auction_id)
        return handle(leaf, task)

    monkeypatch.setattr(EagerScanShard, "handle", spy)
    engine = build_engine("rh")
    assert engine.batches_on_leaf()
    engine.run(5)
    assert calls == []  # run() is the per-program loop
    engine.run_batch(AUCTIONS)
    assert calls == list(range(6, 6 + AUCTIONS))


@pytest.mark.parametrize("options", [
    {"pricing": VickreyPricing()},
    {"pricing": PayYourBid()},
    {"wd_leaves": 4},
], ids=["vickrey", "pay-your-bid", "wd-leaves"])
def test_batch_off_the_leaf_equals_run(options):
    """What the tail does not run — a pricing rule other than GSP, the
    tree network's accounting — batches as run() does."""
    sequential = build_engine("rh", **options)
    batched = build_engine("rh", **options)
    assert not batched.batches_on_leaf()
    seq_records = sequential.run(AUCTIONS)
    batch_records = batched.run_batch(AUCTIONS)
    assert snapshot(seq_records) == snapshot(batch_records)
    assert account_state(sequential) == account_state(batched)
    assert program_state(sequential) == program_state(batched)
    if "wd_leaves" in options:
        assert all(record.wd_stats is not None
                   for record in batch_records)
        assert [r.wd_stats for r in seq_records] == \
            [r.wd_stats for r in batch_records]


def test_batch_records_interaction_log_identically():
    sequential = build_engine("rh", record_log=True)
    batched = build_engine("rh", record_log=True)
    sequential.run(AUCTIONS)
    batched.run_batch(AUCTIONS)
    np.testing.assert_array_equal(sequential.interaction_log.impressions,
                                  batched.interaction_log.impressions)
    np.testing.assert_array_equal(sequential.interaction_log.clicks,
                                  batched.interaction_log.clicks)


def test_rhtalu_access_counts_identical_across_paths(monkeypatch):
    """Sequential and batched RHTALU both settle the leaf's TA scan —
    one scan per auction, access for access the same work."""
    handled = []
    handle = RhtaluShard.handle

    def leaf_spy(leaf, task):
        handled.append(task.auction_id)
        return handle(leaf, task)

    monkeypatch.setattr(RhtaluShard, "handle", leaf_spy)

    def access_trace(engine, batched):
        trace = []
        original = engine.rhtalu.scan_auction

        def spy(keyword, time):
            scan = original(keyword, time)
            trace.append((keyword, time, scan.sequential_count,
                          scan.random_count, scan.slot_lists.ids.tolist()))
            return scan

        monkeypatch.setattr(engine.rhtalu, "scan_auction", spy)
        handled.clear()
        (engine.run_batch if batched else engine.run)(AUCTIONS)
        assert handled == list(range(1, AUCTIONS + 1))  # via the leaf
        return trace

    sequential = access_trace(build_engine("rhtalu"), False)
    assert len(sequential) == AUCTIONS
    assert all(entry[2] > 0 for entry in sequential)
    assert [entry[1] for entry in sequential] == \
        [float(t) for t in range(1, AUCTIONS + 1)]
    assert sequential == access_trace(build_engine("rhtalu"), True)


def test_rhtalu_refuses_pricing_the_tail_does_not_run():
    with pytest.raises(ValueError, match="GSP"):
        build_engine("rhtalu", pricing=PayYourBid())


def test_rhtalu_batch_then_sequential_continuation():
    """The evaluator state is shared by both paths, so segments
    interleave freely and stay in lockstep."""
    sequential = build_engine("rhtalu")
    batched = build_engine("rhtalu")
    assert snapshot(sequential.run(20)) == snapshot(batched.run_batch(20))
    assert snapshot(sequential.run(15)) == snapshot(batched.run(15))
    assert snapshot(sequential.run(10)) == snapshot(batched.run_batch(10))
    assert account_state(sequential) == account_state(batched)


def _equalizer_engine() -> AuctionEngine:
    """A non-pacer population: forces the sequential fallback."""
    workload = PaperWorkload(PaperWorkloadConfig(
        num_advertisers=8, num_slots=3, num_keywords=2, seed=3))
    programs = [
        ROIEqualizerProgram(
            advertiser,
            make_roi_state(
                [(f"kw{index}", "Click",
                  float(workload.values[advertiser, index]),
                  float(workload.values[advertiser, index]))
                 for index in range(2)],
                target_spend_rate=float(workload.targets[advertiser])))
        for advertiser in range(8)
    ]
    return AuctionEngine(
        click_model=workload.click_model(),
        purchase_model=workload.purchase_model(),
        query_source=workload.query_source(),
        config=EngineConfig(num_slots=3, method="rh", seed=5),
        programs=programs)


def test_non_pacer_population_falls_back_and_matches():
    sequential = _equalizer_engine()
    batched = _equalizer_engine()
    seq_records = sequential.run(30)
    batch_records = batched.run_batch(30)
    assert not batched.batches_on_leaf()
    assert snapshot(seq_records) == snapshot(batch_records)
    assert account_state(sequential) == account_state(batched)


def test_planner_rejects_non_pacer_programs():
    engine = _equalizer_engine()
    assert not engine.batches_on_leaf()
    assert PacerArrays.from_programs(engine.programs, 8) is None


def test_planner_rejects_duplicate_advertiser_ids():
    state = make_roi_state([("kw0", "Click", 10.0, 10.0)],
                           target_spend_rate=1.0)
    twin = make_roi_state([("kw0", "Click", 10.0, 10.0)],
                          target_spend_rate=1.0)
    programs = [SimpleROIPacer(0, state), SimpleROIPacer(0, twin)]
    assert PacerArrays.from_programs(programs, 4) is None


def test_planner_rejects_non_click_formulas():
    state = make_roi_state([("kw0", "Click & Slot1", 10.0, 10.0)],
                           target_spend_rate=1.0)
    programs = [SimpleROIPacer(0, state)]
    assert PacerArrays.from_programs(programs, 4) is None


def test_batch_records_carry_phase_timings():
    engine = build_engine("rh")
    records = engine.run_batch(10)
    for record in records:
        assert record.eval_seconds >= 0.0
        assert record.wd_seconds >= 0.0
        assert record.price_seconds >= 0.0
        assert record.settle_seconds >= 0.0
        assert record.pipeline_seconds >= record.total_seconds
