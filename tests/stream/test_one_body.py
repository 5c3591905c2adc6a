"""One served auction body: every execution shape is the same tail.

An in-process backend is the coordinator's merge over one local leaf
(:meth:`repro.auction.settlement.AuctionSettler.settle_slot_lists` for
``rh`` / ``rhtalu``, :meth:`~repro.auction.settlement.AuctionSettler
.settle_subset` for ``lp`` / ``hungarian``), so one recorded stream
must come out the same at every worker count, batched or not — down to
the candidate count when there is one leaf either way.  The stream
opens on an *empty* universe, grows to one advertiser and empties
again, which drives depth-0 and depth-1 slot lists through the tail
before ordinary churn and the budget lifecycle take over.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.runtime.executor import ShardedAuctionRuntime
from repro.stream import BatchingConfig
from repro.stream.events import (
    AdvertiserJoin,
    AdvertiserLeave,
    AdvertiserPaused,
    AdvertiserResumed,
    EventLog,
    QueryArrival,
)
from repro.workloads import (
    ChurnStreamConfig,
    PaperWorkload,
    PaperWorkloadConfig,
    generate_stream,
)
from tests.stream.oracle import assert_outcomes_agree, run_service

CONFIG = PaperWorkloadConfig(num_advertisers=24, num_slots=3,
                             num_keywords=2, seed=1)
METHODS = ("rh", "lp", "hungarian", "rhtalu")
SHAPES = [(workers, window) for workers in (0, 1, 3)
          for window in (0, 4)
          if (workers, window) != (0, 0)]  # (0, 0) is the reference


@pytest.fixture(scope="module")
def stream() -> EventLog:
    workload = PaperWorkload(CONFIG)
    first, second = workload.keywords
    loner = AdvertiserJoin(advertiser=0, target=1.0,
                           bids=(2.0, 1.0), maxbids=(4.0, 3.0),
                           values=(5.0, 4.0), budget=50.0)
    churn = generate_stream(workload, ChurnStreamConfig(
        num_events=150, churn_rate=0.25, genesis=12, min_active=4,
        budget_low=3.0, budget_high=25.0, topup_weight=2.0, seed=11))
    counts = churn.counts_by_kind()
    assert min(counts[kind] for kind in
               ("join", "leave", "update", "topup", "query")) >= 1
    return EventLog([
        QueryArrival(first), QueryArrival(second),       # nobody
        loner, QueryArrival(first), QueryArrival(second),
        QueryArrival(first),                              # one
        AdvertiserLeave(0), QueryArrival(second),         # nobody
        *churn])


@pytest.fixture(scope="module")
def reference(stream):
    outcomes = {method: run_service(CONFIG, stream, method=method,
                                    engine_seed=3)
                for method in METHODS}
    rh = outcomes["rh"]
    emitted = {type(event) for event in rh.emitted}
    assert emitted == {AdvertiserPaused, AdvertiserResumed}
    # The empty / one-advertiser stretch: nothing to allocate, then a
    # lone winner with no rival to set a price.
    assert [len(record.allocation.slot_of)
            for record in rh.records[:6]] == [0, 0, 1, 1, 1, 0]
    assert [record.num_candidates
            for record in rh.records[:6]] == [0, 0, 1, 1, 1, 0]
    assert all(price == 0.0 for record in rh.records[2:5]
               for price in record.prices.values())
    return outcomes


@pytest.mark.parametrize("workers,window", SHAPES)
@pytest.mark.parametrize("method", METHODS)
def test_every_shape_serves_the_same_stream(stream, reference, method,
                                            workers, window):
    batching = (BatchingConfig(window=window, ingress_capacity=64)
                if window else None)
    outcome = run_service(CONFIG, stream, method=method, engine_seed=3,
                          workers=workers, batching=batching)
    assert_outcomes_agree(reference[method], outcome)
    if workers <= 1:
        # One leaf either way: even the work accounting agrees.
        assert ([record.num_candidates for record in outcome.records]
                == [record.num_candidates
                    for record in reference[method].records])


@pytest.mark.parametrize("method", ["separable", "brute", "nope"])
def test_runtime_refuses_an_unserved_method_before_forking(method):
    """Used to construct, fork the fleet, and die on the first query
    inside the gather merge."""
    children = multiprocessing.active_children()
    with pytest.raises(ValueError, match="method must be one of"):
        ShardedAuctionRuntime(CONFIG, method=method, workers=2)
    assert multiprocessing.active_children() == children
