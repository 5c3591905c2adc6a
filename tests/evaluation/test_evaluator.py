"""Tests for the RHTALU evaluator: equivalence with eager RH."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import click_bid_revenue_matrix, solve
from repro.probability.click_models import TabularClickModel
from repro.workloads import PaperWorkload, PaperWorkloadConfig


def _run_paired(n, num_slots, num_keywords, seed, auctions,
                win_probability=0.5):
    """Drive eager-RH and RHTALU through identical auction streams."""
    workload = PaperWorkload(PaperWorkloadConfig(
        num_advertisers=n, num_slots=num_slots,
        num_keywords=num_keywords, seed=seed))
    programs = workload.build_programs()
    evaluator = workload.build_rhtalu()
    click_model = TabularClickModel(workload.click_matrix)
    rng = np.random.default_rng(seed + 1)

    from repro.strategies.base import (
        AuctionContext,
        ProgramNotification,
        Query,
    )

    revenues = []
    for t in range(1, auctions + 1):
        keyword = workload.keywords[int(rng.integers(num_keywords))]
        ctx = AuctionContext(
            auction_id=t, time=float(t),
            query=Query(text=keyword, relevance={keyword: 1.0}),
            num_slots=num_slots)
        bids = np.zeros(n)
        for i, program in enumerate(programs):
            bids[i] = sum(row.value for row in program.bid(ctx))
        eager = solve(click_bid_revenue_matrix(bids, click_model),
                      method="rh")
        lazy = evaluator.run_auction(keyword, float(t))
        assert lazy.expected_revenue == pytest.approx(
            eager.expected_revenue, abs=1e-6), t
        revenues.append(lazy.expected_revenue)

        for advertiser, col in eager.matching.pairs:
            if rng.random() < win_probability:
                price = 0.6 * bids[advertiser]
                if price <= 0:
                    continue
                programs[advertiser].notify(ProgramNotification(
                    auction_id=t, keyword=keyword, slot=col + 1,
                    clicked=True, price_paid=price))
                evaluator.record_win(advertiser, price, float(t))
    return revenues, evaluator


class TestEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_rhtalu_equals_rh_on_paper_workload(self, seed):
        _run_paired(n=25, num_slots=4, num_keywords=3, seed=seed,
                    auctions=60)

    def test_longer_run_with_many_wins(self):
        revenues, _ = _run_paired(n=40, num_slots=5, num_keywords=4,
                                  seed=99, auctions=150,
                                  win_probability=0.9)
        assert len(revenues) == 150
        assert all(revenue >= 0 for revenue in revenues)


class TestWorkAccounting:
    def test_candidate_set_is_small(self):
        workload = PaperWorkload(PaperWorkloadConfig(
            num_advertisers=300, num_slots=5, num_keywords=3, seed=7))
        evaluator = workload.build_rhtalu()
        result = evaluator.run_auction(workload.keywords[0], 1.0)
        # Union of per-slot top-(k+1) lists: at most k * (k+1).
        assert len(result.candidates) <= 5 * 6
        assert result.sequential_count < 2 * 300 * 5

    def test_accesses_shrink_relative_to_population(self):
        small = PaperWorkload(PaperWorkloadConfig(
            num_advertisers=100, num_slots=4, num_keywords=2, seed=5))
        large = PaperWorkload(PaperWorkloadConfig(
            num_advertisers=2000, num_slots=4, num_keywords=2, seed=5))
        accesses = {}
        for name, workload in (("small", small), ("large", large)):
            evaluator = workload.build_rhtalu()
            total = 0
            for t in range(1, 20):
                keyword = workload.keywords[t % 2]
                result = evaluator.run_auction(keyword, float(t))
                total += result.sequential_count
            accesses[name] = total
        # 20x the advertisers must NOT cost 20x the accesses.
        assert accesses["large"] < 8 * accesses["small"]


class TestValidation:
    def test_bad_matrix_rejected(self):
        from repro.evaluation.evaluator import RhtaluEvaluator
        from repro.evaluation.pacer_arrays import LazyPacerArrays
        with pytest.raises(ValueError):
            RhtaluEvaluator(np.ones(3),
                            LazyPacerArrays.for_universe(3, ["kw"]))


class TestScanAuction:
    """The scan/match split the sharded runtime builds on."""

    def test_scan_then_match_equals_run_auction(self):
        workload = PaperWorkload(PaperWorkloadConfig(
            num_advertisers=25, num_slots=4, num_keywords=3, seed=5))
        scanning = workload.build_rhtalu()
        running = workload.build_rhtalu()
        for auction in range(1, 31):
            keyword = f"kw{auction % 3}"
            scan = scanning.scan_auction(keyword, float(auction))
            full = running.run_auction(keyword, float(auction))
            assert tuple(int(a) for a in scan.candidates) \
                == full.candidates
            np.testing.assert_array_equal(scan.candidate_bids,
                                          full.candidate_bids)
            assert scan.sequential_count == full.sequential_count
            assert scan.random_count == full.random_count
            # Union of the slot lists is exactly the candidate set.
            union = set()
            for per_slot in scan.slot_lists.ids:
                union.update(int(a) for a in per_slot)
            assert union == set(full.candidates)
            for advertiser, _ in full.matching.pairs:
                if full.allocation.slot_of:
                    running.record_win(advertiser, 0.5, float(auction))
                    scanning.record_win(advertiser, 0.5, float(auction))

    def test_slot_lists_are_top_depth_by_score(self):
        workload = PaperWorkload(PaperWorkloadConfig(
            num_advertisers=30, num_slots=4, num_keywords=2, seed=9))
        evaluator = workload.build_rhtalu()
        scan = evaluator.scan_auction("kw0", 1.0)
        state = workload.build_rhtalu().state
        state.begin_auction("kw0", 1.0)
        eff = np.array([state.effective_bid(a, "kw0")
                        for a in range(30)])
        for slot, per_slot in enumerate(scan.slot_lists.ids):
            scores = workload.click_matrix[:, slot] * eff
            order = np.lexsort((np.arange(30), -scores))
            expected = order[:evaluator.top_depth]
            assert set(int(a) for a in per_slot) \
                == set(int(a) for a in expected)
