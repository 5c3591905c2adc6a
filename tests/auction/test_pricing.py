"""Tests for pricing rules (GSP generalisation, VCG, pay-your-bid)."""

import numpy as np
import pytest

from repro.auction.pricing import (
    GeneralizedSecondPrice,
    PayYourBid,
    SlotListSecondPrice,
    VickreyPricing,
)
from repro.auction.settlement import AuctionSettler
from repro.matching.hungarian import max_weight_matching
from repro.matching.reduction import top_k_for_slot
from repro.matching.slot_lists import select_slot_lists
from repro.matching.types import MatchingResult
from repro.probability.click_models import TabularClickModel
from repro.probability.purchase_models import no_purchases
from repro.strategies.base import Query


def _setup(bids, click_probs):
    bids = np.asarray(bids, dtype=float)
    click_probs = np.asarray(click_probs, dtype=float)
    weights = click_probs * bids[:, None]
    matching = max_weight_matching(weights)
    return weights, bids, click_probs, matching


class TestGsp:
    def test_classic_separable_case(self):
        # Separable CTRs + click bids: GSP price of slot j is the next
        # bidder's score / own CTR — the textbook formula.
        bids = [10.0, 6.0, 4.0]
        ctr = np.outer([1.0, 1.0, 1.0], [0.5, 0.25])
        weights, bid_vec, probs, matching = _setup(bids, ctr)
        quotes = GeneralizedSecondPrice().quote(weights, bid_vec, probs,
                                                matching)
        by_slot = {quote.slot: quote for quote in quotes}
        # Slot 1 (advertiser 0): rival best is advertiser 1's score in
        # slot 1: 6 * 0.5 = 3 -> price 3 / 0.5 = 6 = next bid.
        assert by_slot[1].per_click == pytest.approx(6.0)
        # Slot 2 (advertiser 1): rival is advertiser 2: 4*0.25/0.25 = 4.
        assert by_slot[2].per_click == pytest.approx(4.0)

    def test_price_never_exceeds_bid(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n, k = int(rng.integers(2, 8)), int(rng.integers(1, 4))
            bids = rng.uniform(0, 10, size=n)
            probs = rng.uniform(0.1, 0.9, size=(n, k))
            weights, bid_vec, probs, matching = _setup(bids, probs)
            for quote in GeneralizedSecondPrice().quote(
                    weights, bid_vec, probs, matching):
                assert 0.0 <= quote.per_click <= bids[quote.advertiser] + 1e-9

    def test_no_rival_means_free(self):
        weights, bids, probs, matching = _setup([5.0], [[0.5]])
        quotes = GeneralizedSecondPrice().quote(weights, bids, probs,
                                                matching)
        assert quotes[0].per_click == 0.0

    def test_zero_ctr_charges_nothing(self):
        quotes = GeneralizedSecondPrice().quote(
            np.array([[1.0]]), np.array([2.0]), np.array([[0.0]]),
            max_weight_matching(np.array([[1.0]])))
        assert quotes[0].per_click == 0.0


def _slot_lists(weights, depth):
    """Per-slot descending (values, ids) top lists, repo tie rule."""
    values, ids = [], []
    for col in range(weights.shape[1]):
        top = top_k_for_slot(weights[:, col], depth)
        ids.append(np.asarray(top, dtype=np.int64))
        values.append(weights[top, col] if top else np.empty(0))
    return values, ids


class TestSlotListGsp:
    """The distributed GSP must equal the full-matrix GSP exactly."""

    def assert_quotes_equal(self, weights, bids, probs, matching):
        full = GeneralizedSecondPrice().quote(weights, bids, probs,
                                              matching)
        values, ids = _slot_lists(weights,
                                  depth=weights.shape[1] + 1)
        listed = SlotListSecondPrice.quote_from_lists(
            values, ids, bids, probs, matching)
        assert listed == full  # dataclass equality: exact floats
        self.assert_tail_prices_equal(weights, bids, probs)

    def assert_tail_prices_equal(self, weights, bids, probs):
        """The served tail matches and prices from lists cut at depth
        k + 1 alone; its charges must be the full-matrix rule's quotes
        for its own matching (a user who always clicks turns every
        quote into a charge)."""
        n, k = weights.shape
        settler = AuctionSettler.build(
            TabularClickModel(np.ones((n, k))), no_purchases(n, k), k,
            seed=0)
        record = settler.settle_slot_lists(
            1, Query(text="kw"), select_slot_lists(weights.T, k + 1),
            bids, probs, eval_seconds=0.0, wd_seconds=0.0,
            num_candidates=n, notify_fn=lambda *win: None)
        matching = MatchingResult(
            pairs=tuple(sorted(
                (advertiser, slot - 1) for advertiser, slot
                in record.allocation.slot_of.items())),
            total_weight=record.expected_revenue)
        full = GeneralizedSecondPrice().quote(weights, bids, probs,
                                              matching)
        assert record.prices == {quote.advertiser: quote.per_click
                                 for quote in full}

    def test_matches_on_random_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            k = int(rng.integers(1, 6))
            bids = rng.uniform(0, 10, size=n)
            probs = rng.uniform(0.1, 0.9, size=(n, k))
            weights, bid_vec, probs, matching = _setup(bids, probs)
            self.assert_quotes_equal(weights, bid_vec, probs, matching)

    def test_matches_with_zero_bid_ties(self, rng):
        # Zero bids produce whole tied-at-zero columns — the structural
        # tie case sharded runs must price identically.
        for _ in range(20):
            n, k = int(rng.integers(2, 12)), int(rng.integers(1, 5))
            bids = rng.uniform(0, 10, size=n)
            bids[rng.random(n) < 0.6] = 0.0
            probs = rng.uniform(0.1, 0.9, size=(n, k))
            weights, bid_vec, probs, matching = _setup(bids, probs)
            self.assert_quotes_equal(weights, bid_vec, probs, matching)

    def test_population_smaller_than_depth(self):
        # n < k + 1: lists cover everyone; exhausted rival scans mean
        # a zero rival price, as in the full-matrix rule.
        weights, bids, probs, matching = _setup(
            [3.0, 2.0], [[0.5, 0.4, 0.3], [0.5, 0.4, 0.3]])
        self.assert_quotes_equal(weights, bids, probs, matching)

    def test_depth_k_plus_one_is_necessary(self):
        # Why the runtime ships k+1-deep lists: with only k entries, a
        # column whose top-k are all excluded winners loses its true
        # rival (here k=1: the winner itself tops the list), while one
        # extra entry always retains it.
        weights = np.array([[10.0], [9.0], [1.0]])
        bids = np.array([10.0, 9.0, 1.0])
        probs = np.ones((3, 1))
        matching = max_weight_matching(weights)
        full = GeneralizedSecondPrice().quote(weights, bids, probs,
                                              matching)
        shallow_values, shallow_ids = _slot_lists(weights, depth=1)
        shallow = SlotListSecondPrice.quote_from_lists(
            shallow_values, shallow_ids, bids, probs, matching)
        assert shallow[0].per_click == 0.0  # rival lost
        assert full[0].per_click == 9.0
        deep_values, deep_ids = _slot_lists(weights, depth=2)
        deep = SlotListSecondPrice.quote_from_lists(
            deep_values, deep_ids, bids, probs, matching)
        assert deep == full


class TestVcg:
    def test_payments_bounded_by_gain(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            bids = rng.uniform(0, 10, size=n)
            probs = rng.uniform(0.1, 0.9, size=(n, k))
            weights, bid_vec, probs, matching = _setup(bids, probs)
            for quote in VickreyPricing().quote(weights, bid_vec, probs,
                                                matching):
                gain = weights[quote.advertiser, quote.slot - 1]
                assert 0.0 <= quote.per_impression <= gain + 1e-9

    def test_lone_bidder_pays_nothing(self):
        weights, bids, probs, matching = _setup([5.0], [[0.5]])
        quotes = VickreyPricing().quote(weights, bids, probs, matching)
        assert quotes[0].per_impression == 0.0

    def test_externality_formula_two_bidders_one_slot(self):
        # Winner displaces the loser entirely: pays the loser's value.
        weights, bids, probs, matching = _setup([10.0, 4.0],
                                                [[0.5], [0.5]])
        quotes = VickreyPricing().quote(weights, bids, probs, matching)
        assert len(quotes) == 1
        assert quotes[0].per_impression == pytest.approx(2.0)  # 4 * 0.5


class TestPayYourBid:
    def test_quotes_own_bid(self):
        weights, bids, probs, matching = _setup([10.0, 4.0],
                                                [[0.5], [0.4]])
        quotes = PayYourBid().quote(weights, bids, probs, matching)
        assert quotes[0].per_click == 10.0
