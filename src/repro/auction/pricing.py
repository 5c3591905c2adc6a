"""Pricing rules (Section III's framing: WD first, then price).

Winner determination fixes the allocation; the pricing rule then decides
what winners actually pay.  The paper's experiments use "a slight
generalization of generalized second-pricing"; it also discusses Vickrey
(VCG) pricing.  Both are provided:

* :class:`GeneralizedSecondPrice` — per-click prices.  The advertiser in
  slot j pays, per click, the smallest amount that would have kept his
  expected-revenue score at or above the best score achievable for his
  slot by anyone placed below him or unassigned:
  ``price_i = max_score_of_others(j) / w_ij``, capped at his own
  per-click bid.  In the classic separable single-feature setting this
  reduces exactly to next-bidder GSP.
* :class:`VickreyPricing` — per-impression expected payments via the VCG
  formula ``p_i = OPT(without i) − (OPT − gain_i)``; requires re-solving
  a matching per winner, so it is priced per auction, not per click.

Pricing operates on the *adjusted* expected-revenue weights used by
winner determination, so multi-feature bids are priced consistently with
how they won.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.matching.reduction import reduced_matching
from repro.matching.types import MatchingResult


@dataclass(frozen=True)
class PriceQuote:
    """What one winner will be charged.

    ``per_click`` — charged each time his ad is clicked (GSP);
    ``per_impression`` — charged once per auction won (VCG).  Exactly one
    is non-zero for a given rule.
    """

    advertiser: int
    slot: int  # 1-based
    per_click: float = 0.0
    per_impression: float = 0.0


class PricingRule:
    """Interface: quote prices for a winner-determination result."""

    def quote(self, weights: np.ndarray, bids: np.ndarray,
              click_probs: np.ndarray,
              matching: MatchingResult) -> list[PriceQuote]:
        """Compute quotes.

        Parameters
        ----------
        weights:
            (n x k) adjusted expected-revenue matrix WD ran on.
        bids:
            per-advertiser per-click bid (the cap for GSP quotes).
        click_probs:
            (n x k) click probabilities (to convert scores to per-click).
        matching:
            the winning matching ((advertiser, slot_col) pairs).
        """
        raise NotImplementedError


class GeneralizedSecondPrice(PricingRule):
    """Next-best-score GSP, generalised to matching allocations.

    Each instance keeps scratch buffers (the exclusion mask and the
    rival-score column) sized to the largest population quoted so far,
    handing out per-call views — quoting a stream of auctions (the
    batch pipeline quotes thousands against one rule instance, and the
    RHTALU path varies the candidate count per auction) allocates
    nothing per winner.
    """

    def __init__(self) -> None:
        self._excluded = np.zeros(0, dtype=bool)
        self._rivals = np.zeros(0)

    def _buffers(self, num_advertisers: int
                 ) -> tuple[np.ndarray, np.ndarray]:
        if len(self._excluded) < num_advertisers:
            self._excluded = np.zeros(num_advertisers, dtype=bool)
            self._rivals = np.zeros(num_advertisers)
        return (self._excluded[:num_advertisers],
                self._rivals[:num_advertisers])

    def quote(self, weights: np.ndarray, bids: np.ndarray,
              click_probs: np.ndarray,
              matching: MatchingResult) -> list[PriceQuote]:
        weights = np.asarray(weights, dtype=float)
        num_advertisers = weights.shape[0]
        # Order winners by slot so "below" is well defined.
        winners = sorted(matching.pairs, key=lambda pair: pair[1])
        winner_ids = [advertiser for advertiser, _ in winners]
        quotes = []
        excluded, rivals = self._buffers(num_advertisers)
        excluded[:] = False
        for rank, (advertiser, col) in enumerate(winners):
            # Rivals: everyone not placed in this slot or above.
            excluded[winner_ids[rank]] = True
            np.copyto(rivals, weights[:, col])
            rivals[excluded] = -np.inf
            rival_best = max(float(rivals.max(initial=-np.inf)), 0.0)
            w = float(click_probs[advertiser, col])
            if w <= 0.0:
                per_click = 0.0
            else:
                per_click = min(rival_best / w, float(bids[advertiser]))
            quotes.append(PriceQuote(advertiser=advertiser, slot=col + 1,
                                     per_click=max(per_click, 0.0)))
        return quotes


class SlotListSecondPrice:
    """GSP quoted from per-slot rival lists instead of a full matrix.

    The distributed form of :class:`GeneralizedSecondPrice`: when
    winner determination runs sharded (the Section III-E tree made real
    by :mod:`repro.runtime`), no node holds the full n-by-k weight
    matrix — but the coordinator *does* hold each slot's merged
    descending top list.  Since at most ``k`` winners are ever excluded
    from a rival scan, the best non-excluded weight of a column is
    always among that column's top ``k + 1`` entries, so quoting from
    lists of depth >= ``min(n, k + 1)`` reproduces the full-matrix GSP
    quote *exactly* (same floats — the rival score is an element of the
    column either way).  ``tests/auction/test_pricing.py`` holds the
    two implementations to equality on random instances.

    Every served ``rh`` / ``rhtalu`` path prices this way, from one
    call site (:meth:`repro.auction.settlement.AuctionSettler
    .settle_slot_lists`) — the in-process service holds the same lists
    the sharded coordinator merges (the :mod:`repro.matching.slot_lists`
    kernel), so no path reads a full weight column after the selection
    scan.
    """

    @staticmethod
    def quote_from_lists(slot_values: Sequence[np.ndarray],
                         slot_ids: Sequence[np.ndarray],
                         bids: np.ndarray,
                         click_probs: np.ndarray,
                         matching: MatchingResult) -> list[PriceQuote]:
        """Quote winners against per-slot descending rival lists.

        ``slot_values[j]`` / ``slot_ids[j]`` are slot ``j``'s top
        weights and the advertisers holding them, descending (ties
        toward the lower id), depth >= ``min(n, k + 1)`` and the same
        for every slot (a :class:`~repro.matching.slot_lists.SlotLists`
        block).  ``bids`` and
        ``click_probs`` are indexed by the same advertiser ids the
        lists and ``matching`` use.
        """
        winners = sorted(matching.pairs, key=lambda pair: pair[1])
        slot_ids = np.asarray(slot_ids).tolist()
        slot_values = np.asarray(slot_values).tolist()
        excluded: set[int] = set()
        quotes = []
        for advertiser, col in winners:
            # Rivals: everyone not placed in this slot or above.
            excluded.add(advertiser)
            rival_best = 0.0
            for rival, value in zip(slot_ids[col], slot_values[col]):
                if rival not in excluded:
                    rival_best = max(value, 0.0)
                    break
            w = float(click_probs[advertiser, col])
            if w <= 0.0:
                per_click = 0.0
            else:
                per_click = min(rival_best / w, float(bids[advertiser]))
            quotes.append(PriceQuote(advertiser=advertiser, slot=col + 1,
                                     per_click=max(per_click, 0.0)))
        return quotes


class VickreyPricing(PricingRule):
    """VCG payments: each winner pays his externality on the others."""

    def quote(self, weights: np.ndarray, bids: np.ndarray,
              click_probs: np.ndarray,
              matching: MatchingResult) -> list[PriceQuote]:
        weights = np.asarray(weights, dtype=float)
        total = matching.total_weight
        quotes = []
        for advertiser, col in matching.pairs:
            gain = float(weights[advertiser, col])
            others_with = total - gain
            without = reduced_matching(
                np.delete(weights, advertiser, axis=0)).total_weight
            payment = max(without - others_with, 0.0)
            quotes.append(PriceQuote(advertiser=advertiser, slot=col + 1,
                                     per_impression=payment))
        return quotes


class PayYourBid(PricingRule):
    """First-price rule: pay your own per-click bid on every click.

    The accounting winner determination itself assumes; useful as a
    baseline and for tests that need revenue == matching weight.
    """

    def quote(self, weights: np.ndarray, bids: np.ndarray,
              click_probs: np.ndarray,
              matching: MatchingResult) -> list[PriceQuote]:
        return [PriceQuote(advertiser=advertiser, slot=col + 1,
                           per_click=float(bids[advertiser]))
                for advertiser, col in matching.pairs]
