"""Global settlement: steps 4-6 of the protocol, engine-independent.

Winner determination fixes *who won*; settlement is everything that
happens after: the simulated user acts, the pricing rule quotes, the
provider's accounts are charged, and winning programs are notified.
:class:`AuctionSettler` packages that tail of the pipeline behind one
object so every execution strategy — the engine's per-program eager
loop, and everything that runs a leaf of :mod:`repro.runtime.worker`
(the engine's batch and RHTALU runs, the in-process service, the
multi-process sharded runtime) — settles auctions through the *same*
code.
That sharing is what makes the bit-identity invariants structural: a
coordinator that reproduces the winner-determination inputs
necessarily reproduces outcomes, prices, balances, and records,
because this module is the only place they are computed.

The leaf paths enter through two tails, which
:class:`~repro.runtime.executor.MergeTail` calls for the offline engine
and the in-process service (one local leaf) and the sharded
coordinator (a merge of many): :meth:`AuctionSettler.settle_slot_lists`
for ``rh`` / ``rhtalu`` and :meth:`AuctionSettler.settle_subset` for
``lp`` / ``hungarian``; the eager loop calls :meth:`AuctionSettler
.settle` itself.

The settler deliberately owns **no per-advertiser evaluation state**
(programs, pacer arrays, lazy evaluators); those are per-shard concerns
in the sharded runtime. It owns exactly the global, unshardable pieces:
the user model, the pricing rule, the provider's
:class:`~repro.auction.accounts.AccountBook`, and the decision RNG
whose draw order defines a run's identity.
"""

from __future__ import annotations

import time as time_module
from functools import partial
from typing import Callable, Mapping

import numpy as np

from repro.auction.accounts import AccountBook
from repro.auction.events import AuctionRecord
from repro.auction.pricing import (
    GeneralizedSecondPrice,
    PriceQuote,
    PricingRule,
    SlotListSecondPrice,
)
from repro.auction.user_model import UserModel
from repro.core.winner_determination import (
    SubsetWdResult,
    allocation_from_matching,
)
from repro.lang.outcome import Allocation
from repro.matching.slot_lists import SlotLists, match_slot_lists
from repro.matching.types import MatchingResult
from repro.probability.click_models import ClickModel
from repro.probability.purchase_models import PurchaseModel
from repro.strategies.base import Query

NotifyFn = Callable[[int, int | None, bool, bool, float], None]
"""Per-winner callback ``(advertiser, slot, clicked, purchased, charge)``.

``slot`` is 1-based (``None`` if the winner somehow has no slot); a
leaf's win fold ignores it, program notification forwards it."""


class AuctionSettler:
    """Settles auctions: user simulation, pricing, payment, notification.

    Parameters
    ----------
    user_model:
        Samples clicks/purchases for the realized allocation.
    pricing:
        The pricing rule quoting winners (GSP in the experiments).
    accounts:
        The provider-side account book charged by every settlement.
    num_slots:
        Slots per auction (fixed for a run).
    rng:
        The decision random stream.  The settler consumes it in the
        engine's exact order — one uniform per assigned winner — so any
        caller that shares this generator (and the query draws that
        precede each settlement) stays on the sequential engine's
        stream.
    """

    def __init__(self, user_model: UserModel, pricing: PricingRule,
                 accounts: AccountBook, num_slots: int,
                 rng: np.random.Generator):
        self.user_model = user_model
        self.pricing = pricing
        self.accounts = accounts
        self.num_slots = num_slots
        self.rng = rng
        self.charge_cap_fn: Callable[[int], float] | None = None
        """Optional per-advertiser charge ceiling, consulted before a
        quote is charged.  The online service's budget lifecycle
        installs its ledger here (``cap = remaining balance``) so a
        winner's final charge is clamped to what it can still pay —
        the "partial final charge" half of the charge-then-pause
        exhaustion policy.  The clamped amount is what flows
        *everywhere*: provider revenue, the account book, the record's
        prices, and the winner's own pacing-state notification.
        ``None`` (the default, and every fixed-population engine)
        charges quotes unclamped."""

    @classmethod
    def build(cls, click_model: ClickModel,
              purchase_model: PurchaseModel, num_slots: int, seed: int,
              pricing: PricingRule | None = None) -> "AuctionSettler":
        """The one place a settlement stack is assembled: user model,
        pricing rule (GSP unless given), a fresh account book, the
        decision RNG seeded with ``seed``."""
        return cls(UserModel(click_model, purchase_model),
                   pricing or GeneralizedSecondPrice(), AccountBook(),
                   num_slots, np.random.default_rng(seed))

    def settle_slot_lists(self, auction_id: int, keyword: str,
                          lists: SlotLists, bids: np.ndarray,
                          click_probs: np.ndarray, *,
                          eval_seconds: float, wd_seconds: float,
                          num_candidates: int, notify_fn: NotifyFn,
                          wd_stats: dict | None = None
                          ) -> AuctionRecord:
        """The one served ``rh`` / ``rhtalu`` tail: per-slot top lists
        in, reduced Hungarian and GSP out — O(poly k), whatever
        produced the lists.

        ``lists`` are ``num_slots + 1`` deep (the matching reads the
        top-k prefixes, GSP's rival scan one entry more); ``bids`` and
        ``click_probs`` are indexed by the ids the lists carry.
        ``wd_seconds`` is the time spent producing the lists; the
        matching's is added here.
        """
        start = time_module.perf_counter()
        matching = match_slot_lists(lists, self.num_slots)
        allocation = allocation_from_matching(matching, self.num_slots)
        quote_fn = partial(SlotListSecondPrice.quote_from_lists,
                           lists.values, lists.ids, bids, click_probs)
        wd_seconds += time_module.perf_counter() - start
        expected = 0.0 + matching.total_weight  # zero unassigned baseline
        return self.settle(
            auction_id, Query(text=keyword), allocation.slot_of,
            matching, expected, weights=None, bids=bids,
            eval_seconds=eval_seconds,
            wd_seconds=wd_seconds, num_candidates=num_candidates,
            notify_fn=notify_fn, quote_fn=quote_fn, wd_stats=wd_stats)

    def settle_subset(self, auction_id: int, keyword: str,
                      wd: SubsetWdResult, *, eval_seconds: float,
                      wd_seconds: float, notify_fn: NotifyFn,
                      wd_stats: dict | None = None) -> AuctionRecord:
        """The served full-matrix (``lp`` / ``hungarian``) tail: settle
        a :class:`~repro.core.winner_determination.SubsetSolver` result
        — subset-local rows, priced by the full-matrix rule on the
        subset's weights, translated back through its id map."""
        return self.settle(
            auction_id, Query(text=keyword), wd.slot_of, wd.matching,
            wd.expected_revenue, weights=wd.weights,
            bids=wd.candidate_bids, eval_seconds=eval_seconds,
            wd_seconds=wd_seconds, num_candidates=len(wd.id_map),
            notify_fn=notify_fn, id_map=wd.id_map,
            click_rows=wd.click_rows, wd_stats=wd_stats)

    def settle(self, auction_id: int, query: Query,
               slot_of: Mapping[int, int], matching: MatchingResult,
               expected_revenue: float, weights: np.ndarray | None,
               bids: np.ndarray, eval_seconds: float,
               wd_seconds: float, num_candidates: int,
               notify_fn: NotifyFn,
               id_map: list[int] | None = None,
               click_rows: np.ndarray | None = None,
               quote_fn: Callable[[MatchingResult], list[PriceQuote]]
               | None = None,
               wd_stats: dict | None = None) -> AuctionRecord:
        """One settlement: sample the user, price, charge, notify.

        ``matching`` pairs (and ``weights``/``bids``/``click_rows``
        rows) may be subset-local when ``id_map`` translates rows to
        advertiser ids — the live-subset solve of :meth:`settle_subset`
        — or global when ``id_map`` is ``None``.  ``quote_fn``, when
        given, replaces ``self.pricing.quote`` (the ``rh`` / ``rhtalu``
        leaf paths price from per-slot rival lists instead of a full
        matrix, and hold no ``weights`` at all); it must
        produce quotes equal to the pricing rule's.  ``wd_stats``
        is stamped on the record for the phase profiler (parallel
        winner-determination accounting).
        """
        settle_start = time_module.perf_counter()
        allocation = Allocation(num_slots=self.num_slots,
                                slot_of=dict(slot_of))
        outcome = self.user_model.sample(allocation, self.rng)

        if click_rows is not None:
            click_probs = click_rows
        elif id_map is not None:
            click_probs = self.user_model.click_model.as_matrix()[
                id_map, :]
        else:
            click_probs = self.user_model.click_model.as_matrix()
        price_start = time_module.perf_counter()
        if quote_fn is not None:
            quotes = quote_fn(matching)
        else:
            quotes = self.pricing.quote(weights, bids, click_probs,
                                        matching)
        price_seconds = time_module.perf_counter() - price_start

        realized = 0.0
        prices: dict[int, float] = {}
        for quote in quotes:
            advertiser = (id_map[quote.advertiser] if id_map is not None
                          else quote.advertiser)
            self.accounts.record_impression(advertiser)
            charge = quote.per_impression
            clicked = advertiser in outcome.clicked
            purchased = advertiser in outcome.purchased
            if clicked:
                self.accounts.record_click(advertiser)
                charge += quote.per_click
            if purchased:
                self.accounts.record_purchase(advertiser)
            if charge > 0 and self.charge_cap_fn is not None:
                cap = self.charge_cap_fn(advertiser)
                if charge > cap:
                    charge = cap if cap > 0 else 0.0
            if charge > 0:
                self.accounts.charge(advertiser, charge)
                realized += charge
            prices[advertiser] = charge
            notify_fn(advertiser, allocation.slot_for(advertiser),
                      clicked, purchased, charge)

        settle_seconds = (time_module.perf_counter() - settle_start
                          - price_seconds)
        # Losing programs are not notified: nothing observable happened
        # to them (Section IV's premise that only winners change state).
        return AuctionRecord(
            auction_id=auction_id,
            keyword=query.text,
            allocation=allocation,
            outcome=outcome,
            expected_revenue=expected_revenue,
            realized_revenue=realized,
            eval_seconds=eval_seconds,
            wd_seconds=wd_seconds,
            num_candidates=num_candidates,
            prices=prices,
            price_seconds=price_seconds,
            settle_seconds=settle_seconds,
            wd_stats=wd_stats,
        )
