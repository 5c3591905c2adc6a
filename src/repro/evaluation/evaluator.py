"""Method RHTALU: the full Section IV per-auction pipeline, vectorized.

Per auction, instead of running all n bidding programs and scanning all
n·k expected revenues (method RH), RHTALU:

1. advances the lazily-maintained program state
   (:class:`~repro.evaluation.pacer_arrays.LazyPacerArrays`, the
   array form of the dict-backed reference state) — O(1) logical updates
   plus masked kernels only for due triggers and past winners;
2. finds each slot's top-k bidders with the threshold algorithm over two
   sorted sources — a column of the shared argsorted click matrix
   (:class:`~repro.evaluation.sorted_index.ColumnArgsortIndex`) and the
   keyword's merged bid walk — touching only a prefix of each, all
   slots fused into one block kernel
   (:func:`~repro.evaluation.threshold.product_top_k_all_slots`);
3. runs the list-driven Hungarian on the per-slot top-k lists — the
   same :mod:`repro.matching.slot_lists` kernel method RH uses; the
   candidate-aligned bid/click/weight rows pricing reads are refilled
   in preallocated buffers.

The result is equivalent to RH on eagerly-evaluated programs (same
expected revenue; tests verify), at a per-auction cost that barely grows
with n — the Figure 13 effect, now with the constant factor of array
kernels instead of per-item Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.winner_determination import allocation_from_matching
from repro.evaluation.pacer_arrays import LazyPacerArrays
from repro.evaluation.sorted_index import ColumnArgsortIndex
from repro.evaluation.threshold import product_top_k_all_slots
from repro.lang.outcome import Allocation
from repro.matching.slot_lists import SlotLists, match_slot_lists
from repro.matching.types import MatchingResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.messages import ControlNotice


@dataclass(frozen=True)
class RhtaluScanResult:
    """The candidate-selection half of an RHTALU auction.

    What the threshold algorithm alone determines: the per-slot top
    lists, the candidate union with its effective bids, and the access
    accounting — *before* any matching is solved.  This is the unit of
    work a shard worker performs in the multi-process runtime
    (:mod:`repro.runtime`): shards scan, the coordinator merges slot
    lists and matches.  ``candidate_bids`` aliases an evaluator-owned
    buffer valid until the next scan.
    """

    keyword: str
    time: float
    slot_lists: SlotLists
    """Per slot, the top-``top_depth`` advertiser ids by bid x click
    score (ties toward the lower id), with those scores."""
    candidates: np.ndarray
    """Ascending union of the per-slot lists."""
    candidate_bids: np.ndarray
    sequential_count: int
    random_count: int


@dataclass(frozen=True)
class RhtaluAuctionResult:
    """One auction's outcome under RHTALU, with work accounting.

    ``candidate_bids`` / ``candidate_clicks`` / ``weights`` are the
    candidate-aligned arrays pricing reads (rows follow
    ``candidates``); they alias evaluator-owned buffers and are
    valid until the next ``run_auction`` call — callers that need them
    longer must copy.
    """

    allocation: Allocation
    matching: MatchingResult  # pairs are (advertiser, slot_col)
    expected_revenue: float
    candidates: tuple[int, ...]
    sequential_count: int
    random_count: int
    candidate_bids: np.ndarray
    candidate_clicks: np.ndarray
    weights: np.ndarray


class RhtaluEvaluator:
    """Drives RHTALU auctions for the single-value-Click-bid workload.

    Parameters
    ----------
    click_matrix:
        The (n x k) click-probability matrix; its shared argsort becomes
        every slot's static sorted index.
    state:
        The lazily-maintained pacing programs — empty
        (:meth:`LazyPacerArrays.for_universe`) or restored from a
        capture; advertisers then arrive through :meth:`join_many` /
        :meth:`apply_control`, which keep the sorted click index in
        step with the state's membership.
    top_depth:
        Per-slot candidate depth.  k is what matching correctness
        needs; k+1 (the default) additionally guarantees every slot's
        price-setting runner-up is among the candidates, so GSP quotes
        match the eager methods'.
    block_size:
        Sorted-access rounds per kernel step (see
        :func:`~repro.evaluation.threshold.product_top_k_all_slots`).
    """

    def __init__(self, click_matrix: np.ndarray,
                 state: LazyPacerArrays,
                 top_depth: int | None = None,
                 block_size: int = 96):
        matrix = np.asarray(click_matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(
                f"click matrix must be 2-D, got shape {matrix.shape}")
        self.click_matrix = matrix
        self.num_advertisers, self.num_slots = matrix.shape
        if state.num_advertisers != self.num_advertisers:
            raise ValueError(
                f"state covers {state.num_advertisers} advertisers, "
                f"click matrix {self.num_advertisers}")
        self.state = state
        self.top_depth = (self.num_slots + 1 if top_depth is None
                          else top_depth)
        self.block_size = block_size
        # The sorted index covers exactly the advertisers registered in
        # the pacer state; join_many / apply_control keep the two in
        # lockstep.
        self.slot_index = ColumnArgsortIndex(matrix,
                                             members=state.active_ids())
        # Preallocated per-auction buffers: TA score histories, the
        # candidate mask, and the candidate-aligned pricing inputs.
        n, k = matrix.shape
        capacity = max(1, min(n, k * self.top_depth))
        self._a_scores = np.empty((n, k))
        self._b_scores = np.empty((n, k))
        self._candidate_mask = np.zeros(n, dtype=bool)
        self._clicks = np.empty((capacity, k))
        self._bids = np.empty(capacity)
        self._weights = np.empty((capacity, k))

    def scan_auction(self, keyword: str, time: float) -> RhtaluScanResult:
        """Advance state and select candidates by TA (no matching).

        The shardable half of :meth:`run_auction`: everything that
        depends only on this evaluator's advertiser population.  The
        sharded runtime runs one of these per shard per auction and
        merges the slot lists at the coordinator; :meth:`run_auction`
        composes it with the reduced matching for the single-process
        path.
        """
        source = self.state.begin_auction(keyword, time)
        selection = product_top_k_all_slots(
            self.slot_index, source.ids_desc, source.values_desc,
            source.rank, source.eff, self.top_depth, self.block_size,
            self._a_scores, self._b_scores)

        mask = self._candidate_mask
        mask[selection.slot_ids.ravel()] = True
        ordered = np.flatnonzero(mask)
        mask[ordered] = False

        bids = self._bids[:len(ordered)]
        np.take(source.eff, ordered, out=bids)
        return RhtaluScanResult(
            keyword=keyword,
            time=time,
            slot_lists=SlotLists(ids=selection.slot_ids,
                                 values=selection.slot_values),
            candidates=ordered,
            candidate_bids=bids,
            sequential_count=selection.sequential_count,
            random_count=selection.random_count,
        )

    def run_auction(self, keyword: str, time: float) -> RhtaluAuctionResult:
        """Advance state, select candidates by TA, and match."""
        scan = self.scan_auction(keyword, time)
        ordered = scan.candidates
        count = len(ordered)

        clicks = self._clicks[:count]
        np.take(self.click_matrix, ordered, axis=0, out=clicks)
        bids = scan.candidate_bids
        weights = self._weights[:count]
        np.multiply(clicks, bids[:, None], out=weights)

        matching = match_slot_lists(scan.slot_lists, self.num_slots)
        allocation = allocation_from_matching(matching, self.num_slots)
        return RhtaluAuctionResult(
            allocation=allocation,
            matching=matching,
            expected_revenue=matching.total_weight,
            candidates=tuple(ordered.tolist()),
            sequential_count=scan.sequential_count,
            random_count=scan.random_count,
            candidate_bids=bids,
            candidate_clicks=clicks,
            weights=weights,
        )

    def record_win(self, advertiser: int, price: float,
                   time: float) -> None:
        """Forward a winner's charge to the lazy state."""
        self.state.record_win(advertiser, price, time)

    # -- population changes ---------------------------------------------

    def join_many(self, advertisers: np.ndarray, targets: np.ndarray,
                  bids: np.ndarray, maxbids: np.ndarray) -> None:
        """Admit a batch of advertisers (a fixed population is one such
        batch over the whole universe): one bulk placement in the pacer
        state, one fresh argsort of the click index — which is exactly
        the order one-at-a-time splices would have produced."""
        self.state.join_many(advertisers, targets, bids, maxbids)
        self.slot_index = ColumnArgsortIndex(
            self.click_matrix, members=self.state.active_ids())

    def apply_control(self, notice: "ControlNotice",
                      offset: int = 0) -> None:
        """Apply one churn event: the lazy representation's one ladder
        from :attr:`ControlNotice.kind` to a state operation.

        Every host — the in-process service backend, the RHTALU shard —
        changes its population through this method.  ``offset``
        translates the notice's global advertiser id into this
        evaluator's row (a shard's ``lo``).  Pacer placement and the
        argsort-index splice are the two incremental maintenance
        steps; both cost O(members) memmoves instead of the
        O(m log m) re-sorts a rebuild pays.  Bid edits leave the index
        alone (it is bid-independent), and so does the departure of a
        budget-paused advertiser: it left the index when it was paused,
        only its retained pacer capture is discarded.
        """
        advertiser = notice.advertiser - offset
        kind = notice.kind
        if kind == "join":
            self.state.join_many(
                np.array([advertiser]), np.array([notice.target]),
                notice.bids[None, :], notice.maxbids[None, :])
            self.slot_index.insert(advertiser)
        elif kind == "leave":
            indexed = advertiser not in self.state.paused
            self.state.leave(advertiser)
            if indexed:
                self.slot_index.remove(advertiser)
        elif kind == "update":
            self.state.update_bid(advertiser, notice.keyword,
                                  notice.bid, notice.maxbid)
        elif kind == "pause":
            self.state.pause(advertiser)
            self.slot_index.remove(advertiser)
        elif kind == "resume":
            self.state.resume(advertiser)
            self.slot_index.insert(advertiser)
        else:
            raise ValueError(f"unknown control kind {kind!r}")

    def rebuilt(self) -> "RhtaluEvaluator":
        """A from-scratch evaluator over the current primary state.

        Captures the pacer state's primary scalars and re-derives every
        sorted structure — delta-list orders, the argsort index, the
        preallocated TA and matching buffers.  The online service's
        ``rebuild`` maintenance strategy calls this after every control
        event; the incremental strategy must match its auction outcomes
        bit for bit (the stream test suite's oracle).
        """
        state = LazyPacerArrays.from_capture(self.state.capture())
        return RhtaluEvaluator(self.click_matrix, state,
                               top_depth=self.top_depth,
                               block_size=self.block_size)
