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
3. hands the per-slot top lists, with the bids the walk read, to the
   tail every served method shares (:class:`~repro.runtime.executor
   .MergeTail`): the list-driven Hungarian of
   :mod:`repro.matching.slot_lists` — the kernel method RH uses — and
   GSP priced from the same lists.

The result is equivalent to RH on eagerly-evaluated programs (same
expected revenue; tests verify), at a per-auction cost that barely grows
with n — the Figure 13 effect, now with the constant factor of array
kernels instead of per-item Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.evaluation.pacer_arrays import LazyPacerArrays
from repro.evaluation.sorted_index import ColumnArgsortIndex
from repro.evaluation.threshold import product_top_k_all_slots
from repro.matching.slot_lists import SlotLists

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.messages import ControlNotice


@dataclass(frozen=True)
class RhtaluScanResult:
    """The candidate-selection half of an RHTALU auction.

    What the threshold algorithm alone determines: the per-slot top
    lists, the effective bids of the ids they hold, and the access
    accounting — *before* any matching is solved.  This is the unit of
    work every RHTALU leaf performs (:class:`~repro.runtime.worker
    .RhtaluShard`): leaves scan, :class:`~repro.runtime.executor
    .MergeTail` merges slot lists, matches and prices.
    """

    keyword: str
    time: float
    slot_lists: SlotLists
    """Per slot, the top-``top_depth`` advertiser ids by bid x click
    score (ties toward the lower id), with those scores."""
    slot_bids: np.ndarray
    """The effective bid of each id in ``slot_lists`` (same shape), as
    the walk read it."""
    sequential_count: int
    random_count: int


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
        # Preallocated TA score histories, reused by every scan.
        self._a_scores = np.empty(matrix.shape)
        self._b_scores = np.empty(matrix.shape)

    def scan_auction(self, keyword: str, time: float) -> RhtaluScanResult:
        """Advance state and select every slot's top list by TA.

        Everything that depends only on this evaluator's advertiser
        population; the matching and pricing over the lists are the
        tail's (:class:`~repro.runtime.executor.MergeTail`), whether
        one leaf feeds it or many.
        """
        source = self.state.begin_auction(keyword, time)
        selection = product_top_k_all_slots(
            self.slot_index, source.ids_desc, source.values_desc,
            source.rank, source.eff, self.top_depth, self.block_size,
            self._a_scores, self._b_scores)
        return RhtaluScanResult(
            keyword=keyword,
            time=time,
            slot_lists=SlotLists(ids=selection.slot_ids,
                                 values=selection.slot_values),
            slot_bids=source.eff[selection.slot_ids],
            sequential_count=selection.sequential_count,
            random_count=selection.random_count,
        )

    def record_win(self, advertiser: int, price: float,
                   time: float) -> None:
        """Forward a winner's charge to the lazy state."""
        self.state.record_win(advertiser, price, time)

    # -- population changes ---------------------------------------------

    def join_many(self, advertisers: np.ndarray, targets: np.ndarray,
                  bids: np.ndarray, maxbids: np.ndarray) -> None:
        """Admit a batch of advertisers: one bulk placement in the
        pacer state, one merge into the click index
        (:meth:`~repro.evaluation.sorted_index.ColumnArgsortIndex
        .insert_many`) — exactly the state one-at-a-time joins would
        have produced.  A fixed population is one such batch over the
        whole universe, a stream join its one-row case, and a served
        run of queued joins one batch of the run."""
        self.state.join_many(advertisers, targets, bids, maxbids)
        self.slot_index.insert_many(advertisers)

    def apply_control(self, notice: "ControlNotice",
                      offset: int = 0) -> None:
        """Apply one churn event: the lazy representation's one ladder
        from :attr:`ControlNotice.kind` to a state operation.

        Every host — the in-process service backend, the RHTALU shard —
        changes its population through this method.  ``offset``
        translates the notice's global advertiser id into this
        evaluator's row (a shard's ``lo``).  A join is
        :meth:`join_many`'s one-row case.  Pacer placement and the
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
            self.join_many(np.array([advertiser]),
                           np.array([notice.target]),
                           notice.bids[None, :], notice.maxbids[None, :])
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
        preallocated TA buffers.  The online service's
        ``rebuild`` maintenance strategy calls this after every control
        event; the incremental strategy must match its auction outcomes
        bit for bit (the stream test suite's oracle).
        """
        state = LazyPacerArrays.from_capture(self.state.capture())
        return RhtaluEvaluator(self.click_matrix, state,
                               top_depth=self.top_depth,
                               block_size=self.block_size)
