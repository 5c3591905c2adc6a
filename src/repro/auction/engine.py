"""The end-to-end auction engine (the six-step protocol of Section I-B).

Per auction: a query arrives, bidding programs are evaluated (eagerly, or
lazily via RHTALU), winners are determined by the configured method, the
simulated user clicks/purchases, the pricing rule charges winners, and
programs are notified — closing the loop that drives dynamic strategies.

Methods:

* ``"lp"`` / ``"hungarian"`` / ``"rh"`` / ``"separable"`` / ``"brute"`` —
  eager: every program runs, then the revenue matrix is solved by
  :func:`repro.core.solve`;
* ``"rhtalu"`` — lazy: program state advances by logical updates and only
  the threshold algorithm's candidates are touched (requires a
  :class:`~repro.evaluation.evaluator.RhtaluEvaluator`).

Apart from that per-program eager loop, the engine settles every
auction the way the served paths do: one leaf of
:mod:`repro.runtime.worker` spanning the population answers the
auction's task, and :class:`~repro.runtime.executor.MergeTail` matches,
prices and settles its reply.  RHTALU always runs so (a
:class:`~repro.runtime.worker.RhtaluShard` around the engine's
evaluator); :meth:`AuctionEngine.run_batch` runs a pacer population so
(an eager leaf over the engine's own :class:`~repro.auction.batch
.PacerArrays`).

The engine keeps per-phase timings in every
:class:`~repro.auction.events.AuctionRecord`; the Figure 12/13 benchmark
harness is a thin loop over :meth:`AuctionEngine.run_auction`.
"""

from __future__ import annotations

import time as time_module
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.auction.batch import PacerArrays, ShardEvalState, is_bare_click
from repro.auction.events import AuctionRecord
from repro.auction.pricing import GeneralizedSecondPrice, PricingRule
from repro.auction.settlement import AuctionSettler, NotifyFn
from repro.core.parallel import solve_parallel
from repro.core.revenue import (
    RevenueMatrix,
    build_revenue_matrix,
    click_bid_revenue_matrix,
)
from repro.core.winner_determination import Method, WdResult, solve
from repro.evaluation.evaluator import RhtaluEvaluator
from repro.lang.bids import BidsTable
from repro.matching.lp import require_scipy
from repro.probability.click_models import ClickModel
from repro.probability.estimation import InteractionLog
from repro.probability.purchase_models import PurchaseModel
from repro.strategies.base import (
    AuctionContext,
    BiddingProgram,
    ProgramNotification,
    Query,
)

EngineMethod = Method | str  # core methods plus "rhtalu"

LeafAuction = Callable[[str, float], AuctionRecord]
"""Settles one auction ``(keyword, time)`` on a served leaf."""


@dataclass
class EngineConfig:
    """Engine knobs.

    ``record_log`` additionally feeds an :class:`InteractionLog` for the
    probability-estimation pipeline.

    ``wd_leaves``, when set (method ``rh`` only), routes winner
    determination through the Section III-E tree network
    (:func:`repro.core.parallel.solve_parallel`): the top-k scan runs
    over that many simulated leaf shards and the per-auction parallel
    accounting (max leaf work, critical-path work) lands on
    ``AuctionRecord.wd_stats`` for the phase profiler.  The allocation
    is bit-identical to plain ``rh``.
    """

    num_slots: int
    method: EngineMethod = "rh"
    seed: int = 0
    record_log: bool = False
    wd_leaves: int | None = None

    def __post_init__(self) -> None:
        if self.wd_leaves is None:
            return
        if self.method != "rh":
            raise ValueError(
                f"wd_leaves applies to method 'rh' only (the tree "
                f"network shards the RH top-k scan), got method "
                f"{self.method!r}")
        if self.wd_leaves < 1:
            raise ValueError(
                f"wd_leaves must be >= 1, got {self.wd_leaves}")


class AuctionEngine:
    """Runs auctions for a fixed advertiser population."""

    def __init__(self,
                 click_model: ClickModel,
                 purchase_model: PurchaseModel,
                 query_source: Callable[[np.random.Generator], Query],
                 config: EngineConfig,
                 programs: list[BiddingProgram] | None = None,
                 rhtalu: RhtaluEvaluator | None = None,
                 pricing: PricingRule | None = None):
        if config.method == "rhtalu":
            if rhtalu is None:
                raise ValueError(
                    "method 'rhtalu' requires an RhtaluEvaluator")
        elif not programs:
            raise ValueError(
                f"method {config.method!r} requires bidding programs")
        if config.method == "lp":
            require_scipy()  # fail here, not at the first auction
        self.click_model = click_model
        self.purchase_model = purchase_model
        self.query_source = query_source
        self.config = config
        self.programs = programs or []
        self.rhtalu = rhtalu
        self.settler = AuctionSettler.build(
            click_model, purchase_model, config.num_slots, config.seed,
            pricing)
        self.pricing = self.settler.pricing
        self.rng = self.settler.rng
        self.accounts = self.settler.accounts
        self.auction_id = 0
        self.interaction_log = (
            InteractionLog(click_model.num_advertisers,
                           click_model.num_slots)
            if config.record_log else None)
        self._tail = None
        self._rhtalu_leaf: LeafAuction | None = None
        if config.method == "rhtalu":
            if type(self.pricing) is not GeneralizedSecondPrice:
                raise ValueError(
                    "method 'rhtalu' prices from its slot lists, by "
                    f"GSP only; got {type(self.pricing).__name__}")
            self._rhtalu_leaf = self._on_leaf(rhtalu)

    # -- main loop ------------------------------------------------------------

    def run(self, count: int) -> list[AuctionRecord]:
        """Run ``count`` auctions and return their records."""
        return [self.run_auction() for _ in range(count)]

    def run_batch(self, count: int) -> list[AuctionRecord]:
        """Run ``count`` auctions, a pacer population on the served leaf.

        Produces records bit-identical to :meth:`run` from the same
        engine state and seed (the equivalence the batch tests assert),
        but replaces the per-program loop with the leaf the served paths
        run: program evaluation and notification folding are vectorized
        kernels over the whole population (the engine's own
        :class:`~repro.auction.batch.PacerArrays`, written back to the
        program objects at the end), and winner determination, pricing
        and settlement are the served tail.

        Everything else — RHTALU (already on its leaf in :meth:`run`),
        populations the mirror cannot hold, the methods and pricing
        rules the tail does not run, ``wd_leaves`` — runs :meth:`run`.
        """
        arrays = self._batch_arrays()
        if arrays is None:
            return self.run(count)
        leaf = self._on_leaf(ShardEvalState(
            self.click_model.as_matrix(), self.config.num_slots + 1,
            arrays.keywords, arrays=arrays))
        try:
            return [self._auction(leaf) for _ in range(count)]
        finally:
            # Keep program objects authoritative even on mid-batch
            # errors, so sequential runs can always resume.
            arrays.sync_to_programs()

    def batches_on_leaf(self) -> bool:
        """Whether :meth:`run_batch` settles every auction as a leaf's
        reply through the served tail (``False``: it is :meth:`run`'s
        per-program loop)."""
        return (self.config.method == "rhtalu"
                or self._batch_arrays() is not None)

    def _batch_arrays(self) -> PacerArrays | None:
        """The mirror :meth:`run_batch`'s eager leaf holds, or ``None``.

        The tail solves ``rh`` / ``lp`` / ``hungarian`` over every
        advertiser id and prices by GSP, without the tree network's
        accounting (``wd_leaves``); the mirror holds a
        ``SimpleROIPacer`` population with one program per id."""
        num_advertisers = self.click_model.num_advertisers
        if (self.config.method not in ("rh", "lp", "hungarian")
                or self.config.wd_leaves is not None
                or type(self.pricing) is not GeneralizedSecondPrice
                or len(self.programs) != num_advertisers):
            return None
        return PacerArrays.from_programs(self.programs, num_advertisers)

    def run_auction(self) -> AuctionRecord:
        """One full pass through the six-step protocol."""
        return self._auction(self._rhtalu_leaf)

    def _auction(self, leaf: "LeafAuction | None") -> AuctionRecord:
        """One auction: draw the query, settle it — on ``leaf`` through
        the served tail, or by the per-program eager loop when ``leaf``
        is ``None`` — and log the outcome."""
        self.auction_id += 1
        now = float(self.auction_id)
        query = self.query_source(self.rng)
        if leaf is None:
            record = self._run_eager(query, now)
        else:
            record = leaf(query.text, now)
        if self.interaction_log is not None:
            self.interaction_log.record_outcome(record.outcome)
        return record

    # -- the served leaf and tail ----------------------------------------------

    def _on_leaf(self, state: "ShardEvalState | RhtaluEvaluator"
                 ) -> "LeafAuction":
        """Settle auctions on the served leaf kind around ``state``.

        The leaf spans the whole population; the engine's one
        :class:`~repro.runtime.executor.MergeTail` (fixed population:
        everyone live; no tree accounting) settles its reply to each
        auction's task, and each win folds straight back into the leaf
        — what the in-process service does per query.
        """
        # Deferred: the runtime package imports this module.
        from repro.runtime.executor import MergeTail
        from repro.runtime.messages import ShardTask
        from repro.runtime.worker import (
            EagerScanShard,
            GatherShard,
            RhtaluShard,
        )

        if isinstance(state, RhtaluEvaluator):
            leaf, click_matrix = RhtaluShard(state), state.click_matrix
        else:
            kind = EagerScanShard if self.config.method == "rh" \
                else GatherShard
            leaf, click_matrix = kind(state), state.click_rows
        if self._tail is None:
            self._tail = MergeTail(self.settler, click_matrix,
                                   self.config.method, capture=None,
                                   parallel_stats=False)
        tail = self._tail

        def settle(keyword: str, now: float) -> AuctionRecord:
            auction_id = self.auction_id
            reply = leaf.handle(ShardTask(auction_id=auction_id,
                                          keyword=keyword, time=now))

            def notify(advertiser: int, slot: int | None, clicked: bool,
                       purchased: bool, charge: float) -> None:
                leaf.fold(advertiser, keyword, now, clicked, charge)

            return tail.settle(auction_id, keyword, [reply], notify)

        return settle

    # -- eager path ------------------------------------------------------------

    def _solve_eager(self, revenue: RevenueMatrix,
                     adjusted: np.ndarray
                     ) -> tuple[WdResult, dict | None]:
        """Winner determination, optionally over the tree network.

        With ``wd_leaves`` configured (method ``rh``), the top-k scan
        runs sharded over the simulated tree and the run's parallel
        accounting is returned alongside the (identical) result.
        """
        if (self.config.wd_leaves is not None
                and self.config.method == "rh"):
            parallel = solve_parallel(revenue, self.config.wd_leaves,
                                      adjusted=adjusted)
            return parallel.result, parallel.stats.as_dict()
        return solve(revenue, method=self.config.method,
                     adjusted=adjusted), None

    def _run_eager(self, query: Query, now: float) -> AuctionRecord:
        ctx = AuctionContext(auction_id=self.auction_id, time=now,
                             query=query,
                             num_slots=self.config.num_slots)
        start = time_module.perf_counter()
        tables = {program.advertiser_id: program.bid(ctx)
                  for program in self.programs}
        eval_seconds = time_module.perf_counter() - start

        start = time_module.perf_counter()
        bids = extract_click_bids(tables, self.click_model.num_advertisers)
        if bids is not None:
            revenue = click_bid_revenue_matrix(bids, self.click_model)
        else:
            revenue = build_revenue_matrix(tables, self.click_model,
                                           self.purchase_model)
        weights = revenue.adjusted()
        result, wd_stats = self._solve_eager(revenue, weights)
        wd_seconds = time_module.perf_counter() - start
        if bids is None:
            bids = np.array([tables[i].total_declared_value()
                             if i in tables else 0.0
                             for i in range(weights.shape[0])])
        return self.settler.settle(
            self.auction_id, query, result.allocation.slot_of,
            result.matching, result.expected_revenue, weights, bids,
            eval_seconds, wd_seconds, num_candidates=weights.shape[0],
            notify_fn=self._notifier(query), wd_stats=wd_stats)

    # -- notification ------------------------------------------------------------

    def _notifier(self, query: Query) -> NotifyFn:
        """The eager loop's settlement callback: notify the winner's
        program."""

        def notify(advertiser: int, slot: int | None, clicked: bool,
                   purchased: bool, charge: float) -> None:
            notification = ProgramNotification(
                auction_id=self.auction_id,
                keyword=query.text,
                slot=slot,
                clicked=clicked,
                purchased=purchased,
                price_paid=charge,
            )
            for program in self.programs:
                if program.advertiser_id == advertiser:
                    program.notify(notification)
                    return

        return notify


def extract_click_bids(tables: dict[int, BidsTable],
                       num_advertisers: int) -> np.ndarray | None:
    """Detect the single-value-Click-bid special case.

    Returns a dense per-advertiser bid vector when every non-empty table
    consists solely of rows on the bare ``Click`` formula; otherwise
    ``None`` (callers fall back to the general revenue builder).
    """
    bids = np.zeros(num_advertisers)
    for advertiser, table in tables.items():
        for row in table:
            if not is_bare_click(row.formula):
                return None
            bids[advertiser] += row.value
    return bids
