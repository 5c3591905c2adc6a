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

The engine keeps per-phase wall-clock timings in every
:class:`~repro.auction.events.AuctionRecord`; the Figure 12/13 benchmark
harness is a thin loop over :meth:`AuctionEngine.run_auction`.
"""

from __future__ import annotations

import time as time_module
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.auction.events import AuctionRecord
from repro.auction.pricing import PricingRule
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
from repro.lang.formula import Atom
from repro.lang.predicates import ClickPredicate
from repro.matching.lp import require_scipy
from repro.matching.types import MatchingResult
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
        self.last_batch_stats = None
        self.interaction_log = (
            InteractionLog(click_model.num_advertisers,
                           click_model.num_slots)
            if config.record_log else None)

    # -- main loop ------------------------------------------------------------

    def run(self, count: int) -> list[AuctionRecord]:
        """Run ``count`` auctions and return their records."""
        return [self.run_auction() for _ in range(count)]

    def run_batch(self, count: int) -> list[AuctionRecord]:
        """Run ``count`` auctions through the batched pipeline.

        Produces records bit-identical to :meth:`run` from the same
        engine state and seed (the equivalence the batch tests assert),
        but amortizes per-auction overhead across the stream: program
        evaluation and notification folding run as vectorized kernels
        over the whole population (:class:`~repro.auction.batch
        .PacerArrays`), and revenue/weight buffers are allocated once
        per keyword/candidate-set group and refilled in place.

        RHTALU engines (whose evaluator state is array-backed on every
        path) and populations the planner cannot vectorize (non-pacer
        programs, multi-row or non-``Click`` bids) run the sequential
        per-auction loop.  Grouping statistics of the last call are
        kept in :attr:`last_batch_stats` (``None`` after a
        non-vectorizable fallback).
        """
        from repro.auction.batch import BatchPlanner, BatchStats

        planner = BatchPlanner.for_engine(self)
        records = []
        if planner is None:
            # The lazy evaluator's array state is live for run() too,
            # so an RHTALU batch is the sequential loop plus the
            # grouping accounting; a population the planner cannot
            # vectorize runs the same loop without it.
            stats = (BatchStats() if self.config.method == "rhtalu"
                     else None)
            self.last_batch_stats = stats
            for _ in range(count):
                record = self.run_auction()
                if stats is not None:
                    stats.observe(record.keyword)
                records.append(record)
            return records
        self.last_batch_stats = planner.stats
        try:
            for _ in range(count):
                record = self._run_batched_auction(planner)
                if self.interaction_log is not None:
                    self.interaction_log.record_outcome(record.outcome)
                records.append(record)
        finally:
            # Keep program objects authoritative even on mid-batch
            # errors, so sequential runs can always resume.
            planner.arrays.sync_to_programs()
        return records

    def _run_batched_auction(self, planner) -> AuctionRecord:
        """One auction through the vectorized eager pipeline."""
        self.auction_id += 1
        now = float(self.auction_id)
        query = self.query_source(self.rng)
        plan = planner.plan_for(query.text)

        start = time_module.perf_counter()
        bids = planner.arrays.evaluate(query.text, now, out=plan.bid_out)
        eval_seconds = time_module.perf_counter() - start

        start = time_module.perf_counter()
        revenue = click_bid_revenue_matrix(bids, self.click_model,
                                           out=plan.revenue)
        weights = revenue.adjusted(out=plan.adjusted)
        result, wd_stats = self._solve_eager(revenue, weights)
        wd_seconds = time_module.perf_counter() - start

        arrays = planner.arrays

        def notify(advertiser: int, slot: int | None, clicked: bool,
                   purchased: bool, charge: float) -> None:
            arrays.fold_notification(advertiser, query.text, clicked,
                                     charge)

        return self.settler.settle(
            self.auction_id, query, result.allocation.slot_of,
            result.matching, result.expected_revenue, weights, bids,
            eval_seconds, wd_seconds, num_candidates=weights.shape[0],
            notify_fn=notify, wd_stats=wd_stats)

    def run_auction(self) -> AuctionRecord:
        """One full pass through the six-step protocol."""
        self.auction_id += 1
        now = float(self.auction_id)
        query = self.query_source(self.rng)

        if self.config.method == "rhtalu":
            record = self._run_rhtalu(query, now)
        else:
            record = self._run_eager(query, now)

        if self.interaction_log is not None:
            self.interaction_log.record_outcome(record.outcome)
        return record

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
            notify_fn=self._notifier(query, now), wd_stats=wd_stats)

    # -- RHTALU path -------------------------------------------------------------

    def _run_rhtalu(self, query: Query, now: float) -> AuctionRecord:
        assert self.rhtalu is not None
        start = time_module.perf_counter()
        result = self.rhtalu.run_auction(query.text, now)
        wd_seconds = time_module.perf_counter() - start

        # The evaluator hands back its candidate-aligned buffers (bids,
        # click rows, weights) — nothing is recomputed per candidate.
        candidates = list(result.candidates)
        local_index = {advertiser: row
                       for row, advertiser in enumerate(candidates)}
        local_pairs = tuple((local_index[a], col)
                            for a, col in result.matching.pairs)
        local_matching = MatchingResult(
            pairs=local_pairs, total_weight=result.matching.total_weight)

        return self.settler.settle(
            self.auction_id, query, result.allocation.slot_of,
            local_matching, result.expected_revenue, result.weights,
            result.candidate_bids, eval_seconds=0.0,
            wd_seconds=wd_seconds, num_candidates=len(candidates),
            notify_fn=self._notifier(query, now), id_map=candidates,
            click_rows=result.candidate_clicks)

    # -- notification ------------------------------------------------------------

    def _notifier(self, query: Query, now: float) -> NotifyFn:
        """The engine's own settlement callback: fold each win back
        into the lazy evaluator, or notify the winner's program."""

        def notify(advertiser: int, slot: int | None, clicked: bool,
                   purchased: bool, charge: float) -> None:
            if self.config.method == "rhtalu":
                self.rhtalu.record_win(advertiser, charge, now)
                return
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
            formula = row.formula
            if (isinstance(formula, Atom)
                    and isinstance(formula.predicate, ClickPredicate)
                    and formula.predicate.advertiser is None):
                bids[advertiser] += row.value
            else:
                return None
    return bids
