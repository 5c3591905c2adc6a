"""The Section V experimental workload, reproduced verbatim.

15 slots; 10 keywords; queries arrive uniformly over keywords with
relevance 1 for the chosen keyword and 0 elsewhere; every bidder runs the
ROI pacing heuristic; per-keyword click values ~ U(0, 50); target spend
rates ~ U(1, bidder's max value); click probabilities drawn per slot from
the [0.1, 0.9] interval partition; a generalisation of GSP charges
clicked winners.

One :class:`PaperWorkload` instance materialises all of it from a seed
and can build every artifact the four methods need: eager program
ensembles (LP/H/RH), the lazy RHTALU evaluator, click models, and the
query stream — all deterministic given the seed, so methods can be
compared on identical auction sequences.  :meth:`PaperWorkload
.pacer_rows` is the population as plain join rows: what a fixed
population bulk-joins into an empty evaluation state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.evaluation.evaluator import RhtaluEvaluator
from repro.evaluation.pacer_arrays import LazyPacerArrays
from repro.probability.click_models import TabularClickModel
from repro.probability.purchase_models import PurchaseModel, no_purchases
from repro.strategies.base import Query
from repro.strategies.roi_equalizer import SimpleROIPacer
from repro.strategies.state import KeywordRecord, ProgramState
from repro.workloads.distributions import (
    interval_click_matrix,
    keyword_click_values,
    target_spend_rates,
)


@dataclass(frozen=True)
class PaperWorkloadConfig:
    """Knobs of the Section V workload (defaults are the paper's)."""

    num_advertisers: int
    num_slots: int = 15
    num_keywords: int = 10
    value_high: float = 50.0
    initial_bid_fraction: float = 0.5
    step: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_advertisers < 1:
            raise ValueError("need at least one advertiser")
        if not 0.0 <= self.initial_bid_fraction <= 1.0:
            raise ValueError("initial_bid_fraction must lie in [0, 1]")


@dataclass
class PaperWorkload:
    """Materialised workload: values, targets, click matrix, keywords."""

    config: PaperWorkloadConfig
    keywords: list[str] = field(init=False)
    values: np.ndarray = field(init=False)
    targets: np.ndarray = field(init=False)
    click_matrix: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.keywords = [f"kw{index}" for index in range(cfg.num_keywords)]
        self.values = keyword_click_values(cfg.num_advertisers,
                                           cfg.num_keywords, rng,
                                           high=cfg.value_high)
        self.targets = target_spend_rates(self.values, rng)
        self.click_matrix = interval_click_matrix(cfg.num_advertisers,
                                                  cfg.num_slots, rng)

    # -- builders ---------------------------------------------------------

    def click_model(self) -> TabularClickModel:
        return TabularClickModel(self.click_matrix)

    def purchase_model(self) -> PurchaseModel:
        """Section V exercises click bids only: no purchases."""
        return no_purchases(self.config.num_advertisers,
                            self.config.num_slots)

    def initial_bid(self, advertiser: int, keyword_index: int) -> float:
        return (self.config.initial_bid_fraction
                * float(self.values[advertiser, keyword_index]))

    def pacer_rows(self, lo: int = 0, hi: int | None = None
                   ) -> tuple[np.ndarray, ...]:
        """Advertisers ``lo..hi-1``'s pacing programs as join rows:
        ``(targets, bids, maxbids, values)``, one row each, one column
        per keyword.

        This is the fixed population in the shape the evaluation state's
        bulk join takes (``PacerArrays.grow_rows``,
        ``RhtaluEvaluator.join_many``).  The multi-process runtime gives
        each worker a contiguous advertiser span; every worker derives
        its rows from the one workload seed, so no state ever crosses a
        process boundary at construction, and the rows are the very
        floats :meth:`build_programs` puts into program objects.
        """
        values = self.values[lo:hi]
        return (self.targets[lo:hi],
                self.config.initial_bid_fraction * values, values,
                values)

    def build_programs(self) -> list[SimpleROIPacer]:
        """The eager ROI-pacer ensemble (methods LP / H / RH)."""
        programs = []
        for advertiser in range(self.config.num_advertisers):
            records = [
                KeywordRecord(
                    text=self.keywords[index],
                    formula="Click",
                    maxbid=float(self.values[advertiser, index]),
                    bid=self.initial_bid(advertiser, index),
                    value_per_click=float(self.values[advertiser, index]),
                )
                for index in range(self.config.num_keywords)
            ]
            state = ProgramState(
                target_spend_rate=float(self.targets[advertiser]),
                keywords=records)
            programs.append(SimpleROIPacer(advertiser, state,
                                           step=self.config.step))
        return programs

    def build_rhtalu(self) -> RhtaluEvaluator:
        """The lazy evaluator (method RHTALU): an empty universe plus
        one bulk join of the whole population."""
        count = self.config.num_advertisers
        evaluator = RhtaluEvaluator(self.click_matrix, LazyPacerArrays(
            count, self.keywords, self.config.step))
        evaluator.join_many(np.arange(count), *self.pacer_rows()[:3])
        return evaluator

    def build_engine(self, method: str, engine_seed: int = 0,
                     record_log: bool = False):
        """A ready-to-run :class:`~repro.auction.engine.AuctionEngine`.

        Wires up the right evaluation artifact for ``method`` — the
        eager program ensemble for LP/H/RH/separable/brute, the lazy
        evaluator for RHTALU — so the CLI, the benchmark suite, and the
        batch-throughput comparison all build engines the same way.
        """
        from repro.auction.engine import AuctionEngine, EngineConfig

        kwargs = dict(
            click_model=self.click_model(),
            purchase_model=self.purchase_model(),
            query_source=self.query_source(),
            config=EngineConfig(num_slots=self.config.num_slots,
                                method=method, seed=engine_seed,
                                record_log=record_log))
        if method == "rhtalu":
            return AuctionEngine(rhtalu=self.build_rhtalu(), **kwargs)
        return AuctionEngine(programs=self.build_programs(), **kwargs)

    def query_source(self):
        """Uniform keyword queries, relevance 1/0 (Section V)."""
        keywords = self.keywords

        def next_query(rng: np.random.Generator) -> Query:
            keyword = keywords[int(rng.integers(len(keywords)))]
            return Query(text=keyword, relevance={keyword: 1.0})

        return next_query
