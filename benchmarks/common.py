"""Shared builders for the benchmark suite.

Everything uses the Section V paper workload (15 slots, 10 keywords, ROI
pacing bidders) at parameterised advertiser counts.  Engines are built
fresh per measurement so state evolution inside one measurement reflects
a real auction sequence, while measurements across methods start from
identical seeds.
"""

from __future__ import annotations

from repro.auction import AuctionEngine
from repro.workloads import PaperWorkload, PaperWorkloadConfig

WORKLOAD_SEED = 1
ENGINE_SEED = 2


def build_workload(num_advertisers: int,
                   num_slots: int = 15,
                   num_keywords: int = 10) -> PaperWorkload:
    return PaperWorkload(PaperWorkloadConfig(
        num_advertisers=num_advertisers, num_slots=num_slots,
        num_keywords=num_keywords, seed=WORKLOAD_SEED))


def build_engine(method: str, num_advertisers: int,
                 num_slots: int = 15,
                 num_keywords: int = 10) -> AuctionEngine:
    workload = build_workload(num_advertisers, num_slots, num_keywords)
    return workload.build_engine(method, engine_seed=ENGINE_SEED)
