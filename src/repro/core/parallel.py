"""Parallel winner determination (the Section III-E tree network).

``solve_parallel`` is the distributed-deployment face of method RH: the
top-k scan runs on a simulated binary tree of ``num_leaves`` machines
(each leaf scanning its advertiser shard), the root merges the per-slot
lists and runs the Hungarian on the union.  The allocation is identical
to the serial RH method — a property the tests check — and the returned
stats expose the O((n/p)·k log k + k log p + k^5) decomposition: maximum
leaf work, tree height, and the critical-path work that stands in for
parallel wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.revenue import RevenueMatrix
from repro.core.winner_determination import (
    WdResult,
    allocation_from_matching,
)
from repro.matching.hungarian import max_weight_matching
from repro.matching.tree_network import TreeAggregationStats, tree_aggregate
from repro.matching.types import MatchingResult


@dataclass(frozen=True)
class ParallelWdResult:
    """A winner-determination result plus the parallel-run accounting."""

    result: WdResult
    stats: TreeAggregationStats


def solve_parallel(revenue: RevenueMatrix,
                   num_leaves: int,
                   adjusted: np.ndarray | None = None
                   ) -> ParallelWdResult:
    """Winner determination over a simulated tree of machines.

    Equivalent to ``solve(revenue, method="rh")`` in outcome; differs in
    how the candidate scan is organised (sharded leaves + O(k) merges).
    ``adjusted``, when given, must equal ``revenue.adjusted()`` (the
    engine's eager loop already holds it for pricing);
    solvers treat it as read-only.
    """
    if adjusted is None:
        adjusted = revenue.adjusted()
    aggregation = tree_aggregate(adjusted, num_leaves=num_leaves)
    candidates = list(aggregation.candidate_union())

    if candidates:
        local = max_weight_matching(np.asarray(adjusted)[candidates, :],
                                    allow_unmatched=True, backend="auto")
        pairs = tuple(sorted((candidates[row], col)
                             for row, col in local.pairs))
        matching = MatchingResult(pairs=pairs,
                                  total_weight=local.total_weight)
    else:
        matching = MatchingResult(pairs=(), total_weight=0.0)

    allocation = allocation_from_matching(matching, revenue.num_slots)
    result = WdResult(allocation=allocation, matching=matching,
                      expected_revenue=revenue.baseline()
                      + matching.total_weight,
                      method="rh")
    return ParallelWdResult(result=result, stats=aggregation.stats)


def parallel_speedup_model(num_advertisers: int, num_slots: int,
                           num_leaves: int) -> float:
    """The paper's analytic speedup for the scan phase.

    Serial scan work is ``n·k``; the parallel critical path is
    ``(n/p)·k`` leaf work plus ``k·log2(p)`` merge work.  Returns the
    ratio (>= 1 when parallelism pays).  Useful for choosing p.
    """
    if num_leaves < 1:
        raise ValueError(f"num_leaves must be >= 1, got {num_leaves}")
    serial = num_advertisers * num_slots
    leaf = (num_advertisers / num_leaves) * num_slots
    merge = num_slots * max(np.log2(num_leaves), 0.0) * num_slots
    return float(serial / (leaf + merge))
