"""Matching substrate: assignment solvers and reductions (Section III).

From-scratch implementations of every allocation algorithm the paper
uses or compares against: the Hungarian algorithm (methods H and RH), the
winner-determination LP with both HiGHS and a from-scratch simplex, the
incumbent separable allocator, the top-k graph reduction, the slot-list
serving kernel built on it, the simulated parallel tree network,
brute-force oracles, and the Theorem 3 hardness gadget.
"""

from repro.matching.auction_algorithm import (
    auction_matching,
    optimality_slack,
)
from repro.matching.brute_force import (
    InstanceTooLargeError,
    brute_force_allocation,
    brute_force_matching,
    enumerate_allocations,
)
from repro.matching.feedback_arc import (
    FeedbackArcInstance,
    above_event,
    best_allocation_by_enumeration,
    max_weighted_forward_edges,
)
from repro.matching.greedy_separable import separable_matching, top_advertisers
from repro.matching.hungarian import (
    HungarianError,
    max_weight_matching,
    min_cost_assignment,
)
from repro.matching.lp import (
    LpSolution,
    LpSolveError,
    build_constraints,
    lp_matching,
)
from repro.matching.reduction import (
    ReducedGraph,
    reduce_graph,
    reduced_matching,
    top_k_for_slot,
)
from repro.matching.simplex import (
    SimplexError,
    SimplexResult,
    UnboundedError,
    solve_lp_maximize,
)
from repro.matching.slot_lists import (
    SlotLists,
    match_slot_lists,
    merge_slot_lists,
    select_slot_lists,
)
from repro.matching.tree_network import (
    TreeAggregationResult,
    TreeAggregationStats,
    merge_top_k,
    tree_aggregate,
    tree_matching,
)
from repro.matching.types import MatcherStats, MatchingResult

__all__ = [
    "FeedbackArcInstance",
    "HungarianError",
    "InstanceTooLargeError",
    "LpSolution",
    "LpSolveError",
    "MatcherStats",
    "MatchingResult",
    "ReducedGraph",
    "SimplexError",
    "SimplexResult",
    "SlotLists",
    "TreeAggregationResult",
    "TreeAggregationStats",
    "UnboundedError",
    "above_event",
    "auction_matching",
    "best_allocation_by_enumeration",
    "brute_force_allocation",
    "brute_force_matching",
    "build_constraints",
    "enumerate_allocations",
    "lp_matching",
    "match_slot_lists",
    "max_weight_matching",
    "max_weighted_forward_edges",
    "merge_slot_lists",
    "merge_top_k",
    "min_cost_assignment",
    "optimality_slack",
    "reduce_graph",
    "reduced_matching",
    "select_slot_lists",
    "separable_matching",
    "solve_lp_maximize",
    "top_advertisers",
    "top_k_for_slot",
    "tree_aggregate",
    "tree_matching",
]
