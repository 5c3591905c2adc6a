"""Core winner determination (Section III): the paper's contribution.

Revenue-matrix construction (Theorem 2's table), the LP / Hungarian /
reduced-Hungarian / separable / brute-force solver methods, the 2^k
heavyweight-layout algorithm of Section III-F, exact solvers for the
intractable 2-dependent fragment, and result validation.
"""

from repro.core.hardness import (
    UnsupportedHardBidError,
    exact_slot_only_wd,
    slot_only,
)
from repro.core.parallel import (
    ParallelWdResult,
    parallel_speedup_model,
    solve_parallel,
)
from repro.core.heavyweight_wd import (
    HeavyweightBidError,
    HeavyweightWdResult,
    HeavyweightWdStats,
    determine_winners_heavyweight,
    expected_revenue_of_allocation,
)
from repro.core.revenue import (
    RevenueMatrix,
    build_revenue_matrix,
    click_bid_revenue_matrix,
    slot_click_bid_revenue_matrix,
)
from repro.core.validation import (
    WdInvariantError,
    check_result,
    results_agree,
)
from repro.core.winner_determination import (
    METHODS,
    Method,
    SubsetSolver,
    SubsetWdResult,
    WdResult,
    allocation_from_matching,
    determine_winners,
    solve,
    solve_on_subset,
)

__all__ = [
    "METHODS",
    "Method",
    "HeavyweightBidError",
    "ParallelWdResult",
    "HeavyweightWdResult",
    "HeavyweightWdStats",
    "RevenueMatrix",
    "UnsupportedHardBidError",
    "WdInvariantError",
    "WdResult",
    "allocation_from_matching",
    "build_revenue_matrix",
    "check_result",
    "click_bid_revenue_matrix",
    "determine_winners",
    "determine_winners_heavyweight",
    "exact_slot_only_wd",
    "expected_revenue_of_allocation",
    "parallel_speedup_model",
    "SubsetSolver",
    "SubsetWdResult",
    "results_agree",
    "solve_on_subset",
    "solve_parallel",
    "slot_click_bid_revenue_matrix",
    "slot_only",
]
