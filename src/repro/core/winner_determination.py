"""Winner determination: the four methods of the paper's experiments.

Given a :class:`~repro.core.revenue.RevenueMatrix`, every method computes
the slot allocation maximising expected revenue (assuming advertisers pay
what they bid).  The methods differ only in *how*:

* ``lp``        — the assignment linear program (Section V method LP);
* ``hungarian`` — the Hungarian algorithm on the full bipartite graph
  (method H);
* ``rh``        — the paper's contribution: top-k-per-slot reduction,
  then the Hungarian on the ≤ k² surviving advertisers (method RH);
* ``separable`` — the incumbent O(n log k) sort-based allocator, valid
  only when the adjusted matrix is rank-1 (Section III-C); it verifies
  separability and raises otherwise;
* ``brute``     — exhaustive enumeration, for tiny instances and tests.

RHTALU (method four of the experiments) is not a solver of this module:
it changes how the *candidates and bids* are produced (Section IV) and
lives in :mod:`repro.evaluation.evaluator`; its final matching step is
the same reduced Hungarian.

Every ``rh`` solve here — :func:`solve`, :class:`SubsetSolver` — is the
slot-list kernel of :mod:`repro.matching.slot_lists`: one vectorised
top-list scan, then the Hungarian driven by those lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from repro.lang.bids import BidsTable
from repro.lang.outcome import Allocation
from repro.lang.predicates import AdvertiserId
from repro.matching.brute_force import brute_force_matching
from repro.matching.hungarian import max_weight_matching
from repro.matching.lp import lp_matching
from repro.matching.greedy_separable import separable_matching
from repro.matching.slot_lists import (
    SlotLists,
    match_slot_lists,
    select_slot_lists,
)
from repro.matching.types import MatchingResult
from repro.probability.click_models import ClickModel
from repro.probability.separable import NotSeparableError, factorize
from repro.probability.purchase_models import PurchaseModel
from repro.core.revenue import RevenueMatrix, build_revenue_matrix

Method = Literal["lp", "hungarian", "rh", "separable", "brute"]

METHODS: tuple[Method, ...] = ("lp", "hungarian", "rh", "separable",
                               "brute")


@dataclass(frozen=True)
class WdResult:
    """Outcome of winner determination.

    ``expected_revenue`` includes the unassigned baseline, i.e. it is the
    true objective value, not just the matching weight.
    """

    allocation: Allocation
    matching: MatchingResult
    expected_revenue: float
    method: Method


def solve(revenue: RevenueMatrix, method: Method = "rh",
          adjusted: np.ndarray | None = None) -> WdResult:
    """Run one winner-determination method on a revenue matrix.

    ``adjusted``, when given, must equal ``revenue.adjusted()`` — callers
    that already hold the adjusted weights (the batch pipeline keeps them
    in a per-group buffer) pass them in to skip recomputing the n-by-k
    subtraction.  Solvers treat it as read-only.
    """
    if adjusted is None:
        adjusted = revenue.adjusted()
    if method == "lp":
        matching = lp_matching(adjusted).matching
    elif method == "hungarian":
        matching = max_weight_matching(adjusted, allow_unmatched=True,
                                       backend="python")
    elif method == "rh":
        # The top-k scan is the trivially-parallel part of RH (the paper
        # distributes it over a tree network); the vectorised selection
        # is our single-process stand-in for that.  The heap backend —
        # the paper's O(nk log k) scan — is exercised by the reduction
        # ablation bench and the matching tests.
        matching = match_slot_lists(select_slot_lists(
            np.asarray(adjusted, dtype=float).T, revenue.num_slots))
    elif method == "separable":
        matching = _separable_solve(adjusted)
    elif method == "brute":
        matching = brute_force_matching(adjusted, allow_unmatched=True)
    else:
        raise ValueError(f"unknown method {method!r}; "
                         f"expected one of {METHODS}")

    allocation = allocation_from_matching(matching, revenue.num_slots)
    total = revenue.baseline() + matching.total_weight
    return WdResult(allocation=allocation, matching=matching,
                    expected_revenue=total, method=method)


def determine_winners(tables: Mapping[AdvertiserId, BidsTable],
                      click_model: ClickModel,
                      purchase_model: PurchaseModel,
                      method: Method = "rh",
                      validate: bool = True) -> WdResult:
    """End-to-end winner determination from Bids tables.

    Validates 1-dependence (unless ``validate=False``), prices the bids
    into a revenue matrix, and solves with the chosen method.
    """
    revenue = build_revenue_matrix(tables, click_model, purchase_model,
                                   validate=validate)
    return solve(revenue, method=method)


@dataclass(frozen=True)
class SubsetWdResult:
    """Winner determination restricted to a live advertiser subset.

    ``matching`` pairs are subset-local rows (aligned with ``weights``
    / ``click_rows`` / ``candidate_bids``); ``slot_of`` and ``id_map``
    carry the translation back to global advertiser ids — exactly the
    candidate-local shape :meth:`repro.auction.settlement
    .AuctionSettler.settle` consumes.  ``slot_lists`` (method ``rh``
    only) are the ``k + 1``-deep top lists the matching was solved
    from, in subset-local ids — what GSP prices from.  The arrays alias
    solver-owned buffers valid until its next solve.
    """

    weights: np.ndarray
    matching: MatchingResult
    expected_revenue: float
    slot_of: dict[int, int]
    id_map: list[int]
    candidate_bids: np.ndarray
    click_rows: np.ndarray
    slot_lists: SlotLists | None = None


class SubsetSolver:
    """Click-bid winner determination on one live advertiser subset.

    The online serving layer's winner-determination rule: departed
    advertisers are *excluded* from the candidate space (zero-weight
    edges can enter a maximum matching, so zeroing their bids is not
    enough).  Everything that depends only on the membership — the id
    map, the active click rows, the weight buffers — is computed at
    construction, so a solver serves every query until the membership
    moves; :meth:`for_membership` is how the in-process service and
    the shard leaves keep one across queries.  The per-query work is
    the weight refresh
    (``click[i, j] * bid[i]``, the operand pairs of
    ``click_bid_revenue_matrix``) and the solve; every execution
    strategy routes through this class, which is what makes their
    bit-identity structural.

    For method ``rh`` the weights are kept slot-major — the layout the
    selection scan of :mod:`repro.matching.slot_lists` reads — and the
    row-major ``weights`` downstream consumers see is a transposed
    *view* of the same buffer.
    """

    def __init__(self, click_matrix: np.ndarray, active: np.ndarray,
                 method: Method = "rh"):
        if method not in ("rh", "lp", "hungarian"):
            raise ValueError(f"unsupported subset method {method!r}")
        self.method = method
        self.num_slots = click_matrix.shape[1]
        self.active = np.asarray(active, dtype=np.int64)
        self.present: np.ndarray | None = None
        self.id_map: list[int] = self.active.tolist()
        self.click_rows = click_matrix[self.active]
        self._bids = np.empty(len(self.active))
        if method == "rh":
            self._click_cols = np.ascontiguousarray(self.click_rows.T)
            self._weights_t = np.empty_like(self._click_cols)
        else:
            self._weights = np.empty_like(self.click_rows)

    @classmethod
    def for_membership(cls, cached: "SubsetSolver | None",
                       click_matrix: np.ndarray, present: np.ndarray,
                       method: Method = "rh") -> "SubsetSolver":
        """``cached`` if it was built for exactly this membership mask
        (``present[i]`` = advertiser ``i`` is live), else a new solver.

        Comparing masks costs O(n) bytes per query and needs no
        invalidation hooks: whatever moved the membership — a join, a
        pause landing mid-window, a restored capture — the next query
        sees it."""
        if cached is not None and np.array_equal(cached.present, present):
            return cached
        solver = cls(click_matrix, np.flatnonzero(present), method)
        solver.present = present.copy()
        return solver

    def scan(self, bids: np.ndarray, depth: int) -> SlotLists:
        """Refresh the weights from population-wide ``bids`` and select
        every slot's top-``depth`` list (subset-local ids; ``rh``)."""
        np.take(bids, self.active, out=self._bids)
        # weights_t[j, i] = click[i, j] * bid[i]: the same operand
        # pairs as click_matrix[active] * bids[active][:, None] —
        # transposed layout only.
        np.multiply(self._click_cols, self._bids[None, :],
                    out=self._weights_t)
        return select_slot_lists(self._weights_t, depth)

    def solve(self, bids: np.ndarray) -> SubsetWdResult:
        slot_lists = None
        if len(self.active) == 0:
            weights = np.zeros((0, self.num_slots))
            matching = MatchingResult(pairs=(), total_weight=0.0)
        elif self.method == "rh":
            # k + 1 deep: the matching reads k, GSP's rival scan one more.
            slot_lists = self.scan(bids, self.num_slots + 1)
            weights = self._weights_t.T
            matching = match_slot_lists(slot_lists, self.num_slots)
        else:
            np.take(bids, self.active, out=self._bids)
            weights = np.multiply(self.click_rows, self._bids[:, None],
                                  out=self._weights)
            if self.method == "lp":
                matching = lp_matching(weights).matching
            else:
                matching = max_weight_matching(
                    weights, allow_unmatched=True, backend="python")
        slot_of = {self.id_map[row]: col + 1
                   for row, col in matching.pairs}
        # expected = baseline + weight; the subset baseline is an
        # all-zeros unassigned column, so the sum is exactly 0.0.
        return SubsetWdResult(
            weights=weights,
            matching=matching,
            expected_revenue=0.0 + matching.total_weight,
            slot_of=slot_of,
            id_map=self.id_map,
            candidate_bids=self._bids,
            click_rows=self.click_rows,
            slot_lists=slot_lists)


def solve_on_subset(click_matrix: np.ndarray, bids: np.ndarray,
                    active: np.ndarray,
                    method: Method = "rh") -> SubsetWdResult:
    """One auction on the surviving population: a single-use
    :class:`SubsetSolver`."""
    return SubsetSolver(click_matrix, active, method).solve(bids)


def allocation_from_matching(matching: MatchingResult,
                             num_slots: int) -> Allocation:
    """Translate matcher output (0-based columns) into an Allocation."""
    return Allocation(
        num_slots=num_slots,
        slot_of={advertiser: col + 1 for advertiser, col in matching.pairs})


def _separable_solve(adjusted: np.ndarray) -> MatchingResult:
    """The incumbent allocator; only sound on separable instances."""
    if np.any(adjusted < 0):
        raise NotSeparableError(
            "separable allocator requires non-negative adjusted weights "
            "(bids with unassigned-payoff rows are outside its scope)")
    factors = factorize(adjusted)  # raises NotSeparableError if rank > 1
    return separable_matching(factors.advertiser_factors,
                              factors.slot_factors)
