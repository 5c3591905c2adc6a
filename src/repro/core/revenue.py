"""Expected-revenue matrices (the table of Theorem 2's proof).

Winner determination reduces to matching because, for 1-dependent bids,
the expected payment of advertiser *i* depends only on *i*'s own slot.
Collecting those expectations gives the revenue matrix:

* ``assigned[i, j-1]`` — expected payment of *i* when given slot *j*;
* ``unassigned[i]``   — expected payment of *i* with no slot (OR-bids can
  pay off without a slot, e.g. a ``¬Slot1`` row or the proof's
  ``E ∧ ⋀_j ¬Slot_j`` decomposition).

All solvers operate on the *adjusted* matrix
``assigned - unassigned[:, None]`` and add the constant unassigned total
back, so "leave this advertiser out" is the zero point — this is what
makes a maximum-weight *matching* (rather than a perfect assignment) the
right objective.

Two builders exist:

* :func:`build_revenue_matrix` — fully general: prices every Bids-table
  row via :func:`repro.probability.formula_probability` (O(rows) formula
  evaluations per cell);
* :func:`click_bid_revenue_matrix` — the vectorised special case where
  every advertiser bids a single value on ``Click`` (the Section V
  workload): the matrix is just ``click_probs * bids[:, None]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.lang.bids import BidsTable
from repro.lang.dependence import require_one_dependent
from repro.lang.predicates import AdvertiserId
from repro.probability.click_models import ClickModel
from repro.probability.formula_prob import expected_table_value
from repro.probability.purchase_models import PurchaseModel


@dataclass(frozen=True)
class RevenueMatrix:
    """Expected payments by assignment cell, plus the unassigned column."""

    assigned: np.ndarray
    unassigned: np.ndarray

    def __post_init__(self) -> None:
        assigned = np.asarray(self.assigned, dtype=float)
        unassigned = np.asarray(self.unassigned, dtype=float)
        if assigned.ndim != 2:
            raise ValueError(
                f"assigned must be 2-D, got shape {assigned.shape}")
        if unassigned.shape != (assigned.shape[0],):
            raise ValueError(
                f"unassigned has shape {unassigned.shape}, expected "
                f"({assigned.shape[0]},)")
        object.__setattr__(self, "assigned", assigned)
        object.__setattr__(self, "unassigned", unassigned)

    @property
    def num_advertisers(self) -> int:
        return self.assigned.shape[0]

    @property
    def num_slots(self) -> int:
        return self.assigned.shape[1]

    def adjusted(self) -> np.ndarray:
        """Edge weights for the matching: gain over staying unassigned."""
        return self.assigned - self.unassigned[:, None]

    def baseline(self) -> float:
        """Revenue if nobody is assigned (the matching's zero point)."""
        return float(self.unassigned.sum())

    def total_for(self, pairs: Sequence[tuple[int, int]]) -> float:
        """Expected revenue of a matching given as (advertiser, col) pairs.

        ``col`` is 0-based (slot ``col + 1``), matching the conventions of
        :class:`repro.matching.MatchingResult`.
        """
        matched = {advertiser for advertiser, _ in pairs}
        total = sum(float(self.assigned[a, c]) for a, c in pairs)
        total += sum(float(self.unassigned[a])
                     for a in range(self.num_advertisers)
                     if a not in matched)
        return total


def build_revenue_matrix(tables: Mapping[AdvertiserId, BidsTable],
                         click_model: ClickModel,
                         purchase_model: PurchaseModel,
                         validate: bool = True) -> RevenueMatrix:
    """Price every (advertiser, slot) cell of a set of Bids tables.

    Advertiser ids must be ``0..n-1`` (dense), matching the click model's
    rows.  With ``validate`` (default) the bids are first checked to be
    1-dependent, raising :class:`repro.lang.NotOneDependentError`
    otherwise — this is the submission-time guard Theorem 3 makes
    necessary.
    """
    num_advertisers = click_model.num_advertisers
    num_slots = click_model.num_slots
    _check_dense_ids(tables, num_advertisers)
    if validate:
        require_one_dependent(dict(tables))

    assigned = np.zeros((num_advertisers, num_slots))
    unassigned = np.zeros(num_advertisers)
    for advertiser, table in tables.items():
        for j in range(1, num_slots + 1):
            assigned[advertiser, j - 1] = expected_table_value(
                table, advertiser, j, click_model, purchase_model)
        unassigned[advertiser] = expected_table_value(
            table, advertiser, None, click_model, purchase_model)
    return RevenueMatrix(assigned=assigned, unassigned=unassigned)


def click_bid_revenue_matrix(bids: Sequence[float] | np.ndarray,
                             click_model: ClickModel) -> RevenueMatrix:
    """Vectorised builder for single-value ``Click`` bids.

    ``bids[i]`` is advertiser *i*'s bid per click (the Section V workload
    after program evaluation).  The expected revenue of (i, j) is
    ``p_click[i, j] * bids[i]`` and unassigned advertisers pay nothing.
    """
    bid_vector = np.asarray(bids, dtype=float)
    if bid_vector.ndim != 1:
        raise ValueError(f"bids must be 1-D, got shape {bid_vector.shape}")
    if len(bid_vector) != click_model.num_advertisers:
        raise ValueError(
            f"{len(bid_vector)} bids for {click_model.num_advertisers} "
            "advertisers")
    matrix = click_model.as_matrix() * bid_vector[:, None]
    return RevenueMatrix(assigned=matrix,
                         unassigned=np.zeros(len(bid_vector)))


def slot_click_bid_revenue_matrix(bids: np.ndarray,
                                  click_model: ClickModel) -> RevenueMatrix:
    """Vectorised builder for per-slot ``Click ∧ Slot_j`` bids.

    ``bids[i, j-1]`` is advertiser *i*'s bid on ``Click ∧ Slot_j`` (the
    Section IV exposition's bid shape).  Expected revenue of (i, j) is
    ``p_click[i, j] * bids[i, j-1]``.
    """
    bid_matrix = np.asarray(bids, dtype=float)
    expected_shape = (click_model.num_advertisers, click_model.num_slots)
    if bid_matrix.shape != expected_shape:
        raise ValueError(
            f"bids have shape {bid_matrix.shape}, expected {expected_shape}")
    matrix = click_model.as_matrix() * bid_matrix
    return RevenueMatrix(assigned=matrix,
                         unassigned=np.zeros(expected_shape[0]))


def _check_dense_ids(tables: Mapping[AdvertiserId, BidsTable],
                     num_advertisers: int) -> None:
    for advertiser in tables:
        if not 0 <= advertiser < num_advertisers:
            raise ValueError(
                f"advertiser id {advertiser} outside 0..{num_advertisers - 1}")
