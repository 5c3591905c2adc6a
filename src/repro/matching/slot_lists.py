"""The slot-list winner-determination kernel (Section III-E, method RH).

The paper's reduction says only each slot's top-k advertisers can
appear in a maximum-weight matching, so everything after the one
n-by-k scan should cost O(poly k), independent of n.  This module is
that statement as code: one data structure — per-slot **descending top
lists** (:class:`SlotLists`) — and the three steps every ``rh`` /
``rhtalu`` execution strategy shares:

* :func:`select_slot_lists` — the scan: one vectorised partition of the
  slot-major weights yields every slot's top list at once;
* :func:`merge_slot_lists` — the tree network's merge: shard-local
  lists combine into the global lists (the sharded coordinator);
* :func:`match_slot_lists` — the Hungarian driven by the lists: rows
  are slots and a row's only edges are its own top-k entries plus a
  private "stay empty" dummy, which is the paper's exchange argument
  applied to *edges* instead of vertices — if an optimum gave slot j an
  advertiser outside j's top k, one of those k is unused by the other
  k - 1 slots and can take the slot without loss.  O(k^3) edge
  relaxations instead of k dense phases over k^2 + k columns.

GSP pricing from the same lists is
:meth:`repro.auction.pricing.SlotListSecondPrice.quote_from_lists`.

**Order.**  A list is sorted by (value descending, id ascending) — the
tie rule of every selection in the repo (the ``heap`` backend of
:mod:`repro.matching.reduction`, the threshold algorithm's final
lexsort, the sharded merge).  The matching is a deterministic function
of the lists, so execution strategies that produce equal lists produce
equal allocations, exact weight ties included.

The ``heap`` selection and the dense
:func:`~repro.matching.hungarian.max_weight_matching` remain the
paper's O(nk log k) / method-H subject matter and the reference the
tests hold this kernel to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.matching.types import MatchingResult

_INF = math.inf


@dataclass(frozen=True)
class SlotLists:
    """Every slot's top list, as two aligned ``(num_slots, depth)`` blocks.

    ``ids[j]`` are the advertisers holding slot ``j``'s highest weights
    and ``values[j]`` those weights, by (value descending, id
    ascending).  ``depth`` is the same for every slot:
    ``min(population, requested depth)``.
    """

    ids: np.ndarray
    values: np.ndarray

    @property
    def num_slots(self) -> int:
        return self.ids.shape[0]


def select_slot_lists(weights_t: np.ndarray, depth: int) -> SlotLists:
    """Top-``depth`` lists of a **slot-major** ``(k, n)`` weight matrix.

    ``weights_t[j, i]`` is advertiser ``i``'s weight in slot ``j``
    (row-major callers pass ``weights.T``).  One ``argpartition`` along
    the advertiser axis places each slot's first *excluded* value at
    the cut, so whether a tie group straddles the cut is one comparison
    per slot; only such slots pay the full-row scan that resolves the
    tie toward lower ids.  Weights must be finite (NaN has no order).
    """
    matrix_t = np.asarray(weights_t, dtype=float)
    if matrix_t.ndim != 2:
        raise ValueError(
            f"weights_t must be 2-D, got shape {matrix_t.shape}")
    num_slots, num_advertisers = matrix_t.shape
    depth = max(min(depth, num_advertisers), 0)
    slots = np.arange(num_slots)[:, None]
    if depth == num_advertisers:
        ids = np.broadcast_to(np.arange(num_advertisers),
                              matrix_t.shape)
        values = matrix_t
    else:
        cut = num_advertisers - depth - 1
        ids = np.argpartition(matrix_t, cut, axis=1)[:, cut:]
        values = matrix_t[slots, ids]
        # Column 0 is the first excluded entry; the rest are the top
        # ``depth`` in no particular order.
        straddling = (values[:, 1:] == values[:, :1]).any(axis=1)
        ids, values = ids[:, 1:], values[:, 1:]
        for slot in np.flatnonzero(straddling):
            # argpartition chose arbitrarily among the values tied at
            # the cut; keep the lowest ids of the tie group.
            row = matrix_t[slot]
            cut_value = values[slot].min()
            above = np.flatnonzero(row > cut_value)
            tied = np.flatnonzero(row == cut_value)
            ids[slot] = np.concatenate(
                [above, tied[:depth - len(above)]])
            values[slot] = row[ids[slot]]
    order = np.lexsort((ids, -values), axis=1)
    return SlotLists(ids=ids[slots, order], values=values[slots, order])


def merge_slot_lists(parts: Sequence[SlotLists], depth: int) -> SlotLists:
    """Merge lists over disjoint populations into their union's lists.

    The coordinator's half of the tree network: each part is one
    shard's local top-``depth`` lists (global ids), and the top
    ``depth`` of their concatenation is the top ``depth`` of the whole
    population, in the same (value, id) order a single scan yields.
    A lone part no deeper than ``depth`` is returned as it is: a scan
    already yields that order.
    """
    if len(parts) == 1 and parts[0].ids.shape[1] <= depth:
        return parts[0]
    ids = np.concatenate([part.ids for part in parts], axis=1)
    values = np.concatenate([part.values for part in parts], axis=1)
    order = np.lexsort((ids, -values), axis=1)[:, :depth]
    slots = np.arange(len(ids))[:, None]
    return SlotLists(ids=ids[slots, order], values=values[slots, order])


def match_slot_lists(lists: SlotLists,
                     top_k: int | None = None) -> MatchingResult:
    """Maximum-weight matching of slots to advertisers from the lists.

    Only the first ``top_k`` entries of each list (default: the number
    of slots, which is what optimality needs) with a positive value are
    edges; a slot whose best free edge is not positive stays empty.
    Shortest augmenting paths with dual potentials, one phase per slot,
    each phase a Dijkstra over the edges of the slots it reaches.

    Returns ``(advertiser, slot)`` pairs in increasing advertiser order
    and their total weight, summed in that order.
    """
    num_slots = lists.num_slots
    if top_k is None:
        top_k = num_slots
    # Compact the advertisers that appear into columns 0..C-1; a
    # slot's edges are its positive entries, still by descending value.
    advertisers, columns = np.unique(lists.ids[:, :top_k],
                                     return_inverse=True)
    values = lists.values[:, :top_k]
    positive = np.count_nonzero(values > 0.0, axis=1).tolist()
    edge_columns = [slot_columns[:count] for slot_columns, count
                    in zip(columns.reshape(values.shape).tolist(),
                           positive)]
    edge_values = [slot_values[:count] for slot_values, count
                   in zip(values.tolist(), positive)]
    num_columns = len(advertisers)

    # Min-cost form: an edge costs -value, a slot's dummy ("stay
    # empty") costs 0 and keeps potential 0 (no other slot reaches it).
    u = [0.0] * num_slots
    v = [0.0] * num_columns
    slot_of_column = [-1] * num_columns
    column_of_slot = [-1] * num_slots  # -1: empty (its dummy)
    dist = [_INF] * num_columns
    way = [0] * num_columns
    settled = [-1] * num_columns  # phase that put the column in the tree
    for root in range(num_slots):
        tree_slots: list[tuple[int, float]] = []
        tree_columns: list[int] = []
        # The root's own scan.  u[root] is still 0 and v <= 0, so an
        # edge's distance -value - v is at least -value: values
        # descend, so once -value reaches the best distance so far
        # (the root's dummy, at 0, to begin with) no later edge can
        # beat it.  Most phases end right here, on a free column.
        dummy_dist, dummy_slot = 0.0, root
        nearest, delta = -1, 0.0
        columns, values = edge_columns[root], edge_values[root]
        scanned = 0
        for column, value in zip(columns, values):
            if -value >= delta:
                break
            scanned += 1
            candidate = -value - v[column]
            dist[column] = candidate
            way[column] = root
            if candidate < delta:
                nearest, delta = column, candidate
        if nearest >= 0 and slot_of_column[nearest] >= 0:
            # The search goes on through matched columns, so the edges
            # the root's scan skipped matter after all.
            for column, value in zip(columns[scanned:],
                                     values[scanned:]):
                dist[column] = -value - v[column]
                way[column] = root
            scanned = len(columns)
        reached = columns[:scanned]
        while nearest >= 0 and slot_of_column[nearest] >= 0:
            settled[nearest] = root
            tree_columns.append(nearest)
            slot = slot_of_column[nearest]
            tree_slots.append((slot, delta))
            base = delta - u[slot]
            if base < dummy_dist:
                dummy_dist, dummy_slot = base, slot
            for column, value in zip(edge_columns[slot],
                                     edge_values[slot]):
                if settled[column] == root:
                    continue
                candidate = base - value - v[column]
                known = dist[column]
                if candidate < known:
                    if known == _INF:
                        reached.append(column)
                    dist[column] = candidate
                    way[column] = slot
            # Nearest unsettled column, unless a dummy is at least as
            # near (then the path ends there and that slot goes empty).
            nearest, delta = -1, dummy_dist
            for column in reached:
                if dist[column] < delta and settled[column] != root:
                    nearest, delta = column, dist[column]
        u[root] += delta
        for slot, slot_dist in tree_slots:
            u[slot] += delta - slot_dist
        for column in tree_columns:
            v[column] -= delta - dist[column]
        for column in reached:
            dist[column] = _INF
        # Augment: flip the alternating path back to the root.
        column = nearest
        slot = dummy_slot if nearest < 0 else way[nearest]
        while True:
            column_of_slot[slot], column = column, column_of_slot[slot]
            if column_of_slot[slot] >= 0:
                slot_of_column[column_of_slot[slot]] = slot
            if slot == root:
                break
            slot = way[column]

    advertisers = advertisers.tolist()
    matched = sorted(
        (advertisers[column], slot,
         edge_values[slot][edge_columns[slot].index(column)])
        for slot, column in enumerate(column_of_slot) if column >= 0)
    total = 0.0
    for _, _, value in matched:
        total += value
    return MatchingResult(
        pairs=tuple((advertiser, slot) for advertiser, slot, _ in matched),
        total_weight=total)
