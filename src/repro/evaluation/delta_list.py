"""Delta lists: the logical-update structure of Section IV-B.

A delta list holds bidding programs whose bids all move by the same
amount at the same moments (e.g. every ROI pacer currently decrementing
its bid for keyword "shoe").  Instead of updating every member, the list
keeps a single *adjustment variable*: a member's effective bid is its
stored bid plus the list's adjustment, so decrementing everyone is one
``adjust(-step)`` in O(1).  Sorted order is preserved because all members
move together.

The delta list also serves as a TA :class:`~repro.evaluation.threshold.
RankedSource` (descending iteration and random access are by effective
value), and :class:`MergedDeltaSource` lazily merges several delta lists
into one descending stream — the bid-sorted input TA needs when a
keyword's bidders are spread across increment/decrement/constant lists.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

import numpy as np

from repro.evaluation.sorted_index import SortedIndex


class DeltaList:
    """A sorted set of ids whose values share one adjustment variable."""

    def __init__(self):
        self._stored = SortedIndex()
        self.adjustment = 0.0

    def __len__(self) -> int:
        return len(self._stored)

    def __contains__(self, item: int) -> bool:
        return item in self._stored

    def insert(self, item: int, effective: float) -> None:
        """Add a member at a given *effective* value."""
        self._stored.insert(item, effective - self.adjustment)

    def remove(self, item: int) -> float:
        """Remove a member, returning its effective value."""
        return self._stored.remove(item) + self.adjustment

    def key(self, item: int) -> float:
        """Random access: the member's effective value."""
        return self._stored.key(item) + self.adjustment

    def adjust(self, delta: float) -> None:
        """Logically add ``delta`` to every member in O(1)."""
        self.adjustment += delta

    def descending(self) -> Iterator[tuple[int, float]]:
        """Yield (id, effective value), best first."""
        adjustment = self.adjustment
        for item, stored in self._stored.descending():
            yield item, stored + adjustment

    def max_effective(self) -> float | None:
        """The largest effective value, or None when empty."""
        stored_max = self._stored.max_key()
        if stored_max is None:
            return None
        return stored_max + self.adjustment

    def items(self) -> dict[int, float]:
        """Snapshot of id -> effective value."""
        return {item: stored + self.adjustment
                for item, stored in self._stored.items().items()}


class MergedDeltaSource:
    """A lazy k-way merge of delta lists, by descending effective value.

    Presents several delta lists (increment, decrement, constant) as one
    TA source.  Random access probes the lists in order; ids must live in
    exactly one list at a time (the pacer-state invariant).
    """

    def __init__(self, lists: Sequence[DeltaList]):
        self.lists = list(lists)

    def descending(self) -> Iterator[tuple[int, float]]:
        iterators = [lst.descending() for lst in self.lists]
        heap: list[tuple[float, int, int, int]] = []
        for index, iterator in enumerate(iterators):
            entry = next(iterator, None)
            if entry is not None:
                item, value = entry
                # Negated value for a max-merge via the min-heap; ties
                # break toward the lower id.
                heapq.heappush(heap, (-value, item, index, 0))
        while heap:
            neg_value, item, index, _ = heapq.heappop(heap)
            yield item, -neg_value
            entry = next(iterators[index], None)
            if entry is not None:
                next_item, next_value = entry
                heapq.heappush(heap, (-next_value, next_item, index, 0))

    def key(self, item: int) -> float:
        for lst in self.lists:
            if item in lst:
                return lst.key(item)
        raise KeyError(f"id {item} is in none of the merged lists")

    def __contains__(self, item: int) -> bool:
        return any(item in lst for lst in self.lists)

    def __len__(self) -> int:
        return sum(len(lst) for lst in self.lists)


class ArrayDeltaList:
    """The delta list as two flat arrays plus the adjustment scalar.

    The vectorized pacer state (:mod:`repro.evaluation.pacer_arrays`)
    keeps each increment/decrement/constant list as ``ids`` and
    ``stored`` arrays in ascending stored order, so a whole auction's
    membership churn (fired count triggers, mode flips) is a handful of
    boolean-mask compressions and batched sorted inserts instead of
    per-member bisects.  Effective value = ``stored + adjustment``,
    exactly as :class:`DeltaList`.

    Ties between equal stored values keep batch insertion order (a
    deterministic function of the run), not the strict ``(key, id)``
    order of :class:`SortedIndex`; the TA kernel only needs *a* fixed
    descending order, and exact value ties occur only at the saturation
    bounds.
    """

    def __init__(self):
        self.ids = np.empty(0, dtype=np.int64)
        self.stored = np.empty(0, dtype=float)
        self.adjustment = 0.0

    def __len__(self) -> int:
        return len(self.ids)

    def adjust(self, delta: float) -> None:
        """Logically add ``delta`` to every member in O(1)."""
        self.adjustment += delta

    def effective(self) -> np.ndarray:
        """Members' effective values, ascending (a fresh array)."""
        return self.stored + self.adjustment

    def insert_batch(self, ids: np.ndarray, effective: np.ndarray) -> None:
        """Add members at the given effective values (one memmove)."""
        if len(ids) == 0:
            return
        stored = np.asarray(effective, dtype=float) - self.adjustment
        ids = np.asarray(ids, dtype=np.int64)
        batch_order = np.lexsort((ids, stored))
        stored = stored[batch_order]
        ids = ids[batch_order]
        positions = np.searchsorted(self.stored, stored, side="left")
        self.stored = np.insert(self.stored, positions, stored)
        self.ids = np.insert(self.ids, positions, ids)

    def remove_mask(self, member_mask: np.ndarray) -> None:
        """Drop every member whose id is flagged in ``member_mask``.

        ``member_mask`` is indexed by id (length = id universe), so the
        removal is a single boolean compression.
        """
        if len(self.ids) == 0:
            return
        keep = ~member_mask[self.ids]
        if keep.all():
            return
        self.ids = self.ids[keep]
        self.stored = self.stored[keep]

    def remove_id(self, item: int) -> float:
        """Remove one member, returning its effective value."""
        positions = np.nonzero(self.ids == item)[0]
        if len(positions) == 0:
            raise KeyError(f"id {item} not in this list")
        position = int(positions[0])
        effective = float(self.stored[position]) + self.adjustment
        self.ids = np.concatenate((self.ids[:position],
                                   self.ids[position + 1:]))
        self.stored = np.concatenate((self.stored[:position],
                                      self.stored[position + 1:]))
        return effective

    def items(self) -> dict[int, float]:
        """Snapshot of id -> effective value (test/debug accessor)."""
        return {int(item): float(stored) + self.adjustment
                for item, stored in zip(self.ids, self.stored)}


def merged_descending(lists: Sequence[ArrayDeltaList]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Merge array delta lists into one descending (ids, values) pair.

    The vectorized counterpart of :class:`MergedDeltaSource`: each
    list's ascending stored order survives its constant adjustment, so
    the merge is pairwise ``np.searchsorted`` position arithmetic —
    O(total) with no per-item Python.  In the returned *descending*
    walk, equal values surface later lists before earlier ones (the
    ascending merge places earlier lists first and the reversal flips
    it) — a fixed, documented order; the TA kernel needs determinism,
    not a particular tie rule.
    """
    pairs = [(lst.ids, lst.effective()) for lst in lists if len(lst)]
    if not pairs:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=float))
    ids, values = pairs[0]
    for other_ids, other_values in pairs[1:]:
        positions_left = (np.arange(len(values))
                          + np.searchsorted(other_values, values,
                                            side="left"))
        positions_right = (np.arange(len(other_values))
                           + np.searchsorted(values, other_values,
                                             side="right"))
        merged_ids = np.empty(len(values) + len(other_values),
                              dtype=np.int64)
        merged_values = np.empty(len(merged_ids), dtype=float)
        merged_ids[positions_left] = ids
        merged_values[positions_left] = values
        merged_ids[positions_right] = other_ids
        merged_values[positions_right] = other_values
        ids, values = merged_ids, merged_values
    return ids[::-1], values[::-1]
