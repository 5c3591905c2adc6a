"""Sorted per-parameter indexes for the threshold algorithm (IV-A).

The paper keeps, for each slot and each advertiser-specific parameter, a
list of bidders sorted by that parameter, maintained incrementally as
winners update their state.  :class:`SortedIndex` is that structure: ids
sorted by a float key, supporting descending sequential access (what TA's
sorted access needs), random access by id, and incremental repositioning.

Implementation: a bisect-maintained array of ``(key, id)`` pairs plus an
``id -> key`` map.  Updates are O(log n) search + O(n) memmove — the
memmove is C-speed and only the k winners per auction ever move, which
matches the paper's O(|Y_j| k log n) maintenance budget in spirit.

:class:`ColumnArgsortIndex` is the vectorized path's form of the same
structure: every slot's click order as one contiguous row of a shared
argsort over the member ids, so a member joining or leaving costs one
O(m) copy per slot column.  Its total order (value descending, ties by
descending id) makes positions comparable by value, so no inverse rank
map is maintained.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator

import numpy as np


class SortedIndex:
    """Ids ordered by a float key (descending iteration order)."""

    def __init__(self, items: dict[int, float] | None = None):
        self._key_of: dict[int, float] = {}
        self._entries: list[tuple[float, int]] = []
        if items:
            self._key_of = {int(i): float(k) for i, k in items.items()}
            self._entries = sorted(
                (key, item) for item, key in self._key_of.items())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, item: int) -> bool:
        return item in self._key_of

    def key(self, item: int) -> float:
        """Random access: the key currently stored for ``item``."""
        return self._key_of[item]

    def insert(self, item: int, key: float) -> None:
        """Add a new id (must not be present)."""
        if item in self._key_of:
            raise KeyError(f"id {item} already present")
        self._key_of[item] = float(key)
        insort(self._entries, (float(key), item))

    def remove(self, item: int) -> float:
        """Remove an id, returning its key."""
        key = self._key_of.pop(item)
        index = bisect_left(self._entries, (key, item))
        assert self._entries[index] == (key, item)
        del self._entries[index]
        return key

    def update(self, item: int, new_key: float) -> None:
        """Reposition an id under a new key."""
        self.remove(item)
        self.insert(item, new_key)

    def descending(self) -> Iterator[tuple[int, float]]:
        """Yield (id, key) pairs from the highest key downward.

        The iterator reflects the index at call time; do not mutate the
        index while consuming it.
        """
        for key, item in reversed(self._entries):
            yield item, key

    def max_key(self) -> float | None:
        """The largest key, or None when empty."""
        if not self._entries:
            return None
        return self._entries[-1][0]

    def items(self) -> dict[int, float]:
        """A snapshot copy of the id -> key mapping."""
        return dict(self._key_of)


class ColumnArgsortIndex:
    """All columns' descending orders as rows of one shared argsort.

    The vectorized RHTALU path replaces the k per-slot
    :class:`SortedIndex` objects with this structure: one argsort of
    the click matrix rows that are currently *members*, so every slot's
    sorted source is a view of a single allocation instead of its own
    dict-backed index.  Two aligned arrays, each exposed as an
    ``(m, k)`` view:

    * ``order[r, j]`` — the id at descending rank ``r`` of column ``j``
      (ties between equal values fall to the higher id first, matching
      ``SortedIndex.descending()``);
    * ``sorted_values[r, j]`` — ``matrix[order[r, j], j]``, the value
      stream a sorted access at rank ``r`` would read.

    Both are held column-major — one contiguous ``(k, m)`` row per
    column — so a membership change is one contiguous splice per
    column.  Because the order is total (value descending, then id
    descending), an id's position needs no inverse map: id ``i`` lies
    within column ``j``'s first ``d`` entries iff ``(matrix[i, j], i)``
    is at least the pair at entry ``d - 1``, which is how the threshold
    kernel tests prefix membership.  :attr:`rank` derives that inverse
    on access, for inspection only.

    ``members`` defaults to every row of the matrix — the static
    full-population index an offline evaluator builds once.  The online
    serving layer (:mod:`repro.stream`) instead maintains the member
    set *incrementally* under advertiser churn: :meth:`insert_many`
    merges a batch of ids (:meth:`insert`, one id) into, and
    :meth:`remove` compresses one id out of, every column's order in
    O(m) contiguous passes, preserving exactly the order a fresh stable
    argsort of the surviving members would produce (``tests/evaluation/
    test_sorted_index.py`` pins the equivalence).
    """

    def __init__(self, matrix: np.ndarray,
                 members: np.ndarray | None = None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(
                f"matrix must be 2-D, got shape {matrix.shape}")
        self.matrix = matrix
        universe, num_cols = matrix.shape
        if members is None:
            sub = matrix
            member_ids = np.arange(universe, dtype=np.int64)
        else:
            member_ids = np.asarray(members, dtype=np.int64)
            if member_ids.ndim != 1:
                raise ValueError("members must be a 1-D id array")
            if len(member_ids) and (
                    member_ids.min() < 0
                    or member_ids.max() >= universe):
                raise ValueError("members outside the matrix's rows")
            if np.any(np.diff(member_ids) <= 0):
                raise ValueError("members must be strictly ascending")
            sub = (matrix if len(member_ids) == universe
                   else matrix[member_ids])
        # Stable ascending argsort reversed: descending by value, ties
        # descending by id — the SortedIndex iteration order.  (Member
        # positions ascend with ids, so position ties are id ties.)
        ascending = np.argsort(sub.T, axis=1, kind="stable")
        self._order = member_ids[ascending[:, ::-1]]
        self._values = matrix[self._order, np.arange(num_cols)[:, None]]
        self._member = np.zeros(universe, dtype=bool)
        self._member[member_ids] = True

    @property
    def order(self) -> np.ndarray:
        """``(m, k)`` view: the id at each column's descending rank."""
        return self._order.T

    @property
    def sorted_values(self) -> np.ndarray:
        """``(m, k)`` view: the value at each column's descending rank."""
        return self._values.T

    @property
    def rank(self) -> np.ndarray:
        """``rank[i, j]``: id ``i``'s descending rank in column ``j``
        (non-members hold the out-of-range sentinel ``len(matrix)``).
        A fresh array derived from :attr:`order` on every access."""
        universe = self.matrix.shape[0]
        num_cols, num_ids = self._order.shape
        rank = np.full((num_cols, universe), universe, dtype=np.int64)
        rank[np.arange(num_cols)[:, None], self._order] = \
            np.arange(num_ids)
        return rank.T

    @property
    def num_ids(self) -> int:
        return self._order.shape[1]

    @property
    def num_columns(self) -> int:
        return self._order.shape[0]

    def __contains__(self, item: int) -> bool:
        return 0 <= item < len(self._member) and bool(self._member[item])

    # -- incremental membership (live advertiser churn) -----------------

    def insert(self, item: int) -> None:
        """Splice one matrix row in: :meth:`insert_many` of one id."""
        self.insert_many([item])

    def insert_many(self, items) -> None:
        """Merge matrix rows into every column's descending order.

        Each newcomer lands exactly where a fresh stable argsort of the
        grown member set would put it — descending by value, ties
        descending by id — so merging b ids equals b one-id splices in
        any order.  Per column the newcomers are sorted among
        themselves (O(b log b)) and binary-searched into the members
        (O(b log m)); then one O(m) pass per column copies the members
        around them.  So one id costs what a splice costs, and a batch
        of b costs about one splice rather than b of them, never an
        O(m log m) re-argsort.
        """
        items = np.sort(np.asarray(items, dtype=np.int64).reshape(-1))
        if len(items) == 0:
            return
        if items[0] < 0 or items[-1] >= len(self._member):
            raise KeyError(f"ids {items.tolist()} outside the matrix's "
                           f"rows")
        if np.any(items[1:] == items[:-1]) or self._member[items].any():
            raise KeyError(f"ids {items.tolist()} already indexed")
        num_cols, num_ids = self._order.shape
        count = len(items)
        # The newcomers' own descending order, built the way the
        # constructor builds the members' (ids ascend, so the reversed
        # stable argsort breaks value ties by descending id).
        values = self.matrix[items].T
        ascending = np.argsort(values, axis=1, kind="stable")[:, ::-1]
        new_ids = items[ascending]
        new_values = np.take_along_axis(values, ascending, axis=1)
        # How many members precede each newcomer: those with a larger
        # value, plus tied members with a larger id.
        above = np.empty((num_cols, count), dtype=np.int64)
        for col in range(num_cols):
            rising = self._values[col, ::-1]
            wanted = new_values[col]
            at_most = np.searchsorted(rising, wanted, side="right")
            below = np.searchsorted(rising, wanted, side="left")
            above[col] = num_ids - at_most
            tied = np.flatnonzero(at_most > below)
            if len(tied):
                # Tie blocks are runs of descending ids; count the
                # ones above each tied newcomer's id.
                starts = num_ids - at_most[tied]
                lengths = at_most[tied] - below[tied]
                owner = np.repeat(np.arange(len(tied)), lengths)
                ranks = (np.arange(lengths.sum())
                         - np.repeat(np.cumsum(lengths) - lengths,
                                     lengths) + starts[owner])
                higher = (self._order[col, ranks]
                          > new_ids[col, tied[owner]])
                above[col, tied] += np.bincount(
                    owner, weights=higher,
                    minlength=len(tied)).astype(np.int64)
        positions = above + np.arange(count)
        columns = np.arange(num_cols)[:, None]
        kept = np.ones((num_cols, num_ids + count), dtype=bool)
        kept[columns, positions] = False
        order = np.empty(kept.shape, dtype=np.int64)
        sorted_values = np.empty(kept.shape)
        order[columns, positions] = new_ids
        sorted_values[columns, positions] = new_values
        # Members fill the remaining cells in their own order, row by
        # row (one contiguous row per column).
        order[kept] = self._order.ravel()
        sorted_values[kept] = self._values.ravel()
        self._order = order
        self._values = sorted_values
        self._member[items] = True

    def remove(self, item: int) -> None:
        """Drop an id from every column's order: one compress over the
        contiguous rows."""
        if item not in self:
            raise KeyError(f"id {item} not indexed")
        num_cols, num_ids = self._order.shape
        keep = self._order != item
        self._order = self._order[keep].reshape(num_cols, num_ids - 1)
        self._values = self._values[keep].reshape(num_cols, num_ids - 1)
        self._member[item] = False

    def column(self, col: int) -> "_ColumnView":
        """A per-column :class:`RankedSource`-compatible view."""
        return _ColumnView(self, col)


class _ColumnView:
    """RankedSource adapter over one column of a ColumnArgsortIndex."""

    def __init__(self, index: ColumnArgsortIndex, col: int):
        self._index = index
        self._col = col

    def __len__(self) -> int:
        return self._index.num_ids

    def __contains__(self, item: int) -> bool:
        return item in self._index

    def key(self, item: int) -> float:
        return float(self._index.matrix[item, self._col])

    def descending(self) -> Iterator[tuple[int, float]]:
        order = self._index.order[:, self._col]
        values = self._index.sorted_values[:, self._col]
        for item, value in zip(order, values):
            yield int(item), float(value)
