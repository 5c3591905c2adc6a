"""Fagin's threshold algorithm for top-k selection (Section IV-A).

Given m lists of advertiser ids, each sorted descending by one input
attribute, and a *monotone* aggregation function f over the attributes,
TA finds the k ids with the highest f-scores while touching only a
prefix of each list:

1. sorted access round-robin over the lists; for every newly seen id,
   random-access its remaining attributes and compute its exact score;
2. maintain the best k scores seen;
3. stop as soon as the k-th best score is at least the *threshold*
   f(last sorted-access value of each list) — no unseen id can beat it.

TA is instance optimal over algorithms that avoid "wild guesses"
(Fagin, Lotem & Naor, PODS'01), which is the guarantee the paper invokes.
Access counts are reported for the ablation bench.

The list abstraction is :class:`RankedSource` — anything that can stream
(id, attribute) pairs descending and answer random accesses — so both a
plain :class:`~repro.evaluation.sorted_index.SortedIndex` and the merged
view over logical-update delta lists can serve as TA inputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, Sequence

import numpy as np

from repro.evaluation.sorted_index import ColumnArgsortIndex, SortedIndex


class RankedSource(Protocol):
    """A TA input list: descending stream plus random access."""

    def descending(self) -> Iterator[tuple[int, float]]:
        """Yield (id, attribute) pairs, best first."""
        ...

    def key(self, item: int) -> float:
        """Random access to one id's attribute."""
        ...


@dataclass(frozen=True)
class TopKResult:
    """TA output: the winning ids with scores, plus access accounting."""

    items: tuple[tuple[int, float], ...]  # (id, score), descending score
    sequential_accesses: int
    random_accesses: int
    threshold_at_stop: float

    def ids(self) -> list[int]:
        return [item for item, _ in self.items]


def threshold_top_k(sources: Sequence[RankedSource],
                    aggregate: Callable[[Sequence[float]], float],
                    k: int) -> TopKResult:
    """Run TA over ``sources`` with monotone ``aggregate``; return top-k.

    Ties in score break toward the lower id.  Ids appearing in one source
    must appear in all (they are attributes of the same objects).
    """
    if k <= 0:
        return TopKResult((), 0, 0, float("-inf"))
    if not sources:
        raise ValueError("threshold_top_k needs at least one source")

    cursors = [source.descending() for source in sources]
    exhausted = [False] * len(sources)
    last_seen: list[float | None] = [None] * len(sources)
    seen: set[int] = set()
    # Min-heap of (score, -id): the root is the current k-th best; at
    # equal scores the higher id is evicted first, so lower ids win ties.
    heap: list[tuple[float, int]] = []
    sequential = 0
    random = 0
    threshold = float("inf")

    while not all(exhausted):
        for index, cursor in enumerate(cursors):
            if exhausted[index]:
                continue
            try:
                item, attribute = next(cursor)
            except StopIteration:
                exhausted[index] = True
                continue
            sequential += 1
            last_seen[index] = attribute
            if item not in seen:
                seen.add(item)
                attributes = []
                for other_index, source in enumerate(sources):
                    if other_index == index:
                        attributes.append(attribute)
                    else:
                        attributes.append(source.key(item))
                        random += 1
                score = aggregate(attributes)
                entry = (score, -item)
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                elif entry > heap[0]:
                    heapq.heapreplace(heap, entry)
        if any(value is None for value in last_seen):
            continue  # threshold undefined until every list was accessed
        threshold = aggregate([value for value in last_seen])  # type: ignore[misc]
        if len(heap) >= k and heap[0][0] >= threshold:
            break

    items = tuple((-neg, score)
                  for score, neg in sorted(heap, reverse=True))
    return TopKResult(items=items, sequential_accesses=sequential,
                      random_accesses=random,
                      threshold_at_stop=threshold)


def full_scan_top_k(sources: Sequence[RankedSource],
                    aggregate: Callable[[Sequence[float]], float],
                    k: int,
                    universe: Sequence[int]) -> TopKResult:
    """The naive baseline: score every id, keep the best k.

    Used by tests (TA must return an equally-scored set) and by the
    access-count ablation as the "no index" reference point.
    """
    heap: list[tuple[float, int]] = []
    random = 0
    for item in universe:
        attributes = [source.key(item) for source in sources]
        random += len(sources)
        entry = (aggregate(attributes), -item)
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)
    items = tuple((-neg, score)
                  for score, neg in sorted(heap, reverse=True))
    return TopKResult(items=items, sequential_accesses=0,
                      random_accesses=random,
                      threshold_at_stop=float("-inf"))


def product_aggregate(attributes: Sequence[float]) -> float:
    """The paper's benchmark scoring: w_ij x bid (both non-negative)."""
    result = 1.0
    for value in attributes:
        result *= value
    return result


@dataclass(frozen=True)
class SlotTopKResult:
    """Fused-kernel output: per-slot winners plus access accounting."""

    slot_ids: np.ndarray  # (num_slots, depth): each slot's top-k ids
    slot_values: np.ndarray  # their scores, aligned with ``slot_ids``
    stop_depth: np.ndarray  # rounds of sorted access walked per slot
    sequential_count: int
    random_count: int


class ScoreBuffers:
    """Caller-owned score histories for :func:`product_top_k_all_slots`.

    Row ``r`` of :attr:`a` holds every slot's score of the click walk's
    entry at depth ``r``, row ``r`` of :attr:`b` the bid walk's.  The
    kernel writes only the prefix it walks, so the buffers start
    ``rows`` deep and double whenever a walk goes deeper; a caller that
    keeps one across calls (the evaluator does) allocates only while
    its deepest walk grows.
    """

    def __init__(self, rows: int, num_slots: int):
        self.a = np.empty((rows, num_slots))
        self.b = np.empty((rows, num_slots))

    def reserve(self, rows: int, keep: int) -> None:
        """Hold at least ``rows`` rows, preserving the first ``keep``."""
        if rows <= len(self.a):
            return
        size = max(rows, 2 * len(self.a))
        for name in ("a", "b"):
            old = getattr(self, name)
            grown = np.empty((size, old.shape[1]))
            grown[:keep] = old[:keep]
            setattr(self, name, grown)


def product_top_k_all_slots(click_index: ColumnArgsortIndex,
                            bid_ids: np.ndarray,
                            bid_values: np.ndarray,
                            bid_rank: np.ndarray,
                            effective_bids: np.ndarray,
                            k: int,
                            block: int = 64,
                            buffers: ScoreBuffers | None = None
                            ) -> SlotTopKResult:
    """TA over (click index, bid list) for *every* slot in one sweep.

    The vectorized replacement for k per-slot :func:`threshold_top_k`
    calls on the product aggregate.  Each slot's two sources are flat
    arrays — a column view of the shared argsorted click matrix, and
    the keyword's merged descending bid walk (shared by all slots) —
    and the kernel advances every still-live slot ``block`` sorted-
    access rounds at a time: gather the block's ids, score them against
    the dense random-access mirrors (``effective_bids`` for ids
    surfaced by the click walk, the click matrix for ids surfaced by
    the bid walk), fold them into each slot's running top-k, and retire
    slots whose k-th best score has reached the TA threshold.  Once
    every slot has stopped, one partition finds each slot's k-th best
    score over its walked prefix, and one small sort of the entries at
    or above it — about k per slot — orders every slot's winners.

    Semantics: identical to per-round TA except that the stop rule is
    checked every ``block`` rounds, so a slot may walk up to
    ``block - 1`` rounds past its exact stopping point.  By TA's
    guarantee the extra rounds cannot change the top-k *scores*; among
    equal scores the kernel resolves ties toward the lower id (the
    full-scan convention) over the ids the walks reached — an unreached
    id that ties the k-th score exactly at the stop threshold stays
    unreached, whatever its id.  Access counts report the pulls actually
    performed — sequential accesses at block granularity, one random
    access per distinct id scored — so the ablation's sublinearity
    measurements stay honest.

    ``bid_rank`` is the bid walk's inverse permutation
    (``bid_rank[bid_ids[r]] == r``); together with a comparison
    against the click walk's edge entry (the click index's order is
    total, so the entry at depth ``d - 1`` decides whether an id lies
    in the first ``d``) it lets the kernel keep exactly one running
    copy of an id that both walks surface, whichever block each copy
    arrives in.
    ``buffers`` are optional caller-owned score histories, grown here
    to the deepest walk (the evaluator keeps one across auctions).
    """
    num_ids, num_slots = click_index.order.shape
    if len(bid_ids) != num_ids:
        raise ValueError(
            f"bid walk covers {len(bid_ids)} ids, click index {num_ids}; "
            "the threshold algorithm needs every id in every source")
    depth = max(min(k, num_ids), 0)
    if depth == 0 or num_slots == 0:
        return SlotTopKResult(np.empty((num_slots, depth), dtype=np.int64),
                              np.empty((num_slots, depth)),
                              np.zeros(num_slots, dtype=np.int64), 0, 0)
    block = max(block, depth)
    if buffers is None:
        buffers = ScoreBuffers(block, num_slots)

    matrix = click_index.matrix
    order = click_index.order
    sorted_values = click_index.sorted_values

    # While every slot is live, ``cols`` is a plain slice (views, not
    # copies); once one retires it becomes the live slots' indices.
    cols: slice | np.ndarray = slice(None)
    live = np.arange(num_slots)
    stop_depth = np.full(num_slots, num_ids, dtype=np.int64)
    running = np.full((depth, num_slots), -np.inf)
    rounds = 0
    while rounds < num_ids:
        upto = min(rounds + block, num_ids)
        buffers.reserve(upto, rounds)
        a_ids = order[rounds:upto, cols]
        a_block = sorted_values[rounds:upto, cols] * effective_bids[a_ids]
        b_ids = bid_ids[rounds:upto]
        b_clicks = matrix[b_ids][:, cols]
        b_block = bid_values[rounds:upto, None] * b_clicks
        buffers.a[rounds:upto, cols] = a_block
        buffers.b[rounds:upto, cols] = b_block
        # Ids surfaced by both walks must occupy exactly one running
        # slot — a duplicated high score would inflate the k-th best
        # and fire the stop check *early*, dropping a qualifying
        # unseen id.  Keep the click-walk copy unless the bid walk
        # already delivered the id in an earlier block, and suppress
        # the bid-walk copy whenever the click walk covers the id
        # within this prefix.
        edge_values = sorted_values[upto - 1, cols]
        a_duplicate = bid_rank[a_ids] < rounds
        b_duplicate = _within_click_prefix(b_ids, b_clicks, edge_values,
                                           order[upto - 1, cols])
        stacked = np.concatenate(
            [running[:, cols],
             np.where(a_duplicate, -np.inf, a_block),
             np.where(b_duplicate, -np.inf, b_block)], axis=0)
        running[:, cols] = np.partition(stacked, -depth, axis=0)[-depth:]
        rounds = upto
        thresholds = edge_values * bid_values[rounds - 1]
        done = running[0, cols] >= thresholds
        if done.any():
            stop_depth[live[done]] = rounds
            live = live[~done]
            if not len(live):
                break
            cols = live

    # Final selection over every slot at once, slot-major: each row
    # holds one slot's click-walk then bid-walk prefix (``walked``
    # entries each), with entries past the slot's own stop and bid-walk
    # copies of ids its click prefix holds masked to -inf.  One
    # partition finds each row's ``depth``-th best score; only entries
    # at or above it can win — about ``depth`` per slot, more only on
    # ties at that score — so one lexsort of those survivors over
    # (slot, score desc, id asc) orders every slot's winners.  At least
    # ``stop_depth >= depth`` click-walk scores per slot are finite, so
    # masked entries never survive.
    walked = int(stop_depth.max())
    slots = np.arange(num_slots)
    edges = stop_depth - 1
    b_prefix = bid_ids[:walked]
    inside = np.arange(walked)[:, None] < stop_depth
    covered = inside & _within_click_prefix(
        b_prefix, matrix[b_prefix], sorted_values[edges, slots],
        order[edges, slots])
    scores = np.concatenate(
        [np.where(inside, buffers.a[:walked], -np.inf).T,
         np.where(inside & ~covered, buffers.b[:walked], -np.inf).T],
        axis=1)
    cut = 2 * walked - depth
    kth = np.partition(scores, cut, axis=1)[:, cut]
    survivors = np.flatnonzero(scores >= kth[:, None])
    slot, row = np.divmod(survivors, 2 * walked)
    prefix_row = row % walked
    ids = np.where(row < walked, order[prefix_row, slot],
                   b_prefix[prefix_row])
    values = scores.ravel()[survivors]
    best = np.lexsort((ids, -values, slot))
    counts = np.bincount(slot, minlength=num_slots)
    take = best[(np.cumsum(counts) - counts)[:, None] + np.arange(depth)]
    sequential_count = 2 * int(stop_depth.sum())
    return SlotTopKResult(
        slot_ids=ids[take], slot_values=values[take],
        stop_depth=stop_depth, sequential_count=sequential_count,
        random_count=sequential_count - int(np.count_nonzero(covered)))


def _within_click_prefix(ids: np.ndarray, clicks: np.ndarray,
                         edge_values: np.ndarray,
                         edge_ids: np.ndarray) -> np.ndarray:
    """Whether each id lies within each click walk's prefix.

    ``clicks[r, c]`` is id ``ids[r]``'s click value in walk ``c``,
    whose prefix ends at the entry ``(edge_ids[c], edge_values[c])``.
    The click index orders value descending, ties by descending id, so
    an indexed id is in the prefix iff its (value, id) pair is at least
    the edge's.
    """
    within = clicks > edge_values
    tied = clicks == edge_values
    if tied.any():
        within |= tied & (ids[:, None] >= edge_ids)
    return within


def make_index(items: dict[int, float]) -> SortedIndex:
    """Convenience: build a SortedIndex source from an id -> value map."""
    return SortedIndex(items)
