"""Top-k bipartite-graph reduction — the paper's RH trick (Section III-E).

For each slot, only the k advertisers with the highest expected revenue
*for that slot* can possibly appear in a maximum-weight matching: if an
optimum used anyone else, one of those top k (at least one of whom is
free, since there are only k-1 other slots) could replace him without
loss.  Taking the union over slots leaves at most k^2 advertisers, and
the Hungarian algorithm on the reduced graph costs O(k^4) instead of
O(k^2 n).

Figures 9-11 of the paper walk a 4-advertiser, 2-slot example through
this reduction; ``tests/matching/test_reduction.py`` replays it.

Two selection backends are provided:

* ``heap`` — a size-k priority heap per slot, O(n k log k) total; this is
  the paper's stated bound and the backend the benchmarks use;
* ``numpy`` — the vectorised scan of the serving kernel
  (:func:`repro.matching.slot_lists.select_slot_lists`), O(n k) with C
  constants, used by the ablation bench to show the reduction itself
  (not the heap) is the source of the win.

Both feed the *dense* Hungarian here — the paper's method RH as
stated, and the reference the list-driven serving kernel
(:mod:`repro.matching.slot_lists`) is tested against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.matching.hungarian import Backend, max_weight_matching
from repro.matching.slot_lists import select_slot_lists
from repro.matching.types import MatchingResult

SelectBackend = Literal["heap", "numpy"]


@dataclass(frozen=True)
class ReducedGraph:
    """The outcome of the top-k reduction.

    Attributes
    ----------
    candidates:
        Sorted advertiser ids that survive the reduction (union of the
        per-slot top-k lists).
    weights:
        The ``(len(candidates), num_slots)`` sub-matrix of the original
        weights, rows ordered like ``candidates``.
    per_slot:
        For each slot, the advertiser ids of its top-k list in descending
        weight order (the bold edges of Figure 10).
    """

    candidates: tuple[int, ...]
    weights: np.ndarray
    per_slot: tuple[tuple[int, ...], ...]

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)


def top_k_for_slot(column: Sequence[float] | np.ndarray,
                   k: int) -> list[int]:
    """Advertisers with the k highest weights in one slot's column.

    Descending weight order; ties break toward the lower advertiser id.
    The paper's size-k heap scan, one column at a time.
    """
    if k <= 0:
        return []
    heap: list[tuple[float, int]] = []
    for index, weight in enumerate(column):
        entry = (float(weight), -index)
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)
    ordered = sorted(heap, reverse=True)
    return [-neg for _, neg in ordered]


def reduce_graph(weights: Sequence[Sequence[float]] | np.ndarray,
                 backend: SelectBackend = "heap",
                 top_k: int | None = None) -> ReducedGraph:
    """Apply the top-k-per-slot reduction to an (n x k) weight matrix.

    ``top_k`` defaults to the number of slots k, which is what
    correctness requires; smaller values give a (lossy) approximation
    used only by the ablation bench.
    """
    matrix = np.asarray(weights, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {matrix.shape}")
    num_advertisers, num_slots = matrix.shape
    k = num_slots if top_k is None else top_k

    per_slot = []
    survivors: set[int] = set()
    if backend == "heap":
        # One pass over advertisers, k heaps in flight: this is the
        # paper's O(n k log k) scan and also the access pattern the
        # parallel tree network distributes.
        heaps: list[list[tuple[float, int]]] = [[] for _ in range(num_slots)]
        for i in range(num_advertisers):
            row = matrix[i]
            for j in range(num_slots):
                entry = (float(row[j]), -i)
                heap = heaps[j]
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                elif entry > heap[0]:
                    heapq.heapreplace(heap, entry)
        for j in range(num_slots):
            ordered = sorted(heaps[j], reverse=True)
            ids = tuple(-neg for _, neg in ordered)
            per_slot.append(ids)
            survivors.update(ids)
    else:
        for ids in select_slot_lists(matrix.T, k).ids.tolist():
            per_slot.append(tuple(ids))
            survivors.update(ids)

    candidates = tuple(sorted(survivors))
    reduced = matrix[list(candidates), :] if candidates else \
        np.empty((0, num_slots))
    return ReducedGraph(candidates=candidates, weights=reduced,
                        per_slot=tuple(per_slot))


def reduced_matching(weights: Sequence[Sequence[float]] | np.ndarray,
                     select_backend: SelectBackend = "heap",
                     hungarian_backend: Backend = "python"
                     ) -> MatchingResult:
    """Method RH: reduce, run the Hungarian, translate ids back."""
    reduced = reduce_graph(weights, backend=select_backend)
    local = max_weight_matching(reduced.weights, allow_unmatched=True,
                                backend=hungarian_backend)
    pairs = tuple(sorted((reduced.candidates[row], col)
                         for row, col in local.pairs))
    return MatchingResult(pairs=pairs, total_weight=local.total_weight)
