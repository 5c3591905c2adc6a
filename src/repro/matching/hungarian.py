"""The Hungarian algorithm for maximum-weight bipartite matching.

This is the from-scratch Kuhn-Munkres implementation the paper's methods
H and RH are built on (Section III-D/E).  It solves the *assignment*
problem by shortest augmenting paths with dual potentials (the
Jonker-Volgenant formulation of Kuhn's algorithm): one augmenting phase
per row, each phase a dense Dijkstra over the columns.

Orientation and complexity
--------------------------
The public entry point :func:`max_weight_matching` orients the problem so
that the *smaller* side becomes the rows.  In winner determination the
rows are therefore the k slots and the columns the n advertisers, giving
k phases of O(n + k) Dijkstra steps each — O(k^2 (n + k)) overall, the
"straightforward Hungarian" baseline of the paper's experiments.  Method
RH runs the very same routine on the reduced graph (at most k^2 + k
columns), where it costs O(k^4): the k^5 bound in the paper is loose.

Unmatched items
---------------
Winner determination is a *matching*, not a perfect assignment: slots may
stay empty and most advertisers get nothing.  ``allow_unmatched=True``
(the default) appends one zero-weight dummy column per row, so a row
whose best real edge is negative takes the dummy instead — exactly the
"adjusted weight" convention of :mod:`repro.core.revenue`.

Backends
--------
``backend="python"`` is the straightforward scalar implementation;
``backend="numpy"`` vectorises the per-phase column scans.  Both return
identical matchings (ties broken by lowest column index through stable
argmin); the benchmark suite uses the scalar backend for the paper's
methods so that H and RH are measured on the same implementation
substrate, and the ablation benches compare the two backends.
"""

from __future__ import annotations

import math
from typing import Literal, Sequence

import numpy as np

from repro.matching.types import MatchingResult

Backend = Literal["python", "numpy", "auto"]

_INF = math.inf


class HungarianError(ValueError):
    """Raised for malformed inputs to the Hungarian solver."""


def min_cost_assignment(cost: Sequence[Sequence[float]] | np.ndarray,
                        backend: Backend = "auto"
                        ) -> tuple[list[int], float]:
    """Minimum-cost assignment of every row to a distinct column.

    Requires ``rows <= cols``.  Returns ``(assignment, total)`` where
    ``assignment[i]`` is the column matched to row ``i``.

    This is the raw Kuhn-Munkres/Jonker-Volgenant kernel; use
    :func:`max_weight_matching` for the maximisation/matching wrapper.
    """
    matrix = np.asarray(cost, dtype=float)
    if matrix.ndim != 2:
        raise HungarianError(f"cost must be 2-D, got shape {matrix.shape}")
    num_rows, num_cols = matrix.shape
    if num_rows > num_cols:
        raise HungarianError(
            f"need rows <= cols, got {num_rows} x {num_cols}")
    if num_rows == 0:
        return [], 0.0
    if np.any(~np.isfinite(matrix)):
        raise HungarianError("cost matrix contains non-finite entries")

    if backend == "auto":
        backend = "numpy" if num_cols >= 128 else "python"
    if backend == "numpy":
        assignment = _solve_numpy(matrix)
    else:
        assignment = _solve_python(matrix.tolist(), num_rows, num_cols)
    total = float(sum(matrix[i, j] for i, j in enumerate(assignment)))
    return assignment, total


def max_weight_matching(weights: Sequence[Sequence[float]] | np.ndarray,
                        allow_unmatched: bool = True,
                        backend: Backend = "auto") -> MatchingResult:
    """Maximum-weight bipartite matching of a (left x right) weight matrix.

    Every left and right item is used at most once.  With
    ``allow_unmatched`` (default) any item may stay unmatched, so only
    edges with positive weight ever enter the matching; otherwise the
    smaller side is matched completely (a perfect-on-the-smaller-side
    assignment, possibly through negative edges).
    """
    matrix = np.asarray(weights, dtype=float)
    if matrix.ndim != 2:
        raise HungarianError(
            f"weights must be 2-D, got shape {matrix.shape}")
    num_left, num_right = matrix.shape
    if num_left == 0 or num_right == 0:
        return MatchingResult(pairs=(), total_weight=0.0)

    transposed = num_left > num_right
    oriented = matrix.T if transposed else matrix
    rows, cols = oriented.shape

    cost = -oriented
    if allow_unmatched:
        # One dummy column per row: "match nothing" at cost 0.
        cost = np.hstack([cost, np.zeros((rows, rows))])

    assignment, _ = min_cost_assignment(cost, backend=backend)

    pairs = []
    for row, col in enumerate(assignment):
        if col >= cols:
            continue  # matched to a dummy: row stays unmatched
        left, right = (col, row) if transposed else (row, col)
        pairs.append((left, right))
    pairs.sort()
    total = float(sum(matrix[left, right] for left, right in pairs))
    return MatchingResult(pairs=tuple(pairs), total_weight=total)


def _solve_python(cost: list[list[float]], num_rows: int,
                  num_cols: int) -> list[int]:
    """Scalar shortest-augmenting-path kernel (1-indexed internally)."""
    u = [0.0] * (num_rows + 1)
    v = [0.0] * (num_cols + 1)
    # matched_row[j] = row matched to column j (1-based; 0 = free).
    matched_row = [0] * (num_cols + 1)
    way = [0] * (num_cols + 1)

    for i in range(1, num_rows + 1):
        matched_row[0] = i
        j0 = 0
        minv = [_INF] * (num_cols + 1)
        used = [False] * (num_cols + 1)
        while True:
            used[j0] = True
            i0 = matched_row[j0]
            row = cost[i0 - 1]
            u_i0 = u[i0]
            delta = _INF
            j1 = 0
            for j in range(1, num_cols + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u_i0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(num_cols + 1):
                if used[j]:
                    u[matched_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if matched_row[j0] == 0:
                break
        # Augment: flip the alternating path back to the start.
        while j0:
            j1 = way[j0]
            matched_row[j0] = matched_row[j1]
            j0 = j1

    assignment = [-1] * num_rows
    for j in range(1, num_cols + 1):
        if matched_row[j]:
            assignment[matched_row[j] - 1] = j - 1
    return assignment


def _solve_numpy(cost: np.ndarray) -> list[int]:
    """Vectorised variant: per-phase column scans as numpy operations."""
    num_rows, num_cols = cost.shape
    u = np.zeros(num_rows + 1)
    v = np.zeros(num_cols + 1)
    matched_row = np.zeros(num_cols + 1, dtype=np.int64)
    way = np.zeros(num_cols + 1, dtype=np.int64)
    padded = np.empty((num_rows + 1, num_cols + 1))
    minv = np.empty(num_cols + 1)
    used = np.empty(num_cols + 1, dtype=bool)
    # Pad a leading column so indices line up with the 1-based algorithm.
    padded[1:, 1:] = cost

    for i in range(1, num_rows + 1):
        matched_row[0] = i
        j0 = 0
        minv[:] = _INF
        used[:] = False
        while True:
            used[j0] = True
            i0 = int(matched_row[j0])
            cur = padded[i0, 1:] - u[i0] - v[1:]
            free = ~used[1:]
            improved = free & (cur < minv[1:])
            minv[1:][improved] = cur[improved]
            way[1:][improved] = j0
            masked = np.where(free, minv[1:], _INF)
            j1 = int(np.argmin(masked)) + 1
            delta = float(masked[j1 - 1])
            u[matched_row[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if matched_row[j0] == 0:
                break
        while j0:
            j1 = int(way[j0])
            matched_row[j0] = matched_row[j1]
            j0 = j1

    assignment = [-1] * num_rows
    for j in range(1, num_cols + 1):
        if matched_row[j]:
            assignment[int(matched_row[j]) - 1] = j - 1
    return assignment
