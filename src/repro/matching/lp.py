"""The winner-determination linear program (method LP of Section V).

Variables ``x[i, j] ∈ [0, 1]`` indicate advertiser *i* taking slot *j*;
each advertiser takes at most one slot and each slot hosts at most one
advertiser; the objective maximises total adjusted expected revenue.  The
constraint matrix is the clique matrix of a perfect graph (Chvátal), so
the LP has an integral optimum — the paper's justification for treating
the relaxation as the exact winner-determination problem.

Two backends:

* ``scipy`` — sparse HiGHS dual simplex, used at benchmark scale (our
  stand-in for the paper's GLPK simplex);
* ``simplex`` — the from-scratch dense tableau solver of
  :mod:`repro.matching.simplex`, for validation and the solver ablation.

SciPy is the optional ``lp`` extra (both backends build their
constraints with :mod:`scipy.sparse`), so this module imports it on
first use, not at import: a process serving ``rh``, ``rhtalu`` or
``hungarian`` never loads it.  Whatever is built to run method ``lp``
calls :func:`require_scipy` at construction, so a missing SciPy fails
at start-up rather than at the first auction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Sequence

import numpy as np

from repro.matching.simplex import solve_lp_maximize
from repro.matching.types import MatchingResult

if TYPE_CHECKING:
    from scipy import sparse

LpBackend = Literal["scipy", "simplex"]

_INTEGRALITY_TOL = 1e-6


class LpSolveError(RuntimeError):
    """The LP backend failed to return an optimal solution."""


def require_scipy() -> None:
    """Import the SciPy pieces the LP backends use, or raise
    :class:`ImportError` naming the ``lp`` extra.

    Later imports inside this module are then dictionary lookups, so
    the first solve pays no import either.
    """
    try:
        import scipy.optimize  # noqa: F401
        import scipy.sparse  # noqa: F401
    except ImportError as error:
        raise ImportError(
            "method 'lp' needs SciPy, which is not installed; install "
            "the 'lp' extra (pip install -e '.[lp]')") from error


@dataclass(frozen=True)
class LpSolution:
    """Raw LP solution plus the rounded matching."""

    matching: MatchingResult
    x: np.ndarray
    objective: float
    is_integral: bool


def build_constraints(num_advertisers: int,
                      num_slots: int) -> tuple[sparse.csr_matrix, np.ndarray]:
    """The assignment polytope ``A x <= 1`` in sparse CSR form.

    Row layout: ``num_advertisers`` per-advertiser rows followed by
    ``num_slots`` per-slot rows.  Variable (i, j) is column
    ``i * num_slots + j``.
    """
    from scipy import sparse

    num_vars = num_advertisers * num_slots
    rows = []
    cols = []
    for i in range(num_advertisers):
        for j in range(num_slots):
            var = i * num_slots + j
            rows.append(i)              # advertiser-i constraint
            cols.append(var)
            rows.append(num_advertisers + j)  # slot-j constraint
            cols.append(var)
    data = np.ones(len(rows))
    a_ub = sparse.csr_matrix(
        (data, (rows, cols)),
        shape=(num_advertisers + num_slots, num_vars))
    b_ub = np.ones(num_advertisers + num_slots)
    return a_ub, b_ub


def lp_matching(weights: Sequence[Sequence[float]] | np.ndarray,
                backend: LpBackend = "scipy") -> LpSolution:
    """Solve winner determination as a linear program.

    ``weights`` is the (n x k) adjusted expected-revenue matrix; entries
    that are not strictly positive are never matched (the LP simply
    leaves those variables at zero, as a dummy would).
    """
    matrix = np.asarray(weights, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {matrix.shape}")
    num_advertisers, num_slots = matrix.shape
    if num_advertisers == 0 or num_slots == 0:
        return LpSolution(MatchingResult((), 0.0), np.zeros(0), 0.0, True)

    a_ub, b_ub = build_constraints(num_advertisers, num_slots)
    objective = matrix.reshape(-1)

    if backend == "scipy":
        from scipy.optimize import linprog

        result = linprog(-objective, A_ub=a_ub, b_ub=b_ub,
                         bounds=(0.0, 1.0), method="highs-ds")
        if not result.success:
            raise LpSolveError(f"HiGHS failed: {result.message}")
        x = np.asarray(result.x)
    else:
        solved = solve_lp_maximize(objective, a_ub.toarray(), b_ub)
        x = solved.x

    is_integral = bool(np.all(np.minimum(np.abs(x), np.abs(1.0 - x))
                              <= _INTEGRALITY_TOL))
    pairs = []
    total = 0.0
    for i in range(num_advertisers):
        for j in range(num_slots):
            if x[i * num_slots + j] > 0.5 and matrix[i, j] > 0.0:
                pairs.append((i, j))
                total += float(matrix[i, j])
    matching = MatchingResult(pairs=tuple(sorted(pairs)),
                              total_weight=total)
    return LpSolution(matching=matching, x=x,
                      objective=float(objective @ x),
                      is_integral=is_integral)
