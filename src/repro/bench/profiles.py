"""Per-phase profiling of auction runs.

The engine stamps every :class:`~repro.auction.events.AuctionRecord`
with the wall-clock cost of the four pipeline phases — program
**eval**uation, **wd** (winner determination), **price** quoting, and
**settle**ment (user simulation, accounting, notification).  This module
aggregates those stamps over a run into a :class:`PhaseProfile`: the
throughput and per-phase split the offline benchmark cells
(``benchmarks/offline.py``) report, Figures 12 and 13 included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.auction.events import AuctionRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.auction.engine import AuctionEngine

PHASES = ("eval", "wd", "price", "settle")
"""The four pipeline phases, in execution order."""


@dataclass(frozen=True)
class PhaseProfile:
    """Aggregate per-phase timings of one run of auctions."""

    label: str
    method: str
    auctions: int
    wall_seconds: float
    eval_seconds: float
    wd_seconds: float
    price_seconds: float
    settle_seconds: float
    batched: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def auctions_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.auctions / self.wall_seconds

    @property
    def pipeline_seconds(self) -> float:
        """Summed per-phase busy time (the records' critical path).

        For single-process runs this tracks ``wall_seconds`` minus
        loop overhead.  For the sharded runtime the phase stamps are
        critical-path quantities (max over workers per phase, plus the
        coordinator), so this is the run's modeled parallel time — on
        a host with at least ``workers`` free cores, wall-clock
        converges to it; on a core-starved host (CI pins one CPU) it
        is the scaling signal wall-clock cannot show.
        """
        return (self.eval_seconds + self.wd_seconds
                + self.price_seconds + self.settle_seconds)

    @property
    def pipeline_auctions_per_second(self) -> float:
        """Auctions/second over :attr:`pipeline_seconds`."""
        if self.pipeline_seconds <= 0.0:
            return 0.0
        return self.auctions / self.pipeline_seconds

    def phase_ms(self) -> dict[str, float]:
        """Mean per-auction milliseconds by phase."""
        if self.auctions == 0:
            return {phase: 0.0 for phase in PHASES}
        scale = 1e3 / self.auctions
        return {
            "eval": self.eval_seconds * scale,
            "wd": self.wd_seconds * scale,
            "price": self.price_seconds * scale,
            "settle": self.settle_seconds * scale,
        }


def aggregate_wd_stats(records: Sequence[AuctionRecord]
                       ) -> dict | None:
    """Fold per-auction parallel-WD accounting over a run.

    Returns ``None`` when no record carries ``wd_stats`` (winner
    determination ran serially).  Otherwise: how many auctions ran
    sharded, the shard count, and the mean/max of the two quantities
    the Section III-E analysis cares about — the heaviest leaf's scan
    work and the root-to-leaf critical-path work that stands in for
    parallel wall-clock.
    """
    stats = [r.wd_stats for r in records if r.wd_stats is not None]
    if not stats:
        return None
    leaf = [s["leaf_work_max"] for s in stats]
    path = [s["critical_path_work"] for s in stats]
    return {
        "auctions": len(stats),
        "num_leaves": max(s["num_leaves"] for s in stats),
        "leaf_work_max": max(leaf),
        "leaf_work_mean": sum(leaf) / len(leaf),
        "critical_path_max": max(path),
        "critical_path_mean": sum(path) / len(path),
        "merge_work_total": sum(s["merge_work_total"] for s in stats),
    }


def profile_from_records(label: str, method: str,
                         records: Sequence[AuctionRecord],
                         wall_seconds: float, batched: bool = False,
                         **extra) -> PhaseProfile:
    """Fold a run's records into a :class:`PhaseProfile`.

    Parallel winner-determination accounting, when the records carry
    it, lands in ``extra["parallel_wd"]`` (see
    :func:`aggregate_wd_stats`).
    """
    parallel_wd = aggregate_wd_stats(records)
    if parallel_wd is not None:
        extra = {"parallel_wd": parallel_wd, **extra}
    return PhaseProfile(
        label=label,
        method=method,
        auctions=len(records),
        wall_seconds=wall_seconds,
        eval_seconds=sum(r.eval_seconds for r in records),
        wd_seconds=sum(r.wd_seconds for r in records),
        price_seconds=sum(r.price_seconds for r in records),
        settle_seconds=sum(r.settle_seconds for r in records),
        batched=batched,
        extra=dict(extra),
    )


def profile_run(engine: "AuctionEngine", auctions: int,
                batch: bool = False, label: str | None = None,
                **extra) -> tuple[list[AuctionRecord], PhaseProfile]:
    """Run ``auctions`` auctions and profile them.

    ``batch`` selects :meth:`~repro.auction.engine.AuctionEngine
    .run_batch` over the sequential loop; the profile notes which path
    ran.
    """
    runner = engine.run_batch if batch else engine.run
    start = time.perf_counter()
    records = runner(auctions)
    wall = time.perf_counter() - start
    # ``batched`` reports what actually ran — the predicate run_batch
    # itself reads: it runs the per-program loop for populations the
    # leaf cannot hold, and claiming "batched" for that would
    # misattribute the resulting ~1x speedup.
    batched = batch and engine.batches_on_leaf()
    if batch and not batched:
        extra.setdefault("batch_fallback", True)
    profile = profile_from_records(
        label or ("batched" if batch else "sequential"),
        str(engine.config.method), records, wall, batched=batched,
        **extra)
    return records, profile


def records_identical(left: Sequence[AuctionRecord],
                      right: Sequence[AuctionRecord]) -> bool:
    """Exact (float-equality) equivalence of two auction-record streams.

    Compares everything the auction *decided* — allocations, outcomes,
    revenues, prices — and ignores the timing stamps, which legitimately
    differ between runs.
    """
    if len(left) != len(right):
        return False
    return all(
        a.auction_id == b.auction_id
        and a.keyword == b.keyword
        and a.allocation.slot_of == b.allocation.slot_of
        and a.outcome.clicked == b.outcome.clicked
        and a.outcome.purchased == b.outcome.purchased
        and a.expected_revenue == b.expected_revenue
        and a.realized_revenue == b.realized_revenue
        and a.prices == b.prices
        for a, b in zip(left, right))
