"""Multi-process sharded execution of the auction pipeline.

The paper's Section III-E argues winner determination parallelizes
across advertiser shards arranged in a tree of machines;
:mod:`repro.core.parallel` *simulates* that network, and this package
makes it real: :class:`ShardedAuctionRuntime` partitions the pacer
population over ``workers`` OS processes (:class:`ShardPlan`), runs
each shard's evaluation/scan as one leaf of :mod:`repro.runtime.worker`
— the leaf kinds the in-process service and the engine's batch runs
use over the whole population — and merges top lists, records, phase timings,
and account balances at a coordinator whose output is bit-identical to
the single-process engine under a fixed seed.

Layers
------
* :mod:`repro.runtime.sharding` — who owns which advertisers; per-shard
  deterministic RNG substreams.
* :mod:`repro.runtime.messages` — the two-message-per-auction lockstep
  wire protocol.
* :mod:`repro.runtime.worker` — shard processes (eager leaf scan,
  full gather, RHTALU TA scan).
* :mod:`repro.runtime.executor` — the coordinator: merge, matching,
  pricing, settlement, worker lifecycle.
* :mod:`repro.runtime.supervision` — worker failure detection
  (:class:`WorkerFailure`) and the retained-capture + replay state
  (:class:`WorkerSupervisor`) that lets a supervised runtime heal a
  dead or hung shard in place.

See ``docs/runtime.md`` for the design and the bit-identity argument,
and the ``shards`` cell of ``benchmarks/offline.py`` for the
worker-sweep acceptance benchmark (committed in ``BENCH_offline.json``).
"""

from repro.runtime.executor import ShardedAuctionRuntime
from repro.runtime.sharding import ShardPlan, shard_bounds
from repro.runtime.supervision import (
    SupervisionStats,
    WorkerFailure,
    WorkerSupervisor,
)

__all__ = [
    "ShardPlan",
    "ShardedAuctionRuntime",
    "SupervisionStats",
    "WorkerFailure",
    "WorkerSupervisor",
    "shard_bounds",
]
