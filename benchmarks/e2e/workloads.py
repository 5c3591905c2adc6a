"""The four served-path workloads and their seeded request plans.

Every constant a run depends on lives here: population, method, churn,
the fixed open-loop rate of the paced phase, and the probed flood rate
that sizes the flood phase.  Rates are **constants**, chosen at about
40 % of the flood rate probed on the 2-core builder container (see
README.md, "Probed rates") and never tuned at run time — a change that
makes the server faster must show up as lower latency at the same
offered load, not as a load that moved with it.

A :class:`Plan` is a pure function of ``(workload, seed, seconds)``:
the population, the churn stream, the arrival schedule and the burst
layout all derive from ``seed``, and every request frame is
encoded before any clock starts, so the server receives only these
bytes and the generator's hot loop does no serialisation.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace

import numpy as np

from repro.serve.protocol import encode_frame, event_to_payload
from repro.stream.events import event_kind
from repro.workloads.churn import ChurnStreamConfig, generate_stream
from repro.workloads.paper_workload import (
    PaperWorkload,
    PaperWorkloadConfig,
)

SLOTS = 15
KEYWORDS = 10
"""The paper's Section V shape (Figs. 12-13)."""

BUDGET_LOW, BUDGET_HIGH = 2_000.0, 20_000.0
"""Join budgets.  The stream generator's defaults (50..500) drain the
whole genesis population within about a thousand auctions, after which
every auction has one candidate and costs a quarter of a live one;
these keep roughly 9 in 10 advertisers live through a run while still
exhausting some, so pause/resume emissions stay on the path."""

ARRIVAL_SHAPE = 4.0
"""Arrival gaps are gamma with this shape (Erlang-4, coefficient of
variation 0.5), not exponential.  With Poisson arrivals a ten-second
phase holds so few queueing episodes that the latency percentiles
were a property of the seed's clustering (across ten seeds the
inter-quartile spread of p50 was 6 % and of p95 17-30 %, against 3 %
and 5 % for one seed repeated).  Erlang gaps keep arrivals random and
open-loop — a stall still charges everything due behind it — and
brought p50 to 1-4 % and p95 to 4-10 % on the n=2000 workloads."""

PACED_SHARE = 0.65
"""Share of ``--seconds`` spent in the paced open-loop phase; the rest
is the flood phase."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str
    advertisers: int
    churn: float
    rate: float
    """Paced-phase offered load, events/s (all kinds)."""
    flood_rate: float
    """Probed flood throughput, events/s: sizes the flood phase so it
    lasts about ``(1 - PACED_SHARE) * seconds``."""
    burst: int = 1
    """Events released back to back at each arrival instant."""
    workers: int = 0
    batch_window: int = 0
    durable: bool = False
    setup_repeats: int = 3
    """Servers booted per run; ``setup_s`` is the median."""

    def scaled(self, divisor: int) -> "Workload":
        """The ``--quick`` miniature: same shape, population / divisor."""
        return replace(self, advertisers=self.advertisers // divisor,
                       setup_repeats=1)


WORKLOADS = (
    Workload(
        name="query-rh-n2000",
        why="cheapest auction (rh, n=2000, in-memory, 5% churn): "
            "frame codec, sequencer hand-off and reply encode are the "
            "largest share; journal, snapshot, batching, runtime idle",
        method="rh", advertisers=2000, churn=0.05,
        rate=240.0, flood_rate=600.0),
    Workload(
        name="durable-churn-rh-n2000",
        why="--journal + checkpoint every 500, 30% churn: fsync per "
            "event and periodic checkpoints dominate and a third of "
            "traffic is control, so the write path shows beside reads",
        method="rh", advertisers=2000, churn=0.30,
        rate=225.0, flood_rate=560.0, durable=True),
    Workload(
        name="rhtalu-n8000",
        why="paper's headline method where Fig. 13 separates it from "
            "RH (n=8000, 10% churn): TA scan, logical updates, index "
            "splice and build dominate; codec share smallest, so a "
            "codec change predicts no move",
        method="rhtalu", advertisers=8000, churn=0.10,
        rate=180.0, flood_rate=450.0, setup_repeats=1),
    Workload(
        name="sharded-batched-rh-n8000",
        why="--workers 2 --batch-window 16, n=8000, bursts of 4: the "
            "only workload running runtime scatter/gather, the window "
            "planner cache and process_window instead of process",
        method="rh", advertisers=8000, churn=0.10,
        rate=120.0, flood_rate=300.0, burst=4,
        workers=2, batch_window=16, setup_repeats=2),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass
class Plan:
    """Pre-encoded requests, indexed by tag (= position)."""

    frames: list
    kinds: list
    due: list
    """Seconds after the paced phase starts; ``None`` outside it."""
    genesis: range
    paced: range
    flood: range

    def role(self, tag: int) -> str:
        """Which of the two connections carries request ``tag``."""
        return "query" if self.kinds[tag] == "query" else "console"

    def digest(self) -> str:
        """sha256 over request bytes and due times, in tag order."""
        sha = hashlib.sha256()
        for frame, due in zip(self.frames, self.due):
            sha.update(frame)
            sha.update(struct.pack(">d", -1.0 if due is None else due))
        return sha.hexdigest()


def workload_config(workload: Workload, seed: int) -> PaperWorkloadConfig:
    return PaperWorkloadConfig(
        num_advertisers=workload.advertisers, num_slots=SLOTS,
        num_keywords=KEYWORDS, seed=seed)


def build_plan(workload: Workload, seed: int, seconds: float) -> Plan:
    paced_events = max(int(workload.rate * seconds * PACED_SHARE),
                       workload.burst)
    flood_events = max(
        int(workload.flood_rate * seconds * (1.0 - PACED_SHARE)), 1)
    genesis = workload.advertisers // 2
    # Stream seed follows the CLI convention (seed + 17), so
    # `repro stream --seed S` regenerates the same events.
    stream = generate_stream(
        PaperWorkload(workload_config(workload, seed)),
        ChurnStreamConfig(num_events=paced_events + flood_events,
                          churn_rate=workload.churn, genesis=genesis,
                          budget_low=BUDGET_LOW,
                          budget_high=BUDGET_HIGH, seed=seed + 17))
    events = list(stream)
    frames = [encode_frame(event_to_payload(event, tag=tag))
              for tag, event in enumerate(events)]
    kinds = [event_kind(event) for event in events]

    # `burst` consecutive script events share one due time; bursts
    # arrive with Erlang gaps, so the mean rate stays `rate` events/s.
    rng = np.random.default_rng([seed, 0xA11])
    bursts = -(-paced_events // workload.burst)
    instants = np.cumsum(rng.gamma(
        ARRIVAL_SHAPE, workload.burst / workload.rate / ARRIVAL_SHAPE,
        bursts))
    due: list = [None] * len(events)
    for offset in range(paced_events):
        due[genesis + offset] = float(instants[offset // workload.burst])
    return Plan(
        frames=frames, kinds=kinds, due=due, genesis=range(genesis),
        paced=range(genesis, genesis + paced_events),
        flood=range(genesis + paced_events, len(events)))
