"""Join windows: a run of joins applied as one window equals the same
joins applied one at a time.

The wire server applies each maximal run of queued, admitted joins
through one ``process_window`` call — one bulk state operation — and
cuts the run where the next join would be refused (another kind of
event, a refused join, or a second join of an advertiser already in
the run).  These properties drive that exact cutting rule over streams
with runs of joins, duplicate and refused joins, leaves, and the
budget lifecycle's pauses and resumes, and demand that everything
observable matches a one-event-at-a-time run: records, balances,
revenue, emissions, the snapshot's bytes — and, under the durable
wrapper, the journal's bytes and every checkpoint file's name and
bytes, with checkpoints landing inside the runs.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import DurableAuctionService
from repro.stream.events import (
    AdvertiserJoin,
    AdvertiserLeave,
    BudgetTopUp,
    QueryArrival,
)
from repro.stream.replay import diff_traces
from repro.workloads import PaperWorkload, PaperWorkloadConfig

CONFIG = PaperWorkloadConfig(num_advertisers=12, num_slots=3,
                             num_keywords=2, seed=3)
WORKLOAD = PaperWorkload(CONFIG)
UNIVERSE = CONFIG.num_advertisers
CHECKPOINT_EVERY = 4


def join(advertiser: int, budget: float, target: float = 1.0
         ) -> AdvertiserJoin:
    """A join with the workload's own rows where the id has any
    (ids outside the universe borrow row 0's: they are refused)."""
    row = advertiser if 0 <= advertiser < UNIVERSE else 0
    targets, bids, maxbids, values = WORKLOAD.pacer_rows(row, row + 1)
    return AdvertiserJoin(
        advertiser=advertiser, target=target * float(targets[0]),
        bids=tuple(bids[0].tolist()), maxbids=tuple(maxbids[0].tolist()),
        values=tuple(values[0].tolist()), budget=budget)


# One op of a drawn stream: a run of joins (ids may repeat, lie outside
# the universe or carry a refused target), a few queries, a leave or a
# top-up (of any id, so some are refused).
_joins = st.lists(st.tuples(st.integers(-1, UNIVERSE),
                            st.sampled_from([1.0, 1.0, 1.0, 0.0])),
                  min_size=1, max_size=7)
_ops = st.lists(st.one_of(
    st.tuples(st.just("joins"), _joins),
    st.tuples(st.just("queries"), st.integers(1, 6)),
    st.tuples(st.just("leave"), st.integers(0, UNIVERSE - 1)),
    st.tuples(st.just("topup"), st.integers(0, UNIVERSE - 1)),
), min_size=4, max_size=16)


@st.composite
def streams(draw) -> list:
    """A genesis run of six joins, then drawn ops.  Budgets are small
    so charges pause advertisers and top-ups resume them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    keywords = WORKLOAD.keywords
    events = [join(advertiser, float(rng.uniform(1.0, 8.0)))
              for advertiser in range(6)]
    for op, arg in draw(_ops):
        if op == "joins":
            events.extend(join(advertiser, float(rng.uniform(1.0, 8.0)),
                               target) for advertiser, target in arg)
        elif op == "queries":
            events.extend(QueryArrival(keywords[rng.integers(
                len(keywords))]) for _ in range(arg))
        elif op == "leave":
            events.append(AdvertiserLeave(advertiser=arg))
        else:
            events.append(BudgetTopUp(advertiser=arg,
                                      amount=float(rng.uniform(1, 9))))
    return events


def one_at_a_time(served, events) -> list:
    service = getattr(served, "service", served)
    records = []
    for event in events:
        if service.check(event) is None:
            record = served.process(event, **_barrier(served))
            if record is not None:
                records.append(record)
    return records


def windowed(served, events) -> tuple[list, int]:
    """The wire server's cutting rule: a window is a maximal run of
    joins the admission rule accepts, with no advertiser twice;
    everything else applies alone (or is refused)."""
    service = getattr(served, "service", served)
    records, windows, index = [], 0, 0
    while index < len(events):
        run: list = []
        joining: set = set()
        while index < len(events) \
                and isinstance(events[index], AdvertiserJoin) \
                and service.check(events[index]) is None \
                and events[index].advertiser not in joining:
            joining.add(events[index].advertiser)
            run.append(events[index])
            index += 1
        if run:
            assert served.process_window(run, **_barrier(served)) \
                == [None] * len(run)
            windows += 1
            continue
        event = events[index]
        index += 1
        if service.check(event) is None:
            record = served.process(event, **_barrier(served))
            if record is not None:
                records.append(record)
    return records, windows


def _barrier(served) -> dict:
    """Durable sides leave the fsync to one final commit, as the wire
    server does per group (the journal's bytes do not depend on it)."""
    return {"commit": False} if hasattr(served, "journal") else {}


def outcome(service, records) -> dict:
    return {
        "records": records,
        "balances": dict(service.registry.balances()),
        "revenue": service.accounts.provider_revenue,
        "emitted": list(service.emitted),
        "snapshot": service.snapshot().to_json(),
        "events": service.events_processed,
    }


def assert_same(windowed_side: dict, sequential: dict) -> None:
    assert diff_traces(sequential.pop("records"),
                       windowed_side.pop("records")).identical
    assert windowed_side == sequential


def durable_run(root: Path, events, drive, **options):
    served = DurableAuctionService.open(
        CONFIG, root / "journal.jsonl", checkpoint_dir=root / "ckpt",
        checkpoint_every=CHECKPOINT_EVERY, checkpoint_retain=10**6,
        engine_seed=5, **options)
    try:
        result = drive(served, events)
        records = result[0] if isinstance(result, tuple) else result
        seen = outcome(served.service, records)
    finally:
        served.close()
    seen["journal"] = (root / "journal.jsonl").read_bytes()
    seen["checkpoints"] = {path.name: path.read_bytes() for path
                           in sorted((root / "ckpt").iterdir())}
    return seen


def assert_durable_equal(events, **options) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "a").mkdir()
        (root / "b").mkdir()
        sequential = durable_run(root / "a", events, one_at_a_time,
                                 **options)
        windowed_side = durable_run(root / "b", events, windowed,
                                    **options)
    assert sequential["checkpoints"], "no checkpoint landed"
    assert_same(windowed_side, sequential)


MODES = [(method, maintenance) for method in ("rh", "rhtalu")
         for maintenance in ("incremental", "rebuild")]


@pytest.mark.parametrize("method,maintenance", MODES)
@settings(max_examples=12, deadline=None)
@given(events=streams())
def test_windows_equal_one_at_a_time_durably(events, method,
                                             maintenance):
    assert_durable_equal(events, method=method, maintenance=maintenance)


@pytest.mark.parametrize("method,maintenance", MODES)
def test_windows_equal_one_at_a_time_sharded(method, maintenance):
    """The sharded backend queues a window's join notices for the
    next round as it queues one join's; one fixed stream per mode,
    since every run spawns a worker fleet."""
    events = [join(advertiser, 6.0) for advertiser in range(6)]
    events += [join(6, 4.0), join(6, 4.0), join(7, 3.0),
               join(UNIVERSE, 2.0), join(8, 2.0, target=0.0),
               join(9, 5.0)]
    events += [QueryArrival(WORKLOAD.keywords[index % 2])
               for index in range(9)]
    events += [AdvertiserLeave(advertiser=2), join(2, 3.0), join(10, 2.0),
               BudgetTopUp(advertiser=0, amount=5.0), join(11, 1.0)]
    events += [QueryArrival(WORKLOAD.keywords[index % 2])
               for index in range(9)]
    assert_durable_equal(events, method=method, maintenance=maintenance,
                         workers=2)


def test_genesis_runs_share_windows():
    """A run of distinct joins is one window; a repeated id cuts it
    and is refused once the first join has applied."""
    from repro.stream import OnlineAuctionService

    events = [join(advertiser, 5.0) for advertiser in range(5)]
    events.insert(3, join(1, 5.0))
    with OnlineAuctionService(CONFIG, method="rhtalu") as service:
        _, windows = windowed(service, events)
        assert windows == 2
        assert service.events_processed == 5
        assert service.active_advertisers() == [0, 1, 2, 3, 4]
        with pytest.raises(KeyError, match="already active"):
            service.process_window([join(5, 5.0), join(5, 5.0)])
        assert service.events_processed == 5
        with pytest.raises(TypeError, match="run of"):
            service.process_window([join(5, 5.0), QueryArrival("kw0")])
