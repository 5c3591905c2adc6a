"""``check`` ⇔ ``process``: the one admission rule, as a property.

For any sequence mixing valid events with every refused family
(:mod:`tests.stream.invalid_events`), on every backend:

* ``check(e) is None``  ⇒ ``process(e)`` returns;
* otherwise ``process(e)`` raises ``type(check(e))`` with the same
  message, and the service's full resumable state is byte-for-byte
  what it was.

A rule that is not *complete* fails the first half (a backend op
raises on an admitted event); a rule that is not *pure*, or a
``process`` that validates after it mutates, fails the second.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.stream import (
    AdvertiserLeave,
    BidProgramUpdate,
    BudgetTopUp,
    OnlineAuctionService,
    QueryArrival,
)
from repro.stream.service import (
    _EagerBackend,
    _RhtaluBackend,
    _ShardedBackend,
)
from repro.workloads import (
    PaperWorkload,
    PaperWorkloadConfig,
    join_event,
)
from tests.stream.invalid_events import invalid_events

CONFIG = PaperWorkloadConfig(num_advertisers=12, num_slots=3,
                             num_keywords=3, seed=2)
WORKLOAD = PaperWorkload(CONFIG)
CAPACITY = CONFIG.num_advertisers
KEYWORDS = list(WORKLOAD.keywords)
GENESIS = 4
"""Ids ``0..GENESIS-1`` join up front on budgets small enough that a
few auctions exhaust them, so drawn sequences meet paused members."""

_VALID = ("query", "join", "leave", "update", "topup")
_STEPS = st.lists(
    st.tuples(st.sampled_from((*_VALID, "invalid", "invalid")),
              st.integers(0, 2 ** 16)),
    min_size=6, max_size=30)

BACKENDS = {
    "eager": (dict(method="rh"), _EagerBackend),
    "rhtalu": (dict(method="rhtalu"), _RhtaluBackend),
    "sharded": (dict(method="rh", workers=2), _ShardedBackend),
}


def _draw_event(service: OnlineAuctionService, kind: str, pick: int):
    """Resolve one drawn step against live state: a *valid* event of
    ``kind`` (``None`` when the population allows none), or an entry
    of the invalid table built around the current population."""
    members = service.active_advertisers()  # paused included
    free = [advertiser for advertiser in range(CAPACITY)
            if advertiser not in members]
    keyword = KEYWORDS[pick % len(KEYWORDS)]
    if kind == "query":
        return QueryArrival(keyword), None
    if kind == "join":
        if not free:
            return None, None
        return join_event(WORKLOAD, free[pick % len(free)],
                          budget=float(pick % 3)), None
    if not members:
        return None, None
    member = members[pick % len(members)]
    if kind == "leave":
        return AdvertiserLeave(member), None
    if kind == "update":
        return BidProgramUpdate(member, keyword, bid=0.5 * (pick % 5),
                                maxbid=float(pick % 7)), None
    if kind == "topup":
        return BudgetTopUp(member, amount=float(pick % 9 - 4)), None
    if not free:
        return None, None
    table = invalid_events(join_event(WORKLOAD, free[0], budget=5.0),
                           active=member, capacity=CAPACITY,
                           keyword=keyword)
    case = table[pick % len(table)]
    return case.event, case


def _check_sequence(service: OnlineAuctionService, steps) -> None:
    for advertiser in range(GENESIS):
        service.process(join_event(WORKLOAD, advertiser, budget=0.4))
    for kind, pick in steps:
        event, case = _draw_event(service, kind, pick)
        if event is None:
            continue
        error = service.check(event)
        if case is None:
            assert error is None, (kind, event, error)
            service.process(event)
            continue
        assert isinstance(error, case.error), (case.label, error)
        assert case.detail in error.args[0], (case.label, error)
        before = service.snapshot().to_json()
        watermark = service.events_processed
        with pytest.raises(case.error) as raised:
            service.process(event)
        assert raised.value.args == error.args, case.label
        assert service.snapshot().to_json() == before, case.label
        assert service.events_processed == watermark, case.label


class TestCheckIffProcess:
    @pytest.mark.parametrize("backend", ["eager", "rhtalu"])
    @settings(max_examples=100, deadline=None)
    @given(steps=_STEPS)
    def test_in_process(self, backend, steps):
        options, backend_type = BACKENDS[backend]
        with OnlineAuctionService(CONFIG, engine_seed=5,
                                  **options) as service:
            assert type(service.backend) is backend_type
            _check_sequence(service, steps)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps=_STEPS)
    def test_sharded(self, steps):
        options, backend_type = BACKENDS["sharded"]
        with OnlineAuctionService(CONFIG, engine_seed=5,
                                  **options) as service:
            assert type(service.backend) is backend_type
            _check_sequence(service, steps)
            # The fleet survived every refusal and still serves.
            assert service.process(QueryArrival(KEYWORDS[0])) \
                is not None


class TestEveryFamilyIsRefused:
    """The table itself, once per backend and with a paused member in
    the ``active`` seat: no family slips through on any of them."""

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_each_case_raises_what_check_returns(self, backend):
        options, _ = BACKENDS[backend]
        with OnlineAuctionService(CONFIG, engine_seed=5,
                                  **options) as service:
            for advertiser in range(GENESIS):
                service.process(join_event(WORKLOAD, advertiser,
                                           budget=0.4))
            while not service.paused_advertisers():
                service.process(QueryArrival(KEYWORDS[0]))
            for active in (service.paused_advertisers()[0],
                           GENESIS - 1):
                before = service.snapshot().to_json()
                for case in invalid_events(
                        join_event(WORKLOAD, GENESIS, budget=5.0),
                        active=active, capacity=CAPACITY,
                        keyword=KEYWORDS[1]):
                    error = service.check(case.event)
                    assert isinstance(error, case.error), case.label
                    assert case.detail in error.args[0], case.label
                    with pytest.raises(case.error) as raised:
                        service.process(case.event)
                    assert raised.value.args == error.args
                assert service.snapshot().to_json() == before
