"""The online event model: what a serving engine consumes.

A long-lived sponsored-search engine does not run a fixed population
through a fixed number of auctions — queries *arrive*, advertisers
*join and leave*, bid programs get *edited*, budgets get *topped up*,
all interleaved on one ordered stream.  This module defines that
stream's vocabulary:

* :class:`QueryArrival` — run one auction for a keyword (the only
  event kind that advances auction time and consumes decision RNG);
* :class:`AdvertiserJoin` / :class:`AdvertiserLeave` — population
  churn.  A join carries the newcomer's full bid program (per-keyword
  bids, caps, click values, spend-rate target) so the stream is
  self-contained — even the genesis population enters through joins;
* :class:`BidProgramUpdate` — edit one keyword's bid and cap in place;
* :class:`BudgetTopUp` — credit an advertiser's budget ledger (and
  re-admit it, if the credit lifts a paused balance above zero).

Two further kinds are **service-originated**: the event loop emits
:class:`AdvertiserPaused` when a charge exhausts a tracked budget and
:class:`AdvertiserResumed` when a top-up re-admits the advertiser.
They appear on the service's ``emitted`` journal (and in serialized
logs of it), never on the input stream — replaying the input
re-derives them deterministically.

:class:`EventLog` is the materialized form: an ordered, sliceable,
JSONL-serializable sequence.  Any iterable of events (a generator, a
socket reader) serves as a :data:`StreamSource` — the service consumes
events one at a time and never looks ahead.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Union


@dataclass(frozen=True)
class QueryArrival:
    """A user query for ``keyword``: run one auction."""

    keyword: str


@dataclass(frozen=True)
class AdvertiserJoin:
    """A new advertiser enters with a complete bid program.

    ``bids`` / ``maxbids`` / ``values`` are per-keyword tuples aligned
    with the workload's keyword order; ``target`` is the ROI pacer's
    target spend rate and ``budget`` the initial ledger balance.
    Rejoining after a leave is allowed and starts fresh (no spend
    history carries over).
    """

    advertiser: int
    target: float
    bids: tuple[float, ...]
    maxbids: tuple[float, ...]
    values: tuple[float, ...]
    budget: float = 0.0


@dataclass(frozen=True)
class AdvertiserLeave:
    """An advertiser departs; it must never win an auction again."""

    advertiser: int


@dataclass(frozen=True)
class BidProgramUpdate:
    """Edit one keyword's bid and cap of a live advertiser."""

    advertiser: int
    keyword: str
    bid: float
    maxbid: float


@dataclass(frozen=True)
class BudgetTopUp:
    """Credit an advertiser's budget ledger by ``amount``.

    Budgets gate participation (:mod:`repro.stream.budget`): charges
    debit the ledger, exhaustion pauses the advertiser, and the top-up
    that lifts a paused balance above zero re-admits it — the service
    answers with an :class:`AdvertiserResumed` control event.
    Advertisers that joined with a non-positive budget are untracked
    and stay untracked through top-ups.
    """

    advertiser: int
    amount: float


@dataclass(frozen=True)
class AdvertiserPaused:
    """Service-originated: a charge exhausted the advertiser's budget.

    Emitted by :class:`~repro.stream.service.OnlineAuctionService`
    when settlement drives a tracked balance to zero (the final charge
    clamps to the remaining balance, so the ledger never goes
    negative).  The advertiser leaves every derived evaluation
    structure but its primary pacing capture is retained for
    re-admission on :class:`BudgetTopUp`.  ``auction_id`` names the
    auction whose settlement exhausted the ledger.

    Pause events are *outputs* of the event loop, never inputs — a
    replayed input stream re-derives them deterministically — so the
    service rejects them on its input side but journals them on the
    :class:`~repro.stream.service.OnlineAuctionService` ``emitted``
    log.
    """

    advertiser: int
    auction_id: int = 0


@dataclass(frozen=True)
class AdvertiserResumed:
    """Service-originated: a top-up re-admitted a paused advertiser.

    The counterpart of :class:`AdvertiserPaused`, emitted when a
    :class:`BudgetTopUp` lifts a paused balance above zero.
    ``auction_id`` is the id of the last auction run before the
    re-admission (the advertiser participates again from the next
    query on).
    """

    advertiser: int
    auction_id: int = 0


Event = Union[QueryArrival, AdvertiserJoin, AdvertiserLeave,
              BidProgramUpdate, BudgetTopUp, AdvertiserPaused,
              AdvertiserResumed]

NUMERIC_FIELDS = {
    AdvertiserJoin: ("target", "budget", "bids", "maxbids", "values"),
    BidProgramUpdate: ("bid", "maxbid"),
    BudgetTopUp: ("amount",),
}
"""Per event type, the fields that must hold finite numbers
(``bids`` / ``maxbids`` / ``values`` one per keyword).  ``json.loads``
parses ``NaN`` / ``Infinity``, and one such bid or budget has no place
in an order: it poisons the partition of the selection scan and the
argsort click index for every later auction, so the service's
admission rule refuses it before the journal sees it."""


SERVICE_ORIGINATED = (AdvertiserPaused, AdvertiserResumed)
"""Event types the service emits but refuses to consume: they are
derived deterministically from the input stream, so feeding them back
in would double-apply them."""

StreamSource = Iterable[Event]
"""Anything that yields events in order — an :class:`EventLog`, a
generator, a network reader."""

_EVENT_TYPES: dict[str, type] = {
    "query": QueryArrival,
    "join": AdvertiserJoin,
    "leave": AdvertiserLeave,
    "update": BidProgramUpdate,
    "topup": BudgetTopUp,
    "paused": AdvertiserPaused,
    "resumed": AdvertiserResumed,
}
_KIND_OF = {cls: kind for kind, cls in _EVENT_TYPES.items()}


def event_kind(event: Event) -> str:
    """The event's wire/stats kind (``query``/``join``/``leave``/...)."""
    return _KIND_OF[type(event)]


@dataclass
class EventLog:
    """An ordered, sliceable, serializable event sequence."""

    events: list[Event] = field(default_factory=list)

    def append(self, event: Event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventLog(self.events[index])
        return self.events[index]

    def prefix(self, count: int) -> "EventLog":
        """The first ``count`` events (the oracle tests replay these)."""
        return EventLog(self.events[:count])

    def counts_by_kind(self) -> dict[str, int]:
        counts = {kind: 0 for kind in _EVENT_TYPES}
        for event in self.events:
            counts[event_kind(event)] += 1
        return counts

    def num_queries(self) -> int:
        return sum(1 for event in self.events
                   if isinstance(event, QueryArrival))

    # -- serialization -----------------------------------------------------

    def to_jsonl(self, path: str | Path) -> Path:
        """One JSON object per line: ``{"kind": ..., **fields}``."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for event in self.events:
                payload = {"kind": event_kind(event), **asdict(event)}
                handle.write(json.dumps(payload, sort_keys=True) + "\n")
        return path

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "EventLog":
        events: list[Event] = []
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                payload = dict(json.loads(line))
                kind = payload.pop("kind")
                event_type = _EVENT_TYPES.get(kind)
                if event_type is None:
                    raise ValueError(f"unknown event kind {kind!r}")
                for key in ("bids", "maxbids", "values"):
                    if key in payload:
                        payload[key] = tuple(payload[key])
                events.append(event_type(**payload))
        return cls(events)
