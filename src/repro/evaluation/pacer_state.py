"""Lazily-maintained pacing programs (the "LU" in method RHTALU).

This module maintains the state of *n* :class:`~repro.strategies.
roi_equalizer.SimpleROIPacer` programs without running them: per keyword,
bidders sit in an increment, decrement, or constant delta list
(:mod:`repro.evaluation.delta_list`), and each auction applies one O(1)
logical adjustment per list instead of n physical updates.  Programs move
between lists only when

* a **time trigger** fires — a losing, overspending program's spending
  rate ``amt_spent / t`` decays past its target at the critical time
  ``t* = amt_spent / target`` (Section IV-B's shared monotonic variable
  "time"), or
* a **count trigger** fires — a bid reaches its cap/floor after a
  computable number of further auctions for its keyword (the shared
  monotonic variable "number of times the keyword occurred"), or
* the program **wins** and is updated eagerly (the only programs touched
  per auction, as Section IV-A stipulates).

The invariant, verified by ``tests/evaluation/test_logical_updates.py``:
after any auction sequence, every effective bid equals the bid an eager
``SimpleROIPacer`` ensemble would hold (to float tolerance).

This dict-backed class is the *reference implementation* — the semantic
spec the tests pin down — and nothing else: no production module
imports it.  Every RHTALU evaluator runs on
:class:`~repro.evaluation.pacer_arrays.LazyPacerArrays`, which replays
the same placement and trigger rules as boolean-mask kernels
(``tests/evaluation/test_pacer_arrays.py`` registers the same
advertisers on both sides and holds the two to bid-for-bid parity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.evaluation.delta_list import DeltaList, MergedDeltaSource
from repro.evaluation.trigger_queue import TriggerQueue

_INC, _DEC = "inc", "dec"


@dataclass
class _KeywordEntry:
    """One advertiser's lazily-tracked state for one keyword."""

    maxbid: float
    generation: int = 0  # invalidates stale count triggers


@dataclass
class _AdvertiserState:
    target: float
    amt_spent: float = 0.0
    mode: str = _INC  # everyone starts underspending (spent 0)
    generation: int = 0  # invalidates stale time triggers
    keywords: dict[str, _KeywordEntry] = field(default_factory=dict)


@dataclass
class _KeywordIndex:
    """The three delta lists and the auction counter of one keyword."""

    inc: DeltaList = field(default_factory=DeltaList)
    dec: DeltaList = field(default_factory=DeltaList)
    const: DeltaList = field(default_factory=DeltaList)
    count: int = 0

    def source(self) -> MergedDeltaSource:
        return MergedDeltaSource([self.inc, self.dec, self.const])

    def locate(self, item: int) -> DeltaList:
        for lst in (self.inc, self.dec, self.const):
            if item in lst:
                return lst
        raise KeyError(f"advertiser {item} not indexed for this keyword")


@dataclass(frozen=True)
class _TimeTrigger:
    advertiser: int
    generation: int


@dataclass(frozen=True)
class _CountTrigger:
    advertiser: int
    keyword: str
    generation: int
    bound: float  # the bid value to pin when the trigger fires


class LazyPacerState:
    """All n pacing programs, maintained by logical updates."""

    def __init__(self, step: float = 1.0):
        if step <= 0:
            raise ValueError(f"step must be > 0, got {step}")
        self.step = step
        self._advertisers: dict[int, _AdvertiserState] = {}
        self._keywords: dict[str, _KeywordIndex] = {}
        self._triggers: TriggerQueue = TriggerQueue()
        self.physical_moves = 0  # list insert/removes, for the ablation

    # -- setup ---------------------------------------------------------------

    def add_advertiser(self, advertiser: int, target: float) -> None:
        if advertiser in self._advertisers:
            raise KeyError(f"advertiser {advertiser} already added")
        if target <= 0:
            raise ValueError(f"target spend rate must be > 0, got {target}")
        self._advertisers[advertiser] = _AdvertiserState(target=target)

    def add_keyword_bid(self, advertiser: int, keyword: str,
                        initial_bid: float, maxbid: float) -> None:
        """Register one (advertiser, keyword) bid at its initial value."""
        state = self._advertisers[advertiser]
        if keyword in state.keywords:
            raise KeyError(f"advertiser {advertiser} already bids on "
                           f"{keyword!r}")
        if not 0 <= initial_bid <= max(maxbid, 0):
            raise ValueError(
                f"need 0 <= initial_bid <= maxbid, got {initial_bid} "
                f"vs {maxbid}")
        state.keywords[keyword] = _KeywordEntry(maxbid=maxbid)
        index = self._keywords.setdefault(keyword, _KeywordIndex())
        self._place(advertiser, keyword, index, initial_bid)

    # -- the per-auction protocol ---------------------------------------------

    def begin_auction(self, keyword: str, time: float) -> MergedDeltaSource:
        """Advance lazily to this auction and apply the logical update.

        Returns the keyword's merged bid source (a TA input).  ``time``
        must be strictly increasing across calls; the keyword's auction
        counter advances by one.
        """
        self._advance_time(time)
        index = self._keyword_index(keyword)
        index.count += 1
        self._fire_count_triggers(keyword, index)
        index.inc.adjust(self.step)
        index.dec.adjust(-self.step)
        return index.source()

    def record_win(self, advertiser: int, price: float,
                   time: float) -> None:
        """Eagerly fold a winner's charge into his state (Section IV-A)."""
        if price < 0:
            raise ValueError(f"price must be >= 0, got {price}")
        state = self._advertisers[advertiser]
        if price == 0:
            return
        state.amt_spent += price
        new_mode = (_INC if state.amt_spent / time < state.target
                    else _DEC)
        if new_mode != state.mode:
            state.mode = new_mode
            self._rebuild_all_memberships(advertiser)
        if new_mode == _DEC:
            # (Re)schedule the decay crossing; older triggers go stale.
            state.generation += 1
            critical = state.amt_spent / state.target
            self._triggers.schedule(
                "time", critical,
                _TimeTrigger(advertiser, state.generation))

    # -- accessors ----------------------------------------------------------

    def effective_bid(self, advertiser: int, keyword: str) -> float:
        index = self._keyword_index(keyword)
        return index.locate(advertiser).key(advertiser)

    def bids_for_keyword(self, keyword: str) -> dict[int, float]:
        """Snapshot of every advertiser's effective bid on a keyword."""
        index = self._keyword_index(keyword)
        bids: dict[int, float] = {}
        for lst in (index.inc, index.dec, index.const):
            bids.update(lst.items())
        return bids

    def mode_of(self, advertiser: int) -> str:
        """The advertiser's current pacing mode ("inc" or "dec")."""
        return self._advertisers[advertiser].mode

    def amt_spent(self, advertiser: int) -> float:
        return self._advertisers[advertiser].amt_spent

    def keyword_count(self, keyword: str) -> int:
        return self._keyword_index(keyword).count

    def trigger_stats(self) -> tuple[int, int, int]:
        """(scheduled, fired, pending) trigger counts, for the ablation."""
        return (self._triggers.scheduled_total,
                self._triggers.fired_total,
                self._triggers.pending_total())

    # -- internals ------------------------------------------------------------

    def _keyword_index(self, keyword: str) -> _KeywordIndex:
        if keyword not in self._keywords:
            raise KeyError(f"no bids registered for keyword {keyword!r}")
        return self._keywords[keyword]

    def _advance_time(self, time: float) -> None:
        for trigger in self._triggers.advance("time", time):
            state = self._advertisers.get(trigger.advertiser)
            if state is None or state.generation != trigger.generation:
                continue  # stale: the advertiser won since scheduling
            if state.mode != _DEC:
                continue
            # Spending rate decayed below target: overspender -> inc.
            state.mode = _INC
            state.generation += 1
            self._rebuild_all_memberships(trigger.advertiser)

    def _fire_count_triggers(self, keyword: str,
                             index: _KeywordIndex) -> None:
        due = self._triggers.advance(("count", keyword),
                                     index.count + 0.5)
        for trigger in due:
            state = self._advertisers.get(trigger.advertiser)
            if state is None:
                continue
            entry = state.keywords.get(keyword)
            if entry is None or entry.generation != trigger.generation:
                continue
            # The bid saturates at its bound on this very auction.
            lst = index.locate(trigger.advertiser)
            lst.remove(trigger.advertiser)
            index.const.insert(trigger.advertiser, trigger.bound)
            entry.generation += 1
            self.physical_moves += 2

    def _rebuild_all_memberships(self, advertiser: int) -> None:
        state = self._advertisers[advertiser]
        for keyword in state.keywords:
            index = self._keyword_index(keyword)
            bid = index.locate(advertiser).remove(advertiser)
            self.physical_moves += 1
            self._place(advertiser, keyword, index, bid)

    def _place(self, advertiser: int, keyword: str,
               index: _KeywordIndex, bid: float) -> None:
        """Insert a bid into the list matching the advertiser's mode,
        scheduling the bound-saturation count trigger."""
        state = self._advertisers[advertiser]
        entry = state.keywords[keyword]
        entry.generation += 1
        bid = min(max(bid, 0.0), entry.maxbid)
        self.physical_moves += 1
        if state.mode == _INC:
            if bid >= entry.maxbid:
                index.const.insert(advertiser, entry.maxbid)
                return
            index.inc.insert(advertiser, bid)
            steps = math.ceil((entry.maxbid - bid) / self.step)
            self._triggers.schedule(
                ("count", keyword), index.count + steps,
                _CountTrigger(advertiser, keyword, entry.generation,
                              entry.maxbid))
        else:
            if bid <= 0.0:
                index.const.insert(advertiser, 0.0)
                return
            index.dec.insert(advertiser, bid)
            steps = math.ceil(bid / self.step)
            self._triggers.schedule(
                ("count", keyword), index.count + steps,
                _CountTrigger(advertiser, keyword, entry.generation, 0.0))
