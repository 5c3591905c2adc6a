"""The lazily-maintained pacer state (Section IV-B), held in arrays.

:class:`LazyPacerArrays` is to the dict-backed reference
:class:`~repro.evaluation.pacer_state.LazyPacerState` what
``PacerArrays`` (PR 1) is to the eager program objects: the same
semantics, operation for operation, but held in flat NumPy arrays so
the per-auction protocol runs as boolean-mask kernels instead of
per-program Python.  It is the one live representation: born empty
over an id/keyword universe (:meth:`LazyPacerArrays.for_universe`) or
from a capture, populated by :meth:`LazyPacerArrays.join_many`.  The
reference implementation stays in the tree only for the parity tests
(``tests/evaluation/test_pacer_arrays.py`` registers the same
advertisers on both sides and drives them in lockstep); no production
module imports it.

Layout — ``n`` advertisers x ``K`` keywords, dense (every advertiser
must bid on every keyword, which the threshold algorithm's shared-id
requirement already imposed):

* ``stored[i, c]`` / ``cls[i, c]`` — each bid's stored value and its
  delta-list membership (increment / decrement / constant); the
  effective bid is ``stored + adjustment[cls]``, exactly the
  :class:`~repro.evaluation.delta_list.DeltaList` convention.
* per keyword, three :class:`~repro.evaluation.delta_list.
  ArrayDeltaList` objects keep the same memberships in ascending stored
  order — the sorted-walk mirror the TA kernel merges per auction.
* ``count_deadlines`` / ``time_deadlines`` — :class:`~repro.evaluation.
  trigger_queue.DeadlineArray` banks holding each bid's saturation
  auction and each overspender's decay-crossing time, so "fire the due
  triggers" is one strict-inequality mask per auction.

The per-auction protocol (`begin_auction`) therefore costs a handful of
O(n) vectorized operations plus work proportional to the members that
actually move — the logical-update guarantee, with the constant factor
of C loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.evaluation.delta_list import ArrayDeltaList, merged_descending
from repro.evaluation.trigger_queue import DeadlineArray

INC, DEC, CONST = 0, 1, 2
_MODE_NAMES = ("inc", "dec")


@dataclass
class KeywordBidSource:
    """One auction's merged bid view over a keyword (a TA input).

    ``ids_desc`` / ``values_desc`` are the keyword's bidders by
    descending effective bid; ``eff`` and ``rank`` are the dense
    random-access mirrors (``eff[i]`` = advertiser *i*'s effective
    bid, ``rank[i]`` = *i*'s position in the descending walk).  The
    arrays alias per-state scratch buffers and are valid until the
    next ``begin_auction`` call.

    The object also satisfies the generic
    :class:`~repro.evaluation.threshold.RankedSource` protocol, so the
    scalar ``threshold_top_k`` accepts it unchanged.
    """

    keyword: str
    col: int
    ids_desc: np.ndarray
    values_desc: np.ndarray
    eff: np.ndarray
    rank: np.ndarray

    def descending(self) -> Iterator[tuple[int, float]]:
        for item, value in zip(self.ids_desc, self.values_desc):
            yield int(item), float(value)

    def key(self, item: int) -> float:
        return float(self.eff[item])

    def __contains__(self, item: int) -> bool:
        return 0 <= item < len(self.eff)

    def __len__(self) -> int:
        return len(self.ids_desc)


class LazyPacerArrays:
    """All n pacing programs as arrays, maintained by masked kernels."""

    def __init__(self, num_advertisers: int, keywords: list[str],
                 step: float = 1.0):
        """An empty population over a fixed id/keyword universe,
        populated by :meth:`join_many`."""
        if step <= 0:
            raise ValueError(f"step must be > 0, got {step}")
        self.step = float(step)
        self.keywords = list(keywords)
        self.kw_index = {text: col for col, text in enumerate(keywords)}
        n, width = num_advertisers, len(keywords)
        self.num_advertisers = n
        self.target = np.ones(n)  # placeholder until a row joins
        self.amt_spent = np.zeros(n)
        self.mode = np.full(n, INC, dtype=np.int8)
        self.cls = np.full((n, width), INC, dtype=np.int8)
        self.stored = np.zeros((n, width))
        self.maxbid = np.zeros((n, width))
        self.counts = np.zeros(width, dtype=np.int64)
        self.count_deadlines = DeadlineArray((n, width))
        self.time_deadlines = DeadlineArray(n)
        self.lists = [[ArrayDeltaList() for _ in range(3)]
                      for _ in range(width)]
        self.active = np.zeros(n, dtype=bool)
        """Rows currently registered in the delta lists.  Everything the
        per-auction protocol touches is membership-driven, so inactive
        rows cost nothing; the online serving layer flips this mask
        under advertiser churn (:meth:`join_many`, :meth:`leave`)."""
        self.paused: dict[int, dict] = {}
        """Frozen row captures of budget-paused advertisers, keyed by
        id.  A paused row is out of every delta list and trigger bank
        (it cannot surface in a TA walk), but its primary state —
        target, spend, mode, per-keyword *effective* bids and caps —
        is retained here so :meth:`resume` re-places it.  Maintained by
        the online serving layer's budget lifecycle
        (:mod:`repro.stream`)."""
        self.physical_moves = 0  # list insert/removes, for the ablation
        # Per-auction scratch (aliased by KeywordBidSource views).
        self._eff = np.empty(n)
        self._rank = np.empty(n, dtype=np.int64)
        self._member_mask = np.zeros(n, dtype=bool)

    # -- construction --------------------------------------------------------

    @classmethod
    def for_universe(cls, num_advertisers: int, keywords: list[str],
                     step: float = 1.0, capture: dict | None = None
                     ) -> "LazyPacerArrays":
        """The one way a lazy state is born: empty over the universe,
        or — given a non-empty :meth:`capture` of it — restored from
        that (:meth:`from_capture`)."""
        if capture:
            return cls.from_capture(capture)
        return cls(num_advertisers, keywords, step)

    # -- the per-auction protocol --------------------------------------------

    def begin_auction(self, keyword: str, time: float) -> KeywordBidSource:
        """Advance lazily to this auction and apply the logical update.

        Same contract as the reference ``LazyPacerState.begin_auction``,
        returning the keyword's merged descending bid view.
        """
        self._advance_time(time)
        col = self.kw_index.get(keyword)
        if col is None:
            raise KeyError(f"no bids registered for keyword {keyword!r}")
        self.counts[col] += 1
        self._fire_count_triggers(col)
        lists = self.lists[col]
        lists[INC].adjust(self.step)
        lists[DEC].adjust(-self.step)
        return self._bid_source(keyword, col)

    def record_win(self, advertiser: int, price: float,
                   time: float) -> None:
        """Eagerly fold a winner's charge into his state (Section IV-A)."""
        if price < 0:
            raise ValueError(f"price must be >= 0, got {price}")
        if price == 0:
            return
        spent = float(self.amt_spent[advertiser]) + price
        self.amt_spent[advertiser] = spent
        new_mode = INC if spent / time < self.target[advertiser] else DEC
        if new_mode != self.mode[advertiser]:
            self.mode[advertiser] = new_mode
            if new_mode == INC:
                self.time_deadlines.cancel(advertiser)
            self._rebuild_memberships(np.array([advertiser]))
        if new_mode == DEC:
            # (Re)schedule the decay crossing; the cell holds only the
            # latest generation, so older schedules simply vanish.
            self.time_deadlines.schedule(
                advertiser, spent / self.target[advertiser])

    # -- live churn (the online serving layer) -------------------------------

    def active_ids(self) -> np.ndarray:
        """Ascending ids of the currently registered advertisers."""
        return np.flatnonzero(self.active)

    def join_many(self, advertisers: np.ndarray, targets: np.ndarray,
                  bids: np.ndarray, maxbids: np.ndarray) -> None:
        """Register advertisers with fresh pacing state (a bulk join).

        ``bids`` / ``maxbids`` hold one row per advertiser, one column
        per keyword (the constructor's keyword order).  Newcomers start
        underspending (mode ``inc``, nothing spent) and are placed into
        each keyword's delta lists by the one set of placement rules
        (:meth:`_place_batch`, one call per keyword), scheduling their
        bound-saturation count triggers against the keyword counters
        *as they stand now* — joining late means joining the lists
        mid-adjustment, which is exactly what the delta-list
        representation makes O(1) per keyword.  A fixed population is
        this call over the whole universe; a stream join is its
        one-row case.
        """
        advertisers = np.asarray(advertisers, dtype=np.int64)
        ids = advertisers.tolist()
        if ids and not 0 <= min(ids) <= max(ids) < self.num_advertisers:
            raise KeyError(f"advertiser {ids} outside capacity "
                           f"0..{self.num_advertisers - 1}")
        if len(set(ids)) != len(ids) or self.active[advertisers].any():
            raise KeyError(f"advertiser {ids} already active")
        if not self.paused.keys().isdisjoint(ids):
            raise KeyError(
                f"advertiser {ids} is paused; resume re-admits it")
        targets = np.asarray(targets, dtype=float)
        if np.any(targets <= 0):
            raise ValueError(
                f"target spend rate must be > 0, got {targets.tolist()}")
        bids = np.asarray(bids, dtype=float)
        maxbids = np.asarray(maxbids, dtype=float)
        shape = (len(advertisers), len(self.keywords))
        if targets.shape != shape[:1] or bids.shape != shape \
                or maxbids.shape != shape:
            raise ValueError(
                f"join needs one target, and one bid and one cap per "
                f"keyword ({shape[1]}), per advertiser; got "
                f"{targets.shape} / {bids.shape} / {maxbids.shape}")
        self.active[advertisers] = True
        self.target[advertisers] = targets
        self.amt_spent[advertisers] = 0.0
        self.mode[advertisers] = INC
        self.time_deadlines.cancel(advertisers)
        self.maxbid[advertisers] = maxbids
        for col in range(shape[1]):
            self._place_batch(advertisers, col, bids[:, col])

    def leave(self, advertiser: int) -> None:
        """Retire an advertiser: delta-list removal, trigger cancels.

        Per keyword the row leaves only the one list ``cls`` names.

        A budget-paused advertiser can leave too: its retained capture
        is discarded (it holds no live memberships to remove).
        """
        if advertiser in self.paused:
            del self.paused[advertiser]
            return
        if not self.active[advertiser]:
            raise KeyError(f"advertiser {advertiser} is not active")
        for lists, membership in zip(self.lists, self.cls[advertiser]):
            lists[membership].remove_id(advertiser)
        self.count_deadlines.cancel(advertiser)
        self.time_deadlines.cancel(advertiser)
        self.active[advertiser] = False
        self.physical_moves += len(self.keywords)

    def update_bid(self, advertiser: int, keyword: str, bid: float,
                   maxbid: float) -> None:
        """Re-place one keyword bid at an edited value and cap.

        Paused advertisers accept edits too — the change lands in the
        retained capture's frozen effective bid and takes effect on
        :meth:`resume`.
        """
        if maxbid < 0:
            raise ValueError(f"maxbid must be >= 0, got {maxbid}")
        row = self.paused.get(advertiser)
        if row is not None:
            col = self._column(keyword)
            row["maxbid"][col] = maxbid
            row["effective"][col] = min(max(float(bid), 0.0), maxbid)
            return
        if not self.active[advertiser]:
            raise KeyError(f"advertiser {advertiser} is not active")
        col = self._column(keyword)
        self.lists[col][self.cls[advertiser, col]].remove_id(advertiser)
        who = np.array([advertiser])
        self.count_deadlines.cancel((who, col))
        self.maxbid[advertiser, col] = maxbid
        self.physical_moves += 1
        self._place_batch(who, col, np.array([float(bid)]))

    def pause(self, advertiser: int) -> None:
        """Retire an advertiser but retain primary state for re-entry.

        The budget lifecycle's exhaustion step.  The row's per-keyword
        *effective* bids (``stored + adjustment``) are frozen at this
        instant, then the advertiser leaves every derived structure
        through the exact :meth:`leave` path — delta-list removals,
        count/time trigger cancels.  While paused the bids do not move
        with the lists' adjustments (the advertiser is not pacing) and
        no trigger can fire for it.
        """
        if not self.active[advertiser]:
            raise KeyError(f"advertiser {advertiser} is not active")
        width = len(self.keywords)
        cls_row = self.cls[advertiser]
        effective = self.stored[advertiser].copy()
        for col in range(width):
            effective[col] += self._adjustment(col, cls_row[col])
        row = {
            "target": float(self.target[advertiser]),
            "amt_spent": float(self.amt_spent[advertiser]),
            "mode": int(self.mode[advertiser]),
            "effective": effective,
            "maxbid": self.maxbid[advertiser].copy(),
        }
        self.leave(advertiser)
        self.paused[advertiser] = row

    def resume(self, advertiser: int) -> None:
        """Re-admit a paused advertiser at its frozen effective bids.

        Inverse of :meth:`pause`, by *re-placement* rather than raw
        copy-back: target, spend, and mode are restored verbatim, the
        frozen effective bids are placed into each keyword's delta
        lists by the same rules a join uses (scheduling fresh
        bound-saturation count triggers against the keyword counters
        *as they stand now*), and an overspender's decay-crossing time
        trigger is rescheduled from its unchanged ``spent / target``
        instant — so a long pause can legitimately resume straight
        into a mode flip on the next auction.
        """
        row = self.paused.pop(advertiser, None)
        if row is None:
            raise KeyError(f"advertiser {advertiser} is not paused")
        self.active[advertiser] = True
        self.target[advertiser] = row["target"]
        self.amt_spent[advertiser] = row["amt_spent"]
        self.mode[advertiser] = row["mode"]
        self.maxbid[advertiser, :] = row["maxbid"]
        if row["mode"] == DEC:
            self.time_deadlines.schedule(
                advertiser, row["amt_spent"] / row["target"])
        else:
            self.time_deadlines.cancel(advertiser)
        who = np.array([advertiser])
        effective = np.asarray(row["effective"], dtype=float)
        for col in range(len(self.keywords)):
            self._place_batch(who, col, effective[col:col + 1])

    # -- capture / rebuild ---------------------------------------------------

    def capture(self) -> dict:
        """The primary pacing state as flat arrays (fresh copies).

        Everything the lazily-maintained representation *means* —
        stored bids plus membership classes, the per-keyword adjustment
        scalars and auction counters, modes, spend, caps, and pending
        trigger deadlines — without the derived sorted structures (the
        delta lists' orders, the walk scratch).  :meth:`from_capture`
        re-derives those from scratch, which is both the snapshot/
        restore path of the online service and its ``rebuild``
        maintenance strategy's per-event cost.  Budget-paused rows ride
        along under ``"paused"`` as their frozen per-row captures (pure
        data, copied verbatim both ways).
        """
        ids = self.active_ids()
        return {
            "paused": {advertiser: {key: (value.copy()
                                          if isinstance(value, np.ndarray)
                                          else value)
                                    for key, value in row.items()}
                       for advertiser, row in self.paused.items()},
            "kind": "rhtalu",
            "num_advertisers": int(self.num_advertisers),
            "keywords": list(self.keywords),
            "step": float(self.step),
            "ids": ids.copy(),
            "target": self.target[ids].copy(),
            "amt_spent": self.amt_spent[ids].copy(),
            "mode": self.mode[ids].copy(),
            "stored": self.stored[ids].copy(),
            "cls": self.cls[ids].copy(),
            "maxbid": self.maxbid[ids].copy(),
            "count_critical": self.count_deadlines.critical[ids].copy(),
            "time_critical": self.time_deadlines.critical[ids].copy(),
            "counts": self.counts.copy(),
            "adjust_inc": np.array([lists[INC].adjustment
                                    for lists in self.lists]),
            "adjust_dec": np.array([lists[DEC].adjustment
                                    for lists in self.lists]),
        }

    @classmethod
    def from_capture(cls, capture: dict) -> "LazyPacerArrays":
        """Rebuild the full state from :meth:`capture` output.

        The numeric state (stored bids, adjustments, deadlines) is
        copied bit-for-bit; every *derived* structure — each keyword's
        three sorted delta arrays, the trigger banks, the walk scratch —
        is reconstructed from scratch.  A rebuilt state is therefore
        observationally identical to the incrementally-maintained one:
        same effective bids, same trigger firings, same TA walks up to
        exact-tie order (which no selection in the repo depends on).
        """
        keywords = list(capture["keywords"])
        n = int(capture["num_advertisers"])
        state = cls(n, keywords, float(capture["step"]))
        ids = np.asarray(capture["ids"], dtype=np.int64)
        state.active[ids] = True
        state.target[ids] = capture["target"]
        state.amt_spent[ids] = capture["amt_spent"]
        state.mode[ids] = capture["mode"]
        state.stored[ids] = capture["stored"]
        state.cls[ids] = capture["cls"]
        state.maxbid[ids] = capture["maxbid"]
        state.count_deadlines.critical[ids] = capture["count_critical"]
        state.time_deadlines.critical[ids] = capture["time_critical"]
        state.counts[:] = capture["counts"]
        stored = state.stored[ids]
        membership = state.cls[ids]
        for col in range(len(keywords)):
            lists = state.lists[col]
            lists[INC].adjustment = float(capture["adjust_inc"][col])
            lists[DEC].adjustment = float(capture["adjust_dec"][col])
            for which in (INC, DEC, CONST):
                chosen = membership[:, col] == which
                member_ids = ids[chosen]
                member_stored = stored[chosen][:, col]
                order = np.lexsort((member_ids, member_stored))
                lists[which].ids = member_ids[order]
                lists[which].stored = member_stored[order]
        for advertiser, row in capture.get("paused", {}).items():
            state.paused[int(advertiser)] = {
                key: (np.asarray(value, dtype=float).copy()
                      if isinstance(value, (list, np.ndarray))
                      else value)
                for key, value in row.items()}
        return state

    # -- accessors -----------------------------------------------------------

    def effective_bid(self, advertiser: int, keyword: str) -> float:
        if not self.active[advertiser]:
            raise KeyError(f"advertiser {advertiser} is not active")
        col = self._column(keyword)
        return float(self.stored[advertiser, col]
                     + self._adjustment(col, self.cls[advertiser, col]))

    def bids_for_keyword(self, keyword: str) -> dict[int, float]:
        """Snapshot of every active advertiser's effective bid."""
        col = self._column(keyword)
        effective = self.stored[:, col] + \
            self._adjustment_vector(col)[self.cls[:, col]]
        return {int(advertiser): float(effective[advertiser])
                for advertiser in self.active_ids()}

    def mode_of(self, advertiser: int) -> str:
        """The advertiser's current pacing mode ("inc" or "dec")."""
        return _MODE_NAMES[self.mode[advertiser]]

    def keyword_count(self, keyword: str) -> int:
        return int(self.counts[self._column(keyword)])

    def trigger_stats(self) -> tuple[int, int, int]:
        """(scheduled, fired, pending) trigger counts, for the ablation."""
        banks = (self.count_deadlines, self.time_deadlines)
        return (sum(bank.scheduled_total for bank in banks),
                sum(bank.fired_total for bank in banks),
                sum(bank.pending_total() for bank in banks))

    # -- internals -----------------------------------------------------------

    def _column(self, keyword: str) -> int:
        col = self.kw_index.get(keyword)
        if col is None:
            raise KeyError(f"no bids registered for keyword {keyword!r}")
        return col

    def _adjustment(self, col: int, membership: int) -> float:
        if membership == CONST:
            return 0.0
        return self.lists[col][membership].adjustment

    def _adjustment_vector(self, col: int) -> np.ndarray:
        lists = self.lists[col]
        return np.array([lists[INC].adjustment, lists[DEC].adjustment,
                         0.0])

    def _advance_time(self, time: float) -> None:
        """Flip overspenders whose spending rate decayed past target."""
        due = self.time_deadlines.due_mask(time)
        if not due.any():
            return
        self.time_deadlines.fire(due)
        flipped = np.flatnonzero(due)
        self.mode[flipped] = INC
        self._rebuild_memberships(flipped)

    def _fire_count_triggers(self, col: int) -> None:
        """Pin every bid that saturates at its bound on this auction."""
        due = self.count_deadlines.due_mask(self.counts[col] + 0.5, col)
        if not due.any():
            return
        self.count_deadlines.fire(due, col)
        saturated = np.flatnonzero(due)
        lists = self.lists[col]
        mask = self._member_mask
        mask[saturated] = True
        lists[INC].remove_mask(mask)
        lists[DEC].remove_mask(mask)
        mask[saturated] = False
        bound = np.where(self.cls[saturated, col] == INC,
                         self.maxbid[saturated, col], 0.0)
        lists[CONST].insert_batch(saturated, bound)
        self.cls[saturated, col] = CONST
        self.stored[saturated, col] = bound
        self.physical_moves += 2 * len(saturated)

    def _rebuild_memberships(self, advertisers: np.ndarray) -> None:
        """Re-place some advertisers' bids (after a mode change)."""
        mask = self._member_mask
        mask[advertisers] = True
        for col in range(len(self.keywords)):
            adjustments = self._adjustment_vector(col)
            effective = (self.stored[advertisers, col]
                         + adjustments[self.cls[advertisers, col]])
            for lst in self.lists[col]:
                lst.remove_mask(mask)
            self.count_deadlines.cancel((advertisers, col))
            self.physical_moves += len(advertisers)
            self._place_batch(advertisers, col, effective)
        mask[advertisers] = False

    def _place_batch(self, advertisers: np.ndarray, col: int,
                     effective: np.ndarray) -> None:
        """Insert bids into the lists matching each advertiser's mode,
        scheduling the bound-saturation count triggers (the vectorized
        ``LazyPacerState._place``).  Callers remove the ids first."""
        lists = self.lists[col]
        cap = self.maxbid[advertisers, col]
        bid = np.clip(effective, 0.0, cap)
        incs = self.mode[advertisers] == INC
        sat_high = incs & (bid >= cap)
        sat_low = ~incs & (bid <= 0.0)
        pinned = sat_high | sat_low
        moving_inc = incs & ~sat_high
        moving_dec = ~incs & ~sat_low

        if pinned.any():
            ids = advertisers[pinned]
            value = np.where(sat_high[pinned], cap[pinned], 0.0)
            lists[CONST].insert_batch(ids, value)
            self.cls[ids, col] = CONST
            self.stored[ids, col] = value
            self.count_deadlines.cancel((ids, col))
        for membership, moving, remaining in (
                (INC, moving_inc, cap - bid),
                (DEC, moving_dec, bid)):
            if not moving.any():
                continue
            ids = advertisers[moving]
            value = bid[moving]
            lists[membership].insert_batch(ids, value)
            self.cls[ids, col] = membership
            self.stored[ids, col] = \
                value - lists[membership].adjustment
            steps = np.ceil(remaining[moving] / self.step)
            self.count_deadlines.schedule((ids, col),
                                          self.counts[col] + steps)
        self.physical_moves += len(advertisers)

    def _bid_source(self, keyword: str, col: int) -> KeywordBidSource:
        """Materialize the merged descending walk plus dense mirrors."""
        ids_desc, values_desc = merged_descending(self.lists[col])
        eff, rank = self._eff, self._rank
        eff[ids_desc] = values_desc
        rank[ids_desc] = np.arange(len(ids_desc))
        return KeywordBidSource(keyword=keyword, col=col,
                                ids_desc=ids_desc,
                                values_desc=values_desc,
                                eff=eff, rank=rank)
