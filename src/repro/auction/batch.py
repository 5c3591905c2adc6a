"""The batch kernels: a pacer population as arrays.

The sequential engine (:meth:`repro.auction.engine.AuctionEngine.run`)
spends most of its time in pure-Python per-auction loops: ``n`` program
``bid()`` calls, an O(n) bid-extraction scan, and an O(n) program scan
per notified winner.  For the Section V workload — every bidder a
:class:`~repro.strategies.roi_equalizer.SimpleROIPacer` bidding a single
value on ``Click`` — all of that is data-parallel across the population,
so the population's private state can live in NumPy arrays and advance
with a handful of vectorized kernels per auction.

* :class:`PacerArrays` — the array mirror of a pacer population.  It
  replays the exact per-auction semantics of ``SimpleROIPacer.bid`` and
  the notification fold (same IEEE-754 operations in the same order),
  so runs over it are *bit-identical* to sequential runs under a fixed
  seed.  The offline engine copies state in from the program objects
  when a batch starts and writes it back when it ends, so sequential
  and batched runs interleave freely; the online serving layer grows
  and retires its rows directly.
* :class:`ShardEvalState` — one leaf's evaluation state: a mirror plus
  its click rows and the per-slot top-list scan.  Every eager leaf of
  :mod:`repro.runtime.worker` holds one — a worker's shard, the
  in-process service's universe-spanning leaf, and the leaf
  :meth:`~repro.auction.engine.AuctionEngine.run_batch` builds around
  the engine's own mirror.

There is no batch-only auction body: ``run_batch`` settles each leaf
reply through the served tail (:class:`~repro.runtime.executor
.MergeTail`).  Populations the mirror cannot hold (arbitrary
:class:`~repro.strategies.base.BiddingProgram` mixes, multi-row tables,
non-``Click`` formulas) run the sequential loop instead — the batch API
is always available, only the speedup is conditional.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.winner_determination import SubsetSolver
from repro.lang.formula import Atom
from repro.lang.predicates import ClickPredicate
from repro.matching.slot_lists import SlotLists
from repro.strategies.roi_equalizer import SimpleROIPacer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.messages import ControlNotice


def is_bare_click(formula: object) -> bool:
    """Whether ``formula`` is the unresolved single-atom ``Click``."""
    return (isinstance(formula, Atom)
            and isinstance(formula.predicate, ClickPredicate)
            and formula.predicate.advertiser is None)


class PacerArrays:
    """NumPy mirror of a ``SimpleROIPacer`` population.

    Rows are advertiser ids (``0..num_advertisers-1``); columns are the
    union of keyword texts across the population, in first-seen order.
    ``evaluate`` and ``fold_notification`` replicate, operation for
    operation, what the sequential engine does through ``bid()`` and
    ``notify()`` — the equivalence tests in
    ``tests/auction/test_batch.py`` hold this to bit-identity.
    """

    def __init__(self, programs: list[SimpleROIPacer],
                 num_advertisers: int, keywords: list[str]):
        self.programs = programs
        self.num_advertisers = num_advertisers
        self.keywords = keywords
        self.kw_index = {text: col for col, text in enumerate(keywords)}
        n, width = num_advertisers, len(keywords)
        self.bids = np.zeros((n, width))
        self.maxbids = np.zeros((n, width))
        self.value_per_click = np.zeros((n, width))
        self.gained = np.zeros((n, width))
        self.spent = np.zeros((n, width))
        self.has_kw = np.zeros((n, width), dtype=bool)
        self.step = np.zeros(n)
        self.target = np.zeros(n)
        self.amt_spent = np.zeros(n)
        self.auctions_seen = np.zeros(n, dtype=np.int64)
        self.present = np.zeros(n, dtype=bool)
        self.paused: dict[int, dict] = {}
        """Frozen row captures of budget-paused advertisers, keyed by
        id.  A paused row is out of every live array (it cannot bid,
        win, or advance ``auctions_seen``) but its primary state is
        retained here verbatim so :meth:`resume_row` re-admits it
        exactly where it stopped.  Maintained by the online serving
        layer's budget lifecycle (:mod:`repro.stream`)."""
        self.sync_from_programs()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_programs(cls, programs: list, num_advertisers: int
                      ) -> "PacerArrays | None":
        """Build the mirror, or ``None`` if the population does not fit.

        The vectorized pipeline requires: every program a
        ``SimpleROIPacer``; unique in-range advertiser ids; per program,
        unique keyword texts; every record a bare ``Click`` bid.
        """
        seen_ids: set[int] = set()
        keywords: list[str] = []
        known: set[str] = set()
        for program in programs:
            if not isinstance(program, SimpleROIPacer):
                return None
            advertiser = program.advertiser_id
            if (not isinstance(advertiser, int)
                    or not 0 <= advertiser < num_advertisers
                    or advertiser in seen_ids):
                return None
            seen_ids.add(advertiser)
            texts: set[str] = set()
            for record in program.state.keywords:
                if record.text in texts or not is_bare_click(record.formula):
                    return None
                texts.add(record.text)
                if record.text not in known:
                    known.add(record.text)
                    keywords.append(record.text)
        return cls(programs, num_advertisers, keywords)

    # -- state transfer ----------------------------------------------------

    def sync_from_programs(self) -> None:
        """Copy mutable program state into the arrays (batch start)."""
        for program in self.programs:
            row = program.advertiser_id
            state = program.state
            self.present[row] = True
            self.step[row] = program.step
            self.target[row] = state.target_spend_rate
            self.amt_spent[row] = state.amt_spent
            self.auctions_seen[row] = state.auctions_seen
            for record in state.keywords:
                col = self.kw_index[record.text]
                self.has_kw[row, col] = True
                self.bids[row, col] = record.bid
                self.maxbids[row, col] = record.maxbid
                self.value_per_click[row, col] = record.value_per_click
                self.gained[row, col] = record.gained
                self.spent[row, col] = record.spent

    def sync_to_programs(self) -> None:
        """Write the arrays back into the program objects (batch end)."""
        for program in self.programs:
            row = program.advertiser_id
            state = program.state
            state.amt_spent = float(self.amt_spent[row])
            state.auctions_seen = int(self.auctions_seen[row])
            for record in state.keywords:
                col = self.kw_index[record.text]
                record.bid = float(self.bids[row, col])
                record.gained = float(self.gained[row, col])
                record.spent = float(self.spent[row, col])

    # -- the vectorized kernels --------------------------------------------

    def evaluate(self, keyword: str, time: float,
                 out: np.ndarray) -> np.ndarray:
        """One auction's program evaluation, whole population at once.

        Mirrors ``SimpleROIPacer.bid``: every program sees the auction
        (``auctions_seen`` advances), programs holding the queried
        keyword step its bid by ±``step`` against the spend-rate target
        (clamped to ``[0, maxbid]``), and ``out`` receives the dense
        per-advertiser ``Click`` bid vector the eager extraction would
        have produced.
        """
        self.auctions_seen[self.present] += 1
        col = self.kw_index.get(keyword)
        if col is None:
            out[:] = 0.0
            return out
        rate = self.amt_spent / time
        holds = self.has_kw[:, col]
        under = holds & (rate < self.target)
        over = holds & (rate > self.target)
        column = self.bids[:, col]
        column[under] = np.minimum(column[under] + self.step[under],
                                   self.maxbids[under, col])
        column[over] = np.maximum(column[over] - self.step[over], 0.0)
        np.multiply(column, holds, out=out)
        return out

    def fold_notification(self, advertiser: int, keyword: str,
                          clicked: bool, price: float) -> None:
        """One winner's notification, folded straight into the arrays.

        Mirrors ``repro.strategies.roi_equalizer._fold_notification``
        (with the engine's ``value_gained=0`` convention): no-op unless
        charged or clicked; spend accrues to the program; ROI accounting
        accrues to the keyword record when the program holds it.
        """
        if price <= 0 and not clicked:
            return
        self.amt_spent[advertiser] += price
        col = self.kw_index.get(keyword)
        if col is None or not self.has_kw[advertiser, col]:
            return
        gained = self.value_per_click[advertiser, col] if clicked else 0.0
        self.spent[advertiser, col] += price
        self.gained[advertiser, col] += gained

    # -- live advertiser churn (the online serving layer) ------------------

    @classmethod
    def for_universe(cls, num_advertisers: int, keywords: list[str],
                     capture: dict | None = None) -> "PacerArrays":
        """The one way a served mirror is born: empty over a fixed
        id/keyword universe (columns are keyword slots, so the
        vocabulary is fixed up front) and populated by
        :meth:`grow_rows`, or — given a non-empty :meth:`capture` of
        that universe — restored from it (:meth:`from_capture`)."""
        if capture:
            return cls.from_capture(capture)
        return cls([], num_advertisers, list(keywords))

    def active_ids(self) -> np.ndarray:
        """Ascending ids of rows currently holding a live program."""
        return np.flatnonzero(self.present)

    def grow_rows(self, advertisers: np.ndarray, targets: np.ndarray,
                  bids: np.ndarray, maxbids: np.ndarray,
                  values: np.ndarray, step: float) -> None:
        """Bring rows to life with fresh pacing state (a bulk join).

        ``bids`` / ``maxbids`` / ``values`` hold one row per advertiser,
        one column per keyword.  A fixed population is this call over
        the whole universe; a stream join is its one-row case.
        """
        advertisers = np.asarray(advertisers, dtype=np.int64)
        ids = advertisers.tolist()
        if ids and not 0 <= min(ids) <= max(ids) < self.num_advertisers:
            raise KeyError(f"advertiser {ids} outside capacity "
                           f"0..{self.num_advertisers - 1}")
        if len(set(ids)) != len(ids) or self.present[advertisers].any():
            raise KeyError(f"advertiser {ids} already present")
        if not self.paused.keys().isdisjoint(ids):
            raise KeyError(f"advertiser {ids} is paused; resume_row "
                           f"re-admits it")
        targets = np.asarray(targets, dtype=float)
        if np.any(targets <= 0):
            raise ValueError(
                f"target spend rate must be > 0, got {targets.tolist()}")
        shape = (len(advertisers), len(self.keywords))
        bids = np.asarray(bids, dtype=float)
        maxbids = np.asarray(maxbids, dtype=float)
        values = np.asarray(values, dtype=float)
        if targets.shape != shape[:1] or bids.shape != shape \
                or maxbids.shape != shape or values.shape != shape:
            raise ValueError(
                f"grow_rows needs one target and per-keyword "
                f"bids/maxbids/values of length {shape[1]} per row")
        self.present[advertisers] = True
        self.step[advertisers] = step
        self.target[advertisers] = targets
        self.amt_spent[advertisers] = 0.0
        self.auctions_seen[advertisers] = 0
        self.has_kw[advertisers] = True
        self.bids[advertisers] = np.clip(bids, 0.0, maxbids)
        self.maxbids[advertisers] = maxbids
        self.value_per_click[advertisers] = values
        self.gained[advertisers] = 0.0
        self.spent[advertisers] = 0.0

    def retire_row(self, advertiser: int) -> None:
        """Zero a row out (a leave); the id may be re-grown later.

        A budget-paused advertiser can leave too: its retained capture
        is simply discarded (nothing of it remains in the live arrays).
        """
        if advertiser in self.paused:
            del self.paused[advertiser]
            return
        if not self.present[advertiser]:
            raise KeyError(f"advertiser {advertiser} is not present")
        self.present[advertiser] = False
        self.has_kw[advertiser, :] = False
        self.bids[advertiser, :] = 0.0
        self.maxbids[advertiser, :] = 0.0
        self.value_per_click[advertiser, :] = 0.0
        self.gained[advertiser, :] = 0.0
        self.spent[advertiser, :] = 0.0
        self.step[advertiser] = 0.0
        self.target[advertiser] = 0.0
        self.amt_spent[advertiser] = 0.0
        self.auctions_seen[advertiser] = 0

    def update_bid(self, advertiser: int, keyword: str, bid: float,
                   maxbid: float) -> None:
        """Edit one keyword record's bid and cap in place.

        Paused advertisers accept edits too — the change lands in the
        retained capture and takes effect on :meth:`resume_row` (churn
        generators cannot know who the service has paused, so bid
        edits must never depend on pause state).
        """
        if maxbid < 0:
            raise ValueError(f"maxbid must be >= 0, got {maxbid}")
        col = self.kw_index.get(keyword)
        if col is None:
            raise KeyError(f"unknown keyword {keyword!r}")
        row = self.paused.get(advertiser)
        if row is not None:
            row["maxbids"][col] = maxbid
            row["bids"][col] = min(max(float(bid), 0.0), maxbid)
            return
        if not self.present[advertiser]:
            raise KeyError(f"advertiser {advertiser} is not present")
        self.maxbids[advertiser, col] = maxbid
        self.bids[advertiser, col] = min(max(float(bid), 0.0), maxbid)

    def pause_row(self, advertiser: int) -> None:
        """Retire a row but retain its primary state for re-admission.

        The budget lifecycle's exhaustion step: the advertiser leaves
        every live structure through the same :meth:`retire_row` path
        an ordinary leave uses, but its full pacing state — target,
        spend, per-keyword bids/caps/values and ROI accounting — is
        frozen in :attr:`paused` first.  While paused the row sees no
        auctions (``auctions_seen`` does not advance) and its bids do
        not move.
        """
        if not self.present[advertiser]:
            raise KeyError(f"advertiser {advertiser} is not present")
        row = {
            "target": float(self.target[advertiser]),
            "step": float(self.step[advertiser]),
            "amt_spent": float(self.amt_spent[advertiser]),
            "auctions_seen": int(self.auctions_seen[advertiser]),
            "bids": self.bids[advertiser].copy(),
            "maxbids": self.maxbids[advertiser].copy(),
            "values": self.value_per_click[advertiser].copy(),
            "gained": self.gained[advertiser].copy(),
            "spent": self.spent[advertiser].copy(),
        }
        self.retire_row(advertiser)
        self.paused[advertiser] = row

    def resume_row(self, advertiser: int) -> None:
        """Re-admit a paused row exactly where it stopped.

        Inverse of :meth:`pause_row`: the retained capture is written
        back bit-for-bit, so the advertiser rejoins with the bids,
        spend, and ROI history it was frozen with (a budget top-up
        re-admits, it does not reset — unlike a fresh join).
        """
        row = self.paused.pop(advertiser, None)
        if row is None:
            raise KeyError(f"advertiser {advertiser} is not paused")
        self.present[advertiser] = True
        self.target[advertiser] = row["target"]
        self.step[advertiser] = row["step"]
        self.amt_spent[advertiser] = row["amt_spent"]
        self.auctions_seen[advertiser] = row["auctions_seen"]
        self.has_kw[advertiser, :] = True
        self.bids[advertiser, :] = row["bids"]
        self.maxbids[advertiser, :] = row["maxbids"]
        self.value_per_click[advertiser, :] = row["values"]
        self.gained[advertiser, :] = row["gained"]
        self.spent[advertiser, :] = row["spent"]

    def apply_control(self, notice: "ControlNotice", step: float,
                      offset: int = 0) -> None:
        """Apply one churn event: the eager representation's one ladder
        from :attr:`ControlNotice.kind` to a row operation.

        Every host — the in-process service backend, the scan and
        gather shards — changes its rows through this method.
        ``offset`` translates the notice's global advertiser id into
        this mirror's row (a shard's ``lo``); ``step`` is the pacing
        step a joining row starts with.
        """
        row = notice.advertiser - offset
        kind = notice.kind
        if kind == "join":
            self.grow_rows(np.array([row]), np.array([notice.target]),
                           notice.bids[None, :], notice.maxbids[None, :],
                           notice.values[None, :], step)
        elif kind == "leave":
            self.retire_row(row)
        elif kind == "update":
            self.update_bid(row, notice.keyword, notice.bid,
                            notice.maxbid)
        elif kind == "pause":
            self.pause_row(row)
        elif kind == "resume":
            self.resume_row(row)
        else:
            raise ValueError(f"unknown control kind {kind!r}")

    def capture(self) -> dict:
        """Primary state of the live rows as flat arrays (copies).

        The eager pipeline has no derived sorted structures, so the
        capture *is* the whole population state; :meth:`from_capture`
        re-materializes the mirror from it (the online service's
        snapshot/restore and ``rebuild``-maintenance path).  Paused
        rows ride along as their retained per-row captures under
        ``"paused"``.
        """
        ids = self.active_ids()
        return {
            "paused": {advertiser: {key: (value.copy()
                                          if isinstance(value, np.ndarray)
                                          else value)
                                    for key, value in row.items()}
                       for advertiser, row in self.paused.items()},
            "kind": "eager",
            "num_advertisers": int(self.num_advertisers),
            "keywords": list(self.keywords),
            "ids": ids.copy(),
            "target": self.target[ids].copy(),
            "step": self.step[ids].copy(),
            "amt_spent": self.amt_spent[ids].copy(),
            "auctions_seen": self.auctions_seen[ids].copy(),
            "bids": self.bids[ids].copy(),
            "maxbids": self.maxbids[ids].copy(),
            "values": self.value_per_click[ids].copy(),
            "gained": self.gained[ids].copy(),
            "spent": self.spent[ids].copy(),
        }

    @classmethod
    def from_capture(cls, capture: dict) -> "PacerArrays":
        """Rebuild a mirror from :meth:`capture` output, bit for bit."""
        arrays = cls.for_universe(int(capture["num_advertisers"]),
                                  list(capture["keywords"]))
        ids = np.asarray(capture["ids"], dtype=np.int64)
        arrays.present[ids] = True
        arrays.target[ids] = capture["target"]
        arrays.step[ids] = capture["step"]
        arrays.amt_spent[ids] = capture["amt_spent"]
        arrays.auctions_seen[ids] = capture["auctions_seen"]
        arrays.has_kw[ids, :] = True
        arrays.bids[ids] = capture["bids"]
        arrays.maxbids[ids] = capture["maxbids"]
        arrays.value_per_click[ids] = capture["values"]
        arrays.gained[ids] = capture["gained"]
        arrays.spent[ids] = capture["spent"]
        for advertiser, row in capture.get("paused", {}).items():
            arrays.paused[int(advertiser)] = {
                key: (np.asarray(value, dtype=float).copy()
                      if isinstance(value, (list, np.ndarray))
                      else value)
                for key, value in row.items()}
        return arrays


class ShardEvalState:
    """One advertiser shard's eager evaluation state, self-contained.

    The separation the multi-process runtime (:mod:`repro.runtime`)
    builds on: everything *per-advertiser* — pacer state, click rows,
    weight buffers, the per-slot top-list scan — lives here and needs
    no view of the rest of the population; everything *global* — the
    merged lists, matching, user, pricing, accounts — lives with the
    coordinator's :class:`~repro.auction.settlement.AuctionSettler`.
    Advertiser ids are shard-local (``0..m-1``); callers translate
    with the shard's offset.

    The kernels are the exact per-row operations of the single-process
    service (:class:`PacerArrays` evaluation and notification folds,
    the :class:`~repro.core.winner_determination.SubsetSolver` weight
    refresh and slot-list scan restricted to the shard), so a row of a
    shard computes the same floats it would compute inside the full
    arrays — the per-shard half of the runtime's bit-identity argument.
    """

    def __init__(self, click_rows: np.ndarray, top_depth: int,
                 keywords: list[str], capture: dict | None = None,
                 arrays: PacerArrays | None = None):
        """Born empty over the shard's rows and the workload's keyword
        columns, or restored from ``capture`` (the shard's local-frame
        slice of a snapshot); rows then arrive through
        :meth:`PacerArrays.grow_rows` / :meth:`PacerArrays
        .apply_control`.  Given ``arrays``, the state holds that mirror
        instead (the offline engine's, over its own program objects)."""
        self.click_rows = np.asarray(click_rows, dtype=float)
        num_local, self.num_slots = self.click_rows.shape
        self.arrays = (arrays if arrays is not None else
                       PacerArrays.for_universe(num_local, keywords,
                                                capture))
        self.top_depth = top_depth
        self.bid_out = np.zeros(num_local)
        self._solver: SubsetSolver | None = None

    def fold_win(self, advertiser: int, keyword: str, clicked: bool,
                 charge: float) -> None:
        """Apply one past win to the shard (local advertiser id)."""
        self.arrays.fold_notification(advertiser, keyword, clicked,
                                      charge)

    def evaluate(self, keyword: str, time: float) -> np.ndarray:
        """The shard's slice of the population-wide bid vector."""
        return self.arrays.evaluate(keyword, time, out=self.bid_out)

    def rebuild(self) -> None:
        """Re-materialize the pacer mirror from its own capture.

        The ``rebuild`` maintenance strategy calls this after every
        control event, in whichever shard object holds the rows;
        results must match incremental row edits bit for bit (the
        arrays are primary state, so this is an identity-by-construction
        the stream oracle re-asserts).
        """
        self.arrays = PacerArrays.from_capture(self.arrays.capture())

    def scan(self) -> SlotLists:
        """The shard-local per-slot top lists of the last evaluation.

        Lists are ``top_depth`` deep (``num_slots + 1`` in the runtime,
        so the coordinator can both match on the global top-k and
        GSP-price from the merged lists), in shard-local ids; the
        blocks are fresh arrays safe to ship across a process boundary.

        Rows whose program has left (streaming churn) are excluded
        from the scan entirely — a departed advertiser must never be
        allocated, and zero-weight edges *can* enter a maximum
        matching — so ids in the result always refer to live rows.
        """
        solver = self.solver()
        lists = solver.scan(self.bid_out, self.top_depth)
        return SlotLists(ids=solver.active[lists.ids],
                         values=lists.values)

    def solver(self) -> SubsetSolver:
        """The ``rh`` solver over the live rows, kept until a join,
        leave, pause or resume moves the membership."""
        self._solver = SubsetSolver.for_membership(
            self._solver, self.click_rows, self.arrays.present)
        return self._solver
