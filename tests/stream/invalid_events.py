"""The shared table of events the admission rule refuses.

One table — every invalid family ``OnlineAuctionService.check``
names — built around whatever population a test has at hand, so the
service suite (``process`` raises), the wire suite (a ``rejected``
frame) and the ``check`` ⇔ ``process`` property all assert against
the same cases instead of three hand-kept copies.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from repro.stream.events import (
    AdvertiserJoin,
    AdvertiserLeave,
    AdvertiserPaused,
    AdvertiserResumed,
    BidProgramUpdate,
    BudgetTopUp,
    QueryArrival,
)

NAN, INF = float("nan"), float("inf")


class Invalid(NamedTuple):
    label: str
    event: object
    error: type
    """The exception type ``check`` returns and ``process`` raises."""
    detail: str
    """A substring of the error's message (``args[0]``)."""
    wire: bool = True
    """False when the wire protocol itself refuses the frame (not an
    input kind, a non-array column), so it never reaches ``check``."""


def invalid_events(join: AdvertiserJoin, active: int, capacity: int,
                   keyword: str) -> list[Invalid]:
    """Every refused family.  ``join`` is a *valid* join of an id
    that is not registered, ``active`` an id that is (paused counts),
    ``capacity`` the universe size, ``keyword`` one in the
    vocabulary."""
    free = join.advertiser

    def update(**fields) -> BidProgramUpdate:
        return replace(BidProgramUpdate(
            advertiser=active, keyword=keyword, bid=1.0, maxbid=2.0),
            **fields)

    finite = "must be finite"
    return [
        # -- not something the input stream may carry (TypeError) --
        Invalid("not-an-event", "query", TypeError,
                "not a stream event", wire=False),
        Invalid("paused-as-input", AdvertiserPaused(advertiser=active),
                TypeError, "service-originated", wire=False),
        Invalid("resumed-as-input",
                AdvertiserResumed(advertiser=active),
                TypeError, "service-originated", wire=False),
        # -- who (KeyError) ------------------------------------------
        Invalid("query-unknown-keyword", QueryArrival("nope"),
                KeyError, "unknown keyword"),
        Invalid("query-keyword-not-a-string", QueryArrival(3),
                KeyError, "unknown keyword"),
        Invalid("update-unknown-keyword", update(keyword="nosuch"),
                KeyError, "unknown keyword"),
        Invalid("join-bool-id", replace(join, advertiser=True),
                KeyError, "integer id"),
        Invalid("join-string-id", replace(join, advertiser=str(free)),
                KeyError, "integer id"),
        Invalid("leave-float-id", AdvertiserLeave(float(active)),
                KeyError, "integer id"),
        Invalid("join-past-universe",
                replace(join, advertiser=capacity),
                KeyError, "outside universe"),
        Invalid("join-negative-id", replace(join, advertiser=-1),
                KeyError, "outside universe"),
        Invalid("join-duplicate", replace(join, advertiser=active),
                KeyError, "already active"),
        Invalid("leave-inactive", AdvertiserLeave(free),
                KeyError, "not active"),
        Invalid("update-inactive", update(advertiser=free),
                KeyError, "not active"),
        Invalid("topup-inactive", BudgetTopUp(free, 10.0),
                KeyError, "not active"),
        # -- malformed numbers (ValueError) --------------------------
        Invalid("join-short-bids", replace(join, bids=join.bids[:-1]),
                ValueError, "bids must list"),
        Invalid("join-long-maxbids",
                replace(join, maxbids=join.maxbids + (1.0,)),
                ValueError, "maxbids must list"),
        Invalid("join-no-values", replace(join, values=()),
                ValueError, "values must list"),
        Invalid("join-bids-not-a-sequence", replace(join, bids=None),
                ValueError, "bids must list", wire=False),
        Invalid("join-string-target", replace(join, target="0.5"),
                ValueError, "target must be numeric"),
        Invalid("join-bool-budget", replace(join, budget=True),
                ValueError, "budget must be numeric"),
        Invalid("join-string-bid",
                replace(join, bids=("1.0",) + join.bids[1:]),
                ValueError, "bids must be numeric"),
        Invalid("update-string-bid", update(bid="1"),
                ValueError, "bid must be numeric"),
        Invalid("update-null-maxbid", update(maxbid=None),
                ValueError, "maxbid must be numeric"),
        Invalid("topup-string-amount", BudgetTopUp(active, "5"),
                ValueError, "amount must be numeric"),
        # -- non-finite numbers (ValueError) -------------------------
        Invalid("join-nan-target", replace(join, target=NAN),
                ValueError, f"target {finite}"),
        Invalid("join-inf-budget", replace(join, budget=INF),
                ValueError, f"budget {finite}"),
        Invalid("join-nan-bid",
                replace(join, bids=(NAN,) + join.bids[1:]),
                ValueError, f"bids {finite}"),
        Invalid("join-neg-inf-maxbid",
                replace(join, maxbids=(-INF,) + join.maxbids[1:]),
                ValueError, f"maxbids {finite}"),
        Invalid("join-nan-value",
                replace(join, values=join.values[:-1] + (NAN,)),
                ValueError, f"values {finite}"),
        Invalid("update-nan-bid", update(bid=NAN),
                ValueError, f"bid {finite}"),
        Invalid("update-inf-maxbid", update(maxbid=INF),
                ValueError, f"maxbid {finite}"),
        Invalid("topup-nan-amount", BudgetTopUp(active, NAN),
                ValueError, f"amount {finite}"),
        # -- what every hand-kept mirror forgot (ValueError) ---------
        Invalid("join-zero-target", replace(join, target=0),
                ValueError, "target spend rate must be > 0"),
        Invalid("join-negative-target", replace(join, target=-1.0),
                ValueError, "target spend rate must be > 0"),
        Invalid("update-negative-maxbid", update(maxbid=-1),
                ValueError, "maxbid must be >= 0"),
        Invalid("join-negative-maxbid",
                replace(join, maxbids=join.maxbids[:-1] + (-1.0,)),
                ValueError, "maxbid must be >= 0"),
    ]
