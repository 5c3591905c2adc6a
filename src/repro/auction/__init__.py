"""The auction engine: the six-step sponsored-search protocol.

Query arrival, program evaluation (eager or RHTALU-lazy), winner
determination, simulated user actions, pricing (generalised second price
/ VCG / pay-your-bid / the distributed slot-list GSP), and
provider-side accounting.  Settlement — everything after winner
determination — is factored into :class:`~repro.auction.settlement
.AuctionSettler`, shared by the engine and the multi-process sharded
runtime (:mod:`repro.runtime`).  The batch kernels
(:class:`~repro.auction.batch.PacerArrays`, one leaf's
:class:`~repro.auction.batch.ShardEvalState`) are what the engine's
``run_batch`` and every served eager leaf evaluate with.
"""

from repro.auction.accounts import AccountBook, AdvertiserAccount
from repro.auction.batch import PacerArrays, ShardEvalState
from repro.auction.analysis import (
    AdvertiserReport,
    PacingAudit,
    RevenueCurvePoint,
    advertiser_reports,
    keyword_mix,
    pacing_audit,
    revenue_curve,
    slot_fill_rate,
)
from repro.auction.engine import (
    AuctionEngine,
    EngineConfig,
    extract_click_bids,
)
from repro.auction.events import AuctionRecord
from repro.auction.metrics import RunSummary, summarize
from repro.auction.pricing import (
    GeneralizedSecondPrice,
    PayYourBid,
    PriceQuote,
    PricingRule,
    SlotListSecondPrice,
    VickreyPricing,
)
from repro.auction.settlement import AuctionSettler, NotifyFn
from repro.auction.trace import (
    read_trace,
    record_from_dict,
    record_to_dict,
    write_trace,
)
from repro.auction.user_model import HeavyweightUserModel, UserModel

__all__ = [
    "AccountBook",
    "AdvertiserAccount",
    "AdvertiserReport",
    "AuctionEngine",
    "AuctionSettler",
    "AuctionRecord",
    "EngineConfig",
    "PacerArrays",
    "GeneralizedSecondPrice",
    "HeavyweightUserModel",
    "NotifyFn",
    "PacingAudit",
    "PayYourBid",
    "PriceQuote",
    "PricingRule",
    "RevenueCurvePoint",
    "RunSummary",
    "ShardEvalState",
    "SlotListSecondPrice",
    "UserModel",
    "VickreyPricing",
    "advertiser_reports",
    "extract_click_bids",
    "keyword_mix",
    "pacing_audit",
    "read_trace",
    "revenue_curve",
    "slot_fill_rate",
    "record_from_dict",
    "record_to_dict",
    "summarize",
    "write_trace",
]
