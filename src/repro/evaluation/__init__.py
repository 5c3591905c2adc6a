"""Reduced program evaluation (Section IV): TA + logical updates.

The sorted per-parameter indexes and the threshold algorithm of
Section IV-A; the delta lists, adjustment variables, and trigger queues
of Section IV-B; and the RHTALU evaluator that combines them with the
reduced Hungarian matching.  Each structure exists twice: a dict-backed
reference implementation (the semantic spec, unit-tested on its own)
and the array-backed kernels the vectorized evaluator actually runs —
``ColumnArgsortIndex``, ``ArrayDeltaList``, ``DeadlineArray``,
``LazyPacerArrays``, and the fused ``product_top_k_all_slots``.

The evaluator's part of an auction is the shardable TA scan
(:meth:`~repro.evaluation.evaluator.RhtaluEvaluator.scan_auction`,
returning a :class:`~repro.evaluation.evaluator.RhtaluScanResult`); the
reduced matching and pricing over its slot lists are the served tail's
(:class:`~repro.runtime.executor.MergeTail`), fed by one scan over the
whole population or, in the multi-process runtime, one per advertiser
shard.
"""

from repro.evaluation.delta_list import (
    ArrayDeltaList,
    DeltaList,
    MergedDeltaSource,
    merged_descending,
)
from repro.evaluation.evaluator import (
    RhtaluEvaluator,
    RhtaluScanResult,
)
from repro.evaluation.pacer_arrays import KeywordBidSource, LazyPacerArrays
from repro.evaluation.sorted_index import ColumnArgsortIndex, SortedIndex
from repro.evaluation.threshold import (
    SlotTopKResult,
    TopKResult,
    full_scan_top_k,
    make_index,
    product_aggregate,
    product_top_k_all_slots,
    threshold_top_k,
)
from repro.evaluation.trigger_queue import DeadlineArray, TriggerQueue

__all__ = [
    "ArrayDeltaList",
    "ColumnArgsortIndex",
    "DeadlineArray",
    "DeltaList",
    "KeywordBidSource",
    "LazyPacerArrays",
    "MergedDeltaSource",
    "RhtaluEvaluator",
    "RhtaluScanResult",
    "SlotTopKResult",
    "SortedIndex",
    "TopKResult",
    "TriggerQueue",
    "full_scan_top_k",
    "make_index",
    "merged_descending",
    "product_aggregate",
    "product_top_k_all_slots",
    "threshold_top_k",
]
