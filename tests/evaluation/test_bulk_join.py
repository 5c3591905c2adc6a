"""One bulk placement routine per representation.

A fixed population is "an empty universe plus one bulk join"; a stream
join is the one-row case of the same routine.  These properties hold
the bulk join to both ends of that sentence, for the eager arrays
(``PacerArrays.grow_rows``) and the lazy ones
(``LazyPacerArrays.join_many`` / ``RhtaluEvaluator.join_many``):

* joining a batch at once leaves a ``capture()`` equal field for field
  to joining the same advertisers one at a time, in any order;
* bulk-joining the Section V workload's rows equals the
  fixed-population builds that predate it — ``from_programs`` over the
  program ensemble (eager), registration into the dict-backed
  reference ``LazyPacerState`` (lazy).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auction.batch import PacerArrays
from repro.evaluation.evaluator import RhtaluEvaluator
from repro.evaluation.pacer_arrays import LazyPacerArrays
from repro.evaluation.pacer_state import LazyPacerState
from repro.runtime.messages import ControlNotice
from repro.workloads import PaperWorkload, PaperWorkloadConfig

KEYWORDS = ["kw0", "kw1", "kw2"]
CAPACITY = 12
STEP = 0.5


def assert_captures_equal(left, right):
    assert left.keys() == right.keys()
    for key, value in left.items():
        if isinstance(value, dict):
            assert_captures_equal(value, right[key])
        elif isinstance(value, np.ndarray):
            assert value.dtype == right[key].dtype, key
            np.testing.assert_array_equal(value, right[key], err_msg=key)
        else:
            assert value == right[key], key


@st.composite
def batches(draw):
    """A batch of distinct ids with random rows, plus the order a
    one-at-a-time run joins them in.  Bids may start above the cap or
    at a bound, so every placement class (moving, pinned high, pinned
    low) is drawn."""
    ids = draw(st.lists(st.integers(0, CAPACITY - 1), min_size=1,
                        max_size=CAPACITY, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    shape = (len(ids), len(KEYWORDS))
    maxbids = rng.uniform(0.0, 20.0, size=shape).round(1)
    bids = (maxbids * rng.choice([0.0, 0.5, 1.0, 1.5], size=shape))
    return {
        "ids": np.array(ids),
        "targets": rng.uniform(0.5, 5.0, size=len(ids)),
        "bids": bids,
        "maxbids": maxbids,
        "values": rng.uniform(0.0, 20.0, size=shape),
        "order": draw(st.permutations(range(len(ids)))),
    }


def joins(batch):
    """The batch as one join notice per advertiser, in its order."""
    for row in batch["order"]:
        yield ControlNotice(
            kind="join", advertiser=int(batch["ids"][row]),
            target=float(batch["targets"][row]),
            bids=batch["bids"][row], maxbids=batch["maxbids"][row],
            values=batch["values"][row])


class TestBulkEqualsOneAtATime:
    @settings(max_examples=40, deadline=None)
    @given(batches())
    def test_eager(self, batch):
        bulk = PacerArrays.for_universe(CAPACITY, KEYWORDS)
        bulk.grow_rows(batch["ids"], batch["targets"], batch["bids"],
                       batch["maxbids"], batch["values"], STEP)
        singles = PacerArrays.for_universe(CAPACITY, KEYWORDS)
        for notice in joins(batch):
            singles.apply_control(notice, STEP)
        assert_captures_equal(bulk.capture(), singles.capture())

    @settings(max_examples=40, deadline=None)
    @given(batches())
    def test_lazy(self, batch):
        clicks = np.random.default_rng(7).uniform(
            0.1, 0.9, size=(CAPACITY, 4)).round(1)  # ties on purpose
        bulk = RhtaluEvaluator(clicks, LazyPacerArrays.for_universe(
            CAPACITY, KEYWORDS, STEP))
        bulk.join_many(batch["ids"], batch["targets"], batch["bids"],
                       batch["maxbids"])
        singles = RhtaluEvaluator(clicks, LazyPacerArrays.for_universe(
            CAPACITY, KEYWORDS, STEP))
        for notice in joins(batch):
            singles.apply_control(notice)
        assert_captures_equal(bulk.state.capture(),
                              singles.state.capture())
        # The click index too: one fresh argsort == the splices.
        np.testing.assert_array_equal(bulk.slot_index.order,
                                      singles.slot_index.order)
        np.testing.assert_array_equal(bulk.slot_index.rank,
                                      singles.slot_index.rank)
        # And the walks surface the same members at the same bids.
        first = bulk.state.begin_auction("kw1", 1.0)
        second = singles.state.begin_auction("kw1", 1.0)
        assert sorted(first.descending()) == sorted(second.descending())


class TestSectionVWorkload:
    CONFIG = PaperWorkloadConfig(num_advertisers=23, num_slots=4,
                                 num_keywords=3, seed=13, step=0.5)

    def test_eager_equals_from_programs(self):
        workload = PaperWorkload(self.CONFIG)
        n = self.CONFIG.num_advertisers
        built = PacerArrays.from_programs(workload.build_programs(), n)
        joined = PacerArrays.for_universe(n, workload.keywords)
        joined.grow_rows(np.arange(n), *workload.pacer_rows(),
                         self.CONFIG.step)
        assert built.keywords == joined.keywords
        assert_captures_equal(built.capture(), joined.capture())

    def test_eager_shard_rows_are_the_population_slice(self):
        workload = PaperWorkload(self.CONFIG)
        whole = PacerArrays.for_universe(23, workload.keywords)
        whole.grow_rows(np.arange(23), *workload.pacer_rows(), 0.5)
        shard = PacerArrays.for_universe(9, workload.keywords)
        shard.grow_rows(np.arange(9), *workload.pacer_rows(7, 16), 0.5)
        np.testing.assert_array_equal(shard.bids, whole.bids[7:16])
        np.testing.assert_array_equal(shard.target, whole.target[7:16])

    def test_lazy_equals_reference_registration(self):
        workload = PaperWorkload(self.CONFIG)
        n = self.CONFIG.num_advertisers
        reference = LazyPacerState(step=self.CONFIG.step)
        for advertiser in range(n):
            reference.add_advertiser(advertiser,
                                     float(workload.targets[advertiser]))
            for index, keyword in enumerate(workload.keywords):
                reference.add_keyword_bid(
                    advertiser, keyword,
                    initial_bid=workload.initial_bid(advertiser, index),
                    maxbid=float(workload.values[advertiser, index]))
        arrays = workload.build_rhtalu().state
        assert arrays.trigger_stats() == reference.trigger_stats()
        rng = np.random.default_rng(3)
        for t in range(0, 60):
            for keyword in workload.keywords:
                assert arrays.bids_for_keyword(keyword) \
                    == reference.bids_for_keyword(keyword)
                assert arrays.keyword_count(keyword) \
                    == reference.keyword_count(keyword)
            for advertiser in range(n):
                assert arrays.mode_of(advertiser) \
                    == reference.mode_of(advertiser)
            keyword = workload.keywords[int(rng.integers(3))]
            reference.begin_auction(keyword, float(t + 1))
            arrays.begin_auction(keyword, float(t + 1))
            winner, price = int(rng.integers(n)), float(rng.uniform(1, 9))
            reference.record_win(winner, price, float(t + 1))
            arrays.record_win(winner, price, float(t + 1))
