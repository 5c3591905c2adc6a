"""Tests for the threshold algorithm (Section IV-A)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.sorted_index import ColumnArgsortIndex, SortedIndex
from repro.evaluation.threshold import (
    full_scan_top_k,
    product_aggregate,
    product_top_k_all_slots,
    threshold_top_k,
)


def _sources_from_arrays(*arrays):
    return [SortedIndex({i: float(value) for i, value in enumerate(array)})
            for array in arrays]


class TestBasics:
    def test_top_one_product(self):
        sources = _sources_from_arrays([0.9, 0.1, 0.5], [1.0, 10.0, 2.0])
        result = threshold_top_k(sources, product_aggregate, 1)
        # scores: 0.9, 1.0, 1.0 -> tie between 1 and 2; lower id wins.
        assert result.ids() == [1]

    def test_k_zero(self):
        sources = _sources_from_arrays([1.0])
        assert threshold_top_k(sources, product_aggregate, 0).items == ()

    def test_k_exceeds_universe(self):
        sources = _sources_from_arrays([3.0, 1.0])
        result = threshold_top_k(sources, product_aggregate, 5)
        assert result.ids() == [0, 1]

    def test_no_sources_rejected(self):
        with pytest.raises(ValueError):
            threshold_top_k([], product_aggregate, 1)

    def test_single_source_is_prefix(self):
        sources = _sources_from_arrays([5.0, 9.0, 1.0, 7.0])
        result = threshold_top_k(sources, product_aggregate, 2)
        assert result.ids() == [1, 3]
        # With one list TA reads exactly k entries.
        assert result.sequential_accesses == 2


class TestCorrectness:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 50), st.integers(1, 8),
           st.integers(0, 2**31 - 1))
    def test_matches_full_scan(self, n, k, seed):
        rng = np.random.default_rng(seed)
        attributes = rng.uniform(0, 1, size=(2, n))
        sources = _sources_from_arrays(*attributes)
        ta = threshold_top_k(sources, product_aggregate, k)
        scan = full_scan_top_k(sources, product_aggregate, k,
                               universe=range(n))
        # Score multisets must match (ties may differ in id only when
        # scores are equal; uniform draws make that measure-zero, so
        # compare ids too).
        assert ta.ids() == scan.ids()
        assert [score for _, score in ta.items] == pytest.approx(
            [score for _, score in scan.items])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(5, 60), st.integers(0, 2**31 - 1))
    def test_sum_aggregate(self, n, seed):
        rng = np.random.default_rng(seed)
        attributes = rng.uniform(0, 1, size=(3, n))
        sources = _sources_from_arrays(*attributes)
        ta = threshold_top_k(sources, sum, 4)
        scan = full_scan_top_k(sources, sum, 4, universe=range(n))
        assert ta.ids() == scan.ids()


class TestInstanceOptimalityInPractice:
    def test_correlated_lists_stop_early(self):
        # When both attributes rank identically, TA stops after ~k rounds.
        n, k = 1000, 5
        values = np.linspace(1.0, 2.0, n)
        sources = _sources_from_arrays(values, values)
        result = threshold_top_k(sources, product_aggregate, k)
        assert result.sequential_accesses <= 2 * (k + 1)

    def test_accesses_bounded_by_full_scan(self):
        rng = np.random.default_rng(1)
        n, k = 400, 5
        sources = _sources_from_arrays(rng.uniform(0.1, 0.9, n),
                                       rng.uniform(0, 50, n))
        result = threshold_top_k(sources, product_aggregate, k)
        assert result.sequential_accesses <= 2 * n
        # and typically far fewer:
        assert result.sequential_accesses < n

    def test_threshold_reported(self):
        sources = _sources_from_arrays([1.0, 0.5], [1.0, 0.5])
        result = threshold_top_k(sources, product_aggregate, 1)
        assert result.threshold_at_stop <= 1.0


class TestTieBreaking:
    """Lock TA's tie semantics before/under the array rewrite.

    TA's contract is *score* exactness: among items it has seen, equal
    scores resolve toward the lower id (the ``(score, -id)`` heap
    order), but sorted access surfaces equal keys higher-id first
    (``SortedIndex.descending()``), and TA legitimately stops without
    seeing every member of a tie class — so tie *identity* depends on
    the walk, and these tests pin the exact current outcomes.
    """

    def test_all_equal_scores_stop_at_first_seen(self):
        # Equal keys walk 7, 6, 5, ...; TA stops once the heap fills
        # and the threshold matches, never seeing ids 0-4.
        sources = _sources_from_arrays([2.0] * 8, [3.0] * 8)
        result = threshold_top_k(sources, product_aggregate, 3)
        assert result.ids() == [5, 6, 7]
        assert result.threshold_at_stop == 6.0

    def test_tie_at_the_cut_prefers_lower_seen_ids(self):
        # id0 scores 8; ids 1-4 tie at 6.  The walk surfaces 4, 3 (and
        # 0) before stopping; among the seen tie class the lower ids
        # win the remaining heap slots.
        sources = _sources_from_arrays([4.0, 3.0, 3.0, 3.0, 3.0],
                                       [2.0, 2.0, 2.0, 2.0, 2.0])
        result = threshold_top_k(sources, product_aggregate, 3)
        assert result.ids() == [0, 3, 4]

    def test_zero_score_ties(self):
        # The zero-bid source yields id 3 first; both seen zeros tie
        # and survive, lower id ordered first in the result.
        sources = _sources_from_arrays([0.5, 0.4, 0.3, 0.2],
                                       [0.0, 0.0, 0.0, 0.0])
        result = threshold_top_k(sources, product_aggregate, 2)
        assert result.ids() == [0, 3]
        assert [score for _, score in result.items] == [0.0, 0.0]

    def test_fully_walked_ties_break_toward_lower_ids(self):
        # k = n forces TA to exhaust both sources: with everything
        # seen, tie-breaking is purely the (score, -id) heap order.
        sources = _sources_from_arrays([1.0, 1.0, 1.0, 2.0],
                                       [1.0, 1.0, 1.0, 0.5])
        result = threshold_top_k(sources, product_aggregate, 4)
        assert result.ids() == [0, 1, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 6),
           st.integers(0, 2**31 - 1))
    def test_tied_universes_match_full_scan_scores(self, n, k, seed):
        # Draw attributes from a tiny value set so exact ties abound:
        # identities may differ across the seen boundary, but the
        # score multiset must match the full scan exactly.
        rng = np.random.default_rng(seed)
        attributes = rng.choice([0.0, 0.25, 0.5, 1.0], size=(2, n))
        sources = _sources_from_arrays(*attributes)
        ta = threshold_top_k(sources, product_aggregate, k)
        scan = full_scan_top_k(sources, product_aggregate, k,
                               universe=range(n))
        assert [score for _, score in ta.items] \
            == [score for _, score in scan.items]


class TestFusedKernel:
    """product_top_k_all_slots against the per-slot reference."""

    @staticmethod
    def _run(matrix, bids, depth, block=16):
        index = ColumnArgsortIndex(matrix)
        walk = np.argsort(-bids, kind="stable").astype(np.int64)
        rank = np.empty_like(walk)
        rank[walk] = np.arange(len(walk))
        return product_top_k_all_slots(index, walk, bids[walk], rank,
                                       bids, depth, block=block)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 120), st.integers(1, 6), st.integers(1, 9),
           st.integers(0, 2**31 - 1))
    def test_matches_full_scan_scores_per_slot(self, n, k, depth, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(0.05, 0.95, size=(n, k))
        bids = rng.uniform(0, 50, size=n)
        bids[rng.random(n) < 0.2] = 0.0  # zero-score ties
        result = self._run(matrix, bids, depth)
        for col in range(k):
            scan = full_scan_top_k(
                [SortedIndex({i: float(matrix[i, col])
                              for i in range(n)}),
                 SortedIndex({i: float(bids[i]) for i in range(n)})],
                product_aggregate, depth, universe=range(n))
            got = sorted((float(matrix[i, col] * bids[i])
                          for i in result.slot_ids[col]), reverse=True)
            want = sorted((score for _, score in scan.items),
                          reverse=True)
            assert got == pytest.approx(want, abs=1e-12)
            ids = [int(i) for i in result.slot_ids[col]]
            assert len(set(ids)) == len(ids)  # dedup across sources

    def test_ties_resolve_toward_lower_ids(self):
        matrix = np.full((6, 2), 0.5)
        bids = np.full(6, 3.0)
        result = self._run(matrix, bids, depth=3)
        for col in range(2):
            assert sorted(int(i) for i in result.slot_ids[col]) \
                == [0, 1, 2]

    def test_depth_beyond_universe_returns_everyone(self):
        matrix = np.array([[0.2], [0.8]])
        bids = np.array([1.0, 2.0])
        result = self._run(matrix, bids, depth=10)
        assert sorted(int(i) for i in result.slot_ids[0]) == [0, 1]

    def test_depth_zero(self):
        result = self._run(np.ones((3, 2)), np.ones(3), depth=0)
        assert all(len(ids) == 0 for ids in result.slot_ids)
        assert result.sequential_count == 0

    def test_mismatched_walk_rejected(self):
        index = ColumnArgsortIndex(np.ones((3, 1)))
        with pytest.raises(ValueError):
            product_top_k_all_slots(index, np.arange(2), np.ones(2),
                                    np.arange(2), np.ones(3), 1)

    def _scores_match_scan(self, matrix, bids, depth, block):
        result = self._run(matrix, bids, depth, block=block)
        n, k = matrix.shape
        for col in range(k):
            scan = full_scan_top_k(
                [SortedIndex({i: float(matrix[i, col])
                              for i in range(n)}),
                 SortedIndex({i: float(bids[i]) for i in range(n)})],
                product_aggregate, depth, universe=range(n))
            got = sorted((float(matrix[i, col] * bids[i])
                          for i in result.slot_ids[col]), reverse=True)
            want = sorted((score for _, score in scan.items),
                          reverse=True)
            assert got == pytest.approx(want, abs=1e-12), (col, block)

    def test_cross_block_duplicate_cannot_stop_early(self):
        # Regression: an id surfaced by the bid walk in an early block
        # and by the click walk in a later one must not occupy two
        # running top-k slots — the duplicated high score would
        # inflate the k-th best and fire the threshold stop before a
        # qualifying unseen id is reached.  Discrete values make such
        # cross-block overlaps common; block=1 maximizes block skew.
        rng = np.random.default_rng(0)
        for _ in range(123):
            matrix = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9],
                                size=(48, 2))
            bids = rng.choice([0.0, 1.0, 2.0, 5.0, 10.0], size=48)
            for block in (1, 2, 5, 16):
                self._scores_match_scan(matrix, bids, 4, block)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 4), st.integers(1, 6),
           st.integers(0, 2**31 - 1))
    def test_churned_subset_index_matches_scan(self, universe, k, depth,
                                               seed):
        # A subset index after interleaved merges and removals: member
        # ids differ from their positions, and discrete click values
        # put exact ties at the walk's edge entry, whose id decides
        # whether a bid-walk id is already inside the click prefix.
        rng = np.random.default_rng(seed)
        matrix = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9],
                            size=(universe, k))
        bids = rng.choice([0.0, 1.0, 2.0, 5.0, 10.0], size=universe)
        members = set(rng.choice(universe, size=universe // 2,
                                 replace=False).tolist())
        index = ColumnArgsortIndex(
            matrix, members=np.array(sorted(members), dtype=np.int64))
        for _ in range(6):
            outside = sorted(set(range(universe)) - members)
            if outside and rng.random() < 0.5:
                batch = rng.choice(outside, size=int(rng.integers(
                    1, len(outside) + 1)), replace=False)
                index.insert_many(batch)
                members.update(batch.tolist())
            for item in rng.permutation(sorted(members))[
                    :int(rng.integers(0, 3))]:
                if len(members) > 1:
                    index.remove(int(item))
                    members.discard(int(item))
        member_ids = np.array(sorted(members), dtype=np.int64)
        walk = member_ids[np.argsort(-bids[member_ids], kind="stable")]
        rank = np.full(universe, universe, dtype=np.int64)
        rank[walk] = np.arange(len(walk))
        for block in (1, 2, 5, 16):
            result = product_top_k_all_slots(index, walk, bids[walk],
                                             rank, bids, depth,
                                             block=block)
            for col in range(k):
                scan = full_scan_top_k(
                    [SortedIndex({i: float(matrix[i, col])
                                  for i in member_ids}),
                     SortedIndex({i: float(bids[i])
                                  for i in member_ids})],
                    product_aggregate, depth, universe=member_ids)
                ids = [int(i) for i in result.slot_ids[col]]
                assert len(set(ids)) == len(ids), (col, block)
                assert set(ids) <= members, (col, block)
                got = sorted((float(matrix[i, col] * bids[i])
                              for i in ids), reverse=True)
                want = sorted((score for _, score in scan.items),
                              reverse=True)
                assert got == pytest.approx(want, abs=1e-12), \
                    (col, block)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 4), st.integers(1, 6),
           st.integers(1, 7), st.integers(0, 2**31 - 1))
    def test_discrete_values_match_scan_at_any_block(self, n, k, depth,
                                                     block, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=(n, k))
        bids = rng.choice([0.0, 1.0, 2.0, 5.0, 10.0], size=n)
        self._scores_match_scan(matrix, bids, depth, block)

    def test_accesses_stay_sublinear_on_correlated_inputs(self):
        # Both sources rank identically: the kernel stops after the
        # first block even though n is large.
        n = 4000
        values = np.linspace(1.0, 2.0, n)
        matrix = values[:, None] * np.ones((1, 3))
        result = self._run(matrix, values.copy(), depth=4, block=16)
        assert result.sequential_count <= 3 * 2 * 16
        assert result.random_count < 3 * 2 * 16


class TestFusedKernelOrder:
    """The kernel's winners in order, bit for bit.

    Per slot: the scores are the first ``depth`` scores of a full sort
    of the population by (score desc, id asc) — TA's guarantee — and
    the ids are the first ``depth`` entries of that sort over the ids
    the two walks reached.  (An unwalked id tied with the depth-th
    score at the stop threshold is not reached, whatever its id.)
    """

    VALUES = {"click": [0.1, 0.3, 0.5, 0.7, 0.9],
              "bid": [0.0, 1.0, 2.0, 5.0, 10.0]}

    @staticmethod
    def _churned_members(index, universe, members, rng):
        # Interleaved merges and removals: member ids stop matching
        # their positions, as they do in a served index.
        for _ in range(6):
            outside = sorted(set(range(universe)) - members)
            if outside and rng.random() < 0.5:
                batch = rng.choice(outside, size=int(rng.integers(
                    1, len(outside) + 1)), replace=False)
                index.insert_many(batch)
                members.update(batch.tolist())
            for item in rng.permutation(sorted(members))[
                    :int(rng.integers(0, 3))]:
                if len(members) > 1:
                    index.remove(int(item))
                    members.discard(int(item))
        return np.array(sorted(members), dtype=np.int64)

    @staticmethod
    def _reference(matrix, bids, ids, col):
        """``ids`` sorted by (score desc, id asc), with their scores."""
        scores = matrix[ids, col] * bids[ids]
        order = np.lexsort((ids, -scores))
        return ids[order], scores[order]

    def _check(self, matrix, bids, depth, block, churn, rng):
        """Run the kernel against the reference sorts; return how many
        slots had a tie group straddling the depth-th score among the
        walked ids (the case the id tie-break decides)."""
        universe, num_slots = matrix.shape
        if churn:
            members = set(rng.choice(universe, size=max(universe // 2, 1),
                                     replace=False).tolist())
            index = ColumnArgsortIndex(
                matrix, members=np.array(sorted(members), dtype=np.int64))
            member_ids = self._churned_members(index, universe, members,
                                               rng)
        else:
            index = ColumnArgsortIndex(matrix)
            member_ids = np.arange(universe, dtype=np.int64)
        walk = member_ids[np.argsort(-bids[member_ids], kind="stable")]
        rank = np.full(universe, universe, dtype=np.int64)
        rank[walk] = np.arange(len(walk))
        result = product_top_k_all_slots(index, walk, bids[walk], rank,
                                         bids, depth, block=block)

        kept = min(depth, len(member_ids))
        straddles = 0
        random_count = 0
        for col in range(num_slots):
            walked = int(result.stop_depth[col])
            assert kept <= walked <= len(member_ids)
            assert walked == len(member_ids) \
                or walked % max(block, kept) == 0
            click_prefix = index.order[:walked, col]
            reached = np.union1d(click_prefix, walk[:walked])
            random_count += 2 * walked \
                - len(np.intersect1d(click_prefix, walk[:walked]))
            _, scores = self._reference(matrix, bids, member_ids, col)
            ids, reached_scores = self._reference(matrix, bids, reached,
                                                  col)
            np.testing.assert_array_equal(result.slot_ids[col],
                                          ids[:kept])
            assert result.slot_values[col].tobytes() \
                == scores[:kept].tobytes()
            straddles += bool(len(reached) > kept and
                              reached_scores[kept - 1]
                              == reached_scores[kept])
        assert result.sequential_count == 2 * int(result.stop_depth.sum())
        assert result.random_count == random_count
        return straddles

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 80), st.integers(1, 5), st.integers(1, 9),
           st.sampled_from([1, 2, 5, 16, 96]), st.booleans(),
           st.integers(0, 2**31 - 1))
    def test_slot_lists_equal_reference_sort(self, universe, num_slots,
                                             depth, block, churn, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.choice(self.VALUES["click"],
                            size=(universe, num_slots))
        bids = rng.choice(self.VALUES["bid"], size=universe)
        if depth < universe:
            # Force a tie group across slot 0's depth-th score: give
            # the id ranked just below it the (click, bid) pair of the
            # id ranked at it, so both score exactly alike.
            everyone = np.arange(universe)
            ids, _ = self._reference(matrix, bids, everyone, 0)
            above, below = ids[depth - 1], ids[depth]
            matrix[below, 0] = matrix[above, 0]
            bids[below] = bids[above]
            _, scores = self._reference(matrix, bids, everyone, 0)
            assert scores[depth - 1] == scores[depth]
        self._check(matrix, bids, depth, block, churn, rng)

    def test_straddling_ties_are_drawn(self):
        # The cases above must include tie groups across the depth-th
        # score among the walked ids — where more than ``depth``
        # entries survive the cut and the id order decides — or the
        # order check would pass without meeting them.
        rng = np.random.default_rng(11)
        straddled = 0
        for case in range(40):
            universe = int(rng.integers(8, 60))
            matrix = rng.choice(self.VALUES["click"], size=(universe, 3))
            bids = rng.choice(self.VALUES["bid"], size=universe)
            block = [1, 2, 5, 16, 96][case % 5]
            straddled += self._check(matrix, bids, 4, block,
                                     churn=case % 2 == 1, rng=rng)
        assert straddled > 0
