"""The slot-list winner-determination kernel against its references.

Selection is held to the paper's ``heap`` scan, the list-driven
Hungarian to the dense ``max_weight_matching`` (tie-free instances) and
to brute force (tied ones), list GSP to matrix GSP on exactly the
inputs the eager serving path hands it, and the Figures 9-11 example is
replayed through the kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auction.pricing import (
    GeneralizedSecondPrice,
    SlotListSecondPrice,
)
from repro.core.winner_determination import SubsetSolver
from repro.matching.brute_force import brute_force_matching
from repro.matching.hungarian import max_weight_matching
from repro.matching.reduction import top_k_for_slot
from repro.matching.slot_lists import (
    SlotLists,
    match_slot_lists,
    merge_slot_lists,
    select_slot_lists,
)

from tests.matching.test_reduction import FIGURE9

seeds = st.integers(0, 2**31 - 1)


def heap_lists(weights: np.ndarray, depth: int) -> list[list[int]]:
    return [top_k_for_slot(weights[:, slot], depth)
            for slot in range(weights.shape[1])]


def assert_lists_equal_heap(weights: np.ndarray, depth: int) -> None:
    lists = select_slot_lists(np.ascontiguousarray(weights.T), depth)
    assert lists.ids.tolist() == heap_lists(weights, depth)
    expected = [[weights[i, slot] for i in ids] for slot, ids
                in enumerate(lists.ids.tolist())]
    assert lists.values.tolist() == expected
    # Row-major callers pass a transposed view: same lists.
    view = select_slot_lists(weights.T, depth)
    assert view.ids.tolist() == lists.ids.tolist()


class TestSelection:
    @settings(max_examples=150, deadline=None)
    @given(seeds)
    def test_equals_heap_at_depth_k_and_k_plus_one(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(0, 40)), int(rng.integers(1, 6))
        # A coarse value grid makes ties — including tie groups that
        # straddle the cut — the common case, not the rare one.
        weights = rng.integers(-2, 4, size=(n, k)).astype(float)
        if rng.random() < 0.5:
            weights += rng.random((n, k))
        for depth in (k, k + 1):
            assert_lists_equal_heap(weights, depth)

    def test_fewer_advertisers_than_depth(self):
        weights = np.array([[1.0, 5.0], [3.0, 5.0]])
        lists = select_slot_lists(weights.T, 3)
        assert lists.ids.tolist() == [[1, 0], [0, 1]]
        assert lists.values.tolist() == [[3.0, 1.0], [5.0, 5.0]]

    def test_empty_population(self):
        lists = select_slot_lists(np.empty((3, 0)), 4)
        assert lists.ids.shape == lists.values.shape == (3, 0)
        assert match_slot_lists(lists).pairs == ()

    def test_all_zero_column(self):
        weights = np.zeros((6, 2))
        weights[:, 1] = [0.0, 2.0, 0.0, 1.0, 0.0, 0.0]
        assert_lists_equal_heap(weights, 3)
        assert select_slot_lists(weights.T, 3).ids[0].tolist() \
            == [0, 1, 2]

    def test_tie_group_straddling_the_cut(self):
        # Four advertisers tie at the top of a 5-wide row: whichever
        # the partition picked, the lists keep the lowest ids.
        column = np.array([3.0, 3.0, 3.0, 3.0, 1.0])
        for depth in (1, 2, 3):
            lists = select_slot_lists(column[None, :], depth)
            assert lists.ids.tolist() == [list(range(depth))]
        assert top_k_for_slot(column, 2) == [0, 1]

    def test_depth_zero_and_non_2d(self):
        assert select_slot_lists(np.ones((2, 4)), 0).ids.shape == (2, 0)
        with pytest.raises(ValueError, match="2-D"):
            select_slot_lists(np.zeros(3), 1)

    @settings(max_examples=50, deadline=None)
    @given(seeds)
    def test_merged_shard_lists_equal_one_scan(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        weights = rng.integers(0, 3, size=(n, k)).astype(float)
        cuts = np.sort(rng.integers(0, n + 1, size=2))
        parts = []
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            local = select_slot_lists(weights[lo:hi].T, k + 1)
            parts.append(SlotLists(ids=local.ids + lo,
                                   values=local.values))
        merged = merge_slot_lists(parts, k + 1)
        whole = select_slot_lists(weights.T, k + 1)
        assert merged.ids.tolist() == whole.ids.tolist()
        assert merged.values.tolist() == whole.values.tolist()


class TestMatching:
    @settings(max_examples=200, deadline=None)
    @given(seeds)
    def test_equals_dense_hungarian_when_tie_free(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 25)), int(rng.integers(1, 6))
        # Continuous weights: the optimum is unique almost surely.
        # Negative entries must lose to an empty slot in both solvers.
        weights = rng.random((n, k)) * 10.0 - 2.0
        dense = max_weight_matching(weights, backend="python")
        listed = match_slot_lists(select_slot_lists(weights.T, k + 1), k)
        assert listed.pairs == dense.pairs
        assert listed.total_weight == dense.total_weight

    @settings(max_examples=200, deadline=None)
    @given(seeds)
    def test_brute_force_optimum_on_tied_instances(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        weights = rng.integers(-1, 3, size=(n, k)).astype(float)
        listed = match_slot_lists(select_slot_lists(weights.T, k))
        best = brute_force_matching(weights, allow_unmatched=True)
        assert listed.total_weight == best.total_weight
        # A real matching, worth what it claims, with no dead weight.
        advertisers = [a for a, _ in listed.pairs]
        slots = [s for _, s in listed.pairs]
        assert len(set(advertisers)) == len(advertisers)
        assert len(set(slots)) == len(slots)
        assert all(weights[a, s] > 0.0 for a, s in listed.pairs)
        assert sum(weights[a, s] for a, s in listed.pairs) \
            == listed.total_weight

    def test_figure9_to_11_replays_through_the_kernel(self):
        lists = select_slot_lists(FIGURE9.T, 2)
        # Figure 10's bold edges: Nike and Adidas for slot 1, Adidas
        # and Reebok for slot 2; Sketchers never appears (Figure 11).
        assert lists.ids.tolist() == [[0, 1], [1, 2]]
        matching = match_slot_lists(lists)
        full = max_weight_matching(FIGURE9)
        assert matching.pairs == full.pairs == ((0, 0), (1, 1))
        assert matching.total_weight == full.total_weight == 16.0

    def test_deeper_lists_do_not_change_the_matching(self):
        rng = np.random.default_rng(3)
        weights = rng.random((30, 4))
        shallow = match_slot_lists(select_slot_lists(weights.T, 4))
        deep = match_slot_lists(select_slot_lists(weights.T, 5), 4)
        assert shallow == deep


class TestListGspOnEagerInputs:
    """What ``_EagerBackend.run_query`` hands the settler for ``rh``:
    subset-local lists, bids and click rows.  Quotes must equal the
    matrix GSP on the subset weights, float for float."""

    @settings(max_examples=100, deadline=None)
    @given(seeds)
    def test_list_gsp_equals_matrix_gsp(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        click = rng.uniform(0.05, 0.9, size=(n, k))
        present = rng.random(n) < 0.7
        bids = rng.uniform(0, 10, size=n)
        bids[rng.random(n) < 0.3] = 0.0  # tied-at-zero columns
        wd = SubsetSolver.for_membership(None, click, present).solve(bids)
        if wd.slot_lists is None:  # nobody live
            assert not present.any()
            return
        listed = SlotListSecondPrice.quote_from_lists(
            wd.slot_lists.values, wd.slot_lists.ids,
            wd.candidate_bids, wd.click_rows, wd.matching)
        full = GeneralizedSecondPrice().quote(
            wd.weights, wd.candidate_bids, wd.click_rows, wd.matching)
        assert listed == full  # dataclass equality: exact floats
