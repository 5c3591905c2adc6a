"""Tests for the top-k graph reduction (method RH, Figures 9-11)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.hungarian import max_weight_matching
from repro.matching.reduction import (
    reduce_graph,
    reduced_matching,
    top_k_for_slot,
)

FIGURE9 = np.array([[9, 5],
                    [8, 7],
                    [7, 6],
                    [7, 4]], dtype=float)  # Nike, Adidas, Reebok, Sketchers


def matrices(max_n=20, max_k=4):
    return st.tuples(st.integers(1, max_n), st.integers(1, max_k)).flatmap(
        lambda shape: st.lists(
            st.lists(st.floats(-5.0, 10.0, allow_nan=False, width=32),
                     min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0]))


class TestFigure9To11:
    def test_figure9_to_11(self):
        reduced = reduce_graph(FIGURE9)
        # Figure 10: slot 1's bold edges go to Nike and Adidas; slot 2's
        # to Adidas and Reebok.
        assert reduced.per_slot == ((0, 1), (1, 2))
        # Figure 11: Sketchers is dropped.
        assert reduced.candidates == (0, 1, 2)
        assert reduced.num_candidates == 3

    def test_reduced_matching_matches_full(self):
        full = max_weight_matching(FIGURE9)
        reduced = reduced_matching(FIGURE9)
        assert reduced.pairs == full.pairs
        assert reduced.total_weight == full.total_weight == 16.0

    def test_tie_at_rank_k(self):
        # Reebok and Sketchers tie at 7 for slot 1; the lower id wins the
        # heap slot deterministically.
        column = FIGURE9[:, 0]
        assert top_k_for_slot(column, 3) == [0, 1, 2]


class TestTopKSelection:
    def test_k_zero(self):
        assert top_k_for_slot([1.0, 2.0], 0) == []

    def test_k_larger_than_n(self):
        assert top_k_for_slot([1.0, 3.0], 5) == [1, 0]


class TestReductionCorrectness:
    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_reduction_preserves_optimum(self, rows):
        weights = np.array(rows)
        full = max_weight_matching(weights, backend="python")
        reduced = reduced_matching(weights)
        assert reduced.total_weight == pytest.approx(full.total_weight,
                                                     abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(matrices())
    def test_candidate_bound(self, rows):
        weights = np.array(rows)
        reduced = reduce_graph(weights)
        num_slots = weights.shape[1]
        # At most k advertisers per slot survive (the k^2 bound).
        assert reduced.num_candidates <= num_slots * num_slots
        for ids in reduced.per_slot:
            assert len(ids) <= num_slots

    @settings(max_examples=50, deadline=None)
    @given(matrices())
    def test_backends_agree(self, rows):
        weights = np.array(rows)
        heap = reduce_graph(weights, backend="heap")
        fast = reduce_graph(weights, backend="numpy")
        assert heap.per_slot == fast.per_slot
        assert heap.candidates == fast.candidates

    def test_lossy_top_k_is_flagged_parameter(self):
        weights = np.array([[5.0], [4.0], [3.0]])
        reduced = reduce_graph(weights, top_k=1)
        assert reduced.candidates == (0,)
