"""Tests for workload generators, especially Section V fidelity."""

import numpy as np
import pytest

from repro.probability.separable import is_separable
from repro.workloads import (
    PaperWorkload,
    PaperWorkloadConfig,
    interval_click_matrix,
    random_separable_model,
    slot_probability_intervals,
)


class TestSlotIntervals:
    def test_paper_parameters(self):
        intervals = slot_probability_intervals(15)
        assert len(intervals) == 15
        # Disjoint, covering [0.1, 0.9], slot 1 highest.
        assert intervals[0][1] == pytest.approx(0.9)
        assert intervals[-1][0] == pytest.approx(0.1)
        for (lo, hi), (next_lo, next_hi) in zip(intervals,
                                                intervals[1:]):
            assert lo > next_lo
            assert lo == pytest.approx(next_hi)

    def test_validation(self):
        with pytest.raises(ValueError):
            slot_probability_intervals(0)
        with pytest.raises(ValueError):
            slot_probability_intervals(3, low=0.9, high=0.1)


class TestIntervalClickMatrix:
    def test_probabilities_in_slot_bands(self):
        rng = np.random.default_rng(0)
        matrix = interval_click_matrix(50, 15, rng)
        intervals = slot_probability_intervals(15)
        for j, (lo, hi) in enumerate(intervals):
            assert np.all(matrix[:, j] >= lo)
            assert np.all(matrix[:, j] <= hi)

    def test_click_probabilities_decrease_down_the_page(self):
        rng = np.random.default_rng(1)
        matrix = interval_click_matrix(20, 5, rng)
        assert np.all(np.diff(matrix, axis=1) < 0)

    def test_generally_not_separable(self):
        rng = np.random.default_rng(2)
        matrix = interval_click_matrix(10, 5, rng)
        assert not is_separable(matrix)


class TestPaperWorkload:
    def test_determinism(self):
        a = PaperWorkload(PaperWorkloadConfig(num_advertisers=20, seed=3))
        b = PaperWorkload(PaperWorkloadConfig(num_advertisers=20, seed=3))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.click_matrix, b.click_matrix)
        assert np.array_equal(a.targets, b.targets)

    def test_paper_defaults(self):
        workload = PaperWorkload(PaperWorkloadConfig(num_advertisers=5))
        assert workload.config.num_slots == 15
        assert workload.config.num_keywords == 10
        assert workload.values.shape == (5, 10)
        assert np.all(workload.values <= 50.0)
        assert np.all(workload.values >= 0.0)

    def test_every_bidder_has_nonzero_value(self):
        workload = PaperWorkload(PaperWorkloadConfig(num_advertisers=50,
                                                     seed=9))
        assert np.all(workload.values.max(axis=1) > 0)

    def test_targets_within_paper_range(self):
        workload = PaperWorkload(PaperWorkloadConfig(num_advertisers=50,
                                                     seed=10))
        assert np.all(workload.targets >= 1.0)
        assert np.all(workload.targets
                      <= np.maximum(workload.values.max(axis=1), 1.0))

    def test_program_and_lazy_builders_agree_on_initial_bids(self):
        workload = PaperWorkload(PaperWorkloadConfig(num_advertisers=8,
                                                     num_slots=3,
                                                     num_keywords=2,
                                                     seed=11))
        programs = workload.build_programs()
        lazy = workload.build_rhtalu().state
        for keyword in workload.keywords:
            lazy_bids = lazy.bids_for_keyword(keyword)
            for program in programs:
                record = program.state.keyword(keyword)
                assert lazy_bids[program.advertiser_id] == pytest.approx(
                    record.bid)

    def test_query_source_uniform_over_keywords(self):
        workload = PaperWorkload(PaperWorkloadConfig(num_advertisers=3,
                                                     num_keywords=4,
                                                     seed=12))
        source = workload.query_source()
        rng = np.random.default_rng(0)
        counts = {kw: 0 for kw in workload.keywords}
        for _ in range(2000):
            query = source(rng)
            counts[query.text] += 1
            assert query.relevance_of(query.text) == 1.0
        for count in counts.values():
            assert count == pytest.approx(500, abs=120)


class TestGenerators:
    def test_separable_generator_is_separable(self, rng):
        model = random_separable_model(10, 4, rng)
        assert is_separable(model.as_matrix())
        assert np.all(model.as_matrix() <= 1.0)
