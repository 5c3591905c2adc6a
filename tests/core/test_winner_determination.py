"""Cross-method winner-determination tests (Theorem 2 in practice)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.revenue import RevenueMatrix, build_revenue_matrix
from repro.core.validation import WdInvariantError, check_result, results_agree
from repro.core.winner_determination import (
    METHODS,
    SubsetSolver,
    determine_winners,
    solve,
    solve_on_subset,
)
from repro.lang.dependence import NotOneDependentError
from repro.lang.bids import BidsTable
from repro.matching.feedback_arc import above_event
from repro.matching.hungarian import max_weight_matching
from repro.probability.click_models import TabularClickModel
from repro.probability.purchase_models import ConstantRatePurchaseModel
from repro.probability.separable import NotSeparableError
from repro.workloads.generators import (
    random_bid_population,
    random_click_model,
    random_separable_model,
)

EXACT_METHODS = ("lp", "hungarian", "rh", "brute")


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    k = int(rng.integers(1, 4))
    click_model = random_click_model(n, k, rng)
    purchase_model = ConstantRatePurchaseModel(n, k, rate_given_click=0.3)
    tables = random_bid_population(n, rng)
    return tables, click_model, purchase_model


class TestCrossMethodEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_all_exact_methods_agree(self, seed):
        tables, click_model, purchase_model = _random_instance(seed)
        results = [determine_winners(tables, click_model, purchase_model,
                                     method=method)
                   for method in EXACT_METHODS]
        for result in results[1:]:
            assert results_agree(results[0], result), (
                results[0].expected_revenue, result.expected_revenue,
                result.method)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_results_pass_validation(self, seed):
        tables, click_model, purchase_model = _random_instance(seed)
        revenue = build_revenue_matrix(tables, click_model, purchase_model)
        for method in EXACT_METHODS:
            check_result(solve(revenue, method=method), revenue)


class TestSeparableMethod:
    def test_matches_hungarian_on_separable_instances(self, rng):
        for _ in range(20):
            n, k = int(rng.integers(1, 10)), int(rng.integers(1, 4))
            model = random_separable_model(n, k, rng)
            bids = rng.uniform(0, 10, size=n)
            tables = {i: BidsTable.from_pairs([("Click", bids[i])])
                      for i in range(n)}
            purchase_model = ConstantRatePurchaseModel(n, k, 0.0)
            fast = determine_winners(tables, model, purchase_model,
                                     method="separable")
            exact = determine_winners(tables, model, purchase_model,
                                      method="hungarian")
            assert results_agree(fast, exact)

    def test_rejects_non_separable(self):
        click_model = TabularClickModel(np.array([[0.7, 0.4],
                                                  [0.6, 0.3]]))
        tables = {0: BidsTable.from_pairs([("Click", 1)]),
                  1: BidsTable.from_pairs([("Click", 1)])}
        purchase_model = ConstantRatePurchaseModel(2, 2, 0.0)
        with pytest.raises(NotSeparableError):
            determine_winners(tables, click_model, purchase_model,
                              method="separable")

    def test_rejects_negative_adjusted_weights(self):
        revenue = RevenueMatrix(assigned=np.array([[1.0]]),
                                unassigned=np.array([5.0]))
        with pytest.raises(NotSeparableError):
            solve(revenue, method="separable")


class TestDispatch:
    def test_unknown_method(self):
        revenue = RevenueMatrix(assigned=np.ones((1, 1)),
                                unassigned=np.zeros(1))
        with pytest.raises(ValueError):
            solve(revenue, method="quantum")

    def test_methods_constant_lists_all(self):
        assert set(METHODS) == {"lp", "hungarian", "rh", "separable",
                                "brute"}

    def test_two_dependent_bids_rejected_up_front(self):
        rng = np.random.default_rng(0)
        click_model = random_click_model(2, 2, rng)
        purchase_model = ConstantRatePurchaseModel(2, 2, 0.0)
        tables = {0: BidsTable(), 1: BidsTable()}
        tables[0].add(above_event(0, 1, 2), 4)
        with pytest.raises(NotOneDependentError):
            determine_winners(tables, click_model, purchase_model)


class TestUnassignedPayoffs:
    """Bids that reward NOT being shown are handled by the baseline."""

    def test_not_slot1_bid_prefers_unassignment(self):
        click_model = TabularClickModel(np.array([[0.9]]))
        purchase_model = ConstantRatePurchaseModel(1, 1, 0.0)
        # Pays 10 for not holding slot 1; only 0.9 expected from a click
        # bid of 1: leaving the advertiser out is optimal.
        tables = {0: BidsTable.from_pairs([("!Slot1", 10), ("Click", 1)])}
        result = determine_winners(tables, click_model, purchase_model)
        assert result.allocation.slot_of == {}
        assert result.expected_revenue == pytest.approx(10.0)

    def test_mixed_population(self):
        click_model = TabularClickModel(np.array([[0.5], [0.5]]))
        purchase_model = ConstantRatePurchaseModel(2, 1, 0.0)
        tables = {0: BidsTable.from_pairs([("!Slot1", 3)]),
                  1: BidsTable.from_pairs([("Click", 10)])}
        result = determine_winners(tables, click_model, purchase_model)
        assert result.allocation.slot_of == {1: 1}
        assert result.expected_revenue == pytest.approx(3.0 + 5.0)


class TestValidationHelpers:
    def test_check_result_catches_tampering(self):
        revenue = RevenueMatrix(assigned=np.array([[5.0]]),
                                unassigned=np.zeros(1))
        result = solve(revenue, method="hungarian")
        tampered = type(result)(allocation=result.allocation,
                                matching=result.matching,
                                expected_revenue=result.expected_revenue
                                + 1.0,
                                method=result.method)
        with pytest.raises(WdInvariantError):
            check_result(tampered, revenue)


class TestSubsetSolver:
    """The membership-keyed solver every served eager query goes
    through: its cached buffers must give exactly what a fresh solver
    gives, and method ``rh`` (the slot-list kernel) must find the
    dense Hungarian's matching on the subset weights."""

    def _assert_exact(self, cached, fresh):
        assert cached.matching.pairs == fresh.matching.pairs
        assert cached.matching.total_weight \
            == fresh.matching.total_weight
        assert cached.expected_revenue == fresh.expected_revenue
        assert cached.slot_of == fresh.slot_of
        assert cached.id_map == fresh.id_map
        assert np.array_equal(cached.weights, fresh.weights)
        assert np.array_equal(cached.candidate_bids,
                              fresh.candidate_bids)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1),
           st.sampled_from(["rh", "lp", "hungarian"]))
    def test_reused_buffers_match_a_fresh_solve(self, seed, method):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        k = int(rng.integers(1, 4))
        click = rng.random((n, k))
        size = int(rng.integers(0, n + 1))
        active = np.sort(rng.choice(n, size=size, replace=False))
        solver = SubsetSolver(click, active, method=method)
        for _ in range(3):  # reused caches across queries
            bids = rng.random(n) * 10.0
            cached = solver.solve(bids)
            self._assert_exact(cached,
                               solve_on_subset(click, bids, active,
                                               method=method))
            # Same weights a row-major build gives, same matching the
            # dense Hungarian finds on them (random floats: no ties).
            weights = click[active] * bids[active][:, None]
            assert np.array_equal(cached.weights, weights)
            dense = max_weight_matching(weights, backend="python")
            assert cached.matching.pairs == dense.pairs
            assert cached.matching.total_weight == pytest.approx(
                dense.total_weight)

    def test_membership_key(self):
        click = np.random.default_rng(0).random((4, 2))
        present = np.array([True, False, True, True])
        solver = SubsetSolver.for_membership(None, click, present)
        assert solver.id_map == [0, 2, 3]
        assert SubsetSolver.for_membership(solver, click,
                                           present) is solver
        present[1] = True  # a join: in-place edits must be noticed
        moved = SubsetSolver.for_membership(solver, click, present)
        assert moved is not solver
        assert moved.id_map == [0, 1, 2, 3]

    def test_empty_membership(self):
        click = np.random.default_rng(0).random((4, 2))
        solver = SubsetSolver(click, np.array([], dtype=int))
        result = solver.solve(np.ones(4))
        assert result.matching.pairs == ()
        assert result.expected_revenue == 0.0
        assert result.id_map == []

    def test_unsupported_method_raises(self):
        with pytest.raises(ValueError, match="subset method"):
            SubsetSolver(np.ones((2, 1)), np.array([0, 1]),
                         method="separable")
