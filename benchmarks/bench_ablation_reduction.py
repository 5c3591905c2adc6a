"""Ablation: where does RH's win over H come from?

Decomposes method RH into its ingredients on a fixed revenue matrix:

* the **top-k reduction** itself (k^2 candidate cap) — compare the full
  Hungarian against the Hungarian on the reduced graph;
* the **selection backend** — the paper's O(n k log k) heap scan vs the
  vectorised argpartition scan (our stand-in for the parallel tree);
* the **matching** — the dense Hungarian on the reduced graph vs the
  serving kernel's list-driven Hungarian
  (:mod:`repro.matching.slot_lists`), whose rows see only their own
  top-k edges.

``test_reduced_numpy_select`` and ``test_slot_list_kernel`` share the
selection scan, so their difference is the sparse matching alone;
``test_slot_list_selection`` times that scan by itself.  Also records
the reduced-graph size in ``extra_info``, confirming the k^2 bound
bites (≤ 225 candidates regardless of n).
"""

import numpy as np
import pytest

from common import build_workload
from repro.core import click_bid_revenue_matrix
from repro.matching.hungarian import max_weight_matching
from repro.matching.reduction import reduce_graph, reduced_matching
from repro.matching.slot_lists import match_slot_lists, select_slot_lists
from repro.probability.click_models import TabularClickModel

N = 5000


@pytest.fixture(scope="module")
def weights():
    workload = build_workload(N)
    click_model = TabularClickModel(workload.click_matrix)
    bids = workload.values[:, 0] * 0.5
    return click_bid_revenue_matrix(bids, click_model).adjusted()


def test_full_hungarian(benchmark, weights):
    result = benchmark.pedantic(
        lambda: max_weight_matching(weights, backend="python"),
        rounds=5, iterations=1)
    benchmark.extra_info["total_weight"] = result.total_weight


def test_reduced_heap_select(benchmark, weights):
    result = benchmark.pedantic(
        lambda: reduced_matching(weights, select_backend="heap",
                                 hungarian_backend="python"),
        rounds=5, iterations=1)
    benchmark.extra_info["total_weight"] = result.total_weight


def test_reduced_numpy_select(benchmark, weights):
    result = benchmark.pedantic(
        lambda: reduced_matching(weights, select_backend="numpy",
                                 hungarian_backend="auto"),
        rounds=5, iterations=1)
    benchmark.extra_info["total_weight"] = result.total_weight


def test_slot_list_selection(benchmark, weights):
    weights_t = np.ascontiguousarray(weights.T)  # the served layout
    lists = benchmark.pedantic(
        lambda: select_slot_lists(weights_t, weights.shape[1]),
        rounds=5, iterations=1)
    benchmark.extra_info["depth"] = lists.ids.shape[1]


def test_slot_list_kernel(benchmark, weights):
    weights_t = np.ascontiguousarray(weights.T)
    result = benchmark.pedantic(
        lambda: match_slot_lists(
            select_slot_lists(weights_t, weights.shape[1])),
        rounds=5, iterations=1)
    benchmark.extra_info["total_weight"] = result.total_weight


def test_reduction_size(benchmark, weights):
    reduced = benchmark.pedantic(lambda: reduce_graph(weights,
                                                      backend="numpy"),
                                 rounds=5, iterations=1)
    benchmark.extra_info["num_candidates"] = reduced.num_candidates
    benchmark.extra_info["k_squared_cap"] = weights.shape[1] ** 2
    assert reduced.num_candidates <= weights.shape[1] ** 2


def test_methods_agree_on_this_instance(weights):
    full = max_weight_matching(weights, backend="python")
    for select in ("heap", "numpy"):
        reduced = reduced_matching(weights, select_backend=select)
        assert np.isclose(full.total_weight, reduced.total_weight)
    kernel = match_slot_lists(
        select_slot_lists(weights.T, weights.shape[1]))
    assert np.isclose(full.total_weight, kernel.total_weight)
