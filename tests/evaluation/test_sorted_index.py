"""Tests for the sorted per-parameter index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.sorted_index import ColumnArgsortIndex, SortedIndex


class TestBasics:
    def test_build_and_iterate_descending(self):
        index = SortedIndex({1: 5.0, 2: 9.0, 3: 1.0})
        assert list(index.descending()) == [(2, 9.0), (1, 5.0), (3, 1.0)]

    def test_insert_remove(self):
        index = SortedIndex()
        index.insert(7, 3.0)
        assert 7 in index
        assert index.key(7) == 3.0
        assert index.remove(7) == 3.0
        assert 7 not in index
        assert len(index) == 0

    def test_duplicate_insert_rejected(self):
        index = SortedIndex({1: 1.0})
        with pytest.raises(KeyError):
            index.insert(1, 2.0)

    def test_update_repositions(self):
        index = SortedIndex({1: 5.0, 2: 9.0})
        index.update(1, 10.0)
        assert list(index.descending())[0] == (1, 10.0)

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            SortedIndex().key(1)

    def test_max_key(self):
        assert SortedIndex().max_key() is None
        assert SortedIndex({1: 2.0, 2: 3.0}).max_key() == 3.0

    def test_equal_keys_coexist(self):
        index = SortedIndex({1: 5.0, 2: 5.0})
        items = list(index.descending())
        assert {item for item, _ in items} == {1, 2}
        assert index.remove(1) == 5.0
        assert index.key(2) == 5.0


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.integers(0, 50),
                           st.floats(-100, 100, allow_nan=False),
                           max_size=30))
    def test_descending_matches_sorted(self, items):
        index = SortedIndex(items)
        keys = [key for _, key in index.descending()]
        assert keys == sorted(keys, reverse=True)
        assert {item for item, _ in index.descending()} == set(items)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.integers(0, 20),
                           st.floats(-10, 10, allow_nan=False),
                           min_size=1, max_size=15),
           st.lists(st.tuples(st.integers(0, 20),
                              st.floats(-10, 10, allow_nan=False)),
                    max_size=20))
    def test_random_update_sequences(self, items, updates):
        index = SortedIndex(items)
        mirror = dict(items)
        for item, key in updates:
            if item in mirror:
                index.update(item, key)
            else:
                index.insert(item, key)
            mirror[item] = key
        assert index.items() == pytest.approx(mirror)
        keys = [key for _, key in index.descending()]
        assert keys == sorted(keys, reverse=True)


class TestAdversarialUpdates:
    """Update paths under equal keys and repeated churn."""

    def test_equal_keys_iterate_higher_id_first(self):
        index = SortedIndex({3: 5.0, 1: 5.0, 2: 5.0})
        assert [item for item, _ in index.descending()] == [3, 2, 1]

    def test_remove_specific_id_among_equal_keys(self):
        index = SortedIndex({1: 5.0, 2: 5.0, 3: 5.0})
        assert index.remove(2) == 5.0
        assert [item for item, _ in index.descending()] == [3, 1]
        index.insert(2, 5.0)
        assert [item for item, _ in index.descending()] == [3, 2, 1]

    def test_update_within_a_tie_class_is_stable(self):
        index = SortedIndex({1: 5.0, 2: 5.0, 3: 5.0})
        index.update(3, 5.0)  # no-op reposition among equals
        assert [item for item, _ in index.descending()] == [3, 2, 1]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["insert", "remove",
                                               "update"]),
                              st.integers(0, 8),
                              st.sampled_from([0.0, 1.0, 1.0, 2.0])),
                    max_size=40))
    def test_churn_with_heavy_ties_matches_mirror(self, ops):
        # Keys drawn from {0, 1, 2} force dense tie classes; every op
        # must keep the (key, id) order exact and never corrupt the
        # entry list (the internal assert in remove() would fire).
        index = SortedIndex()
        mirror: dict[int, float] = {}
        for op, item, key in ops:
            if op == "insert" and item not in mirror:
                index.insert(item, key)
                mirror[item] = key
            elif op == "remove" and item in mirror:
                assert index.remove(item) == mirror.pop(item)
            elif op == "update" and item in mirror:
                index.update(item, key)
                mirror[item] = key
        assert index.items() == mirror
        stream = list(index.descending())
        assert [key for _, key in stream] \
            == sorted(mirror.values(), reverse=True)
        # Within a tie class, ids descend (the reversed (key, id) sort).
        for (id_a, key_a), (id_b, key_b) in zip(stream, stream[1:]):
            if key_a == key_b:
                assert id_a > id_b


class TestColumnArgsortIndex:
    def test_columns_match_per_slot_sorted_indexes(self):
        rng = np.random.default_rng(5)
        matrix = rng.uniform(0.1, 0.9, size=(40, 4))
        matrix[rng.random((40, 4)) < 0.2] = 0.5  # tie classes
        shared = ColumnArgsortIndex(matrix)
        for col in range(4):
            reference = SortedIndex({i: float(matrix[i, col])
                                     for i in range(40)})
            assert list(shared.column(col).descending()) \
                == list(reference.descending())

    def test_rank_is_the_inverse_of_order(self):
        matrix = np.random.default_rng(6).uniform(size=(25, 3))
        shared = ColumnArgsortIndex(matrix)
        for col in range(3):
            order = shared.order[:, col]
            assert (shared.rank[order, col]
                    == np.arange(len(order))).all()

    def test_sorted_values_align_with_order(self):
        matrix = np.random.default_rng(7).uniform(size=(10, 2))
        shared = ColumnArgsortIndex(matrix)
        np.testing.assert_array_equal(
            shared.sorted_values,
            np.take_along_axis(matrix, shared.order, axis=0))

    def test_column_view_random_access(self):
        matrix = np.array([[0.3, 0.6], [0.9, 0.1]])
        shared = ColumnArgsortIndex(matrix)
        view = shared.column(1)
        assert view.key(0) == 0.6
        assert len(view) == 2
        assert 1 in view and 5 not in view

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            ColumnArgsortIndex(np.ones(3))


class TestColumnArgsortIndexChurn:
    """Incremental membership maintenance (the online serving layer):
    insert/remove must reproduce a fresh stable argsort of the
    surviving member set exactly, including tie order."""

    def assert_equal_to_fresh(self, index, matrix, members):
        fresh = ColumnArgsortIndex(matrix,
                                   members=np.asarray(members,
                                                      dtype=np.int64))
        np.testing.assert_array_equal(index.order, fresh.order)
        np.testing.assert_array_equal(index.sorted_values,
                                      fresh.sorted_values)
        np.testing.assert_array_equal(index.rank, fresh.rank)

    def test_incremental_equals_fresh_with_ties(self):
        rng = np.random.default_rng(11)
        matrix = rng.uniform(0.1, 0.9, size=(30, 3))
        matrix[rng.random((30, 3)) < 0.3] = 0.4  # heavy tie classes
        members = sorted(rng.choice(30, size=12,
                                    replace=False).tolist())
        index = ColumnArgsortIndex(
            matrix, members=np.asarray(members[:5], dtype=np.int64))
        for item in members[5:]:
            index.insert(item)
        for item in members[:3]:
            index.remove(item)
        self.assert_equal_to_fresh(index, matrix, members[3:])

    def test_grow_from_empty_and_drain(self):
        matrix = np.random.default_rng(12).uniform(size=(8, 2))
        index = ColumnArgsortIndex(matrix,
                                   members=np.empty(0, dtype=np.int64))
        assert index.num_ids == 0
        for item in (3, 0, 7, 5):
            index.insert(item)
        self.assert_equal_to_fresh(index, matrix, [0, 3, 5, 7])
        for item in (0, 3, 5, 7):
            index.remove(item)
        assert index.num_ids == 0
        assert not (0 in index)

    def test_membership_and_errors(self):
        matrix = np.random.default_rng(13).uniform(size=(6, 2))
        index = ColumnArgsortIndex(matrix,
                                   members=np.array([1, 4]))
        assert 1 in index and 4 in index and 2 not in index
        with pytest.raises(KeyError):
            index.insert(4)
        with pytest.raises(KeyError):
            index.insert(17)
        with pytest.raises(KeyError):
            index.remove(2)
        with pytest.raises(ValueError):
            ColumnArgsortIndex(matrix, members=np.array([4, 1]))
        with pytest.raises(ValueError):
            ColumnArgsortIndex(matrix, members=np.array([5, 9]))

    def test_full_membership_matches_default_build(self):
        matrix = np.random.default_rng(14).uniform(size=(15, 4))
        full = ColumnArgsortIndex(matrix)
        explicit = ColumnArgsortIndex(matrix,
                                      members=np.arange(15))
        np.testing.assert_array_equal(full.order, explicit.order)
        np.testing.assert_array_equal(full.rank, explicit.rank)


def _splice(order, values, matrix, item):
    """Reference one-id splice, independent of the index's own code:
    per column, the new id goes after every larger value and every
    tied larger id."""
    row = matrix[item]
    columns = []
    for col in range(order.shape[1]):
        at = int(np.count_nonzero(values[:, col] > row[col])
                 + np.count_nonzero((values[:, col] == row[col])
                                    & (order[:, col] > item)))
        columns.append((np.insert(order[:, col], at, item),
                        np.insert(values[:, col], at, row[col])))
    return (np.stack([c[0] for c in columns], axis=1),
            np.stack([c[1] for c in columns], axis=1))


class TestInsertMany:
    """The index path of a bulk join: merging a batch of ids equals
    splicing them in one at a time, in any order, ties included."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 4), st.integers(0, 2),
           st.data())
    def test_merge_equals_sequential_splices(self, universe, columns,
                                             digits, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        # Few digits: heavy value ties within and across the batch.
        matrix = rng.uniform(0.0, 1.0,
                             size=(universe, columns)).round(digits)
        ids = data.draw(st.permutations(range(universe)))
        split = data.draw(st.integers(0, universe))
        members = np.sort(np.asarray(ids[:split], dtype=np.int64))
        batch = list(ids[split:])

        merged = ColumnArgsortIndex(matrix, members=members)
        merged.insert_many(np.asarray(batch, dtype=np.int64))
        start = ColumnArgsortIndex(matrix, members=members)
        order, values = start.order, start.sorted_values
        for item in batch:
            order, values = _splice(order, values, matrix, item)
        np.testing.assert_array_equal(merged.order, order)
        np.testing.assert_array_equal(merged.sorted_values, values)
        rank = np.full((universe, columns), universe, dtype=np.int64)
        for col in range(columns):
            rank[order[:, col], col] = np.arange(len(order))
        np.testing.assert_array_equal(merged.rank, rank)

    def test_batch_errors_leave_the_index_unchanged(self):
        matrix = np.random.default_rng(15).uniform(size=(6, 2))
        index = ColumnArgsortIndex(matrix, members=np.array([1, 4]))
        before = index.order.copy(), index.rank.copy()
        for bad in ([2, 2], [0, 4], [3, 6], [-1]):
            with pytest.raises(KeyError):
                index.insert_many(np.array(bad))
        np.testing.assert_array_equal(index.order, before[0])
        np.testing.assert_array_equal(index.rank, before[1])
        index.insert_many(np.empty(0, dtype=np.int64))
        np.testing.assert_array_equal(index.order, before[0])
