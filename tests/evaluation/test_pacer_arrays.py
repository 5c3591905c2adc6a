"""The array mirror's contract: LazyPacerArrays == LazyPacerState.

The vectorized RHTALU path replaces the dict-backed lazy state with
:class:`~repro.evaluation.pacer_arrays.LazyPacerArrays`.  These tests
drive both implementations through identical auction/win sequences —
mode flips in both directions, bid saturation at both bounds, trigger
storms — and require bid-for-bid and mode-for-mode agreement, plus the
merged-walk invariants the TA kernel relies on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.pacer_arrays import LazyPacerArrays
from repro.evaluation.pacer_state import LazyPacerState
from repro.evaluation.sorted_index import ColumnArgsortIndex


def build_states(seed, n=15, n_keywords=3, initial_fraction=0.5):
    """The same registrations on both sides: one at a time into the
    dict-backed reference, one bulk join into the arrays."""
    rng = np.random.default_rng(seed)
    keywords = [f"kw{j}" for j in range(n_keywords)]
    values = rng.uniform(0.5, 20.0, size=(n, n_keywords))
    targets = rng.uniform(0.5, 5.0, size=n)
    reference = LazyPacerState()
    for i in range(n):
        reference.add_advertiser(i, float(targets[i]))
        for j, text in enumerate(keywords):
            reference.add_keyword_bid(
                i, text,
                initial_bid=initial_fraction * float(values[i, j]),
                maxbid=float(values[i, j]))
    mirror = LazyPacerArrays.for_universe(n, keywords)
    mirror.join_many(np.arange(n), targets, initial_fraction * values,
                     values)
    return reference, mirror, keywords, rng


def join(state, advertiser, target, bids, maxbids):
    """One stream join: the bulk routine's one-row case."""
    state.join_many(np.array([advertiser]), np.array([target]),
                    np.asarray(bids)[None], np.asarray(maxbids)[None])


def assert_parity(reference, mirror, keywords, context):
    for text in keywords:
        expected = reference.bids_for_keyword(text)
        actual = mirror.bids_for_keyword(text)
        for advertiser, bid in expected.items():
            assert actual[advertiser] == pytest.approx(bid, abs=1e-9), \
                (context, text, advertiser)
    for advertiser in range(mirror.num_advertisers):
        assert reference.mode_of(advertiser) \
            == mirror.mode_of(advertiser), (context, advertiser)


class TestMirrorParity:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_trajectories_agree(self, seed):
        reference, mirror, keywords, rng = build_states(seed)
        for t in range(1, 100):
            text = keywords[int(rng.integers(len(keywords)))]
            reference.begin_auction(text, float(t))
            source = mirror.begin_auction(text, float(t))
            walk = list(source.descending())
            assert len(walk) == mirror.num_advertisers
            values = [value for _, value in walk]
            assert values == sorted(values, reverse=True)
            if rng.random() < 0.4:
                winner = int(rng.integers(mirror.num_advertisers))
                price = float(rng.uniform(1.0, 15.0))
                reference.record_win(winner, price, float(t))
                mirror.record_win(winner, price, float(t))
        assert_parity(reference, mirror, keywords, seed)

    def test_saturation_at_cap_without_wins(self):
        reference, mirror, keywords, _ = build_states(3, n=6,
                                                      n_keywords=2)
        for t in range(1, 60):
            text = keywords[t % 2]
            reference.begin_auction(text, float(t))
            mirror.begin_auction(text, float(t))
        assert_parity(reference, mirror, keywords, "cap")
        for text in keywords:
            bids = mirror.bids_for_keyword(text)
            col = mirror.kw_index[text]
            for advertiser, bid in bids.items():
                assert bid == pytest.approx(
                    mirror.maxbid[advertiser, col])

    def test_floor_at_zero_and_mode_flip_back(self):
        reference, mirror, keywords, _ = build_states(9, n=4,
                                                      n_keywords=1)
        text = keywords[0]
        reference.begin_auction(text, 1.0)
        mirror.begin_auction(text, 1.0)
        for advertiser in range(4):
            reference.record_win(advertiser, 300.0, 1.0)
            mirror.record_win(advertiser, 300.0, 1.0)
        assert all(mirror.mode_of(a) == "dec" for a in range(4))
        horizon = int(300.0 * 4 / float(mirror.target.min())) + 10
        stride = max(horizon // 80, 1)
        for t in range(2, horizon, stride):
            reference.begin_auction(text, float(t))
            mirror.begin_auction(text, float(t))
            assert_parity(reference, mirror, keywords, t)
        assert all(mirror.mode_of(a) == "inc" for a in range(4))

    def test_effective_bid_matches_snapshot(self):
        _, mirror, keywords, _ = build_states(5)
        mirror.begin_auction(keywords[0], 1.0)
        snapshot = mirror.bids_for_keyword(keywords[0])
        for advertiser, bid in snapshot.items():
            assert mirror.effective_bid(advertiser, keywords[0]) == bid


class TestBidSourceView:
    def test_dense_mirror_matches_walk(self):
        _, mirror, keywords, _ = build_states(7)
        source = mirror.begin_auction(keywords[0], 1.0)
        for item, value in source.descending():
            assert source.eff[item] == value
            assert source.key(item) == value
        assert 0 in source
        assert mirror.num_advertisers not in source

    def test_membership_is_the_walk_not_the_id_range(self):
        keywords = ["kw0", "kw1"]
        state = LazyPacerArrays.for_universe(6, keywords)
        state.join_many(np.array([1, 4]), np.ones(2),
                        np.full((2, 2), 1.0), np.full((2, 2), 3.0))
        source = state.begin_auction(keywords[0], 1.0)
        assert len(source) == 2
        assert [item in source for item in range(-1, 7)] \
            == [False, False, True, False, False, True, False, False]

    def test_view_is_invalidated_by_next_auction(self):
        # Documented lifetime: the eff buffer is per-state scratch.
        _, mirror, keywords, _ = build_states(8, n_keywords=2)
        first = mirror.begin_auction(keywords[0], 1.0)
        second = mirror.begin_auction(keywords[1], 2.0)
        assert first.eff is second.eff


class TestAccounting:
    def test_physical_moves_stay_sublinear(self):
        reference, mirror, keywords, _ = build_states(17, n=40,
                                                      n_keywords=2)
        for t in range(1, 150):
            text = keywords[t % 2]
            reference.begin_auction(text, float(t))
            mirror.begin_auction(text, float(t))
        eager_updates = 150 * 40
        assert mirror.physical_moves < eager_updates / 10
        assert mirror.keyword_count(keywords[0]) \
            == reference.keyword_count(keywords[0])

    def test_trigger_stats_exposed(self):
        _, mirror, _, _ = build_states(21, n=4, n_keywords=1)
        scheduled, fired, pending = mirror.trigger_stats()
        assert scheduled >= 4  # one bound trigger per unsaturated bid
        assert fired == 0
        assert pending == scheduled


class TestChurnEqualsFreshBuild:
    """Any interleaving of join/leave/update (and auctions, and wins)
    leaves the incrementally-maintained state equal to a fresh build
    from the surviving population — the online serving layer's
    maintenance invariant, at the data-structure level."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_churn_interleavings(self, seed):
        rng = np.random.default_rng(seed)
        capacity, n_keywords = 20, 2
        keywords = [f"kw{j}" for j in range(n_keywords)]
        values = rng.uniform(0.5, 20.0, size=(capacity, n_keywords))
        matrix = rng.uniform(0.1, 0.9, size=(capacity, 3))
        state = LazyPacerArrays(capacity, keywords)
        index = ColumnArgsortIndex(matrix, members=state.active_ids())
        active: list[int] = []
        time = 0.0
        for _ in range(120):
            time += 1.0
            action = rng.random()
            if action < 0.25 and len(active) < capacity:
                advertiser = int(rng.choice(
                    [a for a in range(capacity) if a not in active]))
                caps = values[advertiser]
                join(state, advertiser, float(rng.uniform(0.5, 5.0)),
                     bids=caps * 0.5, maxbids=caps)
                index.insert(advertiser)
                active.append(advertiser)
            elif action < 0.4 and len(active) > 1:
                advertiser = int(rng.choice(active))
                state.leave(advertiser)
                index.remove(advertiser)
                active.remove(advertiser)
            elif action < 0.55 and active:
                advertiser = int(rng.choice(active))
                col = int(rng.integers(n_keywords))
                maxbid = float(values[advertiser, col])
                state.update_bid(advertiser, keywords[col],
                                 float(rng.uniform(0.0, maxbid)),
                                 maxbid)
            elif active:
                text = keywords[int(rng.integers(n_keywords))]
                state.begin_auction(text, time)
                if rng.random() < 0.5:
                    winner = int(rng.choice(active))
                    state.record_win(winner,
                                     float(rng.uniform(1.0, 10.0)),
                                     time)

        # The argsort index must equal a fresh stable argsort of the
        # survivors, array for array.
        survivors = np.array(sorted(active), dtype=np.int64)
        fresh_index = ColumnArgsortIndex(matrix, members=survivors)
        assert np.array_equal(index.order, fresh_index.order)
        assert np.array_equal(index.sorted_values,
                              fresh_index.sorted_values)
        assert np.array_equal(index.rank, fresh_index.rank)

        # The pacer state must equal a from-scratch rebuild of its
        # primary capture: same population, same effective bids (to
        # the bit), same modes, counters, and deadlines.
        rebuilt = LazyPacerArrays.from_capture(state.capture())
        assert np.array_equal(rebuilt.active_ids(), survivors)
        assert np.array_equal(state.active_ids(), survivors)
        for text in keywords:
            assert rebuilt.bids_for_keyword(text) \
                == state.bids_for_keyword(text)
        for advertiser in survivors:
            assert rebuilt.mode_of(advertiser) \
                == state.mode_of(advertiser)
        assert np.array_equal(rebuilt.counts, state.counts)
        assert np.array_equal(rebuilt.count_deadlines.critical,
                              state.count_deadlines.critical)
        assert np.array_equal(rebuilt.time_deadlines.critical,
                              state.time_deadlines.critical)
        # Walk parity: the merged descending walks surface the same
        # member sets at the same effective values.
        if len(survivors):
            time += 1.0
            first = state.begin_auction(keywords[0], time)
            second = rebuilt.begin_auction(keywords[0], time)
            assert sorted(first.descending()) \
                == sorted(second.descending())


class TestValidation:
    def test_bulk_join_validation(self):
        state = LazyPacerArrays.for_universe(3, ["kw"])
        one, two = np.ones((1, 1)), np.ones((2, 1))
        with pytest.raises(KeyError, match="outside capacity"):
            state.join_many(np.array([0, 3]), np.ones(2), two, two)
        with pytest.raises(KeyError, match="already active"):
            state.join_many(np.array([1, 1]), np.ones(2), two, two)
        with pytest.raises(ValueError):  # a non-positive target
            state.join_many(np.array([0, 1]), np.array([1.0, 0.0]),
                            two, two)
        with pytest.raises(ValueError):  # one row short
            state.join_many(np.array([0, 1]), np.ones(2), one, one)
        assert not state.active.any()  # a refused batch joins nobody
        state.join_many(np.array([2, 0]), np.ones(2), two, 2 * two)
        assert state.active_ids().tolist() == [0, 2]

    def test_unknown_keyword_rejected(self):
        _, mirror, _, _ = build_states(1)
        with pytest.raises(KeyError):
            mirror.begin_auction("missing", 1.0)

    def test_negative_price_rejected(self):
        _, mirror, _, _ = build_states(2)
        with pytest.raises(ValueError):
            mirror.record_win(0, -1.0, 1.0)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            LazyPacerArrays(1, ["kw"], step=0.0)

    def test_churn_op_validation(self):
        state = LazyPacerArrays(3, ["kw"])
        bid, cap = np.array([1.0]), np.array([2.0])
        with pytest.raises(KeyError, match="outside capacity"):
            join(state, 5, 1.0, bid, cap)
        with pytest.raises(KeyError, match="outside capacity"):
            join(state, -1, 1.0, bid, cap)
        join(state, 0, 1.0, bid, cap)
        with pytest.raises(KeyError, match="already active"):
            join(state, 0, 1.0, bid, cap)
        with pytest.raises(ValueError):
            join(state, 1, 0.0, bid, cap)  # non-positive target
        with pytest.raises(ValueError):
            join(state, 1, 1.0, np.ones(2), np.ones(2))  # wrong width
        with pytest.raises(KeyError):
            state.leave(2)  # never joined
        with pytest.raises(KeyError):
            state.update_bid(2, "kw", 1.0, 2.0)
        with pytest.raises(ValueError):
            state.update_bid(0, "kw", 1.0, -2.0)  # negative cap
        with pytest.raises(KeyError):
            state.effective_bid(2, "kw")  # inactive row


def _without(lst, advertiser):
    """Reference removal: one id masked out of a list, order kept."""
    keep = lst.ids != advertiser
    return lst.ids[keep], lst.stored[keep]


class TestOneListPerKeyword:
    """A leave or a bid edit takes the row out of exactly the list
    ``cls`` names per keyword; every list then equals the whole-list
    mask compression of its pre-event contents."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_leave_and_update_match_mask_removal(self, seed):
        _, state, keywords, rng = build_states(seed, n=24)
        for t in range(1, 16):
            state.begin_auction(keywords[t % len(keywords)], float(t))
            if rng.random() < 0.6:
                state.record_win(int(rng.integers(state.num_advertisers)),
                                 float(rng.uniform(5.0, 60.0)), float(t))
        state.record_win(0, 1e3, 15.0)  # at least one overspender
        # Wins and saturation spread rows over all three lists.
        assert {which for lists in state.lists
                for which, lst in enumerate(lists) if len(lst)} \
            == {0, 1, 2}
        for advertiser in rng.permutation(state.num_advertisers)[:12]:
            advertiser = int(advertiser)
            before = [[_without(lst, advertiser) for lst in lists]
                      for lists in state.lists]
            if rng.random() < 0.5:
                state.leave(advertiser)
                after = [[(lst.ids, lst.stored) for lst in lists]
                         for lists in state.lists]
            else:
                col = int(rng.integers(len(keywords)))
                maxbid = float(state.maxbid[advertiser, col])
                state.update_bid(advertiser, keywords[col],
                                 float(rng.uniform(0.0, maxbid)), maxbid)
                assert sum(int(np.count_nonzero(lst.ids == advertiser))
                           for lst in state.lists[col]) == 1
                after = [[_without(lst, advertiser) for lst in lists]
                         for lists in state.lists]
            for want_lists, got_lists in zip(before, after):
                for (want_ids, want_stored), (got_ids, got_stored) in zip(
                        want_lists, got_lists):
                    assert np.array_equal(got_ids, want_ids)
                    assert np.array_equal(got_stored, want_stored)
